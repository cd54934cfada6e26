"""Evaluation of arrow terms into the cobordism matrix category.

The interpretation maps the object letter p to a single positive point, I
to the empty point sequence, 0 to the empty object list, and preserves
tensor, direct sum and dual strictly.  On arrows it sends each structural
primitive to its matrix-category counterpart, with the associativity and
unit isomorphisms landing on identity matrices.  By the coherence of the
model, comparing the resulting canonical matrices decides equality of
terms, and the matrix form generalizes this to entries between the
sum-free components of the endpoint objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from . import matcat as mc
from .freegroup import Alphabet, DEFAULT_ALPHABET, gen
from .matcat import MatArrow, ObjList
from . import cobordism as cob
from . import cobsum as cs
from . import syntax as sx
from .syntax import (
    Alpha,
    AlphaInv,
    Comp,
    Dagger,
    Direct,
    Eps,
    Eta,
    Gen,
    GenInv,
    Id,
    Iota1,
    Iota2,
    Lam,
    LamInv,
    Obj,
    ObjI,
    ObjP,
    ObjZero,
    OplusO,
    Pi1,
    Pi2,
    Plus,
    SigmaT,
    Star,
    Tens,
    TensorO,
    Term,
    ZeroT,
)

QUBIT_SEQ: cob.ObjectSeq = (cob.PLUS,)


# ---------------------------------------------------------------------------
# the evaluation context


class EvalContext:
    """Owner of every evaluation cache for one generator alphabet.

    ``types`` holds the endpoints of terms, ``objects`` the object lists of
    object formulas and ``matrices`` the canonical matrices of terms, with
    the hits and misses of that last cache.  All are keyed by hash-consed
    syntax nodes, so one lookup costs one cached hash and an identity test.
    `cobeq check` uses one context per document; calls that pass none share
    `default_context`.
    """

    def __init__(self, alphabet: Alphabet = DEFAULT_ALPHABET):
        self.alphabet = alphabet
        self.types: dict[Term, tuple[Obj, Obj]] = {}
        self.objects: dict[Obj, ObjList] = {}
        self.matrices: dict[Term, MatArrow] = {}
        self.hits = 0
        self.misses = 0

    def sizes(self) -> dict[str, int]:
        """Number of entries in each cache."""
        return {"types": len(self.types), "objects": len(self.objects),
                "matrices": len(self.matrices)}

    def clear(self) -> None:
        """Empty every cache and reset the counters."""
        for cache in (self.types, self.objects, self.matrices):
            cache.clear()
        self.hits = self.misses = 0


_default: EvalContext | None = None


def default_context(alphabet: Alphabet | None = None) -> EvalContext:
    """The context of calls that pass none.  It is kept across calls, so
    the checks of one document share their caches, until a call names an
    alphabet other than its own, which replaces it by a fresh one."""
    global _default
    if _default is None or (alphabet is not None and _default.alphabet != alphabet):
        _default = EvalContext(DEFAULT_ALPHABET if alphabet is None else alphabet)
    return _default


def _context(alphabet: Alphabet | None, context: EvalContext | None) -> EvalContext:
    """``context``, or without one the default context for ``alphabet``
    (`DEFAULT_ALPHABET` if that is None too).  An alphabet given alongside
    a context must be the context's own."""
    if context is None:
        return default_context(DEFAULT_ALPHABET if alphabet is None else alphabet)
    if alphabet is not None and alphabet is not context.alphabet \
            and alphabet != context.alphabet:
        raise ValueError("the alphabet given is not the context's alphabet")
    return context


# ---------------------------------------------------------------------------
# objects


def interp_object(a: Obj, context: EvalContext | None = None) -> ObjList:
    """Object list denoted by an object formula."""
    objects = (context or default_context()).objects
    if a not in objects:
        for node in sx.subterms(a, objects):
            objects[node] = _object_list(node, objects)
    return objects[a]


def _object_list(a: Obj, objects: dict[Obj, ObjList]) -> ObjList:
    """Object list of one node, given those of its subformulas."""
    match a:
        case ObjP():
            return (QUBIT_SEQ,)
        case ObjI():
            return mc.UNIT
        case ObjZero():
            return mc.ZERO_OBJ
        case Star(arg):
            return mc.dual_obj(objects[arg])
        case TensorO(left, right):
            return mc.tensor_obj(objects[left], objects[right])
        case OplusO(left, right):
            return mc.oplus_obj(objects[left], objects[right])
    raise ValueError(f"not an object formula: {a!r}")


# ---------------------------------------------------------------------------
# the interpretation functor


def H(t: Term, alphabet: Alphabet | None = None,
      context: EvalContext | None = None) -> MatArrow:
    """Canonical matrix denoted by a well-typed term, memoised in
    ``context``, by default `default_context(alphabet)`.  The alphabet is
    the context's; naming another one raises ValueError.

    The subterms not yet cached are evaluated in post-order, and each reads
    its children's matrices through `H` as cache hits, so the stack stays
    shallow however deep the term."""
    ctx = _context(alphabet, context)
    hit = ctx.matrices.get(t)
    if hit is not None:
        ctx.hits += 1
        return hit
    sx.typecheck(t, ctx.alphabet, ctx.types)
    for node in sx.subterms(t, ctx.matrices):
        ctx.misses += 1
        src, tgt = ctx.types[node]
        result = _eval(node, ctx)
        if result.src != interp_object(src, ctx) or result.tgt != interp_object(tgt, ctx):
            raise AssertionError(f"the matrix of a {type(node).__name__} term does not "
                                 "have the term's type")
        ctx.matrices[node] = result
    return ctx.matrices[t]


def _generator_matrix(name: str, alphabet: Alphabet, exponent: int) -> MatArrow:
    label = gen(alphabet.index(name), exponent)
    segment = cob.Segment((cob.SRC, 0), (cob.TGT, 0), label)
    g = cob.gcob(QUBIT_SEQ, QUBIT_SEQ, [segment])
    return mc.matarrow((QUBIT_SEQ,), (QUBIT_SEQ,), [[cs.single(g)]])


def _eval(t: Term, ctx: EvalContext) -> MatArrow:
    match t:
        case Gen(name):
            return _generator_matrix(name, ctx.alphabet, 1)
        case GenInv(name):
            return _generator_matrix(name, ctx.alphabet, -1)
        case Id(a):
            return mc.identity(interp_object(a, ctx))
        case Alpha(a, b, c) | AlphaInv(a, b, c):
            src, _ = sx.typecheck(t, ctx.alphabet, ctx.types)
            return mc.identity(interp_object(src, ctx))
        case Lam(a) | LamInv(a):
            return mc.identity(interp_object(a, ctx))
        case SigmaT(a, b):
            return mc.sigma(interp_object(a, ctx), interp_object(b, ctx))
        case Eta(a):
            return mc.eta(interp_object(a, ctx))
        case Eps(a):
            return mc.eps(interp_object(a, ctx))
        case Pi1(a, b):
            return mc.pi1(interp_object(a, ctx), interp_object(b, ctx))
        case Pi2(a, b):
            return mc.pi2(interp_object(a, ctx), interp_object(b, ctx))
        case Iota1(a, b):
            return mc.iota1(interp_object(a, ctx), interp_object(b, ctx))
        case Iota2(a, b):
            return mc.iota2(interp_object(a, ctx), interp_object(b, ctx))
        case ZeroT(a, b):
            return mc.zero(interp_object(a, ctx), interp_object(b, ctx))
        case Dagger(body):
            return mc.dagger(H(body, context=ctx))
        case Tens(left, right):
            return mc.tensor(H(left, context=ctx), H(right, context=ctx))
        case Direct(left, right):
            return mc.oplus(H(left, context=ctx), H(right, context=ctx))
        case Plus(left, right):
            return mc.add(H(left, context=ctx), H(right, context=ctx))
        case Comp(after, before):
            return mc.compose(H(after, context=ctx), H(before, context=ctx))
    raise ValueError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# matrix form


@dataclass(frozen=True)
class MatrixForm:
    row_components: tuple[Obj, ...]
    col_components: tuple[Obj, ...]
    entries: tuple[tuple[MatArrow, ...], ...]


def _components(a: Obj) -> tuple[Obj, ...]:
    """Sum-free components of an object formula, in the order of its object
    list: a leaf is its own component, a tensor pairs its factors'
    components in lexicographic order, a dual stars each component and a
    direct sum concatenates."""
    parts: dict[Obj, tuple[Obj, ...]] = {}
    for node in sx.subterms(a):
        match node:
            case TensorO(left, right):
                parts[node] = tuple(TensorO(x, y) for x in parts[left] for y in parts[right])
            case Star(arg):
                parts[node] = tuple(Star(x) for x in parts[arg])
            case OplusO(left, right):
                parts[node] = parts[left] + parts[right]
            case _:
                parts[node] = (node,)
    return parts[a]


def _blocks(components: tuple[Obj, ...], ctx: EvalContext) -> list[slice]:
    """Where each component lies in the object list of their sum: a
    sum-free object's list has length 0 or 1, and the block starts at the
    total length of the blocks before it."""
    ends = list(accumulate((len(interp_object(c, ctx)) for c in components), initial=0))
    return [slice(start, end) for start, end in zip(ends, ends[1:])]


def matrix_form(u: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> MatrixForm:
    """H(u) cut into blocks between the sum-free components of u's
    endpoints; block (i, j) is the value of proj_i o u o inj_j."""
    ctx = default_context(alphabet)
    src, tgt = sx.typecheck(u, ctx.alphabet, ctx.types)
    value = H(u, context=ctx)
    rows, cols = _components(tgt), _components(src)
    entries = tuple(
        tuple(mc.matarrow(value.src[c], value.tgt[r], [row[c] for row in value.entries[r]])
              for c in _blocks(cols, ctx))
        for r in _blocks(rows, ctx))
    return MatrixForm(rows, cols, entries)


# ---------------------------------------------------------------------------
# the decision procedure


@dataclass(frozen=True)
class Verdict:
    equal: bool
    source: Obj
    target: Obj
    value: MatArrow | None = None
    diff_at: tuple[int, int] | None = None
    left_entry: cs.CobSum | None = None
    right_entry: cs.CobSum | None = None


def equal(f: Term, g: Term, alphabet: Alphabet | None = None,
          context: EvalContext | None = None) -> Verdict:
    """Decide equality of two terms with identical endpoints by comparing
    their canonical matrices; on failure report the first differing entry.
    Caches live in ``context``, by default `default_context(alphabet)`; the
    alphabet is the context's, and naming another one raises ValueError."""
    ctx = _context(alphabet, context)
    fs, ft = sx.typecheck(f, ctx.alphabet, ctx.types)
    gs, gt = sx.typecheck(g, ctx.alphabet, ctx.types)
    if (fs, ft) != (gs, gt):
        raise sx.TypeCheckError(
            f"endpoint mismatch: {sx.print_obj(fs)} -> {sx.print_obj(ft)} "
            f"vs {sx.print_obj(gs)} -> {sx.print_obj(gt)}")
    hf = H(f, context=ctx)
    hg = H(g, context=ctx)
    if hf == hg:
        return Verdict(True, fs, ft, value=hf)
    for i, (row_f, row_g) in enumerate(zip(hf.entries, hg.entries)):
        for j, (ef, eg) in enumerate(zip(row_f, row_g)):
            if ef != eg:
                return Verdict(False, fs, ft, diff_at=(i, j),
                               left_entry=ef, right_entry=eg)
    raise AssertionError("matrices differ but all entries equal")
