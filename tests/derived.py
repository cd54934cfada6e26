"""Constructions derived from the term, matrix and cobordism structure that
only tests use: tuples and cotuples, names and conames, traces, the scalar
action, the distributors, the derived isomorphisms, the operations on
matrix forms, the transpose composite and the injection/projection families
with the matrix form built from them as terms.  The library keeps only what
the decision procedure, the CLI and the protocols use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from cobeq import cobordism as cob
from cobeq import interp
from cobeq import matcat as mc
from cobeq import syntax as sx
from cobeq.cobordism import O, SRC, TGT, GCob, Point, Segment, TypeMismatch
from cobeq.freegroup import Alphabet, DEFAULT_ALPHABET
from cobeq.interp import MatrixForm, interp_object
from cobeq.matcat import MatArrow, ObjList, UNIT
from cobeq.syntax import (
    Alpha, AlphaInv, Comp, Dagger, Direct, Eps, Eta, Id, Iota1, Iota2, Lam,
    LamInv, Obj, ObjI, ObjP, ObjZero, OplusO, Pi1, Pi2, Plus, SigmaT, Star,
    Tens, TensorO, Term, TypeCheckError, typecheck,
)


# ---------------------------------------------------------------------------
# single cobordisms


def _remap(f: GCob, src, tgt, move) -> GCob:
    segs = [Segment(move(s.start), move(s.end), s.label) for s in f.segments]
    return cob.gcob(src, tgt, segs, f.circles)


def cob_name(f: GCob) -> GCob:
    """Bend f: a -> b into o -> a* (x) b, keeping labels."""
    n = len(f.src)

    def move(p: Point) -> Point:
        side, i = p
        return (TGT, n - 1 - i) if side == SRC else (TGT, n + i)

    return _remap(f, O, cob.dual_object(f.src) + f.tgt, move)


def cob_coname(f: GCob) -> GCob:
    """Bend f: a -> b into a (x) b* -> o, keeping labels."""
    n, m = len(f.src), len(f.tgt)

    def move(p: Point) -> Point:
        side, i = p
        return (SRC, i) if side == SRC else (SRC, n + (m - 1 - i))

    return _remap(f, f.src + cob.dual_object(f.tgt), O, move)


def cob_lower_star(f: GCob) -> GCob:
    """f_* = (f dagger)*: a* -> b*, with all labels inverted."""
    return cob.transpose_star(cob.dagger(f))


# ---------------------------------------------------------------------------
# matrices


def tuple_(parts: list[MatArrow]) -> MatArrow:
    """Stack vertically: the tuple into the concatenated target."""
    if not parts:
        raise ValueError("tuple of no arrows")
    src = parts[0].src
    if any(p.src != src for p in parts):
        raise TypeMismatch("tuple requires a common source")
    tgt = tuple(b for p in parts for b in p.tgt)
    rows = [row for p in parts for row in p.entries]
    return mc.matarrow(src, tgt, rows)


def cotuple(parts: list[MatArrow]) -> MatArrow:
    """Stack horizontally: the cotuple out of the concatenated source."""
    if not parts:
        raise ValueError("cotuple of no arrows")
    tgt = parts[0].tgt
    if any(p.tgt != tgt for p in parts):
        raise TypeMismatch("cotuple requires a common target")
    src = tuple(a for p in parts for a in p.src)
    rows = [
        [x for p in parts for x in p.entries[i]]
        for i in range(len(tgt))
    ]
    return mc.matarrow(src, tgt, rows)


def name(x: MatArrow) -> MatArrow:
    """(a* (x) x) o eta_a : I -> a* (x) b."""
    return mc.compose(mc.tensor(mc.identity(mc.dual_obj(x.src)), x), mc.eta(x.src))


def coname(x: MatArrow) -> MatArrow:
    """eps_b o (x (x) b*) : a (x) b* -> I."""
    return mc.compose(mc.eps(x.tgt), mc.tensor(x, mc.identity(mc.dual_obj(x.tgt))))


def trace(x: MatArrow) -> MatArrow:
    """Close an endomorphism into a scalar:
    eps_a o (x (x) a*) o sigma_{a*,a} o eta_a."""
    if x.src != x.tgt:
        raise TypeMismatch("trace needs an endomorphism")
    a = x.src
    loop = mc.compose(mc.tensor(x, mc.identity(mc.dual_obj(a))), mc.sigma(mc.dual_obj(a), a))
    return mc.compose(mc.eps(a), mc.compose(loop, mc.eta(a)))


def scalar_act(s: MatArrow, x: MatArrow) -> MatArrow:
    """s-fold rescaling x o s_a, where s_a = s (x) 1_a in the strict model."""
    if s.src != UNIT or s.tgt != UNIT:
        raise TypeMismatch("scalar must be typed I -> I")
    return mc.compose(x, mc.tensor(s, mc.identity(x.src)))


def distrib_tau(a: ObjList, b: ObjList, c: ObjList) -> MatArrow:
    """a (x) (b (+) c) -> (a (x) b) (+) (a (x) c), from its defining tuple."""
    return tuple_([
        mc.tensor(mc.identity(a), mc.pi1(b, c)),
        mc.tensor(mc.identity(a), mc.pi2(b, c)),
    ])


def distrib_upsilon(a: ObjList, b: ObjList, c: ObjList) -> MatArrow:
    """(a (+) b) (x) c -> (a (x) c) (+) (b (x) c), from its defining tuple."""
    return tuple_([
        mc.tensor(mc.pi1(a, b), mc.identity(c)),
        mc.tensor(mc.pi2(a, b), mc.identity(c)),
    ])


# ---------------------------------------------------------------------------
# matrix forms


def mf_compose(x: MatrixForm, y: MatrixForm) -> MatrixForm:
    """Grid composition with entrywise matrix composition and sum."""
    if x.col_components != y.row_components:
        raise TypeMismatch("grid middle components differ")
    rows = []
    for i in range(len(x.row_components)):
        row = []
        for j in range(len(y.col_components)):
            acc = mc.zero(interp_object(y.col_components[j]),
                          interp_object(x.row_components[i]))
            for k in range(len(x.col_components)):
                acc = mc.add(acc, mc.compose(x.entries[i][k], y.entries[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return MatrixForm(x.row_components, y.col_components, tuple(rows))


def mf_tensor(x: MatrixForm, y: MatrixForm) -> MatrixForm:
    rows_c = tuple(TensorO(b, d) for b in x.row_components for d in y.row_components)
    cols_c = tuple(TensorO(a, c) for a in x.col_components for c in y.col_components)
    rows = []
    for i in range(len(x.row_components)):
        for i2 in range(len(y.row_components)):
            row = []
            for j in range(len(x.col_components)):
                for j2 in range(len(y.col_components)):
                    row.append(mc.tensor(x.entries[i][j], y.entries[i2][j2]))
            rows.append(tuple(row))
    return MatrixForm(rows_c, cols_c, tuple(rows))


def mf_oplus(x: MatrixForm, y: MatrixForm) -> MatrixForm:
    rows_c = x.row_components + y.row_components
    cols_c = x.col_components + y.col_components
    rows = []
    for i in range(len(x.row_components)):
        pad = [mc.zero(interp_object(c), interp_object(x.row_components[i]))
               for c in y.col_components]
        rows.append(tuple(x.entries[i]) + tuple(pad))
    for i in range(len(y.row_components)):
        pad = [mc.zero(interp_object(c), interp_object(y.row_components[i]))
               for c in x.col_components]
        rows.append(tuple(pad) + tuple(y.entries[i]))
    return MatrixForm(rows_c, cols_c, tuple(rows))


def mf_add(x: MatrixForm, y: MatrixForm) -> MatrixForm:
    if x.row_components != y.row_components or x.col_components != y.col_components:
        raise TypeMismatch("grid sum of different types")
    rows = tuple(
        tuple(mc.add(x.entries[i][j], y.entries[i][j])
              for j in range(len(x.col_components)))
        for i in range(len(x.row_components))
    )
    return MatrixForm(x.row_components, x.col_components, rows)


# ---------------------------------------------------------------------------
# terms


def name_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """The name of f: a -> b, typed I -> a* (x) b."""
    a, _ = typecheck(f, alphabet)
    return Comp(Tens(Id(Star(a)), f), Eta(a))


def coname_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """The coname of f: a -> b, typed a (x) b* -> I."""
    _, b = typecheck(f, alphabet)
    return Comp(Eps(b), Tens(f, Id(Star(b))))


def lower_star_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """f_* = (f dagger)*: a* -> b*."""
    return star_term(Dagger(f), alphabet)


def star_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET,
              types: dict[Term, tuple[Obj, Obj]] | None = None) -> Term:
    """The transpose f*: b* -> a* as its defining composite; ``types`` is
    handed to `typecheck`."""
    a, b = typecheck(f, alphabet, types)
    return Comp(Lam(Star(a)), Comp(SigmaT(Star(a), sx.UNIT), Comp(
        Tens(Id(Star(a)), Eps(b)), Comp(
            AlphaInv(Star(a), b, Star(b)), Comp(
                Tens(Tens(Id(Star(a)), f), Id(Star(b))), Comp(
                    Tens(Eta(a), Id(Star(b))), LamInv(Star(b))))))))


def tuple_term(parts: list[Term], alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """Biproduct tuple with target the left-nested direct sum of targets."""
    if not parts:
        raise ValueError("tuple of no terms")

    def pair(f: Term, g: Term) -> Term:
        _, bf = typecheck(f, alphabet)
        _, bg = typecheck(g, alphabet)
        return Plus(Comp(Iota1(bf, bg), f), Comp(Iota2(bf, bg), g))

    return reduce(pair, parts)


def cotuple_term(parts: list[Term], alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """Biproduct cotuple with source the left-nested direct sum of sources."""
    if not parts:
        raise ValueError("cotuple of no terms")

    def pair(f: Term, g: Term) -> Term:
        af, _ = typecheck(f, alphabet)
        ag, _ = typecheck(g, alphabet)
        return Plus(Comp(f, Pi1(af, ag)), Comp(g, Pi2(af, ag)))

    return reduce(pair, parts)


def oplus_term(parts: list[Term]) -> Term:
    return reduce(Direct, parts)


def oplus_obj(parts: list[Obj]) -> Obj:
    return reduce(OplusO, parts)


def nfold_obj(a: Obj, n: int) -> Obj:
    return oplus_obj([a] * n)


def tau_term(a: Obj, b: Obj, c: Obj) -> Term:
    """Distributivity a (x) (b (+) c) -> (a (x) b) (+) (a (x) c)."""
    return tuple_term([Tens(Id(a), Pi1(b, c)), Tens(Id(a), Pi2(b, c))])


def upsilon_term(a: Obj, b: Obj, c: Obj) -> Term:
    """Distributivity (a (+) b) (x) c -> (a (x) c) (+) (b (x) c)."""
    return tuple_term([Tens(Pi1(a, b), Id(c)), Tens(Pi2(a, b), Id(c))])


def upsilon_n(parts: list[Obj], c: Obj) -> Term:
    """Iterated distributivity (x1 (+) ... (+) xk) (x) c -> left-nested sum
    of the xi (x) c."""
    if len(parts) == 1:
        return Id(TensorO(parts[0], c))
    left = oplus_obj(parts[:-1])
    last = parts[-1]
    step = upsilon_term(left, last, c)
    rest = upsilon_n(parts[:-1], c)
    return Comp(Direct(rest, Id(TensorO(last, c))), step)


def tau_n(a: Obj, parts: list[Obj]) -> Term:
    """Iterated distributivity a (x) (y1 (+) ... (+) yk) -> left-nested sum
    of the a (x) yi."""
    if len(parts) == 1:
        return Id(TensorO(a, parts[0]))
    left = oplus_obj(parts[:-1])
    last = parts[-1]
    step = tau_term(a, left, last)
    rest = tau_n(a, parts[:-1])
    return Comp(Direct(rest, Id(TensorO(a, last))), step)


def trace_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """Categorical trace eps_a o (f (x) a*) o sigma_{a*,a} o eta_a."""
    a, b = typecheck(f, alphabet)
    if a != b:
        raise TypeCheckError("trace needs an endomorphism")
    return Comp(Eps(a), Comp(Tens(f, Id(Star(a))), Comp(SigmaT(Star(a), a), Eta(a))))


def scalar_act_term(s: Term, f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """The rescaling of f by a scalar s: I -> I, as f o s_a."""
    ss, st = typecheck(s, alphabet)
    if ss != sx.UNIT or st != sx.UNIT:
        raise TypeCheckError("scalar must be typed I -> I")
    a, _ = typecheck(f, alphabet)
    s_a = Comp(Lam(a), Comp(Tens(s, Id(a)), LamInv(a)))
    return Comp(f, s_a)


def u_term(a: Obj, b: Obj) -> Term:
    """Derived isomorphism (a (x) b)* -> b* (x) a*."""
    c = Star(TensorO(a, b))
    bc = TensorO(b, c)
    steps = [
        Lam(TensorO(Star(b), Star(a))),
        SigmaT(TensorO(Star(b), Star(a)), sx.UNIT),
        Tens(Id(TensorO(Star(b), Star(a))), Eps(TensorO(a, b))),
        Alpha(Star(b), Star(a), TensorO(TensorO(a, b), c)),
        Tens(Id(Star(b)), Tens(Id(Star(a)), Alpha(a, b, c))),
        Tens(Id(Star(b)), AlphaInv(Star(a), a, bc)),
        Tens(Id(Star(b)), Tens(Eta(a), Id(bc))),
        Tens(Id(Star(b)), LamInv(bc)),
        AlphaInv(Star(b), b, c),
        Tens(Eta(b), Id(c)),
        LamInv(c),
    ]
    return reduce(Comp, steps)


def v_term() -> Term:
    """Derived isomorphism I* -> I."""
    return Comp(Eps(sx.UNIT), LamInv(Star(sx.UNIT)))


def w_term(a: Obj) -> Term:
    """Derived isomorphism a** -> a."""
    ass = Star(Star(a))
    steps = [
        Lam(a),
        Tens(Eps(Star(a)), Id(a)),
        Tens(SigmaT(ass, Star(a)), Id(a)),
        Alpha(ass, Star(a), a),
        Tens(Id(ass), Eta(a)),
        SigmaT(sx.UNIT, ass),
        LamInv(ass),
    ]
    return reduce(Comp, steps)


# ---------------------------------------------------------------------------
# injections and projections, and the matrix form built from them


@dataclass(frozen=True)
class InjProjFamily:
    obj: Obj
    components: tuple[Obj, ...]
    injections: tuple[Term, ...]
    projections: tuple[Term, ...]


def inj_proj(a: Obj, alphabet: Alphabet = DEFAULT_ALPHABET,
             types: dict[Term, tuple[Obj, Obj]] | None = None) -> InjProjFamily:
    """Sum-free components of a with their injection and projection terms.

    Defined by induction on a: leaves are their own single component; a
    tensor has the componentwise tensors in lexicographic order; a dual has
    the transposed projections as injections and vice versa; a direct sum
    concatenates, composed with the binary injections or projections.
    ``types`` is handed to `typecheck` when the transposes are built.
    """
    families: dict[Obj, InjProjFamily] = {}
    for node in sx.subterms(a):
        families[node] = _family(node, families, alphabet, types)
    return families[a]


def _family(a: Obj, families: dict[Obj, InjProjFamily], alphabet: Alphabet,
            types: dict[Term, tuple[Obj, Obj]] | None) -> InjProjFamily:
    """Family of one node, given those of its subformulas."""
    match a:
        case ObjP() | ObjI() | ObjZero():
            return InjProjFamily(a, (a,), (Id(a),), (Id(a),))
        case TensorO(a1, a2):
            f1, f2 = families[a1], families[a2]
            n2 = len(f2.components)
            comps, injs, projs = [], [], []
            for i in range(len(f1.components) * n2):
                i1, i2 = divmod(i, n2)
                comps.append(TensorO(f1.components[i1], f2.components[i2]))
                injs.append(Tens(f1.injections[i1], f2.injections[i2]))
                projs.append(Tens(f1.projections[i1], f2.projections[i2]))
            return InjProjFamily(a, tuple(comps), tuple(injs), tuple(projs))
        case Star(a1):
            f1 = families[a1]
            comps = tuple(Star(c) for c in f1.components)
            injs = tuple(star_term(p, alphabet, types) for p in f1.projections)
            projs = tuple(star_term(i, alphabet, types) for i in f1.injections)
            return InjProjFamily(a, comps, injs, projs)
        case OplusO(a1, a2):
            f1, f2 = families[a1], families[a2]
            comps = f1.components + f2.components
            injs = tuple(Comp(Iota1(a1, a2), i) for i in f1.injections)
            injs += tuple(Comp(Iota2(a1, a2), i) for i in f2.injections)
            projs = tuple(Comp(p, Pi1(a1, a2)) for p in f1.projections)
            projs += tuple(Comp(p, Pi2(a1, a2)) for p in f2.projections)
            return InjProjFamily(a, comps, injs, projs)
    raise ValueError(f"not an object formula: {a!r}")


def term_matrix_form(u: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> MatrixForm:
    """The matrix form as terms: the grid of values of proj_i o u o inj_j
    over the sum-free components of u's endpoints, each cell evaluated on
    its own.  The reference for `interp.matrix_form`, which slices H(u)."""
    ctx = interp.default_context(alphabet)
    src, tgt = typecheck(u, ctx.alphabet, ctx.types)
    fam_a = inj_proj(src, ctx.alphabet, ctx.types)
    fam_b = inj_proj(tgt, ctx.alphabet, ctx.types)
    entries = tuple(
        tuple(interp.H(Comp(p, Comp(u, i)), context=ctx) for i in fam_a.injections)
        for p in fam_b.projections)
    return MatrixForm(fam_b.components, fam_a.components, entries)
