"""Typed matrices of cobordism sums: the biproduct completion.

Objects are finite lists of sign sequences; the empty list is the zero
object, distinct from the singleton list holding the empty sequence (the
tensor unit).  An arrow from an n-list to an m-list is an m x n grid of
multiset entries, composed by matrix multiplication over (add, compose).
The matrix alone owns the types: entry (i, j) is typed src[j] -> tgt[i],
and every zero entry is the one untyped ``cobsum.ZERO``.  Every arrow is
built from its nonzero entries, and every operation reads only those of
its operands.
The compact closed structure is strict: associativity and unit arrows are
identity matrices, tensor is the Kronecker product, dual acts componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cobordism as cob
from . import cobsum as cs
from .cobordism import ObjectSeq, TypeMismatch
from .cobsum import CobSum
from .freegroup import Alphabet, DEFAULT_ALPHABET

ObjList = tuple[ObjectSeq, ...]

ZERO_OBJ: ObjList = ()
UNIT: ObjList = (cob.O,)


@dataclass(frozen=True)
class MatArrow:
    src: ObjList
    tgt: ObjList
    entries: tuple[tuple[CobSum, ...], ...]


def matarrow(src, tgt, entries) -> MatArrow:
    src = tuple(map(tuple, src))
    tgt = tuple(map(tuple, tgt))
    rows = tuple(map(tuple, entries))
    if len(rows) != len(tgt) or any(len(row) != len(src) for row in rows):
        raise ValueError("entry grid does not match the row/column objects")
    # cobsum() gives all members of a multiset one type, so the first
    # member's type is the entry's.
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x.terms:
                g = x.terms[0][0]
                if g.src != src[j] or g.tgt != tgt[i]:
                    raise TypeMismatch(f"entry ({i},{j}) typed {g.src}->{g.tgt}, "
                                       f"expected {src[j]}->{tgt[i]}")
    return MatArrow(src, tgt, rows)


def tensor_obj(a: ObjList, b: ObjList) -> ObjList:
    """Lexicographic product with componentwise concatenation."""
    return tuple(x + y for x in a for y in b)


def oplus_obj(a: ObjList, b: ObjList) -> ObjList:
    return tuple(a) + tuple(b)


def dual_obj(a: ObjList) -> ObjList:
    return tuple(cob.dual_object(x) for x in a)


def _from_support(src, tgt, support: dict) -> MatArrow:
    """The matrix src -> tgt whose entry (i, j) is support[i, j], and the
    shared ``cobsum.ZERO`` off the support."""
    rows = [[cs.ZERO] * len(src) for _ in tgt]
    for (i, j), x in support.items():
        rows[i][j] = x
    return matarrow(src, tgt, rows)


def _support(x: MatArrow) -> dict:
    """The nonzero entries of x, keyed by (row, column)."""
    return {(i, j): e for i, row in enumerate(x.entries)
            for j, e in enumerate(row) if e.terms}


def _diagonal(a: ObjList, row: int = 0, col: int = 0) -> dict:
    """Identity cobordisms of a's components on a diagonal from (row, col)."""
    return {(row + k, col + k): cs.single(cob.identity(x)) for k, x in enumerate(a)}


def identity(a: ObjList) -> MatArrow:
    return _from_support(a, a, _diagonal(a))


def zero(a: ObjList, b: ObjList) -> MatArrow:
    return _from_support(a, b, {})


def compose(after: MatArrow, before: MatArrow) -> MatArrow:
    """Categorical composite after o before (before applied first).

    Composition through the zero object has an empty middle index, so the
    result is the zero matrix.
    """
    if after.src != before.tgt:
        raise TypeMismatch(f"middle objects differ: {after.src} vs {before.tgt}")
    out: dict = {}
    for (i, k), x in _support(after).items():
        for j, y in enumerate(before.entries[k]):
            if y.terms:
                out[i, j] = cs.add(out.get((i, j), cs.ZERO), cs.compose(x, y))
    return _from_support(before.src, after.tgt, out)


def add(x: MatArrow, y: MatArrow) -> MatArrow:
    if x.src != y.src or x.tgt != y.tgt:
        raise TypeMismatch("sum of differently typed matrices")
    out = _support(x)
    for ij, e in _support(y).items():
        out[ij] = cs.add(out.get(ij, cs.ZERO), e)
    return _from_support(x.src, x.tgt, out)


def tensor(x: MatArrow, y: MatArrow) -> MatArrow:
    """Kronecker product; either factor on the zero object collapses all."""
    m, n = len(y.tgt), len(y.src)
    ys = _support(y).items()
    return _from_support(tensor_obj(x.src, y.src), tensor_obj(x.tgt, y.tgt), {
        (i * m + k, j * n + l): cs.tensor(e, f)
        for (i, j), e in _support(x).items() for (k, l), f in ys})


def oplus(x: MatArrow, y: MatArrow) -> MatArrow:
    m, n = len(x.tgt), len(x.src)
    return _from_support(oplus_obj(x.src, y.src), oplus_obj(x.tgt, y.tgt), {
        **_support(x), **{(m + i, n + j): e for (i, j), e in _support(y).items()}})


def dagger(x: MatArrow) -> MatArrow:
    return _from_support(x.tgt, x.src, {
        (j, i): cs.dagger(e) for (i, j), e in _support(x).items()})


def star(x: MatArrow) -> MatArrow:
    """Transpose with entrywise transpose, typed b* -> a*."""
    return _from_support(dual_obj(x.tgt), dual_obj(x.src), {
        (j, i): cs.star(e) for (i, j), e in _support(x).items()})


def pi1(a: ObjList, b: ObjList) -> MatArrow:
    return _from_support(oplus_obj(a, b), a, _diagonal(a))


def pi2(a: ObjList, b: ObjList) -> MatArrow:
    return _from_support(oplus_obj(a, b), b, _diagonal(b, 0, len(a)))


def iota1(a: ObjList, b: ObjList) -> MatArrow:
    return _from_support(a, oplus_obj(a, b), _diagonal(a))


def iota2(a: ObjList, b: ObjList) -> MatArrow:
    return _from_support(b, oplus_obj(a, b), _diagonal(b, len(a), 0))


def sigma(a: ObjList, b: ObjList) -> MatArrow:
    """Symmetry as the block permutation matrix whose support carries the
    componentwise symmetry cobordisms."""
    n, m = len(a), len(b)
    return _from_support(tensor_obj(a, b), tensor_obj(b, a), {
        (j * n + i, i * m + j): cs.single(cob.sigma(x, y))
        for i, x in enumerate(a) for j, y in enumerate(b)})


def eta(a: ObjList) -> MatArrow:
    """Unit I -> a* (x) a: component units on the diagonal rows k*(n+1)."""
    n = len(a)
    return _from_support(UNIT, tensor_obj(dual_obj(a), a), {
        (k * (n + 1), 0): cs.single(cob.eta(x)) for k, x in enumerate(a)})


def eps(a: ObjList) -> MatArrow:
    """Counit a (x) a* -> I: component counits in the columns k*(n+1)."""
    n = len(a)
    return _from_support(tensor_obj(a, dual_obj(a)), UNIT, {
        (0, k * (n + 1)): cs.single(cob.eps(x)) for k, x in enumerate(a)})


def to_jsonable(x: MatArrow, alphabet: Alphabet = DEFAULT_ALPHABET) -> dict:
    def fmt_obj(a: ObjectSeq) -> str:
        return "".join("+" if s == cob.PLUS else "-" for s in a)

    return {
        "cols": [fmt_obj(a) for a in x.src],
        "rows": [fmt_obj(b) for b in x.tgt],
        "entries": [
            [cs.to_jsonable(e, a, b, alphabet) for a, e in zip(x.src, row)]
            for b, row in zip(x.tgt, x.entries)
        ],
    }
