"""Typed matrices of cobordism sums: the biproduct completion.

Objects are finite lists of sign sequences; the empty list is the zero
object, distinct from the singleton list holding the empty sequence (the
tensor unit).  An arrow from an n-list to an m-list is an m x n grid of
multiset entries, composed by matrix multiplication over (add, compose).
The matrix alone owns the types: entry (i, j) is typed src[j] -> tgt[i],
and every zero entry is the one untyped ``cobsum.ZERO``.
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
    src = tuple(tuple(a) for a in src)
    tgt = tuple(tuple(b) for b in tgt)
    rows = tuple(tuple(row) for row in entries)
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


def identity(a: ObjList) -> MatArrow:
    a = tuple(a)
    n = len(a)
    rows = [
        [
            cs.single(cob.identity(a[i])) if i == j else cs.ZERO
            for j in range(n)
        ]
        for i in range(n)
    ]
    return matarrow(a, a, rows)


def zero(a: ObjList, b: ObjList) -> MatArrow:
    a, b = tuple(a), tuple(b)
    rows = [[cs.ZERO] * len(a) for _ in b]
    return matarrow(a, b, rows)


def compose(after: MatArrow, before: MatArrow) -> MatArrow:
    """Categorical composite after o before (before applied first).

    Composition through the zero object has an empty middle index, so the
    result is the zero matrix.
    """
    if after.src != before.tgt:
        raise TypeMismatch(f"middle objects differ: {after.src} vs {before.tgt}")
    a, b, c = before.src, before.tgt, after.tgt
    rows = []
    for i in range(len(c)):
        row = []
        for j in range(len(a)):
            acc = cs.ZERO
            for k in range(len(b)):
                x = after.entries[i][k]
                y = before.entries[k][j]
                if cs.is_zero(x) or cs.is_zero(y):
                    continue
                acc = cs.add(acc, cs.compose(x, y))
            row.append(acc)
        rows.append(row)
    return matarrow(a, c, rows)


def add(x: MatArrow, y: MatArrow) -> MatArrow:
    if x.src != y.src or x.tgt != y.tgt:
        raise TypeMismatch("sum of differently typed matrices")
    rows = [
        [cs.add(x.entries[i][j], y.entries[i][j]) for j in range(len(x.src))]
        for i in range(len(x.tgt))
    ]
    return matarrow(x.src, x.tgt, rows)


def tensor(x: MatArrow, y: MatArrow) -> MatArrow:
    """Kronecker product; either factor on the zero object collapses all."""
    src = tensor_obj(x.src, y.src)
    tgt = tensor_obj(x.tgt, y.tgt)
    rows = []
    for i in range(len(x.tgt)):
        for i2 in range(len(y.tgt)):
            row = []
            for j in range(len(x.src)):
                for j2 in range(len(y.src)):
                    row.append(cs.tensor(x.entries[i][j], y.entries[i2][j2]))
            rows.append(row)
    return matarrow(src, tgt, rows)


def oplus(x: MatArrow, y: MatArrow) -> MatArrow:
    src = oplus_obj(x.src, y.src)
    tgt = oplus_obj(x.tgt, y.tgt)
    n1, n2 = len(x.src), len(y.src)
    rows = []
    for i in range(len(x.tgt)):
        rows.append(list(x.entries[i]) + [cs.ZERO] * n2)
    for i in range(len(y.tgt)):
        rows.append([cs.ZERO] * n1 + list(y.entries[i]))
    return matarrow(src, tgt, rows)


def dagger(x: MatArrow) -> MatArrow:
    rows = [
        [cs.dagger(x.entries[i][j]) for i in range(len(x.tgt))]
        for j in range(len(x.src))
    ]
    return matarrow(x.tgt, x.src, rows)


def star(x: MatArrow) -> MatArrow:
    """Transpose with entrywise transpose, typed b* -> a*."""
    rows = [
        [cs.star(x.entries[i][j]) for i in range(len(x.tgt))]
        for j in range(len(x.src))
    ]
    return matarrow(dual_obj(x.tgt), dual_obj(x.src), rows)


def pi1(a: ObjList, b: ObjList) -> MatArrow:
    a, b = tuple(a), tuple(b)
    src = oplus_obj(a, b)
    rows = [
        list(identity(a).entries[i]) + [cs.ZERO] * len(b)
        for i in range(len(a))
    ]
    return matarrow(src, a, rows)


def pi2(a: ObjList, b: ObjList) -> MatArrow:
    a, b = tuple(a), tuple(b)
    src = oplus_obj(a, b)
    rows = [
        [cs.ZERO] * len(a) + list(identity(b).entries[i])
        for i in range(len(b))
    ]
    return matarrow(src, b, rows)


def iota1(a: ObjList, b: ObjList) -> MatArrow:
    return dagger(pi1(a, b))


def iota2(a: ObjList, b: ObjList) -> MatArrow:
    return dagger(pi2(a, b))


def sigma(a: ObjList, b: ObjList) -> MatArrow:
    """Symmetry as the block permutation matrix whose support carries the
    componentwise symmetry cobordisms."""
    a, b = tuple(a), tuple(b)
    n, m = len(a), len(b)
    src = tensor_obj(a, b)
    tgt = tensor_obj(b, a)
    rows = [[cs.ZERO] * (n * m) for _ in range(m * n)]
    for i in range(n):
        for j in range(m):
            rows[j * n + i][i * m + j] = cs.single(cob.sigma(a[i], b[j]))
    return matarrow(src, tgt, rows)


def eta(a: ObjList) -> MatArrow:
    """Unit I -> a* (x) a: component units on the diagonal rows k*(n+1)."""
    a = tuple(a)
    n = len(a)
    tgt = tensor_obj(dual_obj(a), a)
    rows = [[cs.ZERO] for _ in range(n * n)]
    for k in range(n):
        rows[k * (n + 1)][0] = cs.single(cob.eta(a[k]))
    return matarrow(UNIT, tgt, rows)


def eps(a: ObjList) -> MatArrow:
    """Counit a (x) a* -> I: component counits in the columns k*(n+1)."""
    a = tuple(a)
    n = len(a)
    src = tensor_obj(a, dual_obj(a))
    row = [cs.ZERO] * (n * n)
    for k in range(n):
        row[k * (n + 1)] = cs.single(cob.eps(a[k]))
    return matarrow(src, UNIT, [row])


def tuple_(parts: list[MatArrow]) -> MatArrow:
    """Stack vertically: the tuple into the concatenated target."""
    if not parts:
        raise ValueError("tuple of no arrows")
    src = parts[0].src
    if any(p.src != src for p in parts):
        raise TypeMismatch("tuple requires a common source")
    tgt = tuple(b for p in parts for b in p.tgt)
    rows = [row for p in parts for row in p.entries]
    return matarrow(src, tgt, rows)


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
    return matarrow(src, tgt, rows)


def name(x: MatArrow) -> MatArrow:
    """(a* (x) x) o eta_a : I -> a* (x) b."""
    return compose(tensor(identity(dual_obj(x.src)), x), eta(x.src))


def coname(x: MatArrow) -> MatArrow:
    """eps_b o (x (x) b*) : a (x) b* -> I."""
    return compose(eps(x.tgt), tensor(x, identity(dual_obj(x.tgt))))


def trace(x: MatArrow) -> MatArrow:
    """Close an endomorphism into a scalar:
    eps_a o (x (x) a*) o sigma_{a*,a} o eta_a."""
    if x.src != x.tgt:
        raise TypeMismatch("trace needs an endomorphism")
    a = x.src
    loop = compose(tensor(x, identity(dual_obj(a))), sigma(dual_obj(a), a))
    return compose(eps(a), compose(loop, eta(a)))


def scalar_act(s: MatArrow, x: MatArrow) -> MatArrow:
    """s-fold rescaling x o s_a, where s_a = s (x) 1_a in the strict model."""
    if s.src != UNIT or s.tgt != UNIT:
        raise TypeMismatch("scalar must be typed I -> I")
    return compose(x, tensor(s, identity(x.src)))


def distrib_tau(a: ObjList, b: ObjList, c: ObjList) -> MatArrow:
    """a (x) (b (+) c) -> (a (x) b) (+) (a (x) c), from its defining tuple."""
    return tuple_([
        tensor(identity(a), pi1(b, c)),
        tensor(identity(a), pi2(b, c)),
    ])


def distrib_upsilon(a: ObjList, b: ObjList, c: ObjList) -> MatArrow:
    """(a (+) b) (x) c -> (a (x) c) (+) (b (x) c), from its defining tuple."""
    return tuple_([
        tensor(pi1(a, b), identity(c)),
        tensor(pi2(a, b), identity(c)),
    ])


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
