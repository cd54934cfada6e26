"""Dense matrix operations: the reference for matcat's.

Each function visits every index pair or triple of its operands, zero
entries included, and builds every row itself.  ``matcat`` reads only the
nonzero entries; tests compare the two on random, mostly zero, matrices.
"""

from __future__ import annotations

from cobeq import cobsum as cs
from cobeq import matcat as mc
from cobeq.cobordism import TypeMismatch
from cobeq.matcat import MatArrow


def compose(after: MatArrow, before: MatArrow) -> MatArrow:
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
    return mc.matarrow(a, c, rows)


def add(x: MatArrow, y: MatArrow) -> MatArrow:
    if x.src != y.src or x.tgt != y.tgt:
        raise TypeMismatch("sum of differently typed matrices")
    rows = [
        [cs.add(x.entries[i][j], y.entries[i][j]) for j in range(len(x.src))]
        for i in range(len(x.tgt))
    ]
    return mc.matarrow(x.src, x.tgt, rows)


def tensor(x: MatArrow, y: MatArrow) -> MatArrow:
    src = mc.tensor_obj(x.src, y.src)
    tgt = mc.tensor_obj(x.tgt, y.tgt)
    rows = []
    for i in range(len(x.tgt)):
        for i2 in range(len(y.tgt)):
            row = []
            for j in range(len(x.src)):
                for j2 in range(len(y.src)):
                    row.append(cs.tensor(x.entries[i][j], y.entries[i2][j2]))
            rows.append(row)
    return mc.matarrow(src, tgt, rows)


def oplus(x: MatArrow, y: MatArrow) -> MatArrow:
    src = mc.oplus_obj(x.src, y.src)
    tgt = mc.oplus_obj(x.tgt, y.tgt)
    n1, n2 = len(x.src), len(y.src)
    rows = []
    for i in range(len(x.tgt)):
        rows.append(list(x.entries[i]) + [cs.ZERO] * n2)
    for i in range(len(y.tgt)):
        rows.append([cs.ZERO] * n1 + list(y.entries[i]))
    return mc.matarrow(src, tgt, rows)


def dagger(x: MatArrow) -> MatArrow:
    rows = [
        [cs.dagger(x.entries[i][j]) for i in range(len(x.tgt))]
        for j in range(len(x.src))
    ]
    return mc.matarrow(x.tgt, x.src, rows)


def star(x: MatArrow) -> MatArrow:
    rows = [
        [cs.star(x.entries[i][j]) for i in range(len(x.tgt))]
        for j in range(len(x.src))
    ]
    return mc.matarrow(mc.dual_obj(x.tgt), mc.dual_obj(x.src), rows)
