"""Shared randomized generators for the test suites.

All generators take an explicit random.Random so failures reproduce from
the seed printed in the test header.
"""

from __future__ import annotations

import random

from cobeq import cobordism as cob
from cobeq import cobsum as cs
from cobeq import freegroup as fg
from cobeq import matcat as mc
from cobeq import syntax as sx
from cobeq.hilboracle import dim_of

NGENS = 4


def rand_word(rng: random.Random, max_len: int = 2) -> fg.GroupWord:
    return fg.word([(rng.randrange(NGENS), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, max_len))])


def rand_objseq(rng: random.Random, max_len: int = 2) -> cob.ObjectSeq:
    return tuple(rng.choice((cob.PLUS, cob.MINUS))
                 for _ in range(rng.randint(0, max_len)))


def rand_gcob(rng: random.Random, a: cob.ObjectSeq, b: cob.ObjectSeq,
              circle_chance: float = 0.3) -> cob.GCob | None:
    """Uniformly matched cobordism a -> b, or None when no matching exists."""
    froms = [(cob.SRC, i) for i, s in enumerate(a) if s == cob.PLUS]
    froms += [(cob.TGT, i) for i, s in enumerate(b) if s == cob.MINUS]
    tos = [(cob.SRC, i) for i, s in enumerate(a) if s == cob.MINUS]
    tos += [(cob.TGT, i) for i, s in enumerate(b) if s == cob.PLUS]
    if len(froms) != len(tos):
        return None
    rng.shuffle(tos)
    segments = [cob.Segment(f, t, rand_word(rng)) for f, t in zip(froms, tos)]
    circles = []
    while rng.random() < circle_chance:
        circles.append(fg.cyclic_canonical(rand_word(rng)))
    return cob.gcob(a, b, segments, circles)


def rand_closed_gcob(rng: random.Random, min_circles: int = 1) -> cob.GCob:
    circles = [fg.cyclic_canonical(rand_word(rng))
               for _ in range(rng.randint(min_circles, 2))]
    return cob.gcob(cob.O, cob.O, (), circles)


def rand_cobsum(rng: random.Random, a: cob.ObjectSeq, b: cob.ObjectSeq,
                max_terms: int = 2) -> cs.CobSum:
    members = []
    for _ in range(rng.randint(0, max_terms)):
        g = rand_gcob(rng, a, b)
        if g is not None:
            members.append(g)
    return cs.cobsum(members)


def rand_nonzero_cobsum(rng: random.Random, max_tries: int = 50) -> cs.CobSum:
    for _ in range(max_tries):
        a, b = rand_objseq(rng), rand_objseq(rng)
        x = rand_cobsum(rng, a, b)
        if not cs.is_zero(x):
            return x
    return cs.single(rand_closed_gcob(rng))


def rand_objlist(rng: random.Random, max_len: int = 3) -> mc.ObjList:
    return tuple(rand_objseq(rng) for _ in range(rng.randint(0, max_len)))


def rand_mat(rng: random.Random, a: mc.ObjList, b: mc.ObjList) -> mc.MatArrow:
    rows = [[rand_cobsum(rng, a[j], b[i]) for j in range(len(a))]
            for i in range(len(b))]
    return mc.matarrow(a, b, rows)


def rand_scalar_mat(rng: random.Random) -> mc.MatArrow:
    members = [rand_closed_gcob(rng, min_circles=0)
               for _ in range(rng.randint(0, 2))]
    entry = cs.cobsum(members)
    return mc.matarrow(mc.UNIT, mc.UNIT, [[entry]])


# ---------------------------------------------------------------------------
# object formulas and typed terms

_GEN_NAMES = tuple(f"b{i}" for i in range(1, NGENS + 1))


def rand_obj(rng: random.Random, depth: int, allow_zero: bool = True) -> sx.Obj:
    if depth <= 0 or rng.random() < 0.35:
        leaves = [sx.P, sx.P, sx.UNIT]
        if allow_zero:
            leaves.append(sx.NULL)
        return rng.choice(leaves)
    op = rng.choice(("tensor", "oplus", "star"))
    if op == "star":
        return sx.Star(rand_obj(rng, depth - 1, allow_zero))
    left = rand_obj(rng, depth - 1, allow_zero)
    right = rand_obj(rng, depth - 1, allow_zero)
    return sx.TensorO(left, right) if op == "tensor" else sx.OplusO(left, right)


def _leaf_candidates(a: sx.Obj, b: sx.Obj) -> list[sx.Term]:
    out: list[sx.Term] = [sx.ZeroT(a, b)]
    if a == b:
        out.append(sx.Id(a))
    if a == sx.P and b == sx.P:
        out += [sx.Gen(n) for n in _GEN_NAMES]
        out += [sx.GenInv(n) for n in _GEN_NAMES]
    match (a, b):
        case (sx.ObjI(), sx.TensorO(sx.Star(x1), x2)) if x1 == x2:
            out.append(sx.Eta(x1))
        case (sx.TensorO(x1, sx.Star(x2)), sx.ObjI()) if x1 == x2:
            out.append(sx.Eps(x1))
    match (a, b):
        case (sx.TensorO(x, y), sx.TensorO(y2, x2)) if x == x2 and y == y2:
            out.append(sx.SigmaT(x, y))
    match (a, b):
        case (sx.TensorO(x, sx.TensorO(y, z)),
              sx.TensorO(sx.TensorO(x2, y2), z2)) if (x, y, z) == (x2, y2, z2):
            out.append(sx.Alpha(x, y, z))
        case (sx.TensorO(sx.TensorO(x, y), z),
              sx.TensorO(x2, sx.TensorO(y2, z2))) if (x, y, z) == (x2, y2, z2):
            out.append(sx.AlphaInv(x, y, z))
    match (a, b):
        case (sx.TensorO(sx.ObjI(), x), x2) if x == x2:
            out.append(sx.Lam(x))
    match (a, b):
        case (x, sx.TensorO(sx.ObjI(), x2)) if x == x2:
            out.append(sx.LamInv(x))
    match a:
        case sx.OplusO(x, y):
            if b == x:
                out.append(sx.Pi1(x, y))
            if b == y:
                out.append(sx.Pi2(x, y))
    match b:
        case sx.OplusO(x, y):
            if a == x:
                out.append(sx.Iota1(x, y))
            if a == y:
                out.append(sx.Iota2(x, y))
    return out


def rand_term(rng: random.Random, a: sx.Obj, b: sx.Obj, depth: int,
              obj_depth: int = 2, allow_zero: bool = True) -> sx.Term:
    """Random well-typed term a -> b of bounded tree depth."""
    if depth <= 0:
        return rng.choice(_leaf_candidates(a, b))
    options = ["leaf", "plus", "comp", "comp", "dagger"]
    if isinstance(a, sx.TensorO) and isinstance(b, sx.TensorO):
        options += ["tensor", "tensor"]
    if isinstance(a, sx.OplusO) and isinstance(b, sx.OplusO):
        options += ["oplus", "oplus"]
    match rng.choice(options):
        case "leaf":
            return rng.choice(_leaf_candidates(a, b))
        case "plus":
            return sx.Plus(rand_term(rng, a, b, depth - 1, obj_depth, allow_zero),
                           rand_term(rng, a, b, depth - 1, obj_depth, allow_zero))
        case "dagger":
            return sx.Dagger(rand_term(rng, b, a, depth - 1, obj_depth, allow_zero))
        case "tensor":
            return sx.Tens(
                rand_term(rng, a.left, b.left, depth - 1, obj_depth, allow_zero),
                rand_term(rng, a.right, b.right, depth - 1, obj_depth, allow_zero))
        case "oplus":
            return sx.Direct(
                rand_term(rng, a.left, b.left, depth - 1, obj_depth, allow_zero),
                rand_term(rng, a.right, b.right, depth - 1, obj_depth, allow_zero))
        case _:
            roll = rng.random()
            if roll < 0.3:
                middle = a
            elif roll < 0.6:
                middle = b
            else:
                middle = rand_obj(rng, obj_depth, allow_zero)
            return sx.Comp(rand_term(rng, middle, b, depth - 1, obj_depth, allow_zero),
                           rand_term(rng, a, middle, depth - 1, obj_depth, allow_zero))


def rand_any_term(rng: random.Random, depth: int = 4, obj_depth: int = 2,
                  allow_zero: bool = True) -> sx.Term:
    a = rand_obj(rng, obj_depth, allow_zero)
    b = rand_obj(rng, obj_depth, allow_zero)
    return rand_term(rng, a, b, depth, obj_depth, allow_zero)


def has_dagger(t: sx.Term) -> bool:
    match t:
        case sx.Dagger(_):
            return True
        case sx.Tens(f, g) | sx.Direct(f, g) | sx.Plus(f, g) | sx.Comp(f, g):
            return has_dagger(f) or has_dagger(g)
        case _:
            return False


def rand_daggered_term(rng: random.Random, depth: int = 5) -> sx.Term:
    while True:
        t = rand_any_term(rng, depth)
        if has_dagger(t):
            return t


def rand_small_dim_obj(rng: random.Random, depth: int = 2,
                       max_dim: int = 4) -> sx.Obj:
    while True:
        a = rand_obj(rng, depth)
        if dim_of(a) <= max_dim:
            return a


def rand_numeric_term(rng: random.Random, depth: int = 4,
                      max_dim: int = 16) -> sx.Term:
    """Random term whose endpoint dimensions stay oracle-friendly."""
    while True:
        a = rand_small_dim_obj(rng)
        b = rand_small_dim_obj(rng)
        t = rand_term(rng, a, b, depth, obj_depth=1)
        if dim_of(a) <= max_dim and dim_of(b) <= max_dim:
            return t
