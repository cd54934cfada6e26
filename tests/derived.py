"""Constructions derived from the matrix and cobordism structure that only
tests use: tuples and cotuples, names and conames, traces, the scalar
action and the distributors.  The library keeps only what the decision
procedure, the CLI and the protocols use.
"""

from __future__ import annotations

from cobeq import cobordism as cob
from cobeq import matcat as mc
from cobeq.cobordism import O, SRC, TGT, GCob, Point, Segment, TypeMismatch
from cobeq.matcat import MatArrow, ObjList, UNIT


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
