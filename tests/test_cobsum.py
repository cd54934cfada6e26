import random

import pytest

from cobeq import cobordism as cob
from cobeq import cobsum as cs
from cobeq import freegroup as fg
from cobeq import matcat as mc

import genlib as gl
from conftest import SEED


def test_repeated_member_differs_from_two_circles():
    one_circle = cob.circle(fg.gen(0))
    doubled = cs.add(cs.single(one_circle), cs.single(one_circle))
    assert doubled.terms == ((one_circle, 2),)
    two_circles = cs.single(cob.tensor(one_circle, one_circle))
    assert doubled != two_circles
    assert cs.size(doubled) == 2 and cs.size(two_circles) == 1


def test_add_zero_neutral_and_assoc():
    rng = random.Random(SEED)
    for _ in range(40):
        a, b = gl.rand_objseq(rng), gl.rand_objseq(rng)
        x = gl.rand_cobsum(rng, a, b)
        y = gl.rand_cobsum(rng, a, b)
        z = gl.rand_cobsum(rng, a, b)
        assert cs.add(x, cs.ZERO) is x and cs.add(cs.ZERO, x) is x
        assert cs.add(x, y) == cs.add(y, x)
        assert cs.add(cs.add(x, y), z) == cs.add(x, cs.add(y, z))


def test_add_type_mismatch():
    # Zero multisets carry no type; the matrices that hold them do.
    with pytest.raises(cob.TypeMismatch):
        mc.add(mc.zero((cob.seq("+"),), mc.UNIT), mc.zero((cob.seq("-"),), mc.UNIT))
    with pytest.raises(cob.TypeMismatch):
        cs.add(cs.single(cob.identity(cob.seq("+"))), cs.single(cob.identity(cob.seq("-"))))


def test_compose_cardinality_multiplies():
    a = cob.seq("+")
    f = cob.identity(a)
    lab = cob.gcob(a, a, [cob.Segment((cob.SRC, 0), (cob.TGT, 0), fg.gen(0))])
    lab2 = cob.gcob(a, a, [cob.Segment((cob.SRC, 0), (cob.TGT, 0), fg.gen(1))])
    x = cs.cobsum([f, lab])
    y = cs.cobsum([f, lab, lab2])
    assert cs.size(x) == 2 and cs.size(y) == 3
    assert cs.size(cs.compose(y, x)) == 6


def test_compose_zero_annihilates():
    rng = random.Random(SEED + 1)
    for _ in range(30):
        a, b = gl.rand_objseq(rng), gl.rand_objseq(rng)
        x = gl.rand_cobsum(rng, a, b)
        assert cs.compose(cs.ZERO, x) == cs.ZERO
        assert cs.compose(x, cs.ZERO) == cs.ZERO


def test_compose_identity_neutral():
    rng = random.Random(SEED + 2)
    for _ in range(30):
        a, b = gl.rand_objseq(rng), gl.rand_objseq(rng)
        y = gl.rand_cobsum(rng, a, b)
        assert cs.compose(y, cs.single(cob.identity(a))) == y
        assert cs.compose(cs.single(cob.identity(b)), y) == y


def test_tensor_with_zero():
    rng = random.Random(SEED + 3)
    a, b = cob.seq("+"), cob.seq("-")
    c, d = cob.seq("+-"), cob.seq("-+")
    y = gl.rand_cobsum(rng, c, d)
    assert cs.is_zero(cs.tensor(cs.ZERO, y))
    # the matrix tensor types the zero result from its row and column objects
    z = mc.tensor(mc.zero((a,), (b,)), mc.matarrow((c,), (d,), [[y]]))
    assert z == mc.zero((a + c,), (b + d,))


def test_dagger_additive_and_elementwise():
    rng = random.Random(SEED + 4)
    for _ in range(30):
        a, b = gl.rand_objseq(rng), gl.rand_objseq(rng)
        x, y = gl.rand_cobsum(rng, a, b), gl.rand_cobsum(rng, a, b)
        assert cs.dagger(cs.add(x, y)) == cs.add(cs.dagger(x), cs.dagger(y))
        g = gl.rand_gcob(rng, a, b)
        if g is not None:
            assert cs.dagger(cs.single(g)) == cs.single(cob.dagger(g))


def test_composition_bilinear():
    rng = random.Random(SEED + 5)
    for _ in range(40):
        a, b, c = (gl.rand_objseq(rng) for _ in range(3))
        x1 = gl.rand_cobsum(rng, a, b)
        x2 = gl.rand_cobsum(rng, a, b)
        y = gl.rand_cobsum(rng, b, c)
        assert (cs.compose(y, cs.add(x1, x2))
                == cs.add(cs.compose(y, x1), cs.compose(y, x2)))
        y1, y2 = gl.rand_cobsum(rng, b, c), gl.rand_cobsum(rng, b, c)
        assert (cs.compose(cs.add(y1, y2), x1)
                == cs.add(cs.compose(y1, x1), cs.compose(y2, x1)))


def test_multiset_equality_order_insensitive_multiplicity_sensitive():
    a = cob.seq("+")
    f = cob.identity(a)
    g = cob.gcob(a, a, [cob.Segment((cob.SRC, 0), (cob.TGT, 0), fg.gen(2))])
    assert cs.cobsum([f, g]) == cs.cobsum([g, f])
    assert cs.cobsum([f, g, g]) != cs.cobsum([f, f, g])


def test_star_additive():
    rng = random.Random(SEED + 6)
    for _ in range(30):
        a, b = gl.rand_objseq(rng), gl.rand_objseq(rng)
        x, y = gl.rand_cobsum(rng, a, b), gl.rand_cobsum(rng, a, b)
        assert cs.star(cs.add(x, y)) == cs.add(cs.star(x), cs.star(y))
