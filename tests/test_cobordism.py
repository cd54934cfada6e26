import random

import pytest

from cobeq import cobordism as cob
from cobeq import freegroup as fg
from cobeq.cobordism import SRC, TGT, Segment

import derived as dv
import genlib as gl
from conftest import SEED


def seg(start, end, label=fg.E):
    return Segment(start, end, label)


def g1():
    return fg.gen(0)


def test_identity_single_point():
    f = cob.identity(cob.seq("+"))
    assert f.segments == (seg((SRC, 0), (TGT, 0)),)
    assert not f.circles


def test_identity_empty_is_empty_cobordism():
    f = cob.identity(cob.O)
    assert f.segments == () and f.circles == ()
    assert cob.compose(f, f) == f


def test_identity_idempotent():
    a = cob.seq("+--+")
    i = cob.identity(a)
    assert cob.compose(i, i) == i


def test_compose_multiplies_labels_later_on_left():
    a = cob.seq("+")
    f = cob.gcob(a, a, [seg((SRC, 0), (TGT, 0), fg.gen(0))])
    g = cob.gcob(a, a, [seg((SRC, 0), (TGT, 0), fg.gen(1))])
    expected = cob.gcob(a, a, [seg((SRC, 0), (TGT, 0), fg.mul(fg.gen(1), fg.gen(0)))])
    assert cob.compose(g, f) == expected


def test_compose_identity_neutral():
    rng = random.Random(SEED)
    for _ in range(50):
        a, b = gl.rand_objseq(rng), gl.rand_objseq(rng)
        f = gl.rand_gcob(rng, a, b)
        if f is None:
            continue
        assert cob.compose(cob.identity(b), f) == f
        assert cob.compose(f, cob.identity(a)) == f


def test_trace_loop_closes_to_circle():
    # cap followed by the matching cup closes into one neutral circle
    a = cob.seq("+")
    loop = cob.compose(cob.eps(cob.dual_object(a)), cob.eta(a))
    assert loop == cob.circle(fg.E)

    # with a labeled strand in between, the circle keeps the label class
    wlab = fg.word([(0, 1), (1, -1)])
    strand = cob.gcob(
        cob.seq("-+"), cob.seq("-+"),
        [seg((TGT, 0), (SRC, 0)), seg((SRC, 1), (TGT, 1), wlab)])
    loop = cob.compose(cob.eps(cob.dual_object(a)), cob.compose(strand, cob.eta(a)))
    assert loop == cob.circle(wlab)


def test_compose_type_mismatch():
    f = cob.identity(cob.seq("+"))
    g = cob.identity(cob.seq("-"))
    with pytest.raises(cob.TypeMismatch):
        cob.compose(g, f)


def test_tensor_of_identities():
    lhs = cob.tensor(cob.identity(cob.seq("+")), cob.identity(cob.seq("-")))
    assert lhs == cob.identity(cob.seq("+-"))


def test_tensor_unit_is_empty_cobordism():
    rng = random.Random(SEED + 1)
    f = gl.rand_gcob(rng, cob.seq("+-"), cob.seq("-+"))
    empty = cob.identity(cob.O)
    assert cob.tensor(f, empty) == f
    assert cob.tensor(empty, f) == f


def test_tensor_of_circles_is_union():
    u, v = fg.gen(0), fg.gen(1)
    both = cob.tensor(cob.circle(u), cob.circle(v))
    assert both.src == cob.O and both.tgt == cob.O
    assert both.circles == tuple(sorted(
        (fg.cyclic_canonical(u), fg.cyclic_canonical(v)),
        key=lambda c: c.rep.letters))


def test_dagger_inverts_labels():
    a = cob.seq("+")
    f = cob.gcob(a, a, [seg((SRC, 0), (TGT, 0), g1())])
    expected = cob.gcob(a, a, [seg((SRC, 0), (TGT, 0), fg.inverse(g1()))])
    assert cob.dagger(f) == expected
    assert cob.dagger(cob.circle(g1())) == cob.circle(fg.inverse(g1()))


def test_dagger_involution_random():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        f = gl.rand_gcob(rng, gl.rand_objseq(rng), gl.rand_objseq(rng))
        if f is None:
            continue
        assert cob.dagger(cob.dagger(f)) == f


def test_dual_object():
    assert cob.dual_object(cob.seq("+--")) == cob.seq("++-")
    assert cob.dual_object(cob.O) == cob.O
    a = cob.seq("-++-")
    assert cob.dual_object(cob.dual_object(a)) == a


def test_eta_smallest_case():
    cap = cob.eta(cob.seq("+"))
    assert cap.src == cob.O and cap.tgt == cob.seq("-+")
    assert cap.segments == (seg((TGT, 0), (TGT, 1)),)


def test_eta_nested_arcs():
    # three nested arcs pairing dual position i with position 5 - i
    cap = cob.eta(cob.seq("+--"))
    assert cap.tgt == cob.seq("++-") + cob.seq("+--")
    pairs = {frozenset((s.start[1], s.end[1])) for s in cap.segments}
    assert pairs == {frozenset((0, 5)), frozenset((1, 4)), frozenset((2, 3))}
    for s in cap.segments:
        assert cap.tgt[s.start[1]] == cob.MINUS and cap.tgt[s.end[1]] == cob.PLUS


def test_triangle_equalities():
    rng = random.Random(SEED + 3)
    for _ in range(30):
        a = gl.rand_objseq(rng, 3)
        astar = cob.dual_object(a)
        first = cob.compose(
            cob.tensor(cob.eps(a), cob.identity(a)),
            cob.tensor(cob.identity(a), cob.eta(a)))
        assert first == cob.identity(a)
        second = cob.compose(
            cob.tensor(cob.identity(astar), cob.eps(a)),
            cob.tensor(cob.eta(a), cob.identity(astar)))
        assert second == cob.identity(astar)


def test_eps_dagger_is_swapped_eta():
    rng = random.Random(SEED + 4)
    for _ in range(30):
        a = gl.rand_objseq(rng, 3)
        lhs = cob.dagger(cob.eps(a))
        rhs = cob.compose(cob.sigma(cob.dual_object(a), a), cob.eta(a))
        assert lhs == rhs


def test_name_of_identity_is_eta():
    a = cob.seq("+")
    assert dv.cob_name(cob.identity(a)) == cob.eta(a)
    assert dv.cob_coname(cob.identity(a)) == cob.eps(a)


def test_name_coname_match_their_composites():
    rng = random.Random(SEED + 5)
    for _ in range(60):
        a, b = gl.rand_objseq(rng), gl.rand_objseq(rng)
        f = gl.rand_gcob(rng, a, b)
        if f is None:
            continue
        astar, bstar = cob.dual_object(a), cob.dual_object(b)
        built_name = cob.compose(cob.tensor(cob.identity(astar), f), cob.eta(a))
        assert dv.cob_name(f) == built_name
        built_coname = cob.compose(cob.eps(b), cob.tensor(f, cob.identity(bstar)))
        assert dv.cob_coname(f) == built_coname


def test_transpose_star_matches_composite():
    rng = random.Random(SEED + 6)
    for _ in range(60):
        a, b = gl.rand_objseq(rng), gl.rand_objseq(rng)
        f = gl.rand_gcob(rng, a, b)
        if f is None:
            continue
        astar, bstar = cob.dual_object(a), cob.dual_object(b)
        composite = cob.compose(
            cob.tensor(cob.identity(astar), cob.eps(b)),
            cob.compose(
                cob.tensor(cob.tensor(cob.identity(astar), f), cob.identity(bstar)),
                cob.tensor(cob.eta(a), cob.identity(bstar))))
        assert cob.transpose_star(f) == composite


def test_lower_star_inverts_labels():
    a = cob.seq("+")
    f = cob.gcob(a, a, [seg((SRC, 0), (TGT, 0), g1())])
    low = dv.cob_lower_star(f)
    assert low.src == cob.seq("-") and low.tgt == cob.seq("-")
    (s,) = low.segments
    assert s.label == fg.inverse(g1())


def test_permutation_sigma():
    s = cob.sigma(cob.seq("+"), cob.seq("-"))
    wires = {frozenset(((p.start), (p.end))) for p in s.segments}
    assert wires == {
        frozenset(((SRC, 0), (TGT, 1))),
        frozenset(((SRC, 1), (TGT, 0))),
    }
    a, b = cob.seq("+-"), cob.seq("-+")
    assert cob.compose(cob.sigma(b, a), cob.sigma(a, b)) == cob.identity(a + b)


def test_permutation_rejects_sign_mismatch():
    with pytest.raises(ValueError):
        cob.permutation(cob.seq("+-"), (0, 0))


def test_compose_associative_random():
    rng = random.Random(SEED + 7)
    done = 0
    while done < 200:
        a, b, c, d = (gl.rand_objseq(rng) for _ in range(4))
        f, g, h = (gl.rand_gcob(rng, x, y)
                   for x, y in ((a, b), (b, c), (c, d)))
        if None in (f, g, h):
            continue
        done += 1
        assert cob.compose(h, cob.compose(g, f)) == cob.compose(cob.compose(h, g), f)


def test_dagger_laws_random():
    rng = random.Random(SEED + 8)
    done = 0
    while done < 150:
        a, b, c = (gl.rand_objseq(rng) for _ in range(3))
        f, g = gl.rand_gcob(rng, a, b), gl.rand_gcob(rng, b, c)
        if None in (f, g):
            continue
        done += 1
        assert cob.dagger(cob.compose(g, f)) == cob.compose(cob.dagger(f), cob.dagger(g))
        assert cob.dagger(cob.tensor(f, g)) == cob.tensor(cob.dagger(f), cob.dagger(g))


def test_equality_reflexive_and_canonical():
    rng = random.Random(SEED + 9)
    for _ in range(50):
        f = gl.rand_gcob(rng, gl.rand_objseq(rng), gl.rand_objseq(rng))
        if f is None:
            continue
        rebuilt = cob.gcob(f.src, f.tgt, reversed(f.segments), reversed(f.circles))
        assert rebuilt == f


def test_validation_rejects_bad_direction():
    a = cob.seq("+")
    with pytest.raises(ValueError):
        cob.gcob(a, a, [seg((TGT, 0), (SRC, 0))])


def test_validation_rejects_uncovered_points():
    with pytest.raises(ValueError):
        cob.gcob(cob.seq("+-"), cob.O, [])


def test_jsonable():
    f = cob.gcob(cob.seq("+"), cob.seq("+"), [seg((SRC, 0), (TGT, 0), g1())],
                 [fg.cyclic_canonical(fg.gen(1))])
    data = cob.to_jsonable(f)
    assert data["src"] == ["+"] and data["tgt"] == ["+"]
    assert data["segments"][0]["label"] == "b1"
    assert data["circles"] == ["b2"]
