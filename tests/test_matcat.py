import random
import zlib

import pytest

from cobeq import cobordism as cob
from cobeq import cobsum as cs
from cobeq import freegroup as fg
from cobeq import matcat as mc

import dense
import derived as dv
import genlib as gl
from axioms import EQUALITIES
from conftest import SEED


def single_segment(label):
    a = cob.seq("+")
    g = cob.gcob(a, a, [cob.Segment((cob.SRC, 0), (cob.TGT, 0), label)])
    return mc.matarrow((a,), (a,), [[cs.single(g)]])


def test_identity_neutral():
    rng = random.Random(SEED)
    for _ in range(20):
        a, b = gl.rand_objlist(rng), gl.rand_objlist(rng)
        f = gl.rand_mat(rng, a, b)
        assert mc.compose(f, mc.identity(a)) == f
        assert mc.compose(mc.identity(b), f) == f


def test_compose_through_zero_object_is_zero_matrix():
    a, b = (cob.seq("+"),), (cob.seq("-"), cob.O)
    to_zero = mc.zero(a, mc.ZERO_OBJ)
    from_zero = mc.zero(mc.ZERO_OBJ, b)
    composite = mc.compose(from_zero, to_zero)
    assert composite == mc.zero(a, b)


def test_block_diagonal_composition():
    rng = random.Random(SEED + 1)
    a, b = gl.rand_objlist(rng, 2), gl.rand_objlist(rng, 2)
    f, g = gl.rand_mat(rng, a, a), gl.rand_mat(rng, b, b)
    h, k = gl.rand_mat(rng, a, a), gl.rand_mat(rng, b, b)
    assert (mc.compose(mc.oplus(f, g), mc.oplus(h, k))
            == mc.oplus(mc.compose(f, h), mc.compose(g, k)))


def test_tensor_with_unit_identity():
    rng = random.Random(SEED + 2)
    f = gl.rand_mat(rng, gl.rand_objlist(rng), gl.rand_objlist(rng))
    unit_id = mc.identity(mc.UNIT)
    assert mc.tensor(unit_id, f) == f
    assert mc.tensor(f, unit_id) == f


def test_tensor_with_zero_object():
    rng = random.Random(SEED + 3)
    f = gl.rand_mat(rng, gl.rand_objlist(rng, 2), gl.rand_objlist(rng, 2))
    empty = mc.zero(mc.ZERO_OBJ, mc.ZERO_OBJ)
    t = mc.tensor(f, empty)
    assert t.src == mc.ZERO_OBJ and t.tgt == mc.ZERO_OBJ


def test_kronecker_shape():
    rng = random.Random(SEED + 4)
    a = (gl.rand_objseq(rng),)
    b = (gl.rand_objseq(rng), gl.rand_objseq(rng))
    f = gl.rand_mat(rng, a, b)    # 2 x 1
    g = gl.rand_mat(rng, b, a)    # 1 x 2
    t = mc.tensor(f, g)
    assert len(t.tgt) == 2 and len(t.src) == 2
    for i in range(2):
        for j in range(2):
            assert t.entries[i][j] == cs.tensor(f.entries[i][0], g.entries[0][j])


def test_projection_injection_laws():
    rng = random.Random(SEED + 5)
    for _ in range(20):
        a, b = gl.rand_objlist(rng), gl.rand_objlist(rng)
        assert mc.compose(mc.pi1(a, b), mc.iota1(a, b)) == mc.identity(a)
        assert mc.compose(mc.pi2(a, b), mc.iota1(a, b)) == mc.zero(a, b)
        assert mc.dagger(mc.pi1(a, b)) == mc.iota1(a, b)
        assert mc.oplus(mc.identity(a), mc.identity(mc.ZERO_OBJ)) == mc.identity(a)


def test_sigma_matches_displayed_pattern():
    # three by two component lists: support at (j*3+i, i*2+j)
    rng = random.Random(SEED + 6)
    a = tuple(gl.rand_objseq(rng) for _ in range(3))
    b = tuple(gl.rand_objseq(rng) for _ in range(2))
    s = mc.sigma(a, b)
    expected_support = {(j * 3 + i, i * 2 + j) for i in range(3) for j in range(2)}
    support = {(r, c)
               for r in range(6) for c in range(6)
               if not cs.is_zero(s.entries[r][c])}
    assert support == expected_support
    for i in range(3):
        for j in range(2):
            entry = s.entries[j * 3 + i][i * 2 + j]
            assert entry == cs.single(cob.sigma(a[i], b[j]))


def test_eta_diagonal_rows():
    rng = random.Random(SEED + 7)
    a = tuple(gl.rand_objseq(rng) for _ in range(3))
    unit = mc.eta(a)
    assert unit.src == mc.UNIT and len(unit.tgt) == 9
    for r in range(9):
        entry = unit.entries[r][0]
        if r in (0, 4, 8):
            assert entry == cs.single(cob.eta(a[r // 4]))
        else:
            assert cs.is_zero(entry)


def test_eta_of_singleton():
    a = (cob.seq("+-"),)
    assert mc.eta(a).entries[0][0] == cs.single(cob.eta(a[0]))


def test_dagger_involution_and_sigma():
    rng = random.Random(SEED + 8)
    for _ in range(20):
        a, b = gl.rand_objlist(rng), gl.rand_objlist(rng)
        f = gl.rand_mat(rng, a, b)
        assert mc.dagger(mc.dagger(f)) == f
        assert mc.dagger(mc.sigma(a, b)) == mc.sigma(b, a)


def test_tuple_projection_law():
    rng = random.Random(SEED + 9)
    for _ in range(20):
        src = gl.rand_objlist(rng, 2)
        parts = [gl.rand_mat(rng, src, gl.rand_objlist(rng, 2)) for _ in range(3)]
        tup = dv.tuple_(parts)
        offsets = [0]
        for p in parts:
            offsets.append(offsets[-1] + len(p.tgt))
        # project back out with explicit row slices
        for idx, p in enumerate(parts):
            rows = tup.entries[offsets[idx]:offsets[idx + 1]]
            assert rows == p.entries


def test_cotuple_injection_law():
    rng = random.Random(SEED + 10)
    tgt = gl.rand_objlist(rng, 2)
    parts = [gl.rand_mat(rng, gl.rand_objlist(rng, 2), tgt) for _ in range(2)]
    cot = dv.cotuple(parts)
    a1, a2 = parts[0].src, parts[1].src
    assert mc.compose(cot, mc.iota1(a1, a2)) == parts[0]
    assert mc.compose(cot, mc.iota2(a1, a2)) == parts[1]


def test_trace_of_identity_is_neutral_circle():
    qubit = (cob.seq("+"),)
    tr = dv.trace(mc.identity(qubit))
    assert tr == mc.matarrow(mc.UNIT, mc.UNIT, [[cs.single(cob.circle(fg.E))]])


def test_trace_of_generator_pairs():
    for i in range(4):
        for j in range(4):
            f = mc.compose(single_segment(fg.gen(i)),
                           mc.dagger(single_segment(fg.gen(j))))
            tr = dv.trace(f)
            expected_label = fg.mul(fg.gen(i), fg.gen(j, -1))
            expected = mc.matarrow(
                mc.UNIT, mc.UNIT, [[cs.single(cob.circle(expected_label))]])
            assert tr == expected
            if i == j:
                assert tr.entries[0][0] == cs.single(cob.circle(fg.E))


def test_name_of_identity_is_eta():
    a = (cob.seq("+"), cob.seq("-"))
    assert dv.name(mc.identity(a)) == mc.eta(a)
    assert dv.coname(mc.identity(a)) == mc.eps(a)


def test_scalar_action_laws():
    rng = random.Random(SEED + 11)
    for _ in range(25):
        s1, s2 = gl.rand_scalar_mat(rng), gl.rand_scalar_mat(rng)
        # scalars commute
        assert mc.compose(s1, s2) == mc.compose(s2, s1)
        a, b, c = (gl.rand_objlist(rng, 2) for _ in range(3))
        f1, f2 = gl.rand_mat(rng, a, b), gl.rand_mat(rng, b, c)
        # action composes multiplicatively
        lhs = mc.compose(dv.scalar_act(s2, f2), dv.scalar_act(s1, f1))
        rhs = dv.scalar_act(mc.compose(s2, s1), mc.compose(f2, f1))
        assert lhs == rhs
        # action slides across tensor on either side
        d = gl.rand_objlist(rng, 2)
        g = gl.rand_mat(rng, d, d)
        assert (mc.tensor(g, dv.scalar_act(s1, f1))
                == dv.scalar_act(s1, mc.tensor(g, f1)))
        assert (mc.tensor(dv.scalar_act(s1, f1), g)
                == dv.scalar_act(s1, mc.tensor(f1, g)))


def test_scalar_action_distributes_over_tuples():
    rng = random.Random(SEED + 12)
    for _ in range(15):
        s = gl.rand_scalar_mat(rng)
        src = gl.rand_objlist(rng, 2)
        parts = [gl.rand_mat(rng, src, gl.rand_objlist(rng, 2)) for _ in range(3)]
        lhs = dv.tuple_([dv.scalar_act(s, p) for p in parts])
        rhs = dv.scalar_act(s, dv.tuple_(parts))
        assert lhs == rhs


def test_distrib_upsilon_is_identity():
    rng = random.Random(SEED + 13)
    for _ in range(25):
        a, b, c = (gl.rand_objlist(rng, 2) for _ in range(3))
        ups = dv.distrib_upsilon(a, b, c)
        assert ups == mc.identity(mc.tensor_obj(mc.oplus_obj(a, b), c))


def test_distrib_tau_identity_for_singleton_first():
    rng = random.Random(SEED + 14)
    for _ in range(25):
        a = (gl.rand_objseq(rng),)
        b, c = gl.rand_objlist(rng, 2), gl.rand_objlist(rng, 2)
        tau = dv.distrib_tau(a, b, c)
        assert tau == mc.identity(mc.tensor_obj(a, mc.oplus_obj(b, c)))


def test_dinaturality_single_component():
    rng = random.Random(SEED + 15)
    done = 0
    while done < 40:
        a = (gl.rand_objseq(rng),)
        b = (gl.rand_objseq(rng),)
        f = gl.rand_mat(rng, a, b)
        done += 1
        fstar = mc.star(f)
        lhs = mc.compose(mc.tensor(mc.identity(mc.dual_obj(a)), f), mc.eta(a))
        rhs = mc.compose(mc.tensor(fstar, mc.identity(b)), mc.eta(b))
        assert lhs == rhs
        lhs2 = mc.compose(mc.eps(a), mc.tensor(mc.identity(a), fstar))
        rhs2 = mc.compose(mc.eps(b), mc.tensor(f, mc.identity(mc.dual_obj(b))))
        assert lhs2 == rhs2


def test_star_additive():
    rng = random.Random(SEED + 16)
    for _ in range(20):
        a, b = gl.rand_objlist(rng, 2), gl.rand_objlist(rng, 2)
        f, g = gl.rand_mat(rng, a, b), gl.rand_mat(rng, a, b)
        assert mc.star(mc.add(f, g)) == mc.add(mc.star(f), mc.star(g))


def _sparse_mat(rng, a, b, density=0.5):
    """Random a -> b matrix whose entries are mostly ZERO."""
    rows = [[gl.rand_cobsum(rng, x, y) if rng.random() < density else cs.ZERO
             for x in a] for y in b]
    return mc.matarrow(a, b, rows)


# Components for _objlists: mostly of the same net sign, so that many
# entries have members to draw from.
_COMPONENTS = tuple(cob.seq(s) for s in ("", "+", "+", "+-", "-+", "++-"))


def _objlists(rng, count):
    """Object lists of up to 6 components, the zero object and the unit
    (one empty sign sequence) among them."""
    pool = [mc.ZERO_OBJ, mc.UNIT] + [
        tuple(rng.choice(_COMPONENTS) for _ in range(rng.randint(1, 6))) for _ in range(4)]
    return [rng.choice(pool) for _ in range(count)]


def test_operations_match_the_dense_reference():
    rng = random.Random(SEED + 17)
    for _ in range(150):
        a, b, c, d = _objlists(rng, 4)
        f, f2 = _sparse_mat(rng, a, b), _sparse_mat(rng, a, b)
        g, h = _sparse_mat(rng, b, c), _sparse_mat(rng, c, d)
        assert mc.compose(g, f) == dense.compose(g, f)
        assert mc.add(f, f2) == dense.add(f, f2)
        assert mc.tensor(f, h) == dense.tensor(f, h)
        assert mc.oplus(f, h) == dense.oplus(f, h)
        assert mc.dagger(f) == dense.dagger(f)
        assert mc.star(f) == dense.star(f)


def test_injections_are_daggers_of_projections():
    rng = random.Random(SEED + 18)
    for _ in range(40):
        a, b = _objlists(rng, 2)
        assert mc.iota1(a, b) == dense.dagger(mc.pi1(a, b))
        assert mc.iota2(a, b) == dense.dagger(mc.pi2(a, b))


def test_type_errors():
    a, b = (cob.seq("+"),), (cob.seq("-"),)
    with pytest.raises(cob.TypeMismatch):
        mc.compose(mc.identity(a), mc.identity(b))
    with pytest.raises(cob.TypeMismatch):
        mc.add(mc.identity(a), mc.identity(b))
    with pytest.raises(cob.TypeMismatch):
        dv.trace(mc.zero(a, b))
    with pytest.raises(cob.TypeMismatch):
        dv.scalar_act(mc.identity(a), mc.identity(a))


@pytest.mark.parametrize("label,check", EQUALITIES, ids=[n for n, _ in EQUALITIES])
def test_equality_quick(label, check):
    rng = random.Random(SEED ^ zlib.crc32(label.encode()))
    for _ in range(40):
        assert check(rng), label
