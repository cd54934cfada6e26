"""Acceptance suite: one test per criterion, each printing a PASS line.

Randomized criteria run from the fixed seed printed in the test header;
set COBEQ_SEED to reproduce or vary.
"""

import random
import time
import zlib

from cobeq import cobordism as cob
from cobeq import cobsum as cs
from cobeq import freegroup as fg
from cobeq import hilboracle as hb
from cobeq import interp
from cobeq import matcat as mc
from cobeq import protocols
from cobeq import syntax as sx

import derived as dv
import genlib as gl
from axioms import EQUALITIES
from conftest import SEED


def _sum_free(a):
    match a:
        case sx.OplusO(_, _):
            return False
        case sx.Star(arg):
            return _sum_free(arg)
        case sx.TensorO(left, right):
            return _sum_free(left) and _sum_free(right)
        case _:
            return True


def test_criterion_1_protocols():
    start = time.monotonic()
    reports = {name: protocols.verify(name) for name in protocols.PROTOCOL_NAMES}
    elapsed = time.monotonic() - start
    for name, report in reports.items():
        assert report.equal, name

    value = reports["teleportation"].common
    wire = cs.single(cob.identity((cob.PLUS,)))
    assert len(value.tgt) == 4 and len(value.src) == 1
    assert all(value.entries[i][0] == wire for i in range(4))

    value = reports["swap"].common
    caps = cs.single(cob.tensor(cob.eta((cob.PLUS,)), cob.eta((cob.PLUS,))))
    assert all(value.tgt[i] == cob.seq("-+-+") for i in range(4))
    assert all(value.entries[i][0] == caps for i in range(4))

    value = reports["superdense"].common
    for i in range(1, 5):
        for j in range(1, 5):
            label = fg.mul(fg.gen(j - 1), fg.gen(i - 1, -1))
            assert value.entries[4 * (i - 1) + (j - 1)][0] == cs.single(cob.circle(label))
    trivial = [n for n in range(16)
               if value.entries[n][0] == cs.single(cob.circle(fg.E))]
    assert trivial == [0, 5, 10, 15]

    assert elapsed < 5.0, f"protocol verification took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1: PASS protocols all EQUAL with expected values "
          f"({elapsed:.2f}s < 5s)")


def test_criterion_2_equality_suite():
    instances = 500
    start = time.monotonic()
    for label, check in EQUALITIES:
        rng = random.Random(SEED ^ zlib.crc32(label.encode()))
        for k in range(instances):
            assert check(rng), f"{label} failed at instance {k}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"equality suite took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2: PASS {len(EQUALITIES)} equalities x {instances} "
          f"instances ({elapsed:.2f}s < 60s)")


def test_criterion_3_injection_projection_identities():
    rng = random.Random(SEED + 3)
    for k in range(200):
        a = gl.rand_obj(rng, 4)
        fam = dv.inj_proj(a)
        n = len(fam.components)
        for i in range(n):
            for j in range(n):
                value = interp.H(sx.Comp(fam.projections[j], fam.injections[i]))
                if i == j:
                    expected = mc.identity(interp.interp_object(fam.components[i]))
                else:
                    expected = mc.zero(interp.interp_object(fam.components[i]),
                                       interp.interp_object(fam.components[j]))
                assert value == expected, (k, i, j)
        total = mc.zero(interp.interp_object(a), interp.interp_object(a))
        for i in range(n):
            total = mc.add(total, interp.H(sx.Comp(fam.injections[i],
                                                   fam.projections[i])))
        assert total == mc.identity(interp.interp_object(a)), k
    print("ACCEPTANCE 3: PASS both biproduct identities on 200 random objects")


def test_criterion_4_matrix_form_functorial():
    rng = random.Random(SEED + 4)
    for _ in range(200):
        a, b, c = (gl.rand_obj(rng, 2) for _ in range(3))
        u = gl.rand_term(rng, b, c, 4)
        v = gl.rand_term(rng, a, b, 4)
        assert (interp.matrix_form(sx.Comp(u, v))
                == dv.mf_compose(interp.matrix_form(u), interp.matrix_form(v)))
    for _ in range(200):
        u = gl.rand_any_term(rng, 3)
        v = gl.rand_any_term(rng, 3)
        assert (interp.matrix_form(sx.Tens(u, v))
                == dv.mf_tensor(interp.matrix_form(u), interp.matrix_form(v)))
    for _ in range(200):
        u = gl.rand_any_term(rng, 3)
        v = gl.rand_any_term(rng, 3)
        assert (interp.matrix_form(sx.Direct(u, v))
                == dv.mf_oplus(interp.matrix_form(u), interp.matrix_form(v)))
    for _ in range(200):
        a, b = gl.rand_obj(rng, 2), gl.rand_obj(rng, 2)
        u = gl.rand_term(rng, a, b, 3)
        v = gl.rand_term(rng, a, b, 3)
        assert (interp.matrix_form(sx.Plus(u, v))
                == dv.mf_add(interp.matrix_form(u), interp.matrix_form(v)))
    print("ACCEPTANCE 4: PASS matrix form functorial, 200 pairs per operation")


def test_criterion_5_dagger_elimination():
    rng = random.Random(SEED + 5)
    for _ in range(200):
        t = gl.rand_daggered_term(rng, 5)
        elim = sx.eliminate_dagger(t)
        assert not gl.has_dagger(elim)
        assert sx.typecheck(elim) == sx.typecheck(t)
        assert interp.H(elim) == interp.H(t)
    print("ACCEPTANCE 5: PASS dagger elimination exact on 200 daggered terms")


def test_criterion_6_numeric_oracle():
    for i in range(1, 5):
        for j in range(1, 5):
            t = dv.trace_term(sx.Comp(sx.Gen(f"b{i}"), sx.Dagger(sx.Gen(f"b{j}"))))
            value = hb.eval_numeric(t)[0, 0]
            want = 2.0 if i == j else 0.0
            assert abs(value - want) <= 1e-9

    for name in protocols.PROTOCOL_NAMES:
        left, right = protocols.legs(name)
        assert hb.agree(left, right, 1e-9), name

    rng = random.Random(SEED + 6)
    assignments = [hb.random_unitary_assignment(rng) for _ in range(20)]
    for k in range(100):
        f = gl.rand_numeric_term(rng, depth=3)
        g = _equal_variant(rng, f)
        assert interp.equal(f, g).equal, k
        for assignment in assignments:
            assert hb.agree(f, g, 1e-9, assignment), k
    print("ACCEPTANCE 6: PASS Bell traces, protocol legs, and 100 equal pairs "
          "x 20 unitary assignments within 1e-9")


def _equal_variant(rng, t):
    src, tgt = sx.typecheck(t)
    choice = rng.randrange(4)
    if choice == 0:
        return sx.Comp(t, sx.Id(src))
    if choice == 1:
        return sx.Comp(sx.Id(tgt), t)
    if choice == 2:
        return sx.Dagger(sx.Dagger(t))
    return sx.eliminate_dagger(t)


def test_criterion_7_structural_strictness():
    rng = random.Random(SEED + 7)
    count = 0
    while count < 100:
        a, b, c = (gl.rand_obj(rng, 2) for _ in range(3))
        for t in (sx.Alpha(a, b, c), sx.AlphaInv(a, b, c), sx.Lam(a), sx.LamInv(a)):
            src, _ = sx.typecheck(t)
            assert interp.H(t) == mc.identity(interp.interp_object(src))
        src, _ = sx.typecheck(dv.w_term(a))
        assert interp.H(dv.w_term(a)) == mc.identity(interp.interp_object(src))
        assert interp.H(dv.v_term()) == mc.identity(mc.UNIT)
        ups = dv.upsilon_term(a, b, c)
        src, _ = sx.typecheck(ups)
        assert interp.H(ups) == mc.identity(interp.interp_object(src))
        la, lb, lc = (interp.interp_object(x) for x in (a, b, c))
        assert dv.distrib_upsilon(la, lb, lc) == mc.identity(
            mc.tensor_obj(mc.oplus_obj(la, lb), lc))
        if _sum_free(a) and _sum_free(b):
            src, _ = sx.typecheck(dv.u_term(a, b))
            assert interp.H(dv.u_term(a, b)) == mc.identity(interp.interp_object(src))
        count += 1
    print("ACCEPTANCE 7: PASS structural arrows evaluate to identities "
          "on 100 random objects")


def test_criterion_8_negative_controls():
    base_left, base_right = protocols.legs("teleportation")
    steps = base_right.before
    for k in range(4):
        wrong = dv.oplus_term([
            sx.GenInv(f"b{i % 4 + 1 if i - 1 == k else i}")
            for i in range(1, 5)
        ])
        assert not interp.equal(base_left, sx.Comp(wrong, steps)).equal, k

    rng = random.Random(SEED + 8)
    done = 0
    while done < 200:
        a, b, c = (gl.rand_objseq(rng) for _ in range(3))
        x = gl.rand_cobsum(rng, a, b)
        y = gl.rand_cobsum(rng, b, c)
        assert cs.size(cs.compose(y, x)) == cs.size(x) * cs.size(y)
        done += 1
    print("ACCEPTANCE 8: PASS perturbed corrections break teleportation; "
          "composition cardinality multiplies on 200 pairs")
