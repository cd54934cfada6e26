import pytest

from cobeq import cobordism as cob
from cobeq import cobsum as cs
from cobeq import freegroup as fg
from cobeq import interp
from cobeq import protocols
from cobeq import syntax as sx

import derived as dv
import protocol_terms


def test_all_protocols_verify():
    for name in protocols.PROTOCOL_NAMES:
        report = protocols.verify(name)
        assert report.equal, name
        assert report.common is not None
        assert report.diff_at is None
        assert report.elapsed >= 0.0


def test_unknown_protocol():
    with pytest.raises(KeyError):
        protocols.verify("nosuch")


def test_teleportation_common_value_is_diagonal():
    left, right = protocols.legs("teleportation")
    value = interp.H(left)
    assert interp.H(right) == value
    assert len(value.tgt) == 4 and len(value.src) == 1
    wire = cs.single(cob.identity((cob.PLUS,)))
    for i in range(4):
        assert value.entries[i][0] == wire
    # and the left leg is the tuple of identities by construction
    assert value == interp.H(dv.tuple_term([sx.Id(sx.P)] * 4))


def test_swap_common_value_is_two_caps():
    left, right = protocols.legs("swap")
    value = interp.H(left)
    assert interp.H(right) == value
    cap = cob.eta((cob.PLUS,))
    both = cs.single(cob.tensor(cap, cap))
    assert len(value.tgt) == 4
    for i in range(4):
        assert value.tgt[i] == cob.seq("-+-+")
        assert value.entries[i][0] == both


def test_superdense_common_value_circles():
    left, right = protocols.legs("superdense")
    value = interp.H(left)
    assert interp.H(right) == value
    assert len(value.tgt) == 16
    for i in range(1, 5):
        for j in range(1, 5):
            entry = value.entries[4 * (i - 1) + (j - 1)][0]
            label = fg.mul(fg.gen(j - 1), fg.gen(i - 1, -1))
            assert entry == cs.single(cob.circle(label))
    trivial = [n for n in range(16)
               if value.entries[n][0] == cs.single(cob.circle(fg.E))]
    assert trivial == [0, 5, 10, 15]


def test_perturbed_corrections_break_equality():
    left, right = protocols.teleportation_legs_perturbed()
    assert not interp.equal(left, right).equal
    left, right = protocols.entanglement_swap_legs_perturbed()
    assert not interp.equal(left, right).equal


def test_every_single_index_perturbation_breaks_teleportation():
    base_left, base_right = protocols.legs("teleportation")
    correction = base_right.after
    steps = base_right.before
    for k in range(4):
        wrong = dv.oplus_term([
            sx.GenInv(f"b{i % 4 + 1 if i - 1 == k else i}")
            for i in range(1, 5)
        ])
        assert wrong != correction
        verdict = interp.equal(base_left, sx.Comp(wrong, steps))
        assert not verdict.equal, f"perturbing branch {k} should break the diagram"


def test_every_single_index_perturbation_breaks_swap():
    base_left, base_right = protocols.legs("swap")
    steps = base_right.before
    for k in range(4):
        wrong = dv.oplus_term([
            sx.Tens(sx.Tens(sx.Id(sx.Star(sx.P)),
                            sx.Gen(f"b{i % 4 + 1 if i - 1 == k else i}")),
                    sx.Tens(sx.Id(sx.Star(sx.P)), sx.GenInv(f"b{i}")))
            for i in range(1, 5)
        ])
        verdict = interp.equal(base_left, sx.Comp(wrong, steps))
        assert not verdict.equal, f"perturbing branch {k} should break the diagram"


def test_uninverted_corrections_break_teleportation():
    # without the inverses, each branch carries b_i twice instead of
    # canceling to the neutral wire
    left, right = protocols.legs("teleportation")
    wrong = dv.oplus_term([sx.Gen(f"b{i}") for i in range(1, 5)])
    broken = sx.Comp(wrong, right.before)
    assert not interp.equal(left, broken).equal
    value = interp.H(broken)
    for i in range(4):
        label = fg.mul(fg.gen(i), fg.gen(i))
        expected = cob.gcob((cob.PLUS,), (cob.PLUS,),
                            [cob.Segment((cob.SRC, 0), (cob.TGT, 0), label)])
        assert value.entries[i][0] == cs.single(expected)


def test_teleportation_observation_entries():
    # once the observation is composed over the produced pair, branch i is
    # a single strand carrying b_i
    _, right = protocols.legs("teleportation")
    through_observation = right.before.before
    value = interp.H(through_observation)
    assert len(value.tgt) == 4
    for i in range(4):
        expected = cob.gcob((cob.PLUS,), (cob.PLUS,),
                            [cob.Segment((cob.SRC, 0), (cob.TGT, 0), fg.gen(i))])
        assert value.entries[i][0] == cs.single(expected)


def test_swap_pre_cancellation_entries():
    # before the unitary correction, branch i holds the two caps with b_i
    # inverse on the first pair and b_i on the second
    _, right = protocols.legs("swap")
    pre = interp.H(right.before)
    for i in range(4):
        first = cob.gcob(cob.O, cob.seq("-+"),
                         [cob.Segment((cob.TGT, 0), (cob.TGT, 1), fg.gen(i, -1))])
        second = cob.gcob(cob.O, cob.seq("-+"),
                          [cob.Segment((cob.TGT, 0), (cob.TGT, 1), fg.gen(i))])
        assert pre.entries[i][0] == cs.single(cob.tensor(first, second))


def test_ccc_sources_roundtrip():
    # The shipped text is the reference generator's printed legs, and parsing
    # it gives the generator's nodes.
    for name in protocols.PROTOCOL_NAMES:
        shipped = protocols.ccc_source(name)
        assert shipped == protocol_terms.ccc_source(name), name
        doc = sx.parse_document(shipped)
        assert doc.alphabet == protocols.ALPHABET
        (stmt,) = doc.checks
        left, right = protocol_terms.LEGS[name]()
        assert protocols.legs(name) == (stmt.left, stmt.right) == (left, right)


def test_reports_are_fresh():
    r1 = protocols.verify("teleportation")
    r2 = protocols.verify("teleportation")
    assert r1.equal and r2.equal
    assert r1.name == r2.name == "teleportation"
