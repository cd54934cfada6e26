import random

import numpy as np
import pytest

from cobeq import cobsum as cs
from cobeq import freegroup as fg
from cobeq import hilboracle as hb
from cobeq import interp
from cobeq import protocols
from cobeq import syntax as sx
from cobeq.cobordism import GCob
from cobeq.freegroup import Alphabet, DEFAULT_ALPHABET, GroupWord
from cobeq.syntax import Comp, Dagger, Gen, Id, P, UNIT

import derived as dv
import genlib as gl
from conftest import SEED


# Numeric values of cobordisms, to compare the two semantics on closed terms.


def word_matrix(w: GroupWord, assignment: hb.Assignment | None = None,
                alphabet: Alphabet = DEFAULT_ALPHABET) -> np.ndarray:
    """Product of assignment matrices along a group word."""
    if assignment is None:
        assignment = hb.PAULI_ASSIGNMENT
    out = np.eye(2, dtype=complex)
    for index, exponent in w.letters:
        mat = assignment[alphabet.name(index)]
        out = out @ (mat if exponent > 0 else np.linalg.inv(mat))
    return out


def gcob_scalar(g: GCob, assignment: hb.Assignment | None = None,
                alphabet: Alphabet = DEFAULT_ALPHABET) -> complex:
    """Numeric value of a closed cobordism: each circle contributes the
    trace of its label word, multiplicatively."""
    if g.src or g.tgt:
        raise ValueError("scalar value needs a closed cobordism")
    value = complex(1.0)
    for circle in g.circles:
        value *= complex(np.trace(word_matrix(circle.rep, assignment, alphabet)))
    return value


def cobsum_scalar(x: cs.CobSum, assignment: hb.Assignment | None = None,
                  alphabet: Alphabet = DEFAULT_ALPHABET) -> complex:
    """Numeric value of a closed multiset: members add, multiplicities count."""
    return sum((k * gcob_scalar(g, assignment, alphabet) for g, k in x.terms),
               complex(0.0))


def test_pauli_traces():
    for i in range(1, 5):
        for j in range(1, 5):
            t = dv.trace_term(Comp(Gen(f"b{i}"), Dagger(Gen(f"b{j}"))))
            value = hb.eval_numeric(t)
            want = 2.0 if i == j else 0.0
            assert abs(value[0, 0] - want) <= 1e-9


def test_generator_cancellation():
    t = sx.parse_term("b1 . inv(b1)")
    assert np.allclose(hb.eval_numeric(t), np.eye(2))


def test_loop_value_is_dimension():
    t = sx.parse_term("eta[p]! . eta[p]")
    assert abs(hb.eval_numeric(t)[0, 0] - 2.0) <= 1e-9


def test_agree_reflexive_at_zero_tolerance():
    t = gl.rand_any_term(random.Random(SEED), 3)
    assert hb.agree(t, t, tol=0.0)


def test_distinct_generators_disagree():
    assert not hb.agree(Gen("b1"), Gen("b2"))


def test_agree_rejects_endpoint_mismatch():
    with pytest.raises(sx.TypeCheckError):
        hb.agree(Gen("b1"), Id(UNIT))


def test_invalid_assignment_rejected():
    for value, message in ((np.zeros((2, 2)), "not invertible"), (np.eye(3), "not 2x2")):
        with pytest.raises(ValueError, match=f"'b1' is {message}"):
            hb.eval_numeric(Gen("b1"), {"b1": value})
        with pytest.raises(ValueError, match=f"'b1' is {message}"):
            hb.agree(Gen("b1"), Gen("b1"), assignment={"b1": value})


def test_agree_checks_the_assignment_once(monkeypatch):
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(m) or det(m))
    left, right = protocols.legs("teleportation")
    assignment = hb.random_unitary_assignment(random.Random(SEED))
    assert hb.agree(left, right, 1e-9, assignment=assignment)
    assert len(calls) == len(assignment)


def test_protocol_legs_agree():
    for name in protocols.PROTOCOL_NAMES:
        left, right = protocols.legs(name)
        assert hb.agree(left, right, 1e-9), name


def test_protocol_legs_agree_under_random_unitaries():
    rng = random.Random(SEED + 1)
    left, right = protocols.legs("teleportation")
    for _ in range(5):
        assignment = hb.random_unitary_assignment(rng)
        assert hb.agree(left, right, 1e-9, assignment)


def test_random_unitary_assignment_is_unitary():
    rng = random.Random(SEED + 2)
    for mat in hb.random_unitary_assignment(rng).values():
        assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)


def test_symbolically_equal_terms_agree_numerically():
    rng = random.Random(SEED + 3)
    for _ in range(30):
        f = gl.rand_numeric_term(rng, depth=3)
        g = _equivalent_variant(rng, f)
        assert interp.equal(f, g).equal
        assert hb.agree(f, g, 1e-9)
        assignment = hb.random_unitary_assignment(rng)
        assert hb.agree(f, g, 1e-9, assignment)


def _equivalent_variant(rng, t):
    src, tgt = sx.typecheck(t)
    choice = rng.randrange(4)
    if choice == 0:
        return Comp(t, Id(src))
    if choice == 1:
        return Comp(Id(tgt), t)
    if choice == 2:
        return Dagger(Dagger(t))
    return sx.eliminate_dagger(t)


def test_scalar_terms_match_cobordism_semantics():
    # the numeric value of a closed term equals the circle-trace value of
    # its canonical matrix entry
    rng = random.Random(SEED + 4)
    for _ in range(25):
        word_term = _random_endo_word(rng)
        t = dv.trace_term(word_term)
        if rng.random() < 0.5:
            t = sx.Plus(t, dv.trace_term(_random_endo_word(rng)))
        numeric = hb.eval_numeric(t)[0, 0]
        mat = interp.H(t)
        from_cobordisms = cobsum_scalar(mat.entries[0][0])
        assert abs(numeric - from_cobordisms) <= 1e-9


def _random_endo_word(rng):
    t = Id(P)
    for _ in range(rng.randint(1, 3)):
        name = f"b{rng.randint(1, 4)}"
        leaf = Gen(name) if rng.random() < 0.5 else sx.GenInv(name)
        t = Comp(leaf, t)
    return t


def test_factoring_through_zero_in_both_semantics():
    t = Comp(sx.ZeroT(sx.NULL, P), sx.ZeroT(P, sx.NULL))
    z = sx.ZeroT(P, P)
    assert interp.equal(t, z).equal
    assert np.allclose(hb.eval_numeric(t), np.zeros((2, 2)))
    assert hb.agree(t, z, 0.0)


def test_word_matrix_inverse():
    rng = random.Random(SEED + 5)
    w = gl.rand_word(rng, 4)
    lhs = word_matrix(w) @ word_matrix(fg.inverse(w))
    assert np.allclose(lhs, np.eye(2), atol=1e-9)


def test_each_distinct_subterm_is_evaluated_once(monkeypatch):
    # 40 nested self-compositions: a tree of 5 * 2^40 - 1 nodes, 43 of them distinct.
    t = Comp(Gen("b2"), Dagger(Gen("b2")))
    for _ in range(40):
        t = Comp(t, t)
    seen = []
    evaluate = hb._eval_node

    def counting(node, assignment, values):
        seen.append(node)
        return evaluate(node, assignment, values)

    monkeypatch.setattr(hb, "_eval_node", counting)
    assert np.allclose(hb.eval_numeric(t), np.eye(2))
    assert len(seen) == len(set(seen)) == 43
