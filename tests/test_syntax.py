import gc
import pickle
import random

import pytest

from cobeq import interp
from cobeq import syntax as sx
from cobeq.freegroup import Alphabet
from cobeq.syntax import (
    Comp, Dagger, Eta, Gen, GenInv, Id, NULL, OplusO, P, ParseError, Pi1,
    Plus, SigmaT, Star, Tens, TensorO, TypeCheckError, UNIT,
)

import derived as dv
import genlib as gl
from conftest import SEED


def test_parse_primitives():
    assert sx.parse_term("eta[p]") == Eta(P)
    assert sx.parse_term("b1 . inv(b1)") == Comp(Gen("b1"), GenInv("b1"))
    assert sx.parse_term("zero[0, I (+) p]") == sx.ZeroT(NULL, OplusO(UNIT, P))
    assert sx.parse_term("lam_inv[p^*]") == sx.LamInv(Star(P))
    assert sx.parse_term("alphainv[p,p,p]") == sx.parse_term("alpha_inv[p,p,p]")


def test_parse_nesting_roundtrip():
    text = "(id[p] (x) eta[p]) . lam_inv[p]"
    t = sx.parse_term(text)
    assert t == Comp(Tens(Id(P), Eta(P)), sx.LamInv(P))
    assert sx.parse_term(sx.print_term(t)) == t


def test_precedence():
    # dagger binds tightest, then (x), then (+), then +, then .
    t = sx.parse_term("id[p]! (x) id[p] (+) id[p] + zero[p (x) p (+) p, p (x) p (+) p] . id[p (x) p (+) p]")
    assert isinstance(t, Comp)
    assert isinstance(t.after, Plus)
    assert isinstance(t.after.left, sx.Direct)
    assert isinstance(t.after.left.left, Tens)
    assert isinstance(t.after.left.left.left, Dagger)


def test_objects_parse_and_print():
    cases = ["p", "I", "0", "p^*", "p^*^*", "p (x) p^*", "(p (+) I) (+) 0",
             "(p (x) I)^*", "p (x) (I (+) 0)"]
    for text in cases:
        obj = sx.parse_obj(text)
        assert sx.parse_obj(sx.print_obj(obj)) == obj


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        sx.parse_term("id[p] .")
    assert err.value.line == 1 and err.value.col == 8
    with pytest.raises(ParseError):
        sx.parse_term("eta[p")
    with pytest.raises(ParseError):
        sx.parse_term("nosuchgen")


def test_document_parsing():
    text = """# a comment
gens b1 b2;
let f = b1 . inv(b2);
check f == f;  # trailing comment
"""
    doc = sx.parse_document(text)
    assert doc.alphabet == Alphabet(("b1", "b2"))
    assert doc.lets["f"] == Comp(Gen("b1"), GenInv("b2"))
    assert len(doc.checks) == 1 and doc.checks[0].line == 4


def test_document_rejects_redefinition():
    with pytest.raises(ParseError):
        sx.parse_document("gens b1;\nlet b1 = id[p];\n")
    with pytest.raises(ParseError):
        sx.parse_document("gens g;\nlet eta = id[p];\n")


def test_undeclared_generator_is_parse_error():
    with pytest.raises(ParseError):
        sx.parse_document("gens b1;\ncheck b2 == b2;\n")


def test_typecheck_examples():
    a = sx.parse_obj("p (x) I")
    src, tgt = sx.typecheck(Eta(a))
    assert src == UNIT and tgt == TensorO(Star(a), a)

    src, tgt = sx.typecheck(Dagger(Pi1(P, UNIT)))
    assert src == P and tgt == OplusO(P, UNIT)

    with pytest.raises(TypeCheckError):
        sx.typecheck(sx.parse_term("eps[p] . eta[p]"))
    with pytest.raises(TypeCheckError):
        sx.typecheck(Gen("zz"))
    with pytest.raises(TypeCheckError):
        sx.typecheck(Plus(Id(P), Id(UNIT)))


def test_roundtrip_random_terms():
    rng = random.Random(SEED)
    for _ in range(200):
        t = gl.rand_any_term(rng, depth=4)
        printed = sx.print_term(t)
        assert sx.parse_term(printed) == t, printed


def _deep(rng, depth, leaf, postfix, infix):
    """A node of the given depth: each step puts the node built so far under
    the postfix operator, or under an infix one as its left or right operand
    with a small random ``leaf()`` as the other."""
    node = leaf()
    for _ in range(depth):
        op = rng.choice([postfix, *infix])
        if op is postfix:
            node = postfix(node)
        elif rng.random() < 0.5:
            node = op(node, leaf())
        else:
            node = op(leaf(), node)
    return node


def test_roundtrip_at_depth_3000():
    rng = random.Random(SEED)
    for _ in range(3):
        a = _deep(rng, 3000, lambda: gl.rand_obj(rng, 2), Star, [TensorO, OplusO])
        assert sx.parse_obj(sx.print_obj(a)) is a
        t = _deep(rng, 3000, lambda: gl.rand_any_term(rng, depth=2), Dagger,
                  [Comp, Plus, sx.Direct, Tens])
        assert sx.parse_term(sx.print_term(t)) is t
        assert sx.parse_term(sx.print_term(Comp(Id(a), t))) is Comp(Id(a), t)


def test_repr_and_pickle_at_depth_5000():
    gadgets = ["sigma[p,p]", "(b1 (x) inv(b2))", "(id[p] (x) b3)", "(inv(b4) (x) b1)",
               "(b2 (x) id[p])"]
    rng = random.Random(SEED)
    chain = sx.parse_term(" . ".join(rng.choice(gadgets) for _ in range(5000)))
    daggers = sx.parse_term("b1" + "!" * 5000)
    wide = Id(sx.parse_obj(" (x) ".join(["p"] * 5000)))
    for t in (daggers, chain, wide):
        assert repr(t) == f"<{type(t).__name__} {sx.print_term(t)}>"
        assert pickle.loads(pickle.dumps(t)) is t
    data, text = pickle.dumps(daggers), sx.print_term(daggers)
    del daggers
    gc.collect()
    assert sx.print_term(pickle.loads(data)) == text


def test_eliminate_dagger_on_primitives():
    assert sx.eliminate_dagger(Dagger(Gen("b2"))) == GenInv("b2")
    assert sx.eliminate_dagger(Dagger(GenInv("b2"))) == Gen("b2")
    elim = sx.eliminate_dagger(Dagger(sx.Eps(P)))
    assert elim == Comp(SigmaT(Star(P), P), Eta(P))
    elim = sx.eliminate_dagger(Dagger(Eta(P)))
    assert elim == Comp(sx.Eps(P), SigmaT(Star(P), P))
    assert sx.eliminate_dagger(Dagger(Pi1(P, UNIT))) == sx.Iota1(P, UNIT)
    assert sx.eliminate_dagger(Dagger(sx.ZeroT(P, UNIT))) == sx.ZeroT(UNIT, P)


def _dagger_free(t):
    match t:
        case Dagger(_):
            return False
        case Tens(f, g) | sx.Direct(f, g) | Plus(f, g) | Comp(f, g):
            return _dagger_free(f) and _dagger_free(g)
        case _:
            return True


def test_eliminate_dagger_random():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        t = gl.rand_daggered_term(rng, depth=4)
        elim = sx.eliminate_dagger(t)
        assert _dagger_free(elim)
        assert sx.typecheck(elim) == sx.typecheck(t)
        assert interp.H(elim) == interp.H(t)


def test_derived_builders_typecheck():
    f = Gen("b1")
    assert sx.typecheck(dv.name_term(f)) == (UNIT, TensorO(Star(P), P))
    assert sx.typecheck(dv.coname_term(f)) == (TensorO(P, Star(P)), UNIT)
    assert sx.typecheck(dv.star_term(f)) == (Star(P), Star(P))
    assert sx.typecheck(dv.lower_star_term(f)) == (Star(P), Star(P))
    assert sx.typecheck(dv.trace_term(f)) == (UNIT, UNIT)
    tup = dv.tuple_term([Id(P)] * 3)
    assert sx.typecheck(tup) == (P, OplusO(OplusO(P, P), P))
    cot = dv.cotuple_term([Id(P), Gen("b2")])
    assert sx.typecheck(cot) == (OplusO(P, P), P)
    assert sx.typecheck(dv.u_term(P, Star(P)))[1] == TensorO(Star(Star(P)), Star(P))
    assert sx.typecheck(dv.v_term()) == (Star(UNIT), UNIT)
    assert sx.typecheck(dv.w_term(P)) == (Star(Star(P)), P)
    s = dv.trace_term(Gen("b1"))
    assert sx.typecheck(dv.scalar_act_term(s, f)) == (P, P)


def test_distributivity_builders_typecheck():
    a, b, c = P, UNIT, Star(P)
    assert sx.typecheck(dv.tau_term(a, b, c)) == (
        TensorO(a, OplusO(b, c)), OplusO(TensorO(a, b), TensorO(a, c)))
    assert sx.typecheck(dv.upsilon_term(a, b, c)) == (
        TensorO(OplusO(a, b), c), OplusO(TensorO(a, c), TensorO(b, c)))
    ups4 = dv.upsilon_n([UNIT] * 4, P)
    src, tgt = sx.typecheck(ups4)
    assert src == TensorO(dv.nfold_obj(UNIT, 4), P)
    assert tgt == dv.oplus_obj([TensorO(UNIT, P)] * 4)


def test_equal_structure_is_one_node():
    text = "sigma[p,p] . (b1 (x) inv(b2)) . eta[p^*]!"
    assert sx.parse_term(text) is sx.parse_term(text)
    a, b = Gen("b1"), Tens(Id(P), GenInv("b2"))
    assert Comp(a, b) is Comp(a, b)
    assert Comp(a, b) is not Comp(b, a)
    assert TensorO(Star(P), P) is sx.parse_obj("p^* (x) p")


def test_unreferenced_nodes_leave_the_intern_table():
    def probes():
        return [n for n in list(sx._NODES.values())
                if isinstance(n, Gen) and n.name == "gc_probe"]

    t = Comp(Gen("gc_probe"), Tens(Gen("gc_probe"), Id(P)))
    assert len(probes()) == 1
    del t
    gc.collect()
    assert probes() == []


def test_subterms_lists_each_node_once_after_its_subterms():
    shared = sx.parse_term("b1 . inv(b2)")
    t = Plus(Comp(shared, shared), Dagger(shared))
    order = sx.subterms(t)
    assert len(order) == len(set(order)) and order[-1] is t
    assert set(order) == {t, Comp(shared, shared), Dagger(shared), shared,
                          Gen("b1"), GenInv("b2")}
    position = {node: i for i, node in enumerate(order)}
    assert position[shared] < position[Comp(shared, shared)]
    assert position[shared] < position[Dagger(shared)]
