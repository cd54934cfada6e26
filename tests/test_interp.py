import random
from pathlib import Path

import pytest

from cobeq import cobordism as cob
from cobeq import cobsum as cs
from cobeq import interp
from cobeq import matcat as mc
from cobeq import syntax as sx
from cobeq.freegroup import Alphabet, DEFAULT_ALPHABET
from cobeq.interp import H, interp_object, matrix_form
from cobeq.syntax import (
    Comp, Gen, Id, Iota1, Iota2, NULL, OplusO, P, Pi1, Pi2, Star, Tens,
    TensorO, UNIT,
)

import derived as dv
import genlib as gl
from conftest import SEED


def test_interp_object_examples():
    assert interp_object(TensorO(P, P)) == ((cob.PLUS, cob.PLUS),)
    assert interp_object(OplusO(OplusO(P, UNIT), NULL)) == ((cob.PLUS,), cob.O)
    assert interp_object(Star(P)) == ((cob.MINUS,),)
    assert interp_object(NULL) == ()
    assert interp_object(TensorO(P, NULL)) == ()


def test_inj_proj_left_table():
    # object (p (+) I) (+) 0, three sum-free components
    a = OplusO(OplusO(P, UNIT), NULL)
    fam = dv.inj_proj(a)
    assert fam.components == (P, UNIT, NULL)
    pI = OplusO(P, UNIT)
    table_inj = [
        Comp(Iota1(pI, NULL), Iota1(P, UNIT)),
        Comp(Iota1(pI, NULL), Iota2(P, UNIT)),
        Iota2(pI, NULL),
    ]
    table_proj = [
        Comp(Pi1(P, UNIT), Pi1(pI, NULL)),
        Comp(Pi2(P, UNIT), Pi1(pI, NULL)),
        Pi2(pI, NULL),
    ]
    for built, table in zip(fam.injections, table_inj):
        assert H(built) == H(table)
    for built, table in zip(fam.projections, table_proj):
        assert H(built) == H(table)


def test_inj_proj_right_table():
    # object ((p (+) 0) (+) p) (x) (I (+) p)^*, all six rows of the table
    p0 = OplusO(P, NULL)
    left = OplusO(p0, P)
    b = TensorO(left, Star(OplusO(UNIT, P)))
    fam = dv.inj_proj(b)
    assert len(fam.components) == 6
    table_inj = [
        Tens(Comp(Iota1(p0, P), Iota1(P, NULL)), dv.star_term(Pi1(UNIT, P))),
        Tens(Comp(Iota1(p0, P), Iota1(P, NULL)), dv.star_term(Pi2(UNIT, P))),
        Tens(Comp(Iota1(p0, P), Iota2(P, NULL)), dv.star_term(Pi1(UNIT, P))),
        Tens(Comp(Iota1(p0, P), Iota2(P, NULL)), dv.star_term(Pi2(UNIT, P))),
        Tens(Iota2(p0, P), dv.star_term(Pi1(UNIT, P))),
        Tens(Iota2(p0, P), dv.star_term(Pi2(UNIT, P))),
    ]
    table_proj = [
        Tens(Comp(Pi1(P, NULL), Pi1(p0, P)), dv.star_term(Iota1(UNIT, P))),
        Tens(Comp(Pi1(P, NULL), Pi1(p0, P)), dv.star_term(Iota2(UNIT, P))),
        Tens(Comp(Pi2(P, NULL), Pi1(p0, P)), dv.star_term(Iota1(UNIT, P))),
        Tens(Comp(Pi2(P, NULL), Pi1(p0, P)), dv.star_term(Iota2(UNIT, P))),
        Tens(Pi2(p0, P), dv.star_term(Iota1(UNIT, P))),
        Tens(Pi2(p0, P), dv.star_term(Iota2(UNIT, P))),
    ]
    for built, table in zip(fam.injections, table_inj):
        assert H(built) == H(table)
    for built, table in zip(fam.projections, table_proj):
        assert H(built) == H(table)


def test_inj_proj_sum_free_collapses():
    a = TensorO(P, Star(P))
    fam = dv.inj_proj(a)
    assert len(fam.components) == 1
    assert H(fam.injections[0]) == mc.identity(interp_object(a))
    assert H(fam.projections[0]) == mc.identity(interp_object(a))


def test_component_count_matches_interp_for_zero_free_objects():
    rng = random.Random(SEED)
    for _ in range(60):
        a = gl.rand_obj(rng, 3, allow_zero=False)
        fam = dv.inj_proj(a)
        assert len(fam.components) == len(interp_object(a))


def test_H_examples():
    assert H(sx.parse_term("b1 . inv(b1)")) == mc.identity(((cob.PLUS,),))
    three = interp_object(TensorO(P, TensorO(P, P)))
    assert H(sx.parse_term("alpha[p,p,p]")) == mc.identity(three)
    got = H(Iota1(P, P))
    assert len(got.tgt) == 2 and len(got.src) == 1
    assert got.entries[0][0] == cs.single(cob.identity((cob.PLUS,)))
    assert cs.is_zero(got.entries[1][0])


def test_H_generator_segment():
    got = H(Gen("b2"))
    (entry,) = [got.entries[0][0]]
    ((g, k),) = entry.terms
    assert k == 1
    (segment,) = g.segments
    assert segment.label.letters == ((1, 1),)


def test_prop_52_random():
    rng = random.Random(SEED + 1)
    for _ in range(40):
        a = gl.rand_obj(rng, 3)
        fam = dv.inj_proj(a)
        n = len(fam.components)
        # orthogonality
        for i in range(n):
            for j in range(n):
                value = H(Comp(fam.projections[j], fam.injections[i]))
                if i == j:
                    assert value == mc.identity(interp_object(fam.components[i]))
                else:
                    assert value == mc.zero(interp_object(fam.components[i]),
                                            interp_object(fam.components[j]))
        # completeness
        total = mc.zero(interp_object(a), interp_object(a))
        for i in range(n):
            total = mc.add(total, H(Comp(fam.injections[i], fam.projections[i])))
        assert total == mc.identity(interp_object(a))


def test_injection_single_nonzero_column():
    rng = random.Random(SEED + 2)
    for _ in range(30):
        a = gl.rand_obj(rng, 3, allow_zero=False)
        fam = dv.inj_proj(a)
        offset = 0
        for i, comp in enumerate(fam.components):
            width = len(interp_object(comp))
            hi = H(fam.injections[i])
            for r in range(len(hi.tgt)):
                for c in range(len(hi.src)):
                    if not cs.is_zero(hi.entries[r][c]):
                        assert offset <= r < offset + width
            hp = H(fam.projections[i])
            for r in range(len(hp.tgt)):
                for c in range(len(hp.src)):
                    if not cs.is_zero(hp.entries[r][c]):
                        assert offset <= c < offset + width
            offset += width


def test_matrix_form_of_injection():
    form = matrix_form(Iota1(P, P))
    assert form.row_components == (P, P) and form.col_components == (P,)
    assert form.entries[0][0] == mc.identity(((cob.PLUS,),))
    assert form.entries[1][0] == mc.zero(((cob.PLUS,),), ((cob.PLUS,),))


def test_matrix_form_sum_free_is_H():
    rng = random.Random(SEED + 3)
    checked = 0
    while checked < 20:
        a = gl.rand_obj(rng, 2, allow_zero=False)
        b = gl.rand_obj(rng, 2, allow_zero=False)
        if dv.inj_proj(a).components != (a,) or dv.inj_proj(b).components != (b,):
            continue
        t = gl.rand_term(rng, a, b, 3)
        form = matrix_form(t)
        assert form.entries == ((H(t),),)
        checked += 1


def test_matrix_form_slices_match_the_term_built_form():
    # Each block of H(u) is the value of proj_i o u o inj_j built and
    # evaluated as a term, on seeded terms whose endpoints may hold 0 and on
    # every let and check side of the corpus and the biproduct file.
    rng = random.Random(SEED + 11)
    with_zero = 0
    for _ in range(300):
        u = gl.rand_any_term(rng, 3)
        assert matrix_form(u) == dv.term_matrix_form(u)
        with_zero += any(NULL in sx.subterms(a) for a in sx.typecheck(u))
    assert with_zero >= 50
    here = Path(__file__).parent
    for path in sorted((here.parent / "corpus").glob("*.ccc")) + [here / "biproducts.ccc"]:
        doc = sx.parse_document(path.read_text(encoding="utf-8"))
        sides = [t for check in doc.checks for t in (check.left, check.right)]
        for u in [*doc.lets.values(), *sides]:
            assert matrix_form(u, doc.alphabet) == dv.term_matrix_form(u, doc.alphabet)


def test_matrix_form_functorial_composition():
    rng = random.Random(SEED + 4)
    for _ in range(25):
        a, b, c = (gl.rand_obj(rng, 2) for _ in range(3))
        u = gl.rand_term(rng, b, c, 3)
        v = gl.rand_term(rng, a, b, 3)
        left = matrix_form(Comp(u, v))
        right = dv.mf_compose(matrix_form(u), matrix_form(v))
        assert left == right


def test_matrix_form_functorial_other_ops():
    rng = random.Random(SEED + 5)
    for _ in range(15):
        a, b, c, d = (gl.rand_obj(rng, 2) for _ in range(4))
        u = gl.rand_term(rng, a, b, 2)
        v = gl.rand_term(rng, c, d, 2)
        assert matrix_form(Tens(u, v)) == dv.mf_tensor(matrix_form(u), matrix_form(v))
        assert matrix_form(sx.Direct(u, v)) == dv.mf_oplus(matrix_form(u), matrix_form(v))
        w1 = gl.rand_term(rng, a, b, 2)
        assert matrix_form(sx.Plus(u, w1)) == dv.mf_add(matrix_form(u), matrix_form(w1))


def test_matrix_form_primitive_entries_small():
    # every entry of a primitive's matrix form is a single arrow or zero
    rng = random.Random(SEED + 6)
    prims = []
    for _ in range(40):
        a = gl.rand_obj(rng, 2)
        b = gl.rand_obj(rng, 2)
        for leaf in gl._leaf_candidates(a, b):
            prims.append(leaf)
    for t in prims:
        form = matrix_form(t)
        for row in form.entries:
            for entry in row:
                sizes = [cs.size(x) for r in entry.entries for x in r]
                assert all(s <= 1 for s in sizes)


def test_equal_examples():
    t = sx.parse_term("sigma[p,p] . sigma[p,p]")
    verdict = interp.equal(t, sx.parse_term("id[p (x) p]"))
    assert verdict.equal and verdict.value == mc.identity(interp_object(TensorO(P, P)))

    verdict = interp.equal(Gen("b1"), Gen("b2"))
    assert not verdict.equal
    assert verdict.diff_at == (0, 0)
    assert verdict.left_entry != verdict.right_entry

    with pytest.raises(sx.TypeCheckError):
        interp.equal(Gen("b1"), Id(UNIT))


def test_equal_reflexive_random():
    rng = random.Random(SEED + 7)
    for _ in range(40):
        t = gl.rand_any_term(rng, 4)
        assert interp.equal(t, t).equal


def test_star_term_matches_matrix_star():
    # the transpose composite evaluates to the transpose of the evaluation
    rng = random.Random(SEED + 8)
    for _ in range(60):
        a, b = gl.rand_obj(rng, 2), gl.rand_obj(rng, 2)
        f = gl.rand_term(rng, a, b, 3)
        assert H(dv.star_term(f)) == mc.star(H(f))


def test_lower_star_term_matches_dagger_star():
    rng = random.Random(SEED + 9)
    for _ in range(40):
        a, b = gl.rand_obj(rng, 2), gl.rand_obj(rng, 2)
        f = gl.rand_term(rng, a, b, 3)
        assert H(dv.lower_star_term(f)) == mc.star(mc.dagger(H(f)))


def test_tuple_term_universal_property():
    # projecting a tuple recovers each component under evaluation
    rng = random.Random(SEED + 10)
    for _ in range(25):
        src = gl.rand_obj(rng, 2)
        parts = [gl.rand_term(rng, src, gl.rand_obj(rng, 2), 2) for _ in range(3)]
        tup = dv.tuple_term(parts)
        _, target = sx.typecheck(tup)
        fam = dv.inj_proj(target)
        offsets = [0]
        for p in parts:
            offsets.append(offsets[-1] + len(dv.inj_proj(sx.typecheck(p)[1]).components))
        for idx, part in enumerate(parts):
            part_fam = dv.inj_proj(sx.typecheck(part)[1])
            for k in range(len(part_fam.components)):
                proj = fam.projections[offsets[idx] + k]
                recovered = H(Comp(proj, tup))
                expected = H(Comp(part_fam.projections[k], part))
                assert recovered == expected


def _chain(k: int) -> str:
    """A `.`-chain of k two-wire gadgets, the same prefix for every k."""
    gadgets = ["sigma[p,p]", "(b1 (x) inv(b2))", "(id[p] (x) b3)", "(inv(b4) (x) b1)",
               "(b2 (x) id[p])"]
    rng = random.Random(SEED)
    return " . ".join(rng.choice(gadgets) for _ in range(k))


def _misses(k: int) -> int:
    """Matrix-cache misses of a fresh context on the chain of k gadgets
    against the same chain with an inverse pair inserted at 3/4 of it."""
    chain = _chain(k).split(" . ")
    at = 3 * k // 4
    edited = chain[:at] + ["(b1 (x) id[p])", "(inv(b1) (x) id[p])"] + chain[at:]
    left, right = sx.parse_term(" . ".join(chain)), sx.parse_term(" . ".join(edited))
    context = interp.EvalContext()
    assert interp.equal(left, right, context=context).equal
    assert context.misses == context.sizes()["matrices"]
    return context.misses


def test_chain_evaluation_grows_linearly():
    # The shared prefix is evaluated once, and no node twice: doubling the
    # chain at most doubles the work, counted as matrix-cache misses.
    for k in (20, 40, 80):
        assert _misses(2 * k) <= 2 * _misses(k) + 10


def test_calls_without_context_share_the_default_context():
    f, g = sx.parse_term("sigma[p,p] . (b1 (x) b2)"), sx.parse_term("(b2 (x) b1) . sigma[p,p]")
    assert interp.equal(f, g).equal
    context = interp.default_context()
    misses, sizes = context.misses, context.sizes()
    assert interp.equal(f, g).equal and interp.default_context() is context
    assert context.misses == misses and context.sizes() == sizes
    assert context.hits > 0
    context.clear()
    assert set(context.sizes().values()) == {0} and context.hits == context.misses == 0


def test_default_context_follows_the_alphabet():
    two = interp.default_context(Alphabet(("b1", "b2")))
    assert interp.default_context(Alphabet(("b1", "b2"))) is two
    assert interp.default_context() is two
    assert interp.default_context(Alphabet(("b1",))) is not two


def test_evaluation_is_checked_against_the_type(monkeypatch):
    monkeypatch.setattr(interp, "_eval", lambda t, ctx: mc.identity(mc.UNIT))
    with pytest.raises(AssertionError):
        H(Id(P), context=interp.EvalContext())


def test_a_context_evaluates_under_its_own_alphabet():
    two = Alphabet(("b1", "b2"))
    context = interp.EvalContext(two)
    f = sx.parse_term("b2 . b1")
    assert H(f, context=context) == H(f, two, context) == H(f, Alphabet(("b1", "b2")), context)
    assert interp.equal(f, f, context=context).equal
    with pytest.raises(ValueError):
        H(f, Alphabet(("b1", "b2", "b3")), context)
    with pytest.raises(ValueError):
        interp.equal(f, f, DEFAULT_ALPHABET, context)


def test_inj_proj_types_in_the_context():
    # The transposes of a dual's components are typed into the memo handed
    # to the helper, so later typing of their entries is a lookup.
    types = {}
    inner = dv.inj_proj(OplusO(P, UNIT), types=types)
    parts = inner.injections + inner.projections
    assert not any(t in types for t in parts)
    dv.inj_proj(Star(OplusO(P, UNIT)), types=types)
    assert all(t in types for t in parts)
