"""Tests of the benchmark itself: generators, known answers, span
arithmetic and failure accounting."""

from __future__ import annotations

import random
import re
import sys
from array import array
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cobeq import freegroup, hilboracle, interp, parse_document, protocols  # noqa: E402
from cobeq import cobordism, syntax  # noqa: E402

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_rounds_are_deterministic(name):
    build = workloads.WORKLOADS[name].build
    first, again = build(7), build(7)
    assert first == again
    assert workloads.digest(first) == workloads.digest(again)
    assert len({workloads.digest(build(s)) for s in range(4)}) > 1
    for doc in first:
        checks = re.findall(r"^\s*check\b.*", doc.text, re.MULTILINE)
        assert len(doc.expected) == len(checks)
        if name != "protocols":  # a repeated check would be decided from warm caches
            assert len(set(checks)) == len(checks)


def test_rounds_mix_verdicts():
    for name in ("deep", "wide", "sums"):
        expected = [e for d in workloads.WORKLOADS[name].build(3) for e in d.expected]
        assert True in expected and False in expected


def test_perturbed_sources_match_the_library_controls():
    controls = {"teleportation": protocols.teleportation_legs_perturbed,
                "swap": protocols.entanglement_swap_legs_perturbed}
    for name, build in controls.items():
        left, right = build()
        text = workloads.perturbed_source(name)
        assert f"let lhs = {syntax.print_term(left)};" in text
        assert f"let rhs = {syntax.print_term(right)};" in text


def _small_checks():
    rng = random.Random(11)
    for kind in workloads.DEEP_KINDS:
        for _ in range(3):
            yield workloads.deep_check(rng, 6, kind)
    for n in (2, 3, 4):
        for kind in workloads.WIDE_KINDS:
            yield workloads.wide_check(rng, n, kind)
    for k in (2, 3):
        for kind in workloads.SUMS_KINDS:
            yield workloads.sums_check(rng, k, kind)


def _oracle_agrees(doc, stmt, assignments):
    return [hilboracle.agree(stmt.left, stmt.right, 1e-9, assignment=a,
                             alphabet=doc.alphabet) for a in assignments]


def test_known_answers_agree_with_random_unitaries():
    """EQUAL checks agree under every random unitary assignment; UNEQUAL
    ones disagree under some, which proves them unequal."""
    rng = random.Random(5)
    assignments = [hilboracle.random_unitary_assignment(rng) for _ in range(3)]
    for check in _small_checks():
        doc = parse_document(workloads.render("small", [check]).text)
        agrees = _oracle_agrees(doc, doc.checks[0], assignments)
        assert all(agrees) if check.equal else not all(agrees), check


def test_protocol_answers_agree_with_random_unitaries():
    rng = random.Random(6)
    assignments = [hilboracle.random_unitary_assignment(rng) for _ in range(2)]
    for doc_spec in workloads.protocols_round(0):
        doc = parse_document(doc_spec.text)
        for stmt, expected in zip(doc.checks, doc_spec.expected):
            agrees = _oracle_agrees(doc, stmt, assignments)
            assert all(agrees) if expected else not all(agrees), doc_spec.name


def test_self_times_on_a_synthetic_tree():
    # interp [0, 10] > matcat [1, 4] > cobsum [2, 3]; interp > syntax [5, 6];
    # a second root hilboracle [11, 12.5]
    layer_of = [5, 3, 2, 4, 6]
    parent = array("i", [-1, 0, 1, 0, -1])
    start = array("d", [0.0, 1.0, 2.0, 5.0, 11.0])
    end = array("d", [10.0, 4.0, 3.0, 6.0, 12.5])
    out = spans.self_times(layer_of, parent, start, end, len(spans.LAYERS))
    assert dict(zip(spans.LAYERS, out)) == {
        "freegroup": 0.0, "cobordism": 0.0, "cobsum": 1.0, "matcat": 2.0,
        "syntax": 1.0, "interp": 6.0, "hilboracle": 1.5}


def test_tracer_patches_imported_names_and_restores_them():
    original_mul, original_gen = freegroup.mul, freegroup.gen
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cobordism.mul is not original_mul and cobordism.mul.__wrapped__ is original_mul
        assert interp.gen.__wrapped__ is original_gen
        doc = syntax.parse_document(
            "gens b1 b2;\ncheck eps[p] . ((b1 . b2) (x) id[p^*]) . sigma[p^*, p] . eta[p]"
            " == eps[p] . ((b2 . b1) (x) id[p^*]) . sigma[p^*, p] . eta[p];\n")
        assert interp.equal(doc.checks[0].left, doc.checks[0].right, doc.alphabet).equal
    finally:
        tracer.restore()
    assert cobordism.mul is original_mul and freegroup.mul is original_mul
    assert interp.gen is original_gen
    summary = tracer.summary()
    assert summary["syntax"]["calls"] >= 1 and summary["interp"]["calls"] >= 1
    assert summary["counters"]["syntax.parse_chars"] > 0
    assert summary["counters"]["cobordism.circles_closed"] >= 2
    assert 0 < summary["counters"]["interp.H_hits"] < summary["counters"]["interp.H_calls"]
    roots = sum(e - s for p, s, e in zip(tracer.parent, tracer.start, tracer.end) if p < 0)
    assert sum(summary[layer]["self_s"] for layer in spans.LAYERS) == pytest.approx(roots)


def test_forced_failures_count_at_the_limit():
    chain = workloads.deep_check(random.Random(1), 400, "regroup")
    doc = workloads.render("forced", [
        workloads.Check("b1 . inv(b1)", "id[p]", True),
        workloads.Check("b1", "sigma[p,p]", True),          # ill-typed: raises
        workloads.Check(chain.left, chain.right, True),     # overruns the limit
    ])
    limit = 0.05
    result = run.run_doc(doc, limit, False, timeout=60)
    assert result.error is None and result.setup_s > 0
    t = run.tally([result], limit)
    assert (t.attempted, t.decided, t.wrong) == (3, 1, [])
    assert t.undecided == {"TypeCheckError": 1, "timeout": 1}
    assert t.verdict_s[1:] == [limit, limit]
    metrics = run.end_to_end([result], t)
    assert metrics["decided_share"][0] == pytest.approx(1 / 3)


def test_unparsable_document_leaves_every_check_undecided():
    doc = workloads.Doc("broken", "gens b1;\ncheck b1 == ;\n", (True, True))
    result = run.run_doc(doc, 1.0, False, timeout=60)
    assert result.error and "ParseError" in result.error
    t = run.tally([result], 1.0)
    assert (t.attempted, t.decided, t.verdict_s) == (2, 0, [1.0, 1.0])


def test_wrong_verdict_invalidates_the_run(monkeypatch, capsys):
    wrong = workloads.Workload(
        "wrong", lambda seed: [workloads.render("w", [workloads.Check("b1", "b2", True)])], 5.0)
    monkeypatch.setitem(workloads.WORKLOADS, "wrong", wrong)
    monkeypatch.setattr(run, "MIN_CHECKS", 1)
    assert run.main(["--workload", "wrong", "--seed", "1", "--seconds", "0"]) == 1
    out = capsys.readouterr().out
    assert "WRONG: w check 1: expected EQUAL, got UNEQUAL" in out
    assert '"correct": false' in out.splitlines()[-1]


def test_percentile_interpolates():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile(list(range(101)), 90) == 90


def test_metrics_take_per_check_medians_over_rounds():
    """Three rounds of one two-check document; the second round ran slow.
    Each check and the document get the median of their three times."""
    doc = workloads.Doc("d", "", (True, False))

    def round_(scale):
        checks = [{"verdict": v, "error": None, "s": s * scale, "oracle": v,
                   "oracle_error": None, "oracle_s": 0.5 * s * scale}
                  for v, s in ((True, 1.0), (False, 3.0))]
        return run.DocRun(doc, 0.2, 4.0 * scale, 10.0, checks, None, None)

    runs = [round_(1.0), round_(5.0), round_(1.1)]
    t = run.tally(runs, limit=100.0)
    assert t.ids == [("d", 1), ("d", 2)] * 3
    assert run.medians_by(t.ids, t.verdict_s) == pytest.approx([1.1, 3.3])
    metrics = run.end_to_end(runs, t)
    assert metrics["verdict_p50_s"][0] == pytest.approx(2.2)
    assert metrics["oracle_p50_s"][0] == pytest.approx(1.1)
    assert metrics["doc_p50_s"][0] == pytest.approx(4.4)
    assert metrics["checks_per_s"][0] == pytest.approx(2 / 4.4)
