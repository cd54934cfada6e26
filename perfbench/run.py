"""Cold-start verdict benchmark for cobeq.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 15 --trace 0

Builds one round of seeded documents for the workload (see workloads.py),
then decides the round over and over, each document in a fresh worker
process and one worker at a time, until --seconds have passed and at least
100 checks were attempted.  Runs end on the round boundary nearest to
--seconds, so every run decides the same mix of documents.  Each check and
each document gets the median of its times over the rounds, and the
percentiles are taken over those medians.  Every verdict is compared with the answer its
check was built with, and every EQUAL verdict with the numeric oracle under
the Bell assignment; a wrong verdict makes the run invalid (exit status 1).

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
decides each document twice, untraced and then traced (see spans.py), and
reports the per-layer metrics of the traced pass.  `--workload all` runs
every workload in turn.  The last line of output is one JSON object; the
metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_CHECKS = 100
# No round starts after this many seconds, and a worker still running at
# the cap is killed, so that a run ends within three minutes.
LAST_ROUND_START_S = 90.0
RUN_CAP_S = 165.0


@dataclass
class DocRun:
    doc: workloads.Doc
    setup_s: float | None
    doc_s: float
    rss_mb: float
    checks: list[dict]
    error: str | None
    layers: dict | None


def run_doc(doc: workloads.Doc, limit: float, trace: bool, timeout: float) -> DocRun:
    """Decide one document in a fresh worker.  A worker that fails, or is
    killed at the timeout, leaves every check of its document undecided."""
    request = json.dumps({"text": doc.text, "limit": limit, "trace": trace})
    started = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, input=request, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            reply = {"error": f"worker exited {proc.returncode}: {tail[0]}"}
        else:
            reply = json.loads(proc.stdout.splitlines()[-1])
    except subprocess.TimeoutExpired:
        reply = {"error": f"worker killed after {timeout:.0f} s"}
    except (ValueError, IndexError):
        reply = {"error": "worker wrote no result"}
    elapsed = time.perf_counter() - started
    checks = reply.get("checks", [])
    error = reply.get("error")
    if error is None and len(checks) != len(doc.expected):
        error = f"worker decided {len(checks)} checks, the document has {len(doc.expected)}"
    if error is not None:
        checks = [{"verdict": None, "error": "worker", "s": limit,
                   "oracle": None, "oracle_error": "worker", "oracle_s": limit}
                  for _ in doc.expected]
    return DocRun(doc, reply.get("setup_s"), reply.get("doc_s", elapsed),
                  reply.get("rss_mb", 0.0), checks, error, reply.get("layers"))


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Tally:
    """Per-check accounting of a set of document runs."""
    attempted: int
    decided: int
    ids: list[tuple[str, int]]
    """The check (document name, index) of each entry of the lists below."""
    verdict_s: list[float]
    oracle_s: list[float]
    undecided: Counter
    wrong: list[str]


def tally(runs: list[DocRun], limit: float) -> Tally:
    """A check is decided when it returns the expected verdict within the
    limit; any other check counts at the limit.  A verdict other than the
    expected one, or an EQUAL the oracle disagrees with, is wrong."""
    t = Tally(0, 0, [], [], [], Counter(), [])
    for run in runs:
        if run.error is not None:
            t.undecided[run.error] += len(run.checks)
        for i, (expected, c) in enumerate(zip(run.doc.expected, run.checks), 1):
            t.attempted += 1
            t.ids.append((run.doc.name, i))
            where = f"{run.doc.name} check {i}"
            verdict = c["verdict"]
            if verdict is not None and verdict != expected:
                t.wrong.append(f"{where}: expected {_word(expected)}, got {_word(verdict)}")
            if verdict is True and c["oracle"] is False:
                t.wrong.append(f"{where}: EQUAL, but the oracle disagrees")
            ok = verdict == expected and c["s"] <= limit
            if ok:
                t.decided += 1
            elif run.error is None:
                t.undecided[c["error"] or "over the limit"] += 1
            t.verdict_s.append(c["s"] if ok else limit)
            t.oracle_s.append(c["oracle_s"] if c["oracle_error"] is None else limit)
    return t


def _word(verdict: bool) -> str:
    return "EQUAL" if verdict else "UNEQUAL"


def medians_by(keys, values) -> list[float]:
    """The median of each key's values.  Every round decides the same
    checks, so this gives one time per check (or document) over the rounds
    of a run, and one slow round moves no percentile taken over them."""
    groups = defaultdict(list)
    for key, value in zip(keys, values):
        groups[key].append(value)
    return [statistics.median(vs) for vs in groups.values()]


def end_to_end(runs: list[DocRun], t: Tally) -> dict:
    setups = [r.setup_s for r in runs if r.setup_s is not None]
    if not setups:
        raise SystemExit("error: no worker imported cobeq")
    verdicts = medians_by(t.ids, t.verdict_s)
    docs = medians_by((r.doc.name for r in runs), (r.doc_s for r in runs))
    rounds = len(runs) / len(docs)
    return {
        "verdict_p50_s": (percentile(verdicts, 50), "s"),
        "verdict_p90_s": (percentile(verdicts, 90), "s"),
        "doc_p50_s": (statistics.median(docs), "s"),
        "checks_per_s": (t.decided / rounds / sum(docs), "1/s"),
        "decided_share": (t.decided / t.attempted, "ratio"),
        "oracle_p50_s": (statistics.median(medians_by(t.ids, t.oracle_s)), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
    }


def per_layer(traced: list[DocRun], t_traced: Tally, t_untraced: Tally,
              rounds: int) -> dict:
    """Totals per round of the traced pass, and ratios of totals."""
    total: Counter = Counter()
    max_members = 0
    for run in traced:
        if run.layers is None:
            continue
        for layer in LAYERS:
            total[f"{layer}.self_s"] += run.layers[layer]["self_s"]
            total[f"{layer}.calls"] += run.layers[layer]["calls"]
        counters = run.layers["counters"]
        max_members = max(max_members, counters.pop("cobsum.max_members"))
        total.update(counters)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (total[f"{layer}.self_s"] / rounds, "s")
        out[f"{layer}.calls"] = (total[f"{layer}.calls"] / rounds, "count")
    ratio = lambda a, b: total[a] / total[b] if total[b] else 0.0  # noqa: E731
    out.update({
        "syntax.parse_chars_per_s": (ratio("syntax.parse_chars", "syntax.parse_s"), "chars/s"),
        "interp.H_calls": (total["interp.H_calls"] / rounds, "count"),
        "interp.H_hit_ratio": (ratio("interp.H_hits", "interp.H_calls"), "ratio"),
        "matcat.entries_built": (total["matcat.entries_built"] / rounds, "count"),
        "matcat.nonzero_ratio": (ratio("matcat.nonzero", "matcat.entries_built"), "ratio"),
        "cobsum.pairs": (total["cobsum.pairs"] / rounds, "count"),
        "cobsum.merge_ratio": (ratio("cobsum.members_out", "cobsum.pairs"), "ratio"),
        "cobsum.max_members": (max_members, "count"),
        "cobordism.circles_closed": (total["cobordism.circles_closed"] / rounds, "count"),
        "freegroup.letters_per_mul": (ratio("freegroup.mul_letters", "freegroup.mul_calls"),
                                      "letters"),
        "trace.overhead_ratio": (statistics.median(medians_by(t_traced.ids, t_traced.verdict_s))
                                 / statistics.median(medians_by(t_untraced.ids,
                                                                t_untraced.verdict_s)),
                                 "ratio"),
    })
    return out


def trace_mismatches(traced: list[DocRun], untraced: list[DocRun]) -> list[str]:
    """Checks whose traced outcome differs from the untraced one.  Time
    limits are exempt: tracing makes every check slower."""
    out = []
    for t, u in zip(traced, untraced):
        for i, (ct, cu) in enumerate(zip(t.checks, u.checks), 1):
            if "timeout" in (ct["error"], cu["error"]):
                continue
            if (ct["verdict"], ct["error"]) != (cu["verdict"], cu["error"]):
                out.append(f"{t.doc.name} check {i}: traced {ct['verdict']}/{ct['error']}, "
                           f"untraced {cu['verdict']}/{cu['error']}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workload = workloads.WORKLOADS[name]
    docs = workload.build(seed)
    start = time.perf_counter()
    runs: list[DocRun] = []
    baseline: list[DocRun] = []
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        attempted = sum(len(r.doc.expected) for r in runs)
        # Stop at the round boundary nearest to --seconds.
        half_round = elapsed / rounds / 2 if rounds else 0.0
        enough = elapsed + half_round >= seconds and (trace or attempted >= MIN_CHECKS)
        if rounds and (enough or elapsed >= LAST_ROUND_START_S):
            break
        for doc in docs:
            left = RUN_CAP_S - (time.perf_counter() - start)
            timeout = max(1.0, min(2 * workload.limit_s * len(doc.expected) + 60, left))
            if trace:
                baseline.append(run_doc(doc, workload.limit_s, False, timeout))
            runs.append(run_doc(doc, workload.limit_s, trace, timeout))
        rounds += 1

    t = tally(runs, workload.limit_s)
    wrong = list(t.wrong)
    if trace:
        t_base = tally(baseline, workload.limit_s)
        wrong += t_base.wrong + trace_mismatches(runs, baseline)
        metrics = per_layer(runs, t, t_base, rounds)
    else:
        metrics = end_to_end(runs, t)

    print(f"{name}: seed {seed}, input digest {workloads.digest(docs)}, {rounds} rounds "
          f"of {len(docs)} documents, {t.attempted} checks attempted, "
          f"{t.attempted - t.decided} undecided{' (traced)' if trace else ''}")
    for reason, n in sorted(t.undecided.items()):
        print(f"  undecided: {n} x {reason}")
    for problem in wrong:
        print(f"  WRONG: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28} {value:14.6g} {unit}")
    return not wrong, t.attempted, t.attempted - t.decided, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/cobeq/__init__.py", "corpus") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
