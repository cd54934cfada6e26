"""Decide the checks of one `.ccc` document in a fresh process.

    python3 perfbench/worker.py SPAWN_NS < request.json

SPAWN_NS is the runner's ``time.monotonic_ns()`` just before it started
this process, so the worker can report its own start-up time.  The request
is ``{"text": ..., "limit": seconds, "trace": bool}``; the reply is one JSON
line on stdout.  The worker first decides every check, as `cobeq check`
does, then runs the numeric oracle on every check.  Each call runs under
the per-check limit; a call that raises or overruns is reported with its
error and the time it took.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class CheckTimeout(BaseException):
    """Raised by SIGALRM in the running check.  Not an Exception, so that
    no handler inside the library can swallow it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise CheckTimeout


def timed(fn, limit: float):
    """(value, error name or None, seconds) of fn() under a time limit."""
    global _armed
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        value = fn()
        _armed = False
        return value, None, time.perf_counter() - start
    except CheckTimeout:
        return None, "timeout", time.perf_counter() - start
    except Exception as exc:  # the check's failure is the measurement
        return None, type(exc).__name__, time.perf_counter() - start
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def decide(text: str, limit: float, tracer=None) -> dict:
    """Verdicts, oracle results and timings for one document."""
    from cobeq import hilboracle, interp, syntax

    signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            doc = syntax.parse_document(text)
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        checks = []
        for stmt in doc.checks:
            verdict, error, seconds = timed(
                lambda: interp.equal(stmt.left, stmt.right, doc.alphabet).equal, limit)
            checks.append({"verdict": verdict, "error": error, "s": seconds})
        doc_s = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for stmt, check in zip(doc.checks, checks):
            agree, error, seconds = timed(
                lambda: hilboracle.agree(stmt.left, stmt.right, 1e-9,
                                         alphabet=doc.alphabet), limit)
            check.update(oracle=agree, oracle_error=error, oracle_s=seconds)
    finally:
        if tracer is not None:
            tracer.restore()
    out = {"doc_s": doc_s, "rss_mb": rss_mb, "checks": checks}
    if tracer is not None:
        out["layers"] = tracer.summary()
    return out


def main() -> None:
    spawn_ns = int(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import cobeq.cli  # noqa: F401  (everything `cobeq check` imports, hilboracle too)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9

    request = json.loads(sys.stdin.read())
    tracer = None
    if request["trace"]:
        import spans
        tracer = spans.Tracer()
    result = decide(request["text"], request["limit"], tracer)
    result["setup_s"] = setup_s
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
