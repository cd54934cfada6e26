"""Seeded `.ccc` documents for the benchmark workloads.

Each workload builds one *round*: a fixed list of documents for a seed.
The runner repeats the round, one fresh worker process per document, until
the run has lasted long enough.  Every check carries the verdict that
follows from how it was built; cobeq is never asked what the answer is.
Only the standard library is used here, so documents can be generated
without importing the program under test.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GENS = (1, 2, 3, 4)
HEADER = "gens b1 b2 b3 b4;\n"


@dataclass(frozen=True)
class Check:
    left: str
    right: str
    equal: bool


@dataclass(frozen=True)
class Doc:
    name: str
    text: str
    expected: tuple[bool, ...]


def render(name: str, checks: list[Check]) -> Doc:
    lines = [f"# {name}\n", HEADER]
    lines += [f"check {c.left} == {c.right};\n" for c in checks]
    return Doc(name, "".join(lines), tuple(c.equal for c in checks))


def digest(docs: list[Doc]) -> str:
    """Short hash of a round's documents and expected verdicts."""
    h = hashlib.sha256()
    for d in docs:
        h.update(d.name.encode())
        h.update(b"\0")
        h.update(d.text.encode())
        h.update(bytes(d.expected))
    return h.hexdigest()[:16]


def _gen(g: int, e: int) -> str:
    return f"b{g}" if e > 0 else f"inv(b{g})"


# ---------------------------------------------------------------------------
# protocols: the bundled corpus plus the two negative controls

_CHECK_LINE = re.compile(r"^\s*check\b", re.MULTILINE)

# The correction step that leads each protocol's right leg, and the same step
# with shifted branch indices, as `protocols.*_legs_perturbed` builds it.
_TELEPORT_FIX = " (+) ".join(f"inv(b{i})" for i in GENS) + " . "
_TELEPORT_WRONG = " (+) ".join(f"inv(b{i % 4 + 1})" for i in GENS) + " . "
_SWAP_FIX = " (+) ".join(
    f"id[p^*] (x) b{i} (x) (id[p^*] (x) inv(b{i}))" for i in GENS) + " . "
_SWAP_WRONG = " (+) ".join(
    f"id[p^*] (x) b{i % 4 + 1} (x) (id[p^*] (x) inv(b{i}))" for i in GENS) + " . "


def perturbed_source(name: str) -> str:
    """The negative control of a corpus protocol: the right leg's final
    correction applies the unitary of the neighbouring branch, so the two
    legs differ (the corrections no longer undo the measurement)."""
    fix, wrong = {"teleportation": (_TELEPORT_FIX, _TELEPORT_WRONG),
                  "swap": (_SWAP_FIX, _SWAP_WRONG)}[name]
    text = (CORPUS / f"{name}.ccc").read_text(encoding="utf-8")
    head = "let rhs = "
    start = text.index(head) + len(head)
    if not text.startswith(fix, start):
        raise ValueError(f"corpus/{name}.ccc: right leg does not start with its correction")
    text = text[:start] + wrong + text[start + len(fix):]
    return text.replace(f"# {name}:", f"# {name} (perturbed corrections):", 1)


def negative_controls() -> str:
    """Both negative controls in one document, their terms renamed apart."""
    lines = [HEADER]
    for name in ("teleportation", "swap"):
        for line in perturbed_source(name).splitlines(keepends=True):
            if not line.startswith("gens "):
                lines.append(line.replace("lhs", f"{name}_lhs").replace("rhs", f"{name}_rhs"))
    return "".join(lines)


def protocols_round(seed: int) -> list[Doc]:
    """Every corpus check is a law (EQUAL); both negative controls, which
    share one document, are refuted (UNEQUAL).  The seed only orders the
    documents."""
    docs = []
    for path in sorted(CORPUS.glob("*.ccc")):
        text = path.read_text(encoding="utf-8")
        n = len(_CHECK_LINE.findall(text))
        docs.append(Doc(path.stem, text, (True,) * n))
    docs.append(Doc("negative_controls", negative_controls(), (False, False)))
    random.Random(seed).shuffle(docs)
    return docs


# ---------------------------------------------------------------------------
# deep: long composition chains of two-wire gadgets
#
# A gadget is an endomorphism of p (x) p: the symmetry, or a tensor of two
# generator letters (or identities).  Every chain denotes a 1x1 matrix with
# one cobordism, so labels of length ~k carry the work.


def _gadget(rng: random.Random) -> tuple:
    if rng.random() < 0.25:
        return ("sigma",)

    def letter():
        if rng.random() < 0.15:
            return None
        return (rng.choice(GENS), rng.choice((1, -1)))

    return ("pair", letter(), letter())


def _gadget_text(g: tuple) -> str:
    if g[0] == "sigma":
        return "sigma[p,p]"
    a, b = (("id[p]" if x is None else _gen(*x)) for x in g[1:])
    return f"({a} (x) {b})"


def _gadget_inverse(g: tuple) -> tuple:
    if g[0] == "sigma":
        return g
    return ("pair",) + tuple(None if x is None else (x[0], -x[1]) for x in g[1:])


def _chain(gadgets: list[tuple]) -> str:
    return " . ".join(_gadget_text(g) for g in gadgets)


def deep_check(rng: random.Random, k: int, kind: str) -> Check:
    """A chain of k gadgets against one of:

    - ``regroup``: the same chain split into parenthesized groups (EQUAL by
      associativity);
    - ``insert``: the chain with a gadget and its inverse inserted (EQUAL,
      generators are invertible and the symmetry is an involution);
    - ``change``: the chain with one generator letter replaced by another
      generator (UNEQUAL: the affected strand's label u.x.v becomes u.y.v,
      and in a free group u.x.v = u.y.v forces x = y).

    Edits land at 70-80% of the chain, so that the shared prefix is long.
    """
    gadgets = [_gadget(rng) for _ in range(k)]
    pos = int(k * rng.uniform(0.7, 0.8))
    if kind == "change":
        while gadgets[pos][0] == "sigma" or gadgets[pos][1] is None:
            gadgets[pos] = _gadget(rng)
    left = _chain(gadgets)
    if kind == "regroup":
        groups, i = [], 0
        while i < k:
            size = rng.randint(1, 8)
            groups.append("(" + _chain(gadgets[i:i + size]) + ")")
            i += size
        return Check(left, " . ".join(groups), True)
    if kind == "insert":
        g = _gadget(rng)
        while g[0] == "pair" and g[1] is None and g[2] is None:
            g = _gadget(rng)
        edited = gadgets[:pos] + [g, _gadget_inverse(g)] + gadgets[pos:]
        return Check(left, _chain(edited), True)
    if kind == "change":
        _, (g, e), other = gadgets[pos]
        new = rng.choice([h for h in GENS if h != g])
        edited = list(gadgets)
        edited[pos] = ("pair", (new, e), other)
        return Check(left, _chain(edited), False)
    raise ValueError(kind)


DEEP_KINDS = ("regroup", "insert", "change")


def deep_round(seed: int) -> list[Doc]:
    """Four documents, each with 5 checks at k=50, 3 at k=100 and 4 at
    k=200; the first three also hold one k=400 check.  Per round that is
    20/12/16/3 checks: the median falls among the k=100 ones, the 90th
    percentile among the k=200 ones, under the k=400 ones."""
    rng = random.Random(seed)
    docs = []
    made = {k: 0 for k in (50, 100, 200, 400)}
    for d in range(4):
        sizes = [50] * 5 + [100] * 3 + [200] * 4 + ([400] if d < 3 else [])
        checks = []
        for k in sizes:
            checks.append(deep_check(rng, k, DEEP_KINDS[made[k] % 3]))
            made[k] += 1
        docs.append(render(f"deep-{d}", checks))
    return docs


# ---------------------------------------------------------------------------
# wide: biproduct laws on n-fold sums S_n = p (+) ... (+) p
#
# Matrices are n x n (or n^2 x n^2) grids of mostly empty multisets, so
# building and composing dense zero-filled grids carries the work.


def _S(n: int) -> str:
    return " (+) ".join(["p"] * n)


def _sum_of_idempotents(n: int, base: str) -> str:
    """iota_1 . pi_1 + ... + iota_n . pi_n on S_n, nested by the binary
    biproduct: E_m = iota1 . E_{m-1} . pi1 + iota2 . pi2, with E_1 = base."""
    term = base
    for m in range(2, n + 1):
        s = _S(m - 1)
        term = (f"(iota1[{s}, p] . ({term}) . pi1[{s}, p])"
                f" + (iota2[{s}, p] . pi2[{s}, p])")
    return term


def _projection(j: int, n: int) -> str:
    """pi_j out of S_n (1-based), as a chain of binary projections."""
    steps = []
    for m in range(n, 1, -1):
        if j == m:
            steps.append(f"pi2[{_S(m - 1)}, p]")
            break
        steps.append(f"pi1[{_S(m - 1)}, p]")
    return " . ".join(reversed(steps)) if steps else "id[p]"


def _tuple(parts: list[str]) -> str:
    """<f_1, ..., f_n> : p -> S_n, nested by the binary tuple."""
    term = parts[0]
    for m in range(2, len(parts) + 1):
        s = _S(m - 1)
        term = f"(iota1[{s}, p] . ({term})) + (iota2[{s}, p] . {parts[m - 1]})"
    return term


def wide_check(rng: random.Random, n: int, kind: str) -> Check:
    """One biproduct law at width n:

    - ``tensor``: id[S_n] (x) id[S_n] against the identity on the
      distributed object (EQUAL, tensor is a functor);
    - ``binary``: iota1 . pi1 + iota2 . pi2 == id on S_{n-1} (+) p (EQUAL);
    - ``idempotents``: sum of iota_i . pi_i == id[S_n] (EQUAL);
    - ``idempotents_zero``: the same sum with the first summand replaced by
      zero (UNEQUAL: component (1,1) is 0 on one side, id[p] on the other);
    - ``project``: pi_j . <f_1..f_n> == f_j (EQUAL);
    - ``project_wrong``: pi_j . <f_1..f_n> == g with g a generator other
      than f_j (UNEQUAL: distinct generators are distinct arrows).
    """
    s = _S(n)
    if kind == "tensor":
        return Check(f"id[{s}] (x) id[{s}]", f"id[({s}) (x) ({s})]", True)
    if kind == "binary":
        t = _S(n - 1)
        return Check(f"(iota1[{t}, p] . pi1[{t}, p]) + (iota2[{t}, p] . pi2[{t}, p])",
                     f"id[{s}]", True)
    if kind == "idempotents":
        return Check(_sum_of_idempotents(n, "id[p]"), f"id[{s}]", True)
    if kind == "idempotents_zero":
        return Check(_sum_of_idempotents(n, "zero[p, p]"), f"id[{s}]", False)
    if kind in ("project", "project_wrong"):
        letters = [(rng.choice(GENS), rng.choice((1, -1))) for _ in range(n)]
        j = min(max(1, n // 2 + rng.randint(-1, 1)), n)
        left = f"{_projection(j, n)} . ({_tuple([_gen(*x) for x in letters])})"
        if kind == "project":
            return Check(left, _gen(*letters[j - 1]), True)
        g, e = letters[j - 1]
        return Check(left, _gen(rng.choice([h for h in GENS if h != g]), e), False)
    raise ValueError(kind)


WIDE_KINDS = ("tensor", "binary", "idempotents", "idempotents_zero", "project", "project_wrong")

# Every document holds the same mix of widths: the six laws at n = 4 and at
# n = 8, where the median falls; four checks at n = 16 and the binary law
# at n = 32, whose two slowest (~0.13 s) hold the 90th percentile.  The
# first document also holds the n^2 x n^2 tensor law at n = 20, which takes
# ~1.1 s and sets the peak memory; once per round keeps the round short.
# The tensor law stops there: at n = 32 it takes ~8 s and ~400 MB, and its
# dense numeric cross-check would allocate three 4096 x 4096 complex
# matrices.  Only `project_wrong` appears twice: it draws a fresh tuple, so
# no check repeats an earlier one of its document.
WIDE_DOC = (
    [(4, kind) for kind in WIDE_KINDS]
    + [(8, kind) for kind in WIDE_KINDS]
    + [(16, kind) for kind in ("idempotents", "idempotents_zero", "project_wrong",
                               "project_wrong")]
    + [(32, "binary")]
)


def wide_round(seed: int) -> list[Doc]:
    """Three documents: a round of ~4 s, so that a run repeats it several
    times and the runner's per-check medians have several rounds to take."""
    rng = random.Random(seed)
    plans = [[*WIDE_DOC, (20, "tensor")], list(WIDE_DOC), list(WIDE_DOC)]
    return [render(f"wide-{d}", [wide_check(rng, n, kind) for n, kind in plan])
            for d, plan in enumerate(plans)]


# ---------------------------------------------------------------------------
# sums: products of generator sums, composed and traced
#
# A factor is x + inv(x) + y + inv(z) on p.  A product of k factors has 4^k
# pairwise products, which cancellation collapses to far fewer members.


# Generator roles (x, y, z) of the factors, cycled along a product.  The
# seed relabels the generators and orders the summands, which keeps the
# cancellation pattern, and so the cost, the same for every seed.
_FACTOR_ROLES = ((1, 2, 3), (2, 4, 1), (3, 1, 4), (4, 3, 2))


def _factors(rng: random.Random, k: int) -> list[list[str]]:
    relabel = list(GENS)
    rng.shuffle(relabel)
    out = []
    for i in range(k):
        x, y, z = (relabel[r - 1] for r in _FACTOR_ROLES[i % 4])
        summands = [_gen(x, 1), _gen(x, -1), _gen(y, 1), _gen(z, -1)]
        rng.shuffle(summands)
        out.append(summands)
    return out


def _product(factors: list[list[str]]) -> str:
    return " . ".join("(" + " + ".join(f) + ")" for f in factors)


def _trace(term: str) -> str:
    return f"eps[p] . (({term}) (x) id[p^*]) . sigma[p^*, p] . eta[p]"


def sums_check(rng: random.Random, k: int, kind: str) -> Check:
    """A product P of k factors against one of:

    - ``regroup``: P bracketed as (first half) . (second half) (EQUAL);
    - ``reorder``: P with every factor's summands permuted (EQUAL, + is
      commutative);
    - ``drop``: P with one summand left out of the middle factor (UNEQUAL:
      the multisets have 4^k and 3 * 4^(k-1) members counted with
      multiplicity);
    - ``trace_rotate``: tr(P) against the trace of P rotated by one factor
      (EQUAL, trace is cyclic);
    - ``trace_drop``: tr(P) against the trace with one summand left out
      (UNEQUAL, by the same count).
    """
    factors = _factors(rng, k)
    p = _product(factors)
    if kind == "regroup":
        h = k // 2
        return Check(p, f"({_product(factors[:h])}) . ({_product(factors[h:])})", True)
    if kind == "reorder":
        shuffled = [rng.sample(f, len(f)) for f in factors]
        return Check(p, _product(shuffled), True)
    if kind in ("drop", "trace_drop"):
        # Leave out the +y summand of the middle factor: a fixed role at a
        # fixed place, so that the cost does not depend on the seed.
        dropped = [list(f) for f in factors]
        mid = dropped[k // 2]
        mid.remove(next(s for s in mid if not s.startswith("inv") and f"inv({s})" not in mid))
        if kind == "drop":
            return Check(p, _product(dropped), False)
        return Check(_trace(p), _trace(_product(dropped)), False)
    if kind == "trace_rotate":
        return Check(_trace(p), _trace(_product(factors[1:] + factors[:1])), True)
    raise ValueError(kind)


SUMS_KINDS = ("regroup", "reorder", "drop", "trace_rotate", "trace_drop")

# Every document holds the same mix: 3 checks under 0.02 s, 7 compositions
# at k = 5 (~0.05 s), where the median falls, and 3 checks of 0.2-0.3 s (a
# trace at k = 5, compositions at k = 6), where the 90th percentile falls.
# The first document also holds a trace at k = 6 (~1 s).  Traces stop at
# k = 6, where the seed took 2.6 s for one at k = 7.
SUMS_DOC = (
    (3, "regroup"), (3, "trace_rotate"), (4, "drop"),
    (5, "regroup"), (5, "reorder"), (5, "drop"), (5, "regroup"), (5, "reorder"),
    (5, "drop"), (5, "regroup"),
    (5, "trace_rotate"), (6, "regroup"), (6, "drop"),
)


def sums_round(seed: int) -> list[Doc]:
    """Two documents: a round of ~5 s, for the same reason as `wide_round`."""
    rng = random.Random(seed)
    plans = [[*SUMS_DOC, (6, "trace_rotate")], list(SUMS_DOC)]
    return [render(f"sums-{d}", [sums_check(rng, k, kind) for k, kind in plan])
            for d, plan in enumerate(plans)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Doc]]
    limit_s: float
    """Per-check time limit; a check over it counts as undecided."""


WORKLOADS = {
    w.name: w for w in (
        Workload("protocols", protocols_round, 10.0),
        Workload("deep", deep_round, 10.0),
        Workload("wide", wide_round, 30.0),
        Workload("sums", sums_round, 30.0),
    )
}
