"""The three bundled verification diagrams: quantum teleportation,
entanglement swapping and superdense coding.

Each protocol ships as a checkable source file, ``corpus/<name>.ccc`` in
this package, over the generator alphabet b1..b4 playing the four
Bell-base unitaries.  It binds ``lhs``, the claimed collapsed form, and
``rhs``, the stepwise leg of the diagram, and checks them equal.  The
structural isomorphisms in the stepwise leg (associativity, units,
distributivity) are spelled out as their defining composites, so a
verification exercises the full definitions and lets the model collapse
them.  A file is read only when its protocol is asked for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from importlib.resources import files

from . import interp
from . import syntax as sx
from .freegroup import DEFAULT_ALPHABET, Alphabet
from .matcat import MatArrow
from .syntax import Comp, Direct, Gen, GenInv, Id, P, Star, Tens, Term

ALPHABET: Alphabet = DEFAULT_ALPHABET

PROTOCOL_NAMES = ("teleportation", "swap", "superdense")


def ccc_source(name: str) -> str:
    """The protocol as a checkable source file."""
    if name not in PROTOCOL_NAMES:
        raise KeyError(f"unknown protocol {name!r}")
    return (files(__package__) / "corpus" / f"{name}.ccc").read_text(encoding="utf-8")


def legs(name: str) -> tuple[Term, Term]:
    """Left and right legs of a named protocol diagram."""
    lets = sx.parse_document(ccc_source(name)).lets
    return lets["lhs"], lets["rhs"]


def teleportation_legs_perturbed() -> tuple[Term, Term]:
    """Negative control: branch i corrects with the unitary of branch i+1."""
    left, right = legs("teleportation")
    wrong = reduce(Direct, [GenInv(f"b{i % 4 + 1}") for i in range(1, 5)])
    return left, Comp(wrong, right.before)


def entanglement_swap_legs_perturbed() -> tuple[Term, Term]:
    """Negative control: corrections applied with a shifted branch index."""
    left, right = legs("swap")
    qs = Id(Star(P))
    wrong = reduce(Direct, [Tens(Tens(qs, Gen(f"b{i % 4 + 1}")), Tens(qs, GenInv(f"b{i}")))
                            for i in range(1, 5)])
    return left, Comp(wrong, right.before)


@dataclass(frozen=True)
class ProtocolReport:
    name: str
    equal: bool
    common: MatArrow | None
    diff_at: tuple[int, int] | None
    elapsed: float
    legs: tuple[Term, Term]


def verify(name: str) -> ProtocolReport:
    """Parse both legs of a protocol and decide their equality; the report
    keeps the parsed legs."""
    start = time.perf_counter()
    left, right = legs(name)
    verdict = interp.equal(left, right, ALPHABET)
    elapsed = time.perf_counter() - start
    return ProtocolReport(
        name=name,
        equal=verdict.equal,
        common=verdict.value if verdict.equal else None,
        diff_at=verdict.diff_at,
        elapsed=elapsed,
        legs=(left, right),
    )
