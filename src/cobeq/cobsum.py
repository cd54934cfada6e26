"""Formal sums of cobordisms: finite multisets of equally typed members.

A multiset does not store its type: the row and column objects of the
matrix that holds it fix that.  Every member of a nonempty multiset has the
same type; the empty multiset ``ZERO`` is the zero arrow of every type.
Addition is multiset union, composition and tensor act on all pairs of
members, so cardinalities multiply.  Multiplicities are plain non-negative
integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cobordism as cob
from .cobordism import GCob, ObjectSeq, TypeMismatch
from .freegroup import Alphabet, DEFAULT_ALPHABET


@dataclass(frozen=True)
class CobSum:
    terms: tuple[tuple[GCob, int], ...]


ZERO = CobSum(())


def cobsum(members) -> CobSum:
    """Multiset of cobordisms; members is an iterable of GCob or
    (GCob, multiplicity) pairs, all of one type."""
    counts: dict[GCob, int] = {}
    first = None
    for member in members:
        g, k = member if isinstance(member, tuple) else (member, 1)
        if k < 0:
            raise ValueError("multiplicities are non-negative")
        if k == 0:
            continue
        if first is None:
            first = g
        elif g.src != first.src or g.tgt != first.tgt:
            raise TypeMismatch(f"member typed {g.src}->{g.tgt}, "
                               f"expected {first.src}->{first.tgt}")
        counts[g] = counts.get(g, 0) + k
    if not counts:
        return ZERO
    return CobSum(tuple(sorted(counts.items(), key=lambda kv: cob.sort_key(kv[0]))))


def single(g: GCob) -> CobSum:
    return cobsum([g])


def is_zero(x: CobSum) -> bool:
    return not x.terms


def size(x: CobSum) -> int:
    """Cardinality of the multiset, counting multiplicities."""
    return sum(k for _, k in x.terms)


def add(x: CobSum, y: CobSum) -> CobSum:
    if not x.terms:
        return y
    if not y.terms:
        return x
    return cobsum(x.terms + y.terms)


def compose(after: CobSum, before: CobSum) -> CobSum:
    """All pairwise gluings ``after o before`` of the members."""
    return cobsum([(cob.compose(ga, gb), ka * kb)
                   for ga, ka in after.terms for gb, kb in before.terms])


def tensor(x: CobSum, y: CobSum) -> CobSum:
    return cobsum([(cob.tensor(g1, g2), k1 * k2)
                   for g1, k1 in x.terms for g2, k2 in y.terms])


def dagger(x: CobSum) -> CobSum:
    return cobsum([(cob.dagger(g), k) for g, k in x.terms])


def star(x: CobSum) -> CobSum:
    """Elementwise transpose: members a -> b become b* -> a*."""
    return cobsum([(cob.transpose_star(g), k) for g, k in x.terms])


def to_jsonable(x: CobSum, src: ObjectSeq, tgt: ObjectSeq,
                alphabet: Alphabet = DEFAULT_ALPHABET) -> dict:
    """JSON form of x as an entry typed src -> tgt."""
    return {
        "src": ["+" if s == cob.PLUS else "-" for s in src],
        "tgt": ["+" if s == cob.PLUS else "-" for s in tgt],
        "terms": [
            {"cobordism": cob.to_jsonable(g, alphabet), "multiplicity": k}
            for g, k in x.terms
        ],
    }
