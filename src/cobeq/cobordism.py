"""Group-labeled 1-dimensional cobordisms.

A cobordism from a sign sequence ``src`` to a sign sequence ``tgt`` is a set
of directed labeled segments pairing up the boundary points, plus a multiset
of labeled circles.  Values are immutable and stored in a canonical order,
so structural equality decides equivalence of cobordisms.

Direction convention: a segment runs from its initial point to its terminal
point.  Initial points are source points signed ``+`` or target points
signed ``-`` (the source embedding preserves orientation, the target
embedding reverses it); terminal points are the complementary ones.
Composition glues at the shared boundary and always traverses segments
along their direction, multiplying labels later-on-the-left.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freegroup import (
    E,
    Alphabet,
    CyclicWord,
    DEFAULT_ALPHABET,
    GroupWord,
    cyclic_canonical,
    cyclic_inverse,
    format_word,
    inverse,
    mul,
)

PLUS = 1
MINUS = -1

ObjectSeq = tuple[int, ...]

O: ObjectSeq = ()

SRC = "s"
TGT = "t"

Point = tuple[str, int]


class TypeMismatch(ValueError):
    """Raised when arrows are combined at incompatible objects."""


def seq(signs: str) -> ObjectSeq:
    """Sign sequence from a string over '+' and '-'."""
    table = {"+": PLUS, "-": MINUS}
    return tuple(table[ch] for ch in signs)


def dual_object(a: ObjectSeq) -> ObjectSeq:
    """Reversed sequence with flipped signs; an involution."""
    return tuple(-s for s in reversed(a))


@dataclass(frozen=True)
class Segment:
    start: Point
    end: Point
    label: GroupWord


@dataclass(frozen=True)
class GCob:
    src: ObjectSeq
    tgt: ObjectSeq
    segments: tuple[Segment, ...]
    circles: tuple[CyclicWord, ...]


def _is_initial(src: ObjectSeq, tgt: ObjectSeq, point: Point) -> bool:
    side, i = point
    signs = src if side == SRC else tgt
    if not 0 <= i < len(signs):
        raise ValueError(f"boundary point {point} out of range")
    return signs[i] == (PLUS if side == SRC else MINUS)


def gcob(src, tgt, segments, circles=()) -> GCob:
    """Canonical cobordism value; validates the boundary matching."""
    src = tuple(src)
    tgt = tuple(tgt)
    segs = tuple(segments)
    seen: set[Point] = set()
    for s in segs:
        for p in (s.start, s.end):
            if p in seen:
                raise ValueError(f"boundary point {p} used twice")
            seen.add(p)
        if not _is_initial(src, tgt, s.start):
            raise ValueError(f"segment may not start at {s.start}")
        if _is_initial(src, tgt, s.end):
            raise ValueError(f"segment may not end at {s.end}")
    expected = len(src) + len(tgt)
    if len(seen) != expected:
        raise ValueError("segments must cover every boundary point exactly once")
    segs = tuple(sorted(segs, key=lambda s: s.start))
    circs = tuple(sorted(circles, key=lambda c: c.rep.letters))
    return GCob(src, tgt, segs, circs)


def _wire(src: ObjectSeq, tgt: ObjectSeq, p: Point, q: Point) -> Segment:
    """The segment labelled e joining boundary points p and q, run from
    whichever of them is initial."""
    return Segment(p, q, E) if _is_initial(src, tgt, p) else Segment(q, p, E)


def identity(a: ObjectSeq) -> GCob:
    return permutation(a, range(len(a)))


def circle(label: GroupWord | CyclicWord) -> GCob:
    """Closed scalar cobordism o -> o carrying one labeled circle."""
    if isinstance(label, GroupWord):
        label = cyclic_canonical(label)
    return gcob(O, O, (), (label,))


def compose(after: GCob, before: GCob) -> GCob:
    """The composite after o before: glue before: a -> b with after: b -> c
    along b, yielding a -> c.

    Chains of segments become one segment whose label is the product of the
    glued labels, later factor on the left; chains that close up become
    circles in their cyclic normal form.
    """
    if before.tgt != after.src:
        raise TypeMismatch(f"cannot glue {before.tgt} with {after.src}")

    def before_node(p: Point):
        return ("a", p[1]) if p[0] == SRC else ("m", p[1])

    def after_node(p: Point):
        return ("m", p[1]) if p[0] == SRC else ("c", p[1])

    edges: dict[tuple, tuple[tuple, GroupWord]] = {}
    for s in before.segments:
        edges[before_node(s.start)] = (before_node(s.end), s.label)
    for s in after.segments:
        edges[after_node(s.start)] = (after_node(s.end), s.label)

    starts = [("a", i) for i, sign in enumerate(before.src) if sign == PLUS]
    starts += [("c", i) for i, sign in enumerate(after.tgt) if sign == MINUS]

    def boundary_point(node) -> Point:
        kind, i = node
        return (SRC, i) if kind == "a" else (TGT, i)

    visited: set[tuple] = set()
    segments = []
    for n0 in starts:
        label = E
        node = n0
        while True:
            visited.add(node)
            node, step = edges[node]
            label = mul(step, label)
            if node[0] != "m":
                break
        segments.append(Segment(boundary_point(n0), boundary_point(node), label))

    circles = list(before.circles) + list(after.circles)
    for n0 in edges:
        if n0 in visited or n0[0] != "m":
            continue
        label = E
        node = n0
        while True:
            visited.add(node)
            node, step = edges[node]
            label = mul(step, label)
            if node == n0:
                break
        circles.append(cyclic_canonical(label))

    return gcob(before.src, after.tgt, segments, circles)


def tensor(f: GCob, g: GCob) -> GCob:
    """Place f and g side by side."""
    dn, dm = len(f.src), len(f.tgt)

    def shift(p: Point) -> Point:
        side, i = p
        return (side, i + (dn if side == SRC else dm))

    segs = list(f.segments)
    segs += [Segment(shift(s.start), shift(s.end), s.label) for s in g.segments]
    return gcob(f.src + g.src, f.tgt + g.tgt, segs, f.circles + g.circles)


def dagger(f: GCob) -> GCob:
    """Reverse the orientation: swap boundary roles and invert all labels."""

    def flip(p: Point) -> Point:
        side, i = p
        return (TGT if side == SRC else SRC, i)

    segs = [Segment(flip(s.end), flip(s.start), inverse(s.label)) for s in f.segments]
    circs = [cyclic_inverse(c) for c in f.circles]
    return gcob(f.tgt, f.src, segs, circs)


def eta(a: ObjectSeq) -> GCob:
    """Unit o -> a* (x) a: nested arcs pairing a*-position i with a-position
    len(a)-1-i, all labeled e."""
    n = len(a)
    tgt = dual_object(a) + a
    return gcob(O, tgt, [_wire(O, tgt, (TGT, i), (TGT, 2 * n - 1 - i)) for i in range(n)])


def eps(a: ObjectSeq) -> GCob:
    """Counit a (x) a* -> o, mirror image of eta."""
    n = len(a)
    src = a + dual_object(a)
    return gcob(src, O, [_wire(src, O, (SRC, i), (SRC, 2 * n - 1 - i)) for i in range(n)])


def transpose_star(f: GCob) -> GCob:
    """The transpose f*: b* -> a*, keeping labels and directions."""
    n, m = len(f.src), len(f.tgt)

    def move(p: Point) -> Point:
        side, i = p
        return (TGT, n - 1 - i) if side == SRC else (SRC, m - 1 - i)

    segs = [Segment(move(s.start), move(s.end), s.label) for s in f.segments]
    return gcob(dual_object(f.tgt), dual_object(f.src), segs, f.circles)


def permutation(a: ObjectSeq, perm) -> GCob:
    """Permutation cobordism sending source position i to target perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(len(a))):
        raise ValueError(f"{perm} is not a permutation of {len(a)} positions")
    tgt = [0] * len(a)
    for i, k in enumerate(perm):
        tgt[k] = a[i]
    tgt = tuple(tgt)
    return gcob(a, tgt, [_wire(a, tgt, (SRC, i), (TGT, k)) for i, k in enumerate(perm)])


def sigma(a: ObjectSeq, b: ObjectSeq) -> GCob:
    """Symmetry a (x) b -> b (x) a."""
    n, m = len(a), len(b)
    return permutation(a + b, [*range(m, m + n), *range(m)])


def sort_key(f: GCob):
    """Total order on canonical cobordisms, used to store multisets."""
    return (
        f.src,
        f.tgt,
        tuple((s.start, s.end, s.label.letters) for s in f.segments),
        tuple(c.rep.letters for c in f.circles),
    )


def to_jsonable(f: GCob, alphabet: Alphabet = DEFAULT_ALPHABET) -> dict:
    sides = {SRC: "src", TGT: "tgt"}
    return {
        "src": ["+" if s == PLUS else "-" for s in f.src],
        "tgt": ["+" if s == PLUS else "-" for s in f.tgt],
        "segments": [
            {
                "from": [sides[s.start[0]], s.start[1]],
                "to": [sides[s.end[0]], s.end[1]],
                "label": format_word(s.label, alphabet),
            }
            for s in f.segments
        ],
        "circles": [format_word(c.rep, alphabet) for c in f.circles],
    }
