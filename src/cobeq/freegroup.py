"""Free group on a finite generator alphabet.

Words are tuples of (generator index, exponent) letters with exponent +1 or
-1, kept freely reduced at all times.  Circle labels live in conjugacy
classes, whose normal form is the cyclic reduction followed by the
lexicographically least rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Letter = tuple[int, int]


@dataclass(frozen=True)
class Alphabet:
    """Generator names declared up front and fixed for a session."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"undeclared generator {name!r}") from None

    def name(self, index: int) -> str:
        return self.names[index]


DEFAULT_ALPHABET = Alphabet(("b1", "b2", "b3", "b4"))


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError(f"exponent must be +1 or -1, got {e}")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word; the empty tuple is the neutral element e."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        for (g1, e1), (g2, e2) in zip(self.letters, self.letters[1:]):
            if g1 == g2 and e1 == -e2:
                raise ValueError("word is not freely reduced; build via word()")


E = GroupWord()


def _reduced(letters: tuple[Letter, ...]) -> GroupWord:
    """Wrap letters that are freely reduced by construction, skipping the
    letter-by-letter check of ``GroupWord(...)``."""
    w = object.__new__(GroupWord)
    object.__setattr__(w, "letters", letters)
    return w


def word(letters: Iterable[Letter]) -> GroupWord:
    """Build a word from raw letters, freely reducing them."""
    return _reduced(_reduce(letters))


def gen(index: int, exponent: int = 1) -> GroupWord:
    return word([(index, exponent)])


def mul(w1: GroupWord, w2: GroupWord) -> GroupWord:
    """Product w1*w2 in the free group.

    Both factors are reduced, so letters can cancel only where they meet:
    the cost is that of the cancellation plus one concatenation.
    """
    a, b = w1.letters, w2.letters
    if not a:
        return w2
    if not b:
        return w1
    n = 0
    limit = min(len(a), len(b))
    while n < limit:
        (g1, e1), (g2, e2) = a[-1 - n], b[n]
        if g1 != g2 or e1 != -e2:
            break
        n += 1
    return _reduced(a[:len(a) - n] + b[n:])


def inverse(w: GroupWord) -> GroupWord:
    return _reduced(tuple((g, -e) for g, e in reversed(w.letters)))


def _letter_key(letter: Letter) -> tuple[int, int]:
    g, e = letter
    return (g, 0 if e > 0 else 1)


@dataclass(frozen=True)
class CyclicWord:
    """Conjugacy-class normal form: cyclically reduced, least rotation."""

    rep: GroupWord


CYCLIC_E = CyclicWord(E)


def cyclic_canonical(w: GroupWord) -> CyclicWord:
    """Normal form of w's conjugacy class.

    Invariant under rotation of the letter sequence and under free
    reduction, so it identifies circle labels that differ by a circular
    permutation of their factors.
    """
    ls = list(w.letters)
    while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
        ls = ls[1:-1]
    if not ls:
        return CYCLIC_E
    rotations = (tuple(ls[i:] + ls[:i]) for i in range(len(ls)))
    best = min(rotations, key=lambda rot: [_letter_key(x) for x in rot])
    # Every rotation of a cyclically reduced word is reduced.
    return CyclicWord(_reduced(best))


def cyclic_inverse(c: CyclicWord) -> CyclicWord:
    return cyclic_canonical(inverse(c.rep))


def format_word(w: GroupWord, alphabet: Alphabet = DEFAULT_ALPHABET) -> str:
    if not w.letters:
        return "e"
    parts = []
    for g, e in w.letters:
        name = alphabet.name(g)
        parts.append(name if e > 0 else name + "^-1")
    return "·".join(parts)
