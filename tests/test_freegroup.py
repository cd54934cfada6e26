import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobeq import freegroup as fg

from conftest import SEED

letters = st.tuples(st.integers(0, 3), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=12).map(fg.word)


def w(*pairs):
    return fg.word(pairs)


def test_mul_cancellation():
    assert fg.mul(w((0, 1)), w((0, -1))) == fg.E


def test_mul_inner_cancellation():
    gh = w((0, 1), (1, 1))
    hk = w((1, -1), (2, 1))
    assert fg.mul(gh, hk) == w((0, 1), (2, 1))


def test_mul_neutral():
    any_word = w((2, 1), (0, -1))
    assert fg.mul(fg.E, any_word) == any_word
    assert fg.mul(any_word, fg.E) == any_word


def test_inverse_antihomomorphism():
    assert fg.inverse(w((0, 1), (1, 1))) == w((1, -1), (0, -1))
    assert fg.inverse(fg.E) == fg.E
    v = w((0, 1), (1, -1), (0, 1))
    assert fg.inverse(fg.inverse(v)) == v


def test_cyclic_conjugation_collapses():
    # g h g^-1 is conjugate to h
    assert fg.cyclic_canonical(w((0, 1), (1, 1), (0, -1))) == fg.cyclic_canonical(w((1, 1)))


def test_cyclic_of_neutral():
    assert fg.cyclic_canonical(fg.E) == fg.CYCLIC_E


@given(words, words)
def test_cyclic_commutes(a, b):
    assert fg.cyclic_canonical(fg.mul(a, b)) == fg.cyclic_canonical(fg.mul(b, a))


@given(words, words, words)
def test_mul_associative(a, b, c):
    assert fg.mul(fg.mul(a, b), c) == fg.mul(a, fg.mul(b, c))


@given(words)
def test_inverse_involution(a):
    assert fg.inverse(fg.inverse(a)) == a
    assert fg.mul(a, fg.inverse(a)) == fg.E
    assert fg.mul(fg.inverse(a), a) == fg.E


@given(words, words)
def test_inverse_antihom_random(a, b):
    assert fg.inverse(fg.mul(a, b)) == fg.mul(fg.inverse(b), fg.inverse(a))


@given(st.lists(letters, max_size=12), st.lists(letters, max_size=12))
def test_reduction_confluent(raw1, raw2):
    # reducing the pieces first and then the seam agrees with reducing the
    # full concatenation in one pass
    assert fg.mul(fg.word(raw1), fg.word(raw2)) == fg.word(raw1 + raw2)


def test_mul_cancels_at_the_junction_like_full_reduction():
    # v starts with the inverse of a suffix of u, so the product cancels
    # that far into both words; k = len(u) with no tail cancels fully.
    rng = random.Random(SEED)
    for _ in range(300):
        u = fg.word((rng.randrange(4), rng.choice((1, -1))) for _ in range(rng.randrange(12)))
        k = rng.randint(0, len(u.letters))
        tail = [(rng.randrange(4), rng.choice((1, -1))) for _ in range(rng.choice((0, 3)))]
        suffix = fg.GroupWord(u.letters[len(u.letters) - k:])
        v = fg.mul(fg.inverse(suffix), fg.word(tail))
        got = fg.mul(u, v)
        assert got == fg.word(u.letters + v.letters)
        assert fg.GroupWord(got.letters) == got  # the constructor's check passes
        if k == len(u.letters) and not tail:
            assert got == fg.E


def test_unreduced_or_invalid_letters_are_rejected():
    with pytest.raises(ValueError):
        fg.GroupWord(((0, 1), (0, -1)))
    with pytest.raises(ValueError):
        fg.word([(0, 2)])


@given(words, st.integers(0, 11))
def test_cyclic_rotation_invariant(a, k):
    if not a.letters:
        return
    k = k % len(a.letters)
    rotated = fg.word(a.letters[k:] + a.letters[:k])
    assert fg.cyclic_canonical(rotated) == fg.cyclic_canonical(a)


def _closure(letters_seq, max_len=8):
    """All letter sequences reachable by one-step free reductions or
    insertions of canceling pairs, plus rotations; the rotation-reduction
    equivalence class truncated at max_len."""
    seen = set()
    frontier = [tuple(letters_seq)]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        n = len(current)
        if n:
            frontier.append(current[1:] + current[:1])
        for i in range(n - 1):
            g1, e1 = current[i]
            g2, e2 = current[i + 1]
            if g1 == g2 and e1 == -e2:
                frontier.append(current[:i] + current[i + 2:])
        if n + 2 <= max_len:
            for g in range(2):
                for e in (1, -1):
                    for i in range(n + 1):
                        frontier.append(current[:i] + ((g, e), (g, -e)) + current[i:])
    return seen


def test_canonical_matches_bruteforce_closure():
    # on short words over two generators, equal canonical forms coincide
    # with mutual reachability by rotations and reductions
    rng = random.Random(SEED)
    samples = []
    for _ in range(40):
        n = rng.randint(0, 6)
        samples.append(tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(n)))
    closures = {s: _closure(s) for s in samples}
    for s1 in samples:
        c1 = fg.cyclic_canonical(fg.word(s1))
        for s2 in samples:
            c2 = fg.cyclic_canonical(fg.word(s2))
            reachable = s2 in closures[s1] or s1 in closures[s2]
            if c1 == c2:
                assert reachable, (s1, s2)
            else:
                assert tuple(c2.rep.letters) not in closures[s1]


@settings(max_examples=50)
@given(words)
def test_canonical_fixed_point(a):
    c = fg.cyclic_canonical(a)
    assert fg.cyclic_canonical(c.rep) == c


def test_format_word():
    assert fg.format_word(fg.E) == "e"
    assert fg.format_word(w((0, 1), (1, -1))) == "b1·b2^-1"


def test_alphabet_lookup():
    assert fg.DEFAULT_ALPHABET.index("b3") == 2
    try:
        fg.DEFAULT_ALPHABET.index("zz")
        raise AssertionError("expected KeyError")
    except KeyError:
        pass
