import random
from fractions import Fraction

import pytest

from graevext import (CapExceeded, DomainError, QPSpace, Scheme,
                      enumerate_schemes, pairing_cost, parse_word)
from .conftest import random_qpspace, random_reduced_word
from .oracles import gamma_by_formula, noncrossing_pairings

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_single_pair():
    assert [s.pairs for s in enumerate_schemes(1)] == [((1, 2),)]


def test_two_pairs_excludes_crossing():
    got = [s.pairs for s in enumerate_schemes(2)]
    assert got == [(((1, 2)), (3, 4)), ((1, 4), (2, 3))]
    assert ((1, 3), (2, 4)) not in got


def test_counts_match_catalan():
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_schemes(n)) == CATALAN[n]


def test_matches_brute_force_filter():
    for n in range(1, 5):
        expected = sorted(tuple(sorted(tuple(sorted(pair)) for pair in pairing))
                          for pairing in noncrossing_pairings(n))
        got = [s.pairs for s in enumerate_schemes(n)]
        assert sorted(got) == expected
        assert len(set(got)) == len(got)


def test_emitted_in_lexicographic_order():
    for n in range(1, 6):
        pairs = [s.pairs for s in enumerate_schemes(n)]
        assert pairs == sorted(pairs)


def test_enumeration_is_deterministic():
    assert list(enumerate_schemes(4)) == list(enumerate_schemes(4))


def test_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_schemes(11))
    with pytest.raises(DomainError):
        list(enumerate_schemes(0))


@pytest.mark.parametrize("pairs,expected", [
    ([(1, 3), (2, 4)], False),
    ([(1, 4), (2, 3)], True),
    ([(1, 2), (2, 3)], False),
    ([(1, 2), (3, 4)], True),
    ([(2, 1)], False),
    ([], True),
])
def test_is_scheme(pairs, expected):
    if expected:
        assert Scheme(pairs).pairs == tuple(sorted(pairs))
    else:
        with pytest.raises(DomainError, match="not a scheme"):
            Scheme(pairs)


def test_scheme_constructor_validates():
    with pytest.raises(DomainError):
        Scheme(((1, 3), (2, 4)))
    scheme = Scheme(((3, 4), (1, 2)))
    assert scheme.pairs == ((1, 2), (3, 4))
    assert str(scheme) == "(1,2)(3,4)"


@pytest.mark.parametrize("pairs", [((1.7, "2"),), ((True, 2),), ((1, 2.0),),
                                   ((1, Fraction(2)),)])
def test_scheme_takes_int_positions_only(pairs):
    """No position is converted into another: ``int()`` would read each
    of these as the pair (1, 2)."""
    with pytest.raises(DomainError, match="positions must be int"):
        Scheme(pairs)


def test_cost_examples(two_point_space):
    sp = two_point_space
    word = parse_word("a b^-1", sp.points)
    assert pairing_cost(sp, word, Scheme(((1, 2),))) == Fraction(1, 2)
    word = parse_word("a a^-1", sp.points)
    assert pairing_cost(sp, word, Scheme(((1, 2),))) == 0
    word = parse_word("a e", sp.points)
    assert pairing_cost(sp, word, Scheme(((1, 2),))) == 1


def test_cost_length_mismatch(two_point_space):
    with pytest.raises(DomainError):
        pairing_cost(two_point_space, parse_word("a", two_point_space.points),
                     Scheme(((1, 2),)))


def test_cost_non_negative_and_zero_on_matched_inverses(two_point_space):
    sp = two_point_space
    rng = random.Random(31)
    for _ in range(50):
        word = random_reduced_word(rng, sp.points, 4, min_len=1)
        doubled = word * word.inverse()
        n = len(doubled) // 2
        nested = Scheme(tuple((i, 2 * n + 1 - i) for i in range(1, n + 1)))
        assert pairing_cost(sp, doubled, nested) == 0
        for scheme in enumerate_schemes(n):
            assert pairing_cost(sp, doubled, scheme) >= 0


def test_cost_agrees_with_formula_oracle():
    rng = random.Random(37)
    for _ in range(20):
        sp = random_qpspace(rng, 3)
        word = random_reduced_word(rng, sp.points, 4, min_len=2)
        if len(word) % 2:
            word = word * random_reduced_word(rng, sp.points, 1, min_len=1)
        n = len(word) // 2
        pairings = list(noncrossing_pairings(n))
        for scheme in enumerate_schemes(n):
            normalized = tuple(sorted(tuple(sorted(p)) for p in scheme.pairs))
            assert normalized in {tuple(sorted(tuple(sorted(q)) for q in p))
                                  for p in pairings}
            assert pairing_cost(sp, word, scheme) == \
                gamma_by_formula(sp, word.letters, scheme.pairs)


def test_cost_invariant_under_metric_preserving_relabeling(two_point_space):
    sp = two_point_space
    relabeled = QPSpace(("u", "v"), sp.dist)
    mapping = {"a": "u", "b": "v"}
    for text in ("a b^-1", "a b a^-1 b", "a e b^-1 a"):
        word = parse_word(text, sp.points)
        image = parse_word(" ".join(
            tok if tok == "e" else mapping[tok[0]] + tok[1:]
            for tok in text.split()), relabeled.points)
        for scheme in enumerate_schemes(len(word) // 2):
            assert pairing_cost(sp, word, scheme) == \
                pairing_cost(relabeled, image, scheme)
