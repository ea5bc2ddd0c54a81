import random
import tracemalloc
from fractions import Fraction

import pytest

from graevext import (AbelianWord, DomainError, FormatError, Letter, Word,
                      parse_abelian, parse_word)
from graevext.words import read_integer
from .conftest import random_reduced_word
from .oracles import almost_irreducible, scan_reduce

AB = ("a", "b")


def W(text: str) -> Word:
    return parse_word(text, AB)


def test_letter_basics():
    a = Letter("a", 1)
    assert a.inverse() == Letter("a", -1)
    assert a.inverse().inverse() == a
    e = Letter.neutral()
    assert e.inverse() == e and e.is_neutral
    assert str(a) == "a" and str(a.inverse()) == "a^-1" and str(e) == "e"
    with pytest.raises(DomainError):
        Letter("a", 2)
    with pytest.raises(DomainError):
        Letter(None, 1)


@pytest.mark.parametrize("text,expected", [
    ("a a^-1", ""),
    ("a e b", "a b"),
    ("a b b^-1 a", "a a"),
    ("a^-1 a a a^-1", ""),
    ("e e", ""),
])
def test_reduce_examples(text, expected):
    assert W(text).reduce() == W(expected)
    assert scan_reduce(W(text)) == W(expected)


def test_reduce_counts_all_letters():
    word = W("a e b")
    assert len(word) == 3
    assert word.reduced_length() == 2


@pytest.mark.parametrize("text,expected", [
    ("a b a^-1", {"b": 1}),
    ("a e a", {"a": 2}),
    ("a^-1 b a^-1 b", {"a": -2, "b": 2}),
])
def test_abelianize(text, expected):
    assert W(text).abelianize() == AbelianWord.from_mapping(expected)


def test_product_and_inverse():
    assert (W("a") * W("a^-1")).reduce() == Word()
    assert W("a b").inverse() == W("b^-1 a^-1")
    assert Word().inverse() == Word()


@pytest.mark.parametrize("text,n,expected", [
    ("a b", 2, True),
    ("a b", 1, False),
    ("a a^-1 b", 1, True),
])
def test_length_ball(text, n, expected):
    assert (W(text).reduced_length() <= n) is expected


def test_reduce_invariants_random():
    rng = random.Random(11)
    letters = [Letter("a", 1), Letter("a", -1), Letter("b", 1),
               Letter("b", -1), Letter.neutral()]
    for _ in range(300):
        word = Word(tuple(rng.choice(letters)
                          for _ in range(rng.randint(0, 12))))
        reduced = word.reduce()
        assert reduced.reduce() == reduced
        assert reduced == scan_reduce(word)
        assert reduced.abelianize() == word.abelianize()
        assert len(reduced) <= len(word)
        non_neutral = sum(1 for l in word if not l.is_neutral)
        assert (non_neutral - len(reduced)) % 2 == 0


def test_abelianize_is_homomorphism():
    rng = random.Random(13)
    for _ in range(100):
        u = random_reduced_word(rng, AB, 6)
        v = random_reduced_word(rng, AB, 6)
        assert (u * v).abelianize() == u.abelianize() + v.abelianize()


def test_almost_irreducible_filter():
    assert almost_irreducible(W("a e a^-1"))
    assert almost_irreducible(W("e e"))
    assert not almost_irreducible(W("a a^-1"))
    assert not almost_irreducible(W("b^-1 b"))


def test_parse_word_syntax():
    assert W("a^3") == W("a a a")
    assert W("a^-2") == W("a^-1 a^-1")
    assert W("a^0") == Word()
    assert W("") == Word()
    assert W("e") == Word((Letter.neutral(),))
    with pytest.raises(FormatError):
        parse_word("c", AB)
    with pytest.raises(FormatError):
        parse_word("a^x", AB)
    with pytest.raises(FormatError):
        parse_word("e^2", AB)


def test_alphabet_validation():
    with pytest.raises(FormatError):
        parse_word("a", ())
    with pytest.raises(FormatError):
        parse_word("a", ("a", "a"))
    with pytest.raises(FormatError):
        parse_word("a", ("a", "e"))


def test_abelian_word_arithmetic():
    g = AbelianWord.from_mapping({"a": 2, "b": -1})
    h = AbelianWord.from_mapping({"a": -2, "b": 3})
    assert g + h == AbelianWord.from_mapping({"b": 2})
    assert g - g == AbelianWord()
    assert g.length() == 3 and g.coefficient_sum() == 1
    assert -g == AbelianWord.from_mapping({"a": -2, "b": 1})
    assert [str(l) for l in g.letters()] == ["a", "a", "b^-1"]


@pytest.mark.parametrize("text,mapping", [
    ("-2a + 3b", {"a": -2, "b": 3}),
    ("2a", {"a": 2}),
    ("a - b", {"a": 1, "b": -1}),
    ("-a", {"a": -1}),
    ("0", {}),
    ("e", {}),
    ("a b^-1", {"a": 1, "b": -1}),
    ("a^2 b", {"a": 2, "b": 1}),
    ("2a - 2a", {}),
])
def test_parse_abelian(text, mapping):
    assert parse_abelian(text, AB) == AbelianWord.from_mapping(mapping)


def test_parse_abelian_keeps_exponents_whole():
    tracemalloc.start()
    try:
        g = parse_abelian("a^100000 b^-3", AB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == AbelianWord.from_mapping({"a": 100000, "b": -3})
    assert peak < 1_000_000, f"parsing peaked at {peak} bytes"


def test_parse_abelian_rejects_unknown():
    with pytest.raises(FormatError):
        parse_abelian("2c", AB)


@pytest.mark.parametrize("text,mapping", [
    ("a b", {"a": 1, "b": 1}),
    ("b a a", {"a": 2, "b": 1}),
    ("e + a", {"a": 1}),
    ("2b - e", {"b": 2}),
])
def test_parse_abelian_word_syntax_and_neutral_terms(text, mapping):
    """Text with no ``^`` that is not term-shaped is read as word syntax;
    an ``e`` term adds nothing."""
    assert parse_abelian(text, AB) == AbelianWord.from_mapping(mapping)


def test_parse_abelian_refuses_text_of_neither_syntax():
    with pytest.raises(FormatError):
        parse_abelian("a*b", AB)


@pytest.mark.parametrize("text,value", [
    ("7", 7), (" 7 ", 7), ("-3", -3), ("007", 7), ("\t-0\n", 0),
])
def test_read_integer(text, value):
    assert read_integer(text) == value


@pytest.mark.parametrize("text", [
    "+3", "1_0", "\u0663", "\uff13", "", " ", "-", "--3", "- 3", "3.0", "1e3",
    "0x10", "3 4", "3,",
])
def test_read_integer_takes_only_ascii_digits(text):
    with pytest.raises(FormatError) as info:
        read_integer(text)
    assert str(info.value) == f"not an integer: {text!r}"


def test_read_integer_past_the_digit_limit():
    with pytest.raises(FormatError) as info:
        read_integer("-" + "9" * 5000)
    assert str(info.value) == "integer of 5001 digits is too long"


@pytest.mark.parametrize("text", ["a^\u0663", "\u0663a", "a^\uff13 b", "-\u0663a"])
def test_exponents_are_ascii_digits(text):
    """A digit that is not ASCII is refused in both syntaxes."""
    with pytest.raises(FormatError):
        parse_word(text, AB)
    with pytest.raises(FormatError):
        parse_abelian(text, AB)


def test_word_takes_only_letters():
    with pytest.raises(DomainError):
        Word(("a",))


@pytest.mark.parametrize("terms", [
    (("b", 1), ("a", 1)), (("a", 1), ("a", 2)), (("a", 0),),
])
def test_abelian_terms_sorted_unique_nonzero(terms):
    with pytest.raises(DomainError):
        AbelianWord(terms)


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", True, None, Fraction(2)])
def test_abelian_exponents_are_ints(bad):
    """An exponent is an ``int``: no other value is truncated or parsed
    into one."""
    with pytest.raises(DomainError) as info:
        AbelianWord((("a", bad),))
    assert str(info.value) == f"exponents must be int, got {bad!r}"
    with pytest.raises(DomainError):
        AbelianWord.from_mapping({"a": bad})
    assert AbelianWord.from_mapping({"a": 3}).terms == (("a", 3),)


def test_abelian_str_round_trip():
    for mapping in ({"a": -2, "b": 3}, {"a": 1}, {"b": -1}, {}):
        g = AbelianWord.from_mapping(mapping)
        assert parse_abelian(str(g), AB) == g


def test_word_str_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        word = random_reduced_word(rng, AB, 6)
        assert parse_word(str(word), AB).reduce() == word
