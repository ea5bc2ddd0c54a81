"""Word algebra for free and free abelian groups over a finite alphabet.

A letter is a signed generator or the distinguished neutral letter ``e``.
Words are immutable letter sequences; reduction deletes neutral letters and
cancels adjacent mutually inverse letters until a fixed point.  Abelian
elements are kept as generator-to-exponent mappings with zero entries
dropped.  Every operation is a pure function, so values are safe to share
between threads.

Text syntax accepted by the parsers:

* word: whitespace-separated tokens, each ``sym``, ``sym^k`` (k is
  ``-?[0-9]+``, as every typed integer, see ``read_integer``) or ``e``;
* abelian element: either word syntax (exponents summed per generator,
  never expanded into letters) or ``+``/``-`` separated terms such as
  ``-2a + 3b``; ``0`` and ``e`` denote the identity.

Generator symbols must be declared up front; an unknown symbol is a parse
error, never a silent extension of the alphabet.  The symbol ``e`` is
reserved for the neutral letter and cannot be a generator.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Collection, Iterable, Iterator, Mapping

from .errors import DomainError, FormatError

NEUTRAL_TOKEN = "e"

_SYMBOL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"(?P<sym>[A-Za-z][A-Za-z0-9_]*)(?:\^(?P<exp>-?[0-9]+))?\Z")
_TERM_RE = re.compile(r"\s*(?P<sign>[+-])?\s*(?P<coef>[0-9]+)?\s*(?P<sym>[A-Za-z][A-Za-z0-9_]*)\s*")
_INTEGER_RE = re.compile(r"-?[0-9]+")


def validate_symbols(symbols: Iterable[str]) -> tuple[str, ...]:
    """Check a declared alphabet: nonempty, unique, well-formed, no ``e``."""
    out = tuple(symbols)
    if not out:
        raise FormatError("alphabet must contain at least one generator")
    seen = set()
    for sym in out:
        if not isinstance(sym, str) or not _SYMBOL_RE.match(sym):
            raise FormatError(f"bad generator symbol: {sym!r}")
        if sym == NEUTRAL_TOKEN:
            raise FormatError("'e' is reserved for the neutral letter")
        if sym in seen:
            raise FormatError(f"duplicate generator symbol: {sym!r}")
        seen.add(sym)
    return out


def check_generators(space, gens) -> None:
    """Raise ``DomainError`` for the first generator symbol that is not a
    point of ``space`` (a space or an entourage, through its ``index``);
    None, the neutral letter's generator, passes."""
    for gen in gens:
        if gen is not None and gen not in space.index:
            raise DomainError(f"unknown generator {gen!r}")


def check_int(name: str, value) -> None:
    """Raise ``DomainError`` naming the argument ``name`` unless ``value``
    is an ``int`` (not a ``bool``)."""
    if type(value) is not int:
        raise DomainError(f"{name} must be int, got {value!r}")


class Value:
    """Immutable value of the fields named in ``_fields``, one positional
    argument each: equal to a value of its own class with equal fields,
    hashed by them, shown as ``Name(field=value, ...)``.  Assigning and
    deleting raise; ``cached_property`` writes to ``__dict__`` directly."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = property(attrgetter(*cls._fields))

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self._fields))

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r}")

    __delattr__ = __setattr__


class Letter(Value):
    """A signed generator, or the neutral letter when ``gen`` is None."""

    __slots__ = _fields = ("gen", "sign")

    def __init__(self, gen, sign=1) -> None:
        if gen is None:
            if sign != 0:
                raise DomainError("the neutral letter carries no sign")
        elif sign not in (-1, 1):
            raise DomainError(f"letter sign must be +1 or -1, got {sign}")
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "sign", sign)

    def __eq__(self, other):  # written out: the DP's table lookups run it
        return (self.gen == other.gen and self.sign == other.sign
                if other.__class__ is Letter else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.gen, self.sign))

    @classmethod
    def neutral(cls) -> "Letter":
        return cls(None, 0)

    @property
    def is_neutral(self) -> bool:
        return self.gen is None

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    def token(self) -> str:
        if self.gen is None:
            return NEUTRAL_TOKEN
        return self.gen if self.sign > 0 else f"{self.gen}^-1"

    def __str__(self) -> str:
        return self.token()


class Word(Value):
    """A finite sequence of letters; the empty word is the group identity."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters=()) -> None:
        letters = tuple(letters)
        if any(not isinstance(l, Letter) for l in letters):
            raise DomainError("words are built from Letter values")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(l.inverse() for l in reversed(self.letters)))

    def reduce(self) -> "Word":
        """Unique reduced form: neutral letters deleted, adjacent mutually
        inverse letters cancelled, in one left-to-right stack pass."""
        stack: list[Letter] = []
        for letter in self.letters:
            if letter.is_neutral:
                continue
            if stack and stack[-1] == letter.inverse():
                stack.pop()
            else:
                stack.append(letter)
        return Word(tuple(stack))

    def reduced_length(self) -> int:
        return len(self.reduce())

    def tokens(self) -> list[str]:
        return [l.token() for l in self.letters]

    def __str__(self) -> str:
        return " ".join(self.tokens()) if self.letters else NEUTRAL_TOKEN


def _run(gen: str, k: int) -> list[Letter]:
    """The letters of ``gen^k``: |k| references to one letter, whose sign
    is that of k."""
    return [Letter(gen, 1 if k > 0 else -1)] * abs(k)


class AbelianWord(Value):
    """Element of the free abelian group: sorted (generator, exponent)
    terms with all exponents nonzero ``int`` values (not ``bool``); the
    identity has no terms."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms=()) -> None:
        terms = tuple((g, m) for g, m in terms)
        for _, m in terms:
            if type(m) is not int:
                raise DomainError(f"exponents must be int, got {m!r}")
        gens = [g for g, _ in terms]
        if gens != sorted(gens) or len(set(gens)) != len(gens):
            raise DomainError("terms must be sorted by generator and unique")
        if any(m == 0 for _, m in terms):
            raise DomainError("zero exponents must be dropped")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, int]) -> "AbelianWord":
        return cls(tuple(sorted((g, m) for g, m in mapping.items() if m != 0)))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[str, int]]) -> "AbelianWord":
        """The sum of (generator, exponent) terms, repeats allowed."""
        counts: dict[str, int] = {}
        for gen, m in terms:
            counts[gen] = counts.get(gen, 0) + m
        return cls.from_mapping(counts)

    @property
    def is_identity(self) -> bool:
        return not self.terms

    def generators(self) -> tuple[str, ...]:
        return tuple(g for g, _ in self.terms)

    def length(self) -> int:
        return sum(abs(m) for _, m in self.terms)

    def coefficient_sum(self) -> int:
        return sum(m for _, m in self.terms)

    def letters(self) -> tuple[Letter, ...]:
        """The multiset of signed letters, in term order."""
        out: list[Letter] = []
        for gen, m in self.terms:
            out += _run(gen, m)
        return tuple(out)

    def __add__(self, other: "AbelianWord") -> "AbelianWord":
        return AbelianWord.from_terms(self.terms + other.terms)

    def __neg__(self) -> "AbelianWord":
        return AbelianWord(tuple((g, -m) for g, m in self.terms))

    def __sub__(self, other: "AbelianWord") -> "AbelianWord":
        return self + (-other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (gen, m) in enumerate(self.terms):
            mag = "" if abs(m) == 1 else str(abs(m))
            if i == 0:
                parts.append(("-" if m < 0 else "") + mag + gen)
            else:
                parts.append(("- " if m < 0 else "+ ") + mag + gen)
        return " ".join(parts)


def read_integer(text: str) -> int:
    """The integer ``-?[0-9]+`` that ``text`` writes, whitespace around it
    allowed; other text, or digits past Python's limit, is a ``FormatError``."""
    digits = text.strip()
    if _INTEGER_RE.fullmatch(digits) is None:
        raise FormatError(f"not an integer: {text!r}")
    try:
        return int(digits)
    except ValueError as exc:
        raise FormatError(f"integer of {len(digits)} digits is too long") from exc


def _word_tokens(text: str, symbols: set[str]) -> Iterator[tuple[str | None, int]]:
    """The tokens of word syntax as (generator, exponent) pairs, with
    (None, 0) for the neutral letter; nothing is expanded."""
    for tok in text.split():
        if tok == NEUTRAL_TOKEN:
            yield None, 0
            continue
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise FormatError(f"bad word token: {tok!r}")
        sym, exp = m.group("sym"), m.group("exp")
        if sym == NEUTRAL_TOKEN:
            raise FormatError("the neutral letter takes no exponent")
        if sym not in symbols:
            raise FormatError(f"unknown generator {sym!r}")
        yield sym, 1 if exp is None else read_integer(exp)


def parse_word(text: str, alphabet: Collection[str]) -> Word:
    """Parse word syntax against a declared alphabet."""
    symbols = set(validate_symbols(alphabet))
    letters: list[Letter] = []
    for sym, k in _word_tokens(text, symbols):
        if sym is None:
            letters.append(Letter.neutral())
        else:
            letters += _run(sym, k)
    return Word(tuple(letters))


def parse_abelian(text: str, alphabet: Collection[str]) -> AbelianWord:
    """Parse an abelian element, accepting term syntax or word syntax.

    Word syntax adds each exponent to its generator's count, so ``a^k``
    costs the same for every k.
    """
    symbols = set(validate_symbols(alphabet))
    stripped = text.strip()
    if stripped in ("", "0", NEUTRAL_TOKEN):
        return AbelianWord()
    if "^" not in stripped:
        parsed = _parse_terms(stripped, symbols)
        if parsed is not None:
            return parsed
    return AbelianWord.from_terms((sym, k) for sym, k in _word_tokens(text, symbols)
                                  if sym is not None)


def _parse_terms(text: str, symbols: set[str]) -> AbelianWord | None:
    """Term syntax like ``-2a + 3b``; None when the text is not term-shaped."""
    terms: list[tuple[str, int]] = []
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            return None
        sign_tok, coef_tok, sym = m.group("sign"), m.group("coef"), m.group("sym")
        if sign_tok is None and not first:
            return None
        pos = m.end()
        first = False
        coef = 1 if coef_tok is None else read_integer(coef_tok)
        if sign_tok == "-":
            coef = -coef
        if sym == NEUTRAL_TOKEN:
            continue
        if sym not in symbols:
            raise FormatError(f"unknown generator {sym!r}")
        terms.append((sym, coef))
    return AbelianWord.from_terms(terms)
