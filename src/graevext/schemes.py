"""Non-crossing perfect pairings of {1..2n} and their word cost.

A scheme pairs up the indices 1..2n so that any two pair intervals are
disjoint or nested.  Enumeration follows the recursive decomposition:
index 1 pairs with some even-offset partner, and the inside and outside
segments recurse independently.  That generates exactly the non-crossing
family, in lexicographic order of the sorted pair lists, and the count is
the n-th Catalan number.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import CapExceeded, DomainError
from .qpspace import QPSpace, signed_extension
from .words import Letter, Value, Word, check_int

DEFAULT_SCHEME_CAP = 10


class Scheme(Value):
    """A non-crossing perfect pairing, stored as sorted (a, b) pairs of
    ``int`` positions (not ``bool``)."""

    _fields = ("pairs",)

    def __init__(self, pairs) -> None:
        pairs = tuple((a, b) for a, b in pairs)
        if any(type(x) is not int for pair in pairs for x in pair):
            raise DomainError(f"positions must be int, got {pairs!r}")
        pairs = tuple(sorted(pairs))
        problem = _pairing_problem(pairs)
        if problem is not None:
            raise DomainError(f"not a scheme: {problem}")
        object.__setattr__(self, "pairs", pairs)

    @property
    def size(self) -> int:
        return 2 * len(self.pairs)

    def __str__(self) -> str:
        return "".join(f"({a},{b})" for a, b in self.pairs)


def _pairing_problem(pairs: tuple[tuple[int, int], ...]) -> str | None:
    """Why the pairs fail to be a scheme, or None when they are one."""
    indices: list[int] = []
    for a, b in pairs:
        if a >= b:
            return f"pair ({a}, {b}) is not increasing"
        indices.extend((a, b))
    if sorted(indices) != list(range(1, 2 * len(pairs) + 1)):
        return "pairs do not partition 1..2n"
    # sorted pairs with distinct ends have a < c, so only c < b < d crosses
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i + 1:]:
            if c < b < d:
                return f"pairs ({a},{b}) and ({c},{d}) cross"
    return None


def enumerate_schemes(n: int) -> Iterator[Scheme]:
    """Yield every scheme on {1..2n} exactly once, lexicographically."""
    check_int("n", n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if n > DEFAULT_SCHEME_CAP:
        raise CapExceeded(f"n = {n} exceeds the scheme enumeration cap "
                          f"{DEFAULT_SCHEME_CAP}")
    for pairs in _segment_schemes(1, 2 * n):
        yield Scheme(pairs)


def _segment_schemes(lo: int, hi: int) -> Iterator[tuple[tuple[int, int], ...]]:
    if lo > hi:
        yield ()
        return
    for partner in range(lo + 1, hi + 1, 2):
        for inside in _segment_schemes(lo + 1, partner - 1):
            for outside in _segment_schemes(partner + 1, hi):
                yield ((lo, partner),) + inside + outside


def arc_cost(space: QPSpace, u: Letter, v: Letter) -> Fraction:
    """delta(u, v) = (rho(u^-1, v) + rho(v^-1, u)) / 2, the cost of pairing
    the letters u and v; the one place delta is written."""
    return (signed_extension(space, u.inverse(), v)
            + signed_extension(space, v.inverse(), u)) / 2


def pairing_cost(space: QPSpace, word: Word, scheme: Scheme) -> Fraction:
    """Sum of ``arc_cost`` over the letter pairs the scheme matches, so a
    matched mutually inverse pair costs 0."""
    if len(word) != scheme.size:
        raise DomainError(
            f"word length {len(word)} does not match scheme size {scheme.size}")
    return sum((arc_cost(space, word[a - 1], word[b - 1]) for a, b in scheme.pairs),
               Fraction(0))
