import random
from fractions import Fraction
from pathlib import Path

import pytest

from graevext import (AbelianWord, DomainError, Entourage, EntourageSequence,
                      FiniteSpace, Letter, QPSpace, Word, frink_metric,
                      load_space, universal_base)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def two_point_space() -> QPSpace:
    return load_space(DATA / "two_point.json")


def random_qpspace(rng: random.Random, n_points: int, denom: int = 16) -> QPSpace:
    """Random valid quasi-pseudometric bounded by 1: random rational entries
    followed by a min-plus closure, which enforces the triangle inequality
    without raising any entry."""
    points = tuple("abcdfg"[:n_points])
    m = [[Fraction(rng.randint(0, denom), denom) for _ in range(n_points)]
         for _ in range(n_points)]
    for i in range(n_points):
        m[i][i] = Fraction(0)
    min_plus_close(m)
    space = QPSpace(points, tuple(tuple(row) for row in m))
    assert not space.validate(require_bounded=True)
    return space


def conjugate(space: QPSpace) -> QPSpace:
    """The transposed space: the reversed quasi-pseudometric
    d'(x, y) = d(y, x)."""
    return QPSpace(space.points, tuple(zip(*space.dist)))


def scale(space: QPSpace, factor) -> QPSpace:
    """Every distance times ``factor``, an ``int`` (not ``bool``) or a
    ``Fraction``; a negative one leaves a negative entry, which
    ``QPSpace`` refuses."""
    if type(factor) not in (int, Fraction):
        raise DomainError(
            f"scale factor must be an int or a Fraction, got {factor!r}")
    return QPSpace(space.points,
                   tuple(tuple(x * factor for x in row) for row in space.dist))


def abelianize(word: Word) -> AbelianWord:
    """The image of a free word in the free abelian group."""
    return AbelianWord.from_terms((l.gen, l.sign) for l in word
                                  if not l.is_neutral)


def entourage_metric(space: FiniteSpace, v: Entourage) -> QPSpace:
    """Quasi-pseudometric bounded by 1 whose open unit ball refines ``v``.

    Runs the chain construction on [full, v, base, base] for the universal
    base relation, then rescales so the unit ball matches the level of
    ``v`` in the chain and caps at 1.  Requires ``v`` to contain the
    universal base relation.
    """
    if v.points != space.points:
        raise DomainError("entourage and topology use different point lists")
    base = universal_base(space)
    if not base.subset_of(v):
        raise DomainError("entourage must contain the universal base relation")
    seq = EntourageSequence((Entourage.full(space.points), v, base, base))
    return scale(frink_metric(seq), 4).cap_at_one()


def min_plus_close(m) -> None:
    """Lower each entry of the square matrix ``m`` in place to its shortest
    path, Floyd-Warshall style, so that it satisfies the triangle law."""
    n = len(m)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if m[i][k] + m[k][j] < m[i][j]:
                    m[i][j] = m[i][k] + m[k][j]


def random_reduced_word(rng: random.Random, gens, max_len: int,
                        min_len: int = 0) -> Word:
    n = rng.randint(min_len, max_len)
    letters: list[Letter] = []
    while len(letters) < n:
        letter = Letter(rng.choice(tuple(gens)), rng.choice((1, -1)))
        if letters and letter == letters[-1].inverse():
            continue
        letters.append(letter)
    return Word(tuple(letters))


def random_entourage(rng: random.Random, points, fill: float) -> Entourage:
    n = len(points)
    rows = tuple(tuple(i == j or rng.random() < fill for j in range(n))
                 for i in range(n))
    return Entourage(tuple(points), rows)


def random_tripling_chain(rng: random.Random, points, length: int,
                          full_start: bool = True) -> EntourageSequence:
    """Build the chain from the deepest entourage upward: each level is the
    triple composition of the next one together with random extra pairs."""
    chain = [random_entourage(rng, points, fill=0.2)]
    while len(chain) < length - (1 if full_start else 0):
        below = chain[0]
        cubed = below.compose(below).compose(below)
        extra = random_entourage(rng, points, fill=0.1)
        rows = tuple(tuple(a or b for a, b in zip(r1, r2))
                     for r1, r2 in zip(cubed.relation, extra.relation))
        chain.insert(0, Entourage(tuple(points), rows))
    if full_start:
        chain.insert(0, Entourage.full(points))
    seq = EntourageSequence(tuple(chain))
    assert not seq.tripling_failures()
    return seq
