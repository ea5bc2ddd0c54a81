import random
from fractions import Fraction
from pathlib import Path

import pytest

from graevext import Entourage, EntourageSequence, Letter, QPSpace, Word, load_space

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
