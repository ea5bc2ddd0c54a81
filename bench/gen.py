"""Seeded input generators for the benchmark workloads.

Everything here is plain Python over integers and tuples, independent of
the package under test: spaces are integer matrices over a common
denominator, letters are ``(generator, sign)`` pairs, abelian elements
are ``{generator: exponent}`` dicts and relations are boolean matrices.
The workloads turn these into the JSON documents and word texts that
the package reads.
"""

from __future__ import annotations

import random
from fractions import Fraction

DENOM = 12


def round_rng(workload: str, seed: int, index) -> random.Random:
    """Independent, reproducible stream for one round (or one shared input)."""
    return random.Random(f"{workload}:{seed}:{index}")


def closed_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """Random numerators over ``DENOM`` (entries 0..DENOM), zero diagonal,
    then a min-plus closure: a valid quasi-pseudometric bounded by 1."""
    m = [[0 if i == j else rng.randint(0, DENOM) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        mk = m[k]
        for i in range(n):
            mi = m[i]
            mik = mi[k]
            for j in range(n):
                if mik + mk[j] < mi[j]:
                    mi[j] = mik + mk[j]
    return m


def space_doc(points, matrix, bounded: bool = True) -> dict:
    return {"points": list(points),
            "dist": [[str(Fraction(x, DENOM)) for x in row] for row in matrix],
            "bounded_by_one": bounded}


def triangle_violations(points, matrix) -> set:
    """Every ("triangle", (x, y, z)) with d(x, y) > d(x, z) + d(z, y)."""
    n = len(points)
    out = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][j] > matrix[i][k] + matrix[k][j]:
                    out.add(("triangle", (points[i], points[j], points[k])))
    return out


def reduced_letters(rng: random.Random, gens, length: int) -> tuple:
    """Random reduced word of exactly ``length`` letters using every
    generator in ``gens`` (so ``length >= len(gens)``)."""
    gens = tuple(gens)
    while True:
        letters: list[tuple[str, int]] = []
        while len(letters) < length:
            letter = (rng.choice(gens), rng.choice((1, -1)))
            if letters and letter == (letters[-1][0], -letters[-1][1]):
                continue
            letters.append(letter)
        if {g for g, _ in letters} == set(gens):
            return tuple(letters)


def reduce_letters(letters) -> tuple:
    stack: list[tuple[str, int]] = []
    for gen, sign in letters:
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def word_text(letters) -> str:
    """Word syntax with runs of one letter written as ``sym^k``."""
    if not letters:
        return "e"
    tokens: list[str] = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        gen, sign = letters[i]
        k = (j - i) * sign
        tokens.append(gen if k == 1 else f"{gen}^{k}")
        i = j
    return " ".join(tokens)


def element(rng: random.Random, gens, length: int, balanced: bool = False) -> dict:
    """Abelian element of exactly ``length`` letters; balanced elements
    (coefficient sum 0) need an even length and two generators."""
    gens = list(gens)
    rng.shuffle(gens)
    if balanced:
        cut = rng.randint(1, len(gens) - 1)
        plus, minus = gens[:cut], gens[cut:]
        counts: dict[str, int] = {}
        for _ in range(length // 2):
            g = rng.choice(plus)
            counts[g] = counts.get(g, 0) + 1
            g = rng.choice(minus)
            counts[g] = counts.get(g, 0) - 1
        return counts
    signs = {g: rng.choice((1, -1)) for g in gens}
    counts = {}
    for _ in range(length):
        g = rng.choice(gens)
        counts[g] = counts.get(g, 0) + signs[g]
    return counts


def add_elements(a: dict, b: dict) -> dict:
    out = dict(a)
    for g, m in b.items():
        out[g] = out.get(g, 0) + m
    return {g: m for g, m in out.items() if m}


def element_text(rng: random.Random, counts: dict, terms: bool) -> str:
    """Term syntax (``-2a + 3b``) or word syntax (``a^-2 b^3``), in a
    random term order."""
    items = [(g, m) for g, m in counts.items() if m]
    if not items:
        return "0"
    rng.shuffle(items)
    if not terms:
        return " ".join(g if m == 1 else f"{g}^{m}" for g, m in items)
    parts = []
    for i, (g, m) in enumerate(items):
        mag = "" if abs(m) == 1 else str(abs(m))
        if i == 0:
            parts.append(("-" if m < 0 else "") + mag + g)
        else:
            parts.append(("- " if m < 0 else "+ ") + mag + g)
    return " ".join(parts)


def relation(rng: random.Random, n: int, fill: float) -> list[list[bool]]:
    return [[i == j or rng.random() < fill for j in range(n)] for i in range(n)]


def compose(u, v) -> list[list[bool]]:
    n = len(u)
    return [[any(u[i][k] and v[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def tripling_chain(rng: random.Random, n: int, length: int,
                   full_start: bool) -> list[list[list[bool]]]:
    """Entourage chain built upward from the deepest level: each level is
    the triple composition of the one below plus random extra pairs."""
    chain = [relation(rng, n, 0.2)]
    while len(chain) < length - (1 if full_start else 0):
        below = chain[0]
        cubed = compose(compose(below, below), below)
        extra = relation(rng, n, 0.1)
        chain.insert(0, [[a or b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(cubed, extra)])
    if full_start:
        chain.insert(0, [[True] * n for _ in range(n)])
    return chain


def permute_relation(rel, perm) -> list[list[bool]]:
    """Relabel: point i of ``rel`` becomes point ``perm[i]``."""
    n = len(rel)
    out = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rel[i][j]
    return out


def reachability(chain) -> list[list[bool]]:
    """Transitive closure of the union of the chain's relations."""
    n = len(chain[0])
    reach = [[any(rel[i][j] for rel in chain) for j in range(n)]
             for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


def partial_order(rng: random.Random, n: int, fill: float = 0.3) -> list[list[bool]]:
    """Random partial order (reflexive, antisymmetric, transitive)."""
    order = list(range(n))
    rng.shuffle(order)
    rank = {p: r for r, p in enumerate(order)}
    le = [[i == j or (rank[i] < rank[j] and rng.random() < fill)
           for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if le[i][k]:
                for j in range(n):
                    le[i][j] = le[i][j] or le[k][j]
    return le


def up_sets(le) -> list[list[int]]:
    """All up-closed subsets of a partial order: the opens of its
    Alexandrov topology, in which the minimal open set of x is ``{y: x<=y}``."""
    n = len(le)
    out = []
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if all(mask >> j & 1 for i in members for j in range(n) if le[i][j]):
            out.append(members)
    return out
