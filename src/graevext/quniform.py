"""Entourages, chain metrics, finite topologies, and pair-sum neighborhoods.

An entourage is a reflexive relation on a finite point set.  Composition
follows the fixed convention ``U o V = {(x, z): exists y, (x, y) in U and
(y, z) in V}``, used consistently by every operation and test here.

``frink_metric`` turns a tripling chain (first element the full relation,
each later element with its triple composition inside the previous one)
into an exact quasi-pseudometric whose scale-``2^-i`` balls interleave the
chain.

``decompose_prefix`` and ``decompose_subset`` write a free abelian
element g as -x_1+y_1-...-x_k+y_k, each pair (x_i, y_i) from another
entourage of a sequence: the first k, or at most n distinct positions.
One iterative depth-first search serves both.  It tries choices in
lexicographic order of (level_1, pair_1, level_2, pair_2, ...), pairs
sorted, and remembers failed (level, picks left, remainder) states, so
its first hit is the least witness.  As every entourage is reflexive, a
pair (x, x) pads a decomposition by one level and success is monotone
in the bound: a galloping search from the smallest bound finds the least
bound that hits, and it searches at the bound itself, the largest
search, only when every smaller probe misses.

Before it searches, ``_cut`` tries to refuse g outright.  Let R be the
pairs (x, y), x != y, of every level the search may use: the first
k_max for a prefix, all of them for a subset.  Call a set O of points
up-closed when x in O and (x, y) in R put y in O, and write g(O) for the
sum of g's coefficients over O.  A pair -x + y adds -[x in O] + [y in O]
>= 0 to g(O), so if g(O) < 0 for one up-closed O, no sum of pairs from R
equals g.  Gale's feasibility theorem (D. Gale, "A theorem on flows in
networks", Pacific J. Math. 1957; A. J. Hoffman 1960) gives the
converse for sums of any length, and one flow (``flow.min_cost_flow``,
every arc at cost 0) decides between the two.  Each x with g(x) < 0
supplies -g(x), each y with g(y) > 0 demands g(y), and each pair of R is
an arc with no capacity limit.  If the flow ships the negative mass of
g, its paths telescope into a sum of R-pairs equal to g, and the search
decides whether such a sum fits the bound and the one-pair-per-level
rule.  If supply is left, the points it still reaches in the residual
network form a set O that no arc leaves, so O is up-closed, and
g(O) = flow - (negative mass) < 0.

File formats (JSON): an entourage file mirrors the space file, with
``points`` and a ``relation`` matrix of the integers 0 and 1 (not
``true``, ``false`` or ``1.0``; reflexivity is validated, never
repaired); a sequence file is a JSON array of entourage file paths,
resolved relative to the sequence file; a topology file has ``points``
and an ``opens`` list of point lists.
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .documents import build, check_document, read_json
from .errors import DomainError, FormatError
from .flow import min_cost_flow
from .words import (AbelianWord, Value, check_generators, check_int,
                    validate_symbols)

if TYPE_CHECKING:
    from .qpspace import QPSpace


class Entourage(Value):
    """Reflexive boolean relation over a finite point list; built in code,
    its entries are ``True``, ``False``, 0 or 1."""

    _fields = ("points", "relation")

    def __init__(self, points, relation) -> None:
        points = validate_symbols(points)
        n = len(points)
        rows = tuple(tuple(map(_related, row)) for row in relation)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DomainError(f"relation matrix must be {n}x{n}")
        missing = [points[i] for i in range(n) if not rows[i][i]]
        if missing:
            raise DomainError(
                f"relation is not reflexive at: {', '.join(missing)}")
        super().__init__(points, rows)

    @classmethod
    def diagonal(cls, points: Iterable[str]) -> "Entourage":
        return cls.from_pairs(points, ())

    @classmethod
    def full(cls, points: Iterable[str]) -> "Entourage":
        pts = tuple(points)
        n = len(pts)
        return cls(pts, ((True,) * n,) * n)

    @classmethod
    def from_pairs(cls, points: Iterable[str],
                   pairs: Iterable[tuple[str, str]]) -> "Entourage":
        """The diagonal together with the given (x, y) pairs."""
        pts = tuple(points)
        index = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        rows = [[i == j for j in range(n)] for i in range(n)]
        for x, y in pairs:
            if x not in index or y not in index:
                raise DomainError(f"pair ({x}, {y}) uses unknown points")
            rows[index[x]][index[y]] = True
        return cls(pts, tuple(tuple(row) for row in rows))

    @cached_property
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def __contains__(self, pair: tuple[str, str]) -> bool:
        x, y = pair
        try:
            return self.relation[self.index[x]][self.index[y]]
        except KeyError as exc:
            raise DomainError(f"unknown point {exc.args[0]!r}") from exc

    def pairs(self) -> Iterator[tuple[str, str]]:
        for i, row in enumerate(self.relation):
            for j, hit in enumerate(row):
                if hit:
                    yield self.points[i], self.points[j]

    def compose(self, other: "Entourage") -> "Entourage":
        if self.points != other.points:
            raise DomainError("entourages live on different point lists")
        # row x: the union of the rows y of V with (x, y) in U, which
        # include row x itself, as U is reflexive
        rows = tuple(tuple(map(any, zip(*(
            v_row for hit, v_row in zip(row, other.relation) if hit))))
            for row in self.relation)
        return Entourage(self.points, rows)

    def subset_of(self, other: "Entourage") -> bool:
        if self.points != other.points:
            raise DomainError("entourages live on different point lists")
        return all(not a or b
                   for ra, rb in zip(self.relation, other.relation)
                   for a, b in zip(ra, rb))

    def is_full(self) -> bool:
        return all(all(row) for row in self.relation)

    def to_json_dict(self) -> dict:
        return {"points": list(self.points),
                "relation": [[1 if x else 0 for x in row] for row in self.relation]}

    @classmethod
    def from_json_dict(cls, obj) -> "Entourage":
        check_document(obj, "entourage", ("points", "relation"))
        rows = obj["relation"]
        for row in rows:
            for x in row:
                if type(x) is not int or x not in (0, 1):
                    raise FormatError(f"relation entries must be 0 or 1, got {x!r}")
        return build(cls, obj["points"], rows)


def _related(x) -> bool:
    """A relation entry, ``True``, ``False``, 0 or 1, as a bool; any other
    value raises ``DomainError``."""
    if type(x) not in (bool, int) or x not in (0, 1):
        raise DomainError(f"relation entries must be 0, 1 or a bool, got {x!r}")
    return x == 1


class EntourageSequence(Value):
    """Finite ordered list of entourages over one point set."""

    _fields = ("entourages",)

    def __init__(self, entourages) -> None:
        ents = tuple(entourages)
        if not ents:
            raise DomainError("a sequence needs at least one entourage")
        if any(e.points != ents[0].points for e in ents):
            raise DomainError("all entourages must share one point list")
        object.__setattr__(self, "entourages", ents)

    @property
    def points(self) -> tuple[str, ...]:
        return self.entourages[0].points

    def __len__(self) -> int:
        return len(self.entourages)

    def __getitem__(self, i: int) -> Entourage:
        return self.entourages[i]

    def __iter__(self) -> Iterator[Entourage]:
        return iter(self.entourages)

    def tripling_failures(self) -> list[int]:
        """Indices i where entourage i+1 composed three times leaves i."""
        out = []
        for i in range(len(self.entourages) - 1):
            nxt = self.entourages[i + 1]
            if not nxt.compose(nxt).compose(nxt).subset_of(self.entourages[i]):
                out.append(i)
        return out

    def ensure_tripling_chain(self) -> None:
        bad = self.tripling_failures()
        if bad:
            raise DomainError(
                "chain condition fails (triple composition escapes the "
                f"previous entourage) at indices: {bad}")


def load_entourage(path) -> Entourage:
    return Entourage.from_json_dict(read_json(path))


def load_sequence(path) -> EntourageSequence:
    """Read a JSON array of entourage file paths, relative to the file.
    Each file is read once, by its real path (``os.path.realpath``),
    however many times or ways the array names it."""
    obj = read_json(path)
    if not isinstance(obj, list) or any(not isinstance(p, str) for p in obj):
        raise FormatError("sequence file must be a JSON array of file paths")
    base = os.path.dirname(os.path.abspath(path))
    paths = [os.path.join(base, rel) for rel in obj]
    files = {}
    loaded = {}
    for name in dict.fromkeys(paths):
        real = os.path.realpath(name)
        if real not in files:
            files[real] = load_entourage(real)
        loaded[name] = files[real]
    return EntourageSequence(tuple(loaded[p] for p in paths))


def composition_contained(seq: EntourageSequence, k: int,
                          ks: Sequence[int]) -> bool:
    """Whether the composition over positions ``ks`` sits inside position k.

    Preconditions: the sequence is a tripling chain, all indices are
    0-based positions into it, and the 2-adic weights of ``ks`` sum to
    strictly less than the weight of ``k``.  Under those the containment
    always holds; the point of the operation is to compute it anyway and
    expose any broken input.
    """
    from fractions import Fraction
    seq.ensure_tripling_chain()
    if not ks:
        raise DomainError("need at least one composition index")
    check_int("k", k)
    for idx in ks:
        check_int("ks entries", idx)
    for idx in (k, *ks):
        if not 0 <= idx < len(seq):
            raise DomainError(f"index {idx} outside the sequence")
    weight = sum(Fraction(1, 2 ** idx) for idx in ks)
    if weight >= Fraction(1, 2 ** k):
        raise DomainError(
            f"index weights sum to {weight}, not below {Fraction(1, 2 ** k)}")
    composed = seq[ks[0]]
    for idx in ks[1:]:
        composed = composed.compose(seq[idx])
    return composed.subset_of(seq[k])


def frink_metric(seq: EntourageSequence) -> QPSpace:
    """Exact quasi-pseudometric from a tripling chain.

    A pair's base weight is ``2^-i`` for the deepest chain level i that
    contains it (pairs inside the deepest entourage get the floor weight,
    the honest reading of a finite chain prefix); the distance is the
    cheapest chain of base weights.  For a chain V_0..V_m the result
    satisfies ``V_i <= {d <= 2^-i} <= V_(i-1)`` for 1 <= i <= m-1, and the
    left inclusion for every i.  Raises ``DomainError`` unless the chain
    starts with the full relation and is a tripling chain.
    """
    from fractions import Fraction

    from .qpspace import QPSpace
    if not seq[0].is_full():
        raise DomainError("a chain for the metric construction must "
                          "start with the full relation")
    seq.ensure_tripling_chain()
    points = seq.points
    n = len(points)
    rels = [e.relation for e in seq]
    dist = [[Fraction(0) if i == j else Fraction(1, 2 ** max(
                level for level, rel in enumerate(rels) if rel[i][j]))
             for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return QPSpace(points, tuple(tuple(row) for row in dist))


class FiniteSpace(Value):
    """Finite topology: points plus a family of open sets closed under
    union and intersection and containing the empty and full sets."""

    _fields = ("points", "opens")

    def __init__(self, points, opens) -> None:
        points = validate_symbols(points)
        family = {frozenset(o) for o in opens}
        universe = frozenset(points)
        for o in family:
            if not o <= universe:
                raise DomainError(f"open set {sorted(o)} leaves the point set")
        if frozenset() not in family or universe not in family:
            raise DomainError("opens must contain the empty set and the whole set")
        for a, b in combinations(family, 2):
            if a | b not in family:
                raise DomainError(
                    f"opens not closed under union: {sorted(a)} | {sorted(b)}")
            if a & b not in family:
                raise DomainError(
                    f"opens not closed under intersection: {sorted(a)} & {sorted(b)}")
        canon = tuple(sorted(family, key=lambda o: (len(o), sorted(o))))
        super().__init__(points, canon)

    def minimal_open(self, x: str) -> frozenset[str]:
        """The first open set holding x: ``opens`` is sorted by size and
        closed under intersection, so that one is the least."""
        if x not in self.points:
            raise DomainError(f"unknown point {x!r}")
        return next(o for o in self.opens if x in o)

    def is_t0(self) -> bool:
        mins = [self.minimal_open(x) for x in self.points]
        return len(set(mins)) == len(mins)

    @classmethod
    def from_json_dict(cls, obj) -> "FiniteSpace":
        check_document(obj, "topology", ("points", "opens"))
        opens = obj["opens"]
        if any(not isinstance(p, str) for o in opens for p in o):
            raise FormatError("'opens' must be a list of point lists")
        return build(cls, obj["points"], opens)


def load_topology(path) -> FiniteSpace:
    return FiniteSpace.from_json_dict(read_json(path))


def universal_base(space: FiniteSpace) -> Entourage:
    """The minimal-open-neighborhood relation of a finite T0 topology.

    ``(x, y)`` is related iff y lies in the minimal open set of x.  The
    result is a preorder, idempotent under composition, and the filter of
    its supersets is the finest quasi-uniformity inducing the topology.
    """
    if not space.is_t0():
        raise DomainError("space is not T0: two points share their "
                          "minimal open set")
    rows = tuple(tuple(y in least for y in space.points)
                 for least in map(space.minimal_open, space.points))
    return Entourage(space.points, rows)


class PrefixDecomposition(Value):
    """Alternating difference pairs, one from each of the first k
    entourages in order."""

    _fields = ("k", "pairs")

    def __str__(self) -> str:
        body = " ".join(f"({x},{y})" for x, y in self.pairs)
        return f"k={self.k} pairs=[{body}]"


class SubsetDecomposition(Value):
    """Alternating difference pairs over distinct sequence positions
    (1-based in display and in the stored tuple)."""

    _fields = ("positions", "pairs")

    def __str__(self) -> str:
        body = " ".join(f"({x},{y})" for x, y in self.pairs)
        pos = " ".join(str(p) for p in self.positions)
        return f"positions=[{pos}] pairs=[{body}]"


def _moves(levels, state):
    """Moves from (level, picks left, remainder): ([(level, (x, y))], child)
    per pair in order, remainder less -x + y, then ([], child) for a skip."""
    level, left, rest = state
    for x, y in levels[level]:
        less = AbelianWord.from_terms(rest.terms + ((x, 1), (y, -1)))
        yield [(level, (x, y))], (level + 1, left - 1, less)
    yield [], (level + 1, left, rest)


def _first_choice(g: AbelianWord, levels: list[list[tuple[str, str]]],
                  picks: int) -> tuple[tuple[int, tuple[str, str]], ...] | None:
    """The least choice of ``picks`` levels with one pair each that sums
    to g, as (level, pair) tuples in lexicographic order; None if none."""
    dead: set[tuple[int, int, AbelianWord]] = set()
    chosen: list[tuple[int, tuple[str, str]]] = []
    frames = [((0, picks, g), 0, _moves(levels, (0, picks, g)))]
    while frames:
        state, depth, moves = frames[-1]
        move = next(moves, None)
        if move is None:
            dead.add(state)
            frames.pop()
            continue
        picked, child = move
        chosen[depth:] = picked
        level, left, rest = child
        if left == 0:
            if rest.is_identity:
                return tuple(chosen)
        elif (child not in dead
              and rest.length() <= 2 * left <= 2 * (len(levels) - level)):
            frames.append((child, len(chosen), _moves(levels, child)))
    return None


def _cut(g: AbelianWord,
         levels: list[list[tuple[str, str]]]) -> frozenset[str] | None:
    """An up-closed set O of points with g(O) < 0, for the pairs R of
    ``levels``, which proves that no sum of R-pairs equals g; None when
    the flow shows that some sum does (module docstring).  g's
    coefficients must sum to 0."""
    arcs = {(x, y): 0 for level in levels for x, y in level if x != y}
    _, reached = min_cost_flow({x: -m for x, m in g.terms if m < 0},
                               {y: m for y, m in g.terms if m > 0}, arcs)
    return reached or None


def _decompose(g: AbelianWord, seq: EntourageSequence, bound: int,
               name: str, low: int, usable: int, search):
    """Check the input, refuse g if ``_cut`` proves that no sum of pairs
    from the first ``usable`` levels equals it, then return
    ``search(levels, b)`` at the least b in low..bound where it hits, or
    None; a miss at ``bound`` is final."""
    check_generators(seq[0], g.generators())
    check_int(name, bound)
    if not 1 <= bound <= len(seq):
        raise DomainError(f"{name} must lie in 1..{len(seq)}, got {bound}")
    if g.coefficient_sum() != 0:
        return None
    levels = [sorted(e.pairs()) for e in seq]
    if _cut(g, levels[:usable]) is not None:
        return None
    found, step = None, 1
    while low < bound:
        probe = min(low + step, bound) - 1
        hit = search(levels, probe)
        if hit is None:
            low, step = probe + 1, 2 * step
        else:
            bound, found, step = probe, hit, 1
    # every probe below the bound missed: only the bound itself is left
    return search(levels, bound) if found is None else found


def decompose_prefix(g: AbelianWord, seq: EntourageSequence,
                     k_max: int) -> PrefixDecomposition | None:
    """Write g with pair i drawn from entourage i for i = 1..k, at the
    least k <= k_max; None when there is none within the bound, which
    proves nothing for longer prefixes unless g's coefficient sum is
    nonzero."""
    found = _decompose(g, seq, k_max, "k_max", 1, k_max,
                       lambda levels, k: _first_choice(g, levels[:k], k))
    if found is None:
        return None
    return PrefixDecomposition(len(found), tuple(pair for _, pair in found))


def decompose_subset(g: AbelianWord, seq: EntourageSequence,
                     n: int) -> SubsetDecomposition | None:
    """Write g with the fewest pairs, at most n, over distinct positions
    (1-based in the result); None means g has no such decomposition in
    this sequence."""
    found = _decompose(g, seq, n, "n", 0, len(seq),
                       lambda levels, size: _first_choice(g, levels, size))
    if found is None:
        return None
    return SubsetDecomposition(tuple(level + 1 for level, _ in found),
                               tuple(pair for _, pair in found))
