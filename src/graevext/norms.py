"""Group norms and distances induced by a bounded quasi-pseudometric.

Free group.  Let g = g_1 ... g_n be reduced, rho the extension of d to
the signed alphabet (``signed_extension``; a quasi-pseudometric when d is
valid and bounded by 1), and let an arc between letters u and v cost

    delta(u, v) = (rho(u^-1, v) + rho(v^-1, u)) / 2

(``schemes.arc_cost``, the one definition of delta, which the DP and
``pairing_cost`` both use), so delta is symmetric, delta(u, u^-1) = 0
and delta(u, e) = 1 for every non-neutral u.  The norm of g is the least
cost of a non-crossing partial matching of the positions 1..n, where a
matched pair (i, k) pays delta(g_i, g_k) and an unmatched position pays
delta(g_i, e).  An interval DP over the segments of g finds it in O(n^3)
time and O(n^2) space: the first letter of a segment either takes a
neutral letter or pairs with a later letter k, which splits off the
inside and the outside of the arc as two independent segments.  Costs
are integers over one common denominator, and the table is filled
bottom-up without recursion.

Why this is the Graev-type norm (the minimum of ``pairing_cost`` over
the almost irreducible words of length at most 2n over the letters of g,
their inverses and e that reduce to g, and over all their schemes; the
family ``tests/oracles.py`` enumerates).  This is the quasi-metric
analogue of Ding and Gao's theorem for symmetric metrics (Graev metric
groups and Polishable subgroups, Adv. Math. 2007).  A proof sketch:

* Every matching on g is a candidate: insert e right after each
  unmatched letter and pair the two.  The word is almost irreducible,
  reduces to g and has even length 2(n - arcs) <= 2n.
* Conversely, rewrite any word w reducing to g, with a scheme, without
  raising the cost or changing what w reduces to, until deleting its
  e's leaves g.  (1) An e-e arc costs 0 and is dropped; an e paired
  with a letter v moves to sit right after v, where its arc crosses
  nothing.  (2) If the e-free word is still not reduced, some x and
  x^-1 are separated only by e's, and by (1) by at most the e of x.
  If x and x^-1 pair with each other (cost 0), drop both.  If they are
  adjacent with partners p and q, drop both and pair p with q:
  delta(w_p, w_q) <= delta(w_p, x) + delta(x^-1, w_q), from the triangle
  inequality of rho once in each orientation,
  rho(w_p^-1, w_q) <= rho(w_p^-1, x) + rho(x, w_q) and
  rho(w_q^-1, w_p) <= rho(w_q^-1, x^-1) + rho(x^-1, w_p).  The two
  orientations agree, since rho(u^-1, v) = rho(v^-1, u) for all letters
  (``signed_extension`` swaps two inverse-or-neutral letters for their
  inverses in reverse order), so either one alone gives the bound.
  If the e of x sits between them, drop x and x^-1
  and let that e take over the arc of x^-1: the cost falls from
  1 + delta(x^-1, w_q) to delta(e, w_q) <= 1.  Contracting neighbouring
  positions keeps a scheme non-crossing.  Each step of (2) shortens w
  and (1) only moves or drops e's, so the rewriting ends at a matching
  on g that costs at most as much.

The witness is rebuilt from the table with an explicit stack.  In each
segment the first letter takes the first partner k, in increasing order,
whose split attains the segment's value, and takes a neutral letter only
when none does.  The witness word is g with e inserted after each letter
that took one, and its scheme comes from the same rebuild.  This tie
order gives the two-point goldens ``a b^-1`` and ``a b``, each paired
(1,2).  The witness is priced again with ``pairing_cost`` before it is
returned.  The exhaustive search the DP replaced is kept in the test
suite as an oracle.

Free abelian group.  The norm of h is the least cost of a perfect
pairing of its signed letters, with one neutral letter added when their
number is odd, where a pair {s, t} is realized as the difference t - s
or s - t and pays the cheaper of rho(s^-1, t) and rho(t^-1, s).  With d
bounded by 1, a negative letter x^-1 paired with a positive letter y
costs d(x, y) <= 1, a letter paired with the neutral letter costs 1, and
two letters of the same sign cost 2.  So an optimal pairing never keeps
same-sign pairs of both signs: two of them cost 4, and pairing across
instead costs at most 2.  Nor does it keep a same-sign pair together
with a neutral pair of the other sign (cost 3 against at most 2).
Hence every letter of the shorter sign class is paired across, and each
excess letter of the longer one pays exactly 1, whether paired with
another excess letter or with the neutral letter.  The norm is therefore
the least cost of shipping the negative coefficients of h into the
positive ones, one node per generator and one unit per letter, where a
unit from x to y costs d(x, y), plus one for each unit left unshipped: a
transportation problem, which ``flow.min_cost_flow`` solves exactly by
successive shortest paths.  Its costs are the integers of
``QPSpace.integer_view`` over their one scale, or the ``Fraction``
distances themselves when the space has no such view; the kernel only
adds, negates and compares them, and the value is read off once as the
shipped cost over the scale plus the unshipped units.  A balanced
element (coefficient sum zero) has no unshipped units, so its transport
needs no bound on d: ``abelian_norm_balanced`` computes it over any
valid space.

The abelian witness is a list of runs, each a pair and its number of
units, so its size does not grow with the exponents.  Unit by unit it
lists, for each negative generator x of h in term order, its flow to
each positive generator y in term order, one pair (x, y) per unit; then
the unshipped letters in term order, two at a time as (u^-1, v) at cost
2, and an odd last one as (u^-1, e) at cost 1.  Among flows of equal
cost, the one the kernel reaches (ties to the first nearest positive
generator in term order) is reported.  The witness is priced again on
the ``Fraction`` values of ``signed_extension`` before it is returned,
once per run, so the check does not rest on the integer costs.  The
exhaustive pairing search is kept in the test suite as an oracle.

All caps are plain size guards; exceeding one raises ``CapExceeded``
instead of silently truncating the search.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapExceeded, DomainError
from .flow import min_cost_flow
from .qpspace import QPSpace, signed_extension
from .schemes import Scheme, arc_cost, pairing_cost
from .words import AbelianWord, Letter, Value, Word, check_generators

DEFAULT_FREE_CAP = 6
DEFAULT_ABELIAN_CAP = 12


class NormWitness(Value):
    """A minimizing candidate word and pairing for a free-group norm."""

    _fields = ("word", "scheme", "value")

    def __str__(self) -> str:
        return f"value={self.value} word=[{' '.join(self.word.tokens())}] " \
               f"scheme=[{self.scheme}]"


class PairingWitness(Value):
    """Oriented difference pairs realizing an abelian norm value, held as
    ``runs``: ``((u, v), units)`` for ``units`` >= 1 equal pairs in a row."""

    _fields = ("runs", "value")

    @property
    def pairs(self) -> tuple[tuple[Letter, Letter], ...]:
        """The pairs one unit at a time, built on each call; a run too
        long to hold fails at once with ``OverflowError`` or
        ``MemoryError``."""
        out: list[tuple[Letter, Letter]] = []
        for pair, units in self.runs:
            out += [pair] * units
        return tuple(out)

    def __str__(self) -> str:
        body = " ".join(f"({u.token()},{v.token()})" for u, v in self.pairs)
        return f"value={self.value} pairs=[{body}]"


def graev_norm(space: QPSpace, g: Word,
               cap: int = DEFAULT_FREE_CAP) -> tuple[Fraction, NormWitness]:
    """Exact free-group norm of g with a minimizing witness.

    The value comes from the interval DP on the reduced word and the
    witness from its rebuild (tie order in the module docstring), so the
    identity has norm 0 with an empty witness.  Raises
    ``AssertionError`` if the witness does not price to the value.
    """
    space.ensure_valid(require_bounded=True)
    check_generators(space, (l.gen for l in g))
    reduced = g.reduce()
    if len(reduced) > cap:
        raise CapExceeded(
            f"reduced length {len(reduced)} exceeds the search cap {cap}")
    value, word, scheme = _interval_dp(space, reduced.letters)
    if pairing_cost(space, word, scheme) != value:
        raise AssertionError(
            f"witness [{word}] with scheme [{scheme}] does not price to {value}")
    return value, NormWitness(word, scheme, value)


def graev_dist(space: QPSpace, g: Word, h: Word,
               cap: int = DEFAULT_FREE_CAP) -> Fraction:
    """Left-invariant distance: the norm of g^-1 h."""
    return graev_norm(space, g.inverse() * h, cap)[0]


def _interval_dp(space: QPSpace,
                 letters: tuple[Letter, ...]) -> tuple[Fraction, Word, Scheme]:
    """Least-cost non-crossing partial matching of a reduced word, with
    its witness word and scheme.

    ``cost[i][j]`` is the least cost of the segment ``letters[i:j]``.
    """
    n = len(letters)
    neutral = Letter.neutral()
    kinds = set(letters)
    delta = {(u, v): arc_cost(space, u, v)
             for u in kinds for v in kinds | {neutral}}
    scale = math.lcm(*(x.denominator for x in delta.values()))
    arc = [[int(delta[u, v] * scale) for v in letters] for u in letters]
    single = [int(delta[u, neutral] * scale) for u in letters]

    cost = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, inner, arcs = cost[i], cost[i + 1], arc[i]
        for j in range(i + 1, n + 1):
            best = single[i] + inner[j]
            for k in range(i + 1, j):
                split = arcs[k] + inner[k] + cost[k + 1][j]
                if split < best:
                    best = split
            row[j] = best

    # partner[i] is the position paired with i, or None for a neutral letter
    partner: list[int | None] = [None] * n
    segments = [(0, n)]
    while segments:
        i, j = segments.pop()
        if i == j:
            continue
        for k in range(i + 1, j):
            if arc[i][k] + cost[i + 1][k] + cost[k + 1][j] == cost[i][j]:
                partner[i], partner[k] = k, i
                segments += ((i + 1, k), (k + 1, j))
                break
        else:
            segments.append((i + 1, j))

    word: list[Letter] = []
    place = [0] * n
    pairs = []
    for i, letter in enumerate(letters):
        word.append(letter)
        place[i] = len(word)
        if partner[i] is None:
            word.append(neutral)
            pairs.append((place[i], place[i] + 1))
        elif partner[i] < i:
            pairs.append((place[partner[i]], place[i]))
    return Fraction(cost[0][n], scale), Word(tuple(word)), Scheme(tuple(pairs))


def abelian_norm(space: QPSpace, h: AbelianWord,
                 cap: int = DEFAULT_ABELIAN_CAP) -> tuple[Fraction, PairingWitness]:
    """Exact abelian norm of h with a minimizing oriented pairing.

    Needs a space bounded by 1, where the flow of the module docstring
    is exact; the witness order is given there too.
    """
    space.ensure_valid(require_bounded=True)
    check_generators(space, h.generators())
    length = h.length()
    if length > cap:
        raise CapExceeded(f"length {length} exceeds the pairing cap {cap}")
    return _abelian_match(space, h)


def abelian_norm_balanced(space: QPSpace,
                          h: AbelianWord) -> tuple[Fraction, PairingWitness]:
    """Abelian norm of a balanced element via an exact min-cost flow.

    Ships the negative coefficients into the positive ones at the
    original distance, with no cap on the exponents.  The same route as
    ``abelian_norm``, but with no unshipped units it is also meaningful
    for unbounded valid spaces.
    """
    space.ensure_valid()
    check_generators(space, h.generators())
    if h.coefficient_sum() != 0:
        raise DomainError(
            f"coefficient sum {h.coefficient_sum()} != 0: element is unbalanced")
    return _abelian_match(space, h)


def _abelian_match(space: QPSpace,
                   h: AbelianWord) -> tuple[Fraction, PairingWitness]:
    """Ship the negative coefficients of h into the positive ones at
    d(x, y); each unshipped unit pays 1.  Value and witness order as in
    the module docstring.  Raises ``AssertionError`` if the witness does
    not price to the value."""
    supply = {x: -m for x, m in h.terms if m < 0}
    demand = {y: m for y, m in h.terms if m > 0}
    scale, rows = space.integer_view or (1, space.dist)
    index = space.index
    costs = {(x, y): rows[index[x]][index[y]] for x in supply for y in demand}
    flow, _ = min_cost_flow(supply, demand, costs)
    runs = []
    left = dict(h.terms)
    shipped = 0
    for (x, y), units in flow.items():
        if units:
            runs.append(((Letter(x, 1), Letter(y, 1)), units))
            shipped += costs[x, y] * units
            left[x] += units
            left[y] -= units
    # the unshipped letters in term order, two at a time; an odd letter
    # left over from one generator pairs with the next one's first letter
    excess, carry = 0, None
    for gen, m in left.items():
        if not m:
            continue
        letter, units = Letter(gen, 1 if m > 0 else -1), abs(m)
        excess += units
        if carry is not None:
            runs.append(((carry.inverse(), letter), 1))
            units -= 1
        if units >= 2:
            runs.append(((letter.inverse(), letter), units // 2))
        carry = letter if units % 2 else None
    if carry is not None:
        runs.append(((carry.inverse(), Letter.neutral()), 1))
    value = Fraction(shipped, scale) + excess
    # priced over the common denominator of the prices themselves, so the
    # check neither reads the integer costs nor adds a Fraction per run
    prices = [(signed_extension(space, u, v), units) for (u, v), units in runs]
    den = math.lcm(*(price.denominator for price, _ in prices))
    if Fraction(sum(price.numerator * (den // price.denominator) * units
                    for price, units in prices), den) != value:
        raise AssertionError(f"abelian witness does not price to {value}")
    return value, PairingWitness(tuple(runs), value)


def abelian_dist(space: QPSpace, g: AbelianWord, h: AbelianWord,
                 cap: int = DEFAULT_ABELIAN_CAP) -> Fraction:
    """Translation-invariant distance: the norm of h - g."""
    return abelian_norm(space, h - g, cap)[0]


def norm(space: QPSpace, g: Word | AbelianWord,
         cap: int | None = None) -> tuple[Fraction, NormWitness | PairingWitness]:
    """Norm of g over the space, with a minimizing witness.

    A ``Word`` takes ``graev_norm`` and an ``AbelianWord`` takes
    ``abelian_norm``, each with its own default cap when cap is None;
    any other type raises ``DomainError``.
    """
    if isinstance(g, Word):
        return graev_norm(space, g, DEFAULT_FREE_CAP if cap is None else cap)
    if isinstance(g, AbelianWord):
        return abelian_norm(space, g, DEFAULT_ABELIAN_CAP if cap is None else cap)
    raise DomainError(f"unsupported element type {type(g).__name__}")


def ball_member(space: QPSpace, g, eps: int | Fraction,
                cap: int | None = None) -> bool:
    """True iff the norm of g (see ``norm``) is strictly below eps, which
    must be an ``int`` or a ``Fraction``: a float is not the radius it
    reads as."""
    if type(eps) not in (int, Fraction):
        raise DomainError(f"eps must be an int or a Fraction, got {eps!r}")
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    return norm(space, g, cap)[0] < eps
