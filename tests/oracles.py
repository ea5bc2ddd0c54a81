"""Independent brute-force reference implementations.

These deliberately avoid the library's optimized code paths: reduction is
a rescan-until-fixpoint loop instead of a stack pass, pairings come from
unfiltered enumeration, space validation is the plain triple loop over
exact fractions, the space loader parses every entry on its own and
checks it with ``Fraction`` comparisons, the free-group norm enumerates
candidate words (those that pass ``almost_irreducible``) and pairings
outright, and decompositions over entourage sequences try every choice
of levels and pairs.  The former exhaustive free-norm walk is kept here
too, as a second free-norm oracle.  The command line's former argparse
parser is the reference for its table parser.  Slow, simple, and only
for tests.
"""

import itertools
import math
from fractions import Fraction

from graevext import (DomainError, FormatError, Letter, QPSpace, Violation,
                      Word, parse_rational, signed_extension)
from graevext.documents import check_document
from graevext.words import validate_symbols


def scan_reduce(word: Word) -> Word:
    """Fixed-point reduction by repeated single rewrites."""
    letters = list(word.letters)
    changed = True
    while changed:
        changed = False
        for i, letter in enumerate(letters):
            if letter.is_neutral:
                del letters[i]
                changed = True
                break
        if changed:
            continue
        for i in range(len(letters) - 1):
            if letters[i + 1] == letters[i].inverse():
                del letters[i:i + 2]
                changed = True
                break
    return Word(tuple(letters))


def almost_irreducible(word: Word) -> bool:
    """No directly adjacent pair u, u^-1 of non-neutral letters; neutral
    letters may stand anywhere, so ``x e x^-1`` and ``e e`` pass."""
    return not any(not cur.is_neutral and nxt == cur.inverse()
                   for cur, nxt in zip(word.letters, word.letters[1:]))


def all_pairings(indices):
    """Every perfect pairing of an even index tuple, crossing or not."""
    if not indices:
        yield ()
        return
    first = indices[0]
    for i in range(1, len(indices)):
        rest = indices[1:i] + indices[i + 1:]
        for sub in all_pairings(rest):
            yield ((first, indices[i]),) + sub


def noncrossing_pairings(n: int):
    for pairing in all_pairings(tuple(range(1, 2 * n + 1))):
        if not any(a < c < b < d or c < a < d < b
                   for (a, b), (c, d) in itertools.combinations(pairing, 2)):
            yield pairing


def gamma_by_formula(space: QPSpace, letters, pairing) -> Fraction:
    partner = {}
    for a, b in pairing:
        partner[a] = b
        partner[b] = a
    total = Fraction(0)
    for i in range(1, len(letters) + 1):
        total += signed_extension(space, letters[i - 1].inverse(),
                                  letters[partner[i] - 1])
    return total / 2


def brute_violations(space: QPSpace, require_bounded: bool) -> list[Violation]:
    """Every violated axiom instance of ``space`` in ``QPSpace.validate``'s
    order and wording, by the triple loop over exact fractions: the
    diagonal, then each triangle (i, j, k) in that nesting, then the
    bound by 1 when required."""
    out = []
    pts, dist = space.points, space.dist
    n = len(pts)
    for i in range(n):
        if dist[i][i] != 0:
            out.append(Violation("diagonal", (pts[i],),
                                 f"d({pts[i]}, {pts[i]}) = {dist[i][i]} != 0"))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][j] > dist[i][k] + dist[k][j]:
                    out.append(Violation(
                        "triangle", (pts[i], pts[j], pts[k]),
                        f"d({pts[i]}, {pts[j]}) = {dist[i][j]} > "
                        f"{dist[i][k]} + {dist[k][j]}"))
    if require_bounded:
        for i in range(n):
            for j in range(n):
                if dist[i][j] > 1:
                    out.append(Violation("bound", (pts[i], pts[j]),
                                         f"d({pts[i]}, {pts[j]}) = {dist[i][j]} > 1"))
    return out


def slow_space(obj) -> QPSpace:
    """``QPSpace.from_json_dict`` with one ``parse_rational`` call per
    entry and its checks on ``Fraction`` comparisons, raising the same
    errors in the same order: the first bad entry in row-major order,
    the points, the shape, the sign, the diagonal, then the bound flag."""
    check_document(obj, "space", ("points", "dist"), ("bounded_by_one",))
    rows = []
    for i, row in enumerate(obj["dist"]):
        out = []
        for j, x in enumerate(row):
            try:
                out.append(parse_rational(x))
            except FormatError as exc:
                raise FormatError(f"dist[{i}][{j}]: {exc}") from None
        rows.append(tuple(out))
    try:
        points = validate_symbols(tuple(obj["points"]))
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
    n = len(points)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise FormatError(
            f"distance matrix must be {n}x{n} to match the point list")
    if any(x < 0 for row in rows for x in row):
        raise FormatError("distances must be non-negative")
    for i in range(n):
        if rows[i][i] != 0:
            raise FormatError(f"diagonal entry d({points[i]}, {points[i]}) "
                              f"must be an explicit 0")
    flag = obj.get("bounded_by_one", False)
    if not isinstance(flag, bool):
        raise FormatError("'bounded_by_one' must be a boolean")
    if flag and not all(x <= 1 for row in rows for x in row):
        raise FormatError("space declares bounded_by_one but has entries > 1")
    return QPSpace(points, tuple(rows))


def rho_table(space: QPSpace) -> dict:
    """The extension rho of d to X + {e} + X^-1 as a table keyed by letter
    pairs, written from the two-stage definition with no library call: a
    stage-one table on the points and e (d between points, 1 against e, 0
    at (e, e)), copied to the letters of no negative sign as it is and to
    the inverse-or-neutral letters with both sides inverted and swapped;
    a point against an inverse letter costs 2."""
    points = space.points
    stage_one = {(None, None): Fraction(0)}
    for i, x in enumerate(points):
        stage_one[x, None] = stage_one[None, x] = Fraction(1)
        for j, y in enumerate(points):
            stage_one[x, y] = space.dist[i][j]
    e = Letter.neutral()
    table = {}
    for (s, t), value in stage_one.items():
        up = [e if u is None else Letter(u, 1) for u in (s, t)]
        down = [e if u is None else Letter(u, -1) for u in (s, t)]
        table[up[0], up[1]] = value
        table[down[1], down[0]] = value
    for x in points:
        for y in points:
            table[Letter(x, 1), Letter(y, -1)] = Fraction(2)
            table[Letter(x, -1), Letter(y, 1)] = Fraction(2)
    return table


def brute_free_norm(space: QPSpace, g: Word) -> Fraction:
    """Minimum of the cost functional over the attainment family: almost
    irreducible words over the signed letters of g, their inverses and the
    neutral letter, of even length up to twice the reduced length, that
    reduce to g; paired by every non-crossing pairing."""
    reduced = scan_reduce(g)
    if not len(reduced):
        return Fraction(0)
    gens = sorted({l.gen for l in reduced}, key=space.points.index)
    alphabet = ([Letter(x, 1) for x in gens] + [Letter(x, -1) for x in gens]
                + [Letter.neutral()])
    best = None
    for n in range(1, len(reduced) + 1):
        for tup in itertools.product(alphabet, repeat=2 * n):
            word = Word(tup)
            if not almost_irreducible(word):
                continue
            if scan_reduce(word) != reduced:
                continue
            for pairing in noncrossing_pairings(n):
                value = gamma_by_formula(space, tup, pairing)
                if best is None or value < best:
                    best = value
    return best


def brute_abelian_norm(space: QPSpace, h) -> Fraction:
    """Abelian norm by pairing the padded letter multiset, enumerating from
    the last element instead of the first."""
    pool = list(h.letters())
    if not pool:
        return Fraction(0)
    if len(pool) % 2:
        pool.append(Letter.neutral())

    def pair_cost(s: Letter, t: Letter) -> Fraction:
        return min(signed_extension(space, s.inverse(), t),
                   signed_extension(space, t.inverse(), s))

    def rec(items) -> Fraction:
        if not items:
            return Fraction(0)
        last = items[-1]
        rest = items[:-1]
        return min(pair_cost(last, rest[i]) + rec(rest[:i] + rest[i + 1:])
                   for i in range(len(rest)))

    return rec(tuple(pool))


def brute_assignment(cost) -> Fraction:
    """Least cost of matching each row to a distinct column, rows <= columns."""
    n = len(cost)
    m = len(cost[0]) if cost else 0
    return min(sum((cost[i][perm[i]] for i in range(n)), Fraction(0))
               for perm in itertools.permutations(range(m), n))


def compose_by_matrix(u, v):
    """Relational composition via an explicit triple loop on 0/1 matrices."""
    n = len(u.points)
    return [[any(u.relation[i][k] and v.relation[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def brute_decompose(g, seq, bound: int, subset: bool):
    """Least decomposition of the abelian element g by full enumeration.

    With ``subset`` false: ``(k, pairs)`` for the least k <= bound with
    pair i from entourage i, pairs least in lexicographic order.  With
    ``subset`` true: ``(positions, pairs)`` over the fewest distinct
    1-based positions, at most ``bound``, least in the order of
    (position_1, pair_1, position_2, pair_2, ...).  None if there is none.
    """
    target = dict(g.terms)
    for size in range(0 if subset else 1, bound + 1):
        choices = (itertools.combinations(range(len(seq)), size) if subset
                   else [tuple(range(size))])
        hits = []
        for positions in choices:
            relations = [[(seq.points[i], seq.points[j])
                          for i, row in enumerate(seq[p].relation)
                          for j, related in enumerate(row) if related]
                         for p in positions]
            for pairs in itertools.product(*relations):
                counts = dict.fromkeys(seq.points, 0)
                for x, y in pairs:
                    counts[x] -= 1
                    counts[y] += 1
                if {gen: m for gen, m in counts.items() if m} == target:
                    hits.append(tuple(zip(positions, pairs)))
        if hits:
            best = min(hits)
            pairs = tuple(pair for _, pair in best)
            if subset:
                return tuple(p + 1 for p, _ in best), pairs
            return size, pairs
    return None


# ---- the exhaustive free-norm walk ------------------------------------------
#
# The library's former free-norm search, kept as a second oracle that shares
# no code with the interval DP in ``graevext.norms``: a depth-first walk over
# the whole candidate family with dominance pruning.  Its only change is the
# starting upper bound, which matches every letter with a neutral letter
# instead of asking the DP.  Exponential; meant for reduced lengths up to 6.

def _free_norm_search(space: QPSpace, reduced: Word) -> tuple[Fraction, list[Letter]]:
    """Minimize the pairing cost over the candidate family of ``reduced``.

    Positions are generated left to right; each position picks a letter
    and either opens a new pairing arc or closes the innermost open one,
    so the arcs always form a non-crossing pairing.

    The value pass runs over a rearranged superset of the candidate
    family that has the same minimum: every candidate can be rewritten,
    without changing its cost or what it reduces to, so that neutral
    letters sit directly after their arc partner (so they only ever close
    a just-opened arc and never open one), neutral pairs matched together
    are dropped, and a pair of adjacent mutually inverse letters matched
    to each other is dropped.  Dropping the adjacency constraint in
    exchange lets states forget the previous letter, so a state is just
    the reduction stack, the open-arc letters, whether the innermost arc
    was opened at the previous position, and the length parity, with
    Pareto dominance over (length, cost) records.

    The witness starts at the candidate that pairs every reduced-word
    letter with an inserted neutral letter and is replaced by the best
    almost irreducible completion the value pass encounters; if the value
    pass proves a smaller value but only via words outside the almost
    irreducible family, a second bounded pass recovers an almost
    irreducible witness at the exact value (one exists by the attainment
    property of the norm).  All tie handling is a fixed deterministic
    exploration order.
    """
    ctx = _EngineContext(space, reduced)
    letters, neutral, inv = ctx.letters, ctx.neutral, ctx.inv
    idelta, scale = ctx.idelta, ctx.scale
    target, size, max_len = ctx.target, ctx.size, ctx.max_len
    bits, mask, width = ctx.bits, ctx.mask, ctx.width
    shift_opens = bits * max_len
    shift_fresh = shift_opens + bits * size
    shift_parity = shift_fresh + 1

    def pack(codes) -> int:
        out = 0
        for i, c in enumerate(codes):
            out |= (c + 1) << (width - bits * (i + 1))
        return out

    def unpack(packed) -> list[int]:
        out = []
        pos = width - bits
        while pos >= 0:
            nib = (packed >> pos) & mask
            if nib == 0:
                break
            out.append(nib - 1)
            pos -= bits
        return out

    def almost_irreducible(codes) -> bool:
        return all(a == neutral or inv[a] != b
                   for a, b in zip(codes, codes[1:]))

    # every reduced-word letter matched with an inserted neutral letter:
    # a candidate, so its cost bounds the minimum from above
    upper = sum(idelta[c][neutral] for c in target)
    seed: list[int] = []
    for c in target:
        seed += (c, neutral)
    best_cost = upper
    best_word = pack(seed)
    air_cost, air_word = best_cost, best_word

    # state -> Pareto records of (length, cost): a record dominates any
    # later arrival that is at least as long (same parity) and costly.
    seen: dict[int, list[tuple[int, int]]] = {}

    def admit(key, length, cost) -> bool:
        records = seen.get(key)
        if records is None:
            seen[key] = [(length, cost)]
            return True
        drop = False
        for rec_len, rec_cost in records:
            if rec_len <= length and rec_cost <= cost:
                return False
            if rec_len >= length and rec_cost >= cost:
                drop = True
        if drop:
            seen[key] = [(l, c) for l, c in records
                         if l < length or c < cost] + [(length, cost)]
        else:
            records.append((length, cost))
        return True

    def walk(stack, depth, match, opens, odepth, fresh, length, cost, word):
        nonlocal best_cost, best_word, air_cost, air_word
        if length and not length & 1 and not odepth and depth == size == match:
            if cost < best_cost:
                best_cost, best_word = cost, word
            if cost < air_cost:
                codes = unpack(word)
                if almost_irreducible(codes):
                    air_cost, air_word = cost, word
            return  # extensions only add cost and length
        if length == max_len:
            return
        budget = max_len - length - 1
        base = width - bits * (length + 1)
        clength = length + 1
        parity_bit = (clength & 1) << shift_parity
        may_open = odepth < budget and cost < best_cost
        open_base = ((opens << bits) << shift_opens) | (1 << shift_fresh)
        if odepth:
            top = (opens & mask) - 1
            close_row = idelta[top]
            close_base = (opens >> bits) << shift_opens
            inv_top = inv[top] if fresh else -1
            # A neutral letter only ever closes the arc opened right
            # before it; rearranging any candidate into that shape keeps
            # its cost and its reduction.
            if fresh and odepth - 1 <= budget >= depth + size - 2 * match:
                ccost = cost + close_row[neutral]
                if ccost < best_cost:
                    key = stack | close_base | parity_bit
                    if admit(key, clength, ccost):
                        walk(stack, depth, match, opens >> bits, odepth - 1,
                             False, clength, ccost,
                             word | (neutral + 1) << base)
        else:
            inv_top = -1
        for letter in range(neutral):
            if depth and (stack & mask) - 1 == inv[letter]:
                cdepth = depth - 1
                cstack = stack >> bits
                cmatch = cdepth if match == depth else match
            else:
                cstack = (stack << bits) | (letter + 1)
                cdepth = depth + 1
                cmatch = (match + 1 if match == depth and match < size
                          and target[match] == letter else match)
            if cdepth + size - 2 * cmatch > budget:
                continue
            cword = word | (letter + 1) << base
            # open a new arc (cost deferred to its close)
            if may_open:
                key = cstack | open_base | (letter + 1) << shift_opens \
                      | parity_bit
                if admit(key, clength, cost):
                    walk(cstack, cdepth, cmatch,
                         (opens << bits) | (letter + 1), odepth + 1,
                         True, clength, cost, cword)
            # close the innermost open arc; a just-opened arc never takes
            # its opener's inverse (such a pair simply drops out)
            if odepth and odepth - 1 <= budget and letter != inv_top:
                ccost = cost + close_row[letter]
                if ccost < best_cost:
                    key = cstack | close_base | parity_bit
                    if admit(key, clength, ccost):
                        walk(cstack, cdepth, cmatch, opens >> bits,
                             odepth - 1, False, clength, ccost, cword)

    walk(0, 0, 0, 0, 0, False, 0, 0, 0)

    if air_cost == best_cost:
        witness = air_word
    else:
        witness = _constrained_witness(ctx, best_cost)
    return Fraction(best_cost, scale), [letters[c] for c in unpack(witness)]


class _EngineContext:
    """Letter coding and packed-state geometry shared by both passes.

    Letters take codes in point order, each positive letter before its
    inverse, the neutral letter last.  Arc costs are pre-scaled to
    integers by the common denominator.  Packed words are left-aligned
    nonzero fields, so integer order equals word order and a proper
    prefix stays smaller.
    """

    def __init__(self, space: QPSpace, reduced: Word):
        order = {p: i for i, p in enumerate(space.points)}
        gens = sorted({l.gen for l in reduced}, key=order.__getitem__)
        letters: list[Letter] = []
        for gen in gens:
            letters.append(Letter(gen, 1))
            letters.append(Letter(gen, -1))
        letters.append(Letter.neutral())
        self.letters = letters
        self.neutral = len(letters) - 1
        code = {letter: c for c, letter in enumerate(letters)}
        self.inv = [code[letter.inverse()] for letter in letters]
        # arc cost between letters u (opened) and v (closed): both
        # orientations of the extension distance, halved
        delta = [[(signed_extension(space, u.inverse(), v)
                   + signed_extension(space, v.inverse(), u)) / 2
                  for v in letters] for u in letters]
        self.scale = math.lcm(*(x.denominator for row in delta for x in row))
        self.idelta = [[int(x * self.scale) for x in row] for row in delta]
        self.target = tuple(code[l] for l in reduced)
        self.size = len(self.target)
        self.max_len = 2 * self.size
        self.bits = (len(letters) + 1).bit_length()
        self.mask = (1 << self.bits) - 1
        self.width = self.bits * self.max_len


def _constrained_witness(ctx: _EngineContext, value: int) -> int:
    """First almost irreducible candidate whose best pairing meets the
    known minimum value, searched in a fixed deterministic order."""
    target, size, max_len = ctx.target, ctx.size, ctx.max_len
    inv, idelta, neutral = ctx.inv, ctx.idelta, ctx.neutral
    bits, mask, width = ctx.bits, ctx.mask, ctx.width
    shift_opens = bits * max_len
    shift_prev = shift_opens + bits * size
    shift_len = shift_prev + bits + 1
    seen: dict[int, int] = {}

    def walk(stack, depth, match, opens, odepth, prev, length, cost, word):
        if length and not length & 1 and not odepth and depth == size == match:
            return word if cost == value else None
        if length == max_len:
            return None
        budget = max_len - length - 1
        base = width - bits * (length + 1)
        clength = length + 1
        inv_prev = inv[prev] if 0 <= prev != neutral else -1
        if odepth:
            close_row = idelta[(opens & mask) - 1]
            close_base = (opens >> bits) << shift_opens
        for letter in range(neutral + 1):
            if letter == inv_prev:
                continue  # keep the witness almost irreducible
            if letter == neutral:
                cstack, cdepth, cmatch = stack, depth, match
            elif depth and (stack & mask) - 1 == inv[letter]:
                cdepth = depth - 1
                cstack = stack >> bits
                cmatch = cdepth if match == depth else match
            else:
                cstack = (stack << bits) | (letter + 1)
                cdepth = depth + 1
                cmatch = (match + 1 if match == depth and match < size
                          and target[match] == letter else match)
            if cdepth + size - 2 * cmatch > budget:
                continue
            cword = word | (letter + 1) << base
            tag = (letter + 1) << shift_prev | clength << shift_len
            if odepth < budget:
                copens = (opens << bits) | (letter + 1)
                key = cstack | copens << shift_opens | tag
                rec = seen.get(key)
                if rec is None or cost < rec:
                    seen[key] = cost
                    hit = walk(cstack, cdepth, cmatch, copens, odepth + 1,
                               letter, clength, cost, cword)
                    if hit is not None:
                        return hit
            if odepth and odepth - 1 <= budget:
                ccost = cost + close_row[letter]
                if ccost <= value:
                    key = cstack | close_base | tag
                    rec = seen.get(key)
                    if rec is None or ccost < rec:
                        seen[key] = ccost
                        hit = walk(cstack, cdepth, cmatch, opens >> bits,
                                   odepth - 1, letter, clength, ccost, cword)
                        if hit is not None:
                            return hit
        return None

    found = walk(0, 0, 0, 0, 0, -1, 0, 0, 0)
    if found is None:
        raise AssertionError("no almost irreducible witness at the minimum")
    return found


# ---- the command line ----------------------------------------------------
# argparse and the CLI are imported only inside build_parser, so the
# benchmark, which loads this module, loads neither.

def _add_space_options(sub):
    sub.add_argument("--space", required=True, help="space file (JSON)")
    sub.add_argument("--cap-at-one", action="store_true",
                     help="replace every distance above 1 by 1 before use")
    sub.add_argument("--cap", type=int, default=None,
                     help="override the search cap")
    sub.add_argument("--abelian", action="store_true")


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser that ``graevext.cli`` used before its table:
    the reference for ``cli.parse_args``."""
    import argparse

    from graevext.cli import (cmd_dist, cmd_frink, cmd_lemma5, cmd_member,
                              cmd_norm, cmd_schemes, cmd_ubase, cmd_validate,
                              cmd_wmember)
    parser = argparse.ArgumentParser(
        prog="graevext",
        description="Exact norms, distances and neighborhood checks on free "
                    "and free abelian groups over finite quasi-pseudometric "
                    "spaces.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the space axioms")
    p.add_argument("--space", required=True)
    p.add_argument("--bounded", action="store_true",
                   help="also require every distance to be at most 1")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("norm", help="norm of a group element")
    _add_space_options(p)
    p.add_argument("--word", required=True)
    p.add_argument("--witness", action="store_true",
                   help="also print the minimizing witness")
    p.set_defaults(func=cmd_norm)

    p = subs.add_parser("dist", help="distance between two group elements")
    _add_space_options(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_dist)

    p = subs.add_parser("member", help="strict norm ball membership")
    _add_space_options(p)
    p.add_argument("--word", required=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_member)

    p = subs.add_parser("schemes",
                        help="list the non-crossing pairings of 1..2n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_schemes)

    p = subs.add_parser("frink",
                        help="build the chain quasi-pseudometric of an "
                             "entourage sequence")
    p.add_argument("--chain", required=True,
                   help="JSON array of entourage file paths")
    p.set_defaults(func=cmd_frink)

    p = subs.add_parser("lemma5",
                        help="check a composed containment in a tripling chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--k", type=int, required=True,
                   help="0-based position of the containing entourage")
    p.add_argument("--ks", required=True,
                   help="comma-separated 0-based positions to compose")
    p.set_defaults(func=cmd_lemma5)

    p = subs.add_parser("ubase",
                        help="universal base relation of a finite T0 topology")
    p.add_argument("--topology", required=True)
    p.set_defaults(func=cmd_ubase)

    p = subs.add_parser("wmember",
                        help="decompose an abelian element into difference "
                             "pairs from an entourage sequence")
    p.add_argument("--word", required=True)
    p.add_argument("--seq", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int,
                       help="pairs over at most n distinct positions")
    group.add_argument("--kmax", type=int,
                       help="one pair per leading entourage, up to k pairs")
    p.set_defaults(func=cmd_wmember)

    return parser
