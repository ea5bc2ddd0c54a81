import inspect
import random
import sys
import time
from fractions import Fraction
from itertools import groupby

import pytest

from graevext import (AbelianWord, CapExceeded, DomainError, Letter, QPSpace,
                      Word, abelian_dist, abelian_norm, abelian_norm_balanced,
                      ball_member, enumerate_schemes, graev_dist, graev_norm,
                      norm, pairing_cost, parse_abelian, parse_word,
                      signed_extension)
from graevext import norms
from graevext.flow import min_cost_flow
from .conftest import conjugate, random_qpspace, random_reduced_word, scale
from .oracles import (_constrained_witness, _EngineContext, _free_norm_search,
                      almost_irreducible, brute_abelian_norm, brute_assignment,
                      brute_free_norm, gamma_by_formula, scan_reduce)

F = Fraction


def test_identity_norm(two_point_space):
    value, witness = graev_norm(two_point_space, Word())
    assert value == 0
    assert witness.word == Word() and witness.scheme.pairs == ()
    value, _ = graev_norm(two_point_space, parse_word("a a^-1 e", two_point_space.points))
    assert value == 0


def test_fixture_norms(two_point_space):
    sp = two_point_space
    value, witness = graev_norm(sp, parse_word("a b^-1", sp.points))
    assert value == F(1, 2)
    assert str(witness.word) == "a b^-1"
    assert witness.scheme.pairs == ((1, 2),)
    value, _ = graev_norm(sp, parse_word("a b", sp.points))
    assert value == 2


def test_norm_matches_brute_oracle(two_point_space):
    rng = random.Random(41)
    spaces = [two_point_space] + [random_qpspace(rng, 2) for _ in range(3)]
    for sp in spaces:
        for _ in range(12):
            g = random_reduced_word(rng, sp.points, 3)
            expected = brute_free_norm(sp, g)
            got, witness = graev_norm(sp, g)
            if expected is None:
                expected = F(0)
            assert got == expected
            assert witness.word.reduce() == g.reduce()


def test_norm_matches_brute_oracle_three_generators():
    rng = random.Random(42)
    sp = random_qpspace(rng, 3)
    for _ in range(6):
        g = random_reduced_word(rng, sp.points, 2, min_len=1)
        assert graev_norm(sp, g)[0] == brute_free_norm(sp, g)
    g = random_reduced_word(rng, sp.points, 3, min_len=3)
    assert graev_norm(sp, g)[0] == brute_free_norm(sp, g)


def test_witness_contract(two_point_space):
    rng = random.Random(43)
    for trial in range(30):
        sp = random_qpspace(rng, rng.randint(2, 3))
        g = random_reduced_word(rng, sp.points, 4)
        value, witness = graev_norm(sp, g)
        reduced = g.reduce()
        assert witness.word.reduce() == reduced
        assert almost_irreducible(witness.word)
        if len(reduced):
            assert len(witness.word) <= 2 * len(reduced)
            allowed = {l for l in reduced} | {l.inverse() for l in reduced} \
                | {Letter.neutral()}
            assert set(witness.word.letters) <= allowed
        assert pairing_cost(sp, witness.word, witness.scheme) == value
        assert witness.value == value


def test_dp_matches_exhaustive_walk():
    # the interval DP against the former exhaustive walk over the whole
    # candidate family, at the lengths where the walk still runs quickly
    rng = random.Random(83)
    for length in (4, 5, 6):
        for trial in range(4):
            sp = random_qpspace(rng, rng.randint(2, 4), denom=rng.randint(1, 12))
            g = random_reduced_word(rng, sp.points, length, min_len=length)
            value, witness = graev_norm(sp, g)
            assert value == _free_norm_search(sp, g)[0]
            assert scan_reduce(witness.word) == g
            assert gamma_by_formula(sp, witness.word.letters,
                                    witness.scheme.pairs) == value


def _least_matching(cost, n: int) -> Fraction:
    """Least ``cost`` of a non-crossing partial matching of 0..n-1, over
    every partial matching: ``cost(i, k)`` for a pair and ``cost(i, None)``
    for an unmatched position."""
    def matchings(free):
        if not free:
            yield []
            return
        i, rest = free[0], free[1:]
        for m in matchings(rest):
            yield [(i, None)] + m
        for k in rest:
            for m in matchings([x for x in rest if x != k]):
                yield [(i, k)] + m
    return min(sum(cost(i, k) for i, k in m) for m in matchings(list(range(n)))
               if not any(a < c < b < d for a, b in m for c, d in m
                          if b is not None and d is not None))


def test_dp_scale_clears_any_half_sum_of_two_rho(monkeypatch):
    """The DP puts delta over twice the view's scale, which clears half a
    sum of two rho whatever they are.  Here the second term is not the
    other orientation (then both agree), so delta takes halves of the
    view's unit."""
    def lopsided(space, u, v):
        return (signed_extension(space, u.inverse(), v)
                + signed_extension(space, u, v)) / 2

    monkeypatch.setattr(norms, "arc_cost", lopsided)
    rng = random.Random(97)
    for trial in range(12):
        sp = random_qpspace(rng, rng.randint(2, 3), denom=rng.choice((1, 3, 16)))
        letters = random_reduced_word(rng, sp.points, 6, min_len=1).letters
        neutral = Letter.neutral()
        assert norms._interval_dp(sp, letters)[0] == _least_matching(
            lambda i, k: lopsided(sp, letters[i],
                                  neutral if k is None else letters[k]),
            len(letters))


def test_long_word_needs_no_recursion():
    rng = random.Random(89)
    sp = random_qpspace(rng, 3)
    g = random_reduced_word(rng, sp.points, 150, min_len=150)
    expected = graev_norm(sp, g, cap=150)
    # 25 frames above the caller: enough for the call itself, far less
    # than a recursion over the segments of 150 letters needs
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 25)
    try:
        got = graev_norm(sp, g, cap=150)
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def test_constrained_witness_pass(two_point_space):
    # the exhaustive walk's fallback pass must recover an almost
    # irreducible word whose best pairing hits the exact norm value, for
    # any input it can be handed
    rng = random.Random(44)
    for trial in range(25):
        sp = random_qpspace(rng, rng.randint(2, 3))
        g = random_reduced_word(rng, sp.points, 4, min_len=1)
        value, _ = graev_norm(sp, g)
        ctx = _EngineContext(sp, g.reduce())
        packed = _constrained_witness(ctx, int(value * ctx.scale))
        codes = []
        pos = ctx.width - ctx.bits
        while pos >= 0 and (packed >> pos) & ctx.mask:
            codes.append(((packed >> pos) & ctx.mask) - 1)
            pos -= ctx.bits
        word = Word(tuple(ctx.letters[c] for c in codes))
        assert almost_irreducible(word)
        assert word.reduce() == g.reduce()
        assert len(word) % 2 == 0 and len(word) <= 2 * g.reduced_length()
        best = min(pairing_cost(sp, word, s)
                   for s in enumerate_schemes(len(word) // 2))
        assert best == value


def test_norm_deterministic(two_point_space):
    sp = two_point_space
    g = parse_word("a b a^-1", sp.points)
    first = graev_norm(sp, g)
    second = graev_norm(sp, g)
    assert first == second


def test_norm_cap(two_point_space):
    long_word = parse_word("a b a b a b a", two_point_space.points)
    with pytest.raises(CapExceeded):
        graev_norm(two_point_space, long_word)
    value, _ = graev_norm(two_point_space, long_word, cap=7)
    assert value > 0


def test_norm_requires_bounded_space():
    big = QPSpace(("a", "b"), ((F(0), F(3)), (F(2), F(0))))
    with pytest.raises(DomainError):
        graev_norm(big, parse_word("a", big.points))
    with pytest.raises(DomainError):
        abelian_norm(big, parse_abelian("a", big.points))


def test_norm_rejects_unknown_generator(two_point_space):
    with pytest.raises(DomainError):
        graev_norm(two_point_space, Word((Letter("z", 1),)))


def test_dist_extension(two_point_space):
    sp = two_point_space
    a, b = parse_word("a", sp.points), parse_word("b", sp.points)
    assert graev_dist(sp, a, a) == 0
    assert graev_dist(sp, a, b) == F(1, 4)
    assert graev_dist(sp, b, a) == F(1, 2)


def test_prenorm_axioms_random():
    rng = random.Random(47)
    for trial in range(6):
        sp = random_qpspace(rng, rng.randint(2, 3))
        words = [random_reduced_word(rng, sp.points, 3) for _ in range(6)]
        values = {}
        for w in words:
            values[w] = graev_norm(sp, w)[0]
            assert values[w] >= 0
        for g in words[:3]:
            for h in words[:3]:
                assert graev_norm(sp, g * h, cap=6)[0] <= values[g] + values[h]


def test_invariance_under_conjugation():
    rng = random.Random(53)
    for trial in range(10):
        sp = random_qpspace(rng, 2)
        g = random_reduced_word(rng, sp.points, 3)
        w = random_reduced_word(rng, sp.points, 1, min_len=1)
        conjugated = w.inverse() * g * w
        assert graev_norm(sp, conjugated, cap=6)[0] == graev_norm(sp, g)[0]


def test_monotone_in_the_metric():
    rng = random.Random(59)
    for trial in range(10):
        sp = random_qpspace(rng, 2)
        halved = scale(sp, F(1, 2))
        g = random_reduced_word(rng, sp.points, 3)
        assert graev_norm(halved, g)[0] <= graev_norm(sp, g)[0]


def test_abelian_norm_examples(two_point_space):
    sp = two_point_space
    value, witness = abelian_norm(sp, parse_abelian("-a + b", sp.points))
    assert value == F(1, 4)
    assert witness.pairs == ((Letter("a", 1), Letter("b", 1)),)
    value, _ = abelian_norm(sp, parse_abelian("-2a + 2b", sp.points))
    assert value == F(1, 2)
    value, witness = abelian_norm(sp, parse_abelian("a", sp.points))
    assert value == 1
    assert witness.pairs in (((Letter("a", -1), Letter.neutral()),),
                             ((Letter.neutral(), Letter("a", 1)),))
    assert abelian_norm(sp, AbelianWord())[0] == 0


def test_abelian_witness_sound(two_point_space):
    rng = random.Random(61)
    for trial in range(40):
        sp = random_qpspace(rng, rng.randint(2, 4))
        mapping = {gen: rng.randint(-2, 2) for gen in sp.points}
        h = AbelianWord.from_mapping(mapping)
        value, witness = abelian_norm(sp, h)
        total = sum((signed_extension(sp, u, v) for u, v in witness.pairs),
                    F(0))
        assert total == value
        delta = AbelianWord()
        for u, v in witness.pairs:
            for letter, sign in ((u, -1), (v, 1)):
                if not letter.is_neutral:
                    delta = delta + AbelianWord.from_mapping(
                        {letter.gen: sign * letter.sign})
        assert delta == h


def test_abelian_norm_matches_oracle():
    rng = random.Random(67)
    for trial in range(30):
        sp = random_qpspace(rng, rng.randint(2, 3))
        mapping = {gen: rng.randint(-3, 3) for gen in sp.points}
        h = AbelianWord.from_mapping(mapping)
        assert abelian_norm(sp, h)[0] == brute_abelian_norm(sp, h)


def test_abelian_cap(two_point_space):
    with pytest.raises(CapExceeded):
        abelian_norm(two_point_space,
                     AbelianWord.from_mapping({"a": 7, "b": -6}))


def test_cap_refuses_the_identity_below_zero(two_point_space):
    """Each cap refuses exactly the elements longer than it, so the
    identity, of length 0, passes a cap of 0 and fails a cap of -1."""
    sp = two_point_space
    identity = parse_word("a a^-1 e", sp.points)
    with pytest.raises(CapExceeded, match="cap -1"):
        graev_norm(sp, identity, cap=-1)
    with pytest.raises(CapExceeded, match="cap -1"):
        abelian_norm(sp, AbelianWord(), cap=-1)
    value, witness = graev_norm(sp, identity, cap=0)
    assert value == 0 and witness.word == Word() and witness.scheme.pairs == ()
    value, witness = abelian_norm(sp, AbelianWord(), cap=0)
    assert value == 0 and witness.pairs == ()


def test_abelian_witness_runs_carry_an_odd_letter(two_point_space):
    """Unshipped letters pair in term order across generators: the odd a
    of 3a pairs with the first b, and an odd letter left over with e."""
    a, b, e = Letter("a", 1), Letter("b", 1), Letter.neutral()
    value, witness = abelian_norm(two_point_space,
                                  parse_abelian("3a + 2b", ("a", "b")))
    assert value == 5
    assert witness.runs == (((a.inverse(), a), 1), ((a.inverse(), b), 1),
                            ((b.inverse(), e), 1))
    value, witness = abelian_norm(two_point_space,
                                  parse_abelian("-a - 4b + 2a", ("a", "b")))
    assert value == F(1, 2) + 3
    assert witness.runs == (((b, a), 1), ((b, b.inverse()), 1),
                            ((b, e), 1))
    assert witness.pairs == ((b, a), (b, b.inverse()), (b, e))
    assert str(witness) == "value=7/2 pairs=[(b,a) (b,b^-1) (b,e)]"


def test_balanced_examples(two_point_space):
    sp = two_point_space
    value, witness = abelian_norm_balanced(sp, parse_abelian("-a + b", sp.points))
    assert value == F(1, 4)
    assert witness.pairs == ((Letter("a", 1), Letter("b", 1)),)
    assert abelian_norm_balanced(sp, parse_abelian("-2a + 2b", sp.points))[0] == F(1, 2)


def test_balanced_three_point():
    sp = QPSpace(("a", "b", "c"),
                 ((F(0), F(1, 2), F(1, 8)),
                  (F(1, 4), F(0), F(1, 3)),
                  (F(1, 2), F(1, 2), F(0))))
    assert not sp.validate()
    h = parse_abelian("-a - b + 2c", sp.points)
    assert abelian_norm_balanced(sp, h)[0] == sp.d("a", "c") + sp.d("b", "c")


def test_abelian_assignment_crosses_term_order():
    # only a->d and b->c are short, so the optimal assignment crosses the
    # term order, whichever sign class has more letters
    one, eighth = F(1), F(1, 8)
    sp = QPSpace(("a", "b", "c", "d"),
                 ((F(0), one, one, eighth),
                  (one, F(0), eighth, one),
                  (one, one, F(0), one),
                  (one, one, one, F(0))))
    assert not sp.validate(require_bounded=True)
    cases = {"-a - b + c + d": (F(1, 4), "(a,d) (b,c)"),
             "-a - b + 2c + d": (F(5, 4), "(a,d) (b,c) (c^-1,e)"),
             "-a - 2b + c + d": (F(5, 4), "(a,d) (b,c) (b,e)")}
    for text, (value, pairs) in cases.items():
        h = parse_abelian(text, sp.points)
        assert brute_abelian_norm(sp, h) == value
        assert str(abelian_norm(sp, h)[1]) == f"value={value} pairs=[{pairs}]"
    h = parse_abelian("-a - b + c + d", sp.points)
    assert abelian_norm_balanced(sp, h) == abelian_norm(sp, h)


def test_abelian_flow_reroutes_the_cheapest_pair():
    # a->c and b->c both cost 0, and the first of them is wrong: after it
    # b can only go to d at 3/4, so the flow must send a's unit back from
    # c to d along the residual arc
    z, third, half = F(0), F(3, 8), F(3, 4)
    sp = QPSpace(("a", "b", "c", "d"),
                 ((z, z, z, third),
                  (third, z, z, half),
                  (third, third, z, half),
                  (half, third, third, z)))
    assert not sp.validate(require_bounded=True)
    h = parse_abelian("-a - b + c + d", sp.points)
    assert brute_abelian_norm(sp, h) == third
    assert str(abelian_norm(sp, h)[1]) == "value=3/8 pairs=[(a,d) (b,c)]"


def test_balanced_rejects_unbalanced(two_point_space):
    with pytest.raises(DomainError):
        abelian_norm_balanced(two_point_space,
                              parse_abelian("a", two_point_space.points))


def test_balanced_equals_pairing_norm():
    rng = random.Random(71)
    for trial in range(40):
        sp = random_qpspace(rng, rng.randint(2, 4))
        pool = {gen: 0 for gen in sp.points}
        for _ in range(rng.randint(1, 4)):
            plus, minus = rng.choice(sp.points), rng.choice(sp.points)
            pool[plus] += 1
            pool[minus] -= 1
        h = AbelianWord.from_mapping(pool)
        assert abelian_norm_balanced(sp, h)[0] == brute_abelian_norm(sp, h)


def test_balanced_allows_unbounded_space():
    sp = QPSpace(("a", "b"), ((F(0), F(3)), (F(5), F(0))))
    assert abelian_norm_balanced(sp, parse_abelian("-2a + 2b", sp.points))[0] == 6


def test_flow_against_permutations():
    # unit supplies on the rows, unit demands on the columns: the kernel
    # is an assignment of the smaller side into the larger one
    rng = random.Random(73)

    def check(n: int, m: int) -> None:
        cost = [[F(rng.randint(0, 20), rng.randint(1, 8)) for _ in range(m)]
                for _ in range(n)]
        rows = [("row", i) for i in range(n)]
        cols = [("col", j) for j in range(m)]
        arcs = {(rows[i], cols[j]): cost[i][j]
                for i in range(n) for j in range(m)}
        flow, reached = min_cost_flow(dict.fromkeys(rows, 1),
                                      dict.fromkeys(cols, 1), arcs)
        assert set(flow.values()) <= {0, 1}
        assert all(sum(flow[r, c] for c in cols) <= 1 for r in rows)
        assert all(sum(flow[r, c] for r in rows) <= 1 for c in cols)
        assert sum(flow.values()) == min(n, m)
        # an unmatched row still reaches every row and column
        assert reached == (set(rows + cols) if n > m else set())
        expected = (brute_assignment(cost) if n <= m else
                    brute_assignment([list(col) for col in zip(*cost)]))
        assert sum((arcs[arc] * units for arc, units in flow.items()),
                   F(0)) == expected

    for trial in range(30):
        n = rng.randint(1, 5)
        check(n, n)
    # rectangular both ways, down to no rows
    for n, m in ((0, 3), (1, 4), (2, 5), (3, 6), (4, 5), (2, 3),
                 (3, 0), (4, 1), (5, 2), (3, 2)):
        check(n, m)


def test_abelian_large_multiplicity(monkeypatch):
    sp = QPSpace(("a", "b", "c"),
                 ((F(0), F(1, 2), F(1, 8)),
                  (F(1, 4), F(0), F(1, 3)),
                  (F(1, 2), F(1, 2), F(0))))
    assert not sp.validate(require_bounded=True)
    calls = []

    def counted(*args):
        calls.append(args)
        return signed_extension(*args)

    monkeypatch.setattr(norms, "signed_extension", counted)
    for text, expected in (
            ("-300a - 200b + 500c", 300 * sp.d("a", "c") + 200 * sp.d("b", "c")),
            ("-1000000a + 1000000c", 1000000 * sp.d("a", "c"))):
        h = parse_abelian(text, sp.points)
        calls.clear()
        start = time.perf_counter()
        value, witness = abelian_norm_balanced(sp, h)
        assert time.perf_counter() - start < 1
        assert value == expected
        # the witness is re-priced once per distinct pair, not per unit
        runs = [(pair, len(list(run))) for pair, run in groupby(witness.pairs)]
        assert len(calls) <= len({pair for pair, _ in runs})
        assert AbelianWord.from_terms(
            (gen, sign * units) for (u, v), units in runs
            for gen, sign in ((u.gen, -u.sign), (v.gen, v.sign)) if gen) == h


def test_conjugate_space_law():
    # the norm over the transposed distance is the norm of the inverse
    rng = random.Random(97)
    for trial in range(20):
        sp = random_qpspace(rng, rng.randint(2, 4))
        g = random_reduced_word(rng, sp.points, 5)
        assert graev_norm(conjugate(sp), g)[0] == graev_norm(sp, g.inverse())[0]
        h = AbelianWord.from_mapping({gen: rng.randint(-3, 3)
                                      for gen in sp.points})
        assert abelian_norm(conjugate(sp), h)[0] == abelian_norm(sp, -h)[0]


def test_abelian_dist(two_point_space):
    sp = two_point_space
    g = parse_abelian("2a - b", sp.points)
    assert abelian_dist(sp, g, g) == 0
    assert abelian_dist(sp, parse_abelian("3a", sp.points),
                        parse_abelian("3b", sp.points)) == F(3, 4)
    assert abelian_dist(sp, parse_abelian("a", sp.points),
                        parse_abelian("b", sp.points)) == F(1, 4)


def test_scaling_law(two_point_space):
    sp = two_point_space
    for k in range(6):
        for x, y in (("a", "b"), ("b", "a")):
            g = AbelianWord.from_mapping({x: k})
            h = AbelianWord.from_mapping({y: k})
            expected = k * sp.d(x, y) if x != y else F(0)
            assert abelian_dist(sp, g, h, cap=12) == expected


def test_subadditive_pairing_bound():
    rng = random.Random(79)
    for trial in range(25):
        sp = random_qpspace(rng, rng.randint(2, 4))
        pairs = [(rng.choice(sp.points), rng.choice(sp.points))
                 for _ in range(rng.randint(1, 5))]
        total = AbelianWord()
        bound = F(0)
        for x, y in pairs:
            total = total + AbelianWord.from_mapping({x: -1}) \
                + AbelianWord.from_mapping({y: 1})
            bound += sp.d(x, y)
        assert abelian_norm(sp, total)[0] <= bound


def test_ball_member(two_point_space):
    sp = two_point_space
    assert ball_member(sp, Word(), F(1, 100))
    assert ball_member(sp, parse_abelian("-a + b", sp.points), F(1, 2))
    assert not ball_member(sp, parse_abelian("-a + b", sp.points), F(1, 4))
    assert ball_member(sp, parse_word("a b^-1", sp.points), F(3, 4))
    assert not ball_member(sp, parse_word("a b^-1", sp.points), F(1, 2))
    with pytest.raises(DomainError):
        ball_member(sp, Word(), F(0))
    with pytest.raises(DomainError):
        ball_member(sp, "a", F(1))


@pytest.mark.parametrize("bad", [0.1, 0.5, True, "1/2", None])
def test_ball_member_takes_only_exact_radii(bad):
    """The norm of a b^-1 is exactly 1/10 here, so it is not in the ball of
    radius 1/10; the float 0.1 is a little above 1/10 and is refused."""
    sp = QPSpace(("a", "b"), ((0, F(1, 10)), (F(1, 10), 0)))
    g = parse_word("a b^-1", sp.points)
    assert norm(sp, g)[0] == F(1, 10)
    assert not ball_member(sp, g, F(1, 10))
    assert ball_member(sp, g, F(1, 5)) and ball_member(sp, g, 1)
    with pytest.raises(DomainError) as info:
        ball_member(sp, g, bad)
    assert str(info.value) == f"eps must be an int or a Fraction, got {bad!r}"


def test_norm_dispatches_on_element_type(two_point_space):
    sp = two_point_space
    word = parse_word("a b^-1 a", sp.points)
    element = parse_abelian("-2a + b", sp.points)
    assert norm(sp, word) == graev_norm(sp, word)
    assert norm(sp, element) == abelian_norm(sp, element)
    with pytest.raises(DomainError):
        norm(sp, "a b^-1")


def test_norm_default_caps(two_point_space):
    sp = two_point_space
    word = parse_word("a b a b a b a", sp.points)
    element = parse_abelian("7a - 6b", sp.points)
    for g, length in ((word, 7), (element, 13)):
        with pytest.raises(CapExceeded):
            norm(sp, g)
        with pytest.raises(CapExceeded):
            ball_member(sp, g, F(1))
        assert norm(sp, g, cap=length)[0] > 0
        assert ball_member(sp, g, F(100), cap=length)
