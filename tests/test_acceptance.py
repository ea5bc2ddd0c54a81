"""End-to-end acceptance checks.

Every assertion is exact (Fraction equality, no tolerances).  Each check
prints one line when its criterion holds; run with ``pytest -v -s
tests/test_acceptance.py`` to see them.  Random data uses fixed seeds, so
all runs see the same instances.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from graevext import (AbelianWord, Entourage, EntourageSequence, Word,
                      abelian_dist, abelian_norm, abelian_norm_balanced,
                      composition_contained, frink_metric, graev_dist,
                      graev_norm, load_space, pairing_cost, parse_abelian,
                      parse_word, signed_extension)
from graevext.schemes import enumerate_schemes
from .conftest import (random_qpspace, random_reduced_word,
                       random_tripling_chain)
from .oracles import (brute_abelian_norm, brute_free_norm,
                      noncrossing_pairings)

F = Fraction
SEED = 20260808
DATA = Path(__file__).parent / "data"


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _fifty_spaces():
    rng = random.Random(SEED)
    return [random_qpspace(rng, rng.randint(2, 4), denom=16)
            for _ in range(50)]


def test_criterion_01_extension_fidelity():
    spaces = _fifty_spaces()
    start = time.monotonic()
    for sp in spaces:
        for x in sp.points:
            for y in sp.points:
                g = parse_word(x, sp.points)
                h = parse_word(y, sp.points)
                assert graev_dist(sp, g, h) == sp.d(x, y)
                assert abelian_dist(sp, AbelianWord.from_mapping({x: 1}),
                                    AbelianWord.from_mapping({y: 1})) == sp.d(x, y)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"extension fidelity took {elapsed:.1f}s"
    _passed(1, "extension fidelity")


def test_criterion_02_scaling_law():
    spaces = _fifty_spaces()
    for sp in spaces:
        for x in sp.points:
            for y in sp.points:
                for k in range(6):
                    expected = k * sp.d(x, y)
                    assert abelian_dist(sp, AbelianWord.from_mapping({x: k}),
                                        AbelianWord.from_mapping({y: k}),
                                        cap=12) == expected
    _passed(2, "scaling law")


def test_criterion_03_prenorm_axioms_and_invariance():
    rng = random.Random(SEED + 3)
    spaces = [random_qpspace(rng, 3) for _ in range(5)]
    for sp in spaces:
        assert graev_norm(sp, Word())[0] == 0
        words = [random_reduced_word(rng, sp.points, 4) for _ in range(40)]
        values = {w: graev_norm(sp, w)[0] for w in words}
        for i, g in enumerate(words):
            h = words[(i + 1) % len(words)]
            assert graev_norm(sp, g * h, cap=8)[0] <= values[g] + values[h]
            w = random_reduced_word(rng, sp.points, 1, min_len=1)
            assert graev_norm(sp, w.inverse() * g * w, cap=6)[0] == values[g]
    _passed(3, "quasi-prenorm axioms and invariance")


def test_criterion_04_balanced_oracle_equivalence():
    rng = random.Random(SEED + 4)
    for trial in range(200):
        sp = random_qpspace(rng, rng.randint(2, 4))
        mapping = {gen: 0 for gen in sp.points}
        for _ in range(rng.randint(1, 4)):
            mapping[rng.choice(sp.points)] += 1
            mapping[rng.choice(sp.points)] -= 1
        h = AbelianWord.from_mapping(mapping)
        assert h.coefficient_sum() == 0 and h.length() <= 8
        expected = brute_abelian_norm(sp, h)
        assert abelian_norm_balanced(sp, h)[0] == expected
        assert abelian_norm(sp, h)[0] == expected
    _passed(4, "balanced assignment equals the brute-force pairing oracle")


def test_criterion_05_witness_soundness():
    rng = random.Random(SEED + 5)
    checked = 0
    for trial in range(60):
        sp = random_qpspace(rng, rng.randint(2, 3))
        g = random_reduced_word(rng, sp.points, 4)
        value, witness = graev_norm(sp, g)
        assert witness.word.reduce() == g.reduce()
        assert pairing_cost(sp, witness.word, witness.scheme) == value
        assert witness.value == value

        mapping = {gen: rng.randint(-2, 2) for gen in sp.points}
        h = AbelianWord.from_mapping(mapping)
        avalue, awitness = abelian_norm(sp, h)
        assert sum((signed_extension(sp, u, v) for u, v in awitness.pairs),
                   F(0)) == avalue
        recombined = AbelianWord()
        for u, v in awitness.pairs:
            for letter, sign in ((u, -1), (v, 1)):
                if not letter.is_neutral:
                    recombined += AbelianWord.from_mapping(
                        {letter.gen: sign * letter.sign})
        assert recombined == h

        if h.coefficient_sum() == 0:
            bvalue, bwitness = abelian_norm_balanced(sp, h)
            assert sum((sp.d(z.gen, t.gen) for z, t in bwitness.pairs),
                       F(0)) == bvalue
        checked += 2
    assert checked == 120
    _passed(5, "witness soundness")


def test_criterion_06_scheme_counts():
    catalan = [1, 2, 5, 14, 42, 132, 429, 1430]
    for n, expected in zip(range(1, 9), catalan):
        assert sum(1 for _ in enumerate_schemes(n)) == expected
    for n in range(1, 6):
        brute = sorted(tuple(sorted(tuple(sorted(p)) for p in pairing))
                       for pairing in noncrossing_pairings(n))
        assert sorted(s.pairs for s in enumerate_schemes(n)) == brute
    _passed(6, "scheme counts match Catalan numbers")


def test_criterion_07_chain_metric_sandwich():
    rng = random.Random(SEED + 7)
    for trial in range(50):
        points = tuple("pqrstu"[:rng.randint(2, 6)])
        seq = random_tripling_chain(rng, points, rng.randint(2, 5))
        space = frink_metric(seq)
        assert space.validate(require_bounded=True) == []
        deepest = len(seq) - 1
        for i in range(1, deepest):
            radius = F(1, 2 ** i)
            for p in points:
                for q in points:
                    if (p, q) in seq[i]:
                        assert space.d(p, q) <= radius
                    if space.d(p, q) <= radius:
                        assert (p, q) in seq[i - 1]
    _passed(7, "chain metric sandwich inclusions")


def test_criterion_08_composition_containment():
    rng = random.Random(SEED + 8)
    for trial in range(50):
        points = tuple("pqrst"[:rng.randint(2, 5)])
        seq = random_tripling_chain(rng, points, 6, full_start=False)
        done = 0
        while done < 20:
            k = rng.randint(0, len(seq) - 3)
            p = rng.randint(1, 3)
            ks = [rng.randint(k + 2, len(seq) - 1) for _ in range(p)]
            if sum(F(1, 2 ** i) for i in ks) >= F(1, 2 ** k):
                continue
            assert composition_contained(seq, k, ks) is True
            done += 1
    _passed(8, "composed entourages stay inside the coarser one")


def test_criterion_09_pair_sum_norm_bound():
    rng = random.Random(SEED + 9)
    sampled = 0
    while sampled < 100:
        sp = random_qpspace(rng, rng.randint(2, 4))
        seq = EntourageSequence(tuple(
            Entourage(sp.points, tuple(
                tuple(sp.d(p, q) < F(1, 2 ** (i + 2)) for q in sp.points)
                for p in sp.points))
            for i in range(4)))
        for _ in range(5):
            k = rng.randint(1, 4)
            g = AbelianWord()
            for i in range(k):
                x, y = rng.choice(sorted(seq[i].pairs()))
                g += AbelianWord.from_mapping({x: -1})
                g += AbelianWord.from_mapping({y: 1})
            assert abelian_norm(sp, g)[0] < 1
            sampled += 1
    _passed(9, "sampled pair sums stay inside the unit ball")


def test_criterion_10_fixture_regression():
    sp = load_space(DATA / "two_point.json")
    golden = json.loads((DATA / "golden_two_point.json").read_text())

    cases = {
        "norm a b^-1": graev_norm(sp, parse_word("a b^-1", sp.points)),
        "norm a b": graev_norm(sp, parse_word("a b", sp.points)),
        "abelian norm -a + b": abelian_norm(sp, parse_abelian("-a + b", sp.points)),
        "abelian norm a": abelian_norm(sp, parse_abelian("a", sp.points)),
    }
    oracle = {
        "norm a b^-1": brute_free_norm(sp, parse_word("a b^-1", sp.points)),
        "norm a b": brute_free_norm(sp, parse_word("a b", sp.points)),
        "abelian norm -a + b": brute_abelian_norm(sp, parse_abelian("-a + b", sp.points)),
        "abelian norm a": brute_abelian_norm(sp, parse_abelian("a", sp.points)),
    }
    expected = {
        "norm a b^-1": F(1, 2),
        "norm a b": F(2),
        "abelian norm -a + b": F(1, 4),
        "abelian norm a": F(1),
    }
    for key, (value, witness) in cases.items():
        assert value == expected[key], key
        assert oracle[key] == expected[key], key
        assert str(value) == golden[key]["value"], key
        if "witness" in golden[key]:
            assert str(witness) == golden[key]["witness"], key
    _passed(10, "two-point fixture golden values")
