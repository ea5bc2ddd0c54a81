import json
import random
from fractions import Fraction
from itertools import product

import pytest

from graevext import (DomainError, FormatError, Letter, QPSpace, load_space,
                      parse_rational, signed_extension)
from graevext import qpspace
from graevext.qpspace import SCALE_LIMIT, _triangles_hold
from graevext.schemes import arc_cost
from .conftest import conjugate, min_plus_close, random_qpspace
from .oracles import brute_violations, rho_table

F = Fraction


def space(points, rows):
    return QPSpace(tuple(points), tuple(tuple(F(x) for x in row) for row in rows))


def test_parse_rational():
    assert parse_rational("1/4") == F(1, 4)
    assert parse_rational("2") == F(2)
    assert parse_rational(3) == F(3)
    assert parse_rational(" 004/6 ") == F(2, 3)
    assert parse_rational("-0") == 0
    for bad in ("-1/2", "x", "1/0", 1.5, True, None,
                "1e-10000000", "1E3", "2/1e3", "0.5", ".5", "1.", "+1", "1_000",
                "\u0663", "1 / 2", "9" * 5000, "1/" + "9" * 5000, "0/0"):
        with pytest.raises(FormatError) as info:
            parse_rational(bad)
        negative = isinstance(bad, str) and bad.startswith("-")
        assert str(info.value).startswith(
            "negative value not allowed: " if negative else "not a rational: ")


def test_one_point_space_valid():
    assert space("a", [[0]]).validate(require_bounded=True) == []


def test_two_point_fixture_valid(two_point_space):
    assert two_point_space.validate(require_bounded=True) == []
    # independent check of all 8 triangle instances
    pts = two_point_space.points
    for x, y, z in product(pts, repeat=3):
        assert two_point_space.d(x, y) <= two_point_space.d(x, z) + two_point_space.d(z, y)


def test_triangle_violation_reported():
    bad = space("abc", [[0, F(1, 4), 1], [F(1, 4), 0, F(1, 4)], [1, F(1, 4), 0]])
    violations = bad.validate()
    kinds = {(v.kind, v.where) for v in violations}
    assert ("triangle", ("a", "c", "b")) in kinds
    with pytest.raises(DomainError):
        bad.ensure_valid()


def test_diagonal_violation_reported():
    bad = space("ab", [[F(1, 2), 1], [1, 0]])
    assert any(v.kind == "diagonal" and v.where == ("a",) for v in bad.validate())


def _rough_entry(rng) -> Fraction:
    denom = rng.choice((1, 7, 9, 12))
    return F(rng.randint(0, 2 * denom), denom)


def _rough_space(rng, kind: str) -> QPSpace:
    """A space over mixed denominators 1, 7, 9 and 12 with entries up to 2,
    closed under min-plus, then left alone ("closed"), with some entries
    redrawn ("perturbed"), or with some diagonal entries made non-zero
    ("diagonal", built through ``QPSpace`` since a file must have zeros)."""
    n = rng.randint(1, 6)
    m = [[F(0) if i == j else _rough_entry(rng) for j in range(n)]
         for i in range(n)]
    min_plus_close(m)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == "perturbed" and i != j:
            m[i][j] = _rough_entry(rng)
        elif kind == "diagonal":
            m[i][i] = _rough_entry(rng) or F(1, 7)
    return QPSpace(tuple("abcdfg"[:n]), tuple(tuple(row) for row in m))


def test_validate_against_brute_force():
    """Whole violation lists, kinds, places, wording and order, equal the
    triple loop's on random spaces of every kind, with and without the
    bound by 1; the integer screen flags exactly the rows that break a
    triangle."""
    rng = random.Random(311)
    seen = {"diagonal": 0, "triangle": 0, "bound": 0, "valid": 0}
    spaces = [space("abc", [[0, F(5, 12), F(2, 9)], [F(1, 7), 0, F(2, 9)],
                            [F(2, 9), F(2, 9), 0]]),
              space("abc", [[0, F(5, 12), F(2, 9)], [F(1, 7), 0, F(2, 9)],
                            [F(2, 9), F(1, 7), 0]])]
    spaces += [_rough_space(rng, kind) for _ in range(150)
               for kind in ("closed", "perturbed", "diagonal")]
    for sp in spaces:
        for require_bounded in (False, True):
            expected = brute_violations(sp, require_bounded)
            assert sp.validate(require_bounded) == expected
            seen["valid"] += not expected
            for violation in expected:
                seen[violation.kind] += 1
        # the screen itself is exact: a row fails it iff the row breaks a
        # triangle, so no valid row pays for the exact loop
        failing = {v.where[0] for v in expected if v.kind == "triangle"}
        assert [not _triangles_hold(sp.integer_view[1], i)
                for i in range(len(sp))] == [p in failing for p in sp.points]
    assert spaces[0].integer_view[0] == 252
    assert spaces[0].validate() == []
    assert [v.where for v in spaces[1].validate()] == [("a", "b", "c")]
    assert min(seen.values()) >= 100, seen


def test_validate_without_integer_view():
    """Past ``SCALE_LIMIT`` no integer view is built and every row takes
    the exact loop, with the same violations on valid and broken spaces."""
    assert space("ab", [[0, F(1, 2 ** 64)], [1, 0]]).integer_view[0] == SCALE_LIMIT
    assert space("ab", [[0, F(1, 2 ** 64)], [F(1, 3), 0]]).integer_view is None
    primes = iter(p for p in range(2, 114) if all(p % q for q in range(2, p)))
    # the 30 off-diagonal entries of six points, one prime denominator
    # each, all in [1/2, 1): a valid space bounded by 1
    rows = [[F(0) if i == j else None for j in range(6)] for i in range(6)]
    for i, j in product(range(6), repeat=2):
        if i != j:
            p = next(primes)
            rows[i][j] = F(p - 1, p)
    assert next(primes, None) is None
    valid = space("abcdfg", rows)
    assert valid.integer_view is None
    assert valid.validate(True) == brute_violations(valid, True) == []
    rows[0][1], rows[3][2] = F(2), F(1, 113)
    broken = space("abcdfg", rows)
    assert broken.integer_view is None
    for require_bounded in (False, True):
        expected = brute_violations(broken, require_bounded)
        assert broken.validate(require_bounded) == expected
    assert {v.kind for v in expected} == {"triangle", "bound"}


def test_valid_space_validation_does_no_fraction_arithmetic(monkeypatch):
    """A valid space passes on integers alone: no ``Fraction`` sum is taken
    once the space is built."""
    rng = random.Random(41)
    points = tuple(f"p{i}" for i in range(24))
    m = [[F(0) if i == j else F(rng.randint(1, 12), 12) for j in range(24)]
         for i in range(24)]
    min_plus_close(m)
    closed = QPSpace(points, tuple(tuple(row) for row in m))

    def boom(*args):
        raise AssertionError("Fraction arithmetic in validate")

    monkeypatch.setattr(Fraction, "__add__", boom)
    monkeypatch.setattr(Fraction, "__radd__", boom)
    assert closed.validate(require_bounded=True) == []


def test_bound_violation_only_when_required():
    big = space("ab", [[0, 3], [3, 0]])
    assert big.validate() == []
    assert any(v.kind == "bound" for v in big.validate(require_bounded=True))


def test_structural_errors():
    with pytest.raises(DomainError):
        QPSpace(("a", "b"), ((F(0),),))
    with pytest.raises(DomainError):
        space("ab", [[0, -1], [1, 0]])
    with pytest.raises(FormatError):
        QPSpace(("a", "e"), ((F(0), F(0)), (F(0), F(0))))


def test_unknown_point_and_negative_scale():
    sp = space("ab", [[0, 1], [1, 0]])
    with pytest.raises(DomainError) as info:
        sp.d("a", "c")
    assert str(info.value) == "unknown point 'c'"
    with pytest.raises(DomainError):
        sp.scale(F(-1))
    assert sp.scale(F(1, 2)).d("a", "b") == F(1, 2)


@pytest.mark.parametrize("factor", [True, False, 0.5, 2.0, "2", None, [2]],
                         ids=repr)
def test_scale_takes_only_int_and_fraction(factor):
    sp = space("ab", [[0, 1], [F(1, 2), 0]])
    with pytest.raises(DomainError) as info:
        sp.scale(factor)
    assert str(info.value) == \
        f"scale factor must be an int or a Fraction, got {factor!r}"
    assert sp.scale(3).dist == sp.scale(F(3)).dist == \
        ((0, 3), (F(3, 2), 0))


def test_constructor_takes_only_int_and_fraction_entries():
    assert QPSpace(("a", "b"), ((0, F(1, 2)), (1, 0))).dist == \
        ((F(0), F(1, 2)), (F(1), F(0)))
    with pytest.raises(DomainError) as info:
        QPSpace(("a", "b"), ((0, "1e-200000"), (0.1, True)))
    assert str(info.value) == \
        "distance entries must be int or Fraction, got '1e-200000'"
    for bad in (0.1, True, False, "1", None, 1.0):
        with pytest.raises(DomainError) as info:
            QPSpace(("a", "b"), ((0, bad), (1, 0)))
        assert str(info.value) == \
            f"distance entries must be int or Fraction, got {bad!r}"
    # one walk checks type and sign, so the first fault met is reported
    for negative in (-1, F(-1, 2)):
        with pytest.raises(DomainError) as info:
            QPSpace(("a", "b"), ((0, negative), (0.1, 0)))
        assert str(info.value) == "distances must be non-negative"


def test_load_parses_each_distinct_text_once(monkeypatch):
    n = 24
    doc = {"points": [f"p{k}" for k in range(n)],
           "dist": [["0" if i == j else f"{min(abs(i - j), 12)}/12"
                     for j in range(n)] for i in range(n)],
           "bounded_by_one": True}
    calls = []
    parse = qpspace.parse_rational
    monkeypatch.setattr(qpspace, "parse_rational",
                        lambda value: calls.append(value) or parse(value))
    sp = QPSpace.from_json_dict(doc)
    assert len(calls) == len(set(calls)) == 13
    assert sp.d("p0", "p5") == F(5, 12) and sp.d("p20", "p0") == 1
    assert sp.dist[0][5] is sp.dist[5][0] is sp.dist[7][2]
    assert sp.validate(require_bounded=True) == []


def test_cap_at_one():
    big = space("ab", [[0, 3], [F(1, 4), 0]])
    capped = big.cap_at_one()
    assert capped.d("a", "b") == 1
    assert capped.d("b", "a") == F(1, 4)
    assert capped.validate(require_bounded=True) == []


def test_cap_preserves_validity_random():
    rng = random.Random(23)
    for _ in range(20):
        sp = random_qpspace(rng, rng.randint(2, 4))
        doubled = sp.scale(F(3))
        assert doubled.cap_at_one().validate(require_bounded=True) == []


def test_conjugate(two_point_space):
    conj = conjugate(two_point_space)
    assert conj.d("a", "b") == F(1, 2)
    assert conjugate(conj) == two_point_space
    assert conj.validate() == []
    sym = space("ab", [[0, F(1, 2)], [F(1, 2), 0]])
    assert conjugate(sym) == sym


def test_neutral_extension_cases(two_point_space):
    # signed_extension restricted to the points and e (its first stage)
    e = Letter.neutral()
    a, b = Letter("a", 1), Letter("b", 1)
    assert signed_extension(two_point_space, e, e) == 0
    assert signed_extension(two_point_space, a, b) == F(1, 4)
    assert signed_extension(two_point_space, a, e) == 1
    assert signed_extension(two_point_space, e, a) == 1
    assert signed_extension(two_point_space, a, a) == 0
    with pytest.raises(DomainError):
        signed_extension(two_point_space, Letter("z", 1), b)
    with pytest.raises(DomainError):
        signed_extension(two_point_space, Letter("z", 1), Letter("z", 1))


def test_signed_extension_cases(two_point_space):
    e = Letter.neutral()
    a, b = Letter("a", 1), Letter("b", 1)
    ai, bi = a.inverse(), b.inverse()
    assert signed_extension(two_point_space, ai, bi) == F(1, 2)
    assert signed_extension(two_point_space, a, bi) == 2
    assert signed_extension(two_point_space, ai, b) == 2
    assert signed_extension(two_point_space, e, e) == 0
    assert signed_extension(two_point_space, a, b) == F(1, 4)


def test_signed_extension_axioms_random(two_point_space):
    rng = random.Random(29)
    spaces = [random_qpspace(rng, rng.randint(2, 5)) for _ in range(12)]
    for sp in [two_point_space] + spaces:
        e = Letter.neutral()
        letters = [e]
        for gen in sp.points:
            letters.append(Letter(gen, 1))
            letters.append(Letter(gen, -1))
        table = {(p, q): signed_extension(sp, p, q)
                 for p in letters for q in letters}
        assert table == rho_table(sp)
        for p in letters:
            for q in letters:
                assert arc_cost(sp, p, q) == arc_cost(sp, q, p)
            if p != e:
                assert arc_cost(sp, p, p.inverse()) == 0
                assert arc_cost(sp, p, e) == 1
        for p in letters:
            assert table[p, p] == 0
        for p in letters:
            for q in letters:
                assert table[p, q] <= 2
                for r in letters:
                    assert table[p, q] <= table[p, r] + table[r, q]


def test_space_file_round_trip(tmp_path, two_point_space):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(two_point_space.to_json_dict()))
    assert load_space(path) == two_point_space


@pytest.mark.parametrize("doc", [
    {"points": ["a"], "dist": [["1"]]},                      # nonzero diagonal
    {"points": ["a", "b"], "dist": [["0", "1"]]},            # not square
    {"points": ["a"], "dist": [["0"]], "extra": 1},          # unknown field
    {"points": ["a", "b"], "dist": [["0", "x"], ["1", "0"]]},
    {"points": ["a", "b"], "dist": [["0", "2"], ["1", "0"]],
     "bounded_by_one": True},                                # bound contradicted
    {"points": "ab", "dist": [["0"]]},
])
def test_space_file_strictness(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_space(path)


def test_space_file_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_space(path)
