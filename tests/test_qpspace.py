import json
import random
from fractions import Fraction
from itertools import product

import pytest

from graevext import (DomainError, FormatError, Letter, QPSpace, load_space,
                      neutral_extension, parse_rational, signed_extension)
from graevext.schemes import arc_cost
from .conftest import random_qpspace
from .oracles import rho_table

F = Fraction


def space(points, rows):
    return QPSpace(tuple(points), tuple(tuple(F(x) for x in row) for row in rows))


def test_parse_rational():
    assert parse_rational("1/4") == F(1, 4)
    assert parse_rational("2") == F(2)
    assert parse_rational(3) == F(3)
    for bad in ("-1/2", "x", "1/0", 1.5, True, None,
                "1e-10000000", "1E3", "2/1e3", "0.5", ".5", "1.", "+1", "1_000",
                "\u0663", "1 / 2", "9" * 5000):
        with pytest.raises(FormatError):
            parse_rational(bad)


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
    conj = two_point_space.conjugate()
    assert conj.d("a", "b") == F(1, 2)
    assert conj.conjugate() == two_point_space
    assert conj.validate() == []
    sym = space("ab", [[0, F(1, 2)], [F(1, 2), 0]])
    assert sym.conjugate() == sym


def test_neutral_extension_cases(two_point_space):
    e = Letter.neutral()
    a, b = Letter("a", 1), Letter("b", 1)
    assert neutral_extension(two_point_space, e, e) == 0
    assert neutral_extension(two_point_space, a, b) == F(1, 4)
    assert neutral_extension(two_point_space, a, e) == 1
    assert neutral_extension(two_point_space, e, a) == 1
    assert neutral_extension(two_point_space, a, a) == 0
    with pytest.raises(DomainError):
        neutral_extension(two_point_space, Letter("a", -1), b)
    with pytest.raises(DomainError):
        neutral_extension(two_point_space, Letter("z", 1), b)
    with pytest.raises(DomainError):
        neutral_extension(two_point_space, Letter("z", 1), Letter("z", 1))


def test_signed_extension_cases(two_point_space):
    e = Letter.neutral()
    a, b = Letter("a", 1), Letter("b", 1)
    ai, bi = a.inverse(), b.inverse()
    assert signed_extension(two_point_space, ai, bi) == F(1, 2)
    assert signed_extension(two_point_space, a, bi) == 2
    assert signed_extension(two_point_space, ai, b) == 2
    assert signed_extension(two_point_space, e, e) == 0
    assert signed_extension(two_point_space, a, b) == F(1, 4)
    # the overlapping-case assertion: both matching branches give 0 at (e, e)
    assert neutral_extension(two_point_space, e, e) == 0


def test_signed_extension_restrictions(two_point_space):
    sp = two_point_space
    e = Letter.neutral()
    letters = [Letter("a", 1), Letter("b", 1), e]
    for p in letters:
        for q in letters:
            assert signed_extension(sp, p, q) == neutral_extension(sp, p, q)
    # reversal law on inverse letters
    for x in ("a", "b"):
        for y in ("a", "b"):
            assert signed_extension(sp, Letter(x, -1), Letter(y, -1)) == \
                neutral_extension(sp, Letter(y, 1), Letter(x, 1))


def test_extension_restrictions_random():
    rng = random.Random(19)
    for _ in range(10):
        sp = random_qpspace(rng, rng.randint(2, 4))
        for x in sp.points:
            for y in sp.points:
                assert neutral_extension(sp, Letter(x, 1), Letter(y, 1)) == sp.d(x, y)
        stage_one = [Letter.neutral()] + [Letter(x, 1) for x in sp.points]
        for p in stage_one:
            for q in stage_one:
                assert signed_extension(sp, p, q) == neutral_extension(sp, p, q)


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
