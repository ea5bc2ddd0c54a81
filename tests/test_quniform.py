import inspect
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from graevext import (AbelianWord, DomainError, Entourage, EntourageSequence,
                      FiniteSpace, FormatError, abelian_norm,
                      composition_contained, decompose_prefix,
                      decompose_subset, entourage_metric, enumerate_schemes,
                      frink_metric,
                      load_entourage, load_topology, parse_abelian,
                      quniform, universal_base)
from .conftest import (min_plus_close, random_entourage, random_qpspace,
                       random_tripling_chain)
from .oracles import brute_decompose, compose_by_matrix

F = Fraction
PTS = ("x", "y", "z")


def test_entourage_requires_reflexive():
    with pytest.raises(DomainError):
        Entourage(("x", "y"), ((True, False), (False, False)))
    with pytest.raises(DomainError):
        Entourage(("x",), ())


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, "1", None, [1]])
def test_relation_entries_are_the_ints_0_and_1(bad):
    doc = {"points": ["x", "y"], "relation": [[1, bad], [0, 1]]}
    with pytest.raises(FormatError) as info:
        Entourage.from_json_dict(doc)
    assert str(info.value) == f"relation entries must be 0 or 1, got {bad!r}"
    doc["relation"][0][1] = 1
    assert Entourage.from_json_dict(doc) == Entourage.from_pairs(
        ("x", "y"), [("x", "y")])


def test_entourage_constructor_takes_only_bools_and_0_and_1():
    with pytest.raises(DomainError) as info:
        Entourage(("x", "y"), (("0", "false"), (None, [0])))
    assert str(info.value) == "relation entries must be 0, 1 or a bool, got '0'"
    for bad in ("1", "false", None, [0], 1.0, 0.0, 2, -1, F(1)):
        with pytest.raises(DomainError) as info:
            Entourage(("x", "y"), ((1, bad), (0, 1)))
        assert str(info.value) == \
            f"relation entries must be 0, 1 or a bool, got {bad!r}"
    built = Entourage(("x", "y"), ((1, True), (0, True)))
    assert built == Entourage(("x", "y"), ((True, 1), (False, 1)))
    assert built.relation == ((True, True), (False, True))


def test_entourage_unknown_points():
    u = Entourage.full(("x", "y"))
    with pytest.raises(DomainError) as info:
        ("x", "w") in u
    assert str(info.value) == "unknown point 'w'"
    with pytest.raises(DomainError):
        u.subset_of(Entourage.full(("x", "z")))


def test_load_sequence_reads_each_file_once(tmp_path, monkeypatch):
    for name, pairs in (("u.json", [("x", "y")]), ("v.json", [])):
        (tmp_path / name).write_text(json.dumps(
            Entourage.from_pairs(("x", "y"), pairs).to_json_dict()))
    (tmp_path / "seq.json").write_text(
        json.dumps(["u.json", "v.json", "u.json", "u.json"]))
    reads = []
    read_json = quniform.read_json
    monkeypatch.setattr(quniform, "read_json",
                        lambda path: reads.append(path) or read_json(path))
    seq = quniform.load_sequence(tmp_path / "seq.json")
    assert len(reads) == 1 + 2
    assert [e is seq[0] for e in seq] == [True, False, True, True]
    assert seq[1] == Entourage.diagonal(("x", "y"))
    assert seq[0] == Entourage.from_pairs(("x", "y"), [("x", "y")])

    # one file named two ways is still read once
    (tmp_path / "full.json").write_text(json.dumps(
        Entourage.full(("x", "y")).to_json_dict()))
    (tmp_path / "sub").mkdir()
    (tmp_path / "aliases.json").write_text(json.dumps(
        ["full.json", "./full.json", "u.json", "sub/../u.json"]))
    reads.clear()
    seq = quniform.load_sequence(tmp_path / "aliases.json")
    assert len(reads) == 1 + 2
    assert seq[0] is seq[1] and seq[2] is seq[3]
    assert seq[0].is_full() and seq[2] == Entourage.from_pairs(
        ("x", "y"), [("x", "y")])


def test_entourage_builders():
    diag = Entourage.diagonal(PTS)
    assert sorted(diag.pairs()) == [("x", "x"), ("y", "y"), ("z", "z")]
    full = Entourage.full(PTS)
    assert full.is_full()
    rel = Entourage.from_pairs(PTS, [("x", "y")])
    assert ("x", "y") in rel and ("y", "x") not in rel
    with pytest.raises(DomainError):
        Entourage.from_pairs(PTS, [("x", "w")])


def test_compose_identity_and_convention():
    u = Entourage.from_pairs(PTS, [("x", "y"), ("y", "z")])
    diag = Entourage.diagonal(PTS)
    assert diag.compose(u) == u
    assert u.compose(diag) == u
    squared = u.compose(u)
    assert ("x", "z") in squared  # one step via y, left-to-right convention


def test_compose_preorder_idempotent():
    preorder = Entourage.from_pairs(PTS, [("x", "y"), ("y", "z"), ("x", "z")])
    assert preorder.compose(preorder) == preorder


def test_compose_matches_matrix_oracle():
    rng = random.Random(101)
    for _ in range(25):
        pts = tuple("pqrst"[:rng.randint(2, 5)])
        u = random_entourage(rng, pts, 0.4)
        v = random_entourage(rng, pts, 0.4)
        expected = compose_by_matrix(u, v)
        assert [list(row) for row in u.compose(v).relation] == expected


def test_compose_associative_random():
    rng = random.Random(103)
    for _ in range(15):
        pts = tuple("pqrst"[:rng.randint(2, 5)])
        u, v, w = (random_entourage(rng, pts, 0.3) for _ in range(3))
        assert u.compose(v).compose(w) == u.compose(v.compose(w))


def test_compose_associative_exhaustive_two_points():
    pts = ("p", "q")
    relations = []
    for pq in (False, True):
        for qp in (False, True):
            relations.append(Entourage(pts, ((True, pq), (qp, True))))
    diag = Entourage.diagonal(pts)
    for u in relations:
        assert diag.compose(u) == u == u.compose(diag)
        for v in relations:
            for w in relations:
                assert u.compose(v).compose(w) == u.compose(v.compose(w))


def test_compose_rejects_mismatched_points():
    with pytest.raises(DomainError):
        Entourage.full(("x",)).compose(Entourage.full(("y",)))


def test_sequence_validation():
    with pytest.raises(DomainError):
        EntourageSequence(())
    with pytest.raises(DomainError):
        EntourageSequence((Entourage.full(("x",)), Entourage.full(("y",))))
    broken = EntourageSequence((Entourage.diagonal(PTS),
                                Entourage.full(PTS)))
    assert broken.tripling_failures() == [0]
    with pytest.raises(DomainError):
        broken.ensure_tripling_chain()


def test_composition_contained_simple():
    rng = random.Random(107)
    seq = random_tripling_chain(rng, PTS, 4)
    for k in range(len(seq) - 1):
        assert composition_contained(seq, k, [k + 1]) is True


def test_composition_contained_three_terms():
    rng = random.Random(109)
    seq = random_tripling_chain(rng, ("p", "q", "r", "s"), 5)
    # three copies two levels down: 3/2^(k+2) < 1/2^k
    for k in range(len(seq) - 2):
        assert composition_contained(seq, k, [k + 2] * 3) is True


def test_composition_contained_random_selections():
    rng = random.Random(113)
    for _ in range(10):
        seq = random_tripling_chain(rng, ("p", "q", "r"), 6)
        for _ in range(10):
            k = rng.randint(0, len(seq) - 3)
            p = rng.randint(1, 3)
            ks = [rng.randint(k + 2, len(seq) - 1) for _ in range(p)]
            if sum(F(1, 2 ** i) for i in ks) >= F(1, 2 ** k):
                continue
            assert composition_contained(seq, k, ks) is True


def test_composition_contained_preconditions():
    rng = random.Random(127)
    seq = random_tripling_chain(rng, PTS, 4)
    with pytest.raises(DomainError):
        composition_contained(seq, 0, [])
    with pytest.raises(DomainError):
        composition_contained(seq, 0, [9])
    with pytest.raises(DomainError):
        composition_contained(seq, 1, [1])  # weights not below 1/2
    broken = EntourageSequence((Entourage.diagonal(PTS), Entourage.full(PTS)))
    with pytest.raises(DomainError):
        composition_contained(broken, 0, [1])


@pytest.mark.parametrize("name, call", [
    ("n", lambda seq, g, x: list(enumerate_schemes(x))),
    ("k_max", lambda seq, g, x: decompose_prefix(g, seq, x)),
    ("n", lambda seq, g, x: decompose_subset(g, seq, x)),
    ("k", lambda seq, g, x: composition_contained(seq, x, [2])),
    ("ks entries", lambda seq, g, x: composition_contained(seq, 0, [x, 2])),
], ids=["enumerate_schemes", "decompose_prefix", "decompose_subset",
        "composition_contained-k", "composition_contained-ks"])
@pytest.mark.parametrize("bad", [1.0, 1.5, True, F(1)], ids=repr)
def test_integer_arguments_take_only_int(name, call, bad):
    seq = EntourageSequence((Entourage.full(PTS), Entourage.diagonal(PTS),
                             Entourage.diagonal(PTS)))
    g = parse_abelian("-x + y", PTS)
    assert call(seq, g, 1)
    with pytest.raises(DomainError) as info:
        call(seq, g, bad)
    assert str(info.value) == f"{name} must be int, got {bad!r}"


def test_frink_all_full():
    full = Entourage.full(PTS)
    space = frink_metric(EntourageSequence((full, full, full)))
    for p in PTS:
        for q in PTS:
            expected = F(0) if p == q else F(1, 4)
            assert space.d(p, q) == expected


def test_frink_requires_full_start_and_chain():
    diag = Entourage.diagonal(PTS)
    with pytest.raises(DomainError):
        frink_metric(EntourageSequence((diag, diag)))
    with pytest.raises(DomainError):
        frink_metric(EntourageSequence((Entourage.full(PTS),
                                        Entourage.diagonal(PTS),
                                        Entourage.full(PTS))))


def test_frink_output_is_valid_bounded_space():
    rng = random.Random(131)
    for _ in range(10):
        seq = random_tripling_chain(rng, ("p", "q", "r", "s"), rng.randint(2, 5))
        space = frink_metric(seq)
        assert space.validate(require_bounded=True) == []


def test_frink_matches_level_by_level_reference():
    """Differential: each reference base weight is overwritten level by
    level, shallow to deep, with ``(p, q) in entourage``, so the deepest
    level holding the pair sets it; shortest paths then close the matrix."""
    rng = random.Random(139)
    for _ in range(30):
        pts = tuple("pqrstu"[:rng.randint(2, 6)])
        seq = random_tripling_chain(rng, pts, rng.randint(2, 5))
        ref = [[F(0)] * len(pts) for _ in pts]
        for level, entourage in enumerate(seq):
            for i, p in enumerate(pts):
                for j, q in enumerate(pts):
                    if p != q and (p, q) in entourage:
                        ref[i][j] = F(1, 2 ** level)
        min_plus_close(ref)
        space = frink_metric(seq)
        assert [[space.d(p, q) for q in pts] for p in pts] == ref


def test_frink_sandwich_random():
    rng = random.Random(137)
    for _ in range(20):
        pts = tuple("pqrstu"[:rng.randint(2, 6)])
        seq = random_tripling_chain(rng, pts, rng.randint(3, 5))
        space = frink_metric(seq)
        deepest = len(seq) - 1
        for i in range(1, deepest):
            radius = F(1, 2 ** i)
            for p in pts:
                for q in pts:
                    if (p, q) in seq[i]:
                        assert space.d(p, q) <= radius
                    if space.d(p, q) <= radius:
                        assert (p, q) in seq[i - 1]


def test_finite_space_validation():
    with pytest.raises(DomainError):
        FiniteSpace(("x", "y"), (frozenset({"x"}), frozenset({"x", "y"})))
    with pytest.raises(DomainError):
        FiniteSpace(("x", "y"), (frozenset(), frozenset({"x"}),
                                 frozenset({"y"}), frozenset({"x", "y"}),
                                 frozenset({"w"})))
    space = FiniteSpace(("x", "y"), (frozenset(), frozenset({"x"}),
                                     frozenset({"x", "y"})))
    assert space.minimal_open("x") == {"x"}
    assert space.minimal_open("y") == {"x", "y"}
    assert space.is_t0()
    with pytest.raises(DomainError) as info:
        space.minimal_open("w")
    assert str(info.value) == "unknown point 'w'"


@pytest.mark.parametrize("opens,law", [
    ([(), ("x",), ("y",), ("x", "y", "z")], "union"),
    ([(), ("x", "y"), ("y", "z"), ("x", "y", "z")], "intersection"),
])
def test_finite_space_needs_closed_family(opens, law):
    with pytest.raises(DomainError) as info:
        FiniteSpace(PTS, tuple(frozenset(o) for o in opens))
    assert f"opens not closed under {law}" in str(info.value)


@pytest.mark.parametrize("load,doc", [
    (load_entourage, {"points": 5, "relation": [[1]]}),
    (load_entourage, {"points": "xy", "relation": [[1, 0], [0, 1]]}),
    (load_entourage, {"points": ["x"], "relation": [1]}),
    (load_entourage, {"points": ["x"]}),
    (load_topology, {"points": 7, "opens": []}),
    (load_topology, {"points": "xy", "opens": [[], ["x", "y"]]}),
    (load_topology, {"points": ["a"], "opens": [[], ["a"], [["a"]]]}),
    (load_topology, {"points": ["a"], "opens": [[], ["a", 1]]}),
    (load_topology, {"points": ["a"], "opens": [[], ["a"]], "base": []}),
    (load_topology, ["a"]),
])
def test_document_shape_is_format_error(tmp_path, load, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load(path)


def test_universal_base_discrete():
    pts = ("x", "y")
    discrete = FiniteSpace(pts, (frozenset(), frozenset({"x"}),
                                 frozenset({"y"}), frozenset({"x", "y"})))
    assert universal_base(discrete) == Entourage.diagonal(pts)


def test_universal_base_rejects_non_t0():
    indiscrete = FiniteSpace(("x", "y"), (frozenset(), frozenset({"x", "y"})))
    with pytest.raises(DomainError):
        universal_base(indiscrete)


def test_universal_base_sierpinski():
    space = FiniteSpace(("a", "b"), (frozenset(), frozenset({"a"}),
                                     frozenset({"a", "b"})))
    base = universal_base(space)
    assert base == Entourage.from_pairs(("a", "b"), [("b", "a")])
    assert base.compose(base) == base


def _all_preorders(n):
    pts = tuple("pqrs"[:n])
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bitsmask in range(1 << len(off_diag)):
        rows = [[i == j for j in range(n)] for i in range(n)]
        for bit, (i, j) in enumerate(off_diag):
            if bitsmask >> bit & 1:
                rows[i][j] = True
        ent = Entourage(pts, tuple(tuple(r) for r in rows))
        if ent.compose(ent) == ent:
            yield ent


@pytest.mark.parametrize("n", [2, 3])
def test_universal_base_is_unique_compatible_preorder(n):
    # a preorder induces the same topology (same minimal neighborhoods)
    # exactly when it equals the universal base relation
    pts = tuple("pqrs"[:n])
    chain_opens = [frozenset(pts[:k]) for k in range(n + 1)]
    space = FiniteSpace(pts, tuple(chain_opens))
    base = universal_base(space)
    for candidate in _all_preorders(n):
        same_neighborhoods = all(
            {q for q in pts if (p, q) in candidate} == space.minimal_open(p)
            for p in pts)
        assert same_neighborhoods == (candidate == base)


def test_entourage_metric_trivial_and_base():
    space = FiniteSpace(("a", "b"), (frozenset(), frozenset({"a"}),
                                     frozenset({"a", "b"})))
    base = universal_base(space)
    full = Entourage.full(("a", "b"))
    for v in (full, base):
        rho = entourage_metric(space, v)
        assert rho.validate(require_bounded=True) == []
        for p in ("a", "b"):
            for q in ("a", "b"):
                if rho.d(p, q) < 1:
                    assert (p, q) in v


def test_entourage_metric_strictly_between():
    # three points; the chosen entourage admits a two-step relay through
    # the base relation, which an unscaled construction would let slip
    # under distance 1
    opens = (frozenset(), frozenset({"a"}), frozenset({"c"}),
             frozenset({"a", "c"}), frozenset({"a", "b"}),
             frozenset({"a", "b", "c"}))
    space = FiniteSpace(("a", "b", "c"), opens)
    v = Entourage.from_pairs(("a", "b", "c"), [("b", "a"), ("a", "c")])
    assert universal_base(space).subset_of(v)
    assert not v.is_full()
    rho = entourage_metric(space, v)
    assert rho.validate(require_bounded=True) == []
    for p in ("a", "b", "c"):
        for q in ("a", "b", "c"):
            if rho.d(p, q) < 1:
                assert (p, q) in v


def test_entourage_metric_needs_the_topology_points():
    space = FiniteSpace(("x", "y"), (frozenset(), frozenset({"x", "y"})))
    with pytest.raises(DomainError) as info:
        entourage_metric(space, Entourage.full(("x", "z")))
    assert str(info.value) == \
        "entourage and topology use different point lists"


def test_entourage_metric_requires_base_containment():
    space = FiniteSpace(("a", "b"), (frozenset(), frozenset({"a"}),
                                     frozenset({"a", "b"})))
    with pytest.raises(DomainError):
        entourage_metric(space, Entourage.diagonal(("a", "b")))


def test_decompose_prefix_examples():
    u1 = Entourage.from_pairs(PTS, [("x", "y")])
    u2 = Entourage.from_pairs(PTS, [("y", "z")])
    seq = EntourageSequence((u1, u2))
    identity = parse_abelian("0", PTS)
    hit = decompose_prefix(identity, seq, 1)
    assert hit is not None and hit.k == 1 and hit.pairs[0][0] == hit.pairs[0][1]
    hit = decompose_prefix(parse_abelian("-x + y", PTS), seq, 2)
    assert hit is not None and hit.k == 1 and hit.pairs == (("x", "y"),)
    chained = decompose_prefix(parse_abelian("-x + z", PTS), seq, 2)
    assert chained is not None and chained.k == 2
    assert chained.pairs == (("x", "y"), ("y", "z"))
    assert decompose_prefix(parse_abelian("-z + x", PTS), seq, 2) is None


def test_decompose_prefix_monotone():
    rng = random.Random(139)
    for _ in range(15):
        pts = ("p", "q", "r")
        seq = EntourageSequence(tuple(random_entourage(rng, pts, 0.3)
                                      for _ in range(4)))
        g = parse_abelian(rng.choice(["-p + q", "-q + r", "-2p + q + r"]), pts)
        hits = [decompose_prefix(g, seq, k) is not None
                for k in range(1, len(seq) + 1)]
        # once found, found for every larger bound
        assert hits == sorted(hits)


def test_decompose_prefix_preconditions():
    seq = EntourageSequence((Entourage.full(PTS),))
    with pytest.raises(DomainError):
        decompose_prefix(parse_abelian("-x + y", PTS), seq, 2)
    with pytest.raises(DomainError):
        decompose_prefix(parse_abelian("-x + y", PTS), seq, 0)
    with pytest.raises(DomainError):
        decompose_prefix(parse_abelian("-a + b", ("a", "b")), seq, 1)


def test_decompose_prefix_rejects_unbalanced():
    seq = EntourageSequence((Entourage.full(PTS),))
    assert decompose_prefix(parse_abelian("x", PTS), seq, 1) is None


def test_decompose_subset_examples():
    u1 = Entourage.from_pairs(PTS, [("x", "y")])
    diag = Entourage.diagonal(PTS)
    g = parse_abelian("-2x + 2y", PTS)
    seq = EntourageSequence((u1, diag))
    assert decompose_subset(parse_abelian("0", PTS), seq, 2) is not None
    assert decompose_subset(g, seq, 1) is None
    assert decompose_subset(g, seq, 2) is None  # only one entourage has (x, y)
    seq3 = EntourageSequence((u1, diag, u1))
    hit = decompose_subset(g, seq3, 2)
    assert hit is not None
    assert hit.positions == (1, 3)
    assert hit.pairs == (("x", "y"), ("x", "y"))
    # a tie between orders: positions (1, 2) with pairs ((y,z), (x,y)) also
    # work, but (1, (x,y), 3, (y,z)) comes first in (position, pair) order
    tie = EntourageSequence((Entourage.from_pairs(PTS, [("x", "y"), ("y", "z")]),
                             Entourage.from_pairs(PTS, [("x", "y")]),
                             Entourage.from_pairs(PTS, [("y", "z")])))
    hit = decompose_subset(parse_abelian("-x + z", PTS), tie, 2)
    assert (hit.positions, hit.pairs) == ((1, 3), (("x", "y"), ("y", "z")))


def test_decompose_subset_length_bound():
    rng = random.Random(149)
    seq = EntourageSequence(tuple(random_entourage(rng, PTS, 0.8)
                                  for _ in range(3)))
    long_g = parse_abelian("-3x + 3z", PTS)
    assert long_g.length() == 6
    assert decompose_subset(long_g, seq, 2) is None


def test_decompose_subset_rejects_unbalanced():
    seq = EntourageSequence((Entourage.full(PTS),))
    assert decompose_subset(parse_abelian("2x - y", PTS), seq, 1) is None


def test_decompose_witnesses_reevaluate():
    from graevext import AbelianWord
    rng = random.Random(151)
    for _ in range(10):
        pts = ("p", "q", "r")
        seq = EntourageSequence(tuple(random_entourage(rng, pts, 0.4)
                                      for _ in range(3)))
        mapping = {}
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(pts), rng.choice(pts)
            mapping[a] = mapping.get(a, 0) - 1
            mapping[b] = mapping.get(b, 0) + 1
        g = AbelianWord.from_mapping(mapping)
        for witness, check_positions in (
                (decompose_prefix(g, seq, len(seq)), False),
                (decompose_subset(g, seq, len(seq)), True)):
            if witness is None:
                continue
            recombined = AbelianWord()
            for x, y in witness.pairs:
                recombined += AbelianWord.from_mapping({x: -1}) \
                    + AbelianWord.from_mapping({y: 1})
            assert recombined == g
            if check_positions:
                assert len(set(witness.positions)) == len(witness.positions)
                for pos, (x, y) in zip(witness.positions, witness.pairs):
                    assert (x, y) in seq[pos - 1]


def test_decompose_against_brute_force():
    rng = random.Random(163)
    outcomes = set()
    for _ in range(400):
        pts = ("p", "q", "r")[:rng.randint(2, 3)]
        seq = EntourageSequence(tuple(
            random_entourage(rng, pts, rng.choice([0.15, 0.3, 0.5]))
            for _ in range(rng.randint(1, 4))))
        mapping = {}
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(pts), rng.choice(pts)
            mapping[a] = mapping.get(a, 0) - 1
            mapping[b] = mapping.get(b, 0) + 1
        if rng.random() < 0.1:
            mapping[pts[0]] = mapping.get(pts[0], 0) + 1
        g = AbelianWord.from_mapping(mapping)
        bound = rng.randint(1, len(seq))
        prefix = decompose_prefix(g, seq, bound)
        expected = brute_decompose(g, seq, bound, subset=False)
        assert (None if prefix is None else (prefix.k, prefix.pairs)) == expected
        subset = decompose_subset(g, seq, bound)
        expected = brute_decompose(g, seq, bound, subset=True)
        assert (None if subset is None
                else (subset.positions, subset.pairs)) == expected
        outcomes.add((prefix is None, subset is None,
                      subset is not None and subset.positions
                      != tuple(range(1, len(subset.positions) + 1))))
    # hits and misses of both kinds, and subset witnesses that skip a level
    assert {(False, False, False), (False, False, True), (True, False, True),
            (True, True, False)} <= outcomes


def test_long_sequences_need_no_recursion():
    pts = ("x", "y")
    seq = EntourageSequence((Entourage.diagonal(pts),) * 299
                            + (Entourage.from_pairs(pts, [("x", "y")]),))
    miss, hit = parse_abelian("-y + x", pts), parse_abelian("-x + y", pts)
    zero = parse_abelian("0", pts)
    # 25 frames above the caller: enough for the calls themselves, far
    # less than a recursion over 300 levels needs
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 25)
    try:
        results = [decompose_prefix(miss, seq, 300),
                   decompose_subset(miss, seq, 2),
                   decompose_subset(miss, seq, 300),
                   decompose_prefix(zero, seq, 300),
                   decompose_subset(hit, seq, 300)]
    finally:
        sys.setrecursionlimit(limit)
    assert results[:3] == [None, None, None]
    assert results[3].k == 1 and results[3].pairs == (("x", "x"),)
    assert results[4].positions == (300,) and results[4].pairs == (("x", "y"),)


def test_deep_hit_needs_few_searches(monkeypatch):
    # the least k is 300, so counting up from 1 would search 300 times
    pts = ("x", "y")
    seq = EntourageSequence((Entourage.diagonal(pts),) * 299
                            + (Entourage.from_pairs(pts, [("x", "y")]),))
    searches = []
    search = quniform._first_choice
    monkeypatch.setattr(quniform, "_first_choice",
                        lambda *args: searches.append(args) or search(*args))
    found = decompose_prefix(parse_abelian("-x + y", pts), seq, 300)
    assert len(searches) <= 12
    assert found.k == 300
    assert found.pairs == (("x", "x"),) * 299 + (("x", "y"),)


def _up_closed(points, arcs) -> bool:
    return all(y in points for x, y in arcs if x in points)


def _mass(g, points) -> int:
    return sum(m for gen, m in g.terms if gen in points)


@pytest.mark.parametrize("decompose", [decompose_subset, decompose_prefix])
def test_cut_refuses_unreachable_miss_at_once(decompose):
    # c does not reach a, so nothing refutes the search before the last of
    # its remainders; the cut refuses -c + a at {c}, which gains 1 and
    # loses nothing
    pts = ("a", "b", "c")
    seq = EntourageSequence(
        (Entourage.from_pairs(pts, [("a", "b"), ("b", "c")]),) * 300)
    g = parse_abelian("-c + a", pts)
    start = time.perf_counter()
    assert decompose(g, seq, 300) is None
    assert time.perf_counter() - start < 1


def test_cut_needs_a_flow_not_reachability():
    # a and b each reach a positive point, but both only reach c, so d is
    # left over: the flow carries 1 of the 2 units
    pts = ("a", "b", "c", "d")
    level = sorted(Entourage.from_pairs(pts, [("a", "c"), ("b", "c")]).pairs())
    g = parse_abelian("-a - b + c + d", pts)
    cut = quniform._cut(g, [level])
    assert cut == {"a", "b", "c"} and _mass(g, cut) == -1
    seq = EntourageSequence((Entourage.from_pairs(pts, [("a", "c"), ("b", "c")]),))
    assert decompose_subset(g, seq, 1) is None
    assert quniform._cut(parse_abelian("-a - b + 2c", pts), [level]) is None


def test_cut_against_brute_force():
    rng = random.Random(167)
    fired = 0
    outcomes = set()
    for _ in range(300):
        pts = ("p", "q", "r", "s")[:rng.randint(2, 4)]
        seq = EntourageSequence(tuple(
            random_entourage(rng, pts, rng.choice([0.2, 0.35]))
            for _ in range(rng.randint(1, 3))))
        mapping = {}
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(pts), rng.choice(pts)
            mapping[a] = mapping.get(a, 0) - 1
            mapping[b] = mapping.get(b, 0) + 1
        g = AbelianWord.from_mapping(mapping)
        bound = rng.randint(1, len(seq))
        for decompose, subset, usable in ((decompose_prefix, False, bound),
                                          (decompose_subset, True, len(seq))):
            levels = [sorted(e.pairs()) for e in seq[:usable]]
            arcs = {pair for level in levels for pair in level}
            cut = quniform._cut(g, levels)
            # the cut fails exactly when some up-closed set loses mass
            least = min(_mass(g, o) for size in range(len(pts) + 1)
                        for o in itertools.combinations(pts, size)
                        if _up_closed(o, arcs))
            assert (cut is None) == (least >= 0)
            found = decompose(g, seq, bound)
            expected = brute_decompose(g, seq, bound, subset)
            got = (None if found is None else
                   ((found.positions if subset else found.k), found.pairs))
            assert got == expected
            outcomes.add((cut is None, expected is None))
            if cut is not None:
                fired += 1
                assert _up_closed(cut, arcs) and _mass(g, cut) < 0
                assert expected is None
    assert fired > 100
    # hits, misses the cut refuses, and misses only the search finds
    assert outcomes == {(True, False), (False, True), (True, True)}


def test_wp_members_fall_in_norm_balls():
    # sequence built from metric balls: sampled members have small norm
    rng = random.Random(157)
    for _ in range(5):
        sp = random_qpspace(rng, 3)
        seq = EntourageSequence(tuple(
            Entourage(sp.points, tuple(
                tuple(sp.d(p, q) < F(1, 2 ** (i + 2)) for q in sp.points)
                for p in sp.points))
            for i in range(4)))
        for _ in range(10):
            k = rng.randint(1, 4)
            g = parse_abelian("0", sp.points)
            for i in range(k):
                x, y = rng.choice(list(seq[i].pairs()))
                g += parse_abelian(f"-{x} + {y}", sp.points)
            assert abelian_norm(sp, g)[0] < 1
            found = decompose_prefix(g, seq, 4)
            assert found is not None
