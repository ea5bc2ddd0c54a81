"""Properties of the free and abelian norms on spaces and elements that
hypothesis draws: conjugation invariance and the triangle law of the free
norm, delta as one orientation of the extension, the abelian norm against
the free norm, the abelian triangle law, homogeneity of the balanced
norm, and each norm against an exhaustive oracle, on spaces whose
common denominator is small or past 2**64; and the space loader against
its one-parse-per-entry oracle on drawn space documents."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graevext import (AbelianWord, DomainError, Letter, QPSpace, Word,
                      abelian_norm, abelian_norm_balanced, graev_norm,
                      signed_extension)
from graevext.schemes import arc_cost
from .conftest import abelianize, min_plus_close, scale
from .oracles import (_free_norm_search, brute_abelian_norm, brute_free_norm,
                      slow_space)

PROPERTY = settings(derandomize=True, database=None, max_examples=80,
                    deadline=None)


# k with gcd(k, 12 * 2**63) <= 4, so k/12 * (2**63 - 1)/2**63 has a
# denominator of at least 3 * 2**63
FINE = (1, 2, 3, 4, 5, 7, 9, 10, 11)


@st.composite
def spaces(draw, fine: bool | None = None) -> QPSpace:
    """A valid quasi-pseudometric bounded by 1 on 2 to 4 points: entries
    in twelfths, or, for a fine space (drawn when ``fine`` is None),
    twelfths k/12 with k in ``FINE`` times 1 - 2**-63.  Each such entry
    has a denominator of at least 3 * 2**63, and the least one survives
    the closure, so a fine space has a common denominator past 2**64."""
    if fine is None:
        fine = draw(st.booleans())
    n = draw(st.integers(2, 4))
    twelfths = st.sampled_from(FINE) if fine else st.integers(0, 12)
    m = [[Fraction(0) if i == j else Fraction(draw(twelfths), 12)
          for j in range(n)] for i in range(n)]
    min_plus_close(m)
    space = QPSpace(tuple("abcd"[:n]), tuple(tuple(row) for row in m))
    return scale(space, 1 - Fraction(1, 2 ** 63)) if fine else space


def letters(space: QPSpace, max_len: int):
    return st.lists(st.builds(Letter, st.sampled_from(space.points),
                              st.sampled_from((1, -1))), max_size=max_len)


def signed_letters(space: QPSpace) -> list[Letter]:
    return [Letter(p, sign) for p in space.points for sign in (1, -1)]


def elements(space: QPSpace, max_len: int):
    return letters(space, max_len).map(
        lambda ls: AbelianWord.from_terms((l.gen, l.sign) for l in ls))


def balanced(space: QPSpace, max_units: int):
    """Balanced elements: up to ``max_units`` negative letters and as many
    positive ones."""
    points = st.sampled_from(space.points)
    return st.integers(0, max_units).flatmap(lambda n: st.tuples(
        st.lists(points, min_size=n, max_size=n),
        st.lists(points, min_size=n, max_size=n))).map(
        lambda gens: AbelianWord.from_terms(
            [(x, -1) for x in gens[0]] + [(y, 1) for y in gens[1]]))


@PROPERTY
@given(st.data())
def test_abelian_norm_at_most_free_norm(data):
    space = data.draw(spaces())
    g = Word(tuple(data.draw(letters(space, 6))))
    assert abelian_norm(space, abelianize(g))[0] <= graev_norm(space, g)[0]


@PROPERTY
@given(st.data())
def test_abelian_triangle_law(data):
    space = data.draw(spaces())
    g, h = data.draw(elements(space, 6)), data.draw(elements(space, 6))
    assert abelian_norm(space, g + h)[0] <= \
        abelian_norm(space, g)[0] + abelian_norm(space, h)[0]


@PROPERTY
@given(st.data())
def test_abelian_norm_against_oracle(data):
    space = data.draw(spaces())
    h = data.draw(elements(space, 8))
    assert abelian_norm(space, h)[0] == brute_abelian_norm(space, h)


@PROPERTY
@given(st.data())
def test_norms_over_a_scale_past_2_64_against_oracles(data):
    """The flow and the interval DP read their costs off an integer view
    whose scale passes 2**64."""
    space = data.draw(spaces(fine=True))
    assert space.integer_view[0] > 2 ** 64
    h, b = data.draw(elements(space, 8)), data.draw(balanced(space, 4))
    assert abelian_norm(space, h)[0] == brute_abelian_norm(space, h)
    assert abelian_norm_balanced(space, b)[0] == brute_abelian_norm(space, b)
    g = Word(tuple(data.draw(letters(space, 3))))
    assert graev_norm(space, g)[0] == brute_free_norm(space, g)


@PROPERTY
@given(st.data())
def test_balanced_norm_is_homogeneous(data):
    """k h has norm k N(h) and the runs of h with k times the units, at a
    cost in memory that does not grow with k."""
    space = data.draw(spaces())
    h = data.draw(balanced(space, 4))
    k = data.draw(st.integers(1, 10 ** 18))
    value, witness = abelian_norm_balanced(space, h)
    kh = AbelianWord(tuple((gen, k * m) for gen, m in h.terms))
    tracemalloc.start()
    try:
        kvalue, kwitness = abelian_norm_balanced(space, kh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kvalue == k * value
    assert kwitness.runs == tuple((pair, k * units)
                                  for pair, units in witness.runs)
    assert peak < 64 * 1024


@PROPERTY
@given(spaces())
def test_arc_cost_is_one_orientation(space):
    """rho(u^-1, v) = rho(v^-1, u), so delta(u, v) is either term alone,
    for every pair of letters, the neutral one included."""
    alphabet = [Letter.neutral(), *signed_letters(space)]
    for u in alphabet:
        for v in alphabet:
            assert arc_cost(space, u, v) == \
                signed_extension(space, u.inverse(), v)


@PROPERTY
@given(st.data())
def test_free_norm_conjugation_invariant(data):
    space = data.draw(spaces())
    g = Word(tuple(data.draw(letters(space, 4))))
    w = Word(tuple(data.draw(letters(space, 3))))
    # w g w^-1 reduces to at most 10 letters, past the default cap
    assert graev_norm(space, w * g * w.inverse(), cap=10)[0] == \
        graev_norm(space, g)[0]


@PROPERTY
@given(st.data())
def test_free_triangle_law(data):
    space = data.draw(spaces())
    # g ends with w and h starts with its inverse, so the junction often
    # cancels and arcs of g h stand in for arcs through the cancelled part
    w = Word(tuple(data.draw(letters(space, 3))))
    g = Word(tuple(data.draw(letters(space, 3)))) * w
    h = w.inverse() * Word(tuple(data.draw(letters(space, 3))))
    assert graev_norm(space, g * h, cap=10)[0] <= \
        graev_norm(space, g)[0] + graev_norm(space, h)[0]
    # and every junction of one letter: g = u w and h = w^-1 v
    alphabet = signed_letters(space)
    pair = {(u, v): graev_norm(space, Word((u, v)))[0]
            for u in alphabet for v in alphabet}
    for u in alphabet:
        for v in alphabet:
            assert all(pair[u, v] <= pair[u, w] + pair[w.inverse(), v]
                       for w in alphabet)


@PROPERTY
@given(st.data())
def test_free_norm_against_search(data):
    space = data.draw(spaces())
    g = Word(tuple(data.draw(letters(space, 6)))).reduce()
    assert graev_norm(space, g)[0] == _free_norm_search(space, g)[0]


# entry values of drawn space documents: texts that repeat, some equal in
# value, and JSON integers; values above 1; entries every loader refuses
ENTRIES = ("0", "1/2", "2/4", "1/4", " 3/12 ", "1", "004/6", "-0", 0, 1)
ABOVE_ONE = ("2", 2, "5/4")
BAD_ENTRIES = (True, False, 0.5, 0.0, 1.0, None, "-1/2", "1/0", "\u0663", "1e3",
               "9" * 5000, [[1]], {"p": 1})
# the bad entries equal to a JSON int: 1 == True == 1.0, 0 == False == 0.0
EQUAL_TO_INTS = (True, False, 0.0, 1.0)
FAULTS = ("bad entry", "diagonal", "short row", "missing row", "bad point",
          "bad flag", "above one")


@st.composite
def space_documents(draw) -> dict:
    """A space document on 1 to 4 points over a few repeated texts, with up
    to two faults: a bad entry, a nonzero diagonal entry, a short row, a
    missing row, a bad point, a flag that is not a boolean, or an entry
    above 1 (a fault only when the flag is true).  Drawn apart from the
    faults, so that they come often: an entry above 1 in about a quarter
    of the documents, and a bad entry equal to 0 or 1 right after that
    JSON int in about a tenth."""
    n = draw(st.integers(1, 4))
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=2))
    zero = st.sampled_from(("0", 0, "0/5", " 0 "))
    entry = st.sampled_from(ENTRIES)
    dist = [[draw(zero if i == j else entry) for j in range(n)]
            for i in range(n)]
    where = st.integers(0, n - 1)
    if "above one" in faults or draw(st.integers(0, 3)) == 0:
        i = draw(where)
        dist[i][(i + 1) % n] = draw(st.sampled_from(ABOVE_ONE))
    if "diagonal" in faults:
        i = draw(where)
        dist[i][i] = draw(st.sampled_from(("1/2", 1) + ABOVE_ONE))
    if "bad entry" in faults:
        dist[draw(where)][draw(where)] = draw(st.sampled_from(BAD_ENTRIES))
    if n > 1 and draw(st.integers(0, 9)) == 0:
        # a bad entry right after the JSON int it equals, which a parse
        # table keyed on values, not texts, would hand back
        at = draw(st.integers(1, n * n - 1))
        twin = draw(st.sampled_from(EQUAL_TO_INTS))
        dist[(at - 1) // n][(at - 1) % n] = int(twin)
        dist[at // n][at % n] = twin
    if "short row" in faults:
        dist[draw(where)].pop()
    if "missing row" in faults:
        dist.pop()
    points = list("abcd"[:n])
    if "bad point" in faults:
        points[-1] = draw(st.sampled_from(("a", "e", "1x", 7)))
    doc = {"points": points, "dist": dist}
    flag = draw(st.sampled_from(("yes", 1, None) if "bad flag" in faults
                                else (True, False, "absent")))
    if flag != "absent":
        doc["bounded_by_one"] = flag
    return doc


def loaded_or_error(loader, doc):
    try:
        return loader(doc)
    except DomainError as exc:
        return type(exc), str(exc)


@PROPERTY
@given(space_documents())
def test_load_matches_one_parse_per_entry(doc):
    assert loaded_or_error(QPSpace.from_json_dict, doc) == \
        loaded_or_error(slow_space, doc)


# each fault once for certain.  The bad entry stands at dist[1][2] and
# again at dist[2][0], so the first one in row-major order is the one
# reported; the ints 0 and 1 before it equal False, True, 0.0 and 1.0.
@pytest.mark.parametrize("doc", [
    *({"points": ["a", "b", "c"],
       "dist": [[0, 1, "1/2"], ["1/2", "0", bad], [bad, "1/2", "0"]]}
      for bad in BAD_ENTRIES),
    {"points": ["a", "b"], "dist": [["0", "1/2"], ["1/2", "1/2"]]},
    {"points": ["a", "b"], "dist": [["0", "5/4"], ["1/2", "0"]],
     "bounded_by_one": True},
    {"points": ["a", "b"], "dist": [["0", "5/4"], ["1/2", "0"]],
     "bounded_by_one": False},
])
def test_load_matches_one_parse_per_entry_on_each_fault(doc):
    assert loaded_or_error(QPSpace.from_json_dict, doc) == \
        loaded_or_error(slow_space, doc)
