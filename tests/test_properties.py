"""Properties of the free and abelian norms on spaces and elements that
hypothesis draws: conjugation invariance and the triangle law of the free
norm, the abelian norm against the free norm, the abelian triangle law,
and each norm against an exhaustive oracle; and the space loader against
its one-parse-per-entry oracle on drawn space documents."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graevext import (AbelianWord, DomainError, Letter, QPSpace, Word,
                      abelian_norm, graev_norm)
from .conftest import min_plus_close
from .oracles import _free_norm_search, brute_abelian_norm, slow_space

PROPERTY = settings(derandomize=True, database=None, max_examples=80,
                    deadline=None)


@st.composite
def spaces(draw) -> QPSpace:
    """A valid quasi-pseudometric bounded by 1 on 2 to 4 points, with
    entries in twelfths."""
    n = draw(st.integers(2, 4))
    m = [[Fraction(0) if i == j else Fraction(draw(st.integers(0, 12)), 12)
          for j in range(n)] for i in range(n)]
    min_plus_close(m)
    return QPSpace(tuple("abcd"[:n]), tuple(tuple(row) for row in m))


def letters(space: QPSpace, max_len: int):
    return st.lists(st.builds(Letter, st.sampled_from(space.points),
                              st.sampled_from((1, -1))), max_size=max_len)


def elements(space: QPSpace, max_len: int):
    return letters(space, max_len).map(
        lambda ls: AbelianWord.from_terms((l.gen, l.sign) for l in ls))


@PROPERTY
@given(st.data())
def test_abelian_norm_at_most_free_norm(data):
    space = data.draw(spaces())
    g = Word(tuple(data.draw(letters(space, 6))))
    assert abelian_norm(space, g.abelianize())[0] <= graev_norm(space, g)[0]


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
    g = Word(tuple(data.draw(letters(space, 5))))
    h = Word(tuple(data.draw(letters(space, 5))))
    assert graev_norm(space, g * h, cap=10)[0] <= \
        graev_norm(space, g)[0] + graev_norm(space, h)[0]


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
FAULTS = ("bad entry", "diagonal", "short row", "missing row", "bad point",
          "bad flag", "above one")


@st.composite
def space_documents(draw) -> dict:
    """A space document on 1 to 4 points over a few repeated texts, with up
    to two faults: a bad entry, a nonzero diagonal entry, a short row, a
    missing row, a bad point, a flag that is not a boolean, or an entry
    above 1 (a fault only when the flag is true)."""
    n = draw(st.integers(1, 4))
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=2))
    zero = st.sampled_from(("0", 0, "0/5", " 0 "))
    entry = st.sampled_from(ENTRIES)
    dist = [[draw(zero if i == j else entry) for j in range(n)]
            for i in range(n)]
    where = st.integers(0, n - 1)
    if "above one" in faults:
        i = draw(where)
        dist[i][(i + 1) % n] = draw(st.sampled_from(ABOVE_ONE))
    if "diagonal" in faults:
        i = draw(where)
        dist[i][i] = draw(st.sampled_from(("1/2", 1) + ABOVE_ONE))
    if "bad entry" in faults:
        dist[draw(where)][draw(where)] = draw(st.sampled_from(BAD_ENTRIES))
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
