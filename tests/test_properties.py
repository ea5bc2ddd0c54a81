"""Properties of the free and abelian norms on spaces and elements that
hypothesis draws: conjugation invariance and the triangle law of the free
norm, the abelian norm against the free norm, the abelian triangle law,
and each norm against an exhaustive oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from graevext import AbelianWord, Letter, QPSpace, Word, abelian_norm, graev_norm
from .conftest import min_plus_close
from .oracles import _free_norm_search, brute_abelian_norm

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
