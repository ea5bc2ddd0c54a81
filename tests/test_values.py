"""Value semantics of the package's immutable classes, which share the
``words.Value`` base: equality within one class, hashing, refusal of
assignment and deletion, ``repr``, copying, and cached properties that
are computed once."""

import copy
import pickle
from fractions import Fraction

import pytest

from graevext import (AbelianWord, Entourage, EntourageSequence, FiniteSpace,
                      Letter, NormWitness, PairingWitness, PrefixDecomposition,
                      QPSpace, Scheme, SubsetDecomposition, Violation, Word)
from graevext.words import Value

F = Fraction
XY = ("x", "y")

# one builder per class; each call builds a new, equal value
BUILDERS = {
    Letter: lambda: Letter("a", -1),
    Word: lambda: Word((Letter("a", 1), Letter("b", -1))),
    AbelianWord: lambda: AbelianWord((("a", 2), ("b", -1))),
    Violation: lambda: Violation("bound", ("a", "b"), "d(a, b) = 2 > 1"),
    QPSpace: lambda: QPSpace(("a", "b"), ((0, F(1, 2)), (1, 0))),
    NormWitness: lambda: NormWitness(Word((Letter("a", 1), Letter("b", -1))),
                                     Scheme(((1, 2),)), F(1, 2)),
    PairingWitness: lambda: PairingWitness(
        (((Letter("a", -1), Letter("b", 1)), 2),), F(1, 2)),
    Scheme: lambda: Scheme(((1, 4), (2, 3))),
    Entourage: lambda: Entourage.from_pairs(XY, [("x", "y")]),
    EntourageSequence: lambda: EntourageSequence(
        (Entourage.full(XY), Entourage.diagonal(XY))),
    FiniteSpace: lambda: FiniteSpace(
        XY, (frozenset(), frozenset({"y"}), frozenset(XY))),
    PrefixDecomposition: lambda: PrefixDecomposition(1, (("x", "y"),)),
    SubsetDecomposition: lambda: SubsetDecomposition((2,), (("x", "y"),)),
}
CLASSES = pytest.mark.parametrize("cls", BUILDERS, ids=lambda c: c.__name__)


def _fields(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


def test_every_value_class_is_covered():
    assert len(BUILDERS) == 13
    assert all(issubclass(cls, Value) for cls in BUILDERS)


@CLASSES
def test_equal_values_hash_equal(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@CLASSES
def test_values_differing_in_one_field_are_unequal(cls):
    value = BUILDERS[cls]()
    for i in range(len(cls._fields)):
        other = object.__new__(cls)
        for j, (name, field) in enumerate(zip(cls._fields, _fields(value))):
            object.__setattr__(other, name, ("changed",) if i == j else field)
        assert value != other and other != value


@CLASSES
def test_unequal_to_fields_and_to_a_twin_class(cls):
    value = BUILDERS[cls]()
    twin = type("Twin", (Value,), {"_fields": cls._fields})(*_fields(value))
    assert _fields(twin) == _fields(value)
    assert value != _fields(value) and _fields(value) != value
    assert value != twin and twin != value


@CLASSES
def test_assignment_and_deletion_raise(cls):
    value = BUILDERS[cls]()
    before = _fields(value)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields(value) == before


@CLASSES
def test_repr_names_class_and_fields(cls):
    value = BUILDERS[cls]()
    body = ", ".join(f"{name}={field!r}"
                     for name, field in zip(cls._fields, _fields(value)))
    assert repr(value) == f"{cls.__name__}({body})"


@CLASSES
def test_copy_and_pickle_round_trip(cls):
    value = BUILDERS[cls]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_repr_literals():
    assert repr(Letter("a", -1)) == "Letter(gen='a', sign=-1)"
    assert repr(Word((Letter(None, 0),))) == \
        "Word(letters=(Letter(gen=None, sign=0),))"
    assert repr(AbelianWord((("a", 2),))) == "AbelianWord(terms=(('a', 2),))"
    assert repr(PrefixDecomposition(1, (("x", "y"),))) == \
        "PrefixDecomposition(k=1, pairs=(('x', 'y'),))"


def test_letter_equality_is_by_generator_and_sign():
    assert Letter("a", 1) == Letter("a", 1)
    assert Letter("a", 1) != Letter("a", -1)
    assert Letter("a", 1) != Letter("b", 1)
    assert Letter.neutral() == Letter(None, 0)
    assert Letter("a", 1) != ("a", 1)
    assert hash(Letter("a", -1)) == hash(("a", -1))


@pytest.mark.parametrize("cls, names", [
    (QPSpace, ("index", "integer_view")),
    (Entourage, ("index",)),
], ids=lambda x: x.__name__ if isinstance(x, type) else "-".join(x))
def test_cached_properties_are_computed_once(cls, names):
    value = BUILDERS[cls]()
    for name in names:
        assert name not in vars(value)
        first = getattr(value, name)
        assert vars(value)[name] is first
        assert getattr(value, name) is first
