"""Finite quasi-pseudometric spaces with exact rational distances.

A quasi-pseudometric has a zero diagonal and satisfies the triangle
inequality but need not be symmetric.  Distances here are always
``fractions.Fraction``, so minima, comparisons and equalities are exact.

``QPSpace.validate`` checks the axioms on an integer view of the matrix:
every entry over the least common multiple of the denominators.  Each
row is screened for the triangle law, and for the bound by 1, with
integer passes that run in C; only a row that fails its screen goes
through the exact ``Fraction`` loop, which words its violations.  A
space whose view would pass ``VIEW_BITS`` is refused as too large.

``signed_extension`` is the extension rho of d used by the group norms,
on the full signed alphabet: points, their formal inverses, and the
neutral letter.  Its first stage is only its restriction to the points
and the neutral letter (d between points, 1 against the neutral letter).

Space file format (JSON): ``points`` is a list of symbols, ``dist`` a
row-major matrix whose entries are rationals written as ``"p/q"`` or
integers; ``bounded_by_one`` is an optional boolean.  Parsing is strict:
the matrix must be square with an explicit zero diagonal.  Each distinct
entry text is parsed once per file, and its entries share one
``Fraction``; integer entries are parsed one by one.  Built in code,
``QPSpace(points, dist)`` takes only ``int`` (not ``bool``) and
``Fraction`` entries.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import le
from .documents import build, check_document, read_json
from .errors import CapExceeded, DomainError, FormatError
from .words import Letter, Value, check_generators, validate_symbols

ONE = Fraction(1)
TWO = Fraction(2)
# a sign is matched only so that a negative value gets its own message
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# longest rejected value an error message repeats whole
_SHOWN = 40
# most bits an integer view may take, n**2 entries of the scale's size:
# 2**26 keeps a view for 1,000 points over any scale up to 2**64, while
# a view past it could exhaust memory
VIEW_BITS = 2 ** 26


def _shown(value) -> str:
    """A rejected value as error messages show it: its ``repr``, or for a
    long one the start of it and its length in characters."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _SHOWN:
        return repr(value)
    return f"{text[:_SHOWN]!r}... ({len(text)} characters)"


def parse_rational(value) -> Fraction:
    """Parse a non-negative rational from an int or a string of ASCII
    digits, optionally ``p/q``, with whitespace around it allowed."""
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {_shown(value)}")
    if isinstance(value, (int, Fraction)):
        out = Fraction(value)
    elif isinstance(value, str) and (
            match := _RATIONAL_RE.fullmatch(value.strip())):
        p, q = match.groups()
        try:
            # int() refuses digit strings past the interpreter's limit
            out = Fraction(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {_shown(value)}") from exc
    else:
        raise FormatError(f"not a rational: {_shown(value)}")
    if out < 0:
        raise FormatError(f"negative value not allowed: {_shown(value)}")
    return out


class Violation(Value):
    """One failed axiom instance found by ``QPSpace.validate``."""

    _fields = ("kind", "where", "detail")  # kind: diagonal, triangle, bound

    def __str__(self) -> str:
        return f"{self.kind} at ({', '.join(self.where)}): {self.detail}"


class QPSpace(Value):
    """Finite point list with a square matrix of exact distances.

    Construction checks shape and non-negativity only; the metric axioms
    are checked by ``validate`` so that broken inputs can be reported
    instead of rejected wholesale.
    """

    _fields = ("points", "dist")

    def __init__(self, points, dist) -> None:
        points = validate_symbols(points)
        n = len(points)
        rows = tuple(tuple(map(_exact, row)) for row in dist)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DomainError(
                f"distance matrix must be {n}x{n} to match the point list"
            )
        super().__init__(points, rows)

    @cached_property
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self.points)

    def d(self, x: str, y: str) -> Fraction:
        try:
            return self.dist[self.index[x]][self.index[y]]
        except KeyError as exc:
            raise DomainError(f"unknown point {exc.args[0]!r}") from exc

    @cached_property
    def integer_view(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(scale, rows)`` with ``dist[i][j] == rows[i][j] / scale``, where
        ``scale`` is the least common multiple of the denominators.  Raises
        ``CapExceeded`` before any row is built once n**2 entries of the
        scale's size pass ``VIEW_BITS``."""
        scale, size = 1, len(self) ** 2
        for row in self.dist:
            for x in row:
                scale = lcm(scale, x.denominator)
                if size * scale.bit_length() > VIEW_BITS:
                    raise CapExceeded(
                        f"space too large: its integer view, {size} entries "
                        f"over a common denominator of {scale.bit_length()} "
                        f"bits or more, would pass {VIEW_BITS} bits")
        return scale, tuple(tuple(x.numerator * (scale // x.denominator)
                                  for x in row) for row in self.dist)

    def validate(self, require_bounded: bool = False) -> list[Violation]:
        """Report every violated axiom instance; empty means valid.

        Rows that pass their integer screen on ``integer_view`` are
        skipped; the others run the exact loop, so the list is the same
        as with that loop alone.
        """
        out: list[Violation] = []
        pts, dist = self.points, self.dist
        n = len(pts)
        scale, rows = self.integer_view
        for i in range(n):
            if dist[i][i] != 0:
                out.append(Violation("diagonal", (pts[i],),
                                     f"d({pts[i]}, {pts[i]}) = {dist[i][i]} != 0"))
        for i in range(n):
            if _triangles_hold(rows, i):
                continue
            for j in range(n):
                for k in range(n):
                    if dist[i][j] > dist[i][k] + dist[k][j]:
                        out.append(Violation(
                            "triangle", (pts[i], pts[j], pts[k]),
                            f"d({pts[i]}, {pts[j]}) = {dist[i][j]} > "
                            f"{dist[i][k]} + {dist[k][j]}"))
        if require_bounded:
            for i in range(n):
                if max(rows[i]) <= scale:
                    continue
                for j in range(n):
                    if dist[i][j] > 1:
                        out.append(Violation("bound", (pts[i], pts[j]),
                                             f"d({pts[i]}, {pts[j]}) = {dist[i][j]} > 1"))
        return out

    def ensure_valid(self, require_bounded: bool = False) -> None:
        violations = self.validate(require_bounded)
        if violations:
            raise DomainError(
                "invalid quasi-pseudometric space: "
                + "; ".join(str(v) for v in violations)
            )

    def is_bounded_by_one(self) -> bool:
        return all(x.numerator <= x.denominator
                   for row in self.dist for x in row)

    def cap_at_one(self) -> "QPSpace":
        """Pointwise ``min(d, 1)``; stays a valid quasi-pseudometric."""
        return QPSpace(self.points,
                       tuple(tuple(min(x, ONE) for x in row) for row in self.dist))

    def to_json_dict(self) -> dict:
        return {
            "points": list(self.points),
            "dist": [[str(x) for x in row] for row in self.dist],
            "bounded_by_one": self.is_bounded_by_one(),
        }

    @classmethod
    def from_json_dict(cls, obj) -> "QPSpace":
        check_document(obj, "space", ("points", "dist"), ("bounded_by_one",))
        # one parse per distinct text; only str keys, as True == 1 == 1.0
        parsed: dict[str, Fraction] = {}
        rows = []
        for i, row in enumerate(obj["dist"]):
            out = []
            for j, x in enumerate(row):
                if type(x) is not str:
                    value = _entry(x, i, j)
                elif (value := parsed.get(x)) is None:
                    value = parsed[x] = _entry(x, i, j)
                out.append(value)
            rows.append(tuple(out))
        space = build(cls, obj["points"], rows)
        for i in range(len(space.points)):
            if space.dist[i][i] != 0:
                raise FormatError(
                    f"diagonal entry d({space.points[i]}, {space.points[i]}) "
                    f"must be an explicit 0")
        flag = obj.get("bounded_by_one", False)
        if not isinstance(flag, bool):
            raise FormatError("'bounded_by_one' must be a boolean")
        if flag and not space.is_bounded_by_one():
            raise FormatError("space declares bounded_by_one but has entries > 1")
        return space


def _triangles_hold(rows, i: int) -> bool:
    """Whether ``rows[i][j] <= rows[i][k] + rows[k][j]`` for every j and k,
    in one C-level pass over j for each k."""
    row = rows[i]
    return all(all(map(le, row, [a + b for b in rows[k]]))
               for k, a in enumerate(row))


def _exact(value) -> Fraction:
    """A distance entry, ``int`` or ``Fraction``, as a ``Fraction``; any
    other type, or a negative value, raises ``DomainError``."""
    if type(value) is not Fraction:
        if type(value) is not int:
            raise DomainError(f"distance entries must be int or Fraction, "
                              f"got {_shown(value)}")
        value = Fraction(value)
    if value.numerator < 0:
        raise DomainError("distances must be non-negative")
    return value


def _entry(value, i: int, j: int) -> Fraction:
    """``parse_rational`` for the space file entry ``dist[i][j]``, which
    its error message names."""
    try:
        return parse_rational(value)
    except FormatError as exc:
        raise FormatError(f"dist[{i}][{j}]: {exc}") from None


def load_space(path) -> QPSpace:
    return QPSpace.from_json_dict(read_json(path))


def signed_extension(space: QPSpace, p: Letter, q: Letter) -> Fraction:
    """Stage-two extension to the full signed alphabet.

    Cases, tested in order: equal letters cost 0; a point against an
    inverse letter costs 2; two inverse-or-neutral letters are swapped
    for their inverses, in reverse order.  What is left is a pair of
    points or neutral letters, at the stage-one distance: 1 if the
    neutral letter is involved, and d otherwise.
    """
    check_generators(space, (p.gen, q.gen))
    if p == q:
        return Fraction(0)
    if p.sign * q.sign < 0:
        return TWO
    if p.sign <= 0 and q.sign <= 0:
        p, q = q.inverse(), p.inverse()
    if p.is_neutral or q.is_neutral:
        return ONE
    return space.d(p.gen, q.gen)
