"""Output checks that do not reuse the package's solver routes.

Each check returns ``None`` when the output has the property the method
must have, or a one-line reason when it does not.  Reduction, the cost
of a witness and the brute-force norms come from ``tests/oracles.py``;
the rest is computed here from the generated inputs.
"""

from __future__ import annotations

import importlib.util
import math
import re
from fractions import Fraction
from pathlib import Path

from graevext.qpspace import signed_extension
from graevext.words import Letter, Word

ROOT = Path(__file__).resolve().parent.parent


def _load_oracles():
    spec = importlib.util.spec_from_file_location(
        "graevext_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

_FREE_WITNESS = re.compile(r"value=(\S+) word=\[([^\]]*)\] scheme=\[([^\]]*)\]\Z")
_ABELIAN_WITNESS = re.compile(r"value=(\S+) pairs=\[([^\]]*)\]\Z")
_PAIR = re.compile(r"\((\d+),(\d+)\)")
_LETTER_PAIR = re.compile(r"\(([^,()]+),([^,()]+)\)")
_DECOMPOSITION = re.compile(
    r"member: (?:positions=\[([^\]]*)\]|k=(\d+)) pairs=\[([^\]]*)\]\Z")
_VIOLATION = re.compile(r"violation: (\w+) at \(([^)]*)\):")


def letters_of(pairs) -> tuple[Letter, ...]:
    return tuple(Letter(g, s) for g, s in pairs)


def letter_of(token: str) -> Letter:
    if token == "e":
        return Letter.neutral()
    if token.endswith("^-1"):
        return Letter(token[:-3], -1)
    return Letter(token, 1)


def is_noncrossing(pairs, size: int) -> bool:
    ends = sorted(x for pair in pairs for x in pair)
    if ends != list(range(1, size + 1)) or any(a >= b for a, b in pairs):
        return False
    return not any(a < c < b < d for a, b in pairs for c, d in pairs)


def value_in(value, upper) -> str | None:
    if not 0 <= value <= upper:
        return f"value {value} outside [0, {upper}]"
    return None


def membership(member: bool, value, eps) -> str | None:
    if member != (value < eps):
        return f"ball test says {member} for value {value} and radius {eps}"
    return None


def free_witness(space, target, value, letters, pairs) -> str | None:
    """A free-group norm value with its witness word and pairing.

    ``target`` is the reduced query as ``(generator, sign)`` pairs."""
    problem = value_in(value, len(target))
    if problem:
        return problem
    letters = tuple(letters)
    if not is_noncrossing(pairs, len(letters)):
        return "witness scheme is not a non-crossing pairing of the word"
    reduced = oracles.scan_reduce(Word(letters))
    if tuple((l.gen, l.sign) for l in reduced) != tuple(target):
        return "witness word does not reduce to the query"
    for a, b in zip(letters, letters[1:]):
        if not a.is_neutral and b == a.inverse():
            return "witness word is not almost irreducible"
    cost = oracles.gamma_by_formula(space, letters, pairs)
    if cost != value:
        return f"witness costs {cost}, value is {value}"
    return None


def abelian_witness(space, counts, value, pairs) -> str | None:
    """An abelian norm value with its oriented difference pairs."""
    problem = value_in(value, sum(abs(m) for m in counts.values()))
    if problem:
        return problem
    got: dict[str, int] = {}
    for u, v in pairs:
        if not u.is_neutral:
            got[u.gen] = got.get(u.gen, 0) - u.sign
        if not v.is_neutral:
            got[v.gen] = got.get(v.gen, 0) + v.sign
    if _nonzero(got) != _nonzero(counts):
        return "witness pairs do not recombine to the element"
    cost = sum((signed_extension(space, u, v) for u, v in pairs), Fraction(0))
    if cost != value:
        return f"witness pairs cost {cost}, value is {value}"
    return None


def _nonzero(counts: dict) -> dict:
    return {g: m for g, m in counts.items() if m}


# ---- command line output: results are (exit code, stdout, stderr) ----------

def exit_code(result, expected: int) -> str | None:
    code, _, err = result
    if code != expected:
        return f"exit code {code}, expected {expected}: {err.strip()[-120:]}"
    return None


def refusal(result, expected: int, word: str) -> str | None:
    """A refusal: the exit code and one ``error:`` line naming the cause."""
    problem = exit_code(result, expected)
    if problem:
        return problem
    err = result[2]
    if not err.startswith("error:") or word not in err:
        return f"refusal message {err.strip()[:80]!r} lacks 'error:' and {word!r}"
    return None


def cli_value(result) -> Fraction:
    return Fraction(result[1].splitlines()[0])


def cli_boolean(result) -> bool | None:
    return {"true\n": True, "false\n": False}.get(result[1])


def cli_free_witness(space, target, result):
    """Check ``norm --witness`` output; returns (problem, value)."""
    lines = result[1].splitlines()
    match = _FREE_WITNESS.match(lines[1]) if len(lines) == 2 else None
    if match is None:
        return "no witness line", None
    value = Fraction(lines[0])
    if Fraction(match.group(1)) != value:
        return "witness line repeats another value", None
    letters = [letter_of(t) for t in match.group(2).split()]
    pairs = [(int(a), int(b)) for a, b in _PAIR.findall(match.group(3))]
    return free_witness(space, target, value, letters, pairs), value


def cli_abelian_witness(space, counts, result):
    """Check ``norm --abelian --witness`` output; returns (problem, value)."""
    lines = result[1].splitlines()
    match = _ABELIAN_WITNESS.match(lines[1]) if len(lines) == 2 else None
    if match is None:
        return "no witness line", None
    value = Fraction(lines[0])
    if Fraction(match.group(1)) != value:
        return "witness line repeats another value", None
    pairs = [(letter_of(u), letter_of(v))
             for u, v in _LETTER_PAIR.findall(match.group(2))]
    return abelian_witness(space, counts, value, pairs), value


def cli_schemes(result, n: int) -> str | None:
    """``schemes --n n`` lists the Catalan number of distinct pairings."""
    lines = result[1].splitlines()
    catalan = math.comb(2 * n, n) // (n + 1)
    if not lines or lines[-1] != f"count: {catalan}":
        return f"count line {lines[-1:]} is not the Catalan number {catalan}"
    schemes = lines[:-1]
    if len(schemes) != catalan or len(set(schemes)) != catalan:
        return f"{len(set(schemes))} distinct schemes listed, expected {catalan}"
    for line in schemes:
        pairs = [(int(a), int(b)) for a, b in _PAIR.findall(line)]
        if not is_noncrossing(pairs, 2 * n):
            return f"{line} is not a non-crossing pairing"
    return None


def cli_violations(result, expected: set) -> str | None:
    """``validate`` on a broken space lists exactly its violated axioms."""
    found = set()
    for line in result[1].splitlines():
        match = _VIOLATION.match(line)
        if match is None:
            return f"unexpected output line {line!r}"
        found.add((match.group(1), tuple(match.group(2).split(", "))))
    if found != expected:
        return f"reported {len(found)} violations, expected {len(expected)}"
    return None


def chain_space(space_json: dict, points, chain) -> str | None:
    """A chain quasi-pseudometric: valid, bounded by 1, and sandwiched
    between the chain levels, ``V_i <= {d <= 2^-i}`` on every level and
    ``{d <= 2^-i} <= V_(i-1)`` on the inner ones."""
    if space_json.get("points") != list(points):
        return "chain metric has another point list"
    d = [[Fraction(x) for x in row] for row in space_json["dist"]]
    n = len(points)
    for i in range(n):
        if d[i][i] != 0:
            return "chain metric has a nonzero diagonal"
        for j in range(n):
            if d[i][j] > 1:
                return "chain metric exceeds 1"
            if any(d[i][j] > d[i][k] + d[k][j] for k in range(n)):
                return "chain metric breaks the triangle inequality"
    last = len(chain) - 1
    for level, rel in enumerate(chain):
        radius = Fraction(1, 2 ** level)
        for i in range(n):
            for j in range(n):
                if rel[i][j] and d[i][j] > radius:
                    return f"level {level} pair outside the ball of radius {radius}"
                if (1 <= level < last and d[i][j] <= radius
                        and not chain[level - 1][i][j]):
                    return f"ball of radius {radius} leaves level {level - 1}"
    return None


def preorder_base(rel_json: dict, points, le) -> str | None:
    """The universal base of an Alexandrov topology is its order relation."""
    if rel_json.get("points") != list(points):
        return "base relation has another point list"
    rel = [[bool(x) for x in row] for row in rel_json["relation"]]
    n = len(points)
    if any(not rel[i][i] for i in range(n)):
        return "base relation is not reflexive"
    if any(rel[i][k] and rel[k][j] and not rel[i][j]
           for i in range(n) for j in range(n) for k in range(n)):
        return "base relation is not transitive"
    if rel != [list(row) for row in le]:
        return "base relation differs from the minimal-open-set relation"
    return None


def decomposition(result, counts, chain, points, bound: int,
                  prefix: bool) -> str | None:
    """A ``wmember`` witness: pairs drawn from the named levels that sum
    back to the element."""
    line = result[1].strip()
    match = _DECOMPOSITION.match(line)
    if match is None:
        return f"expected a decomposition, got {line[:80]!r}"
    pairs = _LETTER_PAIR.findall(match.group(3))
    if prefix:
        levels = list(range(int(match.group(2))))
    else:
        levels = [int(p) - 1 for p in match.group(1).split()]
        if len(set(levels)) != len(levels):
            return "positions repeat"
    if len(levels) != len(pairs) or len(levels) > bound:
        return "witness has the wrong number of pairs"
    index = {p: i for i, p in enumerate(points)}
    got: dict[str, int] = {}
    for level, (x, y) in zip(levels, pairs):
        if not chain[level][index[x]][index[y]]:
            return f"pair ({x},{y}) is not in level {level}"
        got[x] = got.get(x, 0) - 1
        got[y] = got.get(y, 0) + 1
    if _nonzero(got) != _nonzero(counts):
        return "witness pairs do not sum to the element"
    return None
