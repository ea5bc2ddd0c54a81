"""The four benchmark workloads.

A workload is a stream of rounds.  Every round holds the same operations
in the same order (kinds, sizes, and the one operation that is known to
fail); the seed only picks the spaces, words and files, so a run of whole
rounds always fails the same share of its operations.  ``setup`` builds
the first ``pool`` rounds; later rounds are built when they are needed,
outside the timed operations, so no input is ever used twice and memory
does not grow with the run.

Operations call the package through module attributes (``norms.graev_norm``
rather than an imported name), so that the traced run can wrap them.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from graevext import cli, norms, words
from graevext.qpspace import QPSpace
from graevext.words import AbelianWord, Word

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 60
# Bytes that are not UTF-8: ``validate`` on such a file must exit 1 with an
# ``error:`` line.  The content does not depend on the seed.
NON_UTF8 = b'\xff\xfe{"points": ["a"], "dist": [["0"]]}'


def cli_env() -> dict:
    """The environment for a CLI process: this checkout's ``src`` first."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


class OpFailed(Exception):
    """The operation did not complete: a traceback, a crash or a timeout."""


class Op:
    """One timed operation.  ``run`` does the work; ``check`` inspects its
    result afterwards and returns ``None`` or the reason it is wrong."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind, self.run, self.check = kind, run, check


class Workload:
    name = ""
    pool = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rounds: list[list[Op]] = []

    def discard(self) -> None:
        """Drop the inputs of a previous set-up (not part of the set-up time)."""
        self.rounds = []

    def setup(self) -> None:
        """Build the inputs of the first ``pool`` rounds and load their spaces."""
        self.rounds = [self.build(r) for r in range(self.pool)]

    def round(self, r: int) -> list[Op]:
        return self.rounds[r] if r < len(self.rounds) else self.build(r)

    def build(self, r: int) -> list[Op]:
        raise NotImplementedError

    def oracle_errors(self) -> list[str]:
        """Compare a fixed sample against the brute-force oracles."""
        return []

    def rng(self, index):
        return gen.round_rng(self.name, self.seed, index)


def load(doc: dict) -> QPSpace:
    return QPSpace.from_json_dict(json.loads(json.dumps(doc)))


def gens_dist(matrix, points, x, y) -> Fraction:
    return Fraction(matrix[points.index(x)][points.index(y)], gen.DENOM)


# ---- library operations ------------------------------------------------------

def free_norm_op(space, target) -> Op:
    text = gen.word_text(target)

    def run():
        return norms.graev_norm(space, words.parse_word(text, space.points))

    def check(result):
        value, witness = result
        if witness.value != value:
            return "witness carries another value"
        return checks.free_witness(space, target, value, witness.word.letters,
                                   witness.scheme.pairs)
    return Op("free_norm", run, check)


def free_dist_op(space, x, target, expected=None) -> Op:
    """Distance from the word ``x`` to ``x * target``; with ``expected``
    (a generator pair) the value must equal the space distance."""
    y = gen.reduce_letters(x + target)
    xt, yt = gen.word_text(x), gen.word_text(y)

    def run():
        return norms.graev_dist(space, words.parse_word(xt, space.points),
                                words.parse_word(yt, space.points))

    def check(value):
        if expected is not None and value != expected:
            return f"generator distance {value}, space says {expected}"
        return checks.value_in(value, len(target))
    return Op("free_dist", run, check)


def free_member_op(space, target, eps) -> Op:
    text = gen.word_text(target)

    def run():
        return norms.ball_member(space, words.parse_word(text, space.points), eps)

    def check(member):
        # the radius is compared with a norm whose witness is checked
        value, witness = norms.graev_norm(space, Word(checks.letters_of(target)))
        return checks.free_witness(space, target, value, witness.word.letters,
                                   witness.scheme.pairs) \
            or checks.membership(member, value, eps)
    return Op("free_member", run, check)


def _abelian(counts) -> AbelianWord:
    return AbelianWord.from_mapping(counts)


def abelian_op(kind, get_space, counts, text, eps=None, start=None) -> Op:
    """An abelian query on the space ``get_space()`` returns.

    ``kind`` is ``norm``, ``balanced`` (``counts`` has coefficient sum 0),
    ``member`` (radius ``eps``) or ``dist`` (from the element ``start`` to
    ``text``, whose difference is ``counts``)."""
    length = sum(abs(m) for m in counts.values())

    def run():
        space = get_space()
        points = space.points
        if kind == "norm":
            return space, norms.abelian_norm(space, words.parse_abelian(text, points))
        if kind == "balanced":
            return space, norms.abelian_norm_balanced(
                space, words.parse_abelian(text, points))
        if kind == "member":
            return space, norms.ball_member(
                space, words.parse_abelian(text, points), eps)
        return space, norms.abelian_dist(space, words.parse_abelian(start, points),
                                         words.parse_abelian(text, points))

    def check(result):
        space, out = result
        if kind == "dist":
            return checks.value_in(out, length)
        if kind == "member":
            value, witness = norms.abelian_norm(space, _abelian(counts))
            return checks.abelian_witness(space, counts, value, witness.pairs) \
                or checks.membership(out, value, eps)
        value, witness = out
        if witness.value != value:
            return "witness carries another value"
        problem = checks.abelian_witness(space, counts, value, witness.pairs)
        if problem or kind == "norm":
            return problem
        general = norms.abelian_norm(space, _abelian(counts))[0]
        if general != value:
            return f"balanced route gives {value}, pairing route {general}"
        return None
    return Op("abelian_" + kind, run, check)


def abelian_dist_parts(rng, points, length):
    """A distance query whose difference has exactly ``length`` letters;
    returns the difference and the start and end texts."""
    start = gen.element(rng, points, rng.randint(2, 3))
    diff = gen.element(rng, points, length)
    end = gen.add_elements(start, diff)
    return diff, gen.element_text(rng, start, True), gen.element_text(rng, end, True)


# ---- free_search -------------------------------------------------------------

class FreeSearch(Workload):
    """Free-group norms, distances and ball tests on small spaces: the
    exponential candidate search does nearly all of the work."""

    name = "free_search"
    pool = 24
    # (reduced length, generators in the word, operations per round)
    MIX = ((4, 3, 4), (5, 3, 8), (6, 2, 4))
    KINDS = ("norm", "dist", "member")

    def build(self, r):
        rng = self.rng(r)
        ops = []
        for length, ngens, count in self.MIX:
            for _ in range(count):
                i = len(ops)
                points = tuple("abcd"[:3 + i % 2])
                space = load(gen.space_doc(points, gen.closed_matrix(rng, len(points))))
                target = gen.reduced_letters(rng, rng.sample(points, ngens), length)
                kind = self.KINDS[i % 3]
                if kind == "norm":
                    ops.append(free_norm_op(space, target))
                elif kind == "dist":
                    x = gen.reduced_letters(rng, rng.sample(points, 1), rng.randint(1, 2))
                    ops.append(free_dist_op(space, x, target))
                else:
                    eps = Fraction(rng.randint(1, 4 * length), 4)
                    ops.append(free_member_op(space, target, eps))
        return ops

    def oracle_errors(self):
        """Reduced-length-3 norms and generator distances on fresh spaces."""
        rng = self.rng("oracle")
        errors = []
        for _ in range(3):
            points = ("a", "b", "c")
            matrix = gen.closed_matrix(rng, 3)
            space = load(gen.space_doc(points, matrix))
            target = gen.reduced_letters(rng, rng.sample(points, 2), 3)
            word = Word(checks.letters_of(target))
            fast = norms.graev_norm(space, word)[0]
            slow = checks.oracles.brute_free_norm(space, word)
            if fast != slow:
                errors.append(f"norm of {word}: {fast}, oracle {slow}")
            for x in points:
                for y in points:
                    value = norms.graev_dist(space, Word(checks.letters_of([(x, 1)])),
                                             Word(checks.letters_of([(y, 1)])))
                    if value != gens_dist(matrix, points, x, y):
                        errors.append(f"graev_dist({x}, {y}) = {value} != d")
        return errors


# ---- abelian_fresh -----------------------------------------------------------

class AbelianFresh(Workload):
    """Every operation loads a new small space from its JSON document and
    asks one abelian question about an element of length 6 to 12."""

    name = "abelian_fresh"
    pool = 40
    PER_ROUND = 20
    KINDS = ("norm", "dist", "balanced", "member")

    def build(self, r):
        rng = self.rng(r)
        ops = []
        for i in range(self.PER_ROUND):
            kind = self.KINDS[i % 4]
            n = 2 + i % 5
            if kind == "balanced":
                length = (6, 8, 10, 12)[i // 4 % 4]
            else:
                length = 6 + i % 7
            # labels unique to this operation: no space is ever seen twice
            serial = r * self.PER_ROUND + i
            points = tuple(f"{'abcdfg'[k]}{serial}" for k in range(n))
            text = json.dumps(gen.space_doc(points, gen.closed_matrix(rng, n)))

            def get_space(text=text):
                return QPSpace.from_json_dict(json.loads(text))
            if kind == "dist":
                counts, start, end = abelian_dist_parts(rng, points, length)
                ops.append(abelian_op(kind, get_space, counts, end, start=start))
                continue
            counts = gen.element(rng, points, length, balanced=kind == "balanced")
            eps = Fraction(rng.randint(1, 4 * length), 8)
            ops.append(abelian_op(kind, get_space, counts,
                                  gen.element_text(rng, counts, i % 2 == 0), eps))
        return ops

    def oracle_errors(self):
        """Abelian norms of length 10 to 12 on fresh spaces."""
        rng = self.rng("oracle")
        errors = []
        for n, length in ((4, 10), (5, 11), (6, 12)):
            points = tuple("abcdfg"[:n])
            space = load(gen.space_doc(points, gen.closed_matrix(rng, n)))
            h = _abelian(gen.element(rng, points, length))
            fast = norms.abelian_norm(space, h)[0]
            slow = checks.oracles.brute_abelian_norm(space, h)
            if fast != slow:
                errors.append(f"abelian norm of {h}: {fast}, oracle {slow}")
        return errors


# ---- wide_space --------------------------------------------------------------

class WideSpace(Workload):
    """Nine wide spaces (16 to 24 points), each reused by its share of a
    stream of short queries; the space check that every query repeats
    dominates each operation."""

    name = "wide_space"
    pool = 40
    # Nine sizes, one query each per round, give closely spaced cost
    # levels: under a change of machine speed the percentiles move
    # smoothly instead of jumping from one level to the next.
    SIZES = tuple(range(16, 25))

    def discard(self):
        super().discard()
        self.spaces = []

    def setup(self):
        self.spaces = []
        for n in self.SIZES:
            points = tuple(f"p{k}" for k in range(n))
            matrix = gen.closed_matrix(self.rng(f"space{n}"), n)
            self.spaces.append((load(gen.space_doc(points, matrix)), points, matrix))
        super().setup()

    def build(self, r):
        """Nine queries, one of each kind; the kinds rotate over the spaces
        from round to round, one query per space."""
        rng = self.rng(r)
        ops = []
        for k in range(9):
            space, points, matrix = self.spaces[(k + r) % len(self.spaces)]

            def word(length, ngens):
                return gen.reduced_letters(rng, rng.sample(points, ngens), length)

            if k == 0:
                ops.append(free_norm_op(space, word(3, 2)))
            elif k == 1:
                x, y = rng.sample(points, 2)
                ops.append(free_dist_op(space, ((x, 1),), ((x, -1), (y, 1)),
                                        expected=gens_dist(matrix, points, x, y)))
            elif k == 2:
                ops.append(free_dist_op(space, word(1, 1), word(3, 2)))
            elif k == 3:
                ops.append(free_member_op(space, word(3, 3),
                                          Fraction(rng.randint(1, 12), 4)))
            else:
                kind, length = (("norm", 4), ("norm", 3), ("dist", 4),
                                ("balanced", 4), ("member", 4))[k - 4]
                gens = rng.sample(points, 4)

                def get_space(space=space):
                    return space
                if kind == "dist":
                    counts, start, end = abelian_dist_parts(rng, gens, length)
                    ops.append(abelian_op(kind, get_space, counts, end, start=start))
                    continue
                counts = gen.element(rng, gens, length, balanced=kind == "balanced")
                eps = Fraction(rng.randint(1, 4 * length), 8)
                ops.append(abelian_op(kind, get_space, counts,
                                      gen.element_text(rng, counts, length % 2 == 0),
                                      eps))
        return ops

    def oracle_errors(self):
        rng = self.rng("oracle")
        errors = []
        for space, points, _ in self.spaces[-2:]:
            target = gen.reduced_letters(rng, rng.sample(points, 2), 3)
            w = Word(checks.letters_of(target))
            fast = norms.graev_norm(space, w)[0]
            slow = checks.oracles.brute_free_norm(space, w)
            if fast != slow:
                errors.append(f"norm of {w}: {fast}, oracle {slow}")
            h = _abelian(gen.element(rng, rng.sample(points, 4), 8))
            fast = norms.abelian_norm(space, h)[0]
            slow = checks.oracles.brute_abelian_norm(space, h)
            if fast != slow:
                errors.append(f"abelian norm of {h}: {fast}, oracle {slow}")
        return errors


# ---- cli_session -------------------------------------------------------------

# The chain for the ``wmember`` searches has a fixed shape (6 points,
# 5 levels, built from this constant) that each round only relabels: a
# search with no decomposition explores the same states whatever the
# labels, so its cost does not depend on the seed.
WMEMBER_SHAPE = 0
WMEMBER_POINTS = tuple("pqrstu")


def _file(files: dict, path: Path, obj) -> str:
    """Add a JSON file to the round's ``files``; returns its path."""
    files[path] = json.dumps(obj).encode()
    return str(path)


def _chain_files(files: dict, directory: Path, stem: str, points, chain) -> str:
    names = []
    for level, rel in enumerate(chain):
        name = f"{stem}{level}.json"
        _file(files, directory / name,
              {"points": list(points), "relation": [[int(x) for x in row] for row in rel]})
        names.append(name)
    return _file(files, directory / f"{stem}.json", names)


class CliSession(Workload):
    """One caller running ``graevext`` subcommands one process at a time.

    With ``inprocess`` set, the same argument lists go to ``cli.main`` in
    this process instead (the traced run does that).

    A round's files are built in memory (in the set-up for the pool) and
    written to disk when the round is fetched, outside the set-up and the
    timed operations: on the reference machine the time to write the same
    files doubled with the disk's recent write activity, which would make
    ``setup_s`` measure the disk.  Written files are removed once they are
    no longer needed, so that they do not pile up."""

    name = "cli_session"
    pool = 24

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inprocess = False
        self.env = cli_env()
        self.dir = workdir / "pool"
        self.files: dict[int, dict[Path, bytes]] = {}
        self.samples = {}

    def discard(self):
        super().discard()
        shutil.rmtree(self.dir, ignore_errors=True)

    def round(self, r):
        if r >= self.pool:
            shutil.rmtree(self.workdir / "late", ignore_errors=True)
        ops = super().round(r)
        for path, data in self.files.pop(r, {}).items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        return ops

    def run_cli(self, args):
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(args))
            return code, out.getvalue(), err.getvalue()
        try:
            proc = subprocess.run([sys.executable, "-m", "graevext.cli", *args],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"timed out after {CLI_TIMEOUT_S} s") from exc
        if "Traceback (most recent call last)" in proc.stderr:
            raise OpFailed(proc.stderr.strip().splitlines()[-1])
        return proc.returncode, proc.stdout, proc.stderr

    def op(self, kind, args, check) -> Op:
        return Op(kind, lambda: self.run_cli(args), check)

    def build(self, r):
        rng = self.rng(r)
        d = (self.dir if r < self.pool else self.workdir / "late") / f"r{r}"
        files = self.files[r] = {}
        shared: dict[str, Fraction] = {}
        ops: list[Op] = []

        points = tuple("abcd"[:rng.choice((3, 4))])
        matrix = gen.closed_matrix(rng, len(points))
        doc = gen.space_doc(points, matrix)
        space = QPSpace.from_json_dict(doc)
        sp = _file(files, d / "space.json", doc)

        def norm_free(key, target):
            def check(result):
                problem, value = (checks.exit_code(result, 0), None)
                if not problem:
                    problem, value = checks.cli_free_witness(space, target, result)
                shared[key] = value
                if r == 0 and key == "w2" and value is not None:
                    self.samples[key] = (space, Word(checks.letters_of(target)), value)
                return problem
            ops.append(self.op("norm", ["norm", "--space", sp,
                                        "--word=" + gen.word_text(target), "--witness"],
                               check))

        def norm_abelian(key, counts, terms):
            def check(result):
                problem, value = (checks.exit_code(result, 0), None)
                if not problem:
                    problem, value = checks.cli_abelian_witness(space, counts, result)
                shared[key] = value
                if r == 0 and key == "h2" and value is not None:
                    self.samples[key] = (space, _abelian(counts), value)
                return problem
            ops.append(self.op("norm_abelian",
                               ["norm", "--space", sp, "--abelian",
                                "--word=" + gen.element_text(rng, counts, terms),
                                "--witness"], check))

        def member(key, text, eps, abelian):
            def check(result):
                member = checks.cli_boolean(result)
                problem = checks.exit_code(result, 0)
                if problem or member is None:
                    return problem or f"member printed {result[1]!r}"
                if shared.get(key) is None:
                    return None  # the norm it is compared with failed and is reported
                return checks.membership(member, shared[key], eps)
            ops.append(self.op("member", ["member", "--space", sp, "--word=" + text,
                                          "--eps", str(eps)]
                               + (["--abelian"] if abelian else []), check))

        w1 = gen.reduced_letters(rng, points[:3], 4)
        norm_free("w1", w1)
        norm_free("w2", gen.reduced_letters(rng, rng.sample(points, 2), 3))
        h1 = gen.element(rng, points, 8)
        norm_abelian("h1", h1, True)
        norm_abelian("h2", gen.element(rng, points, 5), False)

        x, y = rng.sample(points, 2)
        expected = gens_dist(matrix, points, x, y)
        ops.append(self.op(
            "dist", ["dist", "--space", sp, "--from=" + x, "--to=" + y],
            lambda res: checks.exit_code(res, 0) or (
                None if checks.cli_value(res) == expected
                else f"generator distance {res[1].strip()}, space says {expected}")))
        _, start_text, end_text = abelian_dist_parts(rng, points, 6)
        ops.append(self.op(
            "dist_abelian", ["dist", "--space", sp, "--abelian",
                             "--from=" + start_text, "--to=" + end_text],
            lambda res: checks.exit_code(res, 0)
            or checks.value_in(checks.cli_value(res), 6)))

        member("w1", gen.word_text(w1), Fraction(rng.randint(1, 16), 4), False)
        member("h1", gen.element_text(rng, h1, False),
               Fraction(rng.randint(1, 32), 8), True)

        ops.append(self.op(
            "validate", ["validate", "--space", sp, "--bounded"],
            lambda res: checks.exit_code(res, 0)
            or (None if res[1] == "valid\n" else f"validate printed {res[1]!r}")))
        bad = [row[:] for row in matrix]
        i, j, k = rng.sample(range(len(points)), 3)
        bad[i][j] = bad[i][k] + bad[k][j] + 1
        violations = gen.triangle_violations(points, bad)
        bad_file = _file(files, d / "broken.json", gen.space_doc(points, bad, bounded=False))
        ops.append(self.op(
            "validate_broken", ["validate", "--space", bad_file],
            lambda res: checks.exit_code(res, 1)
            or checks.cli_violations(res, violations)))
        files[d / "binary.json"] = NON_UTF8
        ops.append(self.op(
            "validate_binary", ["validate", "--space", str(d / "binary.json")],
            lambda res: checks.refusal(res, 1, "")))
        long_word = gen.word_text(gen.reduced_letters(rng, points[:3], 7))
        ops.append(self.op(
            "norm_cap", ["norm", "--space", sp, "--word=" + long_word],
            lambda res: checks.refusal(res, 2, "cap")))

        n = rng.randint(3, 6)
        ops.append(self.op("schemes", ["schemes", "--n", str(n)],
                           lambda res: checks.exit_code(res, 0)
                           or checks.cli_schemes(res, n)))

        cpoints = WMEMBER_POINTS
        chain = gen.tripling_chain(rng, len(cpoints), 5, full_start=True)
        chain_file = _chain_files(files, d, "chain", cpoints, chain)
        ops.append(self.op(
            "frink", ["frink", "--chain", chain_file],
            lambda res: checks.exit_code(res, 0)
            or checks.chain_space(json.loads(res[1]), cpoints, chain)))
        k = rng.randint(0, 2)
        ks, weight = [], Fraction(0)
        while len(ks) < 3:
            options = [i for i in range(k + 1, len(chain))
                       if weight + Fraction(1, 2 ** i) < Fraction(1, 2 ** k)]
            if not options:
                break
            ks.append(rng.choice(options))
            weight += Fraction(1, 2 ** ks[-1])
        ops.append(self.op(
            "lemma5", ["lemma5", "--chain", chain_file, "--k", str(k),
                       "--ks", ",".join(map(str, ks))],
            lambda res: checks.exit_code(res, 0)
            or (None if res[1] == "true\n" else f"lemma5 printed {res[1]!r}")))

        tpoints = tuple("vwxyz")
        le = gen.partial_order(rng, len(tpoints))
        topo = _file(files, d / "topology.json", {
            "points": list(tpoints),
            "opens": [[tpoints[i] for i in s] for s in gen.up_sets(le)]})
        ops.append(self.op(
            "ubase", ["ubase", "--topology", topo],
            lambda res: checks.exit_code(res, 0)
            or checks.preorder_base(json.loads(res[1]), tpoints, le)))

        shape = gen.tripling_chain(random.Random(WMEMBER_SHAPE), len(cpoints), 5,
                                   full_start=False)
        perm = list(range(len(cpoints)))
        rng.shuffle(perm)
        wchain = [gen.permute_relation(rel, perm) for rel in shape]
        seq = _chain_files(files, d, "wchain", cpoints, wchain)

        def pairs_from(levels):
            counts: dict[str, int] = {}
            for level in levels:
                rel = wchain[level]
                a, b = rng.choice([(a, b) for a in range(len(cpoints))
                                   for b in range(len(cpoints)) if rel[a][b]])
                counts[cpoints[a]] = counts.get(cpoints[a], 0) - 1
                counts[cpoints[b]] = counts.get(cpoints[b], 0) + 1
            return {g: m for g, m in counts.items() if m}

        sub = pairs_from(sorted(rng.sample(range(5), rng.randint(1, 3))))
        ops.append(self.op(
            "wmember_n", ["wmember", "--word=" + gen.element_text(rng, sub, True),
                          "--seq", seq, "--n", "3"],
            lambda res: checks.exit_code(res, 0)
            or checks.decomposition(res, sub, wchain, cpoints, 3, prefix=False)))
        pre = pairs_from(range(rng.randint(1, 3)))
        ops.append(self.op(
            "wmember_kmax", ["wmember", "--word=" + gen.element_text(rng, pre, True),
                             "--seq", seq, "--kmax", "5"],
            lambda res: checks.exit_code(res, 0)
            or checks.decomposition(res, pre, wchain, cpoints, 5, prefix=True)))
        # y unreachable from x in the union of the levels: no decomposition
        # exists (a sum of pairs equal to -x + y would carry a path x -> y),
        # so the search is exhaustive.
        reach = gen.reachability(shape)
        unreachable = [(a, b) for a in range(len(cpoints)) for b in range(len(cpoints))
                       if not reach[a][b]][:4]
        for a, b in unreachable:
            text = f"-{cpoints[perm[a]]} + {cpoints[perm[b]]}"
            ops.append(self.op(
                "wmember_none", ["wmember", "--word=" + text, "--seq", seq, "--n", "5"],
                lambda res: checks.exit_code(res, 0)
                or (None if res[1] == "not-member\n"
                    else f"expected not-member, got {res[1].strip()[:60]!r}")))
        return ops

    def oracle_errors(self):
        if len(self.samples) != 2:
            return ["the sampled norms of the first round did not complete"]
        errors = []
        for space, element, value in self.samples.values():
            if isinstance(element, Word):
                slow = checks.oracles.brute_free_norm(space, element)
            else:
                slow = checks.oracles.brute_abelian_norm(space, element)
            if value != slow:
                errors.append(f"cli norm of {element}: {value}, oracle {slow}")
        return errors


WORKLOADS = {w.name: w for w in (FreeSearch, AbelianFresh, WideSpace, CliSession)}
