import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from graevext import (CapExceeded, graev_norm, load_space, parse_rational,
                      parse_word)
from graevext.cli import COMMANDS, main

DATA = Path(__file__).parent / "data"
SPACE = str(DATA / "two_point.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_fixture(capsys):
    code, out, _ = run(capsys, "norm", "--space", SPACE, "--word", "a b^-1")
    assert code == 0 and out == "1/2\n"


def test_norm_witness_line(capsys):
    code, out, _ = run(capsys, "norm", "--space", SPACE,
                       "--word", "a b^-1", "--witness")
    assert code == 0
    assert out == "1/2\nvalue=1/2 word=[a b^-1] scheme=[(1,2)]\n"


def test_norm_abelian(capsys):
    code, out, _ = run(capsys, "norm", "--space", SPACE, "--abelian",
                       "--word", "a", "--witness")
    assert code == 0
    assert out == "1\nvalue=1 pairs=[(a^-1,e)]\n"


def test_dist_scaling(capsys):
    code, out, _ = run(capsys, "dist", "--space", SPACE, "--abelian",
                       "--from", "2a", "--to", "2b")
    assert code == 0 and out == "1/2\n"


def test_dist_free(capsys):
    code, out, _ = run(capsys, "dist", "--space", SPACE,
                       "--from", "a", "--to", "b")
    assert code == 0 and out == "1/4\n"


def test_member(capsys):
    code, out, _ = run(capsys, "member", "--space", SPACE, "--abelian",
                       "--word", "-a + b", "--eps", "1/2")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "member", "--space", SPACE, "--abelian",
                       "--word", "-a + b", "--eps", "1/4")
    assert (code, out) == (0, "false\n")
    code, _, err = run(capsys, "member", "--space", SPACE,
                       "--word", "a", "--eps", "0")
    assert code == 1 and "eps" in err


def test_schemes_output(capsys):
    code, out, _ = run(capsys, "schemes", "--n", "3")
    assert code == 0
    assert out == ("(1,2)(3,4)(5,6)\n(1,2)(3,6)(4,5)\n(1,4)(2,3)(5,6)\n"
                   "(1,6)(2,3)(4,5)\n(1,6)(2,5)(3,4)\ncount: 5\n")


def test_schemes_cap_exit_code(capsys):
    code, _, err = run(capsys, "schemes", "--n", "12")
    assert code == 2 and "cap" in err


def test_norm_cap_exit_code(capsys):
    code, _, err = run(capsys, "norm", "--space", SPACE,
                       "--word", "a b a b a b a")
    assert code == 2
    code, out, _ = run(capsys, "norm", "--space", SPACE,
                       "--word", "a b a b a b a", "--cap", "7")
    assert code == 0


def test_identity_under_negative_cap_exit_code(capsys):
    code, out, err = run(capsys, "norm", "--space", SPACE,
                         "--word", "e", "--cap", "-1")
    assert (code, out) == (2, "") and "cap -1" in err


HUGE_ABELIAN = "-99999999999999999999a + 99999999999999999999b"


@pytest.mark.parametrize("argv", [
    ["--word", "a^99999999999999999999"],
    ["--abelian", "--word", HUGE_ABELIAN, "--cap", "99999999999999999999999",
     "--witness"],
], ids=["free", "abelian"])
def test_oversized_exponent_exit_code(capsys, argv):
    """An exponent past the largest list size fails before anything is
    allocated, and exits 2 with one error line, like a cap: for the
    abelian element, only once its per-unit witness text is asked for,
    and before the value prints."""
    code, out, err = run(capsys, "norm", "--space", SPACE, *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and "too large" in err


@pytest.mark.parametrize("argv, value", [
    (["norm", "--word", HUGE_ABELIAN, "--cap", "99999999999999999999999"],
     "99999999999999999999/4"),
    (["dist", "--from", "0", "--to", "-9999999999a + 9999999999b",
      "--cap", "99999999999999999999"], "9999999999/4"),
], ids=["norm", "dist"])
def test_oversized_abelian_exponents_answer_without_witness(capsys, argv, value):
    """The abelian witness is held as runs, so without ``--witness`` a
    huge exponent under a raised cap costs no more than a small one."""
    command, *rest = argv
    code, out, err = run(capsys, command, "--space", SPACE, "--abelian", *rest)
    assert (code, out, err) == (0, value + "\n", "")


def test_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--space", SPACE, "--bounded")
    assert (code, out) == (0, "valid\n")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "dist": [["0", "1/4", "1"], ["1/4", "0", "1/4"], ["1", "1/4", "0"]],
    }))
    code, out, _ = run(capsys, "validate", "--space", str(bad))
    assert code == 1
    assert "triangle" in out


def test_cap_at_one_flag(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "points": ["a", "b"],
        "dist": [["0", "3"], ["1/2", "0"]],
    }))
    code, _, err = run(capsys, "norm", "--space", str(big), "--word", "a b^-1")
    assert code == 1  # unbounded input rejected by default
    code, out, _ = run(capsys, "norm", "--space", str(big), "--word", "a b^-1",
                       "--cap-at-one")
    assert code == 0 and out == "1/2\n"


def test_unknown_generator(capsys):
    code, _, err = run(capsys, "norm", "--space", SPACE, "--word", "q")
    assert code == 1 and "unknown generator" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "norm", "--space", "/does/not/exist",
                       "--word", "a")
    assert code == 1


# (file bytes, a word of the error message); the non-UTF-8 file keeps the
# bare loader name as its test id
BAD_FILES = {
    "non-utf8": (b"\xff\xfe{\x00}\x00", "utf-8"),
    "deep": (b"[" * 200_000, "recursion"),
    "long-integer": (b"[" + b"9" * 5000 + b"]", "digits"),
}


# per loader, a JSON document of the wrong shape and a word of its error
BAD_DOCUMENTS = {
    "space": ({"points": "ab", "dist": [[0, 1], [1, 0]]}, "points"),
    "entourage": ({"points": 5, "relation": [[1]]}, "points"),
    "sequence": ({"points": ["a"]}, "array"),
    "topology": ({"points": ["a"], "opens": [[], ["a"], [["a"]]]}, "opens"),
}


@pytest.mark.parametrize("loader,bad", [
    pytest.param(loader, bad, id=loader if bad == "non-utf8" else f"{loader}-{bad}")
    for bad in [*BAD_FILES, "document"]
    for loader in ("space", "entourage", "sequence", "topology")])
def test_non_utf8_file_is_format_error(capsys, tmp_path, loader, bad):
    if bad == "document":
        doc, marker = BAD_DOCUMENTS[loader]
        content = json.dumps(doc).encode()
    else:
        content, marker = BAD_FILES[bad]
    binary = tmp_path / "binary.json"
    binary.write_bytes(content)
    argv = {
        "space": ["validate", "--space", str(binary)],
        "entourage": ["frink", "--chain",
                      str(_write_chain(tmp_path, "seq.json", ["binary.json"]))],
        "sequence": ["frink", "--chain", str(binary)],
        "topology": ["ubase", "--topology", str(binary)],
    }[loader]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and marker in err


@pytest.mark.parametrize("argv", [
    ["norm", "--abelian", "--word", "a^" + "9" * 5000],
    ["norm", "--abelian", "--word", "9" * 5000 + "a"],
    ["norm", "--word", "a^" + "9" * 5000],
], ids=["abelian-exponent", "abelian-coefficient", "free-exponent"])
def test_overlong_integer_is_format_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--space", SPACE)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "digits" in err


def _too_large_space(path: Path) -> str:
    """A 16-point space that would be valid and bounded by 1, but 24 of
    its entries are (q - 1)/q over pairwise coprime q of about 4,000
    digits (powers of the first 24 primes), so 16**2 entries over their
    common denominator pass the integer view's 2**26 bits.  The others
    are 1."""
    primes = [p for p in range(2, 90) if all(p % q for q in range(2, p))]
    dens = [p ** int(4000 / math.log10(p)) for p in primes]
    n = 16
    rows = [["0" if i == j else "1" for j in range(n)] for i in range(n)]
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for (i, j), q in zip(off, dens):
        rows[i][j] = f"{q - 1}/{q}"
    path.write_text(json.dumps({"points": [f"p{i}" for i in range(n)],
                                "dist": rows}))
    return str(path)


def _refuse_in_library(call, space):
    with pytest.raises(CapExceeded) as info:
        call(load_space(space))
    return 2, "", f"error: {info.value}\n"


@pytest.mark.parametrize("call", ["validate", "graev_norm", "cli validate",
                                  "cli norm"])
def test_space_past_the_view_bound_is_refused(capsys, tmp_path, call):
    """The refusal comes before any row of the integer view is built:
    within 1 s and 2 MB, where the view alone would take 10 MB."""
    space = _too_large_space(tmp_path / "space.json")
    runs = {
        "validate": lambda: _refuse_in_library(lambda sp: sp.validate(), space),
        "graev_norm": lambda: _refuse_in_library(
            lambda sp: graev_norm(sp, parse_word("p0", sp.points)), space),
        "cli validate": lambda: run(capsys, "validate", "--space", space),
        "cli norm": lambda: run(capsys, "norm", "--space", space,
                                "--word", "p0"),
    }
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = runs[call]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 2 * 2 ** 20
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: space too large: ")


@pytest.mark.parametrize("source", ["eps", "space"])
def test_exponent_notation_is_format_error(capsys, tmp_path, source):
    """Exponent notation is refused before ``Fraction`` expands it, which
    takes seconds and grows about 30-fold per digit of the exponent."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": ["a", "b"], "dist": [
        ["0", "1e-10000000" if source == "space" else "1/4"], ["1/2", "0"]]}))
    eps = "1e-10000000" if source == "eps" else "1/2"
    start = time.perf_counter()
    code, out, err = run(capsys, "member", "--space", str(space),
                         "--word", "a", "--eps", eps)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "1e-10000000" in err


def test_long_rejected_entry_is_named_not_echoed(capsys, tmp_path):
    """A malformed entry is named by its place and length; its text is
    cut to a short start, however long it is."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": ["a", "b"], "dist": [
        ["0", "9" * 2_000_000], ["1/2", "0"]]}))
    code, out, err = run(capsys, "validate", "--space", str(space))
    assert (code, out) == (1, "")
    assert len(err.encode()) < 1024
    assert err.startswith("error: dist[0][1]: not a rational: '999")
    assert "2000000 characters" in err


@pytest.mark.parametrize("command", [
    ["dist", "--from", "a b", "--to", "b a b a b"],
    ["dist", "--abelian", "--from", "7a", "--to=-6b"],
    ["member", "--eps", "100", "--word", "a b a b a b a"],
    ["member", "--eps", "100", "--abelian", "--word", "7a - 6b"],
], ids=["dist-free", "dist-abelian", "member-free", "member-abelian"])
def test_default_cap_exit_code(capsys, command):
    code, _, err = run(capsys, *command, "--space", SPACE)
    assert code == 2 and "cap" in err
    code, _, _ = run(capsys, *command, "--space", SPACE, "--cap", "13")
    assert code == 0


@pytest.mark.parametrize("kind,src,dst,difference", [
    ([], "a b", "b^-1 a", "b^-1 a^-1 b^-1 a"),
    (["--abelian"], "2a", "2b", "-2a + 2b"),
], ids=["free", "abelian"])
def test_dist_witness_is_norm_witness(capsys, kind, src, dst, difference):
    code, dist_out, _ = run(capsys, "dist", "--space", SPACE, *kind,
                            "--from", src, "--to", dst, "--witness")
    assert code == 0
    code, norm_out, _ = run(capsys, "norm", "--space", SPACE, *kind,
                            "--word", difference, "--witness")
    assert code == 0
    assert dist_out == norm_out and len(dist_out.splitlines()) == 2


def test_unknown_subcommand(capsys):
    assert main(["nosuch"]) == 1
    assert main([]) == 1


def test_unknown_options_before_the_command_are_named(capsys):
    code, out, err = run(capsys, "--bogus", "schemes", "--n", "2")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == \
        "graevext: error: unrecognized arguments: --bogus"
    code, _, err = run(capsys, "--bogus", "-x", "schemes", "--n", "2")
    assert code == 1
    assert err.splitlines()[-1] == \
        "graevext: error: unrecognized arguments: --bogus -x"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert len(COMMANDS) == 9
    assert all(f"  {name} " in out for name in COMMANDS)
    for name in COMMANDS:
        assert main([name, "-h"]) == 0, name
        assert capsys.readouterr().out.startswith(f"usage: graevext {name} ")


def _write_entourage(path, points, pairs):
    index = {p: i for i, p in enumerate(points)}
    rows = [[1 if i == j else 0 for j in range(len(points))]
            for i in range(len(points))]
    for x, y in pairs:
        rows[index[x]][index[y]] = 1
    path.write_text(json.dumps({"points": list(points), "relation": rows}))


def _write_chain(tmp_path, name, files):
    chain = tmp_path / name
    chain.write_text(json.dumps(files))
    return chain


def test_frink_and_lemma5(capsys, tmp_path):
    pts = ("x", "y", "z")
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"points": list(pts),
                                "relation": [[1, 1, 1]] * 3}))
    mid = tmp_path / "mid.json"
    _write_entourage(mid, pts, [("x", "y"), ("y", "z"), ("x", "z")])
    deep = tmp_path / "deep.json"
    _write_entourage(deep, pts, [])
    chain = _write_chain(tmp_path, "chain.json",
                         ["full.json", "mid.json", "deep.json"])

    code, out, _ = run(capsys, "frink", "--chain", str(chain))
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == list(pts)
    assert doc["bounded_by_one"] is True
    from graevext import QPSpace
    emitted = QPSpace.from_json_dict(doc)
    assert emitted.validate(require_bounded=True) == []

    code, out, _ = run(capsys, "lemma5", "--chain", str(chain),
                       "--k", "0", "--ks", "1,2")
    assert (code, out) == (0, "true\n")
    code, _, err = run(capsys, "lemma5", "--chain", str(chain),
                       "--k", "0", "--ks", "0")
    assert code == 1


def _three_level_chain(tmp_path):
    """A tripling chain on x, y, z: the full relation, a preorder, the
    diagonal."""
    pts = ("x", "y", "z")
    _write_entourage(tmp_path / "full.json", pts,
                     [(x, y) for x in pts for y in pts])
    _write_entourage(tmp_path / "mid.json", pts,
                     [("x", "y"), ("y", "z"), ("x", "z")])
    _write_entourage(tmp_path / "deep.json", pts, [])
    return _write_chain(tmp_path, "chain.json",
                        ["full.json", "mid.json", "deep.json"])


@pytest.mark.parametrize("argv,marker", [
    (["schemes", "--n", "+3"], "invalid int value: '+3'"),
    (["schemes", "--n", "\u0663"], "invalid int value: '\u0663'"),
    (["schemes", "--n", "1_0"], "invalid int value: '1_0'"),
    (["lemma5", "--chain", "CHAIN", "--k", "0", "--ks", "1_0"],
     "not an integer: '1_0'"),
    (["lemma5", "--chain", "CHAIN", "--k", "0", "--ks", "1,+2"],
     "not an integer: '+2'"),
    (["norm", "--space", SPACE, "--word", "a^\u0663"], "bad word token"),
    (["norm", "--space", SPACE, "--abelian", "--word", "\u0663a"],
     "bad word token"),
], ids=["plus", "non-ascii", "underscore", "ks-underscore", "ks-plus",
        "free-exponent", "abelian-coefficient"])
def test_integers_are_ascii_digits(capsys, tmp_path, argv, marker):
    """Every typed integer is an optional ``-`` and ASCII digits: other
    forms exit 1 with one error line and no traceback."""
    chain = str(_three_level_chain(tmp_path))
    code, out, err = run(capsys, *(chain if a == "CHAIN" else a for a in argv))
    assert (code, out) == (1, "")
    assert err.count("error:") == 1 and marker in err
    assert "Traceback" not in err


def test_integers_allow_whitespace_and_minus(capsys, tmp_path):
    chain = str(_three_level_chain(tmp_path))
    code, out, _ = run(capsys, "lemma5", "--chain", chain,
                       "--k", " 0 ", "--ks", "1, 2")
    assert (code, out) == (0, "true\n")
    code, _, err = run(capsys, "schemes", "--n=-3")
    assert code == 1 and err.startswith("error: ")
    code, out, _ = run(capsys, "norm", "--space", SPACE, "--word", " a^-1 b^1 ")
    assert (code, out) == (0, "1/4\n")


def test_ubase(capsys, tmp_path):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({"points": ["a", "b"],
                                "opens": [[], ["a"], ["a", "b"]]}))
    code, out, _ = run(capsys, "ubase", "--topology", str(topo))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"points": ["a", "b"], "relation": [[1, 0], [1, 1]]}
    indiscrete = tmp_path / "flat.json"
    indiscrete.write_text(json.dumps({"points": ["a", "b"],
                                      "opens": [[], ["a", "b"]]}))
    code, _, err = run(capsys, "ubase", "--topology", str(indiscrete))
    assert code == 1 and "T0" in err


def test_wmember(capsys, tmp_path):
    pts = ("x", "y", "z")
    u1 = tmp_path / "u1.json"
    _write_entourage(u1, pts, [("x", "y")])
    u2 = tmp_path / "u2.json"
    _write_entourage(u2, pts, [("y", "z")])
    chain = _write_chain(tmp_path, "seq.json", ["u1.json", "u2.json"])

    code, out, _ = run(capsys, "wmember", "--word", "-x + z",
                       "--seq", str(chain), "--kmax", "2")
    assert code == 0
    assert out == "member: k=2 pairs=[(x,y) (y,z)]\n"

    code, out, _ = run(capsys, "wmember", "--word", "-z + x",
                       "--seq", str(chain), "--kmax", "2")
    assert (code, out) == (0, "not-found-within-bound\n")

    code, out, _ = run(capsys, "wmember", "--word", "-x + y",
                       "--seq", str(chain), "--n", "2")
    assert code == 0 and out.startswith("member: positions=[1]")

    code, out, _ = run(capsys, "wmember", "--word", "-2x + 2y",
                       "--seq", str(chain), "--n", "2")
    assert (code, out) == (0, "not-member\n")


def test_wmember_refuses_bool_and_float_relation_entries(capsys, tmp_path):
    (tmp_path / "u.json").write_text(json.dumps(
        {"points": ["a", "b"], "relation": [[True, False], [1.0, 1]]}))
    seq = _write_chain(tmp_path, "seq.json", ["u.json"])
    code, out, err = run(capsys, "wmember", "--word", "-a + b",
                         "--seq", str(seq), "--n", "1")
    assert (code, out) == (1, "")
    assert err == "error: relation entries must be 0 or 1, got True\n"


@pytest.mark.parametrize("bound,expected", [
    (["--kmax", "1500"], "not-found-within-bound\n"),
    (["--n", "2"], "not-member\n"),
    (["--n", "1500"], "not-member\n"),
], ids=["kmax-1500", "n-2", "n-1500"])
def test_wmember_long_sequence(capsys, tmp_path, bound, expected):
    _write_entourage(tmp_path / "diag.json", ("x", "y"), [])
    chain = _write_chain(tmp_path, "seq.json", ["diag.json"] * 1500)
    code, out, err = run(capsys, "wmember", "--word", "-x + y",
                         "--seq", str(chain), *bound)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("bound,expected", [
    (["--n", "300"], "not-member\n"),
    (["--kmax", "300"], "not-found-within-bound\n"),
], ids=["n-300", "kmax-300"])
def test_wmember_unreachable_is_refused_quickly(capsys, tmp_path, bound,
                                                expected):
    # c does not reach a; without the cut the search took over a minute
    _write_entourage(tmp_path / "path.json", ("a", "b", "c"),
                     [("a", "b"), ("b", "c")])
    chain = _write_chain(tmp_path, "seq.json", ["path.json"] * 300)
    start = time.perf_counter()
    code, out, err = run(capsys, "wmember", "--word", "-c + a",
                         "--seq", str(chain), *bound)
    assert (code, out, err) == (0, expected, "")
    assert time.perf_counter() - start < 2


# modules that no command should need, or that some commands should not
WATCHED = ("argparse", "gettext", "locale", "fractions", "dataclasses",
           "inspect")


def _modules_loaded(*argv):
    """The package modules that one command, which must exit 0, loads in
    a fresh interpreter, and those of ``WATCHED`` that it loads."""
    script = ("import sys\nfrom graevext.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print(*sorted(m for m in sys.modules if m.startswith('graevext')"
              f" or m in {WATCHED!r}))")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_commands_import_only_what_they_run(tmp_path):
    """Each command loads exactly the package modules that ``cli``'s
    docstring lists for it, and ``fractions`` where that list says so;
    none loads argparse, the gettext and locale that argparse imports,
    dataclasses or inspect."""
    _write_entourage(tmp_path / "u.json", ("x", "y"), [("x", "y")])
    seq = _write_chain(tmp_path, "seq.json", ["u.json"])
    (tmp_path / "full.json").write_text(json.dumps(
        {"points": ["x", "y"], "relation": [[1, 1], [1, 1]]}))
    _write_entourage(tmp_path / "diag.json", ("x", "y"), [])
    chain = _write_chain(tmp_path, "chain.json", ["full.json", "diag.json"])
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({"points": ["a", "b"],
                                "opens": [[], ["a"], ["a", "b"]]}))
    # the lists of cli's docstring, each with "fractions" where it loads
    space = {"documents", "words", "qpspace", "fractions"}
    schemes = space | {"schemes"}
    norms = schemes | {"norms", "flow"}
    entourages = {"documents", "words", "flow", "quniform"}
    for argv, expected in (
            (["validate", "--space", SPACE], space),
            (["norm", "--space", SPACE, "--word", "a b^-1"], norms),
            (["norm", "--space", SPACE, "--abelian", "--word", "-a + b"],
             norms),
            (["dist", "--space", SPACE, "--from", "a", "--to", "b"], norms),
            (["member", "--space", SPACE, "--word", "a", "--eps", "1"], norms),
            (["schemes", "--n", "3"], schemes),
            (["frink", "--chain", str(chain)],
             entourages | {"qpspace", "fractions"}),
            (["lemma5", "--chain", str(chain), "--k", "0", "--ks", "1"],
             entourages | {"fractions"}),
            (["ubase", "--topology", str(topo)], entourages),
            (["wmember", "--word", "-x + y", "--seq", str(seq), "--n", "1"],
             entourages)):
        assert _modules_loaded(*argv) == {
            "graevext", "graevext.cli", "graevext.errors",
            *(m if m == "fractions" else f"graevext.{m}" for m in expected)}, \
            argv


def test_output_values_reparse(capsys):
    from graevext import graev_dist, graev_norm, load_space, parse_word
    sp = load_space(SPACE)
    cases = [
        (["norm", "--space", SPACE, "--word", "a b"],
         graev_norm(sp, parse_word("a b", sp.points))[0]),
        (["dist", "--space", SPACE, "--from", "b", "--to", "a"],
         graev_dist(sp, parse_word("b", sp.points), parse_word("a", sp.points))),
    ]
    for argv, expected in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert parse_rational(out.strip()) == expected


def test_witness_line_reevaluates(capsys):
    import re
    from graevext import Scheme, load_space, pairing_cost, parse_word
    sp = load_space(SPACE)
    code, out, _ = run(capsys, "norm", "--space", SPACE,
                       "--word", "a b a^-1", "--witness")
    assert code == 0
    value_line, witness_line = out.splitlines()
    m = re.fullmatch(r"value=(\S+) word=\[([^]]*)\] scheme=\[([^]]*)\]",
                     witness_line)
    assert m and m.group(1) == value_line
    word = parse_word(m.group(2), sp.points)
    pairs = tuple((int(a), int(b)) for a, b in
                  re.findall(r"\((\d+),(\d+)\)", m.group(3)))
    assert pairing_cost(sp, word, Scheme(pairs)) == parse_rational(value_line)


def test_byte_determinism(capsys):
    first = run(capsys, "norm", "--space", SPACE, "--word", "a b a^-1",
                "--witness")
    second = run(capsys, "norm", "--space", SPACE, "--word", "a b a^-1",
                 "--witness")
    assert first == second
