"""Deterministic fuzzing of the CLI's exit-code contract.

Whatever the files and arguments, ``main`` returns 0, 1 or 2 and raises
nothing.  The inputs come from one seeded ``random.Random`` per test:
random bytes, truncated and mangled JSON, deep nesting, integers past
Python's digit limit, huge abelian exponents, zero, negative or
malformed caps, radii, bounds and indices, and mangled argument lists:
option prefixes, ``--opt=value`` joined or split, values dropped or
added, and unknown or abbreviated commands.  Free words keep small
exponents, because ``parse_word`` expands ``sym^k`` letter by letter
before any cap is checked.  Long sequences name only the diagonal: a miss
over a long sequence of entourages with more pairs still takes seconds.
"""

import json
import random

from graevext.cli import main

SEED = 8
CALLS = 250
CHAIN_SEED = 9
CHAIN_CALLS = 120
MANGLE_SEED = 16
MANGLE_CALLS = 200
LONG = "9" * 5000
POINTS = ["a", "b", "c"]


def _random_json(rng, depth=0):
    kind = rng.randrange(6 if depth < 3 else 4)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.choice(["a", "b", "x", "e", "", "1/2", "-1", "0", "1/0"])
    if kind == 2:
        return rng.choice([True, False, None, 0.5])
    if kind == 3:
        return rng.choice([[], {}, [[0]], [[1, 0], [0, 1]]])
    if kind == 4:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    keys = ["points", "dist", "relation", "opens", "bounded_by_one", "x"]
    return {rng.choice(keys): _random_json(rng, depth + 1)
            for _ in range(rng.randint(0, 3))}


def _valid_doc(rng, kind):
    n = len(POINTS)
    if kind == "space":
        dist = [["0" if i == j else f"{rng.randint(6, 12)}/12"
                 for j in range(n)] for i in range(n)]
        return {"points": POINTS, "dist": dist}
    if kind == "topology":
        order = rng.sample(POINTS, n)
        return {"points": POINTS,
                "opens": [order[:k] for k in range(n + 1)] + rng.choice(
                    [[], [[order[1]]], [order[:1] + order[2:]]])}
    relation = [[1 if i == j or rng.random() < 0.4 else 0 for j in range(n)]
                for i in range(n)]
    return {"points": POINTS, "relation": relation}


def _file_bytes(rng, kind):
    """A space or entourage file: valid half the time, else mangled or
    hostile."""
    doc = _valid_doc(rng, kind)
    roll = rng.random()
    if roll < 0.5:
        return json.dumps(doc).encode()
    if roll < 0.6:
        text = json.dumps(doc).encode()
        return text[:rng.randrange(len(text))]
    if roll < 0.75:
        doc[rng.choice(list(doc))] = _random_json(rng)
        return json.dumps(doc).encode()
    if roll < 0.85:
        return json.dumps(_random_json(rng)).encode()
    if roll < 0.93:
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 48)))
    return rng.choice([b"[" * 200_000, b'{"points": ' + b"[" * 5000,
                       b"[" + LONG.encode() + b"]",
                       json.dumps({"points": POINTS, "dist": [[LONG]]}).encode()])


def _word(rng, abelian):
    """Word syntax, term syntax (abelian only) or a token soup."""
    roll = rng.random()
    if roll < 0.1:
        soup = ["a", "x", "e", "^", "+", "-", "0", "2a", "a^-2", "a^^", ""]
        return " ".join(rng.choice(soup) for _ in range(rng.randint(0, 5)))
    size = rng.randint(0, 9 if abelian else 5)
    gens = [rng.choice(POINTS) for _ in range(size)]
    if abelian and roll < 0.2:
        return " ".join(f"{g}^{rng.choice([LONG, '-' + LONG, '10' * 7])}"
                        for g in gens)
    if abelian and roll < 0.6:
        return " ".join(f"{rng.choice('+-')} {rng.randint(1, 4)}{g}"
                        for g in gens)
    return " ".join(f"{g}^{rng.choice([1, -1, 2, -3])}" for g in gens)


def _number(rng):
    return rng.choice(["0", "-1", "1/2", "1/0", "abc", LONG,
                       *(str(rng.randint(-3, 15)) for _ in range(6))])


def _argv(rng, tmp_path, i):
    command = rng.choice(["validate", "norm", "dist", "member", "wmember"])
    if command == "wmember":
        files = []
        for j in range(rng.randint(1, 3)):
            entourage = tmp_path / f"u{i}_{j}.json"
            entourage.write_bytes(
                json.dumps(_valid_doc(rng, "entourage")).encode()
                if rng.random() < 0.7 else _file_bytes(rng, "entourage"))
            files.append(entourage.name)
        seq = tmp_path / f"seq{i}.json"
        seq.write_bytes(rng.choice([json.dumps(files).encode()] * 4 + [
            json.dumps(_random_json(rng)).encode(), b"[" * 200_000]))
        return ["wmember", f"--word={_word(rng, True)}", "--seq", str(seq),
                rng.choice(["--n", "--kmax"]),
                rng.choice([_number(rng), str(rng.randint(1, 3))])]
    space = tmp_path / f"space{i}.json"
    space.write_bytes(_file_bytes(rng, "space"))
    if command == "validate":
        return ["validate", "--space", str(space)] + \
            rng.choice([[], ["--bounded"]])
    abelian = rng.random() < 0.5
    argv = [command, "--space", str(space)]
    if command == "dist":
        argv += [f"--from={_word(rng, abelian)}", f"--to={_word(rng, abelian)}"]
    else:
        argv += [f"--word={_word(rng, abelian)}"]
    if command == "member":
        argv += [f"--eps={_number(rng)}"]
    elif rng.random() < 0.3:
        argv.append("--witness")
    if rng.random() < 0.6:
        argv += [f"--cap={_number(rng)}"]
    if abelian:
        argv.append("--abelian")
    if rng.random() < 0.3:
        argv.append("--cap-at-one")
    return argv


def _doc_bytes(rng, kind):
    """A valid document, one with a field of the wrong JSON type, or the
    output of ``_file_bytes``."""
    doc = _valid_doc(rng, kind)
    roll = rng.random()
    if roll < 0.2:
        doc[rng.choice(list(doc))] = rng.choice(
            [5, "abc", None, [["a"]], [[], [["a"]]], [["a", 1]]])
    elif roll < 0.4:
        return _file_bytes(rng, kind)
    return json.dumps(doc).encode()


def _chain_argv(rng, tmp_path, i):
    """``frink``, ``lemma5`` and ``ubase`` on short files, or ``wmember``
    on the diagonal named up to 300 times."""
    command = rng.choice(["frink", "lemma5", "ubase", "wmember"])
    if command == "ubase":
        topology = tmp_path / f"t{i}.json"
        topology.write_bytes(_doc_bytes(rng, "topology"))
        return ["ubase", "--topology", str(topology)]
    if command == "wmember":
        diagonal = tmp_path / "diagonal.json"
        diagonal.write_text(json.dumps({"points": POINTS, "relation": [
            [int(a == b) for b in range(len(POINTS))] for a in range(len(POINTS))]}))
        length = rng.randint(1, 300)
        seq = tmp_path / f"seq{i}.json"
        seq.write_text(json.dumps([diagonal.name] * length))
        x, y = rng.choice(POINTS), rng.choice(POINTS)
        word = rng.choice([_word(rng, True), f"-{x} + {y}", f"-2{x} + {y} + {y}"])
        return ["wmember", f"--word={word}", "--seq", str(seq),
                rng.choice(["--n", "--kmax"]),
                rng.choice(["1", "2", "3", str(length)])]
    files = []
    for j in range(rng.randint(1, 3)):
        entourage = tmp_path / f"c{i}_{j}.json"
        if rng.random() < 0.6:
            # the full relation at the head and the diagonal below it
            # make a tripling chain
            entourage.write_text(json.dumps({"points": POINTS, "relation": [
                [int(j == 0 or a == b) for b in range(len(POINTS))]
                for a in range(len(POINTS))]}))
        else:
            entourage.write_bytes(_doc_bytes(rng, "entourage"))
        files.append(entourage.name)
    chain = tmp_path / f"chain{i}.json"
    chain.write_bytes(rng.choice([json.dumps(files).encode()] * 4 + [
        json.dumps(_random_json(rng)).encode(), b"[" * 200_000]))
    if command == "frink":
        return ["frink", "--chain", str(chain)]
    return ["lemma5", "--chain", str(chain),
            "--k", rng.choice(["0", "0", "1", _number(rng)]),
            "--ks", rng.choice(["1", "2", "1,2", "2,2", "2,1,1", "", ",", "a",
                                LONG, _number(rng)])]


def test_cli_exit_codes_on_random_input(capsys, tmp_path):
    rng = random.Random(SEED)
    codes = []
    for i in range(CALLS):
        argv = _argv(rng, tmp_path, i)
        code = main(argv)
        assert code in (0, 1, 2), argv
        codes.append(code)
    capsys.readouterr()
    assert set(codes) == {0, 1, 2}


def test_chain_commands_exit_codes_on_random_input(capsys, tmp_path):
    rng = random.Random(CHAIN_SEED)
    codes = []
    for i in range(CHAIN_CALLS):
        argv = _chain_argv(rng, tmp_path, i)
        code = main(argv)
        assert code in (0, 1), argv
        codes.append(code)
    capsys.readouterr()
    assert set(codes) == {0, 1}


def _mangle(rng, argv):
    """``argv`` with one to three of its arguments spelled wrong."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(argv))
        token = argv[i]
        roll = rng.randrange(6)
        name, equals, value = token.partition("=")
        if roll == 0 and name.startswith("--") and len(name) > 3:
            argv[i] = name[:rng.randint(3, len(name))] + equals + value
        elif roll == 1 and "=" in token:
            argv[i:i + 1] = token.split("=", 1)
        elif roll == 2 and token.startswith("--") and i + 1 < len(argv):
            argv[i:i + 2] = [f"{token}={argv[i + 1]}"]
        elif roll == 3 and i > 0:
            del argv[i]
        elif roll == 4:
            argv.insert(i + 1, rng.choice(["x", "-1", "7", "--", "-x", "",
                                           "--bogus", "a b"]))
        elif roll == 5:
            argv[0] = rng.choice(["nosuch", argv[0][:2], argv[0] + "x", "",
                                  "-" + argv[0]])
    return argv


def test_mangled_argument_lists_exit_codes(capsys, tmp_path):
    rng = random.Random(MANGLE_SEED)
    codes = []
    for i in range(MANGLE_CALLS):
        build = _argv if rng.random() < 0.5 else _chain_argv
        argv = _mangle(rng, build(rng, tmp_path, i))
        code = main(argv)
        assert code in (0, 1, 2), argv
        codes.append(code)
    capsys.readouterr()
    assert {0, 1} <= set(codes)
