"""The table parser of ``graevext.cli`` against the argparse parser it
replaced, ``tests/oracles.py::build_parser``, on seeded argument lists.

Each list is read by both.  The table must refuse what argparse refuses,
print help where argparse prints help, and otherwise give the same
command, handler and value for every dest.  The lists are built from
the reference parser's own options, so an option that the table lacks or
types differently shows up as a difference.  Two differences are
allowed:

* ``--opt=--``: argparse 3.11 stores an empty list for it, on which the
  command failed with a traceback, and the table reads the value ``--``;
* an integer option's value with a ``+`` sign, an underscore or a digit
  that is not ASCII (``+3``, ``1_0``, ``٣``): argparse's ``int()`` reads
  it, and the table, which reads integers as the rest of the package
  does (``words.read_integer``), refuses it.
"""

import random

import pytest

from graevext.cli import COMMANDS, UsageError, main, parse_args
from .oracles import build_parser

SEED = 16
CASES = 3000
LONG = "9" * 5000
VALUES = ["x", "a b^-1", "-x + y", "-x y", "-x", "-3", "-1.5", "-.5", "-",
          "", "0", "12", " 7 ", "+3", "1_0", "٣", "abc", "2.5", LONG, "-h",
          "--", "--word", "-- x", "=", "a=b"]
# integer texts that argparse's int() reads and the table refuses
NOT_INTEGERS = ("+3", "1_0", "٣")


def _reference_options(parser):
    """command -> [(option strings, takes a value)], from the parser."""
    subs = next(a for a in parser._actions if a.dest == "command")
    return {name: [(a.option_strings, a.nargs != 0)
                   for a in sub._actions if a.dest != "help"]
            for name, sub in subs.choices.items()}


def _prefixes(names):
    """(unique, ambiguous) proper prefixes of the long option strings."""
    unique, ambiguous = set(), set()
    for name in names:
        for end in range(3, len(name)):
            prefix = name[:end]
            if prefix in names:
                continue
            hits = sum(n.startswith(prefix) for n in names)
            (unique if hits == 1 else ambiguous).add(prefix)
    return sorted(unique), sorted(ambiguous)


def _spelling(rng, option, unique):
    """The option itself, or one of its unique prefixes."""
    short = [p for p in unique if option.startswith(p)]
    return rng.choice(short) if short and rng.random() < 0.3 else option


def _value(rng):
    return rng.choice(VALUES + [str(rng.randint(-3, 20))] * 6)


def _attached(rng):
    """A value written after ``=``; never ``--``, which argparse reads as
    no value at all (``test_attached_double_dash_is_a_value``)."""
    value = _value(rng)
    return value if value != "--" else "x"


def _help(rng):
    return rng.choice(["-h", "--help", "--he", "--h", "-hh", "-hx", "-h=h",
                       "-h=", "--help=x"])


def _argv(rng, options):
    command = rng.choice(list(options) + ["nosuch", "norms", ""])
    names = ["--help"] + [s for strings, _ in options.get(command, [])
                          for s in strings]
    unique, ambiguous = _prefixes(names)
    argv = []
    for strings, takes_value in options.get(command, []):
        if rng.random() < 0.15:
            continue  # missing
        for _ in range(2 if rng.random() < 0.1 else 1):  # repeated
            option = _spelling(rng, strings[0], unique)
            if not takes_value:
                argv.append(option if rng.random() < 0.9
                            else f"{option}={rng.choice(['', 'x'])}")
            elif rng.random() < 0.3:
                argv.append(f"{option}={_attached(rng)}")
            elif rng.random() < 0.05:
                argv.append(option)  # its value dropped
            else:
                argv += [option, _value(rng)]
    rng.shuffle(argv)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        extra = rng.choice([
            _help(rng), "--bogus", "--bogus=1", "-x", "extra", "--", "-5",
            rng.choice(ambiguous or ["--nosuch"]),
            rng.choice(ambiguous or ["--nosuch"]) + "=1",
            rng.choice(unique or ["--nosuch"])])
        argv.insert(rng.randint(0, len(argv)), extra)
    if command == "wmember" and rng.random() < 0.3:
        argv += ["--n", _value(rng), "--kmax", _value(rng)]
    head = [command] if command else []
    if rng.random() < 0.1:
        head.insert(rng.randint(0, len(head)),
                    rng.choice([_help(rng), "--bogus", "--", "-1"]))
    return head + argv


def _reference(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return "help" if exc.code in (0, None) else "error"


def _plain(argv):
    """argv with each of ``NOT_INTEGERS``, alone or after ``=``, replaced
    by ``x``, which argparse refuses as an integer too."""
    out = []
    for token in argv:
        head, equals, value = token.rpartition("=")
        if (value if equals else token) in NOT_INTEGERS:
            token = head + equals + "x"
        out.append(token)
    return out


def _table(argv):
    try:
        args = parse_args(argv)
    except UsageError:
        return "error"
    return "help" if args is None else vars(args)


def test_table_names_the_reference_commands():
    options = _reference_options(build_parser())
    assert list(COMMANDS) == list(options)
    for name, (_, _, table, _) in COMMANDS.items():
        assert sorted(option for option, *_ in table) == sorted(
            s for strings, _ in options[name] for s in strings), name


def test_table_parser_matches_argparse(capsys):
    parser = build_parser()
    options = _reference_options(parser)
    rng = random.Random(SEED)
    outcomes = {"help": 0, "error": 0, "ok": 0}
    strict = 0
    for _ in range(CASES):
        argv = _argv(rng, options)
        expected = _reference(parser, argv)
        outcome = _table(argv)
        if outcome != expected:
            # allowed only where argparse refuses the line too once the
            # integer texts that the table refuses are plain text
            assert outcome == _reference(parser, _plain(argv)) == "error", argv
            expected = "error"
            strict += 1
        if isinstance(expected, dict):
            outcomes["ok"] += 1
        else:
            outcomes[expected] += 1
            assert main(argv) == (0 if expected == "help" else 1), argv
    capsys.readouterr()
    assert min(outcomes.values()) >= CASES // 20, outcomes
    assert strict > 0  # the allowed difference is met, not only allowed


@pytest.mark.parametrize("argv", [
    ["wmember", "--word=-x + y", "--seq", "s", "--n", "1", "--kmax", "2"],
    ["wmember", "--word", "-x", "--seq", "s", "--n", "1"],
    ["norm", "--space", "s", "--w", "a"],
    ["norm", "-h", "--w", "a"],
    ["norm", "--space", "s", "--word", "a", "--", "--abelian"],
    ["schemes", "--n", LONG],
    ["--", "schemes", "--n", "3"],
], ids=["n-with-kmax", "dash-value", "ambiguous", "ambiguous-after-help",
        "double-dash", "long-int", "double-dash-first"])
def test_refusals_match_argparse(capsys, argv):
    assert _table(argv) == _reference(build_parser(), argv) == "error"
    assert main(argv) == 1


@pytest.mark.parametrize("argv,dest,value", [
    (["schemes", "--n=-3"], "n", -3),
    (["lemma5", "--ch", "c", "--k", " 7 ", "--ks=-1"], "k", 7),
    (["lemma5", "--chain", "c", "--k", "1", "--ks", "-1"], "ks", "-1"),
    (["member", "--sp", "s", "--wo=-a + b", "--e", "1/2"], "word", "-a + b"),
], ids=["negative", "spaced-int", "negative-text", "prefixes"])
def test_values_match_argparse(argv, dest, value):
    args = parse_args(argv)
    assert getattr(args, dest) == value
    assert vars(args) == _reference(build_parser(), argv)


@pytest.mark.parametrize("argv,option,text", [
    (["wmember", "--word", "-x + y", "--seq", "s", "--km", "+2"],
     "--kmax", "+2"),
    (["norm", "--space", "s", "--word", "a", "--cap-", "--cap", "1_0"],
     "--cap", "1_0"),
    (["schemes", "--n", "٣"], "--n", "٣"),
], ids=["plus-int", "underscore-int", "non-ascii-int"])
def test_integer_forms_only_argparse_reads(capsys, argv, option, text):
    """A deliberate difference from argparse, whose ``int()`` reads these:
    the table refuses them as it refuses any other non-integer."""
    assert _reference(build_parser(), argv) != "error"
    with pytest.raises(UsageError) as info:
        parse_args(argv)
    assert str(info.value) == f"argument {option}: invalid int value: {text!r}"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv,table", [
    (["frink", "--chain=--"], "--"),
    (["schemes", "--n=--"], "error"),
], ids=["text", "int"])
def test_attached_double_dash_is_a_value(argv, table):
    reference = _reference(build_parser(), argv)
    assert [] in reference.values()
    outcome = _table(argv)
    assert (outcome if table == "error" else outcome["chain"]) == table
