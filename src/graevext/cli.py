"""Command line frontend.

One computation per invocation, file-based inputs, deterministic output.
Values print as exact rationals (``p/q``, integers without the ``/1``).
Exit codes: 0 success, 1 domain or format error (a refused command line
too), 2 search cap exceeded or an input too large to hold in memory.

Arguments are parsed from one table, ``COMMANDS``: each command's
handler, one-line help, options and required options.  The parser over
it follows argparse's rules (unique option prefixes, ``--opt=value``, a
value that starts with ``-`` only if it is a negative number or holds a
space, the last of a repeated option wins) without loading ``argparse``,
``gettext`` or ``locale``; ``tests/oracles.py`` keeps the argparse
parser as its reference.  Only the wording of usage and help differs,
``--opt=--`` is the value ``--`` (argparse: an empty list), and integer
values follow ``words.read_integer``, so ``+3`` and ``1_0`` are refused.

Each command imports the modules it runs when it runs, so a call pays
only for its own subcommand.  Besides ``cli`` and ``errors``:
``validate`` loads ``documents``, ``words`` and ``qpspace``; ``schemes``
those and ``schemes``; ``norm``, ``dist`` and ``member`` those and
``norms`` and ``flow``; ``frink`` ``documents``, ``words``, ``flow``,
``quniform`` and ``qpspace``; ``lemma5`` ``documents``, ``words``,
``flow`` and ``quniform``, and ``fractions``; ``ubase`` and ``wmember``
``documents``, ``words``, ``flow`` and ``quniform``, without
``fractions``.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from .errors import CapExceeded, DomainError, FormatError


def _load_space(args):
    from .qpspace import load_space
    space = load_space(args.space)
    if args.cap_at_one:
        space = space.cap_at_one()
    return space


def _group(args):
    """The parser and the left difference (g, h) -> g^-1 h of the group the
    command works in: the free abelian group with --abelian, else the free
    group."""
    from .words import parse_abelian, parse_word
    if args.abelian:
        return parse_abelian, lambda g, h: h - g
    return parse_word, lambda g, h: g.inverse() * h


def _print_norm(args, space, element) -> int:
    from .norms import norm
    value, witness = norm(space, element, args.cap)
    # the witness text is built before anything prints, so a witness too
    # large to write leaves stdout empty
    print(f"{value}\n{witness}" if args.witness else value)
    return 0


def cmd_validate(args) -> int:
    from .qpspace import load_space
    space = load_space(args.space)
    violations = space.validate(require_bounded=args.bounded)
    if not violations:
        print("valid")
        return 0
    for violation in violations:
        print(f"violation: {violation}")
    return 1


def cmd_norm(args) -> int:
    space = _load_space(args)
    parse, _ = _group(args)
    return _print_norm(args, space, parse(args.word, space.points))


def cmd_dist(args) -> int:
    space = _load_space(args)
    parse, difference = _group(args)
    src = parse(args.src, space.points)
    dst = parse(args.dst, space.points)
    return _print_norm(args, space, difference(src, dst))


def cmd_member(args) -> int:
    from .norms import ball_member
    from .qpspace import parse_rational
    space = _load_space(args)
    eps = parse_rational(args.eps)
    parse, _ = _group(args)
    element = parse(args.word, space.points)
    print("true" if ball_member(space, element, eps, args.cap) else "false")
    return 0


def cmd_schemes(args) -> int:
    from .schemes import enumerate_schemes
    count = 0
    for scheme in enumerate_schemes(args.n):
        print(scheme)
        count += 1
    print(f"count: {count}")
    return 0


def cmd_frink(args) -> int:
    import json
    from .quniform import frink_metric, load_sequence
    space = frink_metric(load_sequence(args.chain))
    print(json.dumps(space.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cmd_lemma5(args) -> int:
    from .quniform import composition_contained, load_sequence
    from .words import read_integer
    seq = load_sequence(args.chain)
    ks = [read_integer(x) for x in args.ks.split(",") if x.strip() != ""]
    print("true" if composition_contained(seq, args.k, ks) else "false")
    return 0


def cmd_ubase(args) -> int:
    import json
    from .quniform import load_topology, universal_base
    base = universal_base(load_topology(args.topology))
    print(json.dumps(base.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cmd_wmember(args) -> int:
    from .quniform import decompose_prefix, decompose_subset, load_sequence
    from .words import parse_abelian
    seq = load_sequence(args.seq)
    element = parse_abelian(args.word, seq.points)
    if args.n is not None:
        witness = decompose_subset(element, seq, args.n)
        print(f"member: {witness}" if witness is not None else "not-member")
    else:
        witness = decompose_prefix(element, seq, args.kmax)
        print(f"member: {witness}" if witness is not None
              else "not-found-within-bound")
    return 0


# A command's options are (option, dest, kind, help) tuples: kind "int" or
# "str" for an option that takes a value, None for a flag, which stores
# True.  All options are long; -h is the only short one.
_SPACE_OPTIONS = (
    ("--space", "space", "str", "space file (JSON)"),
    ("--cap-at-one", "cap_at_one", None,
     "replace every distance above 1 by 1 before use"),
    ("--cap", "cap", "int", "override the search cap"),
    ("--abelian", "abelian", None, "work in the free abelian group"),
)

# command -> (handler, one-line help, options, required).  Each entry of
# required names the options of which exactly one must be given: one
# option, or several that exclude each other, separated by spaces.
COMMANDS = {
    "validate": (cmd_validate, "check the space axioms", (
        ("--space", "space", "str", "space file (JSON)"),
        ("--bounded", "bounded", None,
         "also require every distance to be at most 1"),
    ), ("--space",)),
    "norm": (cmd_norm, "norm of a group element", _SPACE_OPTIONS + (
        ("--word", "word", "str", "the group element"),
        ("--witness", "witness", None, "also print the minimizing witness"),
    ), ("--space", "--word")),
    "dist": (cmd_dist, "distance between two group elements",
             _SPACE_OPTIONS + (
        ("--from", "src", "str", "the first element"),
        ("--to", "dst", "str", "the second element"),
        ("--witness", "witness", None, "also print the minimizing witness"),
    ), ("--space", "--from", "--to")),
    "member": (cmd_member, "strict norm ball membership", _SPACE_OPTIONS + (
        ("--word", "word", "str", "the group element"),
        ("--eps", "eps", "str", "the radius, a positive rational"),
    ), ("--space", "--word", "--eps")),
    "schemes": (cmd_schemes, "list the non-crossing pairings of 1..2n", (
        ("--n", "n", "int", "half the number of positions"),
    ), ("--n",)),
    "frink": (cmd_frink, "build the chain quasi-pseudometric of an "
                         "entourage sequence", (
        ("--chain", "chain", "str", "JSON array of entourage file paths"),
    ), ("--chain",)),
    "lemma5": (cmd_lemma5, "check a composed containment in a tripling "
                           "chain", (
        ("--chain", "chain", "str", "JSON array of entourage file paths"),
        ("--k", "k", "int", "0-based position of the containing entourage"),
        ("--ks", "ks", "str", "comma-separated 0-based positions to compose"),
    ), ("--chain", "--k", "--ks")),
    "ubase": (cmd_ubase, "universal base relation of a finite T0 topology", (
        ("--topology", "topology", "str", "topology file (JSON)"),
    ), ("--topology",)),
    "wmember": (cmd_wmember, "decompose an abelian element into difference "
                             "pairs from an entourage sequence", (
        ("--word", "word", "str", "the abelian element"),
        ("--seq", "seq", "str", "JSON array of entourage file paths"),
        ("--n", "n", "int", "pairs over at most n distinct positions"),
        ("--kmax", "kmax", "int",
         "one pair per leading entourage, up to k pairs"),
    ), ("--word", "--seq", "--n --kmax")),
}

_DESCRIPTION = ("Exact norms, distances and neighborhood checks on free and "
               "free abelian groups\nover finite quasi-pseudometric spaces.")

_HELP = ("-h", "--help")
# what argparse reads as a negative number, which may stand as a value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class UsageError(Exception):
    """A command line that the table refuses; ``command`` names the
    command whose usage applies, None for the top level."""

    command = None


def _option(token: str, names):
    """Read one argument against the option strings ``names`` by
    argparse's rules: None for a value, else the option it names (None
    for an unknown one) and the text attached to it (None if none).  A
    unique prefix names its option; a prefix of several is an error."""
    if token[:1] != "-" or token == "-":
        return None
    name, equals, text = token.partition("=")
    text = text if equals else None
    if name in names:
        return name, text
    if token[1] == "h":
        return "-h", token[2:]
    matches = [option for option in names
               if token[1] == "-" and option.startswith(name)]
    if len(matches) > 1:
        raise UsageError("ambiguous option: %s could match %s"
                         % (token, ", ".join(matches)))
    if matches:
        return matches[0], text
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _check_help(option: str, text) -> None:
    """Refuse text attached to a help option, but for more ``h`` after
    ``-h``: ``-hh`` is ``-h -h``."""
    if text is not None and not (option == "-h" and text
                                 and not text.strip("h")):
        raise UsageError("argument -h/--help: ignored explicit argument %r"
                         % text)


def parse_args(argv):
    """The values of a command line: ``command``, the handler as ``func``
    and one attribute per option dest; None once help is printed.  Raises
    ``UsageError`` where argparse would refuse the line."""
    argv = list(argv)
    # argv[:i] are unknown options, as a help option among them returns
    for i, token in enumerate(argv):
        found = token != "--" and _option(token, _HELP)
        if not found:
            break
        if found[0] is not None:
            _check_help(*found)
            print(_help())
            return None
    else:
        raise UsageError("the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        raise UsageError("invalid choice: %r (choose from %s)"
                         % (command, ", ".join(COMMANDS)))
    try:
        args = _parse_command(command, argv[i + 1:])
    except UsageError as exc:
        exc.command = command
        raise
    if args is not None and i:
        raise UsageError("unrecognized arguments: " + " ".join(argv[:i]))
    return args


def _parse_command(command: str, argv):
    """``parse_args`` for the arguments after ``command``."""
    func, _, options, required = COMMANDS[command]
    kinds = {option: (dest, kind) for option, dest, kind, _ in options}
    groups = [group.split() for group in required]
    # no argument from a "--" on is an option or an option's value
    cut = argv.index("--") if "--" in argv else len(argv)
    found = [_option(token, (*_HELP, *kinds)) for token in argv[:cut]]
    values = {dest: None if kind else False for dest, kind in kinds.values()}
    given = set()
    unknown = []
    i = 0
    while i < cut:
        option, text = found[i] or (None, None)
        i += 1
        if option is None:
            unknown.append(argv[i - 1])
            continue
        if option in _HELP:
            _check_help(option, text)
            print(_help(command))
            return None
        dest, kind = kinds[option]
        if kind is None and text is not None:
            raise UsageError("argument %s: ignored explicit argument %r"
                             % (option, text))
        if kind is None:
            text = True
        elif text is None:
            if i == cut or found[i] is not None:
                raise UsageError("argument %s: expected one argument"
                                 % option)
            text = argv[i]
            i += 1
        if kind == "int":
            from .words import read_integer
            try:
                text = read_integer(text)
            except FormatError:
                raise UsageError("argument %s: invalid int value: %r"
                                 % (option, text)) from None
        rivals = [other for group in groups if option in group
                  for other in group if other != option and other in given]
        if rivals:
            raise UsageError("argument %s: not allowed with argument %s"
                             % (option, rivals[0]))
        values[dest] = text
        given.add(option)
    missing = [" or ".join(group) for group in groups
               if given.isdisjoint(group)]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))
    if unknown or cut < len(argv):
        raise UsageError("unrecognized arguments: "
                         + " ".join(unknown + argv[cut:]))
    return SimpleNamespace(command=command, func=func, **values)


def _usage(command=None) -> str:
    if command is None:
        return "graevext [-h] {%s} ..." % ",".join(COMMANDS)
    _, _, options, required = COMMANDS[command]
    shown = {option: option if kind is None else f"{option} {dest.upper()}"
             for option, dest, kind, _ in options}
    needed = " ".join(required).split()
    return " ".join(["graevext", command, "[-h]", *(
        "(%s)" % " | ".join(map(shown.get, group.split())) if " " in group
        else shown[group] for group in required), *(
        f"[{shown[option]}]" for option in shown if option not in needed)])


def _help(command=None) -> str:
    """Usage and help of a command, or of the program with every command
    of the table."""
    if command is None:
        lines = [_DESCRIPTION, "", "commands:"] + [
            "  %-10s%s" % (name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, text, options, _ = COMMANDS[command]
        lines = [text, "", "options:", "  %-24s%s" % (
            "-h, --help", "show this help message and exit")] + [
            "  %-24s%s" % (option if kind is None else
                           f"{option} {dest.upper()}", line)
            for option, dest, kind, line in options]
    return "\n".join(["usage: " + _usage(command), "", *lines])


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        prog = " ".join(filter(None, ["graevext", exc.command]))
        print(f"usage: {_usage(exc.command)}\n{prog}: error: {exc}",
              file=sys.stderr)
        return 1
    if args is None:
        return 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError):
        print("error: input too large to hold in memory", file=sys.stderr)
        return 2
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
