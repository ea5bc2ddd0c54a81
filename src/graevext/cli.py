"""Command line frontend.

One computation per invocation, file-based inputs, deterministic output.
Values print as exact rationals (``p/q``, integers without the ``/1``).
Exit codes: 0 success, 1 domain or format error, 2 search cap exceeded.

Each command imports the modules it runs when it runs, so a call pays
only for its own subcommand: ``validate`` never loads the norms, and
``wmember`` never loads the norms or the pairing schemes.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CapExceeded, DomainError


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
    print(value)
    if args.witness:
        print(witness)
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
    seq = load_sequence(args.chain)
    try:
        ks = [int(x) for x in args.ks.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"bad index list {args.ks!r}") from exc
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


def _add_space_options(sub):
    sub.add_argument("--space", required=True, help="space file (JSON)")
    sub.add_argument("--cap-at-one", action="store_true",
                     help="replace every distance above 1 by 1 before use")
    sub.add_argument("--cap", type=int, default=None,
                     help="override the search cap")
    sub.add_argument("--abelian", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graevext",
        description="Exact norms, distances and neighborhood checks on free "
                    "and free abelian groups over finite quasi-pseudometric "
                    "spaces.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the space axioms")
    p.add_argument("--space", required=True)
    p.add_argument("--bounded", action="store_true",
                   help="also require every distance to be at most 1")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("norm", help="norm of a group element")
    _add_space_options(p)
    p.add_argument("--word", required=True)
    p.add_argument("--witness", action="store_true",
                   help="also print the minimizing witness")
    p.set_defaults(func=cmd_norm)

    p = subs.add_parser("dist", help="distance between two group elements")
    _add_space_options(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_dist)

    p = subs.add_parser("member", help="strict norm ball membership")
    _add_space_options(p)
    p.add_argument("--word", required=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_member)

    p = subs.add_parser("schemes",
                        help="list the non-crossing pairings of 1..2n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_schemes)

    p = subs.add_parser("frink",
                        help="build the chain quasi-pseudometric of an "
                             "entourage sequence")
    p.add_argument("--chain", required=True,
                   help="JSON array of entourage file paths")
    p.set_defaults(func=cmd_frink)

    p = subs.add_parser("lemma5",
                        help="check a composed containment in a tripling chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--k", type=int, required=True,
                   help="0-based position of the containing entourage")
    p.add_argument("--ks", required=True,
                   help="comma-separated 0-based positions to compose")
    p.set_defaults(func=cmd_lemma5)

    p = subs.add_parser("ubase",
                        help="universal base relation of a finite T0 topology")
    p.add_argument("--topology", required=True)
    p.set_defaults(func=cmd_ubase)

    p = subs.add_parser("wmember",
                        help="decompose an abelian element into difference "
                             "pairs from an entourage sequence")
    p.add_argument("--word", required=True)
    p.add_argument("--seq", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int,
                       help="pairs over at most n distinct positions")
    group.add_argument("--kmax", type=int,
                       help="one pair per leading entourage, up to k pairs")
    p.set_defaults(func=cmd_wmember)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
