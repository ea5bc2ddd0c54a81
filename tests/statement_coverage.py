"""List the statements of ``src/graevext`` that no Tier-1 test runs.

Run from anywhere, with pytest installed:

    python tests/statement_coverage.py

It runs the Tier-1 suite (``tests/``) in this process under
``sys.settrace``, which takes about 30 s, and prints each package
statement that never ran as ``file:line: text``.  It exits 1 if the
suite fails or if a statement that ``ALLOWED`` does not name never ran,
else 0.  It needs only the standard library and pytest, and pytest does
not collect it (its name does not start with ``test_``).

A statement is an ``ast`` statement whose first line holds bytecode; it
ran if the tracer saw a line event on that line.  Code that runs only in
a child process, such as ``python -m graevext.cli``, is not seen.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graevext"

# (file, first line of the statement) that no test is meant to run: the
# witness checks that guard the solvers, and the module entry point
ALLOWED = {
    ("norms.py", "raise AssertionError("),
    ("norms.py", 'raise AssertionError(f"abelian witness does not price to {value}")'),
    ("cli.py", "sys.exit(main())"),
}


def statements(path: Path) -> dict[int, str]:
    """Line -> first line text of each statement of the file whose first
    line holds bytecode, but for those under ``if TYPE_CHECKING:``."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    tree = ast.parse(source)
    # imports for type checkers only never run
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            lines.difference_update(range(node.body[0].lineno,
                                          node.end_lineno + 1))
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip()
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node.lineno in lines}


def run_traced(args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args`` and the lines run per package file."""
    hits: dict[str, set[int]] = {}
    # code file name -> the line set of its package file, None elsewhere
    seen: dict[str, set[int] | None] = {}

    def on_line(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            path = Path(os.path.realpath(name))
            seen[name] = (hits.setdefault(path.name, set())
                          if path.parent == PACKAGE else None)
        return None if seen[name] is None else on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    loaded = [name for name in sys.modules if name.split(".")[0] == "graevext"]
    if loaded:
        raise SystemExit(f"graevext is already imported: {loaded}")
    code, hits = run_traced(["-q", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors",
                             "--rootdir", str(ROOT), str(ROOT / "tests")])
    unexpected = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(path.name, set())
        for line, text in sorted(statements(path).items()):
            if line not in ran:
                allowed = (path.name, text) in ALLOWED
                unexpected += not allowed
                print(f"{path.name}:{line}: {text}"
                      + ("  (allowed)" if allowed else ""))
    print(f"pytest exit code {code}; {unexpected} statement(s) never ran "
          "outside the allowed list")
    return 1 if code != 0 or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
