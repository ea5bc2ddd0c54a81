"""Show that the tests can fail: apply named source edits (mutants) one at
a time and run the tests that each one should break.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

``MUTANTS`` maps a name to one edit of ``src/`` or ``tests/``: the file,
relative to the repository root, the exact text to replace (it must
occur once), its replacement, and the tests expected to kill the
mutant.  For each edit the tool copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the edit to the
copy, runs the listed tests there, and prints ``killed`` with the tests
that failed, or ``survived``.  A run past ``TIMEOUT`` counts as killed.
It exits 0 when every mutant is killed, 1 when one survives or cannot
run (its text not found once, or no test failed or passed), and 2 for
an unknown name.  The tree itself is never edited.  It needs only the
standard library besides the test suite's own dependencies, and pytest
does not collect it (its name does not start with ``test_``).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seconds the tests of one mutant may take; a mutant can make a search loop
TIMEOUT = 300

QP, NORMS, QU, SCHEMES = ("tests/test_qpspace.py", "tests/test_norms.py",
                          "tests/test_quniform.py", "tests/test_schemes.py")
CLI, PROPS = "tests/test_cli.py", "tests/test_properties.py"
SRC = "src/graevext"

# name -> (file under the root, text, replacement, killing tests)
MUTANTS = {
    # the integer screen and the exact loop of QPSpace.validate
    "screen-le-as-lt": (
        f"{SRC}/qpspace.py", "from operator import le", "from operator import lt as le",
        (f"{QP}::test_validate_against_brute_force",
         f"{QP}::test_valid_space_validation_does_no_fraction_arithmetic")),
    "validate-last-k-skipped": (
        f"{SRC}/qpspace.py", "                for k in range(n):\n",
        "                for k in range(n - 1):\n",
        (f"{QP}::test_validate_against_brute_force",)),
    # the bound on the size of the integer view
    "view-guard-dropped": (
        f"{SRC}/qpspace.py", "if size * scale.bit_length() > VIEW_BITS:",
        "if False:",
        (f"{CLI}::test_space_past_the_view_bound_is_refused",)),
    # the wmember cut
    "cut-arcs-reversed": (
        f"{SRC}/quniform.py", "arcs = {(x, y): 0 for level",
        "arcs = {(y, x): 0 for level",
        (f"{QU}::test_cut_needs_a_flow_not_reachability",
         f"{QU}::test_cut_against_brute_force")),
    "cut-last-prefix-level-left-out": (
        f"{SRC}/quniform.py", '"k_max", 1, k_max,', '"k_max", 1, k_max - 1,',
        (f"{QU}::test_cut_against_brute_force",
         f"{QU}::test_decompose_prefix_examples")),
    # the gallop searches at the bound only after every smaller probe
    "bound-search-first": (
        f"{SRC}/quniform.py", "    found, step = None, 1\n",
        "    found, step = search(levels, bound), 1\n"
        "    if found is None:\n        return None\n",
        (f"{QU}::test_prefix_hit_at_a_small_k_skips_the_search_at_the_bound",)),
    # the min-cost flow and the abelian norm on it
    "flow-first-reachable-demand": (
        f"{SRC}/flow.py", "end = min(ends, key=dist.__getitem__)", "end = ends[0]",
        (f"{NORMS}::test_abelian_assignment_crosses_term_order",
         f"{NORMS}::test_flow_against_permutations",
         f"{NORMS}::test_conjugate_space_law")),
    "flow-reverse-arcs-ignored": (
        f"{SRC}/flow.py", "                     if flow[x, y]]",
        "                     if False]",
        (f"{NORMS}::test_abelian_flow_reroutes_the_cheapest_pair",
         f"{NORMS}::test_flow_against_permutations")),
    "abelian-costs-transposed": (
        f"{SRC}/norms.py", "rows[index[x]][index[y]]", "rows[index[y]][index[x]]",
        (f"{NORMS}::test_abelian_assignment_crosses_term_order",
         f"{NORMS}::test_abelian_norm_matches_oracle",
         f"{PROPS}::test_abelian_triangle_law")),
    "abelian-excess-charged-2": (
        f"{SRC}/norms.py", "+ excess\n", "+ 2 * excess\n",
        (f"{NORMS}::test_abelian_norm_matches_oracle",
         f"{PROPS}::test_abelian_norm_against_oracle",
         f"{PROPS}::test_abelian_norm_at_most_free_norm")),
    "abelian-value-not-scaled": (
        f"{SRC}/norms.py", "Fraction(shipped, scale)", "Fraction(shipped)",
        (f"{NORMS}::test_abelian_norm_matches_oracle",
         f"{PROPS}::test_abelian_norm_against_oracle",
         f"{PROPS}::test_balanced_norm_is_homogeneous")),
    "abelian-odd-carry-lost": (
        f"{SRC}/norms.py", "            units -= 1\n", "",
        (f"{NORMS}::test_abelian_witness_sound",
         f"{PROPS}::test_abelian_norm_against_oracle")),
    "abelian-price-check-ignores-units": (
        f"{SRC}/norms.py", "(den // price.denominator) * units",
        "(den // price.denominator)",
        (f"{NORMS}::test_abelian_large_multiplicity",
         f"{PROPS}::test_balanced_norm_is_homogeneous")),
    # the free norm: delta and the interval DP
    "arc-cost-flipped": (
        f"{SRC}/schemes.py", "return (signed_extension(space, u.inverse(), v)\n"
        "            + signed_extension(space, v.inverse(), u)) / 2",
        "return (signed_extension(space, v, u.inverse())\n"
        "            + signed_extension(space, u, v.inverse())) / 2",
        (f"{PROPS}::test_free_norm_against_search",)),
    "arc-cost-squared": (
        f"{SRC}/schemes.py", "return (signed_extension(space, u.inverse(), v)\n"
        "            + signed_extension(space, v.inverse(), u)) / 2",
        "return ((signed_extension(space, u.inverse(), v)\n"
        "            + signed_extension(space, v.inverse(), u)) / 2) ** 2",
        (f"{PROPS}::test_free_triangle_law",
         f"{PROPS}::test_free_norm_against_search")),
    "dp-scale-not-doubled": (
        f"{SRC}/norms.py", "2 * space.integer_view[0]", "space.integer_view[0]",
        (f"{NORMS}::test_dp_scale_clears_any_half_sum_of_two_rho",)),
    "dp-split-outside-dropped": (
        f"{SRC}/norms.py", "split = arcs[k] + inner[k] + cost[k + 1][j]",
        "split = arcs[k] + inner[k]",
        (f"{PROPS}::test_free_norm_against_search",
         f"{PROPS}::test_free_norm_conjugation_invariant")),
    # the space loader
    "loader-caches-non-str": (
        f"{SRC}/qpspace.py", "if type(x) is not str:",
        "if isinstance(x, (list, dict)):",
        (f"{PROPS}::test_load_matches_one_parse_per_entry",
         f"{PROPS}::test_load_matches_one_parse_per_entry_on_each_fault")),
    "loader-flag-ignored": (
        f"{SRC}/qpspace.py", "if flag and not space.is_bounded_by_one():", "if False:",
        (f"{PROPS}::test_load_matches_one_parse_per_entry",
         f"{PROPS}::test_load_matches_one_parse_per_entry_on_each_fault")),
    # the test helpers: the closure behind every drawn or random space
    "closure-last-step-dropped": (
        "tests/conftest.py", "    for k in range(n):\n", "    for k in range(n - 1):\n",
        (f"{NORMS}::test_abelian_norm_matches_oracle",
         f"{PROPS}::test_abelian_norm_against_oracle")),
    # minimal_open, compose, the crossing test, the entry check and the
    # top-level unknown options
    "minimal-open-last": (
        f"{SRC}/quniform.py", "next(o for o in self.opens if x in o)",
        "next(o for o in reversed(self.opens) if x in o)",
        (f"{QU}::test_universal_base_sierpinski",
         f"{QU}::test_universal_base_is_unique_compatible_preorder")),
    "compose-intersects-rows": (
        f"{SRC}/quniform.py", "rows = tuple(tuple(map(any, zip(*(",
        "rows = tuple(tuple(map(all, zip(*(",
        (f"{QU}::test_compose_matches_matrix_oracle",
         f"{QU}::test_compose_identity_and_convention")),
    "crossing-unchecked": (
        f"{SRC}/schemes.py", "if c < b < d:", "if c < b < d < a:",
        (f"{SCHEMES}::test_is_scheme",
         f"{SCHEMES}::test_scheme_constructor_validates")),
    "negative-entries-accepted": (
        f"{SRC}/qpspace.py", "    if value.numerator < 0:\n", "    if False:\n",
        (f"{QP}::test_constructor_takes_only_int_and_fraction_entries",)),
    "unknown-options-shifted": (
        f"{SRC}/cli.py", '" ".join(argv[:i])', '" ".join(argv[1:i])',
        (f"{CLI}::test_unknown_options_before_the_command_are_named",)),
    # integer arguments and the modules a command loads
    "int-check-dropped": (
        f"{SRC}/quniform.py", "    check_int(name, bound)\n", "",
        (f"{QU}::test_integer_arguments_take_only_int",)),
    "stray-import": (
        f"{SRC}/quniform.py", "import os\n",
        "import os\nfrom fractions import Fraction\n",
        (f"{CLI}::test_commands_import_only_what_they_run",)),
}


def run(path: str, text: str, replacement: str, tests) -> str:
    """The verdict on one mutant: ``killed`` with the failed tests,
    ``survived``, or why it could not run."""
    with tempfile.TemporaryDirectory(prefix="graevext-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / path
        source = target.read_text(encoding="utf-8")
        if source.count(text) != 1:
            return f"not applied: the text occurs {source.count(text)} times"
        target.write_text(source.replace(text, replacement), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 *tests], cwd=work, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"killed (past {TIMEOUT} s)"
    if proc.returncode == 0:
        return "survived"
    # the test names of the failure lines, without parameters
    failed = dict.fromkeys(line.split()[1].split("::")[-1].split("[")[0]
                           for line in proc.stdout.splitlines()
                           if line.startswith(("FAILED ", "ERROR ")))
    if proc.returncode in (1, 2) and failed:
        return "killed by " + ", ".join(failed)
    return f"not run: pytest exit {proc.returncode}\n{proc.stdout[-2000:]}"


def main(names) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    for name in names or MUTANTS:
        verdict = run(*MUTANTS[name])
        print(f"{name}: {verdict}", flush=True)
        survivors += not verdict.startswith("killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
