"""Run each workload on several seeds and print every end-to-end metric's
spread against its bound in BENCHMARK.json.

    python3 bench/steady.py                      # seeds 1-10, every workload
    python3 bench/steady.py --seeds 5 --workloads free_search

Each run lasts ``run_seconds`` from BENCHMARK.json.  The spread is the
distance between the first and third quartiles of the values, as
``statistics.quantiles(values, n=4)`` gives them, as a share of their
median.  A metric is steady when its spread stays below a third of its
bound, and too wide when it exceeds the bound.  Runs go one at a time;
the raw results are also written to ``.bench_out/steady.json`` as each
workload finishes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, perf_counter() - start
            runs.append(result)
        report[workload] = runs
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / "steady.json").write_text(json.dumps(report, indent=1))
        shares = {str(Fraction(r["failed"], r["attempted"])) for r in runs}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)}, "
              f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s per run")
        print(f"  {'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:16s} {statistics.median(values):12.4f} {spread:8.4f} "
                  f"{bound:6.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
