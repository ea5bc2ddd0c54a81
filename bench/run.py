"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload free_search --seed 1 --seconds 20 --trace 0

The package is loaded from ``src`` next to this directory, and the
checks use ``tests/oracles.py``; without them the run exits 2 before
measuring anything.  One client runs whole rounds of operations in a
closed loop (the next operation starts when the last one returns) until
``--seconds`` of operation time and at least ``MIN_SAMPLES`` operations
have passed.  Every operation's result is checked after the round,
outside the timed region, and a fixed sample is compared with the
brute-force oracles after timing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced in-process rounds of the same operations, then runs
one traced in-process round of every workload (the probe), times bare
interpreter start and ``import graevext.cli`` in fresh processes, writes
the spans to ``.bench_out/traces/`` and prints the per-layer metrics.
Work files go to ``.bench_out/work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 25
# a p90 needs at least ten samples beyond it
MIN_SAMPLES = 100
PROCESS_REPEATS = 5


class Stats:
    """Counts, latencies and problems of the operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.latencies: list[float] = []
        self.problems: list[str] = []
        self.failures: list[str] = []

    def execute(self, ops, tracer=None) -> float:
        """Run the operations one after another (under ``tracer`` if given),
        then check them untraced.  Returns the time the operations took."""
        if tracer is None:
            results, spent = self._run(ops, lambda op: op.run())
        else:
            with tracer.installed():
                results, spent = self._run(ops, lambda op: tracer.op(op.run))
        for op, result in zip(ops, results):
            if result is None:
                continue
            try:
                problem = op.check(result[0])
            except Exception as exc:  # malformed output is a wrong result
                problem = f"unreadable result: {type(exc).__name__}: {exc}"
            if problem:
                self.problems.append(f"{op.kind}: {problem}")
        return spent

    def _run(self, ops, run):
        results = []
        spent = 0.0
        for op in ops:
            start = perf_counter()
            try:
                result = run(op)
            except Exception as exc:  # a failed operation is counted; the run goes on
                took = perf_counter() - start
                self.failed += 1
                self.latencies.append(math.inf)  # a failure misses every latency limit
                if len(self.failures) < 5:
                    self.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                results.append(None)
            else:
                took = perf_counter() - start
                self.latencies.append(took)
                results.append((result,))
            self.attempted += 1
            spent += took
        self.elapsed += spent
        return results, spent


def nearest_rank(ordered, q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_setup(workload) -> float:
    """Time one set-up.  The previous inputs are dropped and garbage is
    collected first, so that every set-up starts from the same heap and
    disk state and does the same work."""
    workload.discard()
    gc.collect()
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def plain_run(workload, seconds: float, subprocesses: bool) -> tuple[Stats, dict]:
    """Set up, then run rounds.  The set-up is repeated between rounds,
    spread evenly over the run, so that its median samples the same
    stretches of machine speed as the operations do; each repeat builds
    the same inputs again."""
    setups = [timed_setup(workload)]
    stats = Stats()
    r = 0
    while stats.elapsed < seconds or stats.attempted < MIN_SAMPLES:
        stats.execute(workload.round(r))
        r += 1
        if stats.elapsed >= len(setups) * seconds / SETUP_REPEATS > 0 \
                and len(setups) < SETUP_REPEATS:
            setups.append(timed_setup(workload))
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workload))
    who = resource.RUSAGE_CHILDREN if subprocesses else resource.RUSAGE_SELF
    ordered = sorted(stats.latencies)
    metrics = {
        "ops_per_s": ((stats.attempted - stats.failed) / stats.elapsed, "1/s"),
        "latency_p50_ms": (nearest_rank(ordered, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (nearest_rank(ordered, 0.9) * 1e3, "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return stats, metrics


def process_ms(argv, env) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True,
                   timeout=60)
    return (perf_counter() - start) * 1e3


def traced_run(workloads, spans, workload, seconds: float, workdir: Path):
    """Alternate untraced and traced in-process rounds (each round runs
    both ways, in alternating order), then trace the probe."""
    tracer = spans.Tracer()
    if isinstance(workload, workloads.CliSession):
        workload.inprocess = True
    stats = Stats()
    plain = traced = 0.0
    traced_ops = 0
    r = 0
    while plain + traced < seconds or stats.attempted < MIN_SAMPLES:
        ops = workload.round(r)
        for use_tracer in ((False, True) if r % 2 == 0 else (True, False)):
            if use_tracer:
                traced += stats.execute(ops, tracer)
                traced_ops += len(ops)
            else:
                plain += stats.execute(ops)
        r += 1

    tracer.start_probe()
    probe_stats = Stats()
    probe_ops = 0
    for cls in workloads.WORKLOADS.values():
        probe = cls(workload.seed, workdir / f"probe-{cls.name}")
        probe.pool = 1
        if isinstance(probe, workloads.CliSession):
            probe.inprocess = True
        probe.setup()
        probe_stats.execute(probe.round(0), tracer)
        probe_ops += len(probe.round(0))
    stats.problems += probe_stats.problems

    env = workloads.cli_env()
    bare, imported = [], []
    for _ in range(PROCESS_REPEATS):
        bare.append(process_ms([sys.executable, "-c", "pass"], env))
        imported.append(process_ms([sys.executable, "-c", "import graevext.cli"], env))

    values = tracer.metrics(traced_ops, probe_ops)
    values["cli.interpreter_ms"] = statistics.median(bare)
    values["cli.import_ms"] = statistics.median(imported) - statistics.median(bare)
    values["trace.overhead_pct"] = (traced / plain - 1) * 100
    return stats, values, tracer


PER_LAYER_UNITS = {"_us": "us", "_ms": "ms", "_calls": "count",
                   "_letters": "count", "_pct": "%"}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "graevext" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print("error: bench/ needs src/graevext and tests/oracles.py beside it",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            workload.setup()
            stats, values, tracer = traced_run(workloads, spans, workload,
                                               args.seconds, workdir)
            metrics = {name: (value, unit_of(name)) for name, value in values.items()}
        else:
            stats, metrics = plain_run(workload, args.seconds,
                                       isinstance(workload, workloads.CliSession))
        stats.problems += workload.oracle_errors()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in stats.failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in stats.problems[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "metrics": {k: v for k, (v, _) in metrics.items()}})
        for name, (value, unit) in metrics.items():
            source = "  (probe)" if name in tracer.from_probe else ""
            print(f"{name:34s} {value:14.4f} {unit}{source}")
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not stats.problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
