"""Free-group norm time against reduced length, for the reference figures.

    python3 bench/sweep.py

For each reduced length from 2 to 7, times ``graev_norm`` (with its
witness) on 3 random valid 3-point spaces (seed 1), each with a random
reduced word that uses every generator it can (all three from length 3
on), and prints the median and the range.  Length 7, above the default
cap of the free search, is run with the cap raised to the length.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SAMPLES = 3
LENGTHS = range(2, 8)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from graevext import QPSpace, graev_norm
    from graevext.words import Letter, Word

    import gen

    points = ("a", "b", "c")
    print(f"{'length':>6s} {'median_ms':>10s} {'min_ms':>10s} {'max_ms':>10s}")
    for length in LENGTHS:
        rng = gen.round_rng("sweep", SEED, length)
        times = []
        for _ in range(SAMPLES):
            doc = gen.space_doc(points, gen.closed_matrix(rng, 3))
            space = QPSpace.from_json_dict(json.loads(json.dumps(doc)))
            letters = gen.reduced_letters(rng, points[:min(length, 3)], length)
            word = Word(tuple(Letter(g, s) for g, s in letters))
            start = perf_counter()
            graev_norm(space, word, cap=max(length, 6))
            times.append((perf_counter() - start) * 1e3)
        print(f"{length:6d} {statistics.median(times):10.1f} {min(times):10.1f} "
              f"{max(times):10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
