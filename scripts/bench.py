"""Scaling measurements: writes BENCH_triplet.json, BENCH_quartet.json and
BENCH_consensus.json at the root of the checkout.

Usage, from the root of a checkout: python3 scripts/bench.py

Every point (series, n) runs in a fresh process.  It builds its seeded
inputs with perfbench/gen.py or as fixed shapes (caterpillars with shuffled
leaves, fans and stars), parses them, then times the whole call REPS times
and records each run, their median and the process's peak RSS
(ru_maxrss).  Each series records the least-squares slope of log median
time against log n.  Each file records the git commit (with "-dirty" when
the working tree differs from it), the CPU count and the numpy version.
BLAS runs one thread, as in perfbench.  Two fans and two stars, whose
peak RSS grows with n², stop at n = 7000 rooted and 3000 unrooted, under
1 GB; the other series stop where one call takes about 5-15 s.  The whole
run takes about 11 minutes on 2 cores.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import numpy as np  # noqa: E402
from polydist import consensus, hausdorff, quartet, triplet  # noqa: E402
from polydist.newick import parse_newick  # noqa: E402
from polydist.trees import Kind  # noqa: E402

REPS = 5
P = Fraction(3, 4)
GREEDY_P = Fraction(2, 3)


def caterpillar(n: int, rng: random.Random, rooted: bool) -> str:
    """A caterpillar over shuffled taxa; unrooted, its top node has three."""
    names = [f"t{i}" for i in range(n)]
    rng.shuffle(names)
    body = names if rooted else names[:-1]
    text = "(" * (len(body) - 1) + body[0] + "".join(f",{x})" for x in body[1:])
    return (text if rooted else text[:-1] + f",{names[-1]})") + ";"


def fan(n: int) -> str:
    return "(" + ",".join(f"t{i}" for i in range(n)) + ");"


def contraction_pair(n, rng, rooted):
    return [t.newick() for t in gen.contraction_pair(n, rng, rooted, 0.15, 0.3)]


def caterpillars(n, rng, rooted):
    return [caterpillar(n, rng, rooted), caterpillar(n, rng, rooted)]


def fans(n, rng, rooted):
    return [fan(n), fan(n)]


def caterpillar_fan(n, rng, rooted):
    return [caterpillar(n, rng, rooted), fan(n)]


def star_profile(n, rng, rooted):
    """A fan / star and n // 10 members, as in the CI step."""
    return [fan(n)] + [gen.partial_tree(n, rng, rooted, 0.2).newick() for _ in range(n // 10)]


def members(n, rng, rooted):
    return [gen.partial_tree(n, rng, rooted, 0.3).newick() for _ in range(3)]


def consensus_refine(trees):
    profile = consensus.Profile(tuple(trees))
    return consensus.greedy_refine_median(consensus.best_of_profile(profile, P).tree, profile, P)


CALLS = {
    "parametric_triplet_distance": lambda t: triplet.parametric_triplet_distance(*t),
    "classification_counts": lambda t: hausdorff.classification_counts(*t),
    "hausdorff_bounds": lambda t: hausdorff.hausdorff_bounds(*t),
    "quartet_classification": lambda t: quartet.quartet_classification(*t),
    "greedy_refine_median": lambda t: consensus.greedy_refine_median(
        t[0], consensus.Profile(tuple(t[1:])), GREEDY_P),
    "consensus --refine": consensus_refine,
}

# file -> [(series, kind, call, inputs, grid)]
SERIES = {
    "triplet": [
        ("contraction pair", "rooted", "parametric_triplet_distance", contraction_pair,
         [800, 1600, 3200, 6400, 12800, 20000]),
        ("contraction pair", "rooted", "hausdorff_bounds", contraction_pair,
         [800, 1600, 3200, 6400, 10000]),
        ("caterpillar pair", "rooted", "parametric_triplet_distance", caterpillars,
         [1000, 2000, 4000, 8000]),
        ("fan, fan", "rooted", "parametric_triplet_distance", fans, [1000, 2000, 4000, 7000]),
        ("caterpillar, fan", "rooted", "classification_counts", caterpillar_fan,
         [1000, 2000, 4000, 8000]),
    ],
    "quartet": [
        ("contraction pair", "unrooted", "quartet_classification", contraction_pair,
         [500, 1000, 2000, 5000, 10000]),
        ("contraction pair", "unrooted", "hausdorff_bounds", contraction_pair,
         [500, 1000, 2000, 5000, 10000]),
        ("caterpillar pair", "unrooted", "quartet_classification", caterpillars,
         [500, 1000, 2000, 4000]),
        ("star, star", "unrooted", "quartet_classification", fans, [500, 1000, 2000, 3000]),
        ("caterpillar, star", "unrooted", "quartet_classification", caterpillar_fan,
         [500, 1000, 2000, 4000]),
    ],
    "consensus": [
        ("greedy from a star", "rooted", "greedy_refine_median", star_profile,
         [25, 50, 100, 200]),
        ("greedy from a star", "unrooted", "greedy_refine_median", star_profile,
         [20, 40, 60, 100]),
        ("consensus --refine", "rooted", "consensus --refine", members, [375, 750, 1500, 3000]),
        ("consensus --refine", "unrooted", "consensus --refine", members, [125, 250, 500, 1000]),
    ],
}


def measure(file: str, index: int, n: int) -> dict:
    """One point, timed in the calling process, which should be fresh."""
    _, kind, call, inputs, _ = SERIES[file][index]
    rooted = kind == "rooted"
    trees = [parse_newick(t, Kind.ROOTED if rooted else Kind.UNROOTED)
             for t in inputs(n, random.Random(n), rooted)]
    runs = []
    for _ in range(REPS):
        start = time.perf_counter()
        CALLS[call](trees)
        runs.append(round(time.perf_counter() - start, 5))
    return {"n": n, "median_s": statistics.median(runs), "runs_s": runs,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def slope(points: list[dict]) -> float:
    x = [math.log(p["n"]) for p in points]
    y = [math.log(p["median_s"]) for p in points]
    mx, my = statistics.fmean(x), statistics.fmean(y)
    return round(sum((a - mx) * (b - my) for a, b in zip(x, y)) /
                 sum((a - mx) ** 2 for a in x), 2)


def run_file(file: str) -> dict:
    spawn = multiprocessing.get_context("spawn")
    series = []
    for index, (name, kind, call, _, grid) in enumerate(SERIES[file]):
        points = []
        for n in grid:
            with spawn.Pool(1) as pool:
                points.append(pool.apply(measure, (file, index, n)))
            print(f"{file}: {name}, {kind}, n = {n}: {points[-1]['median_s']:.4f} s, "
                  f"{points[-1]['peak_rss_mb']} MB", file=sys.stderr)
        series.append({"series": name, "kind": kind, "call": call, "points": points,
                       "slope": slope(points)})
    git = ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"]
    return {"commit": subprocess.run(git, capture_output=True, text=True).stdout.strip(),
            "cpus": os.cpu_count(), "numpy": np.__version__,
            "python": sys.version.split()[0], "reps": REPS, "series": series}


def main():
    for file in SERIES:
        report = run_file(file)
        (ROOT / f"BENCH_{file}.json").write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
