"""Benchmark for polydist's pair comparison and consensus.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rooted_compare --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One run makes its inputs from the seed, runs whole rounds of the
workload's operations until they have taken `--seconds`, checks the first
round's results, and prints one JSON object as its last line.  Set-up
(parsing the inputs) is timed before the rounds and again after every
operation, off the operation clock; `setup_s` is the median.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it wraps
the library's functions, reports the per-layer metrics and writes its
spans under perfbench/out/.  `--smoke` runs every workload at small sizes,
traced and untraced, with its checks.

The library is imported from src/ of the checkout this file sits in; the
benchmark exits with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS_BEFORE = 5

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, so peak memory and time are the workload's own

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def import_library():
    """Import polydist from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "polydist" / "__init__.py").is_file():
        print(f"error: no polydist package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import polydist
    if Path(polydist.__file__).resolve().parent != (SRC / "polydist").resolve():
        print(f"error: polydist imported from {polydist.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    # load every module the workloads and the tracer touch before tracing
    import polydist.consensus  # noqa: F401
    import polydist.hausdorff  # noqa: F401


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> dict:
    inputs = workloads.make_inputs(workload, seed, smoke)
    texts = inputs.texts()
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        setup_times: list[float] = []

        def timed_setup():
            t0 = time.perf_counter()
            made = workloads.setup(texts, inputs.rooted)
            setup_times.append(time.perf_counter() - t0)
            return made

        for _ in range(SETUP_REPS_BEFORE):
            trees, profiles = timed_setup()
        ops = workloads.operations(workload, trees, profiles)

        timed_mark = tracer.mark() if tracer else None
        results: dict[str, object] = {}
        attempted = failed = rounds = 0
        elapsed = 0.0
        while elapsed < seconds or rounds == 0:
            for op in ops:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception:  # an operation that fails is counted, not fatal
                    failed += 1
                    print(f"operation {op.tag} failed:\n{traceback.format_exc()}",
                          file=sys.stderr)
                    result = None
                elapsed += time.perf_counter() - t0
                if rounds == 0 and result is not None:
                    results[op.tag] = result
                # set-up is sampled across the whole run, outside the op clock,
                # so that its median sees the same machine as the operations
                timed_setup()
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer:
            tracer.uninstall()

    problems = workloads.check(workload, inputs, trees, results)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    ops_per_s = (attempted - failed) / elapsed

    if tracer:
        metrics = layer_metrics(tracer, timed_mark, rounds, len(setup_times), ops_per_s)
        if not smoke:
            tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv")
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(f"{workload} seed={seed} rounds={rounds} ops/round={len(ops)} "
          f"elapsed={elapsed:.3f}s", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# per-layer metric -> (span name or count key, kind); kinds: "s" inclusive
# seconds of the span per round, "n" count per round
LAYER_METRICS = {
    "trees.lca_tables_s": ("trees.lca_tables", "s"),
    "trees.lca_tables_calls": ("trees.lca_tables.calls", "n"),
    "trees.lca_tables_builds": ("trees.lca_tables.builds", "n"),
    "trees.edit_s": ("trees.edit", "s"),
    "trees.edits": ("trees.edit.calls", "n"),
    "triplet.build_tables_s": ("triplet.build_tables", "s"),
    "triplet.count_shared_s": ("triplet.count_shared", "s"),
    "triplet.count_r1_s": ("triplet.count_r1", "s"),
    "triplet.count_R_U_s": ("triplet.count_R_U", "s"),
    "triplet.build_tables_calls": ("triplet.build_tables.calls", "n"),
    "triplet.table_cells": ("triplet.table_cells", "n"),
    "quartet.count_shared_s": ("quartet.count_shared", "s"),
    "quartet.approx_r1_s": ("quartet.approx_r1", "s"),
    "quartet.count_R_U_s": ("quartet.count_R_U", "s"),
    "oracle.classify_s": ("oracle.classify", "s"),
    "oracle.subsets_classified": ("oracle.subsets_classified", "n"),
    "hausdorff.classification_counts_s": ("hausdorff.classification_counts", "s"),
    "hausdorff.adversarial_s": ("hausdorff.adversarial", "s"),
    "consensus.vote_tally_s": ("consensus.vote_tally", "s"),
    "consensus.vote_tally_calls": ("consensus.vote_tally.calls", "n"),
    "consensus.profile_distance_s": ("consensus.profile_distance", "s"),
    "consensus.best_of_profile_s": ("consensus.best_of_profile", "s"),
    "consensus.greedy_steps": ("consensus.greedy_steps", "n"),
}


def layer_metrics(tracer: Tracer, timed_mark, rounds: int, setups: int,
                  ops_per_s: float) -> dict:
    parse_total = tracer.totals()[0].get("newick.parse", 0.0)
    inclusive, layer_self, counts = tracer.totals(timed_mark)
    metrics = {"newick.parse_s": {"value": parse_total / setups, "unit": "s/setup"}}
    for name, (key, kind) in LAYER_METRICS.items():
        if kind == "s":
            metrics[name] = {"value": inclusive.get(key, 0.0) / rounds, "unit": "s/round"}
        else:
            metrics[name] = {"value": counts[key] / rounds, "unit": "count/round"}
    for layer, value in layer_self.items():
        if layer != "newick":
            metrics[f"{layer}.self_s"] = {"value": value / rounds, "unit": "s/round"}
    metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "ops/s"}
    return metrics


def smoke() -> int:
    """Every workload at small sizes, untraced and traced, with its checks."""
    ok = True
    for workload in workloads.WORKLOADS:
        for traced in (False, True):
            res = run_workload(workload, seed=0, seconds=0, traced=traced, smoke=True)
            good = res["correct"] and res["failed"] == 0
            ok &= good
            print(f"{workload} trace={int(traced)}: {'ok' if good else 'FAILED'} "
                  f"({res['attempted']} operations)")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at small sizes and check it")
    args = ap.parse_args(argv)
    import_library()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
