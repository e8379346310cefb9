"""Command-line front end.

Subcommands: dist triplet|quartet, hausdorff-bounds, consensus, refine,
enumerate, expected, selftest.  Text reports by default; --json emits a
deterministic machine-readable report in which every rational is the
string "num/den" (floats appear only for the marked asymptotic value and
sampling stderr).  Exit codes: 0 success, 1 a selftest check failed,
2 usage error, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from polydist import consensus as cns
from polydist import expected as expd
from polydist import hausdorff as hd
from polydist import oracle, quartet, randgen, triplet
from polydist.newick import NewickError, parse_newick_many, write_newick
from polydist.trees import Kind, TreeError


class InputError(Exception):
    pass


def _parse_p(text: str) -> Fraction:
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid rational {text!r}: {exc}") from exc
    if not 0 <= p <= 1:
        raise InputError(f"p must lie in [0, 1], got {p}")
    return p


def _load_trees(path: str, kind: Kind):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_newick_many(text, kind)
    except NewickError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_one(path: str, kind: Kind):
    trees = _load_trees(path, kind)
    if len(trees) != 1:
        raise InputError(f"{path}: expected exactly one tree, found {len(trees)}")
    return trees[0]


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _emit(report: dict, as_json: bool, elapsed: float | None = None):
    if as_json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    def walk(obj: dict, indent=0):
        pad = "  " * indent
        for key, val in obj.items():
            if isinstance(val, dict):
                print(f"{pad}{key}:")
                walk(val, indent + 1)
            elif isinstance(val, list):  # reports hold lists of scalars only
                print(f"{pad}{key}: [{', '.join(map(str, val))}]")
            else:
                print(f"{pad}{key}: {val}")
    walk(report)
    if elapsed is not None:
        print(f"elapsed_s: {elapsed:.3f}")


def _load_pair(args):
    """The two trees of a comparison and its report's inputs."""
    t1 = _load_one(args.tree1, args.kind)
    t2 = _load_one(args.tree2, args.kind)
    return t1, t2, {"tree1": args.tree1, "tree2": args.tree2,
                    "n": t1.n, "kind": args.kind.value}


def _cmd_triplet(args) -> tuple[int, dict]:
    p = _parse_p(args.p)
    t1, t2, inputs = _load_pair(args)
    if args.method == "fast":
        dp = triplet.parametric_triplet_distance(t1, t2)
    else:
        dp = oracle.classify_triplets(t1, t2).to_distance_pair()
    return 0, {
        "command": "dist triplet",
        "inputs": inputs,
        "p": _frac(p),
        "method": args.method,
        "result": {"d_count": dp.d_count, "r_count": dp.r_count,
                   "value": _frac(dp.evaluate(p)), "status": "exact"},
    }


def _cmd_quartet(args) -> tuple[int, dict]:
    p = _parse_p(args.p)
    t1, t2, inputs = _load_pair(args)
    if args.method == "brute":
        d = oracle.classify_quartets(t1, t2).to_distance_pair().evaluate(p)
        ad = quartet.ApproxDistance(d, d, d, exact=True)
    else:
        try:
            ad = quartet.parametric_quartet_distance(t1, t2, p, mode=args.method)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return 0, {
        "command": "dist quartet",
        "inputs": inputs,
        "p": _frac(p),
        "method": args.method,
        "result": {"value": _frac(ad.value),
                   "interval": [_frac(ad.lower), _frac(ad.upper)],
                   "status": "exact" if ad.exact else "2-approx"},
    }


def _cmd_hausdorff(args) -> tuple[int, dict]:
    t1, t2, inputs = _load_pair(args)
    hb = hd.hausdorff_bounds(t1, t2)
    c = hb.components
    report = {
        "command": "hausdorff-bounds",
        "inputs": inputs,
        "result": {"lower": _frac(hb.lower), "upper": _frac(hb.upper),
                   "status": "bound",
                   "components": {"s": c.s, "d": c.d, "r1": c.r1,
                                  "r2": c.r2, "u": c.u}},
    }
    if args.adversarial:
        ar = hd.adversarial_refinement(t1, t2)
        report["adversarial"] = {
            "refined": write_newick(ar.refined),
            "d_achieved": ar.d_achieved,
            "certified_lower": _frac(ar.certified_lower),
            "status": "bound",
        }
    return 0, report


def _cmd_consensus(args) -> tuple[int, dict]:
    p = _parse_p(args.p)
    profile = cns.Profile(tuple(_load_trees(args.profile, args.kind)))
    if args.refine:
        cns.check_vote_bound(profile.k, profile.taxa.n, args.kind is Kind.ROOTED)
    bp = cns.best_of_profile(profile, p)
    report = {
        "command": "consensus",
        "inputs": {"profile": args.profile, "k": profile.k,
                   "n": profile.taxa.n, "kind": args.kind.value},
        "p": _frac(p),
        "best_of_profile": {"tree": write_newick(bp.tree), "index": bp.index,
                            "total": _frac(bp.total),
                            "status": bp.certificate or "no-guarantee"},
    }
    if args.refine:
        g = cns.greedy_refine_median(bp.tree, profile, p)
        report["greedy_refinement"] = _greedy_report(g)
    return 0, report


def _greedy_report(g: cns.GreedyResult) -> dict:
    return {
        "tree": write_newick(g.tree),
        "initial_distance": _frac(g.initial_distance),
        "final_distance": _frac(g.final_distance),
        "steps": g.steps,
        "status": "non-increase-guaranteed" if g.guaranteed else "no-guarantee",
    }


def _cmd_refine(args) -> tuple[int, dict]:
    p = _parse_p(args.p)
    tree = _load_one(args.tree, args.kind)
    profile = cns.Profile(tuple(_load_trees(args.profile, args.kind)))
    g = cns.greedy_refine_median(tree, profile, p)
    report = {
        "command": "refine",
        "inputs": {"tree": args.tree, "profile": args.profile,
                   "k": profile.k, "n": profile.taxa.n, "kind": args.kind.value},
        "p": _frac(p),
        "result": _greedy_report(g),
    }
    return 0, report


def _cmd_enumerate(args) -> tuple[int, dict]:
    trees = expd.tree_count(args.n, args.kind)
    # binary trees: (2n-3)!! rooted, (2n-5)!! unrooted
    resolved = math.prod(range(2 * args.n - (3 if args.kind is Kind.ROOTED else 5), 0, -2))
    report = {
        "command": "enumerate",
        "inputs": {"n": args.n, "kind": args.kind.value},
        "result": {"trees": trees, "fully_resolved": resolved,
                   "status": "exact"},
    }
    return 0, report


def _cmd_expected(args) -> tuple[int, dict]:
    p = _parse_p(args.p)
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, got {args.samples}")
    formula = expd.expected_distance_formula(args.n, p, args.kind)
    stats = expd.exact_resolution_probability(args.n, args.kind)
    report = {
        "command": "expected",
        "inputs": {"n": args.n, "kind": args.kind.value},
        "p": _frac(p),
        "result": {"expected": _frac(formula), "r": _frac(stats.r),
                   "u": _frac(stats.u), "status": "exact"},
    }
    if args.samples:
        em = expd.empirical_expected_distance(args.n, p, args.kind, args.samples, args.seed)
        report["empirical"] = {"mean": _frac(em.mean),
                               "stderr_sq": _frac(em.stderr_sq),
                               "samples": em.samples, "seed": em.seed,
                               "status": "sampled"}
    report["asymptotic_u_float"] = {"value": expd.asymptotic_unresolved(args.n),
                                    "status": "asymptotic-float"}
    return 0, report


def _cmd_selftest(args) -> tuple[int, dict]:
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    rng = random.Random(args.seed)
    failures = []
    for trial in range(args.trials):
        n = rng.randint(4, 20)
        a = randgen.random_partial(n, Kind.ROOTED, rng)
        b = randgen.random_partial(n, Kind.ROOTED, rng, taxa=a.taxa)
        dp = triplet.parametric_triplet_distance(a, b)
        c = oracle.classify_triplets(a, b)
        if (dp.d_count, dp.r_count) != (c.d, c.r1 + c.r2):
            failures.append(f"triplet mismatch at trial {trial} (n={n})")
        if hd.classification_counts(a, b) != c:
            failures.append(f"triplet classification mismatch at trial {trial} (n={n})")
    for trial in range(args.trials):
        n = rng.randint(4, 14)
        a = randgen.random_partial(n, Kind.UNROOTED, rng)
        b = randgen.random_partial(n, Kind.UNROOTED, rng, taxa=a.taxa)
        c = oracle.classify_quartets(a, b)
        if quartet.quartet_classification(a, b) != c:
            failures.append(f"quartet classification mismatch at trial {trial} (n={n})")
        for p in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            ad = quartet.parametric_quartet_distance(a, b, p)
            d = c.to_distance_pair().evaluate(p)
            if not d <= ad.value <= 2 * d:
                failures.append(f"quartet sandwich broken at trial {trial} (n={n}, p={p})")
            if p == Fraction(1, 2) and ad.value != d:
                failures.append(f"quartet p=1/2 inexact at trial {trial} (n={n})")
    report = {
        "command": "selftest",
        "inputs": {"seed": args.seed, "trials": args.trials},
        "result": {"status": "pass" if not failures else "fail",
                   "failures": failures},
    }
    return (0 if not failures else 1), report


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polydist",
        description="Triplet/quartet distances between partially resolved "
                    "phylogenetic trees, Hausdorff bounds, and consensus.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output (deterministic)")

    def unrooted(sp):
        return sp.add_argument("--unrooted", dest="kind", action="store_const",
                               const=Kind.UNROOTED, default=Kind.ROOTED)

    d = sub.add_parser("dist", help="parametric distance between two trees")
    metric = d.add_subparsers(dest="metric", required=True)
    t = metric.add_parser("triplet", help="rooted triplet distance, exact")
    q = metric.add_parser("quartet", help="unrooted quartet distance, exact or 2-approximate")
    for sp in (t, q):
        sp.add_argument("tree1")
        sp.add_argument("tree2")
        sp.add_argument("--p", default="1/2", help='rational, e.g. "1/2" or "0.75"')
        common(sp)
    t.add_argument("--method", choices=["fast", "brute"], default="fast",
                   help="fast (default) or brute, the oracle")
    q.add_argument("--method", choices=["exact", "approx", "brute"], default="exact",
                   help="exact (default), approx (p >= 1/2) or brute, the oracle")
    unrooted(q).help = "accepted; a quartet's input is always unrooted"
    t.set_defaults(fn=_cmd_triplet, kind=Kind.ROOTED)
    q.set_defaults(fn=_cmd_quartet, kind=Kind.UNROOTED)

    h = sub.add_parser("hausdorff-bounds", help="bounds on the Hausdorff distance")
    h.add_argument("tree1")
    h.add_argument("tree2")
    unrooted(h)
    h.add_argument("--adversarial", action="store_true",
                   help="also run the constructive refinement")
    common(h)
    h.set_defaults(fn=_cmd_hausdorff)

    c = sub.add_parser("consensus", help="approximate median of a profile")
    c.add_argument("profile")
    c.add_argument("--p", default="2/3")
    unrooted(c)
    c.add_argument("--refine", action="store_true",
                   help="greedily refine the best member to full resolution")
    common(c)
    c.set_defaults(fn=_cmd_consensus)

    r = sub.add_parser("refine", help="greedy full refinement against a profile")
    r.add_argument("tree")
    r.add_argument("profile")
    r.add_argument("--p", default="2/3")
    unrooted(r)
    common(r)
    r.set_defaults(fn=_cmd_refine)

    e = sub.add_parser("enumerate", help="count phylogenies on n taxa")
    e.add_argument("--n", type=int, required=True)
    unrooted(e)
    common(e)
    e.set_defaults(fn=_cmd_enumerate)

    x = sub.add_parser("expected", help="expected distance over uniform trees")
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--p", default="1/2")
    unrooted(x)
    x.add_argument("--samples", type=int, default=0)
    x.add_argument("--seed", type=int, default=0)
    common(x)
    x.set_defaults(fn=_cmd_expected)

    s = sub.add_parser("selftest", help="oracle-equivalence spot checks")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int, default=25)
    common(s)
    s.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code, report = args.fn(args)
    except (InputError, TreeError, oracle.CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError says nothing
        print(f"error: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    try:
        # timing stays out of --json so identical runs are byte-identical
        _emit(report, args.json, elapsed=None if args.json else elapsed)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; keep the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
