"""The benchmark's three workloads: inputs, set-up, operations and checks.

Each workload is made from a seed by the benchmark's own generator, as
Newick text.  `setup` parses that text with the library, the way the CLI
does; a round runs a fixed list of operations through the library's
public functions; `check` verifies the results of one round afterwards.

Sizes (full / smoke):

* rooted_compare: 3 rooted trees, n = 1600 / 60.  T0 has 15% of its
  internal edges contracted, T1 contracts another 30% of T0's, T2 has 45%
  contracted.  An operation is one pair (i < j): the triplet distance and
  the Hausdorff bounds.
* unrooted_compare: 4 unrooted trees, n = 64 / 12.  T0 (15%), its
  contraction T1 (another 30%), T2 (30%), T3 (50%).  An operation is one
  pair: the quartet distance at p = 3/4 and the Hausdorff bounds.
* consensus_refine: aggregation jobs, rooted at n = 40 / 10 and unrooted
  at n = 18 / 8.  Per kind: two greedy refinements of a fan (star) against
  profiles of 5 / 3 fully resolved trees at p = 2/3; on each of three
  profiles of 6 / 4 partially resolved trees (contraction rates 10% to
  60%), best_of_profile + greedy_refine_median at p = 3/4 and
  adversarial_refinement of its first two consecutive pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
import gen

WORKLOADS = ("rooted_compare", "unrooted_compare", "consensus_refine")

SIZES = {
    # name: (full, smoke)
    "rooted_n": (1600, 60),
    "unrooted_n": (64, 12),
    "consensus_rooted_n": (40, 10),
    "consensus_unrooted_n": (18, 8),
    "consensus_k": (6, 4),
    "refine_k": (5, 3),
}

P_QUARTET = Fraction(3, 4)
P_CONSENSUS = Fraction(3, 4)
P_REFINE = Fraction(2, 3)   # the guaranteed regime of the greedy refinement
REFINE_JOBS = 2              # fan/star refinements per kind and round
CONSENSUS_JOBS = 3           # consensus profiles per kind and round
ADVERSARIAL_PAIRS = 2        # adversarial jobs per consensus profile


def size(key: str, smoke: bool) -> int:
    return SIZES[key][1 if smoke else 0]


@dataclass
class Inputs:
    """Generated trees (the benchmark's own structure) and their Newick text,
    in named groups; `rooted[g]` says how group g is read."""

    groups: dict[str, list[gen.GenTree]]
    rooted: dict[str, bool]

    def texts(self) -> dict[str, list[str]]:
        return {g: [t.newick() for t in trees] for g, trees in self.groups.items()}


def make_inputs(workload: str, seed: int, smoke: bool) -> Inputs:
    rng = random.Random(f"{workload}:{seed}")
    groups: dict[str, list[gen.GenTree]] = {}
    rooted: dict[str, bool] = {}
    if workload in ("rooted_compare", "unrooted_compare"):
        is_rooted = workload == "rooted_compare"
        n = size("rooted_n" if is_rooted else "unrooted_n", smoke)
        fine, coarse = gen.contraction_pair(n, rng, is_rooted, 0.15, 0.3)
        others = (0.45,) if is_rooted else (0.3, 0.5)
        groups["profile"] = [fine, coarse] + [gen.partial_tree(n, rng, is_rooted, r)
                                              for r in others]
        rooted["profile"] = is_rooted
    elif workload == "consensus_refine":
        k, kr = size("consensus_k", smoke), size("refine_k", smoke)
        for tag, is_rooted in (("rooted", True), ("unrooted", False)):
            n = size(f"consensus_{tag}_n", smoke)
            for j in range(CONSENSUS_JOBS):
                groups[f"{tag}_profile{j}"] = [
                    gen.binary_tree(n, rng, is_rooted).contract_matching(rng)
                    for _ in range(k)]
                rooted[f"{tag}_profile{j}"] = is_rooted
            for j in range(REFINE_JOBS):
                groups[f"{tag}_resolved{j}"] = [gen.binary_tree(n, rng, is_rooted)
                                                for _ in range(kr)]
                rooted[f"{tag}_resolved{j}"] = is_rooted
            star = gen.binary_tree(n, rng, is_rooted)
            groups[f"{tag}_fan"] = [star.contract_nodes(set(star.internal_edges()))]
            rooted[f"{tag}_fan"] = is_rooted
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(groups, rooted)


def setup(inputs_texts: dict[str, list[str]], rooted: dict[str, bool]):
    """Parse every group into Phylogeny objects, and profiles where a group
    is used as one.  This is what `setup_s` times."""
    from polydist.consensus import Profile
    from polydist.newick import parse_newick
    from polydist.trees import Kind

    trees = {g: [parse_newick(t, Kind.ROOTED if rooted[g] else Kind.UNROOTED)
                 for t in texts]
             for g, texts in inputs_texts.items()}
    profiles = {g: Profile(tuple(ts)) for g, ts in trees.items()
                if "profile" in g or "resolved" in g}
    return trees, profiles


@dataclass
class Op:
    """One operation of a round; `run` returns the result to be checked."""

    tag: str
    run: Callable[[], object]


def operations(workload: str, trees: dict, profiles: dict) -> list[Op]:
    from polydist import consensus, hausdorff, quartet, triplet

    ops: list[Op] = []
    if workload in ("rooted_compare", "unrooted_compare"):
        ts = trees["profile"]
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                a, b = ts[i], ts[j]
                if workload == "rooted_compare":
                    def run(a=a, b=b):
                        return (triplet.parametric_triplet_distance(a, b),
                                hausdorff.hausdorff_bounds(a, b))
                else:
                    def run(a=a, b=b):
                        return (quartet.parametric_quartet_distance(a, b, P_QUARTET),
                                hausdorff.hausdorff_bounds(a, b))
                ops.append(Op(f"pair{i}{j}", run))
        return ops
    for tag in ("rooted", "unrooted"):
        fan = trees[f"{tag}_fan"][0]
        for j in range(REFINE_JOBS):
            ops.append(Op(f"{tag}_refine{j}",
                          lambda fan=fan, r=profiles[f"{tag}_resolved{j}"]:
                          consensus.greedy_refine_median(fan, r, P_REFINE)))
        for j in range(CONSENSUS_JOBS):
            prof = profiles[f"{tag}_profile{j}"]

            def consensus_refine(prof=prof):
                best = consensus.best_of_profile(prof, P_CONSENSUS)
                return best, consensus.greedy_refine_median(best.tree, prof, P_CONSENSUS)
            ops.append(Op(f"{tag}_consensus{j}", consensus_refine))
            for i in range(ADVERSARIAL_PAIRS):
                ops.append(Op(f"{tag}_adversarial{j}.{i}",
                              lambda a=prof.trees[i], b=prof.trees[i + 1]:
                              hausdorff.adversarial_refinement(a, b)))
    return ops


def check(workload: str, inputs: Inputs, trees: dict, results: dict) -> list[str]:
    """All checks on one round's results; returns the problems found."""
    problems: list[str] = []
    if workload in ("rooted_compare", "unrooted_compare"):
        is_rooted = workload == "rooted_compare"
        own = inputs.groups["profile"]
        n = own[0].n
        R = [checks.resolved_count(t, is_rooted) for t in own]
        table = None if is_rooted else checks.SubsetTable(
            [lab for lab in own[0].label if lab is not None], 4)
        codes = None if is_rooted else [table.codes(t) for t in own]
        half = {}
        for i in range(len(own)):
            for j in range(i + 1, len(own)):
                tag = f"{workload}/pair{i}{j}"
                if f"pair{i}{j}" not in results:
                    continue
                dist, bounds = results[f"pair{i}{j}"]
                brute = None if is_rooted else table.compare(codes[i], codes[j])
                problems += checks.check_pair(
                    tag, n, is_rooted, R[i], R[j], bounds,
                    dist=dist if is_rooted else None,
                    contraction=(i, j) == (0, 1), brute=brute)
                if is_rooted:
                    half[(i, j)] = dist.evaluate(Fraction(1, 2))
                else:
                    _, d, r1, r2, _ = brute
                    problems += checks.check_quartet_interval(
                        tag, dist, d + P_QUARTET * (r1 + r2))
        if is_rooted and len(half) == len(results):
            problems += checks.check_triangle(f"{workload}/p=1/2", half)
        return problems
    for tag, is_rooted in (("rooted", True), ("unrooted", False)):
        labels = trees[f"{tag}_fan"][0].taxa.labels
        table = checks.SubsetTable(labels, 3 if is_rooted else 4)
        fan = trees[f"{tag}_fan"][0]
        for j in range(REFINE_JOBS):
            if f"{tag}_refine{j}" in results:
                problems += checks.check_greedy(
                    f"{tag}_refine{j}", table, fan, trees[f"{tag}_resolved{j}"], P_REFINE,
                    results[f"{tag}_refine{j}"], is_rooted, guaranteed=True)
        for j in range(CONSENSUS_JOBS):
            members = trees[f"{tag}_profile{j}"]
            if f"{tag}_consensus{j}" in results:
                best, greedy = results[f"{tag}_consensus{j}"]
                problems += checks.check_best(f"{tag}_consensus{j}", table, members,
                                              P_CONSENSUS, best)
                problems += checks.check_greedy(f"{tag}_consensus{j}", table, best.tree,
                                                members, P_CONSENSUS, greedy, is_rooted,
                                                guaranteed=False)
            for i in range(ADVERSARIAL_PAIRS):
                key = f"{tag}_adversarial{j}.{i}"
                if key in results:
                    problems += checks.check_adversarial(
                        key, table, members[i], members[i + 1], results[key], is_rooted)
    return problems
