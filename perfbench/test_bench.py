"""Tests of the benchmark itself: generator, checks, tracer and smoke runs.

Run from the repository root with `python3 -m pytest perfbench`.  Each
check must reject a corrupted result, so a check that passes everything
cannot hide behind a passing benchmark.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import run

run.import_library()

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from polydist import consensus, hausdorff, triplet  # noqa: E402
from polydist.hausdorff import HausdorffBounds  # noqa: E402
from polydist.newick import parse_newick  # noqa: E402
from polydist.oracle import DistancePair  # noqa: E402
from polydist.trees import Kind, contract  # noqa: E402


def parsed(t: gen.GenTree):
    return parse_newick(t.newick(), Kind.ROOTED if t.rooted else Kind.UNROOTED)


def rooted_pair(n=30, seed=3):
    rng = random.Random(seed)
    a = gen.partial_tree(n, rng, True, 0.1)
    b = gen.partial_tree(n, rng, True, 0.5)
    return a, b


# -- generator -------------------------------------------------------------

@pytest.mark.parametrize("rooted", [True, False])
def test_generator_is_seeded_and_valid(rooted):
    texts = [gen.partial_tree(50, random.Random(7), rooted, 0.3).newick() for _ in range(2)]
    assert texts[0] == texts[1]
    tree = parse_newick(texts[0], Kind.ROOTED if rooted else Kind.UNROOTED)
    assert tree.n == 50 and not tree.validate()
    assert texts[0] != gen.partial_tree(50, random.Random(8), rooted, 0.3).newick()


@pytest.mark.parametrize("rooted", [True, False])
def test_contraction_pair_and_matching(rooted):
    rng = random.Random(1)
    fine, coarse = gen.contraction_pair(40, rng, rooted, 0.2, 0.4)
    edges = checks.clusters if rooted else checks.splits
    assert edges(coarse) < edges(fine)
    binary = gen.binary_tree(40, rng, rooted)
    matched = binary.contract_matching(rng)
    assert len(edges(binary)) - len(edges(matched)) == len(binary.internal_edges()) // 5
    # children of a rooted node, or degree of an unrooted one (node 0 is the handle)
    degrees = [len(c) + (not rooted and v != 0) for v, c in enumerate(matched.children) if c]
    polytomy = 3 if rooted else 4
    assert polytomy in degrees and max(degrees) == polytomy


@pytest.mark.parametrize("rooted", [True, False])
def test_own_resolved_count_matches_brute_force(rooted):
    t = gen.partial_tree(14, random.Random(5), rooted, 0.4)
    table = checks.SubsetTable([lab for lab in t.label if lab is not None], 3 if rooted else 4)
    assert checks.resolved_count(t, rooted) == int((table.codes(t) != 3).sum())


# -- checks reject corrupted results ----------------------------------------

def rooted_case():
    a, b = rooted_pair()
    ta, tb = parsed(a), parsed(b)
    R1, R2 = checks.resolved_count(a, True), checks.resolved_count(b, True)
    assert R1 != R2  # so that swapping r1 and r2 is visible
    return R1, R2, triplet.parametric_triplet_distance(ta, tb), hausdorff.hausdorff_bounds(ta, tb)


def test_rooted_pair_check_accepts_then_rejects_d_count_plus_one():
    R1, R2, dist, bounds = rooted_case()
    assert checks.check_pair("ok", 30, True, R1, R2, bounds, dist=dist) == []
    bad = DistancePair(dist.d_count + 1, dist.r_count)
    assert checks.check_pair("bad", 30, True, R1, R2, bounds, dist=bad)


def test_rooted_pair_check_rejects_swapped_r1_r2():
    R1, R2, dist, bounds = rooted_case()
    swapped = HausdorffBounds(bounds.lower, bounds.upper, bounds.components.swapped())
    assert checks.check_pair("bad", 30, True, R1, R2, swapped, dist=dist)


def test_unrooted_pair_check_rejects_swapped_r1_r2():
    rng = random.Random(2)
    a, b = gen.partial_tree(12, rng, False, 0.1), gen.partial_tree(12, rng, False, 0.6)
    ta, tb = parsed(a), parsed(b)
    table = checks.SubsetTable(ta.taxa.labels, 4)
    brute = table.classify(a, b)
    R1, R2 = checks.resolved_count(a, False), checks.resolved_count(b, False)
    bounds = hausdorff.hausdorff_bounds(ta, tb)
    assert checks.check_pair("ok", 12, False, R1, R2, bounds, brute=brute) == []
    swapped = HausdorffBounds(bounds.lower, bounds.upper, bounds.components.swapped())
    assert checks.check_pair("bad", 12, False, R1, R2, swapped, brute=brute)


def test_contraction_check_rejects_nonzero_d():
    rng = random.Random(4)
    fine, coarse = gen.contraction_pair(30, rng, True, 0.1, 0.4)
    tf, tc = parsed(fine), parsed(coarse)
    R1, R2 = checks.resolved_count(fine, True), checks.resolved_count(coarse, True)
    dist = triplet.parametric_triplet_distance(tf, tc)
    bounds = hausdorff.hausdorff_bounds(tf, tc)
    assert checks.check_pair("ok", 30, True, R1, R2, bounds, dist=dist, contraction=True) == []
    c = bounds.components
    moved = replace(c, s=c.s - 1, d=c.d + 1)  # one shared triplet reported as different
    bad = HausdorffBounds(bounds.lower + 1, bounds.upper + 1, moved)
    assert checks.check_pair("bad", 30, True, R1, R2, bad, contraction=True)


def test_triangle_check_rejects_a_long_side():
    d = {(0, 1): Fraction(1), (1, 2): Fraction(1), (0, 2): Fraction(2)}
    assert checks.check_triangle("ok", d) == []
    d[(0, 2)] = Fraction(5, 2)
    assert checks.check_triangle("bad", d)


def greedy_case():
    rng = random.Random(6)
    fan_src = gen.binary_tree(9, rng, True)
    fan = parsed(fan_src.contract_nodes(set(fan_src.internal_edges())))
    members = [parsed(gen.binary_tree(9, rng, True)) for _ in range(3)]
    table = checks.SubsetTable(fan.taxa.labels, 3)
    result = consensus.greedy_refine_median(fan, consensus.Profile(tuple(members)),
                                            Fraction(2, 3))
    return table, fan, members, result


def test_greedy_check_rejects_a_polytomy_left_in_place():
    table, fan, members, result = greedy_case()
    p = Fraction(2, 3)
    assert checks.check_greedy("ok", table, fan, members, p, result, True, True) == []
    internal = [v for v in range(result.tree.num_nodes)
                if result.tree.children[v] and v != result.tree.root]
    coarse = contract(result.tree, internal[0])
    bad = replace(result, tree=coarse)
    problems = checks.check_greedy("bad", table, fan, members, p, bad, True, True)
    assert any("polytomy" in msg for msg in problems)


def test_greedy_check_rejects_a_tree_that_does_not_refine_its_start():
    table, fan, members, result = greedy_case()
    p = Fraction(2, 3)
    start = members[0]  # fully resolved, and not refined by the result
    other = members[1]
    assert not checks.clusters(start) <= checks.clusters(other)
    bad = replace(result, tree=other)
    problems = checks.check_greedy("bad", table, start, members, p, bad, True, False)
    assert any("not a refinement" in msg for msg in problems)


def test_adversarial_check_rejects_an_unrefined_result():
    rng = random.Random(9)
    a = parsed(gen.binary_tree(10, rng, True).contract_matching(rng))
    b = parsed(gen.binary_tree(10, rng, True))
    table = checks.SubsetTable(a.taxa.labels, 3)
    result = hausdorff.adversarial_refinement(a, b)
    assert checks.check_adversarial("ok", table, a, b, result, True) == []
    assert table.classify(a, b)[3] > 0  # r2 > 0, so the unrefined t1 leaves it
    bad = replace(result, refined=a)
    assert checks.check_adversarial("bad", table, a, b, bad, True)


# -- tracer ------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    import polydist.quartet
    original = triplet.build_tables
    tracer = Tracer()
    tracer.install()
    try:
        assert hausdorff.build_tables is not original
        assert polydist.quartet.build_tables is hausdorff.build_tables
        a, b = rooted_pair(12)
        hausdorff.hausdorff_bounds(parsed(a), parsed(b))
    finally:
        tracer.uninstall()
    assert hausdorff.build_tables is original and triplet.build_tables is original
    inclusive, layer_self, counts = tracer.totals()
    assert counts["triplet.build_tables.calls"] == 2  # the r2 pass builds a second set
    assert inclusive["hausdorff.bounds"] >= inclusive["hausdorff.classification_counts"]
    total_self = sum(layer_self.values())
    assert abs(total_self - inclusive["hausdorff.bounds"]) < 1e-6


# -- smoke --------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_smoke(workload, traced):
    res = run.run_workload(workload, seed=1, seconds=0, traced=traced, smoke=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = set(res["metrics"])
    if traced:
        assert set(run.LAYER_METRICS) | {"newick.parse_s"} <= names
    else:
        assert names == {"ops_per_s", "peak_rss_mb", "setup_s"}
