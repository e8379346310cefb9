"""End-to-end acceptance criteria.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line (visible under plain
``pytest -v``) and enforces its stated time budget.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from polydist.consensus import Profile, best_of_profile, greedy_refine_median
from polydist.expected import exact_resolution_probability, expected_distance_formula
from polydist.hausdorff import adversarial_refinement, hausdorff_bounds
from polydist.oracle import (
    classify,
    classify_quartets,
    classify_triplets,
    enumerate_phylogenies,
    hausdorff_exact,
    median_exhaustive,
)
from polydist.quartet import parametric_quartet_distance
from polydist.randgen import random_binary, random_partial
from polydist.trees import Kind, Phylogeny
from polydist.triplet import parametric_triplet_distance


@contextmanager
def criterion(capsys, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        with capsys.disabled():
            print(f"[FAIL] {label} (over budget: {elapsed:.1f}s > {budget_s}s)")
        pytest.fail(f"{label}: time budget exceeded ({elapsed:.1f}s)")
    with capsys.disabled():
        print(f"[PASS] {label} ({elapsed:.1f}s)")


def _pair(kind, n, rng):
    a = random_partial(n, kind, rng)
    b = random_partial(n, kind, rng, taxa=a.taxa)
    return a, b


def test_criterion_1_triplet_oracle_equivalence(capsys):
    with criterion(capsys, "criterion 1: exact triplet distance matches the "
                           "brute-force oracle", 30):
        for n in (3, 4):
            for a in enumerate_phylogenies(n, Kind.ROOTED):
                for b in enumerate_phylogenies(n, Kind.ROOTED, taxa=a.taxa):
                    dp = parametric_triplet_distance(a, b)
                    c = classify_triplets(a, b)
                    assert (dp.d_count, dp.r_count) == (c.d, c.r1 + c.r2)
        rng = random.Random(11)
        for _ in range(200):
            a, b = _pair(Kind.ROOTED, rng.randint(10, 60), rng)
            dp = parametric_triplet_distance(a, b)
            c = classify_triplets(a, b)
            assert (dp.d_count, dp.r_count) == (c.d, c.r1 + c.r2)


def test_criterion_2_quartet_sandwich(capsys):
    grid = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1))
    with criterion(capsys, "criterion 2: quartet approximation is within "
                           "factor 2 and exact at p=1/2", 120):
        rng = random.Random(22)
        for _ in range(200):
            a, b = _pair(Kind.UNROOTED, rng.randint(8, 30), rng)
            dp = classify_quartets(a, b).to_distance_pair()
            for p in grid:
                d = dp.evaluate(p)
                ad = parametric_quartet_distance(a, b, p)
                assert d <= ad.value <= 2 * d
                assert ad.lower <= d <= ad.upper
                if p == Fraction(1, 2):
                    assert ad.value == d


def test_criterion_3_metric_properties(capsys):
    with criterion(capsys, "criterion 3: triangle inequality holds for "
                           "p>=1/2, fails below, with equivalence constants",
                   120):
        trees = list(enumerate_phylogenies(4, Kind.ROOTED))
        dists = {}
        for p in (Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            for i, a in enumerate(trees):
                for j, b in enumerate(trees):
                    dists[i, j] = classify_triplets(a, b).to_distance_pair().evaluate(p)
            for i, j, k in itertools.product(range(len(trees)), repeat=3):
                assert dists[i, k] <= dists[i, j] + dists[j, k]
        # a concrete triangle violation below the metric range
        p = Fraction(1, 3)
        t1 = Phylogeny.rooted("abc", (("a", "b"), "c"))
        t2 = Phylogeny.rooted("abc", ("a", "b", "c"))
        t3 = Phylogeny.rooted("abc", (("a", "c"), "b"))
        d13 = classify_triplets(t1, t3).to_distance_pair().evaluate(p)
        via = classify_triplets(t1, t2).to_distance_pair().evaluate(p) + \
            classify_triplets(t2, t3).to_distance_pair().evaluate(p)
        assert d13 == 1 and via == 2 * p and d13 > via
        # equivalence of the parametric family: d^p <= d^q <= (q/p) d^p for p<=q
        rng = random.Random(33)
        pq = (Fraction(1, 2), Fraction(7, 8))
        for _ in range(100):
            a, b = _pair(Kind.ROOTED, rng.randint(5, 25), rng)
            dp = parametric_triplet_distance(a, b)
            lo, hi = dp.evaluate(pq[0]), dp.evaluate(pq[1])
            assert lo <= hi <= (pq[1] / pq[0]) * lo


def test_criterion_4_hausdorff_bounds(capsys):
    with criterion(capsys, "criterion 4: Hausdorff bounds bracket the exact "
                           "value and the adversarial refinement certifies "
                           "the lower bound", 120):
        trees = list(enumerate_phylogenies(4, Kind.ROOTED))
        for a in trees:
            for b in trees:
                hb = hausdorff_bounds(a, b)
                exact = hausdorff_exact(a, b)
                assert hb.lower <= exact <= hb.upper
                ar = adversarial_refinement(a, b)
                final = classify(ar.refined, b)
                assert final.r2 == 0
                assert ar.d_achieved >= ar.d_initial + Fraction(2, 3) * ar.r2_initial


def test_criterion_5_expected_distance(capsys):
    with criterion(capsys, "criterion 5: expected-distance formula matches "
                           "the all-pairs average and the rooted/unrooted "
                           "statistics coincide under the leaf bijection", 60):
        trees = list(enumerate_phylogenies(4, Kind.ROOTED))
        for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
            total = sum(classify_triplets(a, b).to_distance_pair().evaluate(p)
                        for a in trees for b in trees)
            assert expected_distance_formula(4, p, Kind.ROOTED) == \
                Fraction(total, len(trees) ** 2)
        for n in (3, 4, 5, 6):
            rooted = exact_resolution_probability(n, Kind.ROOTED)
            unrooted = exact_resolution_probability(n + 1, Kind.UNROOTED)
            assert rooted.r == unrooted.r
            assert sum(1 for _ in enumerate_phylogenies(n, Kind.ROOTED)) == \
                sum(1 for _ in enumerate_phylogenies(n + 1, Kind.UNROOTED))


def test_criterion_6_median_consensus(capsys):
    with criterion(capsys, "criterion 6: median threshold at p=2/3 and "
                           "2-approximate consensus above it", 120):
        profile = [Phylogeny.rooted("abc", (("a", "b"), "c")),
                   Phylogeny.rooted("abc", (("a", "c"), "b")),
                   Phylogeny.rooted("abc", (("b", "c"), "a"))]
        below = median_exhaustive(profile, Fraction(7, 12), Kind.ROOTED)
        assert len(below.co_minima) == 1 and not below.tree.is_fully_resolved()
        at = median_exhaustive(profile, Fraction(2, 3), Kind.ROOTED)
        assert len(at.co_minima) == 4  # the fan ties with the three binaries
        above = median_exhaustive(profile, Fraction(3, 4), Kind.ROOTED)
        assert len(above.co_minima) == 3
        assert all(t.is_fully_resolved() for t in above.co_minima)
        rng = random.Random(66)
        for _ in range(50):
            n = rng.randint(3, 5)
            k = rng.randint(1, 5)
            first = random_binary(n, Kind.ROOTED, rng)
            members = tuple([first] + [random_binary(n, Kind.ROOTED, rng,
                                                     taxa=first.taxa)
                                       for _ in range(k - 1)])
            p = Fraction(rng.randint(8, 12), 12)
            prof = Profile(members)
            opt = median_exhaustive(list(members), p, Kind.ROOTED)
            assert any(t.is_fully_resolved() for t in opt.co_minima)
            start = random_partial(n, Kind.ROOTED, rng, taxa=first.taxa)
            g = greedy_refine_median(start, prof, p)
            assert g.guaranteed and g.final_distance <= g.initial_distance
            assert best_of_profile(prof, p).total <= 2 * opt.total


def test_criterion_7_performance(capsys):
    with criterion(capsys, "criterion 7: near-quadratic scaling of the "
                           "triplet kernel", 120):
        def timed(n):
            rng = random.Random(77)
            a = random_partial(n, Kind.ROOTED, rng)
            b = random_partial(n, Kind.ROOTED, rng, taxa=a.taxa)
            runs = []
            for _ in range(5):
                t0 = time.perf_counter()
                parametric_triplet_distance(a, b)
                runs.append(time.perf_counter() - t0)
            return sorted(runs)[2]

        t200 = timed(200)
        t400 = timed(400)
        assert t400 < 2.0
        assert t400 / t200 <= 5.5
