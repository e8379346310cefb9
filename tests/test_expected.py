import functools
import itertools
from fractions import Fraction
from math import comb

import pytest

from polydist.expected import (
    MAX_COUNT_N,
    ResolutionStats,
    add_leaf,
    asymptotic_unresolved,
    empirical_expected_distance,
    exact_resolution_probability,
    expected_distance_formula,
    tree_at,
    tree_count,
)
from conftest import induced
from polydist.oracle import CapacityError, classify, enumerate_phylogenies
from polydist.trees import Kind, Phylogeny, QuartetTopology, TreeError, TripletTopology


@functools.cache
def enumeration(n, kind):
    """(canonical key, resolved) of every tree on n taxa, from one walk of
    tree space per (n, kind) that the enumeration tests share; resolved
    says whether the tree resolves taxa 0, 1, 2 (rooted) or 0, 1, 2, 3
    (unrooted), False below that many taxa.  The trees themselves are not
    kept: their cached LCA tables would hold hundreds of MB."""
    facts = []
    for t in enumerate_phylogenies(n, kind):
        if kind is Kind.ROOTED:
            resolved = n >= 3 and induced(t, (0, 1, 2)) is not TripletTopology.FAN
        else:
            resolved = n >= 4 and induced(t, (0, 1, 2, 3)) is not QuartetTopology.STAR
        facts.append((t.canonical_key(), resolved))
    return tuple(facts)


def enumerated_resolution(n, kind):
    """(trees, resolved) on n taxa by enumerating tree space."""
    facts = enumeration(n, kind)
    return len(facts), sum(resolved for _, resolved in facts)


class TestResolutionProbability:
    def test_small_values(self):
        assert exact_resolution_probability(3, Kind.ROOTED).r == Fraction(3, 4)
        assert exact_resolution_probability(4, Kind.UNROOTED).r == Fraction(3, 4)

    def test_rooted_equals_unrooted_shifted(self):
        for n in (3, 4, 5, 6):
            rooted = exact_resolution_probability(n, Kind.ROOTED)
            unrooted = exact_resolution_probability(n + 1, Kind.UNROOTED)
            assert rooted.r == unrooted.r
            assert rooted.trees_total == unrooted.trees_total

    @pytest.mark.parametrize("kind, sizes", [(Kind.ROOTED, range(3, 8)),
                                             (Kind.UNROOTED, range(4, 9))])
    def test_counts_equal_enumeration(self, kind, sizes):
        per_subset = 3 if kind is Kind.ROOTED else 4
        for n in sizes:
            total, resolved = enumerated_resolution(n, kind)
            r = Fraction(resolved, total)
            assert exact_resolution_probability(n, kind) == \
                ResolutionStats(n, kind, total, resolved, r)
            for p in (0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1):
                assert expected_distance_formula(n, p, kind) == \
                    comb(n, per_subset) * (Fraction(2, 3) * r * r + 2 * p * r * (1 - r))

    def test_tree_counts_beyond_enumeration(self):
        # Schroeder's fourth problem, OEIS A000311
        assert exact_resolution_probability(9, Kind.ROOTED).trees_total == 12818912
        assert exact_resolution_probability(10, Kind.ROOTED).trees_total == 282137824
        assert exact_resolution_probability(11, Kind.UNROOTED).trees_total == 282137824

    @pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
    def test_refuses_n_above_the_bound(self, kind):
        with pytest.raises(CapacityError):
            exact_resolution_probability(MAX_COUNT_N + 1, kind)
        with pytest.raises(CapacityError):
            expected_distance_formula(MAX_COUNT_N + 1, Fraction(1, 2), kind)

    def test_too_small_n(self):
        with pytest.raises(TreeError):
            exact_resolution_probability(2, Kind.ROOTED)


class TestExpectedFormula:
    @pytest.mark.parametrize("p", [0, Fraction(1, 2), 1])
    def test_matches_all_pairs_average_rooted(self, p):
        trees = list(enumerate_phylogenies(4, Kind.ROOTED))
        total = sum(classify(a, b).to_distance_pair().evaluate(p)
                    for a in trees for b in trees)
        average = Fraction(total, len(trees) ** 2)
        assert expected_distance_formula(4, p, Kind.ROOTED) == average

    def test_matches_all_pairs_average_unrooted(self):
        p = Fraction(2, 3)
        trees = list(enumerate_phylogenies(5, Kind.UNROOTED))
        total = sum(classify(a, b).to_distance_pair().evaluate(p)
                    for a in trees for b in trees)
        assert expected_distance_formula(5, p, Kind.UNROOTED) == \
            Fraction(total, len(trees) ** 2)

    def test_monotone_in_p(self):
        values = [expected_distance_formula(5, Fraction(i, 4), Kind.ROOTED)
                  for i in range(5)]
        assert values == sorted(values)

    @pytest.mark.parametrize("p", [-1, Fraction(3, 2), 2])
    def test_rejects_p_outside_the_unit_interval(self, p):
        for kind in (Kind.ROOTED, Kind.UNROOTED):
            with pytest.raises(ValueError):
                expected_distance_formula(5, p, kind)


class TestTreeAt:
    @pytest.mark.parametrize("kind, sizes", [(Kind.ROOTED, range(1, 8)),
                                             (Kind.UNROOTED, range(1, 9))])
    def test_indices_number_the_enumeration(self, kind, sizes):
        for n in sizes:
            keys = set()
            for i in range(tree_count(n, kind)):
                tree = tree_at(n, kind, i)
                assert tree.kind is kind and tree.validate() == []
                keys.add(tree.canonical_key())
            enumerated = [key for key, _ in enumeration(n, kind)]
            assert len(keys) == tree_count(n, kind) == len(enumerated)
            assert keys == set(enumerated)

    @pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
    def test_rejects_an_index_out_of_range(self, kind):
        for index in (-1, tree_count(6, kind)):
            with pytest.raises(ValueError):
                tree_at(6, kind, index)

    @pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
    def test_refuses_n_outside_the_counts(self, kind):
        with pytest.raises(TreeError):
            tree_count(0, kind)
        with pytest.raises(CapacityError):
            tree_at(MAX_COUNT_N + 1, kind, 0)

    def test_counts_beyond_enumeration(self):
        assert tree_count(10, Kind.ROOTED) == tree_count(11, Kind.UNROOTED) == 282137824
        big = tree_at(MAX_COUNT_N, Kind.UNROOTED, tree_count(MAX_COUNT_N, Kind.UNROOTED) - 1)
        assert big.n == MAX_COUNT_N and big.validate() == []


class TestEmpirical:
    def test_reproducible(self):
        for n, kind in ((4, Kind.ROOTED), (5, Kind.UNROOTED)):
            a = empirical_expected_distance(n, Fraction(1, 2), kind, 50, seed=5)
            b = empirical_expected_distance(n, Fraction(1, 2), kind, 50, seed=5)
            assert a == b
            c = empirical_expected_distance(n, Fraction(1, 2), kind, 50, seed=6)
            assert a.mean != c.mean or a.stderr_sq != c.stderr_sq

    def test_mean_near_formula(self):
        for n, kind, samples in ((4, Kind.ROOTED, 400), (40, Kind.ROOTED, 200),
                                 (30, Kind.UNROOTED, 200)):
            em = empirical_expected_distance(n, Fraction(1, 2), kind, samples, seed=0)
            exact = expected_distance_formula(n, Fraction(1, 2), kind)
            assert abs(float(em.mean - exact)) <= 4 * em.stderr

    @pytest.mark.parametrize("samples", [0, -2])
    def test_rejects_sample_counts_below_one(self, samples):
        with pytest.raises(ValueError):
            empirical_expected_distance(4, Fraction(1, 2), Kind.ROOTED, samples, seed=1)

    def test_mean_is_exact_rational(self):
        em = empirical_expected_distance(4, Fraction(1, 3), Kind.ROOTED, 30, seed=1)
        assert isinstance(em.mean, Fraction) and isinstance(em.stderr_sq, Fraction)


class TestAddLeaf:
    def test_bijection_onto_unrooted_space(self):
        for n in (2, 3, 4, 5):
            images = {add_leaf(t).canonical_key()
                      for t in enumerate_phylogenies(n, Kind.ROOTED)}
            space = {t.canonical_key()
                     for t in enumerate_phylogenies(
                         n + 1, Kind.UNROOTED,
                         taxa=add_leaf(next(iter(
                             enumerate_phylogenies(n, Kind.ROOTED)))).taxa)}
            assert images == space
            assert len(images) == len(enumeration(n, Kind.ROOTED))

    def test_preserves_resolution_of_canonical_subset(self):
        for t in enumerate_phylogenies(4, Kind.ROOTED):
            image = add_leaf(t)
            for X in itertools.combinations(range(4), 3):
                resolved_before = induced(t, X) is not TripletTopology.FAN
                resolved_after = induced(image, X + (4,)) is not QuartetTopology.STAR
                assert resolved_before == resolved_after

    def test_single_leaf(self):
        one = Phylogeny.rooted(("a",), "a")
        img = add_leaf(one, "b")
        assert img.kind is Kind.UNROOTED and img.n == 2
        assert img.validate() == []

    def test_rejects_unrooted_input(self):
        star = Phylogeny.unrooted("abcd", ("a", "b", "c", "d"))
        with pytest.raises(TreeError):
            add_leaf(star)


def test_asymptotic_unresolved():
    assert asymptotic_unresolved(100) == pytest.approx(
        (3.141592653589793 * (2 * 0.6931471805599453 - 1) / 1600) ** 0.5)
    assert asymptotic_unresolved(400) == pytest.approx(
        asymptotic_unresolved(100) / 2)
    with pytest.raises(ValueError):
        asymptotic_unresolved(0)


def test_asymptotic_matches_the_exact_counts():
    # The exact u(n) / asymptotic ratio is 1.036, 1.022 and 1.015 at unrooted
    # n = 100, 200 and 400: it falls to 1 about like 1/sqrt(n).  A constant off
    # by a factor of 2 reads about 0.51 at n = 400.
    ratio = float(exact_resolution_probability(400, Kind.UNROOTED).u) / \
        asymptotic_unresolved(400)
    assert 1 < ratio < 1.02
