import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings

from conftest import rooted_pairs, unrooted_pairs
from polydist.newick import parse_newick, write_newick
from polydist.oracle import (
    CapacityError,
    DistancePair,
    classify_quartets,
    classify_triplets,
    count_full_refinements,
    enumerate_full_refinements,
    enumerate_phylogenies,
    hausdorff_exact,
    median_exhaustive,
)
from polydist.trees import Kind, Phylogeny, is_refinement


class TestClassifyTriplets:
    def test_identical_trees(self):
        t = Phylogeny.rooted("abcde", ((("a", "b"), "c"), ("d", "e")))
        c = classify_triplets(t, t)
        assert (c.d, c.r1, c.r2) == (0, 0, 0)
        assert c.s + c.u == comb(5, 3)

    def test_caterpillar_vs_fan_level(self):
        t1 = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        t2 = Phylogeny.rooted("abcd", (("a", "b"), "c", "d"))
        c = classify_triplets(t1, t2)
        assert (c.s, c.d, c.r1, c.r2, c.u) == (2, 0, 2, 0, 0)

    def test_conflicting_binary_trees(self):
        t1 = Phylogeny.rooted("abcd", (("a", "b"), ("c", "d")))
        t2 = Phylogeny.rooted("abcd", (("a", "c"), ("b", "d")))
        c = classify_triplets(t1, t2)
        assert (c.s, c.d, c.r1, c.r2, c.u) == (0, 4, 0, 0, 0)

    def test_swap_symmetry(self):
        t1 = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        t2 = Phylogeny.rooted("abcd", (("a", "b"), "c", "d"))
        c12 = classify_triplets(t1, t2)
        c21 = classify_triplets(t2, t1)
        assert c21 == c12.swapped()

    @given(rooted_pairs())
    @settings(max_examples=60, deadline=None)
    def test_counts_total_and_symmetry(self, pair):
        a, b = pair
        c = classify_triplets(a, b)
        assert c.total == comb(a.n, 3)
        assert classify_triplets(b, a) == c.swapped()


class TestClassifyQuartets:
    def test_single_quartet_cases(self):
        ab_cd = Phylogeny.unrooted("abcd", (("a", "b"), "c", "d"))
        ac_bd = Phylogeny.unrooted("abcd", (("a", "c"), "b", "d"))
        star = Phylogeny.unrooted("abcd", ("a", "b", "c", "d"))
        assert classify_quartets(ab_cd, star).r1 == 1
        assert classify_quartets(ab_cd, ac_bd).d == 1
        star5 = Phylogeny.unrooted("abcde", tuple("abcde"))
        assert classify_quartets(star5, star5).u == comb(5, 4)

    @given(unrooted_pairs())
    @settings(max_examples=50, deadline=None)
    def test_counts_total_and_symmetry(self, pair):
        a, b = pair
        c = classify_quartets(a, b)
        assert c.total == comb(a.n, 4)
        assert classify_quartets(b, a) == c.swapped()


class TestDistancePair:
    def test_evaluate(self):
        assert DistancePair(0, 2).evaluate(Fraction(1, 2)) == 1
        assert DistancePair(4, 0).evaluate(Fraction(7, 9)) == 4
        assert DistancePair(0, 0).evaluate(1) == 0

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            DistancePair(1, 1).evaluate(Fraction(3, 2))

    def test_identity_of_indiscernibles(self):
        # d^(p)(T, T) = 0 and > 0 for non-isomorphic trees when p > 0
        trees = list(enumerate_phylogenies(4, Kind.ROOTED))
        p = Fraction(1, 2)
        for a in trees:
            assert classify_triplets(a, a).to_distance_pair().evaluate(p) == 0
        for a, b in itertools.combinations(trees, 2):
            assert classify_triplets(a, b).to_distance_pair().evaluate(p) > 0


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 26),
                                         (5, 236), (6, 2752)])
    def test_rooted_counts(self, n, count):
        assert sum(1 for _ in enumerate_phylogenies(n, Kind.ROOTED)) == count

    @pytest.mark.parametrize("n,count", [(3, 1), (4, 4), (5, 26), (6, 236),
                                         (7, 2752)])
    def test_unrooted_counts(self, n, count):
        assert sum(1 for _ in enumerate_phylogenies(n, Kind.UNROOTED)) == count

    def test_no_duplicates(self):
        for n, kind in [(5, Kind.ROOTED), (6, Kind.UNROOTED)]:
            keys = [t.canonical_key() for t in enumerate_phylogenies(n, kind)]
            assert len(keys) == len(set(keys))

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            list(enumerate_phylogenies(8, Kind.ROOTED))
        with pytest.raises(CapacityError):
            list(enumerate_phylogenies(9, Kind.UNROOTED))


class TestFullRefinements:
    def test_rooted_fans(self):
        fan3 = Phylogeny.rooted("abc", ("a", "b", "c"))
        assert len(enumerate_full_refinements(fan3)) == 3
        fan4 = Phylogeny.rooted("abcd", ("a", "b", "c", "d"))
        refs = enumerate_full_refinements(fan4)
        assert len(refs) == 15
        balanced = Phylogeny.rooted("abcd", (("a", "b"), ("c", "d")))
        assert any(t.isomorphic(balanced) for t in refs)

    def test_binary_tree_is_its_own_refinement(self):
        t = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        refs = enumerate_full_refinements(t)
        assert len(refs) == 1 and refs[0].isomorphic(t)

    @pytest.mark.parametrize("n,kind", [(5, Kind.ROOTED), (6, Kind.ROOTED),
                                        (5, Kind.UNROOTED), (6, Kind.UNROOTED)])
    def test_count_matches_double_factorial_product(self, n, kind):
        for t in enumerate_phylogenies(n, kind):
            refs = enumerate_full_refinements(t)
            assert len(refs) == count_full_refinements(t)
            keys = {r.canonical_key() for r in refs}
            assert len(keys) == len(refs)
            assert all(r.is_fully_resolved() and is_refinement(t, r) for r in refs)

    @pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
    def test_deep_caterpillar(self, kind):
        # 1200 nesting levels and one full refinement: enumerating it must
        # not recurse once per level
        last = 1200 if kind is Kind.ROOTED else 1198
        text = "t0"
        for i in range(1, last):
            text = f"({text},t{i})"
        if kind is Kind.UNROOTED:
            text = f"({text},t1198,t1199)"
        tree = parse_newick(text + ";", kind)
        assert tree.n == 1200
        refs = enumerate_full_refinements(tree)
        assert len(refs) == 1 and refs[0].isomorphic(tree)

    def test_capacity_precheck(self):
        big = Phylogeny.rooted([f"t{i}" for i in range(12)], tuple(range(12)))
        with pytest.raises(CapacityError):
            enumerate_full_refinements(big)


class TestHausdorffExact:
    def test_fan_vs_binary(self):
        fan = Phylogeny.rooted("abc", ("a", "b", "c"))
        t = Phylogeny.rooted("abc", (("a", "b"), "c"))
        assert hausdorff_exact(fan, t) == 1

    def test_identical_inputs(self):
        t = Phylogeny.rooted("abcde", ((("a", "b"), ("c", "d")), "e"))
        assert hausdorff_exact(t, t) == 0
        fan = Phylogeny.rooted("abc", ("a", "b", "c"))
        assert hausdorff_exact(fan, fan) == 0

    def test_capacity(self):
        fan = Phylogeny.rooted([f"t{i}" for i in range(8)], tuple(range(8)))
        with pytest.raises(CapacityError):
            hausdorff_exact(fan, fan)


class TestMedianExhaustive:
    def test_three_leaf_profile_threshold(self):
        profile = [Phylogeny.rooted("abc", (("a", "b"), "c")),
                   Phylogeny.rooted("abc", (("a", "c"), "b")),
                   Phylogeny.rooted("abc", (("b", "c"), "a"))]
        half = median_exhaustive(profile, Fraction(1, 2), Kind.ROOTED)
        assert write_newick(half.tree) == "(a,b,c);"
        assert half.total == Fraction(3, 2)
        assert len(half.co_minima) == 1
        one = median_exhaustive(profile, 1, Kind.ROOTED)
        assert one.total == 2
        assert len(one.co_minima) == 3
        assert all(t.is_fully_resolved() for t in one.co_minima)

    def test_identical_profile(self):
        t = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        res = median_exhaustive([t, t, t], Fraction(3, 4), Kind.ROOTED)
        assert res.total == 0 and res.tree.isomorphic(t)
