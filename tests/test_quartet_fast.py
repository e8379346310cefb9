from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings

from conftest import seeded_pair, unrooted_pairs, unrooted_trees
from polydist.oracle import classify_quartets, enumerate_phylogenies
from polydist.quartet import (
    approx_r1_quartets,
    count_R_U_quartets,
    count_shared_quartets,
    parametric_quartet_distance,
)
from polydist.trees import Kind, Phylogeny

P_GRID = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1))


class TestCountRU:
    def test_extremes(self):
        binary = Phylogeny.unrooted("abcdef", ((("a", "b"), "c"), ("d", "e"), "f"))
        assert count_R_U_quartets(binary) == (comb(6, 4), 0)
        star = Phylogeny.unrooted("abcdef", tuple("abcdef"))
        assert count_R_U_quartets(star) == (0, comb(6, 4))

    def test_two_internal_nodes(self):
        # internal edge u-v with u carrying {a,b} and v carrying {c,d,e}
        t = Phylogeny.unrooted("abcde", ("a", "b", ("c", "d", "e")))
        assert count_R_U_quartets(t) == (3, 2)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_exhaustive_against_classification(self, n):
        for t in enumerate_phylogenies(n, Kind.UNROOTED):
            c = classify_quartets(t, t)
            assert count_R_U_quartets(t) == (c.s, c.u)

    @given(unrooted_trees(max_n=20))
    @settings(max_examples=40, deadline=None)
    def test_random_against_classification(self, tree):
        c = classify_quartets(tree, tree)
        assert count_R_U_quartets(tree) == (c.s, c.u)


class TestShared:
    def test_trivial_cases(self):
        binary = Phylogeny.unrooted("abcde", (("a", "b"), "c", ("d", "e")))
        assert count_shared_quartets(binary, binary) == comb(5, 4)
        ab_cd = Phylogeny.unrooted("abcd", (("a", "b"), "c", "d"))
        star = Phylogeny.unrooted("abcd", ("a", "b", "c", "d"))
        assert count_shared_quartets(ab_cd, star) == 0

    def test_caterpillars(self):
        t1 = Phylogeny.unrooted("abcde", (("a", "b"), "c", ("d", "e")))
        t2 = Phylogeny.unrooted("abcde", (("a", "c"), "b", ("d", "e")))
        assert count_shared_quartets(t1, t2) == classify_quartets(t1, t2).s


class TestApproxR1:
    def test_single_quartet(self):
        ab_cd = Phylogeny.unrooted("abcd", (("a", "b"), "c", "d"))
        star = Phylogeny.unrooted("abcd", ("a", "b", "c", "d"))
        assert approx_r1_quartets(ab_cd, star) == 1

    def test_binary_t2_gives_zero(self):
        t1 = Phylogeny.unrooted("abcde", ("a", "b", "c", ("d", "e")))
        t2 = Phylogeny.unrooted("abcde", (("a", "b"), "c", ("d", "e")))
        assert approx_r1_quartets(t1, t2) == 0

    @given(unrooted_pairs())
    @settings(max_examples=60, deadline=None)
    def test_sandwich_against_oracle(self, pair):
        a, b = pair
        r1 = classify_quartets(a, b).r1
        y = approx_r1_quartets(a, b)
        assert r1 <= y <= 2 * r1


class TestParametricDistance:
    def test_identical_trees(self):
        t = Phylogeny.unrooted("abcdef", (("a", "b"), ("c", "d"), ("e", "f")))
        for p in P_GRID:
            ad = parametric_quartet_distance(t, t, p)
            assert ad.value == 0 and ad.lower == 0 and ad.upper == 0

    def test_single_quartet_approx(self):
        ab_cd = Phylogeny.unrooted("abcd", (("a", "b"), "c", "d"))
        star = Phylogeny.unrooted("abcd", ("a", "b", "c", "d"))
        d = classify_quartets(ab_cd, star).to_distance_pair().evaluate(Fraction(3, 4))
        assert d == Fraction(3, 4)
        ad = parametric_quartet_distance(ab_cd, star, Fraction(3, 4))
        assert ad.lower <= d <= ad.upper
        assert d <= ad.value <= 2 * d

    def test_refuses_small_p_in_approx_mode(self):
        t = Phylogeny.unrooted("abcd", ("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            parametric_quartet_distance(t, t, Fraction(1, 3))
        # brute mode covers the full range
        assert parametric_quartet_distance(t, t, Fraction(1, 3), mode="brute").value == 0

    def test_brute_mode_is_exact(self):
        a, b = seeded_pair(Kind.UNROOTED, 9, 5)
        for p in P_GRID:
            bd = parametric_quartet_distance(a, b, p, mode="brute")
            assert bd.exact and bd.lower == bd.value == bd.upper
            assert bd.value == classify_quartets(a, b).to_distance_pair().evaluate(p)

    @given(unrooted_pairs())
    @settings(max_examples=40, deadline=None)
    def test_sandwich_and_half_exactness(self, pair):
        a, b = pair
        dp = classify_quartets(a, b).to_distance_pair()
        for p in P_GRID:
            d = dp.evaluate(p)
            ad = parametric_quartet_distance(a, b, p)
            assert d <= ad.value <= 2 * d
            assert ad.lower <= d <= ad.upper
        assert parametric_quartet_distance(a, b, Fraction(1, 2)).value == \
            dp.evaluate(Fraction(1, 2))


def test_two_r1_identity_under_both_rootings():
    # summing the rooted bound from T1's side and from a re-rooted copy stays
    # within the certified band around the true count
    for seed in range(15):
        a, b = seeded_pair(Kind.UNROOTED, 10, seed)
        r1 = classify_quartets(a, b).r1
        y = approx_r1_quartets(a, b)
        assert r1 <= y <= 2 * r1
