import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classification_pairs, reoriented, seeded_pair, unrooted_pairs, unrooted_trees
from polydist import quartet
from polydist.newick import parse_newick
from polydist.oracle import CapacityError, classify_quartets, enumerate_phylogenies
from polydist.quartet import (
    MAX_EXACT_N,
    _anchor_counts,
    _y_per_pair,
    approx_r1_quartets,
    count_R_U_quartets,
    count_shared_quartets,
    parametric_quartet_distance,
    quartet_classification,
)
from polydist.trees import Kind, Phylogeny, TaxonSet, TreeError
from polydist.triplet import build_tables

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


def _approx_r1_reference(t1: Phylogeny, t2: Phylogeny) -> int:
    """y by its definition: for each non-root internal u of T1 (in its
    stored orientation) and each polytomy w of T2, the quartets with two
    taxa in distinct children of u, two outside u, and all four in
    distinct components around w."""
    everything = frozenset(range(t1.n))
    y = 0
    for w in t2.internal_nodes():
        if t2.degree(w) <= 3:
            continue
        component = {}
        for x in t2.neighbors(w):
            side = t2.subtree_taxa(x) if t2.parent[x] == w else everything - t2.subtree_taxa(w)
            component.update(dict.fromkeys(side, x))
        for u in t1.internal_nodes():
            if u == t1.root:
                continue
            near = t1.subtree_taxa(u)
            child = {t: c for c in t1.children[u] for t in t1.subtree_taxa(c)}
            for p1, p2 in combinations(sorted(near), 2):
                if child[p1] == child[p2]:
                    continue
                for q1, q2 in combinations(sorted(everything - near), 2):
                    y += len({component[t] for t in (p1, p2, q1, q2)}) == 4
    return y


def _y_reference(M: list[list[int]]) -> int:
    """y of one node pair (u, w) by choosing cells one by one with Python
    integers: M's rows are u's children and then the taxa outside u, its
    columns w's sides."""
    *C, O = M
    cells = [(j, k) for j in range(len(C)) for k in range(len(O))]
    y = 0
    for (j, k), (jj, l) in combinations(cells, 2):
        if j != jj and k != l:
            rest = [O[m] for m in range(len(O)) if m not in (k, l)]
            y += C[j][k] * C[jj][l] * sum(a * b for a, b in combinations(rest, 2))
    return y


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

    @given(st.one_of(unrooted_pairs(max_n=9), classification_pairs(Kind.UNROOTED, max_n=9)))
    @settings(max_examples=80, deadline=None)
    def test_equals_definition(self, pair):
        a, b = pair
        assert approx_r1_quartets(a, b) == _approx_r1_reference(a, b)

    @given(classification_pairs(Kind.UNROOTED, max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_independent_of_t2_orientation(self, pair):
        a, b = pair
        y = approx_r1_quartets(a, b)
        for w in b.internal_nodes():
            turned = reoriented(b, w)
            assert approx_r1_quartets(a, turned) == y

    def test_int64_exact_at_largest_supported_n(self):
        # the bound: each pair's 4y <= 4 C(n, 4) fits int64 before it is
        # divided by 4; node pairs with u holding half the taxa in equal
        # children, or u a cherry, and random splits into 2-5 children of u
        # and 3-6 sides of w
        n = MAX_EXACT_N
        h, e = n // 4, n // 16
        rest = n - 8 * e
        rng = random.Random(3)
        blocks = [
            [[h, 0, 0, 0], [0, h, 0, 0], [0, 0, h, n - 3 * h]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, h, n - h - 2]],
            [[e] * 4, [e] * 4, [rest // 4] * 3 + [rest - 3 * (rest // 4)]],
        ]
        for _ in range(8):
            d1, d2 = rng.randint(2, 5), rng.randint(3, 6)
            cuts = sorted(rng.sample(range(1, n), (d1 + 1) * d2 - 1))
            sizes = np.diff([0] + cuts + [n])
            blocks.append(sizes.reshape(d1 + 1, d2).tolist())
        for block in blocks:
            M = np.array(block, dtype=np.int64)
            assert M.sum() == n
            y = _y_per_pair(M[..., None], M.sum(1)[:, None, None],
                            M.sum(0)[None, :, None])
            assert int(y[0]) == _y_reference(block)

    @pytest.mark.parametrize("n", [30, 80])
    def test_sandwich_against_kernel(self, n):
        for seed in range(4):
            a, b = seeded_pair(Kind.UNROOTED, n, seed, contract_prob=0.3 + 0.1 * seed)
            r1 = quartet_classification(a, b).r1
            y = approx_r1_quartets(a, b)
            assert r1 <= y <= 2 * r1


PAIRS = {
    "disjoint": (Phylogeny.unrooted("abc", ("a", "b", "c")),
                 Phylogeny.unrooted("defgh", (("d", "e"), "f", ("g", "h")))),
    "mixed": (Phylogeny.rooted("abcdef", ((("a", "b"), "c"), ("d", "e", "f"))),
              Phylogeny.unrooted("abcdef", (("a", "b"), "c", ("d", "e", "f")))),
}
CALLS = {
    "classification": quartet_classification,
    "approx_r1": approx_r1_quartets,
    "approx": lambda a, b: parametric_quartet_distance(a, b, Fraction(3, 4)),
    "exact": lambda a, b: parametric_quartet_distance(a, b, Fraction(1, 4), mode="exact"),
}


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("pair", list(PAIRS))
@pytest.mark.parametrize("call", list(CALLS))
def test_pair_checked_before_small_n(call, pair, swap):
    a, b = PAIRS[pair]
    with pytest.raises(TreeError):
        CALLS[call](*((b, a) if swap else (a, b)))


def test_approx_builds_one_table(monkeypatch):
    calls = []

    def counted(t1, t2):
        calls.append((t1, t2))
        return build_tables(t1, t2)
    monkeypatch.setattr(quartet, "build_tables", counted)
    a, b = seeded_pair(Kind.UNROOTED, 12, 5)
    ad = parametric_quartet_distance(a, b, Fraction(3, 4))
    assert calls == [(a, b)]
    assert not ad.exact and ad.lower <= parametric_quartet_distance(
        a, b, Fraction(3, 4), mode="exact").value <= ad.upper


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
        # exact mode covers the full range
        assert parametric_quartet_distance(t, t, Fraction(1, 3), mode="exact").value == 0

    def test_exact_mode_matches_oracle(self):
        a, b = seeded_pair(Kind.UNROOTED, 9, 5)
        for p in P_GRID + (Fraction(0), Fraction(1, 4)):
            bd = parametric_quartet_distance(a, b, p, mode="exact")
            assert bd.exact and bd.lower == bd.value == bd.upper
            assert bd.value == classify_quartets(a, b).to_distance_pair().evaluate(p)

    def test_unknown_mode_rejected(self):
        t = Phylogeny.unrooted("abcd", ("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            parametric_quartet_distance(t, t, Fraction(3, 4), mode="brute")

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


# (t1, t2, (value, lower, upper) at p = 2/3, 3/4 and 1) of mode="approx":
# stars, caterpillars, binary and partially resolved trees and contractions
# over 6-20 taxa.  In seven of the pairs y > |R1|, so the value lies
# strictly above d^(p); the sandwich tests alone would pass the exact value.
APPROX_GOLDEN = [
    ('(t0,t1,t10,t11,t12,t13,t14,t15,t16,t17,t18,t2,t3,t4,t5,t6,t7,t8,t9);',
     '((t0,t12),((t1,((t14,t18,t3),t15)),t10,t11),(((t13,t8),(t17,t9),(t2,t7)),t16,t5,t6),'
     't4);',
     [('6748/3', '3374/3', '6748/3'), ('5061/2', '5061/4', '5061/2'),
      ('3374', '1687', '3374')]),
    ('((((t0,((t10,t5),t12)),t15),t14,t6),t1,(t11,t7),(((t13,t16,(t17,(t3,t4)),t9),t2),'
     't8));',
     '(t0,t1,t10,t11,t12,t13,t14,t15,t16,t17,t2,t3,t4,t5,t6,t7,t8,t9);',
     [('2059', '2059/2', '2059'), ('2396', '1198', '2396'), ('3407', '3407/2', '3407')]),
    ('(((((((t0,(((((t1,(t10,((((t11,t7),t3),t4),t16))),t6),t18),t5),t15)),t13),t8),t17),'
     't14),t2),t12,t9);',
     '(t0,(((t1,t9),t10,t12,t17),(((t11,((((t13,t4),t14,t18),t6),t7)),t5),t15)),((t16,t2),'
     '(t3,t8)));',
     [('7913/3', '7913/6', '7913/3'), ('5297/2', '5297/4', '5297/2'),
      ('2681', '2681/2', '2681')]),
    ('((((t0,t14),(t12,(t13,t9))),t4,t8),((t1,(t3,t6),(t5,t7)),t11),t10,t2);',
     '(((((((((((((t0,t6),t13),t3),t7),t14),t10),t12),t9),t4),t8),t2),t11),t1,t5);',
     [('2590/3', '1295/3', '2590/3'), ('1747/2', '1747/4', '1747/2'), ('904', '452', '904')]),
    ('((t0,t5),t1,(t10,t12,t14,(t4,t9),t6),(t11,((t13,((t2,t3),t7)),t8)));',
     '(t0,(t1,(t6,t9)),(t10,t12,t14,t4,t7,t8),t11,t13,t2,t3,t5);',
     [('2557/3', '2557/6', '2557/3'), ('3731/4', '3731/8', '3731/4'),
      ('1174', '587', '1174')]),
    ('(((((t0,(t17,t9)),t13,t15),(((t10,t6),t12,t5),t16),t14),((t11,t7),t18),t3),t1,(t2,(t4,'
     't8)));',
     '(t0,((((t1,(t11,t12,t16,t3,t5)),t14,t18,t4,t6,t9),t7),(t10,t17),(t13,t8),t15),t2);',
     [('7535/3', '7535/6', '7535/3'), ('5267/2', '5267/4', '5267/2'),
      ('2999', '2999/2', '2999')]),
    ('(((((t0,((t2,(t4,t9)),t3)),t5),t1),t6),t7,t8);',
     '(t0,t1,t2,t3,t4,t5,t6,t7,t8,t9);',
     [('140', '70', '140'), ('315/2', '315/4', '315/2'), ('210', '105', '210')]),
    ('((t0,t8),((((t1,(t13,t9)),t11),((t10,t7),t3)),(((t12,t6),t4),t5)),t2);',
     '(t0,((((t1,(t5,t6)),t7),(t3,t8)),t13),((t10,((t2,t9),t4)),t12),t11);',
     [('2240/3', '1120/3', '2240/3'), ('3001/4', '3001/8', '3001/4'),
      ('761', '761/2', '761')]),
    ('(((t0,t6,t8),(t10,t3),t11),t1,(t2,((t4,t7),t9),t5));',
     '(t0,t1,t10,t11,(t2,((t4,t7),t9),t5),t3,t6,t8);',
     [('111', '111/2', '111'), ('501/4', '501/8', '501/4'), ('168', '84', '168')]),
    ('(t0,t1,((t2,((t3,t4),t5)),t6));',
     '(t0,t1,((t2,(t3,t4,t5)),t6));',
     [('8/3', '4/3', '8/3'), ('3', '3/2', '3'), ('4', '2', '4')]),
    ('(t0,((t1,((t16,t9),t6)),(((((t10,(((t11,t7),(t12,t8)),t13)),t3),t15),t14),t18)),'
     '(((t17,t4),t5),t2));',
     '(t0,(t1,(((t10,((t11,t7),(t12,t8)),t13),t15,t3),t14),((t16,t9),t6),t18),(t17,t4,t5),'
     't2);',
     [('1093/3', '1093/6', '1093/3'), ('1653/4', '1653/8', '1653/4'), ('560', '280', '560')]),
    ('(t0,(((t1,(t10,((t3,t9),t6),t7)),t13),t8),t11,t12,(t2,t5),t4);',
     '(t0,((t1,t10,t3,t6),t7),t11,t12,t13,t2,t4,t5,t8,t9);',
     [('1267/3', '1267/6', '1267/3'), ('1859/4', '1859/8', '1859/4'), ('592', '296', '592')]),
]


@pytest.mark.parametrize("t1,t2,values", APPROX_GOLDEN,
                         ids=[f"pair{i}" for i in range(len(APPROX_GOLDEN))])
def test_approx_golden(t1, t2, values):
    a, b = parse_newick(t1, Kind.UNROOTED), parse_newick(t2, Kind.UNROOTED)
    for p, expected in zip((Fraction(2, 3), Fraction(3, 4), Fraction(1)), values):
        ad = parametric_quartet_distance(a, b, p)
        assert (ad.value, ad.lower, ad.upper) == tuple(map(Fraction, expected))


def test_two_r1_identity_under_both_rootings():
    # y depends on T1's orientation; |R1| <= y <= 2|R1| and the approx
    # interval around d^(p) hold with T1 re-oriented at every internal node
    orientations_differ = False
    for seed in range(15):
        a, b = seeded_pair(Kind.UNROOTED, 10, seed)
        c = classify_quartets(a, b)
        dp = c.to_distance_pair()
        ys = set()
        for v in a.internal_nodes():
            turned = reoriented(a, v)
            y = approx_r1_quartets(turned, b)
            assert c.r1 <= y <= 2 * c.r1
            ys.add(y)
            for p in P_GRID[1:]:
                ad = parametric_quartet_distance(turned, b, p)
                assert ad.lower <= dp.evaluate(p) <= ad.upper
        orientations_differ |= len(ys) > 1
    assert orientations_differ


# ---------------------------------------------------------------------------
# The node-pair classification kernel
# ---------------------------------------------------------------------------

def _crossed_double_stars(n: int):
    """T1 splits the taxa into halves X | Y, T2 into X_a + Y_a | X_b + Y_b
    (quarters of size h = n/4), with the closed-form counts: shared
    quartets pair two of X_a with two of Y_b or two of X_b with two of Y_a,
    and the h^4 quartets with one taxon in each quarter are resolved
    differently."""
    h = n // 4
    taxa = TaxonSet(tuple(f"t{i}" for i in range(n)))
    xa, xb, ya, yb = (list(range(q * h, (q + 1) * h)) for q in range(4))
    # a double star: two adjacent internal nodes, each holding half the leaves
    t1 = Phylogeny.unrooted(taxa, tuple(xa + xb) + (tuple(ya + yb),))
    t2 = Phylogeny.unrooted(taxa, tuple(xa + ya) + (tuple(xb + yb),))
    resolved = comb(2 * h, 2) ** 2
    s, d = 2 * comb(h, 2) ** 2, h**4
    r = resolved - s - d
    return t1, t2, (s, d, r, r, comb(n, 4) - s - d - 2 * r)


def _anchor_reference(M: list[list[int]]) -> tuple[int, int]:
    """Twice the shared and four times the differently resolved quartets a
    node pair anchors, by choosing cells one by one with Python integers."""
    cells = [(j, l) for j in range(len(M)) for l in range(len(M[0]))]
    twice_s = four_d = 0
    for i, k in cells:
        free = [(j, l) for j, l in cells if j != i and l != k]
        apart = sum(M[j][l] * M[jj][ll] for (j, l), (jj, ll) in combinations(free, 2)
                    if j != jj and l != ll)
        twice_s += comb(M[i][k], 2) * apart
        for j, l in free:
            fourth = sum(M[jj][ll] for jj, ll in cells if jj not in (i, j) and ll not in (k, l))
            four_d += M[i][k] * M[i][l] * M[j][k] * fourth
    return twice_s, four_d


class TestClassification:
    @given(classification_pairs(Kind.UNROOTED))
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle(self, pair):
        a, b = pair
        assert quartet_classification(a, b) == classify_quartets(a, b)

    @pytest.mark.parametrize("n", [12, 400])
    def test_crossed_double_stars(self, n):
        t1, t2, counts = _crossed_double_stars(n)
        c = quartet_classification(t1, t2)
        assert (c.s, c.d, c.r1, c.r2, c.u) == counts
        if n <= 12:
            assert c == classify_quartets(t1, t2)

    def test_int64_exact_at_largest_supported_n(self):
        # the bound: 4 C(n, 4), the largest count read out, fits int64
        n = MAX_EXACT_N
        assert 4 * comb(n, 4) < 2**63 <= 4 * comb(n + 1, 4)
        # node pairs with a few large sides: one side pair holding almost
        # every taxon (its Gram term, about n^4, wraps around in int64),
        # crossed halves, crossed quarters, and random splits into 3-5 sides
        h = n // 4
        rng = random.Random(2)
        blocks = [
            [[n - 3, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[h, h, 0], [h, n - 3 * h - 1, 0], [0, 0, 1]],
            [[n // 16] * 4 for _ in range(3)] + [[n // 16] * 3 + [n - 15 * (n // 16)]],
        ]
        for _ in range(6):
            d1, d2 = rng.randint(3, 5), rng.randint(3, 5)
            cuts = sorted(rng.sample(range(1, n), d1 * d2 - 1))
            sizes = np.diff([0] + cuts + [n])
            blocks.append(sizes.reshape(d1, d2).tolist())
        for block in blocks:
            M = np.array(block, dtype=np.int64)
            assert M.sum() == n
            s, d = _anchor_counts(M[..., None], M.sum(1)[:, None, None],
                                  M.sum(0)[None, :, None], n)
            assert (int(s[0]), int(d[0])) == _anchor_reference(block)

    def test_refuses_n_beyond_int64_bound(self):
        taxa = TaxonSet(tuple(f"t{i}" for i in range(MAX_EXACT_N + 1)))
        star = Phylogeny.unrooted(taxa, tuple(range(taxa.n)))
        with pytest.raises(CapacityError):
            quartet_classification(star, star)
        with pytest.raises(CapacityError):
            count_R_U_quartets(star)
        with pytest.raises(CapacityError):
            approx_r1_quartets(star, star)

    def test_resolved_count_exact_at_largest_supported_n(self):
        # a double star with halves as even as possible: its int64 terms
        # C(n - s, 2)·C(s, 2) peak at s = n/2
        n, h = MAX_EXACT_N, MAX_EXACT_N // 2
        taxa = TaxonSet(tuple(f"t{i}" for i in range(n)))
        double_star = Phylogeny.unrooted(taxa, (tuple(range(h)),) + tuple(range(h, n)))
        R = comb(h, 2) * comb(n - h, 2)
        assert count_R_U_quartets(double_star) == (R, comb(n, 4) - R)
