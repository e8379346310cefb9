from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import rooted_pairs, seeded_pair, unrooted_pairs
from polydist import hausdorff, quartet, triplet
from polydist.hausdorff import (
    adversarial_refinement,
    classification_counts,
    equivalence_certificate,
    hausdorff_bounds,
)
from polydist.newick import parse_newick
from polydist.oracle import classify, enumerate_phylogenies, hausdorff_exact
from polydist.trees import Kind, Phylogeny, TreeError, is_refinement


class TestClassificationCounts:
    @given(rooted_pairs())
    @settings(max_examples=50, deadline=None)
    def test_rooted_fast_path_matches_oracle(self, pair):
        a, b = pair
        assert classification_counts(a, b) == classify(a, b)

    def test_unrooted(self):
        a, b = seeded_pair(Kind.UNROOTED, 8, 3)
        assert classification_counts(a, b) == classify(a, b)


def test_one_node_pair_walk_per_table(monkeypatch):
    # the triplet distance and the quartet classification walk their one
    # I-table once, the rooted classification each of its two tables
    # (T1 × T2 and the swapped one) once
    walks = []
    walk = triplet.node_pair_blocks

    def counted(*args, **kwargs):
        walks.append(1)
        return walk(*args, **kwargs)
    monkeypatch.setattr(triplet, "node_pair_blocks", counted)
    monkeypatch.setattr(quartet, "node_pair_blocks", counted)
    a, b = seeded_pair(Kind.ROOTED, 12, 5)
    triplet.parametric_triplet_distance(a, b)
    assert len(walks) == 1
    classification_counts(a, b)
    assert len(walks) == 1 + 2
    quartet.quartet_classification(*seeded_pair(Kind.UNROOTED, 10, 5))
    assert len(walks) == 1 + 2 + 1


@pytest.mark.parametrize("swap", [False, True], ids=["rooted_first", "unrooted_first"])
def test_mixed_kinds_rejected(swap):
    rooted = Phylogeny.rooted("abcdef", ((("a", "b"), "c"), ("d", "e", "f")))
    unrooted = Phylogeny.unrooted("abcdef", (("a", "b"), "c", ("d", "e", "f")))
    t1, t2 = (unrooted, rooted) if swap else (rooted, unrooted)
    for call in (classification_counts, hausdorff_bounds, adversarial_refinement,
                 lambda a, b: equivalence_certificate(a, b, 1)):
        with pytest.raises(TreeError):
            call(t1, t2)


class TestBounds:
    def test_formulae(self):
        t1 = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        t2 = Phylogeny.rooted("abcd", (("a", "b"), "c", "d"))
        hb = hausdorff_bounds(t1, t2)
        c = hb.components
        assert hb.lower == c.d + Fraction(2, 3) * max(c.r1, c.r2)
        assert hb.upper == c.d + c.r1 + c.r2 + c.u

    def test_identical_trees(self):
        t = Phylogeny.rooted("abcde", (("a", "b"), "c", ("d", "e")))
        hb = hausdorff_bounds(t, t)
        assert hb.lower == 0
        # identical partial trees can still have a positive upper bound
        assert hb.upper == hb.components.u

    @pytest.mark.parametrize("kind,n", [(Kind.ROOTED, 4), (Kind.UNROOTED, 5)])
    def test_exhaustive_sandwich_against_exact(self, kind, n):
        trees = list(enumerate_phylogenies(n, kind))
        for a in trees:
            for b in trees:
                hb = hausdorff_bounds(a, b)
                exact = hausdorff_exact(a, b)
                assert hb.lower <= exact <= hb.upper


class TestAdversarial:
    def check(self, a, b):
        ar = adversarial_refinement(a, b)
        c_final = classify(ar.refined, b)
        assert c_final.r2 == 0
        assert is_refinement(a, ar.refined)
        assert ar.d_achieved == c_final.d
        assert ar.d_achieved >= ar.certified_lower
        assert ar.certified_lower == ar.d_initial + Fraction(2, 3) * ar.r2_initial

    def test_exhaustive_rooted_four(self):
        trees = list(enumerate_phylogenies(4, Kind.ROOTED))
        for a in trees:
            for b in trees:
                self.check(a, b)

    def test_exhaustive_unrooted_five(self):
        trees = list(enumerate_phylogenies(5, Kind.UNROOTED))
        for a in trees:
            for b in trees:
                self.check(a, b)

    @given(rooted_pairs(max_n=9))
    @settings(max_examples=25, deadline=None)
    def test_random_rooted(self, pair):
        self.check(*pair)

    @given(unrooted_pairs(max_n=8))
    @settings(max_examples=15, deadline=None)
    def test_random_unrooted(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_classifies_once(self, kind, monkeypatch):
        calls = []

        def counted(t1, t2):
            calls.append(t1)
            return classification_counts(t1, t2)
        monkeypatch.setattr(hausdorff, "classification_counts", counted)
        a, b = seeded_pair(kind, 9, 2)
        ar = adversarial_refinement(a, b)
        assert calls == [a] and ar.refined is not a
        assert ar.d_achieved == classify(ar.refined, b).d

    def test_deterministic(self):
        a, b = seeded_pair(Kind.ROOTED, 8, 11)
        r1 = adversarial_refinement(a, b)
        r2 = adversarial_refinement(a, b)
        assert r1.refined.canonical_key() == r2.refined.canonical_key()


# (kind, t1, t2, refined.canonical_key(), d_initial, r2_initial, d_achieved).
# Fixed inputs with fixed answers: the property tests above accept any
# admissible refinement, these pin the choice and tie-breaking of each step.
ADVERSARIAL_GOLDEN = [
    (Kind.ROOTED,
     '(t0,t1,(t2,((t3,t4),t10),(t9,t11)),t5,(t6,t8),t7,t12,t13);',
     '((((t0,t5),((((((t2,t10),t6,t8),t7,t9),t11),t13),t4)),t1,t12),t3);',
     "R(((((((((((L't3',L't4'),L't10'),(L't11',L't9')),L't2'),L't12'),L't1'),L't5'),L't0'),"
     "L't13'),L't7'),(L't6',L't8'))",
     81, 205, 282),
    (Kind.ROOTED,
     '(((((t0,(t1,((t5,t10),t17)),t12),(t2,t9)),t6),((((t3,t13),t16),t8),t7,t11,t15)),t4,t14);',
     '(((((t0,t8),t3,t11),t1),(t4,t17),(((t5,t6,t12,t15),t13),t7)),((t2,t10,(t14,t16)),t9));',
     "R(((((((((L't10',L't5'),L't17'),L't1'),L't12'),L't0'),(L't2',L't9')),L't6'),"
     "(((((L't13',L't3'),L't16'),L't8'),(L't11',L't7')),L't15')),(L't14',L't4'))",
     467, 32, 495),
    (Kind.ROOTED,
     '(((t0,t5,(t9,t14),t15),((t1,t6,t8),t12)),((((t2,t3),t11,t16),(t7,t17),t13),t4),((t10,'
     't19),t18));',
     '(((((t0,t1),t7),((((t2,t16),t11,t19),((t8,t14),t12),(t13,t17)),t18),(t6,(t10,t15))),'
     '(t4,t5,t9)),t3);',
     "R((((((((L't2',L't3'),L't11'),L't16'),(L't17',L't7')),L't13'),L't4'),((((L't15',"
     "L't5'),L't0'),(L't14',L't9')),((L't1',L't6',L't8'),L't12'))),((L't10',L't19'),L't18'))",
     540, 209, 706),
    (Kind.UNROOTED,
     '((((t0,t3,t4,t8),t9,t10),(t5,t6,t7)),t1,t2,t11);',
     '(t0,((t1,t6),t3,(t4,t10),t7,t8,t11),t2,(t5,t9));',
     "U(L't0'|(((((((L't1',L't2'),L't11'),((L't5',L't6'),L't7')),(L't10',L't9')),L't3'),"
     "L't8'),L't4'))",
     173, 35, 208),
    (Kind.UNROOTED,
     '((t0,t9,t13),t1,t2,((t3,(t5,t8)),t6),(t4,t7,t10,t12),t11);',
     '(((((t0,t6,t11),t3),t7,t8,t9,t10),t5,t12),t1,t2,t4,t13);',
     "U(L't0'|(((((((L't5',L't8'),L't3'),L't6'),L't1'),(((L't10',L't12'),(L't4',L't7')),"
     "(L't11',L't2'))),L't9'),L't13'))",
     357, 237, 558),
    (Kind.UNROOTED,
     '((((t0,t4),t9),(t7,t14)),(((t1,t11),t6,t12,t15),t5),((t2,t10),t3),t8,t13);',
     '((t0,t11),(((t1,(t3,t15),t9),t6,t13),t10),t2,t4,(t5,(t7,t8,t12),t14));',
     "U(L't0'|(((((((((L't12',L't15'),L't6'),(L't1',L't11')),L't5'),(((L't10',L't2'),L't3'),"
     "L't8')),L't13'),(L't14',L't7')),L't9'),L't4'))",
     887, 274, 1109),
    (Kind.ROOTED,
     '(t0,t1,t2,t3,t4,t5,t6,t7,t8,t9,t10,t11);',
     '((((t0,t1,t5,t6,t7,(t10,t11)),t2),t3,t4,t9),t8);',
     "R(((((((((((L't11',L't8'),L't9'),L't4'),L't3'),L't2'),L't7'),L't6'),L't5'),L't1'),"
     "L't0'),L't10')",
     0, 165, 165),
    (Kind.UNROOTED,
     '(t0,t1,t2,t3,t4,t5,t6,t7,t8,t9);',
     '(t0,(((t1,t4,t6,t9),t7),t3,t5),t2,t8);',
     "U(L't0'|(((((L't2',L't4'),(L't3',L't9')),((L't6',L't8'),L't7')),L't5'),L't1'))",
     0, 163, 138),
]


@pytest.mark.parametrize(
    "kind,t1,t2,key,d_initial,r2_initial,d_achieved", ADVERSARIAL_GOLDEN,
    ids=[f"{row[0].name.lower()}{i}" for i, row in enumerate(ADVERSARIAL_GOLDEN)])
def test_adversarial_golden(kind, t1, t2, key, d_initial, r2_initial, d_achieved):
    ar = adversarial_refinement(parse_newick(t1, kind), parse_newick(t2, kind))
    assert ar.refined.canonical_key() == key
    assert (ar.d_initial, ar.r2_initial, ar.d_achieved) == (d_initial, r2_initial, d_achieved)


class TestEquivalenceCertificate:
    def test_holds_and_factor(self):
        a = Phylogeny.rooted("abcd", (("a", "b"), ("c", "d")))
        b = Phylogeny.rooted("abcd", (("a", "c"), ("b", "d")))
        cert = equivalence_certificate(a, b, Fraction(1, 2))
        assert cert.holds and cert.factor == Fraction(9, 2)

    def test_fails_when_everything_unresolved(self):
        fan = Phylogeny.rooted("abcd", ("a", "b", "c", "d"))
        cert = equivalence_certificate(fan, fan, 1)
        assert not cert.holds and cert.factor is None

    def test_rejects_nonpositive_beta(self):
        t = Phylogeny.rooted("abc", (("a", "b"), "c"))
        with pytest.raises(ValueError):
            equivalence_certificate(t, t, 0)
