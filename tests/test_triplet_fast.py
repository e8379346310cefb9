import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classification_pairs, induced, rooted_pairs, rooted_trees, seeded_pair
from polydist.cli import main
from polydist.hausdorff import classification_counts
from polydist.oracle import (CapacityError, DistancePair, classify_quartets, classify_triplets,
                             enumerate_phylogenies)
from polydist.quartet import _anchor_counts, _y_per_pair, quartet_classification
from polydist.randgen import random_binary, random_partial
from polydist.trees import Kind, Phylogeny, TaxonSet, TreeError, TripletTopology
from polydist.triplet import (
    MAX_TABLE_N,
    _block_counts,
    build_tables,
    count_R_U,
    count_r1,
    count_shared,
    node_pair_blocks,
    parametric_triplet_distance,
)


def oracle_pair(a, b):
    c = classify_triplets(a, b)
    return c.d, c.r1 + c.r2


def table_order(tree):
    """The internal nodes in the order of the table's rows (columns):
    `node_sides` group by group."""
    return [v for rows, _ in tree.node_sides() for v in rows[-1].tolist()]


def full_table(a, b):
    """|L(u) ∩ L(v)| for every pair of nodes, leaves included, from the
    taxon sets `subtree_taxa` gives."""
    def indicator(tree):
        X = np.zeros((tree.num_nodes, tree.n))
        for v in range(tree.num_nodes):
            X[v, list(tree.subtree_taxa(v))] = 1
        return X
    # float64 products of 0/1 rows are exact counts for any n tested here
    return (indicator(a) @ indicator(b).T).astype(np.int64)


def expected_table(a, b):
    """The table `build_tables` should hold: the internal rows and columns
    of `full_table` in table order, then one zero row and column."""
    want = np.zeros((len(a.internal_nodes()) + 1, len(b.internal_nodes()) + 1), dtype=np.int64)
    want[:-1, :-1] = full_table(a, b)[np.ix_(table_order(a), table_order(b))]
    return want


def stream_pairs(a, b, min_children2=0):
    """The (u, v) of the unfiltered `node_pair_blocks` stream, in order:
    each pair of groups in turn, its grid of node pairs row by row."""
    return [(u, v) for rows1, _ in a.node_sides() for rows2, _ in b.node_sides()
            if rows2.shape[0] > min_children2
            for u in rows1[-1].tolist() for v in rows2[-1].tolist()]


def expected_block(a, b, full, u, v):
    """M of the node pair (u, v) from `full_table`: the sides are the
    children, then the complement of the subtree."""
    A, B = a.children[u] + (u,), b.children[v] + (v,)
    alpha1, alpha2 = a.subtree_sizes(), b.subtree_sizes()
    want = [[int(full[x, y]) for y in B[:-1]] + [int(alpha1[x] - full[x, v])] for x in A[:-1]]
    want.append([int(alpha2[y] - full[u, y]) for y in B[:-1]]
                + [int(a.n - alpha1[u] - alpha2[v] + full[u, v])])
    return want


def assert_stream_is_the_sets(a, b, blocks, min_children2=0):
    """Every cell of an unfiltered stream, leaf sides included, against
    `full_table`, pair by pair in stream order."""
    full = full_table(a, b)
    columns = [M[..., i].tolist() for M, _, _ in blocks for i in range(M.shape[-1])]
    pairs = stream_pairs(a, b, min_children2)
    assert len(columns) == len(pairs)
    for got, (u, v) in zip(columns, pairs):
        assert got == expected_block(a, b, full, u, v)


class TestTables:
    def test_leaf_and_root_entries(self):
        t1 = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        t2 = Phylogeny.rooted("abcd", (("a", "c"), ("b", "d")))
        tab = build_tables(t1, t2)
        # three by three internal nodes, then the leaves' zero row and column
        assert tab.I.dtype == np.uint16 and tab.I.shape == (4, 4)
        assert not tab.I[-1].any() and not tab.I[:, -1].any()
        assert tab.I[table_order(t1).index(t1.root), table_order(t2).index(t2.root)] == 4
        # leaf cells come from positions: leaf a meets leaf a, and the
        # subtrees holding a, and nothing else
        blocks = list(node_pair_blocks(tab))
        assert_stream_is_the_sets(t1, t2, blocks)
        ab = next(v for v in t1.internal_nodes() if t1.subtree_taxa(v) == frozenset({0, 1}))
        ac = next(w for w in t2.internal_nodes() if t2.subtree_taxa(w) == frozenset({0, 2}))
        i = stream_pairs(t1, t2).index((ab, ac))
        M = np.concatenate([M for M, _, _ in blocks], axis=-1)[..., i]
        assert M.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 1]]  # rows a, b; columns a, c

    def test_named_intersection(self):
        t1 = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        t2 = Phylogeny.rooted("abcd", (("a", "c"), ("b", "d")))
        u = next(v for v in t1.internal_nodes() if t1.subtree_taxa(v) == frozenset({0, 1}))
        v = next(w for w in t2.internal_nodes() if t2.subtree_taxa(w) == frozenset({0, 2}))
        assert build_tables(t1, t2).I[table_order(t1).index(u), table_order(t2).index(v)] == 1

    @given(rooted_pairs())
    @settings(max_examples=50, deadline=None)
    def test_quadrants_sum_to_n(self, pair):
        a, b = pair
        tab = build_tables(a, b)
        alpha1, alpha2 = a.subtree_sizes(), b.subtree_sizes()
        everything = frozenset(range(a.n))
        assert not tab.I[-1].any() and not tab.I[:, -1].any()
        # every internal pair's cell, against set arithmetic
        for i, u in enumerate(table_order(a)):
            for j, v in enumerate(table_order(b)):
                A, B = a.subtree_taxa(u), b.subtree_taxa(v)
                assert tab.I[i, j] == len(A & B)
                assert alpha1[u] - tab.I[i, j] == len(A - B)
                assert alpha2[v] - tab.I[i, j] == len(B - A)
                assert a.n - alpha1[u] - alpha2[v] + tab.I[i, j] == \
                    len(everything - A - B)
        # the sides of every node pair split the taxa both ways
        blocks = list(node_pair_blocks(tab))
        for M, sizes1, sizes2 in blocks:
            assert (M >= 0).all()
            assert (M.sum((0, 1)) == a.n).all()
            assert (M.sum(1, keepdims=True) == sizes1).all()
            assert (M.sum(0, keepdims=True) == sizes2).all()
        assert_stream_is_the_sets(a, b, blocks)

    def test_deep_caterpillar_against_fan(self):
        # a 1200-leaf caterpillar, 1199 levels deep, as T2 and then as T1
        n = 1200
        taxa = TaxonSet(tuple(f"t{i}" for i in range(n)))
        nested = 0
        for t in range(1, n):
            nested = (nested, t)
        caterpillar = Phylogeny.rooted(taxa, nested)
        fan = Phylogeny.rooted(taxa, tuple(range(n)))
        for a, b in ((fan, caterpillar), (caterpillar, fan)):
            assert (build_tables(a, b).I == expected_table(a, b)).all()
            assert parametric_triplet_distance(a, b) == DistancePair(0, comb(n, 3))


class TestTableLimit:
    """The table is uint16, exact since I <= n, so n is at most MAX_TABLE_N."""

    @staticmethod
    def fan(n):
        return Phylogeny.rooted(TaxonSet(tuple(f"t{i}" for i in range(n))), tuple(range(n)))

    def test_fan_pair_at_the_largest_n(self):
        fan = self.fan(MAX_TABLE_N)
        assert build_tables(fan, fan).I.tolist() == [[MAX_TABLE_N, 0], [0, 0]]

    def test_one_taxon_more_raises_before_allocating(self):
        fan = self.fan(MAX_TABLE_N + 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build_tables(fan, fan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # neither a table nor a layout of the trees

    @pytest.mark.parametrize("argv", [["dist", "triplet"], ["dist", "quartet", "--unrooted"],
                                      ["hausdorff-bounds"]])
    def test_cli_exits_3(self, capsys, tmp_path, argv):
        path = tmp_path / "fan.nwk"
        path.write_text("(" + ",".join(f"t{i}" for i in range(MAX_TABLE_N + 1)) + ");\n")
        assert main(argv + [str(path), str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(MAX_TABLE_N) in err


def _overlapping_stream(blocks, min_overlap=0):
    """The pairs of a `node_pair_blocks` stream whose subtrees share at least
    `min_overlap` taxa, as (M, sizes1, sizes2) concatenated in stream order
    per block shape; |L(u) ∩ L(v)| is the sum of the children block."""
    out = {}
    for M, sizes1, sizes2 in blocks:
        keep = M[:-1, :-1].sum((0, 1)) >= min_overlap
        if not keep.any():
            continue
        for part, kept in zip(out.setdefault(M.shape[:2], ([], [], [])),
                              (M[..., keep], sizes1[..., keep], sizes2[..., keep])):
            part.append(kept)
    return {shape: tuple(np.concatenate(part, axis=-1).tolist() for part in parts)
            for shape, parts in out.items()}


class TestOverlapFilter:
    """`node_pair_blocks(..., min_overlap=k)` skips the pairs (u, v) with
    I[u, v] < k: 2 for the rooted |S| and |R1| kernels, 1 for the quartet
    anchors and y, each of which adds 0 on every skipped pair."""

    @pytest.mark.parametrize("kind", list(Kind))
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_skipped_pairs_add_nothing(self, kind, data):
        a, b = data.draw(classification_pairs(kind, max_n=14))
        for M, sizes1, sizes2 in node_pair_blocks(build_tables(a, b)):
            overlap = M[:-1, :-1].sum((0, 1))
            for i in np.flatnonzero(overlap < 2):
                pair = M[..., i:i + 1]
                assert _block_counts(pair) == (0, 0)
            if a.n >= 4:
                skipped = overlap < 1
                twice_s, four_d = _anchor_counts(M, sizes1, sizes2, a.n)
                assert not twice_s[skipped].any() and not four_d[skipped].any()
                assert not _y_per_pair(M, sizes1, sizes2)[skipped].any()

    @given(st.sampled_from(list(Kind)).flatmap(classification_pairs))
    @settings(max_examples=120, deadline=None)
    def test_filter_yields_exactly_the_overlapping_pairs(self, pair):
        a, b = pair
        tab = build_tables(a, b)
        internal1, internal2 = a.internal_nodes(), b.internal_nodes()
        for min_children2 in (0, 3):
            wide2 = [v for v in internal2 if len(b.children[v]) >= min_children2]
            everything = list(node_pair_blocks(tab, min_children2))
            assert sum(M.shape[-1] for M, _, _ in everything) == len(internal1) * len(wide2)
            assert_stream_is_the_sets(a, b, everything, min_children2)
            for min_overlap in (1, 2):
                blocks = list(node_pair_blocks(tab, min_children2, min_overlap=min_overlap))
                # the unfiltered stream with the thin pairs taken out, in order
                assert _overlapping_stream(blocks) == \
                    _overlapping_stream(everything, min_overlap)
                # and, by (|L(u) ∩ L(v)|, |L(u)|, |L(v)|) from the taxon
                # sets, the overlapping pairs
                want = sorted((len(A & B), len(A), len(B))
                              for A in map(a.subtree_taxa, internal1)
                              for B in map(b.subtree_taxa, wide2)
                              if len(A & B) >= min_overlap)
                got = sorted(t for M, sizes1, sizes2 in blocks
                             for t in zip(M[:-1, :-1].sum((0, 1)).tolist(),
                                          (a.n - sizes1[-1, 0]).tolist(),
                                          (a.n - sizes2[0, -1]).tolist()))
                assert got == want

    @given(rooted_pairs())
    @settings(max_examples=30, deadline=None)
    def test_uint16_table_int64_blocks(self, pair):
        # the table holds 0 <= I <= n in two bytes a cell; every gathered
        # block is int64 before any kernel arithmetic
        tab = build_tables(*pair)
        assert tab.I.dtype == np.uint16
        assert (tab.I == expected_table(*pair)).all()
        for min_overlap in (0, 1, 2):
            for M, sizes1, sizes2 in node_pair_blocks(tab, min_overlap=min_overlap):
                assert M.dtype == sizes1.dtype == sizes2.dtype == np.int64


@pytest.mark.parametrize("kind,n", [(Kind.ROOTED, n) for n in range(1, 7)]
                         + [(Kind.UNROOTED, n) for n in range(1, 6)])
def test_trees_with_few_internal_nodes(kind, n):
    # a lone leaf, a cherry and fans (stars), with one internal node or
    # none, against each other and against binary and partial trees
    rng = random.Random(n)
    taxa = TaxonSet(tuple(f"t{i}" for i in range(n)))
    build = Phylogeny.rooted if kind is Kind.ROOTED else Phylogeny.unrooted
    fan = build(taxa, tuple(range(n)) if n > 1 else 0)
    assert len(fan.internal_nodes()) == (n > 1)
    trees = (fan, random_binary(n, kind, rng, taxa), random_partial(n, kind, rng, 0.5, taxa))
    for a, b in itertools.product(trees, repeat=2):
        tab = build_tables(a, b)
        assert (tab.I == expected_table(a, b)).all()
        assert_stream_is_the_sets(a, b, list(node_pair_blocks(tab)))
        if kind is Kind.ROOTED:
            want = classify_triplets(a, b)
            assert parametric_triplet_distance(a, b) == want.to_distance_pair()
        else:
            want = classify_quartets(a, b)
            assert quartet_classification(a, b) == want
        assert classification_counts(a, b) == want


def test_blocks_are_sides_first_gathers_of_the_table():
    # every block is C-contiguous int64 (d1, d2, P) with the node pairs
    # last; the unfiltered stream lists each group pair's node pairs row
    # by row, so pair i of the (d1, d2) blocks is (u, v) = (the i // g2-th
    # node of T1's group, the i % g2-th of T2's).  Binary n = 300 against
    # a contraction of another tree: the (3, 3) group spans several blocks.
    n = 300
    rng = random.Random(5)
    taxa = TaxonSet(tuple(f"t{i}" for i in range(n)))
    a = random_binary(n, Kind.ROOTED, rng, taxa)
    b = random_partial(n, Kind.ROOTED, rng, 0.3, taxa)
    full = full_table(a, b)
    by_shape = {}
    for M, sizes1, sizes2 in node_pair_blocks(build_tables(a, b)):
        d1, d2, P = M.shape
        assert M.flags.c_contiguous and M.dtype == np.int64
        assert sizes1.shape == (d1, 1, P) and sizes2.shape == (1, d2, P)
        by_shape.setdefault((d1, d2), []).append((M, sizes1, sizes2))
    assert len(by_shape[3, 3]) > 1
    for rows1, sides1 in a.node_sides():
        for rows2, sides2 in b.node_sides():
            blocks = by_shape.pop((rows1.shape[0], rows2.shape[0]))
            M, sizes1, sizes2 = (np.concatenate(part, axis=-1) for part in zip(*blocks))
            g2 = rows2.shape[1]
            assert M.shape[-1] == rows1.shape[1] * g2
            assert (sizes1[:, 0] == np.repeat(sides1, g2, axis=1)).all()
            assert (sizes2[0] == np.tile(sides2, rows1.shape[1])).all()
            for i in range(M.shape[-1]):
                u, v = int(rows1[-1, i // g2]), int(rows2[-1, i % g2])
                assert M[..., i].tolist() == expected_block(a, b, full, u, v)
    assert not by_shape


class TestCountRU:
    def test_extremes(self):
        binary = Phylogeny.rooted("abcde", ((("a", "b"), "c"), ("d", "e")))
        assert count_R_U(binary) == (comb(5, 3), 0)
        fan = Phylogeny.rooted("abcde", tuple("abcde"))
        assert count_R_U(fan) == (0, comb(5, 3))

    def test_partial(self):
        t = Phylogeny.rooted("abcd", (("a", "b"), "c", "d"))
        assert count_R_U(t) == (2, 2)

    def test_exhaustive_against_classification(self):
        for n in (4, 5, 6):
            for t in enumerate_phylogenies(n, Kind.ROOTED):
                c = classify_triplets(t, t)
                assert count_R_U(t) == (c.s, c.u)


@pytest.mark.parametrize("swap", [False, True])
def test_taxa_checked_before_small_n(swap):
    small = Phylogeny.rooted("ab", ("a", "b"))
    other = Phylogeny.rooted("cdef", (("c", "d"), "e", "f"))
    with pytest.raises(TreeError):
        parametric_triplet_distance(*((other, small) if swap else (small, other)))


class TestSharedAndR1:
    def test_known_small_pairs(self):
        t1 = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        t2 = Phylogeny.rooted("abcd", (("a", "b"), "c", "d"))
        tab = build_tables(t1, t2)
        assert count_shared(tab) == 2
        assert count_r1(tab) == 2
        assert count_r1(build_tables(t2, t1)) == 0  # nothing resolved only in t2
        a = Phylogeny.rooted("abcd", (("a", "b"), ("c", "d")))
        b = Phylogeny.rooted("abcd", (("a", "c"), ("b", "d")))
        assert count_shared(build_tables(a, b)) == 0

    def test_binary_t2_means_zero_r1(self):
        t1 = Phylogeny.rooted("abcd", (("a", "b"), "c", "d"))
        t2 = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        assert count_r1(build_tables(t1, t2)) == 0

    @given(rooted_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_classification(self, pair):
        a, b = pair
        c = classify_triplets(a, b)
        tab = build_tables(a, b)
        assert count_shared(tab) == c.s
        assert count_r1(tab) == c.r1


class TestKernelsAgainstOracle:
    @given(classification_pairs(Kind.ROOTED, max_n=16))
    @settings(max_examples=150, deadline=None)
    def test_shapes_and_contractions(self, pair):
        # fans, caterpillars, binary and partially resolved trees, and trees
        # paired with a contraction: wide polytomies on either side
        a, b = pair
        c = classify_triplets(a, b)
        ab, ba = build_tables(a, b), build_tables(b, a)
        assert (count_shared(ab), count_r1(ab)) == (c.s, c.r1)
        assert (count_shared(ba), count_r1(ba)) == (c.s, c.r2)
        dp = parametric_triplet_distance(a, b)
        assert (dp.d_count, dp.r_count) == (c.d, c.r1 + c.r2)
        assert classification_counts(a, b) == c

    def test_binary_against_fan_past_one_block(self):
        # every triplet is resolved in the binary tree and a fan in the fan
        n = 400
        taxa = TaxonSet(tuple(f"t{i}" for i in range(n)))
        binary = random_binary(n, Kind.ROOTED, random.Random(4), taxa)
        fan = Phylogeny.rooted(taxa, tuple(range(n)))
        tab = build_tables(binary, fan)
        assert len(list(node_pair_blocks(tab, min_children2=3))) > 1
        assert (count_shared(tab), count_r1(tab)) == (0, comb(n, 3))
        back = build_tables(fan, binary)
        assert (count_shared(back), count_r1(back)) == (0, 0)
        assert parametric_triplet_distance(binary, fan) == DistancePair(0, comb(n, 3))


# Largest n with C(n, 3) < 2^63, the rooted kernels' int64 bound.
MAX_INT64_N = 3810779


def _block_reference(M: list[list[int]]) -> tuple[int, int]:
    """Shared and resolved-only-in-T1 triplets one node pair anchors, by
    choosing cells one by one with Python integers.  Rows and columns are
    the children of u and v, then the complement of each subtree."""
    out = M[-1][:-1]
    cells = [(j, k) for j in range(len(M) - 1) for k in range(len(M[0]) - 1)]
    s = r1 = 0
    for (j, k), (jj, kk) in itertools.combinations(cells, 2):
        if j != jj and k != kk:
            pairs = M[j][k] * M[jj][kk]
            s += pairs * M[-1][-1]
            r1 += pairs * sum(o for l, o in enumerate(out) if l not in (k, kk))
    return s, r1


def test_int64_exact_at_largest_supported_n():
    n = MAX_INT64_N
    assert comb(n, 3) < 2**63 <= comb(n + 1, 3)
    rng = random.Random(3)
    a, h = n // 3, n // 4
    blocks = [
        # one child pair holding almost every taxon
        [[n - 3, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
        # crossed halves with the rest outside both subtrees
        [[h, h, 0], [h, h, 0], [0, 0, n - 4 * h]],
        # thirds: split pairs, one third outside u
        [[a, 0, 0, 0], [0, a, 0, 0], [0, 0, a, n - 3 * a]],
    ]
    for _ in range(6):
        d1, d2 = rng.randint(3, 6), rng.randint(4, 7)
        cuts = sorted(rng.sample(range(1, n), d1 * d2 - 1))
        blocks.append(np.diff([0] + cuts + [n]).reshape(d1, d2).tolist())
    for block in blocks:
        M = np.array(block, dtype=np.int64)
        assert M.sum() == n
        assert _block_counts(M[..., None]) == _block_reference(block)
    # a block of node pairs whose O·P terms sum past 2^63 (an int64 sum of
    # them alone would wrap) while its read-out, a² per pair, stays small
    one = [[a, 0, 0, 0], [0, a, 0, 0], [n - 2 * a - 1, 0, 1, 0]]
    stack = np.stack([np.array(one, dtype=np.int64)] * 8, axis=-1)
    assert 8 * (n - 2 * a) * a * a >= 2**63
    assert _block_counts(stack)[1] == 8 * _block_reference(one)[1] == 8 * a * a


class TestParametricDistance:
    def test_identical(self):
        t = Phylogeny.rooted("abcde", (("a", ("b", "c")), "d", "e"))
        dp = parametric_triplet_distance(t, t)
        assert (dp.d_count, dp.r_count) == (0, 0)

    def test_known_small_values(self):
        t1 = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
        t2 = Phylogeny.rooted("abcd", (("a", "b"), "c", "d"))
        dp = parametric_triplet_distance(t1, t2)
        assert (dp.d_count, dp.r_count) == (0, 2)
        assert dp.evaluate(Fraction(1, 2)) == 1
        a = Phylogeny.rooted("abcd", (("a", "b"), ("c", "d")))
        b = Phylogeny.rooted("abcd", (("a", "c"), ("b", "d")))
        assert parametric_triplet_distance(a, b) == type(dp)(4, 0)

    def test_exhaustive_all_pairs_small(self):
        for n in (3, 4):
            trees = list(enumerate_phylogenies(n, Kind.ROOTED))
            for a in trees:
                for b in trees:
                    dp = parametric_triplet_distance(a, b)
                    assert (dp.d_count, dp.r_count) == oracle_pair(a, b)

    @given(rooted_pairs(max_n=16))
    @settings(max_examples=80, deadline=None)
    def test_random_oracle_equivalence(self, pair):
        a, b = pair
        dp = parametric_triplet_distance(a, b)
        assert (dp.d_count, dp.r_count) == oracle_pair(a, b)

    def test_swap_symmetry(self):
        for seed in range(10):
            a, b = seeded_pair(Kind.ROOTED, 9, seed)
            ab = parametric_triplet_distance(a, b)
            ba = parametric_triplet_distance(b, a)
            assert (ab.d_count, ab.r_count) == (ba.d_count, ba.r_count)

    def test_degenerate_small_n(self):
        one = Phylogeny.rooted(("a",), "a")
        assert parametric_triplet_distance(one, one).evaluate(1) == 0


@given(rooted_trees())
@settings(max_examples=40, deadline=None)
def test_strict_induction_consistency(tree):
    # every resolved triplet is induced at exactly one internal non-root node
    R, U = count_R_U(tree)
    resolved = sum(1 for X in itertools.combinations(range(tree.n), 3)
                   if _is_resolved(tree, X))
    assert R == resolved
    assert R + U == comb(tree.n, 3)


def _is_resolved(tree, X):
    return induced(tree, X) is not TripletTopology.FAN
