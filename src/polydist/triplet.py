"""Exact parametric triplet distance between rooted trees.

The distance d^(p) = |D| + p(|R1| + |R2|) is assembled from three counted
quantities instead of classifying triplets one by one:

    |D|          = R(T1) - |S| - |R1|
    |R1| + |R2|  = U(T1) - U(T2) + 2|R1|

where R(T)/U(T) are the per-tree resolved/unresolved triplet counts, |S|
is the number of identically resolved triplets, and |R1| the number
resolved only in T1.  |S| and |R1| are sums over pairs (u, v) of internal
nodes of closed forms in M[j, k] = |A_j ∩ B_k|, the overlaps of the sides
of u and of v (their children, then the complement of their subtree).
The sides and the subtree ranges of the leaf order are the per-tree
layout that `Phylogeny.node_sides` / `leaf_ranges` cache.
`node_pair_blocks` is the one loop over node pairs: it gathers M from the
intersection table I[u, v] = |L(T1(u)) ∩ L(T2(v))| of `build_tables`, in
blocks of node pairs with the same child counts, for these kernels and for
`polydist.quartet`'s classification and y term.  One block kernel,
`_block_counts`, reads |S| and |R1| off each block, so `count_S_R1` walks
a table once for both, as `polydist.quartet` walks one for its classes.
`range_counts`, which fills I, also fills `polydist.consensus`' histograms,
and its rooted votes f are the R1 summand O·(P - X) of `split_counts`.
A block is laid out sides first and node pairs last, M[j, k, i] for the
i-th pair, so that every kernel's sum over the few sides is a handful of
adds of contiguous vectors over the pairs, not a reduction per pair over
a 2- to 5-wide trailing axis.  Each caller skips the pairs that provably add nothing:
|S| and |R1| need I[u, v] >= 2, the quartet anchors I[u, v] >= 1.  The
arithmetic is a sum of d(u)·d(v) over the overlapping pairs only: O(n²)
in the worst case (two caterpillars, where every pair overlaps), far
less when most subtrees are disjoint.
The table holds internal nodes only, as (k1 + 1) × (k2 + 1) uint16 cells
for k1 and k2 internal nodes (2·(k1 + 1)·(k2 + 1) bytes, at most about
2n² for n <= MAX_TABLE_N); it is the only table of that size and sets
the memory.  A leaf's cells are read off leaf positions as the blocks
are gathered.  The table's format is this module's alone: `_layout`,
cached per tree like the sides, fixes its row order, its zero row and
the uint16 leaf positions.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

import numpy as np

from polydist.oracle import CapacityError, DistancePair
from polydist.trees import Kind, Phylogeny, check_pair, per_tree

# The number of array cells one block may hold.
BLOCK_CELLS = 1 << 18

# The largest n whose intersection counts the uint16 table holds (I <= n).
MAX_TABLE_N = (1 << 16) - 1


def parts(count: int, width: int) -> Iterator[slice]:
    """Slices of range(count) of at most BLOCK_CELLS // width items, one at
    least: the blocks of a loop whose items hold `width` cells each, here
    and in `polydist.consensus`."""
    step = max(1, BLOCK_CELLS // width)
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


@dataclass(frozen=True)
class RootedIntersectionTables:
    """Pairwise leaf-set intersection sizes of internal nodes.

    I[i, j] = |L(T1(u)) ∩ L(T2(v))| for the i-th internal node u of T1 and
    the j-th v of T2, in the table order of `_layout`, which also places
    the zero row and column that every leaf shares.
    """

    t1: Phylogeny
    t2: Phylogeny
    I: np.ndarray          # (k1 + 1, k2 + 1) uint16, k the internal node counts


def c2(x):
    """C(x, 2), elementwise."""
    return x * (x - 1) // 2


@per_tree
def _layout(tree: Phylogeny) -> tuple[np.ndarray, np.ndarray, list]:
    """(position, own, groups): where each of a tree's sides reads its
    cells of an intersection table.

    The table has one row (column) per internal node, in `node_sides`
    order group by group, and one zero row (column) after them that every
    leaf shares.  A leaf's cells are read from leaf positions instead:
    position[t] is taxon t's position in the leaf order, and position[n] a
    sentinel that lies in no range.  own (2, k) uint16 holds the lo and
    span of each of the k internal nodes in table order: its subtree is
    the leaf-order range lo + [0, span).

    Per `node_sides` group, (ints, cells) are stacked so that one `take`
    along the last axis gathers them for any of the group's nodes: ints
    (2, d + 1, g) int64 holds each side's row of the table and its size
    (as in `node_sides`); cells (4, d + 1, g) uint16 holds its taxon (a
    leaf side's, else n), lo, span and inner: the side's subtree is
    lo + [0, span), or lo + [0, inner), which is empty for leaves.
    Positions are uint16, exact for n < 2^16: a position p, or the
    sentinel 2^16 - 1, is in a side's range exactly when
    (p - lo) mod 2^16 < span, since lo + span <= n.
    """
    order, lo, hi = tree.leaf_ranges()
    position = np.full(tree.n + 1, 0xFFFF, dtype=np.uint16)
    position[order] = np.arange(tree.n)
    taxon = np.array([tree.n if t is None else t for t in tree.leaf_taxon])
    # the internal nodes in table order, none in a lone leaf
    inner = np.concatenate([np.empty(0, dtype=np.int64)]
                           + [rows[-1] for rows, _ in tree.node_sides()])
    rank = np.full(tree.num_nodes, len(inner))
    rank[inner] = np.arange(len(inner))
    span = hi - lo
    stacked = np.stack([taxon, lo, span, np.where(taxon < tree.n, 0, span)]).astype(np.uint16)
    groups = [(np.stack([rank[rows], sizes]), stacked[:, rows])
              for rows, sizes in tree.node_sides()]
    return position, stacked[1:3, inner], groups


def range_counts(inside: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray) -> None:
    """out[i, c] = #{t in [lo[i], hi[i]) : inside[t, c]} for the (n, m)
    `inside`, as F[hi] - F[lo] of its prefix counts F in out's dtype: the
    one fill of `build_tables`' I and `polydist.consensus`' histograms."""
    F = np.zeros((len(inside) + 1, inside.shape[1]), dtype=out.dtype)
    np.cumsum(inside, axis=0, dtype=out.dtype, out=F[1:])
    np.subtract(F[hi], F[lo], out=out)


def build_tables(t1: Phylogeny, t2: Phylogeny) -> RootedIntersectionTables:
    """The intersection sizes of every pair of internal nodes, in O(n·k2 +
    k1·k2) for k internal nodes, by `range_counts` over T1's leaf order in
    column chunks of at most BLOCK_CELLS cells of the prefix counts.
    Memory: the (k1 + 1) × (k2 + 1) uint16 table, 2·(k1 + 1)·(k2 + 1)
    bytes, no leaf rows or columns.  uint16 holds it exactly, since
    0 <= I <= n; larger n than MAX_TABLE_N raises CapacityError before
    anything is allocated."""
    check_pair(t1, t2)
    if t1.n > MAX_TABLE_N:
        raise CapacityError(f"intersection tables need n <= {MAX_TABLE_N}, got {t1.n}")
    _, (lo1, span1), _ = _layout(t1)
    position2, (lo2, span2), _ = _layout(t2)
    hi1 = lo1 + span1
    p = position2[t1.leaf_ranges()[0], None]   # T2 position of each T1 leaf
    I = np.zeros((len(lo1) + 1, len(lo2) + 1), dtype=np.uint16)
    for cols in parts(len(lo2), t1.n + 1):
        range_counts(p - lo2[cols] < span2[cols], lo1, hi1, I[:-1, cols])
    return RootedIntersectionTables(t1, t2, I)


def node_pair_blocks(tables: RootedIntersectionTables, min_children2: int = 0, *,
                     min_overlap: int = 0
                     ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every pair (u, v) of internal nodes of T1 and T2 whose v has at
    least `min_children2` children and whose subtrees share at least
    `min_overlap` taxa (I[u, v] >= min_overlap), in blocks of at most
    BLOCK_CELLS cells.

    A block holds P pairs of T1 nodes with d1 sides (children, then the
    complement of the subtree) and T2 nodes with d2 sides, as (M, sizes1,
    sizes2), all int64 with the sides first and the pairs last, like
    `Phylogeny.node_sides`: the C-contiguous M of shape (d1, d2, P) holds
    M[j, k, i] = |A_j ∩ B_k| for the sides A of the i-th pair's T1 node
    and B of its T2 node, with side sizes sizes1[j, 0, i] (d1, 1, P) and
    sizes2[0, k, i] (1, d2, P).  Every kernel reduces over the two side
    axes, so each sum adds a few contiguous length-P vectors instead of
    reducing many 2- to 5-wide trailing axes.  The pairs are read off the
    nodes' own cells of I, a contiguous slice per grid of a T1 run and a
    T2 group, before anything else is gathered, so skipped pairs cost one
    table read each.  Cells of two internal sides are gathered from I, and
    a leaf side adds its one taxon from positions (`_layout`):
    a T1 leaf x adds [pos2(x) in range2(y)] to each side y, a T2 leaf y
    adds [pos1(y) in range1(x)] to each internal side x.
    """
    t1, t2, I = tables.t1, tables.t2, tables.I
    position1, _, groups1 = _layout(t1)
    position2, _, groups2 = _layout(t2)
    # per group and call: (taxon position in the other tree, lo, span) of
    # T2's sides and (taxon position, lo, inner) of T1's
    wide2, first2 = [], 0
    for ints, cells in groups2:
        if ints.shape[1] > min_children2:
            wide2.append((first2, ints, np.concatenate([position1[cells[:1]], cells[1:3]])))
        first2 += ints.shape[2]
    first1 = 0
    for ints1, cells1 in groups1:
        cells1 = np.concatenate([position2[cells1[:1]], cells1[[1, 3]]])
        _, d1, g1 = ints1.shape
        for first2, ints2, cells2 in wide2:
            _, d2, g2 = ints2.shape
            # each group's nodes are a contiguous run of rows (columns)
            grid = I[first1:first1 + g1, first2:first2 + g2]
            for rows in parts(g1, g2):
                a, b = np.nonzero(grid[rows] >= min_overlap)
                a += rows.start
                for pairs in parts(len(a), d1 * d2):
                    pa, pb = a[pairs], b[pairs]
                    (rank1, s1), (rank2, s2) = ints1.take(pa, axis=2), ints2.take(pb, axis=2)
                    (x, lo1, inner1), (y, lo2, span2) = (cells1.take(pa, axis=2),
                                                         cells2.take(pb, axis=2))
                    M = I[rank1[:, None, :], rank2]
                    # a leaf side adds its one taxon where the other tree's
                    # side holds it; x and y are the sentinel off leaves
                    M += x[:, None, :] - lo2 < span2
                    M += y - lo1[:, None, :] < inner1[:, None, :]
                    M = M.astype(np.int64)
                    # the last side of each node is the complement of its
                    # subtree: T1's row first, so that T2's column then
                    # turns the corner into the taxa outside both
                    M[-1] = span2 - M[-1]
                    M[:, -1] = s1 - M[:, -1]
                    yield M, s1[:, None, :], s2[None, :, :]
        first1 += g1


def count_R_U(tree: Phylogeny) -> tuple[int, int]:
    """Resolved/unresolved triplet counts of one rooted tree, O(n).

    A resolved triplet xy|z is strictly induced at v = lca(x, y): the pair
    must split across distinct children of v and z must lie outside v: per
    `Phylogeny.node_sides` group, (c2(Σ children) − Σ c2(child)) ·
    complement.  Exact in int64 for n <= 3810779, as count_S_R1.
    """
    R = 0
    for _, sizes in tree.node_sides():
        kids, outside = sizes[:-1], sizes[-1]
        R += int(((c2(kids.sum(0)) - c2(kids).sum(0)) * outside).sum())
    return R, comb(tree.n, 3) - R


def split_counts(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, X) per node pair of the children block C[j, k, ...]: P the pairs of
    taxa in distinct rows and columns, X[k] those with one in column k,
    Q[k]·(T - Q[k]) - Σ_j R[j]·C[j, k] + Σ_j C[j, k]² for row sums R,
    column sums Q and total T.  A pair lies in two columns: P = ΣX / 2."""
    R, Q = C.sum(1), C.sum(0)
    X = (Q * (R.sum(0) - Q) - np.einsum("j...,jk...->k...", R, C)
         + np.einsum("jk...,jk...->k...", C, C))
    return X.sum(0) // 2, X


def _block_counts(M: np.ndarray) -> tuple[int, int]:
    """|S| and |R1| anchored at a block of node pairs (u, v), from the
    `split_counts` (P, X) of the children block C and the taxa O[k] outside
    u in child k of v: S counts xy|z with x, y in distinct children of u
    and of v and z outside both, P·M[-1, -1]; R1 counts xy|z with x, y in
    distinct children of u, z outside u and x, y, z in three distinct
    children of v, Σ_k O[k]·(P - X[k]), summed per k as the votes f.  With
    two children X[k] = P and R1 is 0, so it is read only with three or more."""
    C, O = M[:-1, :-1], M[-1, :-1]
    P, X = split_counts(C)
    S = int((P * M[-1, -1]).sum())
    if M.shape[1] <= 3:
        return S, 0
    return S, int((O * (P - X)).sum())


def count_S_R1(tables: RootedIntersectionTables) -> tuple[int, int]:
    """(|S|, |R1|): triplets resolved identically in both trees, and in T1
    only, from one walk over `node_pair_blocks`, each block read once by
    `_block_counts`.

    Both sit at u = lca_T1(x, y) with x and y in distinct children of u
    and of v (for S v = lca_T2(x, y), for R1 a polytomy of T2).  So only
    pairs with I[u, v] >= 2 enter: the children block M[:-1, :-1] holds
    the taxa of L(u) ∩ L(v), with I[u, v] <= 1 at most one, so
    `split_counts`' P and X and both counts are 0.

    int64 bound: every M is cast to int64 as it is gathered from the uint16
    table; numpy's int64 +, - and × are exact modulo 2^64; the only
    divisions are the C(x, 2) of side counts 0 <= x <= n; and each block's
    read-outs are at most C(n, 3).  The counts are exact while
    C(n, 3) < 2^63, that is for n <= 3810779, far beyond the table's
    MAX_TABLE_N.
    """
    counts = [_block_counts(M) for M, _, _ in node_pair_blocks(tables, min_overlap=2)]
    return sum(s for s, _ in counts), sum(r1 for _, r1 in counts)


def count_shared(tables: RootedIntersectionTables) -> int:
    """|S|: triplets resolved identically in both trees (count_S_R1)."""
    return count_S_R1(tables)[0]


def count_r1(tables: RootedIntersectionTables) -> int:
    """|R1| alone, from its own walk over the blocks of T2 nodes with three
    or more children, the only ones that anchor R1 triplets: the swapped
    r2 pass needs no |S|, and skipping T2's binary nodes skips most pairs
    of a mostly resolved T2.  The I[u, v] >= 2 filter and the int64 bound
    are count_S_R1's."""
    blocks = node_pair_blocks(tables, min_children2=3, min_overlap=2)
    return sum(_block_counts(M)[1] for M, _, _ in blocks)


def parametric_triplet_distance(t1: Phylogeny, t2: Phylogeny) -> DistancePair:
    """Exact parametric triplet distance as a DistancePair.

    One `build_tables` I-table over internal nodes (uint16, 2·(k1 + 1)·(k2
    + 1) bytes), walked once by count_S_R1 for |S| and |R1|: arithmetic
    summing d(u)·d(v) over the node pairs with I[u, v] >= 2 only, O(n²) in
    the worst case (caterpillars, where every pair overlaps).  n is at most
    MAX_TABLE_N, larger n raises CapacityError; the counts are exact in
    int64 far beyond that.
    """
    check_pair(t1, t2, Kind.ROOTED)
    S, r1 = count_S_R1(build_tables(t1, t2))
    R1tree, U1tree = count_R_U(t1)
    _, U2tree = count_R_U(t2)
    return DistancePair(R1tree - S - r1, U1tree - U2tree + 2 * r1)
