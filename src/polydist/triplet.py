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
A block is laid out sides first and node pairs last, M[j, k, i] for the
i-th pair, so that every kernel's sum over the few sides is a handful of
adds of contiguous vectors over the pairs, not a reduction per pair over
a 2- to 5-wide trailing axis.  Each caller skips the pairs that provably add nothing:
|S| and |R1| need I[u, v] >= 2, the quartet anchors I[u, v] >= 1.  The
arithmetic is a sum of d(u)·d(v) over the overlapping pairs only: O(n²)
in the worst case (two caterpillars, where every pair overlaps), far
less when most subtrees are disjoint.
The (m1 × m2) int32 I-table (4·m1·m2 bytes) is the only table of that
size and sets the memory.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

import numpy as np

from polydist.oracle import DistancePair
from polydist.trees import Kind, Phylogeny, check_pair

# The number of array cells one block of node pairs may hold.
BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class RootedIntersectionTables:
    """Pairwise leaf-set intersection sizes and T2's subtree sizes.

    I[u, v] = |L(T1(u)) ∩ L(T2(v))|.
    """

    t1: Phylogeny
    t2: Phylogeny
    I: np.ndarray          # (m1, m2) int32
    alpha2: np.ndarray     # (m2,) subtree leaf counts of T2


def c2(x):
    """C(x, 2), elementwise."""
    return x * (x - 1) // 2


def build_tables(t1: Phylogeny, t2: Phylogeny) -> RootedIntersectionTables:
    """All pairwise intersection sizes in O(n^2): a T1 leaf's row marks the
    T2 nodes whose `leaf_ranges` range holds its taxon, internal rows are
    child-row sums.  Memory: the (m1 × m2) I-table, 4·m1·m2 bytes, no leaf
    rows; int32 holds it exactly, since 0 <= I <= n < 2^31 for any n whose
    table fits in memory."""
    check_pair(t1, t2)
    # Both trees' cached layouts are built before I.  Made after it, these
    # long-lived arrays can land above I on the malloc heap and pin the hole
    # I leaves, which the next, larger table then does not fit (20 MB more
    # peak RSS on some pairs of rooted trees at n = 1600).
    alpha2 = t2.subtree_sizes()
    t1.node_sides()
    t2.node_sides()
    order2, lo2, hi2 = t2.leaf_ranges()
    pos2 = np.empty(t2.n, dtype=np.int64)  # leaf-order position of each taxon
    pos2[order2] = np.arange(t2.n)
    I = np.zeros((t1.num_nodes, t2.num_nodes), dtype=np.int32)
    for u in t1.postorder():
        t = t1.leaf_taxon[u]
        if t is not None:
            I[u] = (lo2 <= pos2[t]) & (pos2[t] < hi2)
        else:
            for c in t1.children[u]:
                I[u] += I[c]
    return RootedIntersectionTables(t1, t2, I, alpha2)


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
    nodes' own cells of I, grid by grid, before anything else is
    gathered, so skipped pairs cost one table read each.
    """
    I, alpha2 = tables.I, tables.alpha2
    m2 = I.shape[1]
    sides2 = [(rows, sizes) for rows, sizes in tables.t2.node_sides()
              if rows.shape[0] > min_children2]
    for rows1, sizes1 in tables.t1.node_sides():
        offsets1 = rows1 * m2   # flat offsets of the rows of I
        for rows2, sizes2 in sides2:
            per_block = max(1, BLOCK_CELLS // (rows1.shape[0] * rows2.shape[0]))
            step = max(1, BLOCK_CELLS // rows2.shape[1])
            for lo in range(0, rows1.shape[1], step):
                # the node itself is the last of its sides
                a, b = np.nonzero(I[rows1[-1, lo:lo + step, None], rows2[-1]]
                                  >= min_overlap)
                a += lo
                for first in range(0, len(a), per_block):
                    pa, pb = a[first:first + per_block], b[first:first + per_block]
                    rb = rows2.take(pb, axis=1)
                    M = I.take(offsets1.take(pa, axis=1)[:, None, :]
                               + rb[None, :, :]).astype(np.int64)
                    s1 = sizes1.take(pa, axis=1)[:, None, :]
                    # the last side of each node is the complement of its
                    # subtree: T1's row first, so that T2's column then
                    # turns the corner into the taxa outside both
                    M[-1] = alpha2.take(rb) - M[-1]
                    M[:, -1] = s1[:, 0] - M[:, -1]
                    yield M, s1, sizes2.take(pb, axis=1)[None, :, :]


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


def _split_pairs(C: np.ndarray) -> np.ndarray:
    """Per node pair, the pairs of taxa in distinct rows and distinct
    columns of the children block C[j, k, ...]."""
    R, Q = C.sum(1), C.sum(0)
    return c2(R.sum(0)) - c2(R).sum(0) - c2(Q).sum(0) + c2(C).sum((0, 1))


def _block_counts(M: np.ndarray) -> tuple[int, int]:
    """|S| and |R1| anchored at a block of node pairs (u, v), from one
    `_split_pairs` P of the children block C: S counts xy|z with x, y in
    distinct children of u and of v and z outside both, P·M[-1, -1]; R1
    counts xy|z with x, y in distinct children of u, z outside u and x, y,
    z in three distinct children of v, sum_k O[k]·P - sum_k O[k]·X[k] with
    O[k] the taxa outside u in child k of v and X[k] the split pairs with
    one taxon in column k.  With two children X[k] = P and R1 is 0, so it
    is read only when v has three or more."""
    C = M[:-1, :-1]
    P = _split_pairs(C)
    S = int((P * M[-1, -1]).sum())
    if M.shape[1] <= 3:
        return S, 0
    O = M[-1, :-1]
    R, Q = C.sum(1, keepdims=True), C.sum(0, keepdims=True)
    T = R.sum(0, keepdims=True)
    X = (C * (T - R - Q + C)).sum(0)
    return S, int((O.sum(0) * P - (O * X).sum(0)).sum())


def count_S_R1(tables: RootedIntersectionTables) -> tuple[int, int]:
    """(|S|, |R1|): triplets resolved identically in both trees, and in T1
    only, from one walk over `node_pair_blocks`, each block read once by
    `_block_counts`.

    Both sit at u = lca_T1(x, y) with x and y in distinct children of u
    and of v (for S v = lca_T2(x, y), for R1 a polytomy of T2).  So only
    pairs with I[u, v] >= 2 enter: the children block M[:-1, :-1] holds
    the taxa of L(u) ∩ L(v), with I[u, v] <= 1 at most one, so
    `_split_pairs`, the column counts X and both counts are 0.

    int64 bound: every M is cast to int64 as it is gathered from the int32
    table; numpy's int64 +, - and × are exact modulo 2^64; the only
    divisions are the C(x, 2) of side counts 0 <= x <= n; and each block's
    read-outs are at most C(n, 3).  The counts are exact while
    C(n, 3) < 2^63, that is for n <= 3810779, far beyond any n whose
    I-table fits in memory.
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

    One `build_tables` I-table (int32, 4·m1·m2 bytes), walked once by
    count_S_R1 for |S| and |R1|: arithmetic summing d(u)·d(v) over the node
    pairs with I[u, v] >= 2 only, O(n²) in the worst case (caterpillars,
    where every pair overlaps); exact in int64 for n <= 3810779.
    """
    check_pair(t1, t2, Kind.ROOTED)
    S, r1 = count_S_R1(build_tables(t1, t2))
    R1tree, U1tree = count_R_U(t1)
    _, U2tree = count_R_U(t2)
    return DistancePair(R1tree - S - r1, U1tree - U2tree + 2 * r1)
