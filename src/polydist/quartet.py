"""Quartet distances between unrooted trees.

`quartet_classification` counts the five quartet classes (s, d, r1, r2,
u) exactly, from pairs of internal nodes instead of subsets of leaves,
the way Brodal et al. (SODA 2013) and tqDist (Sand et al. 2014) count
them.  A resolved quartet ab|cd has an *anchor* at each end of its middle
path: a node where a and b lie in distinct sides and c and d together in
a third.  For internal nodes x1 of T1 and x2 of T2 with sides A_j and B_k
(children, plus the complement of the subtree), M[j, k] = |A_j ∩ B_k|
decides how many quartets both nodes anchor with the same together pair
(twice |S|) and how many they anchor with together pairs sharing one
taxon (four times |D|).  The M blocks come from
`polydist.triplet.node_pair_blocks`, the node-pair loop the rooted triplet
counts share, as M[j, k, i] with the sides first and the node pairs last:
each kernel reduces over the two side axes, adding whole vectors of node
pairs, and the one product over sides, the Gram matrix of
`_anchor_counts`, is an einsum over the same layout.  The sides are the
layout `Phylogeny.node_sides` caches per tree, which also gives the R/U
counts.  Only pairs whose subtrees share a taxon (I[x1, x2] >= 1) enter:
with I = 0 the children block is zero, so every nonzero cell of M lies in
the last row or the last column, and no anchor pattern fits there (see
`_count`).  The arithmetic sums d1·d2·min(d1, d2) over those overlapping
pairs only, O(n²·d) for maximum degree d in the worst case (caterpillars,
where every pair overlaps); the I-table of `build_tables` over internal
nodes (uint16, 2·(k1 + 1)·(k2 + 1) bytes for k1, k2 internal nodes) sets
the memory.

`parametric_quartet_distance` reads one classification for both of its
modes: d^(p) = d + p(r1 + r2) exactly (mode="exact", any p), or the
paper's 2-approximation (mode="approx", p >= 1/2):
x = R(T1) - |S| + p(U(T1) - U(T2)) + (2p-1)y, that is
x = d + (1-p)r1 + p·r2 + (2p-1)y, where y over-counts |R1| by at most a
factor of two (each resolved-in-T1-only quartet is strictly induced by
exactly two directed edges, and the rooted sum hits one or both of them).
y is a closed form per pair of a T1 node and a T2 polytomy, summed in the
same pass over the same node-pair blocks as s and d, so every call builds
one I-table.  This sandwiches the true distance: d^(p) <= x <= 2 d^(p)
for p >= 1/2, with equality throughout at p = 1/2 where the y term
vanishes and is not counted.

int64 bound, for every count here: numpy's int64 addition, subtraction
and multiplication are exact modulo 2^64, so intermediates may wrap as
long as every value that is divided or read out is exact.  The only
divisions are the C(x, 2) of side counts 0 <= x <= n and each pair's
4y <= 4·C(n, 4) divided by 4; the values read out are per-block sums of
at most 2|S|, 4|D| <= 4·C(n, 4), y <= 2·C(n, 4) and 2R <= 2·C(n, 4).
Hence the counts are exact while 4·C(n, 4) < 2^63, that is for
n <= MAX_EXACT_N = 86251.  The uint16 I-table holds n <= MAX_TABLE_N =
65535, so the kernels' limit is min(MAX_EXACT_N, MAX_TABLE_N) = 65535, and
larger n raises CapacityError; every M is cast to int64 as it is gathered
from the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from polydist.oracle import CapacityError, Classification
from polydist.trees import Kind, Phylogeny, TreeError, check_pair
from polydist.triplet import build_tables, c2, node_pair_blocks

# Largest n whose quartet counts the int64 kernels read out exactly (see the
# module docstring).
MAX_EXACT_N = 86251


@dataclass(frozen=True)
class ApproxDistance:
    """A computed value with a certified interval for the true distance."""

    value: Fraction
    lower: Fraction
    upper: Fraction
    exact: bool

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError("invalid certificate interval")


def count_R_U_quartets(tree: Phylogeny) -> tuple[int, int]:
    """Resolved/unresolved quartet counts of one unrooted tree, O(n).

    A resolved quartet ab|cd is strictly induced by exactly two directed
    edges (one at each end of its middle path), hence the half factor.  At a
    node with side sizes s_j (`Phylogeny.node_sides`), side j's C(s_j, 2)
    pairs meet C(n - s_j, 2) - Σ_{i≠j} C(s_i, 2) split pairs; int64-exact
    for n <= MAX_EXACT_N, larger n raises.
    """
    if tree.kind is not Kind.UNROOTED:
        raise TreeError("quartet counts apply to unrooted trees")
    n = tree.n
    if n < 4:
        return 0, 0
    if n > MAX_EXACT_N:
        raise CapacityError(f"exact quartet counts need n <= {MAX_EXACT_N}, got {n}")
    twice_R = 0
    for _, sizes in tree.node_sides():
        together = c2(sizes)
        split_pairs = c2(n - sizes) - (together.sum(0, keepdims=True) - together)
        twice_R += int((split_pairs * together).sum())
    assert twice_R % 2 == 0
    R = twice_R // 2
    return R, comb(n, 4) - R


def _anchor_counts(M: np.ndarray, R: np.ndarray, C: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per node pair, from M[j, k, ...] = |A_j ∩ B_k| with side sizes R
    (rows) and C (columns): twice the shared quartets it anchors, and four
    times the differently resolved ones.

    Shared: {c, d} in cell (i, k), {a, b} outside row i and column k in
    distinct rows and distinct columns.  Different: d in cell (i, k), c in
    (i, l), b in (j, k) with j != i, l != k, and a outside rows i, j and
    columns k, l; the a-count splits into terms that are row and column
    sums, except the sum over M[j, l], which is (M·Mᵀ·M)[i, k] and enters
    as the squared Frobenius norm of M·Mᵀ, or equally of Mᵀ·M.
    """
    def rows(A):
        return A.sum(1, keepdims=True)

    def cols(A):
        return A.sum(0, keepdims=True)

    M2 = c2(M)
    G = c2(R - M)   # pairs in row j outside column k
    H = c2(C - M)   # pairs in column l outside row i
    pairs = (c2(n - R - C + M) - (cols(G) - G) - (rows(H) - H)
             + rows(cols(M2)) - rows(M2) - cols(M2) + M2)
    twice_s = (M2 * pairs).sum((0, 1))

    X, Y = R - M, C - M
    RM, MC, Msq = R * M, M * C, M * M
    outside = (X * Y * (n - R - C + M)
               - X * (cols(RM) - RM) - Y * (rows(MC) - MC)
               + Y * (rows(Msq) - Msq) + X * (cols(Msq) - Msq)
               - M * (rows(Msq) + cols(Msq) - Msq))
    gram = np.einsum("ik...,jk...->ij...", M, M) if M.shape[0] <= M.shape[1] \
        else np.einsum("ki...,kj...->ij...", M, M)
    four_d = (M * outside).sum((0, 1)) + (gram * gram).sum((0, 1))
    return twice_s, four_d


def count_shared_quartets(t1: Phylogeny, t2: Phylogeny) -> int:
    """|S|: quartets resolved identically in both trees."""
    return quartet_classification(t1, t2).s


def _y_per_pair(M: np.ndarray, sizes1: np.ndarray, sizes2: np.ndarray) -> np.ndarray:
    """y(u, w) per node pair of a `node_pair_blocks` block: the quartets
    with two taxa in distinct children of u, two outside u, and all four in
    distinct sides of w.

    With C the children block (row sums R), O[k] the taxa outside u in
    side k of w, T = Σ O (u's last side size), q = sizes2 - O the column
    sums of C and W = q qᵀ - CᵀC (the ordered pairs in distinct children
    of u with one taxon in side k and one in side l),

        4y = Σ_{k≠l} W[k, l]·((T - O_k - O_l)² - (Σ O² - O_k² - O_l²))
           = Σ_k (row_sums_k·B_k - W[k, k]·(B_k + 2·O_k²)) + 2·OᵀWO,

    where B_k = T² - Σ O² + 4·O_k(O_k - T), row_sums_k = Σ_l W[k, l] =
    Σ_j C[j, k]·(|u| - R_j) and OᵀWO = (q·O)² - |C O|².  Every sum runs
    over the children of u or the sides of w, the leading axes of the
    block, so each is a few adds of whole vectors of node pairs.
    """
    C, O = M[:-1], M[-1]
    R, T = sizes1[:-1], sizes1[-1]
    q = sizes2[0] - O
    OO = O * O
    B = T * T - OO.sum(0) + 4 * (OO - O * T)
    row_sums = ((R.sum(0) - R) * C).sum(0)
    diag = q * q - (C * C).sum(0)
    CO = (C * O).sum(1)
    four_y = ((row_sums * B - diag * (B + 2 * OO)).sum(0)
              + 2 * ((q * O).sum(0) ** 2 - (CO * CO).sum(0)))
    return four_y // 4


def _count(t1: Phylogeny, t2: Phylogeny, with_y: bool) -> tuple[Classification, int]:
    """The five classes and, if `with_y`, y (else 0), from one pass over the
    node-pair blocks of one `build_tables` I-table: `_anchor_counts` on
    every block, `_y_per_pair` on the blocks of T2 nodes with three or more
    children.  r1 = R(T1) - s - d, r2 = R(T2) - s - d and u is the rest.

    The pass skips the pairs with I[x1, x2] = 0, which add 0 to every sum.
    Their children block is zero, since a child of x1 and one of x2 share
    no taxon, so every nonzero cell lies in the last row or the last
    column.  Every pattern needs a taxon in a cell off both.  A shared
    quartet fills three cells in distinct rows and distinct columns (c
    and d share one), and only one row and one column are last.  A
    different one fills (i, k), (i, l) and (j, k) and puts a outside rows
    i, j and columns k, l: if (i, k) is not the last corner, (i, l) or
    (j, k) is off both, and if it is, a's cell is.  y's two taxa in
    distinct children of x1 lie in distinct sides of x2, so not both in
    the last column."""
    check_pair(t1, t2, Kind.UNROOTED)
    n = t1.n
    if n < 4:
        return Classification(0, 0, 0, 0, 0), 0
    if n > MAX_EXACT_N:
        raise CapacityError(f"exact quartet counts need n <= {MAX_EXACT_N}, got {n}")
    twice_s = four_d = y = 0
    for M, sizes1, sizes2 in node_pair_blocks(build_tables(t1, t2), min_overlap=1):
        s, d = _anchor_counts(M, sizes1, sizes2, n)
        twice_s += int(s.sum())
        four_d += int(d.sum())
        if with_y and M.shape[1] > 3:  # T2 nodes with three or more children
            y += int(_y_per_pair(M, sizes1, sizes2).sum())
    s, d = twice_s // 2, four_d // 4
    r1 = count_R_U_quartets(t1)[0] - s - d
    r2 = count_R_U_quartets(t2)[0] - s - d
    return Classification(s, d, r1, r2, comb(n, 4) - s - d - r1 - r2), y


def quartet_classification(t1: Phylogeny, t2: Phylogeny) -> Classification:
    """Exact (s, d, r1, r2, u) over all C(n, 4) quartets of two unrooted
    trees, from one pass over node pairs grouped by (child count in T1, in
    T2); exact for n <= min(MAX_EXACT_N, MAX_TABLE_N), larger n raises
    CapacityError."""
    return _count(t1, t2, with_y=False)[0]


def approx_r1_quartets(t1: Phylogeny, t2: Phylogeny) -> int:
    """y with |R1| <= y <= 2|R1|: the rooted directed-edge sum.

    y depends on T1's orientation, the bound does not: T1 is read as
    stored, and each non-root internal u has the directed edge (u, pa(u)).
    y sums, over those u and the polytomies w of T2 (in any orientation),
    the quartets with two taxa in distinct children of u, two outside u
    and all four in distinct sides of w: a closed form per pair of
    `node_pair_blocks` with w of three or more children, counted in the
    classification's pass.  T1's root adds 0 (nothing lies outside it),
    and so does a T2 node with fewer than four non-empty sides.  Exact for
    n <= min(MAX_EXACT_N, MAX_TABLE_N), larger n raises CapacityError.
    """
    return _count(t1, t2, with_y=True)[1]


def parametric_quartet_distance(t1: Phylogeny, t2: Phylogeny, p,
                                mode: str = "approx") -> ApproxDistance:
    """Parametric quartet distance with a certified interval, read from one
    pass over one I-table: the classification (s, d, r1, r2, u) and, in
    approx mode at p != 1/2, y of approx_r1_quartets.

    mode="exact": d^(p) = d + p(r1 + r2) for any p in [0, 1];
    mode="approx": the paper's sandwich value for p >= 1/2,
    x = R(T1) - |S| + p(U(T1) - U(T2)) + (2p - 1)y
      = d + (1 - p)·r1 + p·r2 + (2p - 1)·y,
    so that x/2 <= d^(p) <= x.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "approx" and p < Fraction(1, 2):
        raise ValueError(
            "the approximation guarantee only covers p >= 1/2; use mode='exact'")
    exact = mode == "exact" or p == Fraction(1, 2)
    c, y = _count(t1, t2, with_y=not exact)
    if mode == "exact":
        d = c.to_distance_pair().evaluate(p)
        return ApproxDistance(d, d, d, exact=True)
    x = c.d + (1 - p) * c.r1 + p * c.r2 + (2 * p - 1) * y
    return ApproxDistance(value=x, lower=x if exact else x / 2, upper=x, exact=exact)
