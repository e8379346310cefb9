"""Exact parametric triplet distance between rooted trees in O(n^2).

The distance d^(p) = |D| + p(|R1| + |R2|) is assembled from three counted
quantities instead of classifying triplets one by one:

    |D|          = R(T1) - |S| - |R1|
    |R1| + |R2|  = U(T1) - U(T2) + 2|R1|

where R(T)/U(T) are the per-tree resolved/unresolved triplet counts, |S|
is the number of identically resolved triplets, and |R1| the number
resolved only in T1.  |S| and |R1| reduce to sums over node pairs of
closed-form expressions in the leaf-set intersection sizes
I[u, v] = |L(T1(u)) ∩ L(T2(v))|, all computed with integer numpy kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from polydist.oracle import DistancePair
from polydist.trees import Kind, Phylogeny, TreeError


@dataclass(frozen=True)
class RootedIntersectionTables:
    """Pairwise leaf-set intersection sizes and per-tree size vectors.

    I[u, v] = |L(T1(u)) ∩ L(T2(v))|.  The other three quadrant counts
    follow from complement identities and are exposed as methods to avoid
    materializing three more n^2 tables.
    """

    t1: Phylogeny
    t2: Phylogeny
    I: np.ndarray          # (m1, m2) int64
    alpha1: np.ndarray     # (m1,) subtree leaf counts of T1
    alpha2: np.ndarray     # (m2,) subtree leaf counts of T2

    @property
    def n(self) -> int:
        return self.t1.n

    def inter_comp(self) -> np.ndarray:
        """|L(T1(u)) ∩ complement(L(T2(v)))|"""
        return self.alpha1[:, None] - self.I

    def comp_inter(self) -> np.ndarray:
        """|complement(L(T1(u))) ∩ L(T2(v))|"""
        return self.alpha2[None, :] - self.I

    def comp_comp(self) -> np.ndarray:
        """|complement(L(T1(u))) ∩ complement(L(T2(v)))|"""
        return self.n - self.alpha1[:, None] - self.alpha2[None, :] + self.I


def build_tables(t1: Phylogeny, t2: Phylogeny) -> RootedIntersectionTables:
    """All pairwise intersection sizes in O(n^2): leaf rows are ancestor
    indicators over T2, internal rows are child-row sums over T1."""
    if t1.taxa.labels != t2.taxa.labels:
        raise TreeError("trees are over different taxon sets")
    n = t1.n
    m1, m2 = t1.num_nodes, t2.num_nodes
    # leaf_rows[t] = indicator over T2 nodes that contain taxon t
    leaf_rows = np.zeros((n, m2), dtype=np.int64)
    for t in range(n):
        v = t2.leaf_of_taxon(t)
        while v != -1:
            leaf_rows[t, v] = 1
            v = t2.parent[v]
    I = np.zeros((m1, m2), dtype=np.int64)
    for u in t1.postorder():
        tt = t1.leaf_taxon[u]
        if tt is not None:
            I[u] = leaf_rows[tt]
        else:
            for c in t1.children[u]:
                I[u] += I[c]
    alpha1 = np.asarray(t1.subtree_sizes(), dtype=np.int64)
    alpha2 = np.asarray(t2.subtree_sizes(), dtype=np.int64)
    return RootedIntersectionTables(t1, t2, I, alpha1, alpha2)


def count_R_U(tree: Phylogeny) -> tuple[int, int]:
    """Resolved/unresolved triplet counts of one rooted tree, O(n).

    A resolved triplet xy|z is strictly induced at v = lca(x, y): the pair
    must split across distinct children of v and z must lie outside v.
    """
    alpha = tree.subtree_sizes()
    n = tree.n
    R = 0
    for v in tree.internal_nodes():
        if v == tree.root:
            continue
        beta = n - alpha[v]
        split_pairs = comb(alpha[v], 2) - sum(comb(alpha[x], 2) for x in tree.children[v])
        R += split_pairs * beta
    return R, comb(n, 3) - R


def _childsum_rows(tree: Phylogeny, M: np.ndarray) -> np.ndarray:
    """out[v] = sum of M[c] over children c of v (rows indexed by tree nodes)."""
    out = np.zeros_like(M)
    parent = np.asarray(tree.parent)
    nonroot = parent >= 0
    np.add.at(out, parent[nonroot], M[nonroot])
    return out


def _childsum_cols(tree: Phylogeny, M: np.ndarray) -> np.ndarray:
    """out[:, v] = sum of M[:, c] over children c of v."""
    return _childsum_rows(tree, M.T).T


def _internal_nonroot_mask(tree: Phylogeny) -> np.ndarray:
    mask = np.zeros(tree.num_nodes, dtype=bool)
    for v in tree.internal_nodes():
        mask[v] = True
    mask[tree.root] = False
    return mask


def count_shared(tables: RootedIntersectionTables) -> int:
    """|S|: triplets resolved identically in both trees.

    s(u, v) = (pairs splitting jointly at u and v) * |outside both|, via
    inclusion-exclusion over children of u and of v.
    """
    t1, t2, I = tables.t1, tables.t2, tables.I
    C2 = I * (I - 1) // 2
    A2 = _childsum_rows(t1, C2)        # pairs inside one child of u
    B2 = _childsum_cols(t2, C2)        # pairs inside one child of v
    D2 = _childsum_rows(t1, B2)        # pairs inside a child of u and of v
    K = tables.comp_comp()
    S = (C2 - A2 - B2 + D2) * K
    rows = _internal_nonroot_mask(t1)
    cols = _internal_nonroot_mask(t2)
    return int(S[np.ix_(rows, cols)].sum())


def count_r1(tables: RootedIntersectionTables) -> int:
    """|R1|: triplets resolved in T1 but unresolved in T2.

    Such a triplet xy|z sits at u = lca_T1(x, y) and at a polytomy v of T2
    holding x, y, z in three distinct child subtrees.  For fixed u the
    contribution over all v is a vector expression in I-rows of u and its
    children; summing over u costs O(n^2) because child rows are shared.
    """
    t1, t2, I = tables.t1, tables.t2, tables.I
    alpha2 = tables.alpha2

    unresolved2 = np.zeros(t2.num_nodes, dtype=bool)
    for v in t2.unresolved_nodes():
        unresolved2[v] = True
    if not unresolved2.any():
        return 0

    cs = lambda vec: _childsum_rows(t2, vec)  # noqa: E731

    def term(uk: int, e: np.ndarray) -> np.ndarray:
        Ik = I[uk]
        c2 = Ik * (Ik - 1) // 2
        # pairs under uk inside v, z under v outside u, all in distinct
        # children of v: inclusion-exclusion over children of v
        return c2 * e - e * cs(c2) - Ik * cs(Ik * e) + cs(Ik * Ik * e)

    total = 0
    for u in t1.internal_nodes():
        if u == t1.root:
            continue
        e = alpha2 - I[u]
        row = term(u, e)
        for x in t1.children[u]:
            row -= term(x, e)
        total += int(row[unresolved2].sum())
    return total


def parametric_triplet_distance(t1: Phylogeny, t2: Phylogeny) -> DistancePair:
    """Exact parametric triplet distance as a DistancePair, O(n^2)."""
    if t1.kind is not Kind.ROOTED or t2.kind is not Kind.ROOTED:
        raise TreeError("triplet distance applies to rooted trees")
    if t1.n < 3:
        return DistancePair(0, 0)
    tables = build_tables(t1, t2)
    R1tree, U1tree = count_R_U(t1)
    _, U2tree = count_R_U(t2)
    S = count_shared(tables)
    r1 = count_r1(tables)
    d_count = R1tree - S - r1
    r_count = U1tree - U2tree + 2 * r1
    return DistancePair(d_count, r_count)
