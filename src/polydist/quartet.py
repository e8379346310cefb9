"""Parametric quartet distance between unrooted trees: exact at p = 1/2,
2-approximate for p > 1/2, all in O(n^2) except the shared-quartet count.

The approximation returns x = R(T1) - |S| + p(U(T1) - U(T2)) + (2p-1)y,
where y over-counts |R1| by at most a factor of two (each resolved-in-T1-
only quartet is strictly induced by exactly two directed edges, and the
rooted sum hits one or both of them).  This sandwiches the true distance:
d^(p) <= x <= 2 d^(p) for p >= 1/2, with equality throughout at p = 1/2
where the y term vanishes.

|S| is counted by the brute-force classifier: the input scales this
package targets keep O(n^4) affordable, and the approximation's novel part
(the y sum) stays O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from polydist.oracle import classify_quartets
from polydist.trees import Kind, Phylogeny, TreeError
from polydist.triplet import RootedIntersectionTables, build_tables


@dataclass(frozen=True)
class ApproxDistance:
    """A computed value with a certified interval for the true distance."""

    value: Fraction
    lower: Fraction
    upper: Fraction
    exact: bool
    method: str

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError("invalid certificate interval")


def _reroot(tree: Phylogeny) -> Phylogeny:
    """Re-orient an unrooted tree from its lowest-id internal node."""
    internal = tree.internal_nodes()
    if not internal:
        return tree
    root = min(internal)
    if root == tree.root:
        return tree
    return Phylogeny.from_adjacency(tree.kind, tree.taxa, tree._adjacency(),
                                    tree.leaf_taxon, root)


def _side_sizes(tree: Phylogeny):
    """side(u, x) = number of leaves on x's side of edge {u, x}."""
    alpha = tree.subtree_sizes()
    n = tree.n

    def side(u: int, x: int) -> int:
        return alpha[x] if tree.parent[x] == u else n - alpha[u]

    return side


def count_R_U_quartets(tree: Phylogeny) -> tuple[int, int]:
    """Resolved/unresolved quartet counts of one unrooted tree, O(n).

    A resolved quartet ab|cd is strictly induced by exactly two directed
    edges (one at each end of its middle path), hence the half factor.
    """
    if tree.kind is not Kind.UNROOTED:
        raise TreeError("quartet counts apply to unrooted trees")
    n = tree.n
    if n < 4:
        return 0, 0
    side = _side_sizes(tree)
    twice_R = 0
    for u in tree.internal_nodes():
        nbrs = tree.neighbors(u)
        sizes = {x: side(u, x) for x in nbrs}
        for v in nbrs:
            p = n - sizes[v]
            split_pairs = comb(p, 2) - sum(comb(sizes[x], 2) for x in nbrs if x != v)
            twice_R += split_pairs * comb(n - p, 2)
    assert twice_R % 2 == 0
    R = twice_R // 2
    return R, comb(n, 4) - R


def count_shared_quartets(t1: Phylogeny, t2: Phylogeny) -> int:
    """|S|: quartets resolved identically in both trees, by the brute
    C(n,4) classification."""
    return classify_quartets(t1, t2).s


def approx_r1_quartets(t1: Phylogeny, t2: Phylogeny,
                       tables: RootedIntersectionTables | None = None) -> int:
    """y with |R1| <= y <= 2|R1|: the rooted directed-edge sum.

    T1 is rooted at its lowest-id internal node; for each non-root internal
    u the directed edge (u, pa(u)) has near side P = leaves under u and far
    side Q = the rest.  gamma(P, Q, w) counts quartets with two leaves in P,
    two in Q, all four in distinct components around the polytomy w; the
    four subtracted terms n1..n4 remove the other containment patterns by
    inclusion-exclusion over w's neighbors.
    """
    r1 = _reroot(t1)
    r2 = _reroot(t2)
    polytomies = [w for w in r2.internal_nodes() if r2.degree(w) > 3]
    if not polytomies:
        return 0
    if tables is None or tables.t1 is not r1 or tables.t2 is not r2:
        tables = build_tables(r1, r2)
    I = tables.I
    alpha1 = tables.alpha1
    n = r1.n

    # Per polytomy w: the neighbor list and, for a T1-node u, the vector of
    # |side(x_i, w) ∩ subtree1(u)| over neighbors x_i of w.
    poly_nbrs = {w: r2.neighbors(w) for w in polytomies}

    def side_inter(u: int, w: int) -> np.ndarray:
        out = []
        for x in poly_nbrs[w]:
            if r2.parent[x] == w:
                out.append(I[u, x])
            else:  # x is w's parent: side is the complement of subtree(w)
                out.append(alpha1[u] - I[u, w])
        return np.asarray(out, dtype=np.int64)

    def c2(v: np.ndarray) -> np.ndarray:
        return v * (v - 1) // 2

    side2 = _side_sizes(r2)
    side_sizes = {w: np.asarray([side2(w, x) for x in poly_nbrs[w]], dtype=np.int64)
                  for w in polytomies}

    def gamma_value(a: np.ndarray, b: np.ndarray, size_p: int, size_q: int) -> int:
        """gamma for sides P, Q at a polytomy: a[i] = |side(x_i) ∩ P|,
        b[i] = |side(x_i) ∩ Q|.  Q is the far side of the directed edge and
        is shared by the parent term and all child terms."""
        ar = size_p - a
        br = size_q - b
        c2a, c2b = c2(a), c2(b)
        n1 = int((c2a * c2b).sum())
        n2 = int((c2a * b * br).sum() + (c2b * a * ar).sum())
        alpha_acc = int(c2a.sum())
        beta_acc = int((a * b).sum())
        pair_sum = int(((beta_acc - a * b) * a * b).sum())
        assert pair_sum % 2 == 0
        n3 = int(((alpha_acc - c2a) * c2b).sum()) + pair_sum // 2
        n4 = int((c2a * c2(br)).sum() + (c2b * c2(ar)).sum()
                 + (a * b * ar * br).sum()) - 2 * n3
        return comb(size_p, 2) * comb(size_q, 2) - n1 - n2 - n3 - n4

    total = 0
    for u in r1.internal_nodes():
        if u == r1.root:
            continue
        size_q = n - int(alpha1[u])
        for w in polytomies:
            a_u = side_inter(u, w)
            b = side_sizes[w] - a_u
            val = gamma_value(a_u, b, int(alpha1[u]), size_q)
            for x in r1.children[u]:
                val -= gamma_value(side_inter(x, w), b, int(alpha1[x]), size_q)
            total += val
    return total


def parametric_quartet_distance(t1: Phylogeny, t2: Phylogeny, p,
                                mode: str = "approx") -> ApproxDistance:
    """Parametric quartet distance with a certified interval.

    mode="approx": the sandwich value (p >= 1/2 required); its |S| term
    is the brute C(n,4) classification, the rest is O(n^2);
    mode="brute": exact via full classification (any p in [0, 1]).
    """
    if t1.kind is not Kind.UNROOTED or t2.kind is not Kind.UNROOTED:
        raise TreeError("quartet distance applies to unrooted trees")
    if t1.taxa.labels != t2.taxa.labels:
        raise TreeError("trees are over different taxon sets")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")

    if mode == "brute":
        d = classify_quartets(t1, t2).to_distance_pair().evaluate(p)
        return ApproxDistance(d, d, d, exact=True, method="brute")
    if mode != "approx":
        raise ValueError(f"unknown mode {mode!r}")
    if p < Fraction(1, 2):
        raise ValueError(
            "the approximation guarantee only covers p >= 1/2; use mode='brute'")

    R1tree, U1tree = count_R_U_quartets(t1)
    _, U2tree = count_R_U_quartets(t2)
    S = count_shared_quartets(t1, t2)
    y = 0 if p == Fraction(1, 2) else approx_r1_quartets(t1, t2)
    x = Fraction(R1tree - S) + p * (U1tree - U2tree) + (2 * p - 1) * y
    exact = p == Fraction(1, 2)
    return ApproxDistance(value=x, lower=x if exact else x / 2, upper=x,
                          exact=exact, method="approx")
