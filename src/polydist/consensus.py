"""Median consensus: profile distances, best-of-profile, greedy refinement.

The median of a profile under d^(p) is only computable exhaustively at toy
sizes, but two approximations have guarantees in the metric range:

* best_of_profile: the best profile member is a 2-approximate median for
  p in [1/2, 1] (triangle inequality argument).
* greedy_refine_median: repeatedly applies the refinement operation whose
  exact distance-change is best (Pull-Out for rooted trees, Pull-2-Out for
  unrooted).  For p >= 2/3 and a fully resolved profile, a non-worsening
  candidate always exists (votes split 1 agreeing : 2 disagreeing), so a
  fully resolved tree is reached without increasing the profile distance.

refinements is the one loop that chooses each step from the vote tallies;
polydist.hausdorff's adversarial refinement runs it against the one-tree
profile (T2,) with score 2F - A in place of the distance change.  A step
splits one polytomy v, so the loop counts each polytomy's tallies once
and keeps them for the run, keyed by the node and its candidate nodes.
A count sums closed forms of each member's group histograms over its
nodes, as the distance kernels sum over node pairs (`_vote_counts`), and
builds no LCA table, and refuses profiles past its int64 bound
(`_check_vote_bound`).  Scores are Python ints: with p = P/Q the greedy
compares Q times the exact distance change, with no Fraction per
candidate."""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from polydist.oracle import CapacityError, check_p
from polydist.quartet import parametric_quartet_distance
from polydist.trees import Kind, Phylogeny, TreeError, check_pair, pull_2_out, pull_out
from polydist.triplet import parametric_triplet_distance, parts


@dataclass(frozen=True)
class Profile:
    """A non-empty sequence of phylogenies over one taxon set, one kind."""

    trees: tuple[Phylogeny, ...]

    def __post_init__(self):
        if not self.trees:
            raise TreeError("empty profile")
        for t in self.trees[1:]:
            check_pair(self.trees[0], t)

    @property
    def k(self) -> int:
        return len(self.trees)

    @property
    def taxa(self):
        return self.trees[0].taxa

    @cached_property
    def _sides(self) -> tuple:
        """(first, sides): per child count, every member's `node_sides`
        (rows, sizes), node x of member i renumbered first[i] + x."""
        first = np.cumsum([0] + [t.num_nodes for t in self.trees]).tolist()
        by_count: dict[int, list] = {}
        for tree, base in zip(self.trees, first):
            for rows, sizes in tree.node_sides():
                by_count.setdefault(len(rows), []).append((rows + base, sizes))
        return first, [tuple(np.concatenate(x, axis=1) for x in zip(*by_count[d]))
                       for d in sorted(by_count)]


def _member_distance(tree: Phylogeny, member: Phylogeny, p: Fraction) -> Fraction:
    if tree.kind is Kind.ROOTED:
        return parametric_triplet_distance(tree, member).evaluate(p)
    return parametric_quartet_distance(tree, member, p, mode="exact").value


def profile_distance(tree: Phylogeny, profile: Profile, p) -> Fraction:
    """Sum of exact d^(p)(tree, member) over the profile."""
    p = Fraction(p)
    check_pair(tree, profile.trees[0])
    return sum((_member_distance(tree, m, p) for m in profile.trees), Fraction(0))


@dataclass(frozen=True)
class BestOfProfile:
    tree: Phylogeny
    index: int
    total: Fraction
    certificate: str | None  # "2-approx" within the metric range, else None


def best_of_profile(profile: Profile, p) -> BestOfProfile:
    """The profile member closest to the whole profile (tie: lowest index).

    d^(p) is symmetric and zero on the diagonal, so each of the k(k-1)/2
    member pairs is computed once and added to both members' totals.
    """
    p = check_p(p)
    trees = profile.trees
    totals = [Fraction(0)] * profile.k
    for i, j in itertools.combinations(range(profile.k), 2):
        d = _member_distance(trees[i], trees[j], p)
        totals[i] += d
        totals[j] += d
    best_i = min(range(profile.k), key=totals.__getitem__)
    cert = "2-approx" if Fraction(1, 2) <= p <= 1 else None
    return BestOfProfile(trees[best_i], best_i, totals[best_i], cert)


# ---------------------------------------------------------------------------
# Vote tallies and the greedy refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VoteTally:
    """Votes at one polytomy for one candidate refinement.

    f: members resolving an associated triplet/quartet compatibly with the
    candidate; a: incompatibly; nv: members leaving it unresolved.
    """

    f: int
    a: int
    nv: int

    def delta(self, p: Fraction) -> Fraction:
        """Exact change of the profile distance if the candidate is applied."""
        return -p * self.f + (1 - p) * self.a + p * self.nv


def _dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """UᵀV for int64 U and V of equal rows, exactly: in float64 over runs of
    rows whose sums of |U[r, i]·V[r, j]| stay below 2^53, or in int64
    (exact modulo 2^64, slow) if one product may reach 2^53."""
    bound = max(int(U.max()), -int(U.min())) * max(int(V.max()), -int(V.min()))
    step = ((1 << 53) - 1) // max(bound, 1)
    if not step:
        return U.T @ V
    return sum((U[r:r + step].T.astype(float) @ V[r:r + step].astype(float)).astype(np.int64)
               for r in range(0, len(U), step))


def _rooted_votes(H: np.ndarray, s: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """f and a per group, summed over member nodes with children rows[:-1].

    A resolved triplet xy|z counts at w = lca(x, y).  With C[j, q] the taxa
    of w's child j in group q, Q its column sums, O = s - Q, P the pairs in
    distinct rows and columns of C and X[q] those with one in column q,
    f[q] = O[q]·(P - X[q]) (`_block_counts`' R1 summand) and a[q] = Σ_{r≠q}
    (pairs split between columns q and r)·(ΣO - O[q] - O[r]) = (ΣO - O[q])·
    X[q] - Q[q]·(Q·O) + Σ_j C[j, q]·(C O)[j] + O[q]·(Q[q]² - Σ_j C[j, q]²)."""
    C = H[rows[:-1]].astype(np.int64)
    Q, R = C.sum(0), np.einsum("jck->jc", C)
    O, T = s - Q, R.sum(0)
    squares = np.einsum("jck,jck->ck", C, C)
    QQ = np.einsum("ck,ck->c", Q, Q)
    X = Q * (T[:, None] - Q) - np.einsum("jc,jck->ck", R, C) + squares
    P = (T * T - (R * R).sum(0) - QQ + np.einsum("ck->c", squares)) // 2
    a = (((s.sum() - T)[:, None] - O) * X - Q * np.einsum("ck,ck->c", Q, O)[:, None]
         + np.einsum("jc,jck->ck", np.einsum("jck,ck->jc", C, O), C) + O * (Q * Q - squares))
    return ((P[:, None] - X) * O).sum(0), a.sum(0)


def _unrooted_votes(H: np.ndarray, s: np.ndarray, rows: np.ndarray,
                    sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """f and a per ordered group pair (g, h), summed over member nodes with
    sides `rows` (children, then the subtree's complement) of `sizes` taxa.

    A resolved quartet counts at one of its two anchors, where two of its
    taxa lie in distinct sides and two together in a third, l.  With M[l, k]
    side l's taxa in group k (column sums s), R[l] its size, G = MᵀM, m =
    M[l, g] and μ = M[l, h], f puts g and h apart: Σ_l D·S, D = E[l] - m(R -
    m) - μ(R - μ) + mμ the pairs of two other groups in side l (E[l] of any
    two) and S = (s_g - m)(s_h - μ) - G[g, h] + mμ.  a puts g apart from a
    group r and h together with a group t ≠ r: Σ_l μ·(the pairs g, r in two
    other sides).  Expanded, both are products UᵀV over the sides (`_dot`)
    with the h-vectors M, M∘s, M², M²∘s and M³, plus G[g, h]·x[h] = Σ_l M[l]
    ⊗ (M[l]∘x) and -G∘G per node; a's (G G)[g, h] enters as (G M[l])[g]."""
    K, c, n = len(s), rows.shape[1], int(s.sum())
    M = H[rows].astype(np.int64)
    M[-1] = s - M[-1]
    R = sizes[..., None]
    rho, d = np.einsum("lc,lck->ck", sizes, M), np.einsum("lck,lck->ck", M, M)
    A, E = rho - d, ((R * R).sum(0) - d.sum(1, keepdims=True)) // 2
    # G <= s_g·s_h and G M <= n^3 sum non-negative integers: exact in float64
    Mf = M.astype(float)
    G = np.matmul(Mf.transpose(1, 2, 0), Mf.transpose(1, 0, 2))
    f = -np.square(G.astype(np.int64)).sum(0)
    a = f.copy()
    for part in parts(len(M), 5 * c * K):
        m, r = M[part], R[part]
        mm = m * m
        q = mm.sum(2, keepdims=True)
        GM = np.matmul(Mf[part].transpose(1, 0, 2), G).transpose(1, 0, 2).astype(np.int64)
        c0, r0, e = s - m, r - m, 2 * m - s
        d0 = (r * r - q) // 2 - m * r0
        b0 = c0 * (n - s - r0) - rho + d + m * r0
        f += np.outer((d0 * c0).sum((0, 1)), s)
        Z = _dot(np.concatenate([
            d0 * e - (E - A) * m, r0 * b0 + GM - m * d - m * (q - mm)
            - c0 * ((m * s).sum(2, keepdims=True) - m * s - q + mm),
            -r0 * c0, m * A, m * (A - d)], axis=2).reshape(-1, 5 * K), m.reshape(-1, K))
        f += Z[:K] + Z[2 * K:3 * K] * s + Z[3 * K:4 * K].T
        a += Z[K:2 * K] + Z[2 * K:3 * K] * s + Z[4 * K:].T
        Z = _dot(np.concatenate([-r0 * e, -r0 * e - b0, c0], axis=2).reshape(-1, 3 * K),
                 mm.reshape(-1, K))
        f += Z[:K] + Z[2 * K:] * s
        a += Z[K:2 * K] + 2 * Z[2 * K:] * s
        Z = _dot(e.reshape(-1, K), (mm * m).reshape(-1, K))
        f += Z
        a += 2 * Z
    return f, a


def _check_vote_bound(k: int, n: int, rooted: bool) -> None:
    """CapacityError unless k·C(n, 3) rooted or k·C(n, 4) unrooted, the
    bound of k members' vote counts on n taxa, is below 2^63."""
    size = 3 if rooted else 4
    if k * comb(n, size) >= 1 << 63:
        raise CapacityError(f"vote tallies need k·C(n, {size}) < 2^63, got k = {k}, n = {n}")


def _vote_counts(group: np.ndarray, K: int, profile: Profile,
                 rooted: bool) -> tuple[np.ndarray, ...]:
    """f, a and nv at a polytomy whose K groups `group` maps each taxon to
    (-1 for none), per group (rooted) or ordered group pair (unrooted).

    Each member's group histograms H[x, q] = |L(x) ∩ G_q| come from prefix
    counts over its leaf order, as `build_tables` fills I; chunks of member
    nodes add their closed forms, and nv = k·seen - f - a.  O(k·n·K)
    rooted, O(k·n·K²) unrooted.  Besides the prefix counts, the histograms
    and K × K arrays, an array holds at most BLOCK_CELLS cells or one node's
    sides.  f, a and nv are at most k·C(n, 3) rooted and k·C(n, 4)
    unrooted, exact while that is below 2^63, which is checked first and
    also keeps `_unrooted_votes`' n³ below 2^53: int64 arithmetic is exact
    modulo 2^64, each division is of a pair count below n², `_dot` exact."""
    _check_vote_bound(profile.k, profile.taxa.n, rooted)
    first, sides = profile._sides
    H = np.empty((first[-1], K), dtype=np.int32)
    F = np.zeros((profile.taxa.n + 1, K), dtype=np.int32)
    for i, member in enumerate(profile.trees):
        order, lo, hi = member.leaf_ranges()
        np.cumsum(group[order, None] == np.arange(K), axis=0, dtype=np.int32, out=F[1:])
        np.subtract(F[hi], F[lo], out=H[first[i]:first[i + 1]])
    s = np.bincount(group[group >= 0], minlength=K)
    f = a = 0
    for rows, sizes in sides:
        width = (len(rows) - 1) * K if rooted else max(5 * len(rows) * K, K * K)
        for nodes in parts(rows.shape[1], width):
            df, da = (_rooted_votes(H, s, rows[:, nodes]) if rooted
                      else _unrooted_votes(H, s, rows[:, nodes], sizes[:, nodes]))
            f, a = f + df, a + da
    # seen: a taxon of q (of g and of h) times the pairs of two other groups
    named, own, ss = (s, s, s * s) if rooted else (s[:, None] * s, s[:, None] + s,
                                                    (s * s)[:, None] + s * s)
    seen = named * (((s.sum() - own) ** 2 - (s * s).sum() + ss) // 2)
    return f, a, profile.k * seen - f - a


def _candidates(tree: Phylogeny, v: int) -> tuple[int, ...]:
    """The nodes whose groups meet at polytomy v: children, or neighbors unrooted."""
    return tree.children[v] if tree.kind is Kind.ROOTED else tree.neighbors(v)


def _groups(tree: Phylogeny, v: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The candidates at polytomy v and each taxon's group, its candidate's
    index; outside v's subtree the parent's (last, unrooted) or -1 (rooted)."""
    nodes = _candidates(tree, v)
    order, lo, hi = tree.leaf_ranges()
    group = np.full(tree.n, -1 if tree.kind is Kind.ROOTED else len(nodes) - 1)
    for g, x in enumerate(tree.children[v]):
        group[order[lo[x]:hi[x]]] = g
    return nodes, group


def rooted_vote_tally(tree: Phylogeny, v: int, profile: Profile) -> dict[int, VoteTally]:
    """Votes per child q of polytomy v, over triplets with leaves in three
    distinct child groups, one of them the q group."""
    check_pair(tree, profile.trees[0], Kind.ROOTED)
    children, group = _groups(tree, v)
    f, a, nv = (x.tolist() for x in _vote_counts(group, len(children), profile, rooted=True))
    return {q: VoteTally(f[g], a[g], nv[g]) for g, q in enumerate(children)}


def unrooted_vote_tally(tree: Phylogeny, w: int, profile: Profile) -> dict[frozenset, VoteTally]:
    """Votes per unordered neighbor pair {q, r} of polytomy w, over quartets
    with leaves in four distinct neighbor groups, two of them q and r."""
    check_pair(tree, profile.trees[0], Kind.UNROOTED)
    nbrs, group = _groups(tree, w)
    f, a, nv = (x.tolist() for x in _vote_counts(group, len(nbrs), profile, rooted=False))
    return {frozenset((nbrs[g], nbrs[h])): VoteTally(f[g][h], a[g][h], nv[g][h])
            for g, h in itertools.combinations(range(len(nbrs)), 2)}


def _tallies(tree: Phylogeny, v: int, profile: Profile, cache: dict) -> dict:
    """The tallies at polytomy v: cached under (v, candidate nodes), else
    counted fresh.  Node ids survive every split, and a split leaves every
    other node's groups unchanged, so an equal key means equal tallies."""
    key = v, _candidates(tree, v)
    if key not in cache:
        tally_at = rooted_vote_tally if tree.kind is Kind.ROOTED else unrooted_vote_tally
        cache[key] = tally_at(tree, v, profile)
    return cache[key]


@dataclass(frozen=True)
class GreedyResult:
    tree: Phylogeny
    initial_distance: Fraction
    final_distance: Fraction
    guaranteed: bool  # non-increase certified (p >= 2/3, fully resolved profile)
    steps: int


def refinements(tree: Phylogeny, profile: Profile,
                score: Callable[[VoteTally], int | None]
                ) -> Iterator[tuple[VoteTally, Phylogeny]]:
    """Refine `tree` against `profile` one cheapest step at a time.

    Every candidate at every polytomy (a child to Pull-Out for rooted
    trees, a neighbor pair to Pull-2-Out for unrooted ones) is scored by
    `score(tally)` on its VoteTally; a score of None drops the candidate.
    Each step applies the candidate with the smallest score, ties going to
    the smallest (node, sorted candidate), and yields (tally, refined
    tree); the step changes only the subsets its tally counts, by exactly
    the tally.  The steps end when no candidate is left.

    A polytomy's tallies are counted once and cached for the run under
    (node, candidate nodes); a step's new node is counted on the next pass.
    A Pull-2-Out at v leaves each other neighbor x of the new node m with
    the same groups, m's in place of v's, so x's tallies move to its new
    key with m for v instead of being counted again.
    """
    check_pair(tree, profile.trees[0])
    rooted = tree.kind is Kind.ROOTED
    cache: dict = {}
    while True:
        best = None
        for v in tree.unresolved_nodes():
            for candidate, votes in _tallies(tree, v, profile, cache).items():
                s = score(votes)
                if s is None:
                    continue
                key = (s, v, (candidate,) if rooted else tuple(sorted(candidate)))
                if best is None or key < best[0]:
                    best = key, votes
        if best is None:
            return
        (_, v, nodes), votes = best
        del cache[v, _candidates(tree, v)]
        if rooted:
            tree = pull_out(tree, *nodes)
        else:
            moved = [(x, _candidates(tree, x)) for x in tree.neighbors(v) if x not in nodes]
            tree = pull_2_out(tree, *nodes)
            m = tree.num_nodes - 1
            for x, old in moved:
                if (x, old) in cache:
                    cache[x, _candidates(tree, x)] = {
                        frozenset(m if y == v else y for y in pair): tally
                        for pair, tally in cache.pop((x, old)).items()}
        yield votes, tree


def greedy_refine_median(tree: Phylogeny, profile: Profile, p) -> GreedyResult:
    """Refine `tree` to full resolution, greedily minimizing the exact
    distance change at each step (tie: lexicographically smallest candidate);
    the final distance is the initial one plus each applied tally's delta(p).

    With p = P/Q the steps compare Q·delta = −P·f + (Q − P)·a + P·nv in
    Python ints, which do not overflow for any denominator."""
    p = Fraction(p)
    initial = final = profile_distance(tree, profile, p)
    P, Q = p.numerator, p.denominator
    current, steps = tree, 0
    for votes, current in refinements(tree, profile,
                                      lambda t: P * (t.nv - t.f) + (Q - P) * t.a):
        final += votes.delta(p)
        steps += 1
    guaranteed = p >= Fraction(2, 3) and all(m.is_fully_resolved() for m in profile.trees)
    return GreedyResult(current, initial, final, guaranteed, steps)
