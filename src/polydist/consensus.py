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

best_refinement is the one routine that chooses the next step from the
vote tallies; polydist.hausdorff's adversarial refinement runs it against
the one-tree profile (T2,) with score A - 2F in place of the distance change.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from polydist.quartet import parametric_quartet_distance
from polydist.trees import (
    UNRESOLVED,
    Kind,
    Phylogeny,
    TreeError,
    check_pair,
    pull_2_out,
    pull_out,
    topology_codes,
)
from polydist.triplet import parametric_triplet_distance


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
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
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


def _cross_rows(groups: list[list[int]], size: int) -> np.ndarray:
    """Every choice of `size` taxa from `size` distinct groups, one row each,
    in the order of `itertools.product` over `itertools.combinations` of
    the groups.  The group combinations are repeated by their product
    sizes, and each row's position within its combination is read in mixed
    radix (last group fastest) as offsets into the concatenated groups."""
    lengths = np.array([len(g) for g in groups], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    flat = np.array([t for g in groups for t in g], dtype=np.int64)
    combos = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(len(groups)), size)),
        dtype=np.int64).reshape(-1, size)
    counts = lengths[combos].prod(axis=1)
    which = np.repeat(combos, counts, axis=0)
    pos = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.empty((len(pos), size), dtype=np.int64)
    for i in reversed(range(size)):
        g = which[:, i]
        pos, digit = np.divmod(pos, lengths[g])
        rows[:, i] = flat[starts[g] + digit]
    return rows


def _votes(groups: list[list[int]], profile: Profile,
           rooted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f, a and nv per candidate at a polytomy with the given groups of
    taxa, over the triplets (rooted) or quartets with taxa in distinct groups.

    Each subset is a sorted row; `cand[row]` holds the candidates it votes
    on: the group of each taxon (rooted), or the group pair g*K + h of each
    taxon pair (0,1) (0,2) (0,3) (1,2) (1,3) (2,3) (unrooted, not yet
    symmetrised).  A resolved code c makes column c agree (the apart taxon;
    the pair {0, c+1}) and, unrooted, column 5 - c (the other side of the
    split); every other candidate of the row disagrees.
    """
    size, K = (3 if rooted else 4), len(groups)
    group = np.zeros(profile.taxa.n, dtype=np.int64)
    for g, taxa in enumerate(groups):
        group[taxa] = g
    rows = _cross_rows(groups, size)
    rows.sort(axis=1)
    cand = group[rows]
    if not rooted:
        cand = np.stack([cand[:, i] * K + cand[:, j]
                         for i, j in itertools.combinations(range(4), 2)], axis=1)
    width = K if rooted else K * K
    seen = profile.k * np.bincount(cand.ravel(), minlength=width)
    f = np.zeros(width, dtype=np.int64)
    nv = np.zeros(width, dtype=np.int64)
    for member in profile.trees:
        codes = topology_codes(member, rows)
        unresolved = codes == UNRESOLVED
        nv += np.bincount(cand[unresolved].ravel(), minlength=width)
        voters, codes = cand[~unresolved], codes[~unresolved]
        at = np.arange(len(codes))
        f += np.bincount(voters[at, codes], minlength=width)
        if not rooted:
            f += np.bincount(voters[at, 5 - codes], minlength=width)
    return f, seen - f - nv, nv


def rooted_vote_tally(tree: Phylogeny, v: int, profile: Profile) -> dict[int, VoteTally]:
    """Votes per child q of polytomy v, over triplets with leaves in three
    distinct child groups, one of them the q group."""
    children = tree.children[v]
    order, lo, hi = tree.leaf_ranges()
    f, a, nv = _votes([order[lo[c]:hi[c]].tolist() for c in children], profile, rooted=True)
    return {q: VoteTally(int(f[g]), int(a[g]), int(nv[g])) for g, q in enumerate(children)}


def unrooted_vote_tally(tree: Phylogeny, w: int, profile: Profile) -> dict[frozenset, VoteTally]:
    """Votes per unordered neighbor pair {q, r} of polytomy w, over quartets
    with leaves in four distinct neighbor groups, two of them q and r."""
    nbrs = tree.neighbors(w)
    order, lo, hi = tree.leaf_ranges()
    groups = [order[lo[x]:hi[x]].tolist() if tree.parent[x] == w
              else order[:lo[w]].tolist() + order[hi[w]:].tolist() for x in nbrs]
    K = len(nbrs)
    f, a, nv = (x.reshape(K, K) + x.reshape(K, K).T
                for x in _votes(groups, profile, rooted=False))
    return {frozenset((nbrs[g], nbrs[h])): VoteTally(int(f[g, h]), int(a[g, h]), int(nv[g, h]))
            for g, h in itertools.combinations(range(K), 2)}


@dataclass(frozen=True)
class GreedyResult:
    tree: Phylogeny
    initial_distance: Fraction
    final_distance: Fraction
    guaranteed: bool  # non-increase certified (p >= 2/3, fully resolved profile)
    steps: int


def best_refinement(tree: Phylogeny, profile: Profile,
                    cost: Callable[[VoteTally], Fraction | None]
                    ) -> tuple[VoteTally, Phylogeny] | None:
    """The cheapest refinement step of `tree` against `profile`.

    Every candidate at every polytomy (a child to Pull-Out for rooted
    trees, a neighbor pair to Pull-2-Out for unrooted ones) is scored by
    `cost(tally)` on its VoteTally; a cost of None drops the candidate.
    Returns (tally, refined tree) for the cheapest candidate, ties going to
    the smallest (node, sorted candidate), or None if no candidate is left;
    the step changes only the subsets its tally counts, by exactly the tally.
    """
    rooted = tree.kind is Kind.ROOTED
    tally_at = rooted_vote_tally if rooted else unrooted_vote_tally
    best = None
    for v in tree.unresolved_nodes():
        for candidate, votes in tally_at(tree, v, profile).items():
            c = cost(votes)
            if c is None:
                continue
            key = (c, v, (candidate,) if rooted else tuple(sorted(candidate)))
            if best is None or key < best[0]:
                best = key, votes
    if best is None:
        return None
    (_, _, nodes), votes = best
    return votes, (pull_out if rooted else pull_2_out)(tree, *nodes)


def greedy_refine_median(tree: Phylogeny, profile: Profile, p) -> GreedyResult:
    """Refine `tree` to full resolution, greedily minimizing the exact
    distance change at each step (tie: lexicographically smallest candidate);
    the final distance is the initial one plus each applied tally's delta(p)."""
    p = Fraction(p)
    initial = final = profile_distance(tree, profile, p)
    current = tree
    steps = 0
    while (step := best_refinement(current, profile, lambda votes: votes.delta(p))) is not None:
        votes, current = step
        final += votes.delta(p)
        steps += 1
    guaranteed = p >= Fraction(2, 3) and all(m.is_fully_resolved() for m in profile.trees)
    return GreedyResult(current, initial, final, guaranteed, steps)
