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
The new node's tallies are v's minus the votes of the subsets that hold
every kept group, which are the only subsets the new node loses: for a
fan that counts C(K-1, 2) triplets per step instead of C(K, 3).  Scores
are Python ints: with p = P/Q the greedy compares Q times the exact
distance change, with no Fraction per candidate."""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
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


# The most cross-group rows a polytomy's tally builds and codes at once.
VOTE_ROWS = 1 << 16


def _cross_rows(groups: list[list[int]], size: int, must: tuple[int, ...] = (),
                chunk: int = VOTE_ROWS) -> Iterator[np.ndarray]:
    """Every choice of `size` taxa from `size` distinct groups, among them
    every group in `must`, one row each, in chunks of at most `chunk` rows,
    in the order of `itertools.product` over the `itertools.combinations`
    of the groups that hold `must`.  Those are `must` merged into each
    combination of the other groups, which keeps their order.  The
    combinations are taken `chunk` at a time, since each has a row, and
    their rows numbered: a chunk is a range of row numbers, whose first and
    last combinations `searchsorted` finds in the cumulative product sizes.
    Each combination in between is repeated by its rows in the chunk, and
    each row's position within its combination is read in mixed radix
    (last group fastest) as offsets into the concatenated groups."""
    lengths = np.array([len(g) for g in groups], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    flat = np.array([t for g in groups for t in g], dtype=np.int64)
    rest = [g for g in range(len(groups)) if g not in must]
    free = size - len(must)
    combinations = itertools.combinations(rest, free)
    while True:
        combos = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(combinations, chunk)), dtype=np.int64).reshape(-1, free)
        if not len(combos):
            return
        combos = np.sort(np.hstack([np.full((len(combos), len(must)), must, dtype=np.int64),
                                    combos]), axis=1)
        counts = lengths[combos].prod(axis=1)
        ends = np.cumsum(counts)
        total = int(ends[-1])
        for first in range(0, total, chunk):
            last = min(first + chunk, total)
            c0, c1 = np.searchsorted(ends, [first, last - 1], side="right")
            begins = ends[c0:c1 + 1] - counts[c0:c1 + 1]
            here = np.minimum(ends[c0:c1 + 1], last) - np.maximum(begins, first)
            which = np.repeat(combos[c0:c1 + 1], here, axis=0)
            pos = np.arange(first, last) - np.repeat(begins, here)
            rows = np.empty((len(pos), size), dtype=np.int64)
            for i in reversed(range(size)):
                g = which[:, i]
                pos, digit = np.divmod(pos, lengths[g])
                rows[:, i] = flat[starts[g] + digit]
            # hold only the rows while the caller codes them, and the batch
            # only if more of its chunks follow
            del begins, here, which, pos, digit, g
            if last == total:
                del combos, counts, ends
            yield rows


def _votes(groups: list[list[int]], profile: Profile, rooted: bool,
           must: tuple[int, ...] = ()) -> list[list]:
    """f, a and nv per candidate at a polytomy with the given groups of
    taxa, over the triplets (rooted) or quartets with taxa in distinct
    groups, among them every group in `must`: lists of K ints (rooted) or
    symmetric K x K nested lists, one cell per group pair (unrooted).

    Each subset is a sorted row; `cand[row]` holds the candidates it votes
    on: the group of each taxon (rooted), or the group pair g*K + h of each
    taxon pair (0,1) (0,2) (0,3) (1,2) (1,3) (2,3) (unrooted, symmetrised
    at the end).  A resolved code c makes column c agree (the apart taxon;
    the pair {0, c+1}) and, unrooted, column 5 - c (the other side of the
    split); every other candidate of the row disagrees.  The rows are
    built, coded and counted one `_cross_rows` chunk at a time, so memory
    is bounded by VOTE_ROWS rows whatever the polytomy's size.

    Each int64 f, a and nv is at most k·C(n, 3) rooted or k·C(n, 4) unrooted
    (k members), so exact while that is below 2^63; coding that many rows
    would take far longer than any run.
    """
    size, K = (3 if rooted else 4), len(groups)
    group = np.zeros(profile.taxa.n, dtype=np.int64)
    for g, taxa in enumerate(groups):
        group[taxa] = g
    width = K if rooted else K * K
    seen = np.zeros(width, dtype=np.int64)
    f = np.zeros(width, dtype=np.int64)
    nv = np.zeros(width, dtype=np.int64)
    for rows in _cross_rows(groups, size, must):
        rows.sort(axis=1)
        cand = group[rows]
        if not rooted:
            cand = np.stack([cand[:, i] * K + cand[:, j]
                             for i, j in itertools.combinations(range(4), 2)], axis=1)
        seen += np.bincount(cand.ravel(), minlength=width)
        for member in profile.trees:
            codes = topology_codes(member, rows)
            unresolved = codes == UNRESOLVED
            nv += np.bincount(cand[unresolved].ravel(), minlength=width)
            voters, codes = cand[~unresolved], codes[~unresolved]
            at = np.arange(len(codes))
            f += np.bincount(voters[at, codes], minlength=width)
            if not rooted:
                f += np.bincount(voters[at, 5 - codes], minlength=width)
    tallies = (f, profile.k * seen - f - nv, nv)
    if not rooted:
        tallies = (x.reshape(K, K) + x.reshape(K, K).T for x in tallies)
    return [x.tolist() for x in tallies]


def _candidates(tree: Phylogeny, v: int) -> tuple[int, ...]:
    """The nodes whose groups meet at polytomy v: its children (rooted) or
    its neighbors (unrooted)."""
    return tree.children[v] if tree.kind is Kind.ROOTED else tree.neighbors(v)


def _groups(tree: Phylogeny, v: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """The candidate nodes at polytomy v and the taxa of each one's group,
    the parent's group (unrooted) being every taxon outside v's subtree."""
    nodes = _candidates(tree, v)
    order, lo, hi = tree.leaf_ranges()
    return nodes, [order[lo[x]:hi[x]].tolist() if tree.parent[x] == v
                   else order[:lo[v]].tolist() + order[hi[v]:].tolist() for x in nodes]


def rooted_vote_tally(tree: Phylogeny, v: int, profile: Profile) -> dict[int, VoteTally]:
    """Votes per child q of polytomy v, over triplets with leaves in three
    distinct child groups, one of them the q group."""
    check_pair(tree, profile.trees[0], Kind.ROOTED)
    children, groups = _groups(tree, v)
    f, a, nv = _votes(groups, profile, rooted=True)
    return {q: VoteTally(f[g], a[g], nv[g]) for g, q in enumerate(children)}


def unrooted_vote_tally(tree: Phylogeny, w: int, profile: Profile) -> dict[frozenset, VoteTally]:
    """Votes per unordered neighbor pair {q, r} of polytomy w, over quartets
    with leaves in four distinct neighbor groups, two of them q and r."""
    check_pair(tree, profile.trees[0], Kind.UNROOTED)
    nbrs, groups = _groups(tree, w)
    f, a, nv = _votes(groups, profile, rooted=False)
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


def _split_tallies(tree: Phylogeny, v: int, kept: tuple[int, ...], tallies: dict,
                   profile: Profile) -> dict:
    """The tallies at the node m that pulling the candidate `kept` out of
    polytomy v makes, from v's `tallies`.  m's subsets are v's subsets
    minus those that hold every kept group, so their votes are subtracted.
    Rooted, m's candidates are v's children but the kept one.  Unrooted,
    the kept groups are one group of m, its neighbor v: the pairs {q, u1}
    and {q, u2} add up to the pair {q, v}."""
    nodes, groups = _groups(tree, v)
    rooted = tree.kind is Kind.ROOTED
    f, a, nv = _votes(groups, profile, rooted, tuple(nodes.index(u) for u in kept))
    if rooted:
        return {q: VoteTally(tallies[q].f - f[g], tallies[q].a - a[g], tallies[q].nv - nv[g])
                for g, q in enumerate(nodes) if q not in kept}
    sums: dict[frozenset, list[int]] = {}
    for g, h in itertools.combinations(range(len(nodes)), 2):
        pair = frozenset(v if x in kept else x for x in (nodes[g], nodes[h]))
        if len(pair) == 2:
            t = tallies[frozenset((nodes[g], nodes[h]))]
            s = sums.setdefault(pair, [0, 0, 0])
            s[0] += t.f - f[g][h]
            s[1] += t.a - a[g][h]
            s[2] += t.nv - nv[g][h]
    return {pair: VoteTally(*s) for pair, s in sums.items()}


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
    (node, candidate nodes); the node a step creates gets its tallies by
    subtraction from the split node's (_split_tallies).
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
        refined = (pull_out if rooted else pull_2_out)(tree, *nodes)
        m = tree.num_nodes
        tallies = cache.pop((v, _candidates(tree, v)))
        if refined.is_unresolved(m):
            cache[m, _candidates(refined, m)] = _split_tallies(tree, v, nodes, tallies, profile)
        yield votes, refined
        tree = refined


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
