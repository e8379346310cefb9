"""Brute-force reference implementations.

Everything here is ground truth for the fast algorithms: triplet/quartet
classification by direct enumeration, each subset's topology read as a
code (`topology_codes`, named by `TripletTopology` / `QuartetTopology`)
off the LCA-depth table that `Phylogeny.leaf_lca_tables` caches per tree;
the induced topology of one subset by explicit restriction
(`topology_by_restriction`, the route that checks `topology_codes`);
exhaustive tree-space enumeration, full-refinement enumeration, exact
Hausdorff distance, and exhaustive median search.  Counts are exact
integers; distances are exact rationals, and `check_p` is the one check
of every library entry that p lies in [0, 1].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from polydist.newick import write_newick
from polydist.trees import Kind, Phylogeny, TaxonSet, TreeError, check_pair, restrict

ROOTED_ENUM_CAP = 7
UNROOTED_ENUM_CAP = 8
REFINEMENT_CAP = 100_000  # full refinements of one tree
REFINEMENT_PAIR_CAP = 4_000_000  # pairs of full refinements in hausdorff_exact

UNRESOLVED = 3  # topology code of a fan triplet or a star quartet
TOPOLOGY_BLOCK_ROWS = 1 << 16  # rows per block of topology_codes


class CapacityError(RuntimeError):
    """A request beyond a size the library supports: a tree enumeration, a
    refinement set or a pair of refinement sets above its cap, exact quartet
    counts above the int64 bound `quartet.MAX_EXACT_N`, an intersection
    table above `triplet.MAX_TABLE_N` taxa, vote tallies above their int64
    bound (`consensus`), or tree counts above `expected.MAX_COUNT_N`."""


def check_p(p) -> Fraction:
    """p as a Fraction, which must lie in [0, 1] (else ValueError)."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class DistancePair:
    """Exact parametric distance d^(p) = d_count + p * r_count."""

    d_count: int
    r_count: int

    def evaluate(self, p) -> Fraction:
        return Fraction(self.d_count) + check_p(p) * self.r_count


@dataclass(frozen=True)
class Classification:
    """Counts of the five triplet/quartet classes between two trees.

    s: resolved the same in both; d: resolved differently; r1: resolved
    only in the first tree; r2: only in the second; u: unresolved in both.
    """

    s: int
    d: int
    r1: int
    r2: int
    u: int

    @property
    def total(self) -> int:
        return self.s + self.d + self.r1 + self.r2 + self.u

    def to_distance_pair(self) -> DistancePair:
        return DistancePair(self.d, self.r1 + self.r2)

    def swapped(self) -> "Classification":
        return Classification(self.s, self.d, self.r2, self.r1, self.u)


class TripletTopology(Enum):
    """Topology of a rooted tree restricted to a sorted triplet a < b < c.

    A_BC means a is apart (a|bc), and so on; FAN is the unresolved star.
    """

    A_BC = "a|bc"
    B_AC = "b|ac"
    C_AB = "c|ab"
    FAN = "fan"


class QuartetTopology(Enum):
    """Topology of an unrooted tree restricted to a sorted quartet a < b < c < d."""

    AB_CD = "ab|cd"
    AC_BD = "ac|bd"
    AD_BC = "ad|bc"
    STAR = "star"


def topology_codes(tree: Phylogeny, rows: np.ndarray) -> np.ndarray:
    """Induced topology code per sorted row of a tree's taxon indices: for
    a rooted tree, triplets a < b < c with 0 = a|bc, 1 = b|ac, 2 = c|ab;
    for an unrooted tree, quartets a < b < c < d with 0 = ab|cd, 1 = ac|bd,
    2 = ad|bc; UNRESOLVED (3) for a fan or a star.

    One rule on the LCA-depth table L of `Phylogeny.leaf_lca_tables`, read
    at each taxon's leaf position: the code is the argmax of three sums,
    UNRESOLVED when all three are equal.

    Rooted, the sums are [L(b,c), L(a,c), L(a,b)]: two of the three LCAs
    coincide and the third is at least as deep, strictly deeper exactly
    when the triplet is resolved, and its pair leaves the other taxon apart.

    Unrooted, they are the four-point sums [L(a,b) + L(c,d),
    L(a,c) + L(b,d), L(a,d) + L(b,c)] (Buneman 1974).  In any orientation
    the path length in edges is d(x,y) = D(x) + D(y) - 2L(x,y), with D(x)
    the depth of x's leaf, so L(a,b) + L(c,d) = (D(a) + D(b) + D(c) + D(d)
    - d(a,b) - d(c,d)) / 2: the leaf depths cancel between pairings.  A
    resolved quartet ab|cd has d(a,c) + d(b,d) = d(a,d) + d(b,c) =
    d(a,b) + d(c,d) + 2m, m >= 1 the edges of its middle path, so its own
    pairing's sum is the unique maximum and the other two are equal; a
    star (m = 0) gives three equal sums.

    Every depth is below 2n, so every sum is below 4n, which int32 holds
    for any n whose (n, n) table fits in memory.  Rows are read in blocks
    of TOPOLOGY_BLOCK_ROWS, so the rows mapped to leaf positions and their
    sums take memory for one block, not for all of `rows`.
    """
    L = tree.leaf_lca_tables()
    position = np.empty(tree.n, dtype=np.int64)
    position[tree.leaf_ranges()[0]] = np.arange(tree.n)
    codes = np.empty(len(rows), dtype=np.int8)
    for start in range(0, len(rows), TOPOLOGY_BLOCK_ROWS):
        block = position[rows[start:start + TOPOLOGY_BLOCK_ROWS]].T
        if tree.kind is Kind.ROOTED:
            a, b, c = block
            sums = np.stack([L[b, c], L[a, c], L[a, b]])
        else:
            a, b, c, d = block
            sums = np.stack([L[a, b] + L[c, d], L[a, c] + L[b, d], L[a, d] + L[b, c]])
        out = codes[start:start + TOPOLOGY_BLOCK_ROWS]
        out[:] = np.argmax(sums, axis=0)
        out[(sums[0] == sums[1]) & (sums[1] == sums[2])] = UNRESOLVED
    return codes


def _classify(t1: Phylogeny, t2: Phylogeny, kind: Kind) -> Classification:
    """Classify every triplet (rooted) or quartet (unrooted), as sorted rows,
    by its topology code (`topology_codes`) in each tree."""
    check_pair(t1, t2, kind)
    size = 3 if kind is Kind.ROOTED else 4
    rows = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(t1.n), size)), dtype=np.int64).reshape(-1, size)
    c1 = topology_codes(t1, rows)
    c2 = topology_codes(t2, rows)
    res1 = c1 != UNRESOLVED
    res2 = c2 != UNRESOLVED
    s = int(np.count_nonzero(res1 & res2 & (c1 == c2)))
    d = int(np.count_nonzero(res1 & res2 & (c1 != c2)))
    r1 = int(np.count_nonzero(res1 & ~res2))
    r2 = int(np.count_nonzero(~res1 & res2))
    u = int(np.count_nonzero(~res1 & ~res2))
    return Classification(s, d, r1, r2, u)


def classify_triplets(t1: Phylogeny, t2: Phylogeny) -> Classification:
    """Classify all C(n,3) triplets of two rooted trees by direct enumeration."""
    return _classify(t1, t2, Kind.ROOTED)


def classify_quartets(t1: Phylogeny, t2: Phylogeny) -> Classification:
    """Classify all C(n,4) quartets of two unrooted trees by direct enumeration."""
    return _classify(t1, t2, Kind.UNROOTED)


def classify(t1: Phylogeny, t2: Phylogeny) -> Classification:
    if t1.kind is Kind.ROOTED:
        return classify_triplets(t1, t2)
    return classify_quartets(t1, t2)


def topology_by_restriction(tree: Phylogeny, subset) -> TripletTopology | QuartetTopology:
    """Induced topology of a rooted tree on three taxa or an unrooted tree
    on four, read off the explicit restriction to them: the independent
    route against which `topology_codes` is tested."""
    sub = restrict(tree, subset)
    if tree.kind is Kind.ROOTED:
        if len(sub.children[sub.root]) == 3:
            return TripletTopology.FAN
        apart = next(sub.leaf_taxon[ch] for ch in sub.children[sub.root]
                     if sub.leaf_taxon[ch] is not None)
        return {0: TripletTopology.A_BC, 1: TripletTopology.B_AC,
                2: TripletTopology.C_AB}[apart]
    # unrooted quartet
    if sub.num_nodes == 5:
        return QuartetTopology.STAR
    # two internal nodes; find the cherry at the non-handle internal node
    inner = next(v for v in sub.internal_nodes() if v != sub.root)
    pair = sorted(sub.subtree_taxa(inner))
    return {(0, 1): QuartetTopology.AB_CD, (2, 3): QuartetTopology.AB_CD,
            (0, 2): QuartetTopology.AC_BD, (1, 3): QuartetTopology.AC_BD,
            (0, 3): QuartetTopology.AD_BC, (1, 2): QuartetTopology.AD_BC}[tuple(pair)]


# ---------------------------------------------------------------------------
# Tree-space enumeration
# ---------------------------------------------------------------------------

def _insertions(node, new: int, widen: bool = True):
    """`node` (a nested tuple) with leaf `new` inserted below it: at each
    child edge, recursively inside each child, and, when `widen`, as a new
    child."""
    if isinstance(node, int):
        return
    kids = list(node)
    for i, c in enumerate(kids):
        # subdivide the edge to child i
        yield tuple(kids[:i] + [(c, new)] + kids[i + 1:])
        for sub in _insertions(c, new, widen):
            yield tuple(kids[:i] + [sub] + kids[i + 1:])
    if widen:
        yield tuple(kids + [new])


def _nested_rooted(n: int, widen: bool = True):
    """All rooted phylogenies over taxa 0..n-1 as nested tuples, each once,
    or, without `widen`, all binary ones.

    Leaf n-1 is inserted into each smaller tree at every edge, at every
    internal node when `widen`, and as a sibling of the root; deleting that
    leaf again inverts every insertion uniquely, so no deduplication is
    needed.
    """
    if n == 1:
        yield 0
        return
    new = n - 1
    for base in _nested_rooted(n - 1, widen):
        # as sibling of the old root
        yield (base, new)
        yield from _insertions(base, new, widen)


def _nested_unrooted(n: int):
    """All unrooted phylogenies over taxa 0..n-1 as handle-rooted nested tuples."""
    if n == 1:
        yield 0
        return
    if n == 2:
        yield (0, 1)
        return
    if n == 3:
        yield (0, 1, 2)
        return
    new = n - 1
    for base in _nested_unrooted(n - 1):
        yield from _insertions(base, new)


def enumerate_phylogenies(n: int, kind: Kind, taxa: TaxonSet | None = None):
    """Yield every phylogeny on n taxa exactly once (generator)."""
    limit = ROOTED_ENUM_CAP if kind is Kind.ROOTED else UNROOTED_ENUM_CAP
    if n < 1:
        raise TreeError("n must be >= 1")
    if n > limit:
        raise CapacityError(f"enumeration for n={n} exceeds cap {limit}")
    if taxa is None:
        taxa = TaxonSet(tuple(f"t{i}" for i in range(n)))
    gen = _nested_rooted(n) if kind is Kind.ROOTED else _nested_unrooted(n)
    make = Phylogeny.rooted if kind is Kind.ROOTED else Phylogeny.unrooted
    for nested in gen:
        yield make(taxa, nested)


# ---------------------------------------------------------------------------
# Full refinements
# ---------------------------------------------------------------------------

def count_full_refinements(tree: Phylogeny) -> int:
    """Product of (2d-3)!! over rooted polytomies ((2d-5)!! unrooted)."""
    total = 1
    for v in tree.unresolved_nodes():
        if tree.kind is Kind.ROOTED:
            parts = len(tree.children[v])
        else:
            parts = tree.degree(v) - 1  # local shapes counted in rooted form
        total *= math.prod(range(2 * parts - 3, 0, -2))
    return total


def _binary_shapes(parts: list):
    """All rooted binary trees over the given parts, each part kept atomic."""

    def subst(node):
        if isinstance(node, tuple):
            return (subst(node[0]), subst(node[1]))
        return parts[node]

    for shape in _nested_rooted(len(parts), widen=False):
        yield subst(shape)


def _refined_nested(tree: Phylogeny, start: int, banned: int) -> list:
    """All full refinements of the subtree at `start`, avoiding `banned`, as
    nested tuples of taxon indices; bottom-up with an explicit stack."""
    refined = {}
    stack = [(start, banned, False)]
    while stack:
        v, up, expanded = stack.pop()
        t = tree.leaf_taxon[v]
        if t is not None:
            refined[v] = [t]
            continue
        kids = [w for w in tree.neighbors(v) if w != up]
        if not expanded:
            stack.append((v, up, True))
            stack.extend((w, v, False) for w in kids)
            continue
        out = []
        for combo in itertools.product(*(refined.pop(w) for w in kids)):
            if len(combo) <= 2:
                out.append(combo)
            else:
                out.extend(_binary_shapes(list(combo)))
        refined[v] = out
    return refined[start]


def enumerate_full_refinements(tree: Phylogeny) -> list[Phylogeny]:
    """All fully resolved refinements of `tree` (each exactly once), at most
    REFINEMENT_CAP of them."""
    predicted = count_full_refinements(tree)
    if predicted > REFINEMENT_CAP:
        raise CapacityError(f"{predicted} full refinements exceed cap {REFINEMENT_CAP}")
    return _full_refinements(tree)


def _full_refinements(tree: Phylogeny) -> list[Phylogeny]:
    taxa = tree.taxa
    if tree.kind is Kind.ROOTED:
        return [Phylogeny.rooted(taxa, r) for r in _refined_nested(tree, tree.root, -1)]
    if tree.n <= 3:
        return [tree]
    # Root at the neighbor of taxon 0's leaf with that leaf removed, refine
    # the rooted tree, then hang leaf 0 back on the refined root.
    leaf0 = tree.leaf_of_taxon(0)
    anchor = tree.neighbors(leaf0)[0]
    return [Phylogeny.unrooted(taxa, (r[0], r[1], 0))
            for r in _refined_nested(tree, anchor, leaf0)]


# ---------------------------------------------------------------------------
# Exact Hausdorff distance and exhaustive median
# ---------------------------------------------------------------------------

def hausdorff_exact(t1: Phylogeny, t2: Phylogeny) -> int:
    """Hausdorff distance between the full-refinement sets of t1 and t2, at
    most REFINEMENT_PAIR_CAP pairs of them.

    The inner distance between fully resolved trees is |D| (the number of
    differently resolved triplets/quartets).
    """
    check_pair(t1, t2)
    n1 = count_full_refinements(t1)
    n2 = count_full_refinements(t2)
    if n1 * n2 > REFINEMENT_PAIR_CAP:
        raise CapacityError(f"{n1}x{n2} refinement pairs exceed cap {REFINEMENT_PAIR_CAP}")
    f1 = _full_refinements(t1)
    f2 = _full_refinements(t2)
    dist = [[classify(a, b).d for b in f2] for a in f1]
    forward = max(min(row) for row in dist)
    backward = max(min(dist[i][j] for i in range(len(f1))) for j in range(len(f2)))
    return max(forward, backward)


@dataclass(frozen=True)
class MedianResult:
    tree: Phylogeny
    total: Fraction
    co_minima: tuple[Phylogeny, ...]


def median_exhaustive(profile, p, kind: Kind) -> MedianResult:
    """Exhaustive median: argmin over all phylogenies of the profile distance.

    All co-minima are reported; the representative tree is the first in
    canonical Newick order.
    """
    profile = list(profile)
    if not profile:
        raise TreeError("empty profile")
    taxa = profile[0].taxa
    p = Fraction(p)
    best: Fraction | None = None
    winners: list[Phylogeny] = []
    for cand in enumerate_phylogenies(taxa.n, kind, taxa=taxa):
        total = sum((classify(cand, member).to_distance_pair().evaluate(p)
                     for member in profile), Fraction(0))
        if best is None or total < best:
            best = total
            winners = [cand]
        elif total == best:
            winners.append(cand)
    winners.sort(key=write_newick)
    return MedianResult(winners[0], best, tuple(winners))
