"""Tree-space statistics: resolution probabilities and expected distances.

Over all phylogenies on n taxa drawn uniformly (with replacement), the
expected parametric distance has a closed form in the probability r that a
fixed triplet/quartet is resolved:

    E[d^(p)] = C(n,3) * ((2/3) r'(n)^2 + 2 p r'(n) u'(n))   (rooted)
    E[d^(p)] = C(n,4) * ((2/3) r(n)^2  + 2 p r(n) u(n))     (unrooted)

with u = 1 - r.  The Add-Leaf bijection (`add_leaf`) gives r'(n) = r(n+1),
so r is counted over rooted trees only.  Rooted phylogenies, t(k) on k taxa,
have the exponential generating function (EGF) T = x + e^T - 1 - T
(Schroeder's fourth problem, OEIS A000311).  The root's children split the
taxa into blocks; if the first taxon's block holds j of the k taxa, the
other k - j form one subtree or the root's children of a tree on them, so
t(k) = sum_j C(k-1, j-1) t(j) e(k-j) with e(i) = 2 t(i) - [i = 1].  Read
digit by digit (the recursive method of Nijenhuis and Wilf), the sum decodes
each index below t(m) to one tree (`tree_at`), an exact uniform sampler.
Taxa 0, 1, 2 form a fan in
(m-3)! [x^(m-3)] T'^3 e^T / (2 - e^T) of those on m taxa: T'^3 e^T is the fan
node (three children holding the marked taxa, plus any others) and
1 / (2 - e^T) the path above it, each node of which has another child.  The
coefficients k! [x^k] are integers and EGF products binomial convolutions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from polydist.oracle import CapacityError, check_p
from polydist.quartet import quartet_classification
from polydist.trees import Kind, Phylogeny, TaxonSet, TreeError
from polydist.triplet import parametric_triplet_distance

MAX_COUNT_N = 500


@dataclass(frozen=True)
class ResolutionStats:
    n: int
    kind: Kind
    trees_total: int
    resolved_count: int
    r: Fraction

    @property
    def u(self) -> Fraction:
        return 1 - self.r


_trees = [0, 1]  # t(k) for k = 0, 1, ...: a memo grown on demand, each t(k) counted once


def _tree_counts(m: int) -> tuple[int, ...]:
    """t(0..m) by the module docstring's sum."""
    t = _trees
    for k in range(len(t), m + 1):
        t.append(sum(comb(k - 1, j - 1) * t[j] * (2 * t[k - j] - (j == k - 1))
                     for j in range(1, k)))
    return tuple(t[:m + 1])


@cache
def _fan_counts(m: int) -> tuple[int, int]:
    """(trees, fans) on m >= 3 taxa: t(m) and F(m) of the module docstring."""
    t = _tree_counts(m)
    # T'(2 - e^T) = 1 makes the fan series T'^4 e^T = T'^2 (2 T'^2 - T').
    last = m - 3
    s = t[1:last + 2]  # T'
    s2 = [sum(comb(k, j) * s[j] * s[k - j] for j in range(k + 1)) for k in range(last + 1)]
    return t[m], sum(comb(last, j) * s2[j] * (2 * s2[last - j] - s[last - j])
                     for j in range(last + 1))


def _rooted_taxa(n: int, kind: Kind) -> int:
    """m whose rooted trees number the trees on n taxa (n - 1: `add_leaf`)."""
    if n < 1:
        raise TreeError("n must be >= 1")
    if n > MAX_COUNT_N:
        raise CapacityError(f"tree counts for n={n} exceed the bound {MAX_COUNT_N}")
    return n if kind is Kind.ROOTED or n == 1 else n - 1


def tree_count(n: int, kind: Kind) -> int:
    """Number of phylogenies on n taxa: t(n) rooted, t(n - 1) unrooted."""
    m = _rooted_taxa(n, kind)
    return _tree_counts(m)[m]


def tree_at(n: int, kind: Kind, index: int) -> Phylogeny:
    """Phylogeny number `index` on taxa t0..t(n-1), for 0 <= index <
    tree_count(n, kind); each tree has exactly one number.  Decodes the
    module docstring's sum with an explicit stack."""
    m = _rooted_taxa(n, kind)
    t = _tree_counts(m)
    if not 0 <= index < t[m]:
        raise ValueError(f"index {index} outside [0, {t[m]}) for n={n}")
    parent = [-1]
    leaf_taxon: list[int | None] = [0 if m == 1 else None]
    # (v, taxa, x, new): tree x on `taxa` is a new child of v, or v takes its root's children
    stack = [(0, list(range(m)), index, False)] if m > 1 else []
    while stack:
        v, taxa, x, new = stack.pop()
        if new:
            parent.append(v)
            v = len(parent) - 1
            leaf_taxon.append(taxa[0] if len(taxa) == 1 else None)
            if len(taxa) == 1:
                continue
        k, j, ways = len(taxa), 1, 1  # ways = C(k-1, j-1), e = e(k-j)
        while x >= ways * t[j] * (e := 2 * t[k - j] - (j == k - 1)):
            x -= ways * t[j] * e
            ways = ways * (k - j) // j
            j += 1
        rank, x = divmod(x, t[j] * e)
        first, x = divmod(x, e)
        block, rest = taxa[:1], []
        for i in range(1, k):  # taxa[0] and the rank-th (j-1)-subset of the rest
            with_it = comb(k - 1 - i, j - len(block) - 1) if len(block) < j else 0
            if rank < with_it:
                block.append(taxa[i])
            else:
                rank -= with_it
                rest.append(taxa[i])
        stack.append((v, block, first, True))
        new = x < t[k - j]
        stack.append((v, rest, x if new else x - t[k - j], new))
    labels = TaxonSet(tuple(f"t{i}" for i in range(m)))
    tree = Phylogeny(kind if m == n else Kind.ROOTED, labels, parent, leaf_taxon)
    return tree if m == n else add_leaf(tree)


def exact_resolution_probability(n: int, kind: Kind) -> ResolutionStats:
    """Exact probability that the canonical triplet {0,1,2} (rooted) or
    quartet {0,1,2,3} (unrooted) is resolved in a uniform tree.

    Exchangeability of taxa makes the canonical choice representative.  The
    counts cost O(n^2) products of O(n log n)-bit integers, once per n: about
    2 s at n = MAX_COUNT_N = 500 on a 2-core host; above it, CapacityError.
    """
    need = 3 if kind is Kind.ROOTED else 4
    if n < need:
        raise TreeError(f"n must be >= {need} for {kind.value} resolution stats")
    total, fans = _fan_counts(_rooted_taxa(n, kind))
    return ResolutionStats(n, kind, total, total - fans, Fraction(total - fans, total))


def expected_distance_formula(n: int, p, kind: Kind) -> Fraction:
    """Exact expected d^(p) between two uniform trees on n taxa."""
    p = check_p(p)
    stats = exact_resolution_probability(n, kind)
    per = comb(n, 3) if kind is Kind.ROOTED else comb(n, 4)
    r, u = stats.r, stats.u
    return per * (Fraction(2, 3) * r * r + 2 * p * r * u)


@dataclass(frozen=True)
class EmpiricalMean:
    mean: Fraction
    stderr_sq: Fraction  # sample variance of the mean, exact
    samples: int
    seed: int

    @property
    def stderr(self) -> float:
        return math.sqrt(self.stderr_sq)


def empirical_expected_distance(n: int, p, kind: Kind, samples: int,
                                seed: int) -> EmpiricalMean:
    """Seeded mean of d^(p) over pairs of independent uniform trees, each
    `tree_at` a uniform index."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    p = Fraction(p)
    size = tree_count(n, kind)
    rng = random.Random(seed)
    total = Fraction(0)
    total_sq = Fraction(0)
    for _ in range(samples):
        a, b = (tree_at(n, kind, rng.randrange(size)) for _ in range(2))
        pair = (parametric_triplet_distance(a, b) if kind is Kind.ROOTED
                else quartet_classification(a, b).to_distance_pair())
        d = pair.evaluate(p)
        total += d
        total_sq += d * d
    mean = total / samples
    var = (total_sq / samples - mean * mean) * samples / max(samples - 1, 1)
    return EmpiricalMean(mean, var / samples, samples, seed)


def add_leaf(tree: Phylogeny, label: str | None = None) -> Phylogeny:
    """Attach a new leaf to the root and forget the rooting.

    This is a bijection from rooted trees on n taxa to unrooted trees on
    n+1 taxa; a triplet X is resolved in the input exactly when the quartet
    X + {new leaf} is resolved in the output.
    """
    if tree.kind is not Kind.ROOTED:
        raise TreeError("add_leaf applies to rooted trees")
    if label is None:
        label = f"t{tree.n}"
    taxa = TaxonSet(tree.taxa.labels + (label,))
    if tree.is_leaf(tree.root):
        # n = 1: the result is the two-leaf edge
        return Phylogeny(Kind.UNROOTED, taxa, [2, 2, -1], [tree.leaf_taxon[0], taxa.n - 1, None])
    return Phylogeny(Kind.UNROOTED, taxa, tree.parent + (tree.root,),
                     tree.leaf_taxon + (taxa.n - 1,))


def asymptotic_unresolved(n: int) -> float:
    """Asymptotic probability that a fixed quartet is unresolved in a
    uniform tree: sqrt(pi(2 ln 2 - 1)/(16n)), from the singularity of T at
    rho = 2 ln 2 - 1, where t(m)/m! ~ sqrt(rho/(4 pi)) m^(-3/2) rho^-m and
    F(m)/m! ~ (rho/8) m^-2 rho^-m.  Documentation-grade float; the only
    floating-point quantity in the package."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(math.pi * (2 * math.log(2) - 1) / (16 * n))
