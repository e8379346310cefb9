"""Tree-space statistics: resolution probabilities and expected distances.

Over all phylogenies on n taxa drawn uniformly (with replacement), the
expected parametric distance has a closed form in the probability r that a
fixed triplet/quartet is resolved:

    E[d^(p)] = C(n,3) * ((2/3) r'(n)^2 + 2 p r'(n) u'(n))   (rooted)
    E[d^(p)] = C(n,4) * ((2/3) r(n)^2  + 2 p r(n) u(n))     (unrooted)

with u = 1 - r.  The Add-Leaf bijection (`add_leaf`) gives r'(n) = r(n+1),
so r is counted over rooted trees only.  Rooted phylogenies have the
exponential generating function (EGF) T = x + e^T - 1 - T (Schroeder's
fourth problem, OEIS A000311), and taxa 0, 1, 2 form a fan in
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

from polydist.oracle import CapacityError, classify, enumerate_phylogenies
from polydist.trees import Kind, Phylogeny, TaxonSet, TreeError

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


@cache
def _fan_counts(m: int) -> tuple[int, int]:
    """(trees, fans) on m >= 3 taxa: t(m) and F(m) of the module docstring."""
    # (e^T)' = T' e^T gives e(k); 2T = x + e^T - 1 makes e(k) = 2 t(k) for
    # k >= 2, so t(k), the j = k-1 term of e(k), is the sum of the others.
    t, e = [0, 1], [1, 1]
    for k in range(2, m + 1):
        t.append(sum(comb(k - 1, j) * t[j + 1] * e[k - 1 - j] for j in range(k - 1)))
        e.append(2 * t[k])
    # T'(2 - e^T) = 1 makes the fan series T'^4 e^T = T'^2 (2 T'^2 - T').
    last = m - 3
    s = t[1:last + 2]  # T'
    s2 = [sum(comb(k, j) * s[j] * s[k - j] for j in range(k + 1)) for k in range(last + 1)]
    return t[m], sum(comb(last, j) * s2[j] * (2 * s2[last - j] - s[last - j])
                     for j in range(last + 1))


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
    if n > MAX_COUNT_N:
        raise CapacityError(f"resolution counts for n={n} exceed the bound {MAX_COUNT_N}")
    total, fans = _fan_counts(n if kind is Kind.ROOTED else n - 1)
    return ResolutionStats(n, kind, total, total - fans, Fraction(total - fans, total))


def expected_distance_formula(n: int, p, kind: Kind) -> Fraction:
    """Exact expected d^(p) between two uniform trees on n taxa."""
    p = Fraction(p)
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
                                seed: int, cap: int | None = None) -> EmpiricalMean:
    """Seeded mean of d^(p) over uniformly sampled tree pairs (exact uniform
    sampling by indexing the full enumeration)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    p = Fraction(p)
    space = list(enumerate_phylogenies(n, kind, cap=cap))
    rng = random.Random(seed)
    total = Fraction(0)
    total_sq = Fraction(0)
    cache: dict[tuple[int, int], Fraction] = {}
    for _ in range(samples):
        i = rng.randrange(len(space))
        j = rng.randrange(len(space))
        d = cache.get((i, j))
        if d is None:
            d = classify(space[i], space[j]).to_distance_pair().evaluate(p)
            cache[(i, j)] = cache[(j, i)] = d
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
    m = tree.num_nodes
    children = [list(cs) for cs in tree.children]
    leaf_taxon = list(tree.leaf_taxon) + [taxa.n - 1]
    if tree.is_leaf(tree.root):
        # n = 1: the result is the two-leaf edge
        return Phylogeny(Kind.UNROOTED, taxa, [[], [], [0, 1]], 2,
                         [tree.leaf_taxon[0], taxa.n - 1, None])
    children[tree.root].append(m)
    children.append([])
    return Phylogeny(Kind.UNROOTED, taxa, children, tree.root, leaf_taxon)


def asymptotic_unresolved(n: int) -> float:
    """Asymptotic probability that a fixed quartet is unresolved in a
    uniform tree: sqrt(pi(2 ln 2 - 1)/(16n)), from the singularity of T at
    rho = 2 ln 2 - 1, where t(m)/m! ~ sqrt(rho/(4 pi)) m^(-3/2) rho^-m and
    F(m)/m! ~ (rho/8) m^-2 rho^-m.  Documentation-grade float; the only
    floating-point quantity in the package."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(math.pi * (2 * math.log(2) - 1) / (16 * n))
