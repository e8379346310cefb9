"""Bounds on the Hausdorff distance between full-refinement sets.

The Hausdorff triplet (quartet) distance compares the sets of full
refinements of two partially resolved trees under the |D| metric on fully
resolved trees.  Exact computation is delegated to the oracle (and
suspected to be hard); this module provides certified bounds:

    lower = |D| + (2/3) * max(|R1|, |R2|)
    upper = |D| + |R1| + |R2| + |U|

plus the constructive step behind the lower bound: an adversarial
refinement of T1 that turns at least two thirds of R2 into disagreements,
and the certificate that the Hausdorff and parametric distances are
equivalent up to factor 3 + 3*beta whenever |U| <= beta(|D|+|R1|+|R2|).

The adversarial refinement is the greedy refinement loop of
polydist.consensus run against the one-tree profile (T2,): each step takes
the Pull-Out (rooted) or Pull-2-Out (unrooted) with the highest score
A - 2F, where F and A count the triplets/quartets resolved in T2 that the
step makes agree and disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from polydist.consensus import Profile, VoteTally, refinements
from polydist.oracle import Classification
from polydist.quartet import quartet_classification
from polydist.trees import Kind, Phylogeny
from polydist.triplet import build_tables, count_R_U, count_S_R1, count_r1


@dataclass(frozen=True)
class HausdorffBounds:
    lower: Fraction
    upper: int
    components: Classification

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("invalid bounds")


def classification_counts(t1: Phylogeny, t2: Phylogeny) -> Classification:
    """Exact five-class counts (s, d, r1, r2, u).

    Unrooted trees: quartet_classification.  Rooted trees: s and r1 from
    one count_S_R1 walk of the (T1, T2) I-table, r2 from a count_r1 walk of
    the table with the trees swapped, and R(T1), U(T1) from count_R_U;
    then d = R(T1) - s - r1 and u = U(T1) - r2.  One I-table over internal
    nodes (uint16, 2·(k1 + 1)·(k2 + 1) bytes for k1, k2 internal nodes) is
    live at a time, and the arithmetic runs over the node pairs whose
    subtrees overlap only: O(n²) in the worst case (caterpillars, where
    every pair overlaps).  Both kinds need n <= MAX_TABLE_N (65535).
    """
    if t1.kind is Kind.UNROOTED:
        return quartet_classification(t1, t2)
    S, r1 = count_S_R1(build_tables(t1, t2))
    r2 = count_r1(build_tables(t2, t1))
    R, U = count_R_U(t1)
    return Classification(S, R - S - r1, r1, r2, U - r2)


def hausdorff_bounds(t1: Phylogeny, t2: Phylogeny) -> HausdorffBounds:
    c = classification_counts(t1, t2)
    lower = Fraction(c.d) + Fraction(2, 3) * max(c.r1, c.r2)
    upper = c.d + c.r1 + c.r2 + c.u
    return HausdorffBounds(lower, upper, c)


# ---------------------------------------------------------------------------
# Adversarial refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversarialResult:
    refined: Phylogeny
    d_initial: int
    r2_initial: int
    d_achieved: int

    @property
    def certified_lower(self) -> Fraction:
        return Fraction(self.d_initial) + Fraction(2, 3) * self.r2_initial


def _adversarial_cost(votes: VoteTally) -> int | None:
    """2F - A for a candidate with votes (a triplet/quartet resolved in t2,
    unresolved in the current tree), None for one without."""
    if votes.f == votes.a == 0:
        return None
    return 2 * votes.f - votes.a


def adversarial_refinement(t1: Phylogeny, t2: Phylogeny) -> AdversarialResult:
    """Refine t1 so that no triplet/quartet stays resolved only in t2.

    Each step pulls out a group with disagreement votes A >= 2F (one always
    exists because every vote set splits 1 agreeing : 2 disagreeing), so the
    achieved disagreement count is >= |D| + (2/3)|R2| of the input pair.
    The loop ends when no candidate has votes, that is when r2 = 0.  Each
    step adds exactly its tally's A to |D|, so d_achieved = |D| + Σ A.
    """
    start = classification_counts(t1, t2)
    current, d_achieved = t1, start.d
    for votes, current in refinements(t1, Profile((t2,)), _adversarial_cost):
        if _adversarial_cost(votes) > 0:
            # guaranteed not to happen; the certified lower bound needs A >= 2F
            raise AssertionError("no admissible refinement candidate")
        d_achieved += votes.a
    return AdversarialResult(current, start.d, start.r2, d_achieved)


# ---------------------------------------------------------------------------
# Equivalence certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceCertificate:
    holds: bool
    beta: Fraction
    factor: Fraction | None
    components: Classification


def equivalence_certificate(t1: Phylogeny, t2: Phylogeny, beta) -> EquivalenceCertificate:
    """True iff |U| <= beta(|D|+|R1|+|R2|); then Hausdorff and parametric
    distances are equivalent up to the factor 3 + 3*beta."""
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    c = classification_counts(t1, t2)
    holds = Fraction(c.u) <= beta * (c.d + c.r1 + c.r2)
    factor = 3 + 3 * beta if holds else None
    return EquivalenceCertificate(holds, beta, factor, c)
