"""Correctness checks for the benchmark's outputs.

Every check compares a library result with a computation made here, from
the generator's own arrays or from the plain node arrays of a result
tree, or with a property the method must have.  Nothing is compared with
stored output.  Each check returns a list of problems (empty when the
result passes), so one run can report all of them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np

Counts = tuple[int, int, int, int, int]  # s, d, r1, r2, u


# ---------------------------------------------------------------------------
# The benchmark's own view of a tree
# ---------------------------------------------------------------------------

def shape_of(tree) -> tuple[tuple, tuple, int]:
    """(children, leaf label per node or None, root) of a generator tree or
    of a library Phylogeny, read from their plain node arrays."""
    if hasattr(tree, "taxa"):
        labels = tuple(None if t is None else tree.taxa.labels[t]
                       for t in tree.leaf_taxon)
        return tree.children, labels, tree.root
    return tree.children, tree.label, 0


def _postorder(children, root) -> list[int]:
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    order.reverse()
    return order


def _leaf_sets(tree) -> tuple[list[frozenset], int, tuple]:
    children, label, root = shape_of(tree)
    sets: list[frozenset] = [frozenset()] * len(children)
    for v in _postorder(children, root):
        sets[v] = frozenset((label[v],)) if label[v] is not None \
            else frozenset().union(*(sets[c] for c in children[v]))
    return sets, root, children


def clusters(tree) -> set[frozenset]:
    """Leaf-label sets below internal non-root nodes (rooted reading)."""
    sets, root, children = _leaf_sets(tree)
    return {sets[v] for v in range(len(children)) if children[v] and v != root}


def splits(tree) -> set[frozenset]:
    """Internal-edge bipartitions (unrooted reading), each keyed by the side
    without the smallest label."""
    sets, root, children = _leaf_sets(tree)
    everything = sets[root]
    first = min(everything)
    out = set()
    for v in range(len(children)):
        for c in children[v]:
            if children[c]:  # both ends internal
                side = sets[c]
                out.add(everything - side if first in side else side)
    return out


def _esym(sizes, k: int) -> int:
    """Elementary symmetric polynomial e_k of the sizes (exact)."""
    e = [1] + [0] * k
    for x in sizes:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * x
    return e[k]


def resolved_count(tree, rooted: bool) -> int:
    """R(T): resolved triplets (rooted) or quartets (unrooted).

    Counted through the complement: a triplet is a fan exactly when its
    three leaves lie in three distinct child subtrees of one node, and a
    quartet is a star exactly when its four leaves lie in four distinct
    components around one node.
    """
    sets, root, children = _leaf_sets(tree)
    n = len(sets[root])
    unresolved = 0
    for v in range(len(children)):
        if not children[v]:
            continue
        sizes = [len(sets[c]) for c in children[v]]
        if rooted:
            unresolved += _esym(sizes, 3)
        else:
            if v != root:
                sizes.append(n - len(sets[v]))
            unresolved += _esym(sizes, 4)
    return comb(n, 3 if rooted else 4) - unresolved


# ---------------------------------------------------------------------------
# Brute-force classification over all subsets
# ---------------------------------------------------------------------------

class SubsetTable:
    """All 3- or 4-subsets of n taxa, as rows of sorted taxon indices."""

    def __init__(self, labels, size: int):
        self.labels = sorted(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)
        flat = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(n), size)), dtype=np.int32,
            count=comb(n, size) * size)
        self.rows = flat.reshape(-1, size)
        self.size = size

    def codes(self, tree) -> np.ndarray:
        """Topology code per row: the position (0-2) of the resolving pair
        pattern, or 3 for a fan / star.

        Rooted rows (a, b, c): code i when the leaf at position i is apart,
        i.e. some cluster holds the other two and not it.  Unrooted rows
        (a, b, c, d): code 0/1/2 for ab|cd, ac|bd, ad|bc, i.e. some split
        puts a with b, c or d and the other two on the far side.
        """
        groups = clusters(tree) if self.size == 3 else splits(tree)
        out = np.full(len(self.rows), 3, dtype=np.int8)
        cols = [self.rows[:, i] for i in range(self.size)]
        member = np.zeros(len(self.labels), dtype=bool)
        for g in groups:
            member[:] = False
            member[[self.index[lab] for lab in g]] = True
            x = [member[c] for c in cols]
            if self.size == 3:
                patterns = [(~x[0]) & x[1] & x[2], x[0] & (~x[1]) & x[2],
                            x[0] & x[1] & (~x[2])]
            else:
                a, b, c, d = x
                patterns = [(a == b) & (c == d) & (a != c),
                            (a == c) & (b == d) & (a != b),
                            (a == d) & (b == c) & (a != b)]
            for code, hit in enumerate(patterns):
                out[hit] = code
        return out

    @staticmethod
    def compare(c1: np.ndarray, c2: np.ndarray) -> Counts:
        res1, res2 = c1 != 3, c2 != 3
        both = res1 & res2
        return (int(np.count_nonzero(both & (c1 == c2))),
                int(np.count_nonzero(both & (c1 != c2))),
                int(np.count_nonzero(res1 & ~res2)),
                int(np.count_nonzero(~res1 & res2)),
                int(np.count_nonzero(~res1 & ~res2)))

    def classify(self, t1, t2) -> Counts:
        return self.compare(self.codes(t1), self.codes(t2))


def profile_distance(table: SubsetTable, tree, members, p: Fraction) -> Fraction:
    """Sum over members of d + p(r1 + r2), from brute-force counts."""
    c = table.codes(tree)
    total = Fraction(0)
    for m in members:
        _, d, r1, r2, _ = table.compare(c, table.codes(m))
        total += d + p * (r1 + r2)
    return total


# ---------------------------------------------------------------------------
# Checks on pair comparisons
# ---------------------------------------------------------------------------

def check_pair(tag: str, n: int, rooted: bool, R1: int, R2: int,
               bounds, dist=None, contraction: bool = False,
               brute: Counts | None = None) -> list[str]:
    """Checks on one pair's Hausdorff bounds and (rooted) distance.

    R1, R2 are the benchmark's own resolved counts of the two trees.
    """
    out = []
    c = bounds.components
    s, d, r1, r2, u = c.s, c.d, c.r1, c.r2, c.u
    if s + d + r1 + r2 + u != comb(n, 3 if rooted else 4):
        out.append(f"{tag}: components do not sum to C(n,{3 if rooted else 4})")
    if (s + d + r1, s + d + r2) != (R1, R2):
        out.append(f"{tag}: (s + d + r1, s + d + r2) = {(s + d + r1, s + d + r2)}, "
                   f"own (R(T1), R(T2)) = {(R1, R2)}")
    if not bounds.lower <= bounds.upper:
        out.append(f"{tag}: lower bound exceeds upper bound")
    if bounds.lower != d + Fraction(2, 3) * max(r1, r2) or bounds.upper != d + r1 + r2 + u:
        out.append(f"{tag}: bounds differ from d + (2/3)max(r1,r2), d + r1 + r2 + u")
    if dist is not None and (dist.d_count != d or dist.r_count != r1 + r2):
        out.append(f"{tag}: distance ({dist.d_count}, {dist.r_count}) "
                   f"disagrees with components d={d}, r1+r2={r1 + r2}")
    if contraction and (d != 0 or r2 != 0 or r1 + r2 != R1 - R2):
        out.append(f"{tag}: contraction pair has d={d}, r2={r2}, r={r1 + r2}, "
                   f"own R(T1) - R(T2) = {R1 - R2}")
    if brute is not None and (s, d, r1, r2, u) != brute:
        out.append(f"{tag}: components {(s, d, r1, r2, u)} != brute force {brute}")
    return out


def check_quartet_interval(tag: str, approx, exact: Fraction) -> list[str]:
    """The exact distance lies in the certified interval and in [value/2, value]."""
    if approx.lower <= exact <= approx.upper and approx.value / 2 <= exact <= approx.value:
        return []
    return [f"{tag}: exact {exact} outside interval [{approx.lower}, {approx.upper}] "
            f"or [value/2, value] with value {approx.value}"]


def check_triangle(tag: str, dist: dict[tuple[int, int], Fraction]) -> list[str]:
    """d(a,c) <= d(a,b) + d(b,c) for every triple of a symmetric distance."""
    def d(i, j):
        return dist[(min(i, j), max(i, j))] if i != j else Fraction(0)
    ids = sorted({i for pair in dist for i in pair})
    out = []
    for a, b, c in itertools.permutations(ids, 3):
        if d(a, c) > d(a, b) + d(b, c):
            out.append(f"{tag}: triangle inequality fails for ({a}, {b}, {c})")
    return out


# ---------------------------------------------------------------------------
# Checks on aggregation jobs
# ---------------------------------------------------------------------------

def _edges(tree, rooted: bool) -> set[frozenset]:
    return clusters(tree) if rooted else splits(tree)


def check_greedy(tag: str, table: SubsetTable, start, members, p: Fraction,
                 result, rooted: bool, guaranteed: bool) -> list[str]:
    """A greedy refinement is a full resolution of its start tree, its step
    count is the number of clusters/splits added, its distances match the
    brute-force profile distance, and it does not worsen when guaranteed."""
    out = []
    n = len(table.labels)
    before, after = _edges(start, rooted), _edges(result.tree, rooted)
    full = n - 2 if rooted else n - 3
    if len(after) != full:
        out.append(f"{tag}: result has {len(after)} of {full} clusters/splits "
                   f"(polytomy left in place)")
    if not before <= after:
        out.append(f"{tag}: result is not a refinement of its start tree")
    if result.steps != len(after) - len(before):
        out.append(f"{tag}: {result.steps} steps but {len(after) - len(before)} "
                   f"clusters/splits added")
    if result.initial_distance != profile_distance(table, start, members, p):
        out.append(f"{tag}: initial distance differs from brute force")
    if result.final_distance != profile_distance(table, result.tree, members, p):
        out.append(f"{tag}: final distance differs from brute force")
    if guaranteed and not (result.guaranteed
                           and result.final_distance <= result.initial_distance):
        out.append(f"{tag}: guaranteed regime but final {result.final_distance} "
                   f"> initial {result.initial_distance} or flag unset")
    return out


def check_best(tag: str, table: SubsetTable, members, p: Fraction, best) -> list[str]:
    """best_of_profile returns a member of least brute-force profile distance."""
    totals = [profile_distance(table, m, members, p) for m in members]
    if best.total != totals[best.index] or best.total != min(totals):
        return [f"{tag}: best-of-profile total {best.total} at index {best.index}, "
                f"brute-force totals {totals}"]
    return []


def check_adversarial(tag: str, table: SubsetTable, t1, t2, result,
                      rooted: bool) -> list[str]:
    """The refinement refines t1, leaves r2 = 0 against t2, and reaches the
    certified lower bound d + (2/3) r2 of the input pair."""
    out = []
    _, d0, _, r2_0, _ = table.classify(t1, t2)
    _, d, _, r2, _ = table.classify(result.refined, t2)
    if not _edges(t1, rooted) <= _edges(result.refined, rooted):
        out.append(f"{tag}: adversarial result is not a refinement of t1")
    if r2 != 0:
        out.append(f"{tag}: adversarial result leaves r2={r2}")
    reported = (result.d_initial, result.r2_initial, result.d_achieved)
    if reported != (d0, r2_0, d):
        out.append(f"{tag}: reported (d0, r2_0, d) = {reported}, brute force {(d0, r2_0, d)}")
    if result.d_achieved < result.certified_lower:
        out.append(f"{tag}: d_achieved {result.d_achieved} < certified "
                   f"{result.certified_lower}")
    return out
