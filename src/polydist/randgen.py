"""Seeded random tree generation for tests and the self-test, in O(n).

Binary trees are grown on a parent array, each new leaf splitting a
uniformly chosen edge, and the array is the tree's own; partially resolved
trees are binary trees with each internal edge independently contracted,
in one `contract` call.  These generators are for exercising the
algorithms, not for statistically uniform sampling of multifurcating tree
space (`expected.tree_at` of a uniform index is an exact uniform tree).
"""

from __future__ import annotations

import random

from polydist.trees import Kind, Phylogeny, TaxonSet, contract


def _default_taxa(n: int) -> TaxonSet:
    return TaxonSet(tuple(f"t{i}" for i in range(n)))


def random_binary(n: int, kind: Kind, rng: random.Random,
                  taxa: TaxonSet | None = None) -> Phylogeny:
    """Random binary tree by sequential uniform edge attachment.

    Rooted trees start from a cherry and may also split the edge above the
    root; unrooted trees start from a star of three leaves around the
    handle, which has no edge above it.
    """
    if taxa is None:
        taxa = _default_taxa(n)
    if n == 1:
        return Phylogeny(kind, taxa, [-1], [0])
    rooted = kind is Kind.ROOTED
    start = 2 if rooted else min(n, 3)
    # node 0 is the first root (the handle), nodes 1..start the first leaves
    parent = [-1] + [0] * start
    leaf_taxon: list[int | None] = [None, *range(start)]
    for k in range(start, n):
        # node v stands for the edge above it: w is put on that edge, the
        # leaf of taxon k hangs from w
        v = rng.randrange(0 if rooted else 1, len(parent))
        w = len(parent)
        parent += [parent[v], w]
        leaf_taxon += [None, k]
        parent[v] = w
    return Phylogeny(kind, taxa, parent, leaf_taxon)


def random_partial(n: int, kind: Kind, rng: random.Random,
                   contract_prob: float = 0.3,
                   taxa: TaxonSet | None = None) -> Phylogeny:
    """Random partially resolved tree: binary tree with each internal edge
    independently contracted with probability `contract_prob`."""
    tree = random_binary(n, kind, rng, taxa)
    return contract(tree, *(v for v in tree.internal_nodes()
                            if tree.parent[v] >= 0 and rng.random() < contract_prob))
