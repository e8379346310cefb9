"""Seeded random tree generation for tests, benchmarks and the self-test.

Binary trees are grown by attaching each new leaf to a uniformly chosen
edge; partially resolved trees are binary trees with a random subset of
internal edges contracted.  These generators are for exercising the
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
    """Random binary tree by sequential uniform edge attachment."""
    if taxa is None:
        taxa = _default_taxa(n)
    if kind is Kind.ROOTED:
        if n == 1:
            return Phylogeny.rooted(taxa, 0)
        nested = (0, 1)
        start = 2
    else:
        if n <= 2:
            return Phylogeny.unrooted(taxa, 0 if n == 1 else (0, 1))
        nested = (0, 1, 2)
        start = 3

    def paths(node, prefix):
        yield prefix
        if isinstance(node, tuple):
            for i, c in enumerate(node):
                yield from paths(c, prefix + (i,))

    def insert(node, path, leaf):
        if not path:
            return (node, leaf)
        i = path[0]
        return tuple(insert(c, path[1:], leaf) if j == i else c
                     for j, c in enumerate(node))

    for k in range(start, n):
        cands = list(paths(nested, ()))
        if kind is Kind.UNROOTED:
            cands = [c for c in cands if c]  # the handle is not an edge
        nested = insert(nested, rng.choice(cands), k)
        if kind is Kind.ROOTED and len(nested) > 2:
            raise AssertionError  # unreachable: insertion keeps arity 2
    make = Phylogeny.rooted if kind is Kind.ROOTED else Phylogeny.unrooted
    return make(taxa, nested)


def random_partial(n: int, kind: Kind, rng: random.Random,
                   contract_prob: float = 0.3,
                   taxa: TaxonSet | None = None) -> Phylogeny:
    """Random partially resolved tree: binary tree with each internal edge
    independently contracted with probability `contract_prob`."""
    tree = random_binary(n, kind, rng, taxa)

    def internal_edges(t):
        return [v for v in t.internal_nodes()
                if t.parent[v] >= 0 and not t.is_leaf(t.parent[v])]

    to_contract = sum(rng.random() < contract_prob
                      for _ in range(len(internal_edges(tree))))
    for _ in range(to_contract):
        cands = internal_edges(tree)
        if not cands:
            break
        tree = contract(tree, rng.choice(cands))
    return tree
