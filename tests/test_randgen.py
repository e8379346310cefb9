import hashlib
import random
from collections import Counter

import pytest

from polydist.newick import write_newick
from polydist.oracle import enumerate_phylogenies
from polydist.randgen import random_binary, random_partial
from polydist.trees import Kind

# sha256 of the Newick lines of random_partial over the grid below, one
# Random(seed) per cell; contract_prob = 0 gives random_binary's trees.
GOLDEN = {
    Kind.ROOTED: "80e0dc3f2740fabf28033872860c2e360f80eb5bec4ebe2130656e1d34115134",
    Kind.UNROOTED: "20b931a88bd58f5812919419b6187d81da5b975aa7403bc220142df3eb1e2fdb",
}


@pytest.mark.parametrize("kind", list(Kind))
def test_seeded_output_is_pinned(kind):
    digest = hashlib.sha256()
    grid = [(n, p) for n in (1, 2, 3, 4, 50, 1000) for p in (0, 0.3, 0.8)]
    for seed, (n, p) in enumerate(grid):
        tree = random_partial(n, kind, random.Random(seed), contract_prob=p)
        digest.update(write_newick(tree).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN[kind]


@pytest.mark.parametrize("kind", list(Kind))
def test_trees_at_ten_thousand_taxa(kind):
    rng = random.Random(1)
    binary = random_binary(10_000, kind, rng)
    assert binary.validate() == [] and binary.is_fully_resolved()
    partial = random_partial(10_000, kind, rng, contract_prob=0.5)
    assert partial.validate() == [] and not partial.is_fully_resolved()


@pytest.mark.parametrize("kind, n", [(Kind.ROOTED, 4), (Kind.UNROOTED, 5)])
def test_binary_trees_are_uniform(kind, n):
    # each binary tree arises from exactly one sequence of edge splits, so
    # uniform splits draw the 15 trees uniformly: 3000 draws give each a
    # count of 200, with standard deviation below 14
    shapes = {t.canonical_key() for t in enumerate_phylogenies(n, kind)
              if t.is_fully_resolved()}
    assert len(shapes) == 15
    rng = random.Random(2)
    counts = Counter(random_binary(n, kind, rng).canonical_key() for _ in range(3000))
    assert set(counts) == shapes
    assert all(140 <= c <= 260 for c in counts.values())
