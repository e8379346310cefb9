import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import strategies as st

from polydist.expected import add_leaf
from polydist.hausdorff import classification_counts
from polydist.oracle import Classification, topology_codes
from polydist.quartet import quartet_classification
from polydist.randgen import random_binary, random_partial
from polydist.trees import (Kind, Phylogeny, QuartetTopology, TaxonSet, TripletTopology,
                            contract, restrict)


def induced(tree: Phylogeny, subset) -> TripletTopology | QuartetTopology:
    """The topology `topology_codes` reads for a rooted tree on three taxa
    or an unrooted tree on four, given as labels or indices."""
    names = TripletTopology if tree.kind is Kind.ROOTED else QuartetTopology
    row = np.array([sorted(tree.taxa.index(x) for x in subset)])
    return tuple(names)[topology_codes(tree, row)[0]]


def triplets_from_quartets(t1: Phylogeny, t2: Phylogeny) -> Classification:
    """The five triplet classes of two rooted trees over X, read off quartets.

    `add_leaf` hangs a new leaf x from each root: a triplet ab|c becomes
    the quartet ab|cx and a fan becomes a star, so the quartets of the two
    trees over X + x that hold x are the triplets, class for class.  The
    rest are the quartets of the two trees restricted back to X.
    """
    a, b = add_leaf(t1), add_leaf(t2)
    everything = quartet_classification(a, b)
    without_x = quartet_classification(restrict(a, t1.taxa.labels),
                                       restrict(b, t2.taxa.labels))
    return Classification(*(e - w for e, w in zip(astuple(everything), astuple(without_x))))


def reoriented(tree: Phylogeny, root: int) -> Phylogeny:
    """The same tree with its parent array oriented away from `root`."""
    parent = [-1] * tree.num_nodes
    stack = [root]
    while stack:
        v = stack.pop()
        for w in tree.neighbors(v):
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    return Phylogeny(tree.kind, tree.taxa, parent, tree.leaf_taxon)


def quartets_from_triplets(t1: Phylogeny, t2: Phylogeny) -> Classification:
    """Four times the five quartet classes of two unrooted trees over X,
    read off triplets.

    For each taxon x, both trees are re-oriented at x's neighbor, read as
    rooted and restricted to X - x: a quartet ab|cx becomes the triplet
    ab|c and a star becomes a fan, so the triplets of these rooted trees
    are the quartets that hold x, class for class.  Every quartet holds
    four taxa, so the classes summed over x count each quartet four times.
    """
    per_taxon = []
    for x in range(t1.n):
        others = [t for t in range(t1.n) if t != x]
        rooted = []
        for tree in (t1, t2):
            turned = reoriented(tree, tree.neighbors(tree.leaf_of_taxon(x))[0])
            rooted.append(restrict(Phylogeny(Kind.ROOTED, tree.taxa, turned.parent,
                                             turned.leaf_taxon), others))
        per_taxon.append(astuple(classification_counts(*rooted)))
    return Classification(*map(sum, zip(*per_taxon)))


def seeded_partial(kind: Kind, n: int, seed: int, contract_prob: float = 0.4):
    rng = random.Random(seed)
    return random_partial(n, kind, rng, contract_prob=contract_prob)


def seeded_pair(kind: Kind, n: int, seed: int, contract_prob: float = 0.4):
    rng = random.Random(seed)
    a = random_partial(n, kind, rng, contract_prob=contract_prob)
    b = random_partial(n, kind, rng, contract_prob=contract_prob, taxa=a.taxa)
    return a, b


@st.composite
def rooted_pairs(draw, min_n=3, max_n=12):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return seeded_pair(Kind.ROOTED, n, seed)


@st.composite
def unrooted_pairs(draw, min_n=4, max_n=11):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return seeded_pair(Kind.UNROOTED, n, seed)


@st.composite
def rooted_trees(draw, min_n=3, max_n=12):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return seeded_partial(Kind.ROOTED, n, seed)


@st.composite
def unrooted_trees(draw, min_n=4, max_n=11):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return seeded_partial(Kind.UNROOTED, n, seed)


SHAPES = ("partial", "binary", "fan", "caterpillar")


def shaped(kind: Kind, shape: str, taxa: TaxonSet, rng: random.Random) -> Phylogeny:
    """A tree over `taxa`: partially resolved, binary, a fan (star) or a
    caterpillar; binary below three taxa."""
    n = taxa.n
    build = Phylogeny.rooted if kind is Kind.ROOTED else Phylogeny.unrooted
    if n < 3 or shape == "binary":
        return random_binary(n, kind, rng, taxa)
    if shape == "fan":
        return build(taxa, tuple(range(n)))
    if shape == "caterpillar":
        order = rng.sample(range(n), n)
        nested = (order[0], order[1])
        for t in order[2:-1]:
            nested = (nested, t)
        # rooted: the last taxon hangs from the root; unrooted: from the handle
        return build(taxa, (nested, order[-1]) if kind is Kind.ROOTED else nested + (order[-1],))
    return random_partial(n, kind, rng, rng.choice((0.3, 0.6)), taxa)


def contraction(tree: Phylogeny, rng: random.Random) -> Phylogeny:
    """`tree` with each of its internal edges contracted with probability 1/2."""
    return contract(tree, *(v for v in tree.internal_nodes()
                            if tree.parent[v] >= 0 and rng.random() < 0.5))


@st.composite
def classification_pairs(draw, kind: Kind, max_n=14):
    """Pairs over 1..max_n taxa: fans (stars), caterpillars, binary and
    partially resolved trees, and trees paired with one of their
    contractions, so that wide polytomies are common."""
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    taxa = TaxonSet(tuple(f"t{i}" for i in range(n)))
    a = shaped(kind, draw(st.sampled_from(SHAPES)), taxa, rng)
    if draw(st.booleans()):
        return a, contraction(a, rng)
    return a, shaped(kind, draw(st.sampled_from(SHAPES)), taxa, rng)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
