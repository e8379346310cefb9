"""Every tree builder and edit pinned by a golden hash of its node arrays.

Each digest is the sha256 of the (parent, leaf_taxon) pairs of the trees
one builder makes over a fixed grid of seeded inputs, both kinds: node ids
are part of the pinned output, not only the tree's shape.
"""

import hashlib
import random

import pytest

from polydist.expected import add_leaf, tree_at, tree_count
from polydist.newick import parse_newick, write_newick
from polydist.oracle import enumerate_phylogenies
from polydist.randgen import random_partial
from polydist.trees import Kind, Phylogeny, contract, pull_2_out, pull_out, restrict

SIZES = (1, 2, 3, 50, 1000)
TEXTS = {
    Kind.ROOTED: ("((a:1,b)x:2,[c]c,'d e');", "(((a,b),c),(d,(e,f)));", "a;", "(a,b);"),
    Kind.UNROOTED: ("((a:1,b)x:2,[c]c,'d e');", "((a,b),c,(d,(e,f)));", "a;", "(a,b);"),
}


def digest(trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        h.update(repr((tuple(t.parent), tuple(t.leaf_taxon))).encode() + b"\n")
    return h.hexdigest()


def partials(kind: Kind):
    return [random_partial(n, kind, random.Random(7 * n + (kind is Kind.ROOTED)),
                           contract_prob=0.4) for n in SIZES]


def nested(tree, v=None):
    """The tree below v as nested tuples of taxon indices, children reversed
    so that the rebuilt tree numbers its nodes differently."""
    v = tree.root if v is None else v
    out = {}
    for w in tree.postorder():
        t = tree.leaf_taxon[w]
        out[w] = t if t is not None else tuple(out.pop(c) for c in reversed(tree.children[w]))
    return out[v]


def parsed(kind):
    return [parse_newick(text, kind) for text in TEXTS[kind]] + \
        [parse_newick(write_newick(t), kind) for t in partials(kind)]


def built_from_nested(kind):
    build = Phylogeny.rooted if kind is Kind.ROOTED else Phylogeny.unrooted
    out = [build(t.taxa, nested(t)) for t in partials(kind)]
    return out + list(enumerate_phylogenies(5 if kind is Kind.ROOTED else 6, kind))


def contracted(kind):
    out = []
    for t in partials(kind):
        rng = random.Random(t.n)
        out.append(contract(t))
        out.append(contract(t, *(v for v in t.internal_nodes()
                                 if t.parent[v] >= 0 and rng.random() < 0.5)))
    return out


def restricted(kind):
    out = []
    for t in partials(kind):
        rng = random.Random(t.n)
        for k in sorted({1, 2, 3, t.n // 2, t.n - 1} & set(range(1, t.n + 1))):
            out.append(restrict(t, rng.sample(range(t.n), k)))
    return out


def pulled(kind):
    out = []
    for t in partials(kind):
        rng = random.Random(t.n)
        polytomies = t.unresolved_nodes()
        for v in rng.sample(polytomies, min(25, len(polytomies))):
            if kind is Kind.ROOTED:
                out.append(pull_out(t, rng.choice(t.children[v])))
            else:
                out.append(pull_2_out(t, *rng.sample(t.neighbors(v), 2)))
    return out


def indexed(kind):
    rng = random.Random(3)
    out = [tree_at(n, kind, i) for n in range(1, 6) for i in range(tree_count(n, kind))]
    return out + [tree_at(n, kind, rng.randrange(tree_count(n, kind))) for n in (30, 200)]


def leaf_added(kind):
    rng = random.Random(4)
    return [add_leaf(t) for t in partials(Kind.ROOTED)] + \
        [add_leaf(tree_at(n, Kind.ROOTED, rng.randrange(tree_count(n, Kind.ROOTED))))
         for n in (1, 2, 3, 4, 40)]


BUILDERS = {
    "random_partial": partials, "parse_newick": parsed, "nested": built_from_nested,
    "contract": contracted, "restrict": restricted, "pull": pulled,
    "tree_at": indexed, "add_leaf": leaf_added,
}

GOLDEN = {
    ("random_partial", "rooted"): "cbb5354652e712cb3d039e72808cc8e436d7cfc410b9cfbef179054535a80445",
    ("random_partial", "unrooted"): "02a8cf1e569561b75f81989b376a2fda3d66d33ea78adf92d728e9def57db34e",
    ("parse_newick", "rooted"): "3be2d0cdc5be4867cffb082a646ef86dad3eb45622580da11a4aa07747eccb4c",
    ("parse_newick", "unrooted"): "3e07788171377e557c5e7082362bf922013c26832fe85ad4a7badcab9fe00d61",
    ("nested", "rooted"): "dde6cf9aa221f8ee5279346d3fbc4ef8b222b2ff74a8ff77eb4c5e66ff91e0c1",
    ("nested", "unrooted"): "c7882ebe26146a327dec78a7854ae5f33cd87bd0fcdf7a3b82224cde4c38d603",
    ("contract", "rooted"): "2f4223c0267ff435b71aea2f29aa932e438df3354c3a1891d5c3465aea2607dd",
    ("contract", "unrooted"): "4b03ebee76640374696b063fb414abca7ece7eed0da29ee31469089e8eecb0ef",
    ("restrict", "rooted"): "4f2049c910f022090b4b4be97c1f45a8ef718d7e299983f3cee96c1e472e4d72",
    ("restrict", "unrooted"): "9608060edc14e1b3e83b7ad5a3b6888fea76c8b6b383d3c184085fc504b36d59",
    ("pull", "rooted"): "b7fd55e38d587a27c1b2dc2891e905c95bfad64f0b69b9c0fc09d9e388198522",
    ("pull", "unrooted"): "2558acd9100f302fdd79a747f978004c3c3de27fa490d6cd82f3386fdb9ca0c7",
    ("tree_at", "rooted"): "decc81bc795f85fb501458cc19c5caa131383f4a57f6b1da196c9bccd4ff64aa",
    ("tree_at", "unrooted"): "3c19d1697c84950ec5c762d03dcaffebd16fa05344609de3ffef9bde7b64b113",
    ("add_leaf", "rooted"): "b1555dc997b58987e73d0d46dddfba370a0892f3da00f0b8f714a7d8a8476423",
}


@pytest.mark.parametrize("builder, kind", [(b, k) for b in BUILDERS for k in Kind
                                           if (b, k) != ("add_leaf", Kind.UNROOTED)])
def test_builder_output_is_pinned(builder, kind):
    trees = BUILDERS[builder](kind)
    assert all(t.validate() == [] for t in trees)
    assert digest(trees) == GOLDEN[builder, kind.value]
