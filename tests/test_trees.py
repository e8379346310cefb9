import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SHAPES, induced, rooted_trees, shaped, unrooted_trees
from polydist import triplet
from polydist.newick import parse_newick
from polydist.oracle import (
    TOPOLOGY_BLOCK_ROWS,
    UNRESOLVED,
    QuartetTopology,
    TripletTopology,
    enumerate_phylogenies,
    topology_by_restriction,
    topology_codes,
)
from polydist.trees import (
    Kind,
    Phylogeny,
    TaxonSet,
    TreeError,
    check_pair,
    contract,
    is_refinement,
    per_tree,
    pull_2_out,
    pull_out,
    restrict,
)


def test_check_pair():
    rooted = Phylogeny.rooted("abc", (("a", "b"), "c"))
    unrooted = Phylogeny.unrooted("abc", ("a", "b", "c"))
    other = Phylogeny.rooted("abd", (("a", "b"), "d"))
    check_pair(rooted, rooted)
    check_pair(unrooted, unrooted, Kind.UNROOTED)
    for args in ((rooted, unrooted), (unrooted, rooted), (rooted, rooted, Kind.UNROOTED),
                 (rooted, other), (other, rooted)):
        with pytest.raises(TreeError):
            check_pair(*args)


def test_taxon_set_rejects_duplicates_and_empties():
    with pytest.raises(TreeError):
        TaxonSet(("a", "a"))
    with pytest.raises(TreeError):
        TaxonSet(("a", ""))
    with pytest.raises(TreeError):
        TaxonSet(())


def test_basic_shape_accessors():
    t = Phylogeny.rooted("abcd", (("a", "b"), "c", "d"))
    assert t.n == 4
    # nested input is numbered in preorder
    assert t.children == ((1, 4, 5), (2, 3), (), (), (), ())
    assert sorted(x for x in t.leaf_taxon if x is not None) == [0, 1, 2, 3]
    assert t.unresolved_nodes() == [t.root]
    assert not t.is_fully_resolved()
    b = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
    assert b.is_fully_resolved()


def test_validate_flags_problems():
    # a hand-built parent array with a unary chain and a missing taxon
    taxa = TaxonSet(("a", "b"))
    t = Phylogeny(Kind.ROOTED, taxa, [-1, 0, 1], [None, None, 0])
    assert t.validate() != []
    # arrays that are not one tree are rejected outright
    for parent, leaf_taxon in (
        ([-1, 0], [None, 0, 1]),  # lengths differ
        ([-1, -1, 0], [None, 0, 1]),  # two roots
        ([1, 0], [0, 1]),  # no root
        ([-1, 2, 1, 0], [None, 0, 1, None]),  # 1 and 2 form a cycle
        ([-1, 0, 3], [None, 0, 1]),  # parent out of range
    ):
        with pytest.raises(TreeError):
            Phylogeny(Kind.ROOTED, taxa, parent, leaf_taxon)


def test_unrooted_degree_rule():
    t = Phylogeny.unrooted("abcd", ("a", "b", "c", "d"))
    assert t.validate() == []
    assert t.is_unresolved(t.root)
    bin4 = Phylogeny.unrooted("abcd", (("a", "b"), "c", "d"))
    assert bin4.is_fully_resolved()


def test_triplet_topologies():
    t = Phylogeny.rooted("abc", (("a", "b"), "c"))
    assert induced(t, ("a", "b", "c")) is TripletTopology.C_AB
    t = Phylogeny.rooted("abc", (("a", "c"), "b"))
    assert induced(t, ("a", "b", "c")) is TripletTopology.B_AC
    fan = Phylogeny.rooted("abc", ("a", "b", "c"))
    assert induced(fan, ("a", "b", "c")) is TripletTopology.FAN


def test_quartet_topologies():
    t = Phylogeny.unrooted("abcd", (("a", "b"), "c", "d"))
    assert induced(t, "abcd") is QuartetTopology.AB_CD
    t = Phylogeny.unrooted("abcd", (("a", "c"), "b", "d"))
    assert induced(t, "abcd") is QuartetTopology.AC_BD
    star = Phylogeny.unrooted("abcd", ("a", "b", "c", "d"))
    assert induced(star, "abcd") is QuartetTopology.STAR


def test_restrict_small_cases():
    t = Phylogeny.rooted("abcde", ((("a", "b"), "c"), ("d", "e")))
    sub = restrict(t, ("a", "d", "e"))
    assert sub.taxa.labels == ("a", "d", "e")
    assert induced(sub, (0, 1, 2)) is TripletTopology.A_BC
    # unrooted restriction that forces handle splicing
    u = Phylogeny.unrooted("abcdef", ((("a", "b"), "c"), ("d", "e"), "f"))
    sub = restrict(u, ("a", "b", "d", "e"))
    assert sub.validate() == []
    assert induced(sub, (0, 1, 2, 3)) is QuartetTopology.AB_CD


@given(rooted_trees())
@settings(max_examples=60, deadline=None)
def test_topology_agrees_with_restriction_route(tree):
    import itertools
    for X in itertools.islice(itertools.combinations(range(tree.n), 3), 25):
        assert induced(tree, X) is topology_by_restriction(tree, X)


@given(unrooted_trees())
@settings(max_examples=40, deadline=None)
def test_quartet_topology_agrees_with_restriction_route(tree):
    import itertools
    for X in itertools.islice(itertools.combinations(range(tree.n), 4), 25):
        assert induced(tree, X) is topology_by_restriction(tree, X)


@pytest.mark.parametrize("n, kind", [(n, Kind.ROOTED) for n in (3, 4, 5)]
                         + [(n, Kind.UNROOTED) for n in (4, 5, 6)])
def test_topology_codes_on_every_tree(n, kind):
    # all of tree space, so every fan and star, where the tie rule decides
    size, names = (3, TripletTopology) if kind is Kind.ROOTED else (4, QuartetTopology)
    rows = np.array(list(itertools.combinations(range(n), size)))
    unresolved = 0
    for tree in enumerate_phylogenies(n, kind):
        codes = topology_codes(tree, rows)
        assert [tuple(names)[c] for c in codes] == \
            [topology_by_restriction(tree, row) for row in rows.tolist()]
        unresolved += int(np.count_nonzero(codes == UNRESOLVED))
    assert unresolved > 0


@pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
def test_lca_table_is_one_int32_table(kind):
    n = 3000
    labels = [f"t{i:04d}" for i in range(n)]  # taxon index i
    shuffled = labels.copy()
    random.Random(0).shuffle(shuffled)
    # the second spine's leaf order is not its taxon order
    for spine_labels in (labels, shuffled):
        tree = _caterpillar(spine_labels, kind)
        spine = np.array([tree.taxa.index(x) for x in spine_labels])
        assert np.array_equal(tree.leaf_ranges()[0], spine)
        table = tree.leaf_lca_tables()
        assert isinstance(table, np.ndarray) and table.dtype == np.int32
        assert table.shape == (n, n) and not table.flags.writeable
        assert tree.leaf_lca_tables() is table
        i = np.arange(n, dtype=np.int32)
        if kind is Kind.ROOTED:
            # over leaf positions, whatever the taxon order: the j-th leaf
            # of ((l0,l1),l2)... joins the leaves before it at depth n - 1 - j
            expected = n - 1 - np.maximum.outer(i, i)
            expected[i, i] = np.minimum(n - i, n - 1)
            assert np.array_equal(table, expected)
        # a caterpillar orders taxa along its spine: in a triplet the taxon
        # furthest along is apart, and a quartet splits into its first two
        # taxa along the spine and its last two; the rows fill more than
        # one block of topology_codes
        rng = np.random.default_rng(0)
        size = 3 if kind is Kind.ROOTED else 4
        rows = np.sort(rng.integers(0, n, (TOPOLOGY_BLOCK_ROWS + 300, size)), axis=1)
        rows = rows[(np.diff(rows, axis=1) > 0).all(axis=1)]
        assert len(rows) > TOPOLOGY_BLOCK_ROWS
        # each taxon's rank along the spine within its row
        along = np.argsort(np.argsort(np.argsort(spine)[rows], axis=1), axis=1)
        if kind is Kind.ROOTED:  # 0 = a|bc, 1 = b|ac, 2 = c|ab
            expected_codes = np.argmax(along, axis=1)
        else:  # 0 = ab|cd, 1 = ac|bd, 2 = ad|bc: the taxon that shares a's half
            first = along < 2
            expected_codes = np.argmax(first[:, 1:] == first[:, :1], axis=1)
        assert np.array_equal(topology_codes(tree, rows), expected_codes)


@pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
def test_lca_table_build_holds_one_table(kind):
    # a cold build allocates the table and little else: no second (n, n)
    # table is live at any point of the build
    labels = [f"t{i}" for i in range(2000)]
    random.Random(1).shuffle(labels)
    tree = _caterpillar(labels, kind)
    tracemalloc.start()
    try:
        table = tree.leaf_lca_tables()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.nbytes


def test_pull_out_and_contract_are_inverse_in_shape():
    fan = Phylogeny.rooted("abcd", ("a", "b", "c", "d"))
    child_a = next(c for c in fan.children[fan.root] if fan.leaf_taxon[c] == 0)
    pulled = pull_out(fan, child_a)
    assert pulled.validate() == []
    assert is_refinement(fan, pulled)
    assert not is_refinement(pulled, fan)
    # contracting the fresh internal edge restores the fan
    new_internal = next(v for v in pulled.internal_nodes() if v != pulled.root)
    back = contract(pulled, new_internal)
    assert back.isomorphic(fan)


def test_pull_out_requires_wide_parent():
    t = Phylogeny.rooted("abc", (("a", "b"), "c"))
    with pytest.raises(TreeError):
        pull_out(t, t.children[t.root][0])


def test_pull_2_out():
    star = Phylogeny.unrooted("abcde", tuple("abcde"))
    q, r = star.children[star.root][:2]
    out = pull_2_out(star, q, r)
    assert out.validate() == []
    assert is_refinement(star, out)
    assert induced(out, (0, 1, 2, 3)) is QuartetTopology.AB_CD
    with pytest.raises(TreeError):
        pull_2_out(out, 0, 1)  # shared neighbor now has degree 3


@st.composite
def pulls(draw, max_n=14):
    """A conftest shape with a polytomy v, and the neighbors of v that a
    Pull-Out (a child, rooted) or a Pull-2-Out (any two, unrooted) keeps."""
    kind = draw(st.sampled_from(Kind))
    n = draw(st.integers(4 if kind is Kind.ROOTED else 5, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = shaped(kind, draw(st.sampled_from(("partial", "fan", "caterpillar"))),
                  TaxonSet(tuple(f"t{i}" for i in range(n))), rng)
    if not tree.unresolved_nodes():
        tree = contract(tree, *(v for v in tree.internal_nodes() if tree.parent[v] >= 0))
    v = draw(st.sampled_from(tree.unresolved_nodes()))
    if kind is Kind.ROOTED:
        return tree, v, (draw(st.sampled_from(tree.children[v])),)
    return tree, v, tuple(draw(st.permutations(tree.neighbors(v)))[:2])


@given(pulls())
@settings(max_examples=150, deadline=None)
def test_pulls_split_one_node_in_place(case):
    tree, v, pulled = case
    m = tree.num_nodes
    if tree.kind is Kind.ROOTED:
        out = pull_out(tree, pulled[0])
        keep = set(pulled) | ({tree.parent[v]} - {-1})
        new_edge = tree.subtree_taxa(v) - tree.subtree_taxa(pulled[0])
    else:
        out = pull_2_out(tree, *pulled)
        keep = set(pulled)
        side = frozenset().union(*(tree.subtree_taxa(w) if tree.parent[w] == v
                                   else frozenset(range(tree.n)) - tree.subtree_taxa(v)
                                   for w in pulled))
        new_edge = side if 0 in side else frozenset(range(tree.n)) - side
    assert out.validate() == []
    assert new_edge not in _edges(tree)
    assert _edges(out) == _edges(tree) | {new_edge}
    # v keeps `keep`, the new node m takes v's other neighbors, and every
    # other node keeps its id, its taxon and its parent unless it moved to m
    assert out.num_nodes == m + 1 and out.leaf_taxon == tree.leaf_taxon + (None,)
    assert set(out.neighbors(v)) == keep | {m}
    assert set(out.neighbors(m)) == set(tree.neighbors(v)) - keep | {v}
    for w in range(m):
        moved = w != v and tree.parent[w] == v and w not in keep
        assert out.parent[w] == (m if moved else tree.parent[w]) or w == v


def test_refinement_partial_order():
    fan = Phylogeny.rooted("abcd", ("a", "b", "c", "d"))
    mid = Phylogeny.rooted("abcd", (("a", "b"), "c", "d"))
    top = Phylogeny.rooted("abcd", ((("a", "b"), "c"), "d"))
    other = Phylogeny.rooted("abcd", ((("a", "c"), "b"), "d"))
    assert is_refinement(fan, mid) and is_refinement(mid, top)
    assert is_refinement(fan, top)
    assert not is_refinement(mid, other)
    assert not is_refinement(top, mid)


def test_canonical_key_is_label_sensitive():
    t1 = Phylogeny.rooted("abc", (("a", "b"), "c"))
    t2 = Phylogeny.rooted("abc", (("c", "b"), "a"))
    t3 = Phylogeny.rooted("abc", (("b", "a"), "c"))
    assert not t1.isomorphic(t2)
    assert t1.isomorphic(t3)


def _caterpillar(labels, kind: Kind, mirror: bool = False) -> Phylogeny:
    """The caterpillar ((((l0,l1),l2),...)); unrooted with l[-2] and l[-1]
    at the handle; `mirror` lists every cherry's children the other way."""
    inner = labels if kind is Kind.ROOTED else labels[:-2]
    text = inner[0]
    for t in inner[1:]:
        text = f"({t},{text})" if mirror else f"({text},{t})"
    if kind is Kind.UNROOTED:
        text = f"({labels[-1]},{labels[-2]},{text})" if mirror else \
            f"({text},{labels[-2]},{labels[-1]})"
    return parse_newick(text + ";", kind)


@pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
def test_deep_caterpillar_key_and_restriction(kind):
    # 1200 nesting levels: neither may recurse once per level
    labels = [f"t{i}" for i in range(1200)]
    tree = _caterpillar(labels, kind)
    assert tree.canonical_key() == _caterpillar(labels, kind, mirror=True).canonical_key()
    swapped = labels.copy()
    swapped[0], swapped[600] = swapped[600], swapped[0]
    assert not tree.isomorphic(_caterpillar(swapped, kind))
    sub = restrict(tree, labels[::2])
    assert sub.validate() == []
    assert sorted(sub.taxa.labels) == sorted(labels[::2])
    assert sub.canonical_key() == _caterpillar(labels[::2], kind).canonical_key()


@pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
def test_deep_nested_construction(kind):
    # 1200 nesting levels: building from nested tuples must not recurse once per level
    labels = [f"t{i}" for i in range(1200)]
    inner = labels if kind is Kind.ROOTED else labels[:-2]
    nested = inner[0]
    for t in inner[1:]:
        nested = (nested, t)
    if kind is Kind.ROOTED:
        tree = Phylogeny.rooted(labels, nested)
    else:
        tree = Phylogeny.unrooted(labels, (nested, labels[-2], labels[-1]))
    assert tree.n == 1200 and tree.validate() == []
    assert tree.canonical_key() == _caterpillar(labels, kind).canonical_key()
    # preorder ids: the root first, every node before its children
    assert tree.root == 0
    assert all(c > v for v in range(tree.num_nodes) for c in tree.children[v])
    assert [t for t in tree.leaf_taxon if t is not None] == list(range(1200))


def test_unrooted_isomorphism_ignores_handle_placement():
    a = Phylogeny.unrooted("abcd", (("a", "b"), "c", "d"))
    b = Phylogeny.unrooted("abcd", (("c", "d"), "a", "b"))
    assert a.isomorphic(b)


@given(rooted_trees())
@settings(max_examples=50, deadline=None)
def test_subtree_sizes_sum(tree):
    alpha = tree.subtree_sizes()
    assert alpha[tree.root] == tree.n
    for v in tree.internal_nodes():
        assert alpha[v] == sum(alpha[c] for c in tree.children[v])


@st.composite
def edited_trees(draw, max_n=14):
    """The conftest shapes, rooted or unrooted, after one Pull-Out (rooted),
    Pull-2-Out (unrooted) or contraction where the tree allows it."""
    kind = draw(st.sampled_from(Kind))
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = shaped(kind, draw(st.sampled_from(SHAPES)),
                  TaxonSet(tuple(f"t{i}" for i in range(n))), rng)
    edit = draw(st.sampled_from(("none", "pull", "contract")))
    if edit == "contract":
        edges = [v for v in tree.internal_nodes() if tree.parent[v] >= 0]
        if edges:
            tree = contract(tree, rng.choice(edges))
    elif edit == "pull" and tree.unresolved_nodes():
        v = rng.choice(tree.unresolved_nodes())
        if kind is Kind.ROOTED:
            tree = pull_out(tree, rng.choice(tree.children[v]))
        else:
            tree = pull_2_out(tree, *rng.sample(tree.neighbors(v), 2))
    return tree


@given(edited_trees())
@settings(max_examples=80, deadline=None)
def test_side_layout_matches_subtree_taxa(tree):
    # the taxa below each node, from each leaf's walk up the parent pointers
    taxa_below = [set() for _ in range(tree.num_nodes)]
    for v, t in enumerate(tree.leaf_taxon):
        while t is not None and v >= 0:
            taxa_below[v].add(t)
            v = tree.parent[v]
    order, lo, hi = tree.leaf_ranges()
    assert sorted(order.tolist()) == list(range(tree.n))
    for v, below in enumerate(taxa_below):
        assert set(order[lo[v]:hi[v]].tolist()) == below
        assert tree.subtree_taxa(v) == below
    assert tree.subtree_sizes().tolist() == [len(below) for below in taxa_below]
    groups = tree.node_sides()
    assert tree.node_sides() is groups
    counts = [rows.shape[0] - 1 for rows, _ in groups]
    assert counts == sorted(set(counts))
    seen = []
    for rows, sizes in groups:
        assert rows.flags.c_contiguous and sizes.flags.c_contiguous
        for row, size in zip(rows.T.tolist(), sizes.T.tolist()):
            v = row[-1]
            seen.append(v)
            assert tuple(row[:-1]) == tree.children[v]
            assert size == ([len(taxa_below[c]) for c in tree.children[v]]
                            + [tree.n - len(taxa_below[v])])
    assert sorted(seen) == tree.internal_nodes()
    # callers share the cached arrays, so none of them may be written
    for shared in (order, lo, hi, *(a for group in groups for a in group)):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[...] = 0


def _arrays(value) -> list[np.ndarray]:
    """Every array in a cached value, through its tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for part in value for a in _arrays(part)]
    return []


@pytest.mark.parametrize("kind", list(Kind))
def test_per_tree_caches_each_value_once_per_tree(kind):
    builds = []

    @per_tree
    def layout(tree):
        builds.append(tree)
        return np.arange(tree.n), [(np.zeros(2), "label")]

    tree = shaped(kind, "partial", TaxonSet(tuple(f"t{i}" for i in range(30))),
                  random.Random(3))
    copy = contract(tree)  # an isomorphic copy, a tree of its own
    first = layout(tree)
    assert layout(tree) is first and builds == [tree]
    assert layout(copy) is not first and builds == [tree, copy]
    # each cached value is shared by every call on one tree, read-only,
    # and never shared with another tree
    for cached in (layout, Phylogeny.leaf_ranges, Phylogeny.node_sides,
                   Phylogeny.leaf_lca_tables, Phylogeny.canonical_key, triplet._layout):
        value = cached(tree)
        assert cached(tree) is value
        others = _arrays(cached(copy))
        for a in _arrays(value):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
            assert not any(np.shares_memory(a, b) for b in others)


def _edges(tree: Phylogeny) -> frozenset[frozenset[int]]:
    return tree.clusters() if tree.kind is Kind.ROOTED else tree.splits()


def _edge_above(tree: Phylogeny, v: int) -> frozenset[int]:
    """The cluster below v (rooted), or the split of v's edge keyed like
    `splits` by the side holding taxon 0 (unrooted)."""
    side = tree.subtree_taxa(v)
    if tree.kind is Kind.ROOTED or 0 in side:
        return side
    return frozenset(range(tree.n)) - side


@st.composite
def contractions(draw, max_n=14):
    """A conftest shape, rooted or unrooted, and a set of its internal
    non-root nodes, which often holds a node and its parent."""
    kind = draw(st.sampled_from(Kind))
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = shaped(kind, draw(st.sampled_from(SHAPES)),
                  TaxonSet(tuple(f"t{i}" for i in range(n))), rng)
    inner = [v for v in tree.internal_nodes() if tree.parent[v] >= 0]
    return tree, sorted(draw(st.sets(st.sampled_from(inner)))) if inner else []


@given(contractions())
@settings(max_examples=150, deadline=None)
def test_contract_removes_exactly_the_chosen_edges(case):
    tree, chosen = case
    out = contract(tree, *chosen)
    assert out.validate() == []
    assert _edges(out) == _edges(tree) - {_edge_above(tree, v) for v in chosen}
    assert contract(tree).isomorphic(tree)
    leaf = tree.leaf_of_taxon(0)
    for bad in (tree.root, leaf):
        with pytest.raises(TreeError):
            contract(tree, *chosen, bad)


@pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
def test_contract_merges_a_chain_into_its_top(kind):
    # preorder ids: the spine runs 1 = (abc)d, 2 = (ab)c, 3 = ab
    build = Phylogeny.rooted if kind is Kind.ROOTED else Phylogeny.unrooted
    tree = build("abcdef", (((("a", "b"), "c"), "d"), "e", "f"))
    assert [sorted(tree.subtree_taxa(v)) for v in (1, 2, 3)] == [[0, 1, 2, 3], [0, 1, 2], [0, 1]]
    # 2 merges into its parent 1, which merges into the root
    assert contract(tree, 1, 2).isomorphic(build("abcdef", (("a", "b"), "c", "d", "e", "f")))
    assert contract(tree, 3, 2, 1).isomorphic(build("abcdef", tuple("abcdef")))
    assert contract(tree, 2).isomorphic(build("abcdef", ((("a", "b"), "c", "d"), "e", "f")))
