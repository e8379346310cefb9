"""Rooted and unrooted multifurcating phylogenies over a fixed taxon set.

A `Phylogeny` is an immutable leaf-labeled tree stored as an integer node
arena made from one parent array: the root is the one node whose parent
is -1, and the children lists, in id order, and the postorder are derived
once, by the walk from the root that also checks the array is one tree.
Every builder writes parents directly, as it creates each node knowing its
parent.  Rooted trees have a semantic root; for unrooted trees the same
array holds an arbitrary orientation from a distinguished "handle" node,
which carries no meaning beyond giving the traversal code a place to
start.  A tree never changes, so what is derived from it is computed once
and cached on it by `per_tree`.  Every counting kernel reads the side
layout each tree caches: `leaf_ranges` (subtrees as ranges of the leaf
order) and `node_sides` (children and subtree complement of each node).

The module also provides the elementary edits: `pull_out` and
`pull_2_out`, with which the consensus and Hausdorff machinery refine a
polytomy, are one in-place split of a node on the parent array, and
`contract` merges any set of internal edges in one pass.  Restriction to a
taxon subset, the refinement partial order and canonical forms for
isomorphism checks complete it.  `leaf_lca_tables`, the (n, n) table of
LCA depths, serves the oracle's topology codes only: no distance or
consensus kernel builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import wraps
from typing import Iterable, Sequence

import numpy as np


class TreeError(ValueError):
    """Invalid tree structure or an operation applied out of its domain."""


class Kind(Enum):
    ROOTED = "rooted"
    UNROOTED = "unrooted"


@dataclass(frozen=True)
class TaxonSet:
    """Ordered set of unique taxon labels; index i <-> labels[i]."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise TreeError("taxon set must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise TreeError("duplicate taxon labels")
        if any(not lab for lab in self.labels):
            raise TreeError("empty taxon label")
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, taxon) -> int:
        """Map a label (or an already-resolved integer index) to its index."""
        if isinstance(taxon, str):
            try:
                return self._index[taxon]
            except KeyError:
                raise TreeError(f"unknown taxon {taxon!r}") from None
        i = int(taxon)
        if not 0 <= i < self.n:
            raise TreeError(f"taxon index {i} out of range")
        return i

    def label(self, i: int) -> str:
        return self.labels[i]

    @classmethod
    def of(cls, labels: Iterable[str]) -> "TaxonSet":
        return cls(tuple(labels))


def per_tree(compute):
    """Cache `compute(tree)` on the tree under its name: a Phylogeny never
    changes, so the value is computed on the first call and shared by every
    later one, and each array in it (or in its tuples and lists) is made
    read-only, since the callers share it.  `Phylogeny.__init__` seeds
    `postorder`, the walk with which it checks the parent array."""
    name = compute.__name__

    @wraps(compute)
    def cached(tree):
        value = tree._cache.get(name)
        if value is None:
            value = tree._cache[name] = compute(tree)
            _freeze(value)
        return value
    return cached


def _freeze(value) -> None:
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for part in value:
            _freeze(part)


class Phylogeny:
    """Immutable phylogeny over a TaxonSet, made from a parent array.

    Nodes are integers 0..m-1.  `parent[v]` is v's parent in the stored
    orientation and -1 for the one root (the handle, unrooted);
    `children[v]` lists v's children in id order, derived once from the
    parents.  Leaves are in bijection with taxa via `leaf_taxon[v]`.
    TreeError unless the arrays are one tree: equal lengths, parents in
    range, exactly one root and no cycle.
    """

    __slots__ = ("kind", "taxa", "children", "parent", "root", "leaf_taxon", "_cache")

    def __init__(self, kind: Kind, taxa: TaxonSet, parent: Sequence[int],
                 leaf_taxon: Sequence[int | None]):
        m = len(parent)
        if len(leaf_taxon) != m:
            raise TreeError("parent and leaf_taxon arrays differ in length")
        children: list[list[int]] = [[] for _ in range(m)]
        roots = []
        for v, p in enumerate(parent):
            if p == -1:
                roots.append(v)
            elif 0 <= p < m:
                children[p].append(v)
            else:
                raise TreeError(f"node {v}: parent {p} out of range")
        if len(roots) != 1:
            raise TreeError(f"tree needs exactly one root, found {len(roots)}")
        # every node has one parent, so the walk from the root meets each
        # node at most once, and misses exactly the nodes on a cycle
        order, stack = [], roots[:]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(children[v])
        if len(order) != m:
            raise TreeError("parent array has a cycle")
        order.reverse()  # children before parents, each node's children in order
        self.kind = kind
        self.taxa = taxa
        self.children = tuple(map(tuple, children))
        self.parent = tuple(parent)
        self.root = roots[0]
        self.leaf_taxon = tuple(leaf_taxon)
        self._cache: dict = {"postorder": order}

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return self.taxa.n

    @property
    def num_nodes(self) -> int:
        return len(self.children)

    def is_leaf(self, v: int) -> bool:
        return self.leaf_taxon[v] is not None

    def neighbors(self, v: int) -> tuple[int, ...]:
        if self.parent[v] >= 0:
            return self.children[v] + (self.parent[v],)
        return self.children[v]

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (1 if self.parent[v] >= 0 else 0)

    def internal_nodes(self) -> list[int]:
        return [v for v in range(self.num_nodes) if not self.is_leaf(v)]

    def leaf_of_taxon(self, taxon) -> int:
        return self._leaf_of_taxa()[self.taxa.index(taxon)]

    @per_tree
    def _leaf_of_taxa(self) -> list[int]:
        table = [-1] * self.n
        for v, t in enumerate(self.leaf_taxon):
            if t is not None:
                table[t] = v
        return table

    def is_unresolved(self, v: int) -> bool:
        """Polytomy test: >2 children (rooted) or degree >3 (unrooted)."""
        if self.is_leaf(v):
            return False
        if self.kind is Kind.ROOTED:
            return len(self.children[v]) > 2
        return self.degree(v) > 3

    def unresolved_nodes(self) -> list[int]:
        return [v for v in self.internal_nodes() if self.is_unresolved(v)]

    def is_fully_resolved(self) -> bool:
        return not self.unresolved_nodes()

    # -- traversals and per-node tables ---------------------------------

    @per_tree
    def postorder(self) -> list[int]:
        """Children before parents, each node's children in stored order."""
        raise AssertionError("Phylogeny.__init__ seeds the postorder")

    @per_tree
    def leaf_ranges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, lo, hi): the taxa in postorder leaf order, and for each
        node v the range order[lo[v]:hi[v]] of the taxa below it, in the
        stored orientation.
        """
        order, lo, hi = [], [0] * self.num_nodes, [0] * self.num_nodes
        for v in self.postorder():
            t = self.leaf_taxon[v]
            if t is None:
                lo[v], hi[v] = lo[self.children[v][0]], hi[self.children[v][-1]]
            else:
                lo[v], hi[v] = len(order), len(order) + 1
                order.append(t)
        return tuple(np.array(a, dtype=np.int64) for a in (order, lo, hi))

    def subtree_sizes(self) -> np.ndarray:
        """alpha[v] = number of leaves in the oriented subtree at v."""
        _, lo, hi = self.leaf_ranges()
        return hi - lo

    @per_tree
    def node_sides(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Internal nodes grouped by child count d, as (rows, sizes) per group
        in increasing child count, each C-contiguous int64 of shape (d + 1, g)
        for the group's g nodes.

        Sides come first and nodes last: rows[j, i] is side j of the i-th
        node, its children and then the node itself standing for the
        complement of its subtree (empty at the root), so side sets do not
        depend on the orientation; sizes[j, i] is the number of leaves in
        that side.  The kernels reduce over the few sides, and with the
        nodes last each such sum adds whole contiguous vectors of nodes.
        """
        by_count: dict[int, list[tuple[int, ...]]] = {}
        for v in self.internal_nodes():
            by_count.setdefault(len(self.children[v]), []).append(self.children[v] + (v,))
        groups = []
        for _, rows in sorted(by_count.items()):
            rows = np.array(rows, dtype=np.int64).T.copy()
            sizes = self.subtree_sizes()[rows]
            sizes[-1] = self.n - sizes[-1]
            groups.append((rows, sizes))
        return groups

    def subtree_taxa(self, v: int) -> frozenset[int]:
        """The taxa below v in the stored orientation, read off `leaf_ranges`."""
        order, lo, hi = self.leaf_ranges()
        return frozenset(order[lo[v]:hi[v]].tolist())

    @per_tree
    def leaf_lca_tables(self) -> np.ndarray:
        """L: the (n, n) int32 table of LCA depths over leaf positions, L[i, j]
        the number of edges from the root (the handle, unrooted) down to the
        LCA of the taxa order[i] and order[j] of `leaf_ranges`, in the stored
        orientation; 4n^2 bytes.

        Computed once per tree in O(n^2): each subtree holds a range of the
        leaf order, and the pairs whose LCA is v are the blocks between each
        child's range and the rest of v's range, so each node writes its
        depth into its own blocks of the one table.  Every depth is below
        the node count, itself below 2n.
        """
        _, lo, hi = self.leaf_ranges()
        lo, hi = lo.tolist(), hi.tolist()
        table = np.empty((self.n, self.n), dtype=np.int32)
        depth = [0] * self.num_nodes
        for v in reversed(self.postorder()):  # parents before children
            if v != self.root:
                depth[v] = depth[self.parent[v]] + 1
            if self.leaf_taxon[v] is not None:
                table[lo[v], lo[v]] = depth[v]
            for c in self.children[v]:
                table[lo[c]:hi[c], lo[v]:lo[c]] = depth[v]
                table[lo[c]:hi[c], hi[c]:hi[v]] = depth[v]
        return table

    # -- validation ------------------------------------------------------

    def validate(self) -> list[str]:
        """Return all invariant violations (empty list when valid)."""
        problems = []
        seen_taxa = {}
        for v in range(self.num_nodes):
            t = self.leaf_taxon[v]
            if t is not None:
                if self.children[v]:
                    problems.append(f"node {v}: leaf with children")
                if t in seen_taxa:
                    problems.append(f"node {v}: duplicate taxon {self.taxa.label(t)!r}")
                seen_taxa[t] = v
            else:
                if self.kind is Kind.ROOTED:
                    if len(self.children[v]) < 2:
                        problems.append(f"node {v}: internal node with <2 children")
                else:
                    # n <= 2 forces a degree-2 handle; nothing better exists.
                    if self.degree(v) < 3 and self.n > 2:
                        problems.append(f"node {v}: internal node with degree <3")
        missing = set(range(self.n)) - set(seen_taxa)
        if missing:
            labs = sorted(self.taxa.label(t) for t in missing)
            problems.append(f"taxa without leaves: {labs}")
        return problems

    # -- construction helpers -------------------------------------------

    @classmethod
    def rooted(cls, taxa: TaxonSet | Iterable[str], nested) -> "Phylogeny":
        """Build a rooted tree from a nested structure of taxon labels/indices.

        Example: Phylogeny.rooted(["a","b","c","d"], ((("a","b"),"c"),"d")).
        """
        return cls._from_nested(Kind.ROOTED, taxa, nested)

    @classmethod
    def unrooted(cls, taxa: TaxonSet | Iterable[str], nested) -> "Phylogeny":
        """Build an unrooted tree; the top-level tuple is the handle node."""
        return cls._from_nested(Kind.UNROOTED, taxa, nested)

    @classmethod
    def _from_nested(cls, kind: Kind, taxa, nested) -> "Phylogeny":
        """Number the nested structure's nodes in preorder, each before its
        children and those left to right, so children come in id order."""
        if not isinstance(taxa, TaxonSet):
            taxa = TaxonSet.of(taxa)
        parent: list[int] = []
        leaf_taxon: list[int | None] = []
        stack = [(nested, -1)]
        while stack:
            node, up = stack.pop()
            vid = len(parent)
            parent.append(up)
            if isinstance(node, (tuple, list)):
                leaf_taxon.append(None)
                stack.extend((c, vid) for c in reversed(node))
            else:
                leaf_taxon.append(taxa.index(node))
        return cls(kind, taxa, parent, leaf_taxon)

    # -- canonical form / isomorphism -----------------------------------

    @per_tree
    def canonical_key(self) -> str:
        """Canonical string; equal keys <=> isomorphic leaf-labeled trees."""

        def enc(top: int, banned: int) -> str:
            # the tree oriented away from `banned`, children before parents
            order, stack = [], [(top, banned)]
            while stack:
                v, up = stack.pop()
                order.append((v, up))
                stack.extend((c, v) for c in self.neighbors(v) if c != up)
            code: dict[int, str] = {}
            for v, up in reversed(order):
                t = self.leaf_taxon[v]
                code[v] = f"L{self.taxa.label(t)!r}" if t is not None else "(" + ",".join(
                    sorted(code.pop(c) for c in self.neighbors(v) if c != up)) + ")"
            return code[top]

        if self.kind is Kind.ROOTED:
            return "R" + enc(self.root, -1)
        if self.n <= 2:
            return "U(" + ",".join(sorted(
                f"L{self.taxa.label(t)!r}" for t in self.leaf_taxon if t is not None)) + ")"
        first = min(range(self.n), key=self.taxa.label)
        leaf0 = self.leaf_of_taxon(first)
        anchor = self.neighbors(leaf0)[0]
        return f"U(L{self.taxa.label(first)!r}|" + enc(anchor, leaf0) + ")"

    def isomorphic(self, other: "Phylogeny") -> bool:
        return (self.kind is other.kind
                and sorted(self.taxa.labels) == sorted(other.taxa.labels)
                and self.canonical_key() == other.canonical_key())

    # -- clusters and splits --------------------------------------------

    def clusters(self) -> frozenset[frozenset[int]]:
        """Taxon sets below each internal non-root node (rooted trees)."""
        if self.kind is not Kind.ROOTED:
            raise TreeError("clusters are defined for rooted trees")
        return frozenset(self.subtree_taxa(v) for v in self.internal_nodes() if v != self.root)

    def splits(self) -> frozenset[frozenset[int]]:
        """Internal-edge bipartitions, each keyed by the side containing taxon 0."""
        if self.kind is not Kind.UNROOTED:
            raise TreeError("splits are defined for unrooted trees")
        everything = frozenset(range(self.n))
        out = set()
        for v in self.internal_nodes():
            p = self.parent[v]
            if p >= 0 and not self.is_leaf(p):
                side = self.subtree_taxa(v)
                out.add(side if 0 in side else everything - side)
        return frozenset(out)


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------

def restrict(tree: Phylogeny, subset) -> Phylogeny:
    """Restriction of `tree` to a taxon subset (degree-2 nodes suppressed)."""
    idx = sorted({tree.taxa.index(x) for x in subset})
    if not idx:
        raise TreeError("restriction to an empty taxon set")
    keep = set(idx)
    sub_taxa = TaxonSet(tuple(tree.taxa.label(i) for i in idx))
    remap = {old: new for new, old in enumerate(idx)}

    parent: list[int] = []
    leaf_taxon: list[int | None] = []

    # node of the restriction below each node, None where no taxon is kept;
    # nodes are numbered in postorder, so each takes its kept children
    built: dict[int, int | None] = {}
    for v in tree.postorder():
        t = tree.leaf_taxon[v]
        kept = [built[c] for c in tree.children[v] if built[c] is not None]
        if t is None and len(kept) <= 1:
            built[v] = kept[0] if kept else None
        elif t is not None and t not in keep:
            built[v] = None
        else:
            built[v] = len(parent)
            for c in kept:
                parent[c] = built[v]
            parent.append(-1)
            leaf_taxon.append(None if t is None else remap[t])
    sub = Phylogeny(tree.kind, sub_taxa, parent, leaf_taxon)
    if tree.kind is Kind.UNROOTED and len(idx) > 2 and len(sub.children[sub.root]) == 2:
        # A handle of degree 2 is not a real node: merge into it a child
        # that is internal, as one of the two is when n > 2.
        a, b = sub.children[sub.root]
        return contract(sub, b if sub.is_leaf(a) else a)
    return sub


# ---------------------------------------------------------------------------
# Pair check, refinement order and elementary edits
# ---------------------------------------------------------------------------

def check_pair(t1: Phylogeny, t2: Phylogeny, kind: Kind | None = None) -> None:
    """Raise TreeError unless both trees are of one kind (`kind`, if given)
    and over the same taxon set; comparisons call it before any shortcut."""
    if t2.kind is not t1.kind or kind not in (None, t1.kind):
        raise TreeError(f"both trees must be {(kind or t1.kind).value}")
    if t1.taxa.labels != t2.taxa.labels:
        raise TreeError("trees are over different taxon sets")


def is_refinement(coarse: Phylogeny, fine: Phylogeny) -> bool:
    """True iff `coarse` can be obtained from `fine` by edge contractions."""
    check_pair(coarse, fine)
    if coarse.kind is Kind.ROOTED:
        return coarse.clusters() <= fine.clusters()
    return coarse.splits() <= fine.splits()


def pull_out(tree: Phylogeny, u: int) -> Phylogeny:
    """Pull-Out: u's parent v, a polytomy, keeps u and its own parent, and
    a new node below v takes v's other children, which makes their union
    a new cluster.  Node ids are kept, the new node is `num_nodes`."""
    if tree.kind is not Kind.ROOTED:
        raise TreeError("pull_out applies to rooted trees")
    v = tree.parent[u]
    if v < 0:
        raise TreeError("pull_out needs a non-root node")
    if len(tree.children[v]) < 3:
        raise TreeError("pull_out needs a parent with at least 3 children")
    return _split(tree, v, (u, tree.parent[v]))


def pull_2_out(tree: Phylogeny, u1: int, u2: int) -> Phylogeny:
    """Pull-2-Out: the shared neighbor v of u1 and u2, of degree >= 4,
    keeps u1 and u2, and a new node joined to v takes v's other neighbors,
    which makes the split {u1, u2 sides} | rest.  Node ids are kept, the
    new node is `num_nodes`."""
    if tree.kind is not Kind.UNROOTED:
        raise TreeError("pull_2_out applies to unrooted trees")
    if u1 == u2:
        raise TreeError("pull_2_out needs two distinct nodes")
    shared = set(tree.neighbors(u1)) & set(tree.neighbors(u2))
    if not shared:
        raise TreeError("nodes do not share a neighbor")
    v = shared.pop()
    if tree.degree(v) < 4:
        raise TreeError("pull_2_out needs the shared neighbor to have degree >= 4")
    return _split(tree, v, (u1, u2))


def _split(tree: Phylogeny, v: int, keep) -> Phylogeny:
    """Split node v in two on the parent array: v keeps its neighbors in
    `keep`, a new node m = `num_nodes` joined to v takes the others.  m
    goes below v, or between v and its parent when that parent is not
    kept; every other node keeps its id and its parent."""
    m = tree.num_nodes
    parent = list(tree.parent)
    for c in tree.children[v]:
        if c not in keep:
            parent[c] = m
    up = parent[v]
    if up >= 0 and up not in keep:
        parent[v] = m
        parent.append(up)
    else:
        parent.append(v)
    return Phylogeny(tree.kind, tree.taxa, parent, tree.leaf_taxon + (None,))


def contract(tree: Phylogeny, *nodes: int) -> Phylogeny:
    """Contract the edge above each given internal non-root node by merging
    the node into its parent, all in one preorder pass.

    A merged node's children take its place among its parent's children,
    and a node whose parent is also merged joins the node both merge into,
    so the result has exactly the input's clusters (rooted) or splits
    (unrooted) minus those of the given nodes.  Nodes are renumbered in
    preorder; with no nodes the result is an isomorphic copy.
    """
    merged = set(nodes)
    if any(tree.parent[u] < 0 or tree.is_leaf(u) for u in merged):
        raise TreeError("contract needs internal, non-root nodes")
    new_id = [-1] * tree.num_nodes
    parent: list[int] = []
    leaf_taxon: list[int | None] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        stack.extend(reversed(tree.children[v]))
        p = tree.parent[v]
        if v in merged:
            # the parent precedes v in preorder, so it is already mapped
            new_id[v] = new_id[p]
            continue
        new_id[v] = len(parent)
        parent.append(new_id[p] if p >= 0 else -1)
        leaf_taxon.append(tree.leaf_taxon[v])
    return Phylogeny(tree.kind, tree.taxa, parent, leaf_taxon)
