"""Seeded O(n) tree generator for the benchmark.

Trees live on parent arrays: each new leaf is attached to a uniformly
chosen edge by inserting one internal node, and partially resolved trees
come from one pass that contracts a random subset of internal edges.  The
output is Newick text in memory; the library parses it during set-up.

This generator is kept apart from `polydist.randgen` on purpose: that one
grows nested tuples (tens of seconds per tree at n=1600), and a change to
its seeded output would silently change the benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class GenTree:
    """A tree as parent/children arrays; node 0 is the root (or handle).

    `label[v]` is the taxon label of a leaf and None for an internal node.
    """

    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    label: tuple[str | None, ...]
    rooted: bool

    @property
    def n(self) -> int:
        return sum(lab is not None for lab in self.label)

    def preorder(self) -> list[int]:
        order, stack = [], [0]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        return order

    def newick(self) -> str:
        """Newick text, written without recursion."""
        out: list[str] = []
        stack: list[tuple[int, int]] = [(0, 0)]
        while stack:
            v, i = stack.pop()
            kids = self.children[v]
            if not kids:
                out.append(self.label[v])
            elif i == 0:
                out.append("(")
                stack.append((v, 1))
                stack.append((kids[0], 0))
            elif i < len(kids):
                out.append(",")
                stack.append((v, i + 1))
                stack.append((kids[i], 0))
            else:
                out.append(")")
        out.append(";")
        return "".join(out)

    def internal_edges(self) -> list[int]:
        """Nodes v whose edge to their parent is internal (both ends internal)."""
        return [v for v in range(len(self.parent))
                if self.parent[v] >= 0 and self.children[v]]

    def contract(self, rng: random.Random, rate: float) -> "GenTree":
        """Contract each internal edge independently with probability `rate`."""
        chosen = {v for v in self.internal_edges() if rng.random() < rate}
        return self.contract_nodes(chosen)

    def contract_matching(self, rng: random.Random) -> "GenTree":
        """Contract a random set of internal edges, no two sharing a node.

        Every polytomy made has three children (rooted) or degree four
        (unrooted).  A binary tree blocks at most five internal edges per
        chosen one, so exactly len(internal_edges) // 5 are contracted.
        """
        edges = self.internal_edges()
        rng.shuffle(edges)
        want = len(edges) // 5
        used: set[int] = set()
        chosen: set[int] = set()
        for v in edges:
            if len(chosen) == want:
                break
            if v not in used and self.parent[v] not in used:
                chosen.add(v)
                used.update((v, self.parent[v]))
        return self.contract_nodes(chosen)

    def contract_nodes(self, chosen: set[int]) -> "GenTree":
        """Merge every node in `chosen` into its parent, in one pass."""
        order = self.preorder()
        new_id: dict[int, int] = {}
        parent: list[int] = []
        label: list[str | None] = []
        for v in order:
            if v in chosen:
                # the parent precedes v in preorder, so it is already mapped
                new_id[v] = new_id[self.parent[v]]
                continue
            new_id[v] = len(parent)
            parent.append(-1 if self.parent[v] < 0 else new_id[self.parent[v]])
            label.append(self.label[v])
        return _from_parent(parent, label, self.rooted)


def _from_parent(parent: list[int], label: list, rooted: bool) -> GenTree:
    children: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    return GenTree(tuple(parent), tuple(tuple(c) for c in children),
                   tuple(label), rooted)


def binary_tree(n: int, rng: random.Random, rooted: bool) -> GenTree:
    """Fully resolved tree on taxa t0..t{n-1} by uniform edge attachment.

    Rooted trees start from a cherry and may also attach above the root;
    unrooted trees start from a three-leaf star around the handle.  Labels
    are shuffled so that taxon names carry no trace of insertion order.
    """
    if n < (3 if rooted else 4):
        raise ValueError("need n >= 3 (rooted) or n >= 4 (unrooted)")
    names = [f"t{i}" for i in range(n)]
    rng.shuffle(names)
    start = 2 if rooted else 3
    parent = [-1] + [0] * start
    label: list[str | None] = [None] + names[:start]
    root = 0
    for k in range(start, n):
        # every node but the unrooted handle hangs below an edge; the rooted
        # root stands for the edge above it
        v = rng.randrange(len(parent)) if rooted else rng.randrange(1, len(parent))
        w = len(parent)
        parent.append(parent[v])
        label.append(None)
        parent[v] = w
        parent.append(w)
        label.append(names[k])
        if v == root:
            root = w
    return _from_parent(*_reroot_at(parent, label, root), rooted)


def _reroot_at(parent: list[int], label: list, root: int):
    """Renumber so that `root` becomes node 0, keeping the parent relation."""
    order = [root]
    children: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    i = 0
    while i < len(order):
        order.extend(children[order[i]])
        i += 1
    new_id = {old: new for new, old in enumerate(order)}
    return ([-1 if parent[v] < 0 else new_id[parent[v]] for v in order],
            [label[v] for v in order])


def partial_tree(n: int, rng: random.Random, rooted: bool, rate: float) -> GenTree:
    """Binary tree with each internal edge contracted with probability `rate`."""
    return binary_tree(n, rng, rooted).contract(rng, rate)


def contraction_pair(n: int, rng: random.Random, rooted: bool,
                     rate: float, extra: float) -> tuple[GenTree, GenTree]:
    """(T, T') where T' contracts a further `extra` share of T's internal edges."""
    fine = partial_tree(n, rng, rooted, rate)
    return fine, fine.contract(rng, extra)
