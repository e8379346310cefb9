"""Newick reading and writing for multifurcating phylogenies.

The grammar accepted is the usual one: nested parenthesized groups, comma
separators, optional branch lengths (":1.5", parsed and discarded),
optional internal-node labels (discarded), single-quoted labels, and
bracketed comments "[...]".  Whether the text denotes a rooted or an
unrooted tree is the caller's decision; "(A,(B,C));" is ambiguous on its
own, so no arity-based guessing is done here.
"""

from __future__ import annotations

from collections import Counter

from polydist.trees import Kind, Phylogeny, TaxonSet


class NewickError(ValueError):
    """Malformed Newick text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_LABEL_STOP = set("(),;:[]'")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_trivia(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace():
                self.pos += 1
            elif ch == "[":
                end = self.text.find("]", self.pos)
                if end < 0:
                    raise NewickError("unterminated comment", self.pos)
                self.pos = end + 1
            else:
                return

    def peek(self) -> str:
        self.skip_trivia()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise NewickError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def label(self) -> str:
        """Read a (possibly quoted, possibly empty) label."""
        self.skip_trivia()
        if self.pos < len(self.text) and self.text[self.pos] == "'":
            start = self.pos
            self.pos += 1
            out = []
            while True:
                if self.pos >= len(self.text):
                    raise NewickError("unterminated quoted label", start)
                ch = self.text[self.pos]
                if ch == "'":
                    if self.text[self.pos + 1 : self.pos + 2] == "'":
                        out.append("'")
                        self.pos += 2
                        continue
                    self.pos += 1
                    return "".join(out)
                out.append(ch)
                self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace() \
                and self.text[self.pos] not in _LABEL_STOP:
            self.pos += 1
        return self.text[start:self.pos]

    def skip_branch_length(self):
        if self.peek() == ":":
            self.pos += 1
            self.skip_trivia()
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                                 or self.text[self.pos] in ".+-eE"):
                self.pos += 1
            if self.pos == start:
                raise NewickError("expected branch length after ':'", start)


def _statement(sc: _Scanner, kind: Kind) -> Phylogeny:
    """Parse the ';'-terminated statement at the scanner's position.  Errors
    that concern the whole tree point at the statement's first character."""
    sc.skip_trivia()
    first = sc.pos
    labels: list[str] = []
    parent: list[int] = []
    leaf_label: list[str | None] = []

    def new_node(up: int) -> int:
        parent.append(up)
        leaf_label.append(None)
        return len(parent) - 1

    # Iterative descent: `open_groups` holds the internal nodes whose ')'
    # is still to come, so nesting depth costs no Python recursion.
    open_groups: list[int] = []
    vid = new_node(-1)
    while True:
        if sc.peek() == "(":
            sc.expect("(")
            open_groups.append(vid)
            vid = new_node(vid)
            continue
        start = sc.pos
        lab = sc.label()
        if not lab:
            raise NewickError("empty leaf label", start)
        leaf_label[vid] = lab
        labels.append(lab)
        sc.skip_branch_length()
        # the node is complete: close groups until a sibling follows
        while open_groups and sc.peek() != ",":
            sc.expect(")")
            sc.label()  # internal label, discarded
            sc.skip_branch_length()
            open_groups.pop()
        if not open_groups:
            break
        sc.expect(",")
        vid = new_node(open_groups[-1])

    sc.expect(";")

    if len(set(labels)) != len(labels):
        counts = Counter(labels)
        dup = next(l for l in labels if counts[l] > 1)
        raise NewickError(f"duplicate leaf label {dup!r}", first)
    if not labels:
        raise NewickError("tree has no leaves", first)
    taxa = TaxonSet(tuple(sorted(labels)))
    leaf_taxon = [taxa.index(l) if l is not None else None for l in leaf_label]
    tree = Phylogeny(kind, taxa, parent, leaf_taxon)
    if kind is Kind.UNROOTED and len(tree.children[tree.root]) < 3 and taxa.n > 2:
        raise NewickError("unrooted tree must have top-level degree >= 3", first)
    problems = tree.validate()
    if problems:
        raise NewickError("; ".join(problems), first)
    return tree


def parse_newick(text: str, kind: Kind) -> Phylogeny:
    """Parse one ';'-terminated Newick statement into a Phylogeny."""
    sc = _Scanner(text)
    tree = _statement(sc, kind)
    if sc.peek():
        raise NewickError("trailing text after ';'", sc.pos)
    return tree


def parse_newick_many(text: str, kind: Kind) -> list[Phylogeny]:
    """Parse a multi-tree document: statements one after another, each
    ended by a ';' outside quotes and comments.  Error positions are
    offsets into the whole text."""
    sc = _Scanner(text)
    trees = []
    while sc.peek():
        trees.append(_statement(sc, kind))
    if not trees:
        raise NewickError("no trees in input", 0)
    return trees


def write_newick(tree: Phylogeny) -> str:
    """Serialize deterministically: children sorted by their smallest leaf."""

    def needs_quotes(lab: str) -> bool:
        return any(ch.isspace() or ch in _LABEL_STOP for ch in lab)

    def emit_label(t: int) -> str:
        lab = tree.taxa.label(t)
        return "'" + lab.replace("'", "''") + "'" if needs_quotes(lab) else lab

    # (smallest taxon, text) per node, children before parents
    emitted: dict[int, tuple[int, str]] = {}
    for v in tree.postorder():
        t = tree.leaf_taxon[v]
        if t is not None:
            emitted[v] = t, emit_label(t)
            continue
        parts = sorted(emitted.pop(c) for c in tree.children[v])
        emitted[v] = parts[0][0], "(" + ",".join(s for _, s in parts) + ")"
    return emitted[tree.root][1] + ";"
