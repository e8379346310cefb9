"""Newick reading and writing for multifurcating phylogenies.

The grammar accepted is the usual one: nested parenthesized groups, comma
separators, optional branch lengths (":1.5", a number that is parsed and
discarded), optional internal-node labels (discarded), single-quoted labels,
and bracketed comments "[...]".  Whether the text denotes a rooted or an
unrooted tree is the caller's decision; "(A,(B,C));" is ambiguous on its
own, so no arity-based guessing is done here.

One compiled token pattern reads the text, lazily and one token ahead, so a
document of any length or depth is read in one pass with no Python
recursion.  The writer emits a label bare exactly when it reads back as one
bare-label token, and quotes it otherwise.
"""

from __future__ import annotations

import re
from collections import Counter

from polydist.trees import Kind, Phylogeny, TaxonSet


class NewickError(ValueError):
    """Malformed Newick text; carries the 0-based offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_BARE = re.compile(r"[^\s(),;:\[\]']+")
# whitespace or a comment (group 1), a quoted label (2), a bare label (3),
# or any other single character, so an unclosed '[' or "'" is a token alone
_TOKEN = re.compile(rf"(\s+|\[[^\]]*\])|('[^']*(?:''[^']*)*'(?!'))|({_BARE.pattern})|.", re.S)
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _tokens(text: str):
    """Yield (label, token, position) for each token that is not whitespace
    or a comment, then (None, "", len(text)).  `label` is the label that a
    quoted or bare token spells, and None for any other token."""
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastindex, m[0]
        if kind == 3:
            yield tok, tok, m.start()
        elif kind == 2:
            yield tok[1:-1].replace("''", "'"), tok, m.start()
        elif kind is None:
            if tok == "[":
                raise NewickError("unterminated comment", m.start())
            if tok == "'":
                raise NewickError("unterminated quoted label", m.start())
            yield None, tok, m.start()
    yield None, "", len(text)


def _statement(toks, first: tuple, kind: Kind) -> Phylogeny:
    """Parse the ';'-terminated statement that starts with token `first`,
    reading the rest from `toks`.  Errors that concern the whole tree point
    at the statement's first token."""
    lab, tok, pos = first
    parent: list[int] = [-1]
    leaf_label: list[str | None] = [None]
    # the node being read is always the last one made; `open_groups` holds
    # the internal nodes whose ')' is still to come
    open_groups: list[int] = []
    while True:
        if tok == "(":
            open_groups.append(len(parent) - 1)
        else:
            if not lab:
                raise NewickError("empty leaf label", pos)
            leaf_label[-1] = lab
            lab, tok, pos = next(toks)
            # the node is complete: skip its branch length, then close
            # groups, each with an optional label and length, until a
            # sibling follows
            while True:
                if tok == ":":
                    lab, tok, pos = next(toks)
                    if not _NUMBER.fullmatch(tok):
                        raise NewickError("expected branch length after ':'", pos)
                    lab, tok, pos = next(toks)
                if not open_groups or tok == ",":
                    break
                if tok != ")":
                    raise NewickError("expected ')'", pos)
                open_groups.pop()
                lab, tok, pos = next(toks)
                if lab is not None:  # internal label, discarded
                    lab, tok, pos = next(toks)
            if not open_groups:
                break
        parent.append(open_groups[-1])
        leaf_label.append(None)
        lab, tok, pos = next(toks)
    if tok != ";":
        raise NewickError("expected ';'", pos)

    start = first[2]
    labels = [l for l in leaf_label if l is not None]
    if len(set(labels)) != len(labels):
        counts = Counter(labels)
        dup = next(l for l in labels if counts[l] > 1)
        raise NewickError(f"duplicate leaf label {dup!r}", start)
    taxa = TaxonSet(tuple(sorted(labels)))
    leaf_taxon = [taxa.index(l) if l is not None else None for l in leaf_label]
    tree = Phylogeny(kind, taxa, parent, leaf_taxon)
    if kind is Kind.UNROOTED and len(tree.children[tree.root]) < 3 and taxa.n > 2:
        raise NewickError("unrooted tree must have top-level degree >= 3", start)
    problems = tree.validate()
    if problems:
        raise NewickError("; ".join(problems), start)
    return tree


def parse_newick(text: str, kind: Kind) -> Phylogeny:
    """Parse one ';'-terminated Newick statement into a Phylogeny."""
    toks = _tokens(text)
    tree = _statement(toks, next(toks), kind)
    _, tok, pos = next(toks)
    if tok:
        raise NewickError("trailing text after ';'", pos)
    return tree


def parse_newick_many(text: str, kind: Kind) -> list[Phylogeny]:
    """Parse a multi-tree document: statements one after another, each
    ended by a ';' outside quotes and comments.  Error positions are
    offsets into the whole text."""
    toks = _tokens(text)
    trees = []
    while (first := next(toks))[1]:  # the end token is empty
        trees.append(_statement(toks, first, kind))
    if not trees:
        raise NewickError("no trees in input", 0)
    return trees


def write_newick(tree: Phylogeny) -> str:
    """Serialize deterministically: children sorted by their smallest leaf.
    One pass finds each node's smallest taxon, and a second one writes the
    tokens of the whole tree into one list."""
    children, leaf_taxon = tree.children, tree.leaf_taxon
    smallest = list(leaf_taxon)
    for v in tree.postorder():
        if smallest[v] is None:
            smallest[v] = min(smallest[c] for c in children[v])
    out: list[str] = []
    stack: list = [tree.root]  # nodes still to write, and the text between them
    while stack:
        v = stack.pop()
        if type(v) is str:
            out.append(v)
        elif leaf_taxon[v] is not None:
            lab = tree.taxa.label(leaf_taxon[v])
            out.append(lab if _BARE.fullmatch(lab) else "'" + lab.replace("'", "''") + "'")
        else:
            first, *rest = sorted(children[v], key=smallest.__getitem__)
            out.append("(")
            stack.append(")")
            for c in reversed(rest):
                stack += (c, ",")
            stack.append(first)
    out.append(";")
    return "".join(out)
