import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rooted_trees, unrooted_trees
from polydist.newick import NewickError, parse_newick, parse_newick_many, write_newick
from polydist.oracle import enumerate_phylogenies
from polydist.trees import Kind, Phylogeny, TaxonSet


def test_parse_small_rooted():
    t = parse_newick("((a,b),c);", Kind.ROOTED)
    assert t.taxa.labels == ("a", "b", "c")
    assert t.is_fully_resolved()


def test_parse_star_unrooted():
    t = parse_newick("(a,b,c,d);", Kind.UNROOTED)
    assert t.degree(t.root) == 4
    assert not t.is_fully_resolved()


def test_duplicate_label_rejected():
    with pytest.raises(NewickError):
        parse_newick("((a,b),(a,c));", Kind.ROOTED)


def test_duplicate_label_found_in_linear_time():
    # a 40000-leaf fan whose last leaf repeats the first: the repeat is named
    # with the statement's position, in one pass over the labels
    text = "(" + ",".join(f"t{i}" for i in range(40000)) + ",t0);"
    start = time.perf_counter()
    with pytest.raises(NewickError) as exc:
        parse_newick(text, Kind.ROOTED)
    assert time.perf_counter() - start < 0.8
    assert str(exc.value) == "duplicate leaf label 't0' (at position 0)"


def test_empty_label_rejected():
    with pytest.raises(NewickError):
        parse_newick("((a,),c);", Kind.ROOTED)


def test_unrooted_binary_toplevel_rejected():
    with pytest.raises(NewickError):
        parse_newick("(a,(b,c));", Kind.UNROOTED)


def test_rooted_unary_rejected():
    with pytest.raises(NewickError):
        parse_newick("((a),b);", Kind.ROOTED)


def test_syntax_errors_report_position():
    with pytest.raises(NewickError) as exc:
        parse_newick("((a,b),c", Kind.ROOTED)
    assert exc.value.pos == 8
    with pytest.raises(NewickError):
        parse_newick("((a,b),c); junk", Kind.ROOTED)


def test_branch_lengths_comments_quotes():
    t = parse_newick("(('sp one':0.5,b[a comment]):1e-3,c)label:2;", Kind.ROOTED)
    assert t.taxa.labels == ("b", "c", "sp one")
    out = write_newick(t)
    assert parse_newick(out, Kind.ROOTED).isomorphic(t)


@pytest.mark.parametrize("length", ["1", "2.5e-1", "1e-3", "-.5", "+2.", "1E+5", "[c] 7 "])
def test_branch_lengths_that_parse(length):
    t = parse_newick(f"((a:{length},b):{length},c);", Kind.ROOTED)
    assert write_newick(t) == "((a,b),c);"


@pytest.mark.parametrize("text,pos", [
    ("(a:1.2.3,b:e,c:--);", 3), ("1:.;", 2), ("e:+ ;", 2), ("(a:1e,b);", 3),
    ("(a:1.5x,b);", 3), ("((a,b):'1',c);", 7), ("(a,b):;", 6),
])
def test_malformed_branch_length_rejected(text, pos):
    with pytest.raises(NewickError) as exc:
        parse_newick(text, Kind.ROOTED)
    assert str(exc.value) == f"expected branch length after ':' (at position {pos})"


@pytest.mark.parametrize("text,pos", [("];", 0), ("(a,]);", 3)])
def test_stray_bracket_is_not_a_label(text, pos):
    with pytest.raises(NewickError) as exc:
        parse_newick(text, Kind.ROOTED)
    assert str(exc.value) == f"empty leaf label (at position {pos})"


def test_quoted_label_with_escaped_quote():
    t = parse_newick("(('it''s',b),c);", Kind.ROOTED)
    assert "it's" in t.taxa.labels
    assert parse_newick(write_newick(t), Kind.ROOTED).isomorphic(t)


def test_multi_tree_document():
    trees = parse_newick_many("((a,b),c); ((a,c),b);\n", Kind.ROOTED)
    assert len(trees) == 2
    with pytest.raises(NewickError):
        parse_newick_many("((a,b),c); trailing", Kind.ROOTED)
    # a ';' inside a quoted label or a comment does not end a statement
    for text in ("('a;b',c,d);", "(a,b[x;y],c);"):
        single = parse_newick(text, Kind.UNROOTED)
        trees = parse_newick_many(f"{text}\n(a,b,c,d);\n", Kind.UNROOTED)
        assert len(trees) == 2
        assert trees[0].isomorphic(single)


def test_multi_tree_error_positions_are_absolute():
    with pytest.raises(NewickError) as exc:
        parse_newick_many("((a,b),c); ((a,c),b", Kind.ROOTED)
    assert exc.value.pos == 19
    with pytest.raises(NewickError) as exc:
        parse_newick_many("((a,b),c);\n  ((a,a),b);", Kind.ROOTED)
    assert exc.value.pos == 13  # the start of the second statement
    with pytest.raises(NewickError):
        parse_newick_many(" [only a comment] ", Kind.ROOTED)


def test_deep_caterpillar_written_in_linear_time():
    # a caterpillar 10^5 levels deep: spine node i is the parent of spine
    # node i + 1 and of taxon i, and the last spine node also holds the last
    # taxon; a writer that copies each subtree's text per level takes seconds
    n = 100000
    parent = [-1] + list(range(n - 2)) + list(range(n - 1)) + [n - 2]
    taxa = TaxonSet(tuple(f"t{i}" for i in range(n)))
    tree = Phylogeny(Kind.ROOTED, taxa, parent, [None] * (n - 1) + list(range(n)))
    start = time.perf_counter()
    text = write_newick(tree)
    assert time.perf_counter() - start < 1.5
    assert text.startswith("(t0,(t1,(t2,") and text.endswith(",t99999" + ")" * (n - 1) + ";")


def test_writer_is_canonical():
    a = parse_newick("((b,a),c);", Kind.ROOTED)
    b = parse_newick("(c,(a,b));", Kind.ROOTED)
    assert write_newick(a) == write_newick(b) == "((a,b),c);"


@pytest.mark.parametrize("n,kind", [(3, Kind.ROOTED), (4, Kind.ROOTED),
                                    (5, Kind.ROOTED), (4, Kind.UNROOTED),
                                    (5, Kind.UNROOTED), (6, Kind.UNROOTED)])
def test_round_trip_over_full_enumeration(n, kind):
    for t in enumerate_phylogenies(n, kind):
        back = parse_newick(write_newick(t), kind)
        assert back.isomorphic(t)


@given(rooted_trees(max_n=14))
@settings(max_examples=60, deadline=None)
def test_round_trip_random_rooted(tree):
    assert parse_newick(write_newick(tree), Kind.ROOTED).isomorphic(tree)


@given(unrooted_trees(max_n=14))
@settings(max_examples=60, deadline=None)
def test_round_trip_random_unrooted(tree):
    assert parse_newick(write_newick(tree), Kind.UNROOTED).isomorphic(tree)


@given(st.text(alphabet="(),;ab:'[]1.e+- ", max_size=40))
@settings(max_examples=200, deadline=None)
def test_fuzz_never_crashes(text):
    try:
        parse_newick(text, Kind.ROOTED)
    except NewickError:
        pass


def _decorated(node):
    """A node's text with an optional branch length, comment or space."""
    return st.tuples(node, st.sampled_from(("", ":1", ":2.5e-1", "[x;y]", " "))).map("".join)


# leaf labels from a small pool, so that duplicates occur, or quoted with
# ';', ',', brackets and escaped quotes inside
LABELS = st.one_of(
    st.sampled_from("abcdefgh"),
    st.text(alphabet="ab;,()[]: '", min_size=1, max_size=5)
      .map(lambda lab: "'" + lab.replace("'", "''") + "'"),
)
NEWICK_NODES = st.recursive(
    _decorated(LABELS),
    lambda kids: _decorated(st.lists(kids, min_size=2, max_size=4)
                            .map(lambda xs: "(" + ",".join(xs) + ")")),
    max_leaves=10,
)


@given(st.sampled_from(list(Kind)),
       st.lists(st.tuples(NEWICK_NODES.map(lambda t: t + ";"),
                          st.sampled_from(("", "\n", " [c;omment] ", "\t"))),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_many_agrees_with_single_statements(kind, statements):
    # each statement alone, then all of them in one text: the same trees,
    # or the first statement's error at its offset in the whole text
    text, trees, error = "", [], None
    for statement, gap in statements:
        try:
            trees.append(parse_newick(statement, kind))
        except NewickError as exc:
            error = len(text) + exc.pos if error is None else error
        text += statement + gap
    if error is not None:
        with pytest.raises(NewickError) as exc:
            parse_newick_many(text, kind)
        assert exc.value.pos == error
        return
    got = parse_newick_many(text, kind)
    assert len(got) == len(trees)
    for one, many in zip(trees, got):
        assert many.taxa == one.taxa and many.isomorphic(one)
