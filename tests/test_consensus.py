import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_pair, seeded_partial
from polydist import consensus, hausdorff, triplet
from polydist.consensus import (
    Profile,
    best_of_profile,
    greedy_refine_median,
    profile_distance,
    rooted_vote_tally,
    unrooted_vote_tally,
)
from polydist.newick import parse_newick
from polydist.oracle import (CapacityError, QuartetTopology, TripletTopology, classify,
                             median_exhaustive, topology_by_restriction)
from polydist.randgen import random_binary, random_partial
from polydist.trees import (
    Kind,
    Phylogeny,
    TaxonSet,
    TreeError,
    pull_2_out,
    pull_out,
)


THREE_LEAF_PROFILE = Profile((
    Phylogeny.rooted("abc", (("a", "b"), "c")),
    Phylogeny.rooted("abc", (("a", "c"), "b")),
    Phylogeny.rooted("abc", (("b", "c"), "a")),
))


def _nested(tree: Phylogeny, v: int, labels) -> object:
    """The subtree at v as nested tuples, taxon t written labels[t]."""
    if tree.is_leaf(v):
        return labels[tree.leaf_taxon[v]]
    return tuple(_nested(tree, c, labels) for c in tree.children[v])


@st.composite
def wide_tally_cases(draw):
    """A tree with a wide polytomy and a profile over its taxa.  The tree is
    a fan / star (every group a singleton), one large group among
    singletons at the root, or partially resolved; each member is a
    caterpillar, a fan / star or partially resolved."""
    kind = draw(st.sampled_from(list(Kind)))
    n = draw(st.integers(4 if kind is Kind.ROOTED else 5, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    labels = [f"t{i}" for i in range(n)]
    taxa = TaxonSet.of(labels)
    build = Phylogeny.rooted if kind is Kind.ROOTED else Phylogeny.unrooted
    shape = draw(st.sampled_from(("fan", "one large", "partial")))
    if shape == "fan":
        tree = build(taxa, tuple(labels))
    elif shape == "one large":
        large = draw(st.integers(2, n - (2 if kind is Kind.ROOTED else 3)))
        inner = random_partial(large, Kind.ROOTED, rng, contract_prob=0.3)
        tree = build(taxa, (_nested(inner, inner.root, labels),) + tuple(labels[large:]))
    else:
        tree = random_partial(n, kind, rng, contract_prob=0.7, taxa=taxa)
    members = []
    for _ in range(draw(st.integers(1, 3))):
        member = draw(st.sampled_from(("caterpillar", "fan", "partial")))
        if member == "caterpillar":
            order = rng.sample(labels, n)
            nested = order[-1]
            for t in reversed(order[2:-1]):
                nested = (t, nested)
            top = (order[0], order[1], nested) if kind is Kind.UNROOTED \
                else (order[0], (order[1], nested))
            members.append(build(taxa, top))
        elif member == "fan":
            members.append(build(taxa, tuple(labels)))
        else:
            members.append(random_partial(n, kind, rng, taxa=taxa,
                                          contract_prob=rng.choice((0.0, 0.4))))
    return tree, Profile(tuple(members))


@st.composite
def kernel_pairs(draw, kind: Kind):
    """Two partially resolved trees over 3 (rooted) or 4 (unrooted) to 30
    taxa, each from binary to a fan / star."""
    n = draw(st.integers(3 if kind is Kind.ROOTED else 4, 30))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rates = st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0))
    t1 = random_partial(n, kind, rng, contract_prob=draw(rates))
    return t1, random_partial(n, kind, rng, contract_prob=draw(rates), taxa=t1.taxa)


def _summed_tallies(t1: Phylogeny, t2: Phylogeny) -> tuple[int, int, int]:
    """f, a and nv of the profile (t1,), summed over every candidate at
    every polytomy of t2."""
    tally_at = rooted_vote_tally if t2.kind is Kind.ROOTED else unrooted_vote_tally
    tallies = [t for v in t2.unresolved_nodes() for t in tally_at(t2, v, Profile((t1,))).values()]
    return tuple(sum(getattr(t, x) for t in tallies) for x in ("f", "a", "nv"))


def _kernel_votes(t1: Phylogeny, t2: Phylogeny, agree: int) -> tuple[int, int, int]:
    """The summed tallies read off the distance kernels' classes, with
    `agree` agreeing and 2·`agree` disagreeing candidates per subset that
    t1 resolves and 3·`agree` per subset neither does."""
    c = hausdorff.classification_counts(t1, t2)
    return agree * c.r1, 2 * agree * c.r1, 3 * agree * c.u


def test_profile_validation():
    with pytest.raises(TreeError):
        Profile(())
    with pytest.raises(TreeError):
        Profile((Phylogeny.rooted("abc", (("a", "b"), "c")),
                 Phylogeny.rooted("abd", (("a", "b"), "d"))))


def test_profile_distance_matches_pairwise_sum():
    tree = Phylogeny.rooted("abc", ("a", "b", "c"))
    p = Fraction(1, 2)
    total = profile_distance(tree, THREE_LEAF_PROFILE, p)
    expected = sum(classify(tree, m).to_distance_pair().evaluate(p)
                   for m in THREE_LEAF_PROFILE.trees)
    assert total == expected == Fraction(3, 2)


def test_profile_distance_unrooted_half_uses_exact_value():
    a, b = seeded_pair(Kind.UNROOTED, 8, 1)
    profile = Profile((b,))
    p = Fraction(1, 2)
    assert profile_distance(a, profile, p) == \
        classify(a, b).to_distance_pair().evaluate(p)


class TestBestOfProfile:
    def test_picks_minimizer_with_lowest_index(self):
        bp = best_of_profile(THREE_LEAF_PROFILE, Fraction(2, 3))
        assert bp.index == 0  # all three tie at the same total
        assert bp.certificate == "2-approx"

    def test_no_certificate_below_half(self):
        bp = best_of_profile(THREE_LEAF_PROFILE, Fraction(1, 3))
        assert bp.certificate is None

    @pytest.mark.parametrize("kind", [Kind.ROOTED, Kind.UNROOTED])
    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)])
    def test_matches_all_ordered_pairs(self, kind, p):
        # the k(k-1)/2 symmetric distances give the totals and the
        # lowest-index tie rule of one profile_distance per member; repeated
        # members make ties
        rng = random.Random(31)
        for _ in range(4):
            n, k = rng.randint(5, 9), rng.randint(1, 5)
            trees = [seeded_partial(kind, n, rng.randrange(10**6)) for _ in range(k)]
            trees += trees[:rng.randint(0, k)]
            rng.shuffle(trees)
            profile = Profile(tuple(trees))
            totals = [profile_distance(m, profile, p) for m in profile.trees]
            bp = best_of_profile(profile, p)
            assert bp.index == totals.index(min(totals))
            assert bp.total == min(totals)
            assert bp.tree is profile.trees[bp.index]

    def test_rejects_p_outside_unit_interval(self):
        with pytest.raises(ValueError):
            best_of_profile(Profile(THREE_LEAF_PROFILE.trees[:1]), Fraction(3, 2))

    def test_two_approximation_bound(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(4, 5)
            k = rng.randint(2, 4)
            profile = Profile(tuple(
                seeded_partial(Kind.ROOTED, n, rng.randrange(10**6))
                for _ in range(k)))
            p = Fraction(rng.randint(2, 4), 4)
            bp = best_of_profile(profile, p)
            opt = median_exhaustive(list(profile.trees), p, Kind.ROOTED)
            assert bp.total <= 2 * opt.total


class TestVoteTallies:
    def test_three_leaf_votes(self):
        fan = Phylogeny.rooted("abc", ("a", "b", "c"))
        tallies = rooted_vote_tally(fan, fan.root, THREE_LEAF_PROFILE)
        assert len(tallies) == 3
        # each child is the apart leaf in exactly one member
        for tally in tallies.values():
            assert (tally.f, tally.a, tally.nv) == (1, 2, 0)

    @given(kernel_pairs(Kind.ROOTED))
    @settings(max_examples=60, deadline=None)
    def test_vote_conservation_rooted(self, pair):
        # a triplet over three child groups of a polytomy of T2 is a fan in
        # T2: resolved in T1, one candidate agrees and two disagree, else all
        # three see no vote.  Every triplet T2 leaves unresolved is a fan at
        # exactly one polytomy, so the tallies of (T1,) add up to r1 and u
        t1, t2 = pair
        assert _summed_tallies(t1, t2) == _kernel_votes(t1, t2, 1)

    @given(kernel_pairs(Kind.UNROOTED))
    @settings(max_examples=60, deadline=None)
    def test_vote_conservation_unrooted(self, pair):
        # as rooted, with 2 agreeing pairs of the 6 per quartet
        t1, t2 = pair
        assert _summed_tallies(t1, t2) == _kernel_votes(t1, t2, 2)

    def test_delta_is_exact(self):
        # applying any candidate's pull-out / pull-2-out changes the profile
        # distance by its delta: on the three-leaf fan and on seeded partially
        # resolved trees against partially and fully resolved profiles
        cases = [(Phylogeny.rooted("abc", ("a", "b", "c")), THREE_LEAF_PROFILE)]
        cases += _seeded_tally_cases(random.Random(12), 3)
        checked = {Kind.ROOTED: 0, Kind.UNROOTED: 0}
        for tree, profile in cases:
            rooted = tree.kind is Kind.ROOTED
            tally_at = rooted_vote_tally if rooted else unrooted_vote_tally
            for p in (Fraction(2, 3), Fraction(3, 4)):
                before = profile_distance(tree, profile, p)
                for v in tree.unresolved_nodes():
                    for candidate, tally in tally_at(tree, v, profile).items():
                        refined = pull_out(tree, candidate) if rooted \
                            else pull_2_out(tree, *sorted(candidate))
                        after = profile_distance(refined, profile, p)
                        assert after - before == tally.delta(p)
                        checked[tree.kind] += 1
        assert min(checked.values()) >= 20

    def test_tallies_match_subset_enumeration(self):
        # the array tallies against a one-subset-at-a-time count that reads
        # each member's topology by explicit restriction
        polytomies = 0
        for tree, profile in _seeded_tally_cases(random.Random(13), 6):
            tally_at = rooted_vote_tally if tree.kind is Kind.ROOTED else unrooted_vote_tally
            for v in tree.unresolved_nodes():
                expected = _enumerated_tally(tree, v, profile)
                assert {c: (t.f, t.a, t.nv) for c, t in tally_at(tree, v, profile).items()} \
                    == expected
                polytomies += 1
        assert polytomies >= 12


def test_tallies_of_a_fan_past_one_chunk():
    # the 80 groups of an 80-taxon fan's root.  Reference, per member: q is
    # apart in the pairs whose LCA w leaves q out (f), and the triplet is a
    # fan when w holds q and the pair lies in two children of w other than
    # q's (nv)
    n, k = 80, 3
    taxa = [f"t{i}" for i in range(n)]
    fan = Phylogeny.rooted(taxa, tuple(taxa))
    rng = random.Random(3)
    profile = Profile(tuple(random_partial(n, Kind.ROOTED, rng, contract_prob=0.4, taxa=fan.taxa)
                            for _ in range(k)))
    f, nv = [0] * n, [0] * n
    for member in profile.trees:
        for w in member.internal_nodes():
            kids = [member.subtree_taxa(c) for c in member.children[w]]
            sizes = [len(kid) for kid in kids]
            apart = comb(sum(sizes), 2) - sum(comb(s, 2) for s in sizes)
            for q in set(range(n)) - member.subtree_taxa(w):
                f[q] += apart
            for kid, s in zip(kids, sizes):
                for q in kid:
                    nv[q] += (comb(sum(sizes) - s, 2)
                              - sum(comb(x, 2) for x in sizes) + comb(s, 2))
    tally = rooted_vote_tally(fan, fan.root, profile)
    assert len(tally) == n
    for leaf, votes in tally.items():
        q = fan.leaf_taxon[leaf]
        assert (votes.f, votes.a, votes.nv) == (f[q], k * comb(n - 1, 2) - f[q] - nv[q], nv[q])


@given(wide_tally_cases())
@settings(max_examples=120, deadline=None)
def test_tallies_of_wide_shapes_match_enumeration(case):
    tree, profile = case
    tally_at = rooted_vote_tally if tree.kind is Kind.ROOTED else unrooted_vote_tally
    for v in tree.unresolved_nodes():
        assert {c: (t.f, t.a, t.nv) for c, t in tally_at(tree, v, profile).items()} \
            == _enumerated_tally(tree, v, profile)


@pytest.mark.parametrize("kind", list(Kind))
def test_tallies_do_not_depend_on_the_chunks(kind, monkeypatch):
    # with BLOCK_CELLS = 64 every count splits its member nodes into chunks
    # of one or a few nodes, and the sides of wide nodes into runs
    rng = random.Random(21)
    cases = []
    for contract_prob in (1.0, 0.6):
        tree = random_partial(14, kind, rng, contract_prob=contract_prob)
        cases.append((tree, Profile(tuple(random_partial(14, kind, rng, contract_prob=c,
                                                         taxa=tree.taxa)
                                          for c in (1.0, 0.2, 0.6)))))
    tally_at = rooted_vote_tally if kind is Kind.ROOTED else unrooted_vote_tally

    def tallies():
        return [tally_at(tree, v, p) for tree, p in cases for v in tree.unresolved_nodes()]
    whole = tallies()
    monkeypatch.setattr(triplet, "BLOCK_CELLS", 64)
    assert tallies() == whole


def test_exact_products_past_two_to_the_53():
    # UᵀV against Python ints: runs of rows whose absolute sums pass 2^53
    # (float64 in runs), single products past 2^53 (the int64 fallback), and
    # signed rows that cancel
    rng = np.random.default_rng(5)
    for high, rows in ((2**22, 5000), (2**26, 400), (2**27, 50), (3, 7)):
        U = rng.integers(-high, high, (rows, 4))
        V = rng.integers(-high, high, (rows, 3))
        want = [[sum(int(U[r, i]) * int(V[r, j]) for r in range(rows)) for j in range(3)]
                for i in range(4)]
        got = consensus._dot(U, V)
        assert got.dtype == np.int64 and got.tolist() == want
    U = np.full((5000, 2), 2**25, dtype=np.int64)
    assert 5000 * 2**50 > 2**53
    assert consensus._dot(U, U).tolist() == [[5000 * 2**50] * 2] * 2


def _rooted_node_reference(C: list[list[int]], O: list[int]) -> tuple[list[int], list[int]]:
    """f and a per group at one member node with children block C and group
    taxa O outside it, choosing the pair below it cell by cell."""
    K = len(O)
    f, a = [0] * K, [0] * K
    cells = [(j, k) for j in range(len(C)) for k in range(K)]
    for (j, k), (jj, kk) in combinations(cells, 2):
        if j != jj and k != kk:
            for r in range(K):
                if r not in (k, kk):
                    votes = C[j][k] * C[jj][kk] * O[r]
                    f[r] += votes
                    a[k] += votes
                    a[kk] += votes
    return f, a


def _unrooted_node_reference(M: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """f and a per ordered group pair (g, h) at one member node with sides
    M (rows) over the groups, by choosing the sides and groups of the four
    taxa."""
    d, K = len(M), len(M[0])
    f = [[0] * K for _ in range(K)]
    a = [[0] * K for _ in range(K)]
    for g, h in product(range(K), repeat=2):
        if g == h:
            continue
        others = [r for r in range(K) if r not in (g, h)]
        for i, j, l in product(range(d), repeat=3):
            if len({i, j, l}) < 3:
                continue
            together = sum(M[l][r] * M[l][t] for r, t in combinations(others, 2))
            f[g][h] += M[i][g] * M[j][h] * together
            a[g][h] += M[i][g] * M[l][h] * sum(M[j][r] * M[l][t] for r, t in
                                               product(others, repeat=2) if r != t)
    return f, a


def _largest_n(size: int) -> int:
    """The largest n with C(n, size) < 2^63, one member's int64 bound."""
    n = round((factorial(size) * 2**63) ** (1 / size))
    while comb(n, size) >= 2**63:
        n -= 1
    while comb(n + 1, size) < 2**63:
        n += 1
    return n


def test_tallies_int64_bound():
    # f, a and nv are at most k·C(n, 3) rooted and k·C(n, 4) unrooted.  At
    # the largest n with one member, single member nodes with a few large
    # children (rooted) or sides (unrooted) whose products pass 2^53 and,
    # the rooted ones, wrap past 2^63
    rng = random.Random(8)
    n = _largest_n(3)
    assert comb(n, 3) < 2**63 <= comb(n + 1, 3)
    a3 = n // 3
    blocks = [([[a3, 0, 0], [0, a3, 0]], [0, 0, n - 2 * a3]),
              ([[n - 4, 1, 0, 0], [0, 0, 1, 1]], [0, 0, 0, 1])]
    for _ in range(4):
        d, K = rng.randint(2, 4), rng.randint(3, 5)
        cuts = np.diff([0] + sorted(rng.sample(range(1, n), d * K + K - 1)) + [n])
        blocks.append((cuts[:d * K].reshape(d, K).tolist(), cuts[d * K:].tolist()))
    for C, O in blocks:
        # one node's side block: its children's rows, then the taxa outside
        f, a = consensus._rooted_votes(np.array(C + [O], dtype=np.int64)[..., None])
        assert (f.tolist(), a.tolist()) == _rooted_node_reference(C, O)
    n = _largest_n(4)
    assert comb(n, 4) < 2**63 <= comb(n + 1, 4)
    h = n // 4
    blocks = [[[h, 0, 0, 0], [0, h, 0, 0], [0, 0, h, 0], [0, 0, 0, n - 3 * h]],
              [[n - 5, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1]]]
    for _ in range(4):
        d, K = rng.randint(3, 4), rng.randint(4, 5)
        blocks.append(np.diff([0] + sorted(rng.sample(range(1, n), d * K - 1)) + [n])
                      .reshape(d, K).tolist())
    for M in blocks:
        # one node's sides, its last the complement of its subtree, over
        # groups that partition the taxa
        f, a = consensus._unrooted_votes(np.array(M, dtype=np.int64)[:, None], np.sum(M, axis=0))
        want_f, want_a = _unrooted_node_reference(M)
        off = ~np.eye(len(M[0]), dtype=bool)
        assert f[off].tolist() == np.array(want_f, dtype=object)[off].tolist()
        assert a[off].tolist() == np.array(want_a, dtype=object)[off].tolist()


@pytest.mark.parametrize("k, rooted, largest", [
    (1, True, 3810779), (1, False, 121977), (2, True, 3024617), (2, False, 102570),
    # below the tables' n <= 65535: 13 unrooted members are refused there
    (13, False, 64239),
])
def test_vote_bound_at_its_largest_n(k, rooted, largest):
    size = 3 if rooted else 4
    assert k * comb(largest, size) < 2**63 <= k * comb(largest + 1, size)
    consensus.check_vote_bound(k, largest, rooted)
    with pytest.raises(CapacityError, match=r"2\^63"):
        consensus.check_vote_bound(k, largest + 1, rooted)


def test_tallies_refused_past_their_bound():
    # one member one taxon past n = 121977: counting would wrap int64, so
    # the tally is refused, not returned
    n = 121978
    parent = [-1, 0, 0, 0, 0] + [1 + 4 * t // n for t in range(n)]
    tree = Phylogeny(Kind.UNROOTED, TaxonSet(tuple(f"t{i}" for i in range(n))), parent,
                     [None] * 5 + list(range(n)))
    with pytest.raises(CapacityError, match=r"2\^63"):
        unrooted_vote_tally(tree, tree.root, Profile((tree,)))


def test_count_of_a_wide_member_stays_small():
    # a star member of 600 taxa against a polytomy of 30 groups of 20: one
    # member node of 601 sides; the star resolves nothing, so every quartet
    # is a vote nv
    n, K = 600, 30
    labels = [f"t{i}" for i in range(n)]
    groups = tuple(tuple(labels[g * 20:(g + 1) * 20]) for g in range(K))
    tree = Phylogeny.unrooted(labels, tuple((grp[0], (grp[1:])) for grp in groups))
    star = Profile((Phylogeny.unrooted(labels, tuple(labels)),))
    tracemalloc.start()
    try:
        tallies = unrooted_vote_tally(tree, tree.root, star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    seen = 20 * 20 * comb(K - 2, 2) * 20 * 20
    assert len(tallies) == comb(K, 2)
    assert {(t.f, t.a, t.nv) for t in tallies.values()} == {(0, 0, seen)}


def test_consensus_builds_no_lca_table(monkeypatch):
    # the tallies count; no LCA table is built on the consensus path
    def refuse(self):
        raise AssertionError("leaf_lca_tables called")
    monkeypatch.setattr(Phylogeny, "leaf_lca_tables", refuse)
    for kind in Kind:
        rng = random.Random(kind.value)
        start = random_partial(12, kind, rng, contract_prob=0.8)
        profile = Profile(tuple(random_partial(12, kind, rng, contract_prob=0.3, taxa=start.taxa)
                                for _ in range(3)))
        best = best_of_profile(profile, Fraction(3, 4))
        g = greedy_refine_median(start, profile, Fraction(3, 4))
        assert g.tree.is_fully_resolved() and best.tree in profile.trees
        adversarial = hausdorff.adversarial_refinement(start, profile.trees[0])
        assert adversarial.d_achieved >= adversarial.d_initial


def _seeded_tally_cases(rng: random.Random, per_kind: int) -> list:
    """Partially resolved trees (n = 6..10) with profiles of partially and
    fully resolved members, `per_kind` rooted and as many unrooted."""
    cases = []
    for kind in (Kind.ROOTED, Kind.UNROOTED):
        for _ in range(per_kind):
            n = rng.randint(6, 10)
            tree = random_partial(n, kind, rng, contract_prob=0.6)
            members = [random_partial(n, kind, rng, contract_prob=rng.choice([0.2, 0.5]),
                                      taxa=tree.taxa) for _ in range(rng.randint(1, 3))]
            members.append(random_binary(n, kind, rng, taxa=tree.taxa))
            cases.append((tree, Profile(tuple(members))))
    return cases


def _enumerated_tally(tree: Phylogeny, v: int, profile: Profile) -> dict:
    """(f, a, nv) per candidate at polytomy v, one subset at a time."""
    rooted = tree.kind is Kind.ROOTED
    if rooted:
        groups = {q: tree.subtree_taxa(q) for q in tree.children[v]}
    else:
        outside = frozenset(range(tree.n)) - tree.subtree_taxa(v)
        groups = {x: tree.subtree_taxa(x) if tree.parent[x] == v else outside
                  for x in tree.neighbors(v)}
    group_of = {t: g for g, taxa in groups.items() for t in taxa}
    size = 3 if rooted else 4
    counts = {c: [0, 0, 0] for c in
              (groups if rooted else map(frozenset, combinations(groups, 2)))}
    for subset in combinations(sorted(group_of), size):
        gs = [group_of[t] for t in subset]
        if len(set(gs)) < size:
            continue
        candidates = gs if rooted else [frozenset(pair) for pair in combinations(gs, 2)]
        for member in profile.trees:
            top = topology_by_restriction(member, subset)
            unresolved = top in (TripletTopology.FAN, QuartetTopology.STAR)
            if unresolved:
                agree = []
            elif rooted:  # A_BC, B_AC, C_AB: the first, second, third taxon is apart
                agree = [gs[list(TripletTopology).index(top)]]
            else:  # AB_CD, AC_BD, AD_BC: taxon 0 pairs with taxon 1, 2, 3
                mate = 1 + list(QuartetTopology).index(top)
                agree = [frozenset((gs[0], gs[mate])),
                         frozenset(g for i, g in enumerate(gs) if i not in (0, mate))]
            for c in candidates:
                counts[c][2 if unresolved else 0 if c in agree else 1] += 1
    return {c: tuple(x) for c, x in counts.items()}


class TestGreedyRefine:
    def test_threshold_behavior(self):
        fan = Phylogeny.rooted("abc", ("a", "b", "c"))
        low = greedy_refine_median(fan, THREE_LEAF_PROFILE, Fraction(1, 2))
        assert low.final_distance > low.initial_distance  # refining hurts
        tie = greedy_refine_median(fan, THREE_LEAF_PROFILE, Fraction(2, 3))
        assert tie.final_distance == tie.initial_distance == 2
        high = greedy_refine_median(fan, THREE_LEAF_PROFILE, Fraction(3, 4))
        assert high.final_distance < high.initial_distance

    def test_reaches_full_resolution(self):
        fan = Phylogeny.rooted("abcde", tuple("abcde"))
        profile = Profile((Phylogeny.rooted("abcde", ((("a", "b"), "c"), ("d", "e"))),))
        g = greedy_refine_median(fan, profile, Fraction(1))
        assert g.tree.is_fully_resolved()
        assert g.final_distance <= g.initial_distance
        assert g.steps == 3  # one pull-out per binary split gained
        assert g.guaranteed

    def test_non_increase_for_resolved_profiles(self):
        rng = random.Random(9)
        for _ in range(8):
            n = rng.randint(4, 6)
            k = rng.randint(1, 4)
            start = seeded_partial(Kind.ROOTED, n, rng.randrange(10**6))
            profile = Profile(tuple(
                random_binary(n, Kind.ROOTED, rng, taxa=start.taxa)
                for _ in range(k)))
            p = Fraction(rng.randint(8, 12), 12)
            g = greedy_refine_median(start, profile, p)
            assert g.guaranteed
            assert g.final_distance <= g.initial_distance
            assert g.tree.is_fully_resolved()

    def test_unrooted_greedy(self):
        star = Phylogeny.unrooted("abcde", tuple("abcde"))
        member = Phylogeny.unrooted("abcde", (("a", "b"), "c", ("d", "e")))
        g = greedy_refine_median(star, Profile((member,)), Fraction(1))
        assert g.tree.is_fully_resolved()
        assert g.final_distance == 0

    def test_scores_the_profile_once(self, monkeypatch):
        calls = []

        def counted(tree, profile, p):
            calls.append(tree)
            return profile_distance(tree, profile, p)
        monkeypatch.setattr(consensus, "profile_distance", counted)
        for kind, n in ((Kind.ROOTED, 9), (Kind.UNROOTED, 8)):
            start = seeded_partial(kind, n, 4, contract_prob=0.8)
            rng = random.Random(n)
            profile = Profile(tuple(random_partial(n, kind, rng, taxa=start.taxa)
                                    for _ in range(3)))
            calls.clear()
            g = greedy_refine_median(start, profile, Fraction(3, 4))
            assert calls == [start] and g.steps > 0
            assert g.final_distance == profile_distance(g.tree, profile, Fraction(3, 4))

    def test_mismatched_tree_rejected(self):
        tree = Phylogeny.rooted("abcd", ("a", "b", "c", "d"))
        with pytest.raises(TreeError):
            greedy_refine_median(tree, THREE_LEAF_PROFILE, Fraction(1))
        # a fan over a-d against a member over other taxa, over fewer taxa,
        # or of the other kind, at every entry point that reads the tallies
        for kind, tally in ((Kind.ROOTED, rooted_vote_tally),
                            (Kind.UNROOTED, unrooted_vote_tally)):
            fan = parse_newick("(a,b,c,d);", kind)
            other = Kind.UNROOTED if kind is Kind.ROOTED else Kind.ROOTED
            for text, member_kind in (("((w,x),y,z);", kind), ("(a,b,c);", kind),
                                      ("((a,b),c,d);", other)):
                profile = Profile((parse_newick(text, member_kind),))
                with pytest.raises(TreeError):
                    tally(fan, fan.root, profile)
                with pytest.raises(TreeError):
                    list(consensus.refinements(fan, profile, lambda t: 0))


@st.composite
def refinement_cases(draw):
    """A fan / star or partially resolved start tree, a profile of fully and
    partially resolved members, and a score: the greedy's at some p, or the
    adversarial 2F - A against the first member."""
    kind = draw(st.sampled_from(list(Kind)))
    n = draw(st.integers(4, 11) if kind is Kind.ROOTED else st.integers(5, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    start = random_partial(n, kind, rng, contract_prob=draw(st.sampled_from((1.0, 0.8, 0.5))))
    members = tuple(random_partial(n, kind, rng, taxa=start.taxa,
                                   contract_prob=draw(st.sampled_from((0.0, 0.3, 0.7))))
                    for _ in range(draw(st.integers(1, 3))))
    p = draw(st.sampled_from((None, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))))
    if p is None:
        return start, Profile(members[:1]), hausdorff._adversarial_cost
    return start, Profile(members), lambda t: p.numerator * (t.nv - t.f) + \
        (p.denominator - p.numerator) * t.a


def _check_cached_tallies(start: Phylogeny, profile: Profile, score) -> set:
    """Run `refinements` and compare every step it yields, (votes, parent
    array), with a reference that recounts every polytomy at every step.
    Returns how the chosen tallies were kept: counted at the start and kept
    past a split ("start") or counted at a node a split made ("new"); and
    whether an unrooted split left another polytomy beside the new node,
    whose tallies name it from then on ("renamed"), or put the new node
    between the split node and its parent ("between")."""
    rooted = start.kind is Kind.ROOTED
    tally_at = rooted_vote_tally if rooted else unrooted_vote_tally
    first = start.num_nodes
    seen = set()
    tree = start
    for step, (votes, refined) in enumerate(consensus.refinements(start, profile, score)):
        scored = [(s, v, (c,) if rooted else tuple(sorted(c)), t)
                  for v in tree.unresolved_nodes() for c, t in tally_at(tree, v, profile).items()
                  if (s := score(t)) is not None]
        _, v, nodes, expected = min(scored, key=lambda x: x[:3])
        before, tree = tree, pull_out(tree, *nodes) if rooted else pull_2_out(tree, *nodes)
        assert (votes, refined.parent) == (expected, tree.parent)
        if v >= first:
            seen.add("new")
        elif step:
            seen.add("start")
        m = tree.num_nodes - 1
        if not rooted and any(x != v and tree.is_unresolved(x) for x in tree.neighbors(m)):
            seen.add("renamed")
        if not rooted and tree.degree(tree.parent[m]) == before.degree(tree.parent[m]):
            seen.add("between")
    assert all(score(t) is None for v in tree.unresolved_nodes()
               for t in tally_at(tree, v, profile).values())
    return seen


class TestRefinements:
    @given(refinement_cases())
    @settings(max_examples=100, deadline=None)
    def test_cached_tallies_equal_fresh_counts(self, case):
        _check_cached_tallies(*case)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_cache_reads_every_way(self, kind):
        # fan / star and partial starts reach every way of keeping a tally
        rng = random.Random(5)
        seen = set()
        for contract_prob in (1.0, 0.7, 0.7, 0.7, 0.5):
            start = random_partial(10, kind, rng, contract_prob=contract_prob)
            profile = Profile(tuple(random_partial(10, kind, rng, taxa=start.taxa)
                                    for _ in range(3)))
            seen |= _check_cached_tallies(start, profile, lambda t: t.a - 2 * t.f)
        assert seen == {"start", "new"} | (set() if kind is Kind.ROOTED else {"renamed", "between"})

    @pytest.mark.parametrize("kind,n", [(Kind.ROOTED, 30), (Kind.UNROOTED, 14)])
    def test_large_denominator_p(self, kind, n):
        # p = 3333333333333333/(5·10^15), just below 2/3: the integer scores
        # order the candidates as a reference that compares delta(p) does
        p = Fraction("0.6666666666666666")
        rng = random.Random(n)
        start = random_partial(n, kind, rng, contract_prob=0.8)
        profile = Profile(tuple(random_partial(n, kind, rng, contract_prob=0.3,
                                               taxa=start.taxa) for _ in range(4)))
        g = greedy_refine_median(start, profile, p)
        tree, final, steps = start, profile_distance(start, profile, p), 0
        tally_at = rooted_vote_tally if kind is Kind.ROOTED else unrooted_vote_tally
        while tree.unresolved_nodes():
            delta, v, nodes = min(
                (t.delta(p), v, (c,) if kind is Kind.ROOTED else tuple(sorted(c)))
                for v in tree.unresolved_nodes() for c, t in tally_at(tree, v, profile).items())
            tree = pull_out(tree, *nodes) if kind is Kind.ROOTED else pull_2_out(tree, *nodes)
            final += delta
            steps += 1
        assert (g.tree.parent, g.steps, g.final_distance) == (tree.parent, steps, final)
        assert g.final_distance == profile_distance(g.tree, profile, p)

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_counts_each_partition_once(self, seed, kind):
        # a split leaves every other polytomy's groups as they were (an
        # unrooted one may see the new node in place of the split one), so
        # a run never counts the same group partition twice
        counted = []
        name = "rooted_vote_tally" if kind is Kind.ROOTED else "unrooted_vote_tally"
        count = getattr(consensus, name)

        def recorded(tree, w, profile):
            nodes, group = consensus._groups(tree, w)
            counted.append(frozenset(frozenset(np.flatnonzero(group == g).tolist())
                                     for g in range(len(nodes))))
            return count(tree, w, profile)

        rng = random.Random(seed)
        start = random_partial(50, kind, rng, contract_prob=0.7)
        profile = Profile(tuple(random_partial(50, kind, rng, contract_prob=0.7,
                                               taxa=start.taxa) for _ in range(5)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(consensus, name, recorded)
            for run in (lambda: greedy_refine_median(start, profile, Fraction(3, 4)),
                        lambda: hausdorff.adversarial_refinement(start, profile.trees[0])):
                counted.clear()
                run()
                assert counted and len(set(counted)) == len(counted)


# (kind, p, start, profile, result.canonical_key(), steps, initial, final).
# Fixed inputs with fixed answers: the property tests above accept any
# admissible refinement, these pin the choice and tie-breaking of each step.
GREEDY_GOLDEN = [
    (Kind.ROOTED, '2/3',
     '(((((t0,t4),(t2,t7,t9)),t3),t1,t6),t5,t8,t10,t11);',
     ('(((t0,t5,((t6,t11),t7),t9),t1,t8),(t2,t3,(t4,t10)));',
      '(t0,((t1,t2,t3,t5,t6,t9),(t4,t7,t11),t8),t10);',
      '(((t0,t3,(t4,t11)),t9,t10),(t1,t7),(t2,(t5,t6)),t8);'),
     "R(((((((((L't7',L't9'),L't2'),(L't0',L't4')),L't3'),(L't1',L't6')),L't11'),L't5'),"
     "L't8'),L't10')",
     5, '412', '1205/3'),
    (Kind.ROOTED, '3/4',
     '(((((t0,t4),(t2,t7,t9)),t3),t1,t6),t5,t8,t10,t11);',
     ('(((t0,t5,((t6,t11),t7),t9),t1,t8),(t2,t3,(t4,t10)));',
      '(t0,((t1,t2,t3,t5,t6,t9),(t4,t7,t11),t8),t10);',
      '(((t0,t3,(t4,t11)),t9,t10),(t1,t7),(t2,(t5,t6)),t8);'),
     "R(((((((((L't7',L't9'),L't2'),(L't0',L't4')),L't3'),(L't1',L't6')),L't11'),L't5'),"
     "L't8'),L't10')",
     5, '863/2', '1655/4'),
    (Kind.ROOTED, '2/3',
     '((((((t0,t3,(t4,t14)),t11),t5,t6,t13),((t10,t12),t15)),t1,t2,t7,t9),t8);',
     ('((t0,(t1,(t2,t15)),(t4,t7),(t5,t10),t12,t14),(t3,((t8,t9),t11),t13),t6);',
      '((t0,t2,t4,((t6,t12),t14),(t7,t8),t9,t13),(t1,t5,t10,t11),t3,t15);',
      '(((((t0,t10),t6),t8,t14),t12),(t1,(t3,((t7,t15),t13)),t5,t9),t2,t4,t11);'),
     "R((((((((((((L't14',L't4'),L't0'),L't3'),L't11'),L't13'),L't6'),L't5'),((L't10',"
     "L't12'),L't15')),(L't2',L't7')),L't9'),L't1'),L't8')",
     6, '3353/3', '3470/3'),
    (Kind.ROOTED, '3/4',
     '((((((t0,t3,(t4,t14)),t11),t5,t6,t13),((t10,t12),t15)),t1,t2,t7,t9),t8);',
     ('((t0,(t1,(t2,t15)),(t4,t7),(t5,t10),t12,t14),(t3,((t8,t9),t11),t13),t6);',
      '((t0,t2,t4,((t6,t12),t14),(t7,t8),t9,t13),(t1,t5,t10,t11),t3,t15);',
      '(((((t0,t10),t6),t8,t14),t12),(t1,(t3,((t7,t15),t13)),t5,t9),t2,t4,t11);'),
     "R((((((((((((L't14',L't4'),L't0'),L't3'),L't11'),L't13'),L't6'),L't5'),((L't10',"
     "L't12'),L't15')),(L't2',L't7')),L't9'),L't1'),L't8')",
     6, '4673/4', '4795/4'),
    (Kind.UNROOTED, '2/3',
     '((t0,t10),((t1,(t5,t6,t11)),t7),(t2,t4,t9),t3,t8);',
     ('((((t0,t3),t5,t11),t8),t1,((t2,t9,t10),t7),t4,t6);',
      '((t0,((t4,t7),t9),t8,t11),((t1,t3),t5,t6,t10),t2);',
      '(t0,((t1,(t4,(t5,(t7,t9))),t8),t10),(t2,t3,t11),t6);'),
     "U(L't0'|(((((((L't5',L't6'),L't11'),L't1'),L't7'),(((L't4',L't9'),L't2'),L't8')),"
     "L't3'),L't10'))",
     4, '2914/3', '2921/3'),
    (Kind.UNROOTED, '3/4',
     '((t0,t10),((t1,(t5,t6,t11)),t7),(t2,t4,t9),t3,t8);',
     ('((((t0,t3),t5,t11),t8),t1,((t2,t9,t10),t7),t4,t6);',
      '((t0,((t4,t7),t9),t8,t11),((t1,t3),t5,t6,t10),t2);',
      '(t0,((t1,(t4,(t5,(t7,t9))),t8),t10),(t2,t3,t11),t6);'),
     "U(L't0'|(((((((L't5',L't6'),L't11'),L't1'),L't7'),(((L't4',L't9'),L't2'),L't8')),"
     "L't3'),L't10'))",
     4, '4047/4', '1991/2'),
    (Kind.UNROOTED, '2/3',
     '((t0,t4,t9),(t1,t12),(t2,t3,(((t6,t11),t10),t7)),t5,t8);',
     ('(t0,t1,(((t2,t3,t5),t4,t8,t9,(t10,t12),t11),(t6,t7)));',
      '(t0,t1,(t2,(t4,t6)),(((t3,(t5,t9,t10)),t8),t7),t11,t12);',
      '(t0,t1,t2,(((t3,t5),t8,t11),((t4,t9),t6,t7,t10)),t12);'),
     "U(L't0'|(((((((L't11',L't6'),L't10'),L't7'),(L't2',L't3')),(L't5',L't8')),(L't1',"
     "L't12')),(L't4',L't9')))",
     4, '4189/3', '1395'),
    (Kind.UNROOTED, '3/4',
     '((t0,t4,t9),(t1,t12),(t2,t3,(((t6,t11),t10),t7)),t5,t8);',
     ('(t0,t1,(((t2,t3,t5),t4,t8,t9,(t10,t12),t11),(t6,t7)));',
      '(t0,t1,(t2,(t4,t6)),(((t3,(t5,t9,t10)),t8),t7),t11,t12);',
      '(t0,t1,t2,(((t3,t5),t8,t11),((t4,t9),t6,t7,t10)),t12);'),
     "U(L't0'|(((((((L't11',L't6'),L't10'),L't7'),(L't2',L't3')),(L't5',L't8')),(L't1',"
     "L't12')),(L't4',L't9')))",
     4, '5855/4', '5769/4'),
    (Kind.ROOTED, '2/3',
     '(t0,t1,t2,t3,t4,t5,t6,t7,t8,t9);',
     ('(t0,(t1,(t7,t8)),(t2,(((t3,t5),t9),t4)),t6);',
      '(t0,(t1,(t2,t4,t5,t6,t7,t8),t3,t9));',
      '((((t0,t1,(t5,t6)),t7),t4,(t8,t9)),t2,t3);'),
     "R(((((((((L't5',L't6'),L't7'),L't8'),L't4'),L't1'),L't9'),L't2'),L't3'),L't0')",
     8, '526/3', '512/3'),
    (Kind.ROOTED, '3/4',
     '(t0,t1,t2,t3,t4,t5,t6,t7,t8,t9);',
     ('(t0,(t1,(t7,t8)),(t2,(((t3,t5),t9),t4)),t6);',
      '(t0,(t1,(t2,t4,t5,t6,t7,t8),t3,t9));',
      '((((t0,t1,(t5,t6)),t7),t4,(t8,t9)),t2,t3);'),
     "R(((((((((L't5',L't6'),L't7'),L't8'),L't4'),L't1'),L't9'),L't2'),L't3'),L't0')",
     8, '789/4', '715/4'),
    (Kind.UNROOTED, '2/3',
     '(t0,t1,t2,t3,t4,t5,t6,t7,t8);',
     ('(t0,(t1,(t4,t7),t6),t2,t3,(t5,t8));',
      '(((((t0,t6),(t5,t7),t8),t3),t4),t1,t2);',
      '(t0,(t1,t5),(t2,t3,t7,t8),t4,t6);'),
     "U(L't0'|((((L't1',L't4'),(L't2',L't3')),((L't5',L't8'),L't7')),L't6'))",
     6, '542/3', '580/3'),
    (Kind.UNROOTED, '3/4',
     '(t0,t1,t2,t3,t4,t5,t6,t7,t8);',
     ('(t0,(t1,(t4,t7),t6),t2,t3,(t5,t8));',
      '(((((t0,t6),(t5,t7),t8),t3),t4),t1,t2);',
      '(t0,(t1,t5),(t2,t3,t7,t8),t4,t6);'),
     "U(L't0'|(((((L't5',L't8'),L't7'),(L't2',L't3')),(L't1',L't4')),L't6'))",
     6, '813/4', '809/4'),
]


@pytest.mark.parametrize("kind,p,start,members,key,steps,initial,final", GREEDY_GOLDEN,
                         ids=[f"{row[0].name.lower()}{i}" for i, row in enumerate(GREEDY_GOLDEN)])
def test_greedy_golden(kind, p, start, members, key, steps, initial, final):
    profile = Profile(tuple(parse_newick(m, kind) for m in members))
    g = greedy_refine_median(parse_newick(start, kind), profile, Fraction(p))
    assert g.tree.canonical_key() == key
    assert (g.steps, g.initial_distance, g.final_distance) == \
        (steps, Fraction(initial), Fraction(final))
