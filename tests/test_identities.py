import random

import pytest
from hypothesis import given, settings

from conftest import classification_pairs, triplets_from_quartets
from polydist.hausdorff import classification_counts
from polydist.oracle import classify_triplets
from polydist.randgen import random_binary, random_partial
from polydist.trees import Kind


@given(classification_pairs(Kind.ROOTED, max_n=12))
@settings(max_examples=80, deadline=None)
def test_triplets_from_quartets_against_oracle(pair):
    a, b = pair
    assert triplets_from_quartets(a, b) == classify_triplets(a, b)


@pytest.mark.parametrize("shapes", ["partial-partial", "binary-partial"])
def test_triplets_from_quartets_beyond_the_oracle(shapes):
    # n = 1000: C(1000, 3) triplets are out of the oracle's reach
    rng = random.Random(7)
    first = (random_binary(1000, Kind.ROOTED, rng) if shapes.startswith("binary")
             else random_partial(1000, Kind.ROOTED, rng, contract_prob=0.3))
    second = random_partial(1000, Kind.ROOTED, rng, contract_prob=0.6, taxa=first.taxa)
    for a, b in ((first, second), (second, first)):
        assert triplets_from_quartets(a, b) == classification_counts(a, b)
