import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings

from conftest import (classification_pairs, quartets_from_triplets, seeded_pair,
                      triplets_from_quartets)
from polydist.hausdorff import classification_counts
from polydist.oracle import Classification, classify_quartets, classify_triplets
from polydist.quartet import quartet_classification
from polydist.randgen import random_binary, random_partial
from polydist.trees import Kind


def four_times(c: Classification) -> Classification:
    return Classification(*(4 * x for x in astuple(c)))


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


# a single taxon has no neighbour to root at
@given(classification_pairs(Kind.UNROOTED, max_n=10).filter(lambda pair: pair[0].n >= 2))
@settings(max_examples=60, deadline=None)
def test_quartets_from_triplets_against_oracle(pair):
    a, b = pair
    assert quartets_from_triplets(a, b) == four_times(classify_quartets(a, b))


def test_quartets_from_triplets_beyond_the_oracle():
    # C(120, 4) = 8.2 million quartets are slow for the oracle
    a, b = seeded_pair(Kind.UNROOTED, 120, 11)
    for x, y in ((a, b), (b, a)):
        assert quartets_from_triplets(x, y) == four_times(quartet_classification(x, y))
