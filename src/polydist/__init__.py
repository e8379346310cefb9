"""Polytomy-aware distances between phylogenetic trees.

Exact parametric triplet distances, 2-approximate parametric quartet
distances, Hausdorff-style bounds between sets of full refinements,
approximate median consensus, and exact small-case oracles.
"""

from polydist.trees import (
    Kind,
    Phylogeny,
    TaxonSet,
    TreeError,
    restrict,
    is_refinement,
)
from polydist.oracle import QuartetTopology, TripletTopology
from polydist.newick import parse_newick, write_newick, NewickError
from polydist.triplet import parametric_triplet_distance
from polydist.quartet import parametric_quartet_distance

__all__ = [
    "Kind",
    "Phylogeny",
    "QuartetTopology",
    "TaxonSet",
    "TreeError",
    "TripletTopology",
    "restrict",
    "is_refinement",
    "parse_newick",
    "write_newick",
    "NewickError",
    "parametric_triplet_distance",
    "parametric_quartet_distance",
]
