"""Spans around the calls into each polydist module, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper at every
module-level binding inside the `polydist` package (and on the class for
methods).  `hausdorff`, `quartet` and `consensus` import kernels by name,
so patching the defining module alone would miss their calls.  Spans are
kept in memory as (name, start, end, parent index) and written out at the
end; nothing is traced unless a Tracer is installed.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import comb
from pathlib import Path


def _table_cells(args, result) -> int:
    t1, t2 = args[0], args[1]
    return t1.num_nodes * t2.num_nodes


def _triplets(args, result) -> int:
    return comb(args[0].n, 3)


def _quartets(args, result) -> int:
    return comb(args[0].n, 4)


# (module, attribute, span name, extra counter or None).  A counter maps
# the call's arguments and result to a count added under its own name.
TARGETS = [
    ("polydist.newick", "parse_newick", "newick.parse", None),
    ("polydist.trees", "pull_out", "trees.edit", None),
    ("polydist.trees", "pull_2_out", "trees.edit", None),
    ("polydist.triplet", "build_tables", "triplet.build_tables",
     ("triplet.table_cells", _table_cells)),
    ("polydist.triplet", "count_shared", "triplet.count_shared", None),
    ("polydist.triplet", "count_r1", "triplet.count_r1", None),
    ("polydist.triplet", "count_R_U", "triplet.count_R_U", None),
    ("polydist.triplet", "parametric_triplet_distance", "triplet.distance", None),
    ("polydist.quartet", "count_shared_quartets", "quartet.count_shared", None),
    ("polydist.quartet", "approx_r1_quartets", "quartet.approx_r1", None),
    ("polydist.quartet", "count_R_U_quartets", "quartet.count_R_U", None),
    ("polydist.quartet", "parametric_quartet_distance", "quartet.distance", None),
    ("polydist.oracle", "classify_triplets", "oracle.classify",
     ("oracle.subsets_classified", _triplets)),
    ("polydist.oracle", "classify_quartets", "oracle.classify",
     ("oracle.subsets_classified", _quartets)),
    ("polydist.hausdorff", "classification_counts", "hausdorff.classification_counts", None),
    ("polydist.hausdorff", "hausdorff_bounds", "hausdorff.bounds", None),
    ("polydist.hausdorff", "adversarial_refinement", "hausdorff.adversarial", None),
    ("polydist.consensus", "rooted_vote_tally", "consensus.vote_tally", None),
    ("polydist.consensus", "unrooted_vote_tally", "consensus.vote_tally", None),
    ("polydist.consensus", "profile_distance", "consensus.profile_distance", None),
    ("polydist.consensus", "best_of_profile", "consensus.best_of_profile", None),
    ("polydist.consensus", "greedy_refine_median", "consensus.greedy",
     ("consensus.greedy_steps", lambda args, result: result.steps)),
]

LAYERS = ("newick", "trees", "triplet", "quartet", "oracle", "hausdorff", "consensus")


class Tracer:
    """Records spans and counts for the calls that pass through its wrappers."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._lca_built: dict[int, object] = {}

    # -- recording -------------------------------------------------------

    def _record(self, name: str, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, fn, name: str, extra):
        def traced(*args, **kwargs):
            result = self._record(name, fn, args, kwargs)
            self.counts[name + ".calls"] += 1
            if extra is not None:
                self.counts[extra[0]] += extra[1](args, result)
            return result
        return traced

    def _wrap_lca(self, method):
        """Phylogeny.leaf_lca_tables caches its tables on the tree, so only
        the first call on each tree builds them: every call is counted,
        only builds get a span.  The trees are held so ids stay unique."""
        def traced(tree):
            self.counts["trees.lca_tables.calls"] += 1
            if id(tree) in self._lca_built:
                return method(tree)
            self._lca_built[id(tree)] = tree
            self.counts["trees.lca_tables.builds"] += 1
            return self._record("trees.lca_tables", method, (tree,), {})
        return traced

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target at each of its bindings in loaded polydist modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "polydist" or name.startswith("polydist."))]
        for mod_name, attr, name, extra in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        phylogeny = sys.modules["polydist.trees"].Phylogeny
        self._patch(phylogeny, "leaf_lca_tables",
                    self._wrap_lca(phylogeny.leaf_lca_tables))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._lca_built.clear()

    # -- reading ---------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """A point to aggregate from: span index and a copy of the counts."""
        return len(self.spans), Counter(self.counts)

    def totals(self, since: tuple[int, Counter] = (0, Counter())) -> tuple[dict, dict, Counter]:
        """(inclusive seconds per span name, self seconds per layer, counts)
        over the spans and counts recorded after `since` (default: all)."""
        first, counts_then = since
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        inclusive: dict[str, float] = {}
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, parent) in enumerate(spans):
            inclusive[name] = inclusive.get(name, 0.0) + end - start
            layer_self[name.split(".")[0]] += end - start - child_time[i]
        counts = Counter(self.counts)
        counts.subtract(counts_then)
        return inclusive, layer_self, counts

    def write(self, path: Path):
        """Spans as tab-separated lines: index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
