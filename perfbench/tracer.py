"""Spans and counters recorded around calls into each package module.

The package is left untouched: each public function is wrapped by
rebinding its name in every ``onetree`` module that holds it, because
``from .graph import shortest_path_tree`` copies the binding into the
importing module. Spans nest through a stack, so each span's self time is
its duration minus the time covered by the spans it caused.
"""

from __future__ import annotations

import sys
from functools import wraps
from time import perf_counter

# (defining module, function name, span name). A name missing from the
# package is skipped, so the tracer survives refactors that drop one.
TRACED = (
    ("graph", "shortest_path_tree", "graph.dijkstra"),
    ("graph", "contract", "graph.contract"),
    ("routing", "route", "routing.route"),
    ("routing", "basis_cost", "routing.basis_cost"),
    ("routing", "decompose", "routing.decompose"),
    ("layers", "compute_layers", "layers.compute"),
    ("layers", "monotonize", "layers.monotonize"),
    ("layers", "prune", "layers.prune"),
    ("layers", "verify_layerset", "layers.verify"),
    ("last", "build_last", "last.build"),
    ("builder", "build_tree", "builder.build_tree"),
    ("builder", "check_layer_bounds", "builder.check_bounds"),
    ("evaluate", "simultaneous_ratio", "evaluate.ratio"),
    ("ssrob", "count_spanning_trees", "ssrob.count_trees"),
    ("ssrob", "_enumerated_table", "ssrob.table"),
)

LAYERS = ("graph", "routing", "ssrob", "layers", "last", "builder", "evaluate", "cli")


def rebind(name: str, original, replacement) -> list[tuple[object, str, object]]:
    """Point every onetree module's ``name`` that is ``original`` at ``replacement``.

    Returns undo records for :func:`restore`.
    """
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "onetree" or module is None:
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, replacement)
            undo.append((module, name, original))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for module, name, original in undo:
        setattr(module, name, original)


class Tracer:
    """Aggregated spans ``name -> [calls, total_s, self_s, max_s]`` plus counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.tree_counts: list[int] = []
        self._children: list[float] = []
        self._undo: list = []

    def wrap(self, span: str, fn):
        stats = self.spans.setdefault(span, [0, 0.0, 0.0, 0.0])
        children = self._children

        @wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - covered
                if elapsed > stats[3]:
                    stats[3] = elapsed

        return traced

    def install(self) -> None:
        onetree = sys.modules["onetree"]
        for modname, fname, span in TRACED:
            module = getattr(onetree, modname)
            original = getattr(module, fname, None)
            if original is None:
                continue
            fn = original
            if fname == "shortest_path_tree":
                fn = self._count_settled(fn)
            elif fname == "count_spanning_trees":
                fn = self._keep_tree_counts(fn)
            self._undo += rebind(fname, original, self.wrap(span, fn))
        enumerate_trees = getattr(onetree.ssrob, "_spanning_edge_sets", None)
        if enumerate_trees is not None:
            self._undo += rebind(
                "_spanning_edge_sets", enumerate_trees, self._count_trees(enumerate_trees)
            )

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _count_settled(self, fn):
        counts = self.counts

        def settled(g, source):
            dist, pred = fn(g, source)
            counts["dijkstra_settled"] = counts.get("dijkstra_settled", 0) + len(pred) + 1
            return dist, pred

        return settled

    def _keep_tree_counts(self, fn):
        def keep(g):
            count = fn(g)
            self.tree_counts.append(count)
            return count

        return keep

    def _count_trees(self, gen):
        counts = self.counts

        def counted(*args, **kwargs):
            for edge_set in gen(*args, **kwargs):
                counts["spanning_trees"] = counts.get("spanning_trees", 0) + 1
                yield edge_set

        return counted


class TracedSolver:
    """Delegates to a solver and times each ``solve`` as one span."""

    def __init__(self, inner, tracer: Tracer, span: str):
        self._inner = inner
        self.name = inner.name
        self.quality = inner.quality
        self.solve = tracer.wrap(span, self._solve)
        self.trials_run = 0

    def _solve(self, g, threshold, seed=0):
        # sample_and_augment runs its trials only strictly between the
        # degenerate thresholds 1 and the total demand.
        if 1.0 < threshold < g.total_demand:
            self.trials_run += getattr(self._inner, "trials", 0)
        return self._inner.solve(g, threshold, seed=seed)


def span_self(spans: dict[str, list], layer: str) -> float:
    """Self time of every span named after ``layer``."""
    return sum(s[2] for name, s in spans.items() if name.split(".")[0] == layer)
