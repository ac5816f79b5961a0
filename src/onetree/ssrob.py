"""Rent-or-buy solvers for a single basis threshold.

Two interchangeable solvers, both deterministic given a seed:

- An exact oracle that enumerates the spanning trees of the root's
  component (every Steiner-optimal topology is contained in one, and
  zero-flow edges are free). One scan costs every tree at once through a
  flow table with a row per tree and a column per edge. Up to
  ``_TABLE_LIMIT`` (2*10^5) trees the table is built once per instance and
  cached; above it the trees stream through fresh tables of at most that
  many rows, so memory stays at the scale of one table at the limit
  whatever the tree count. Beyond ``ORACLE_TREE_LIMIT`` (10^7) trees the
  oracle refuses. Cost ties go to the lexicographically smallest edge-id
  tuple.
- A randomized sample-and-augment heuristic; cost ties between its trials
  go to the smaller edge-id tuple as well.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import ClassVar, Container, Iterator, Sequence

import numpy as np

from .errors import ConfigError, InstanceError, OracleLimitError
from .graph import (
    INF,
    SUPERNODE,
    Edge,
    Graph,
    Instance,
    UnionFind,
    contract,
    minimum_spanning_forest,
    reachable_vertices,
    shortest_path_tree,
    tree_order,
    tree_vertices,
)
from .routing import RoutedTree, basis_cost, compute_flows, route

#: Hard ceiling on spanning trees the exact oracle will enumerate.
ORACLE_TREE_LIMIT = 10_000_000
#: Above this count the oracle streams trees instead of caching a flow table.
_TABLE_LIMIT = 200_000


def _root_component(g: Instance) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    verts = reachable_vertices(g, g.root)
    edges = tuple(e for e in g.edges if e.u in verts)
    return tuple(sorted(verts)), edges


def count_spanning_trees(g: Instance) -> int:
    """Number of spanning trees of the root's component (matrix-tree theorem)."""
    verts, edges = _root_component(g)
    n = len(verts)
    if n == 1:
        return 1
    index = {v: i for i, v in enumerate(verts)}
    lap = np.zeros((n, n))
    for e in edges:
        i, j = index[e.u], index[e.v]
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    det = float(np.linalg.det(lap[1:, 1:]))
    if not math.isfinite(det):
        return ORACLE_TREE_LIMIT + 1
    return max(0, int(round(det)))


def _spanning_edge_sets(
    verts: Sequence[int], edges: Sequence[Edge]
) -> Iterator[tuple[int, ...]]:
    """Every spanning tree as an ascending edge-id tuple, no duplicates.

    Contraction-deletion over edges in id order: include an edge joining two
    components, or exclude it when the remaining edges can still connect.
    The walk keeps its own stack, so its depth does not grow with the graph;
    each exclude branch is pushed before its include branch, so include is
    explored first.
    """
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    m = len(edges)
    ends = [(index[e.u], index[e.v]) for e in edges]

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def connectable(parent: list[int], start: int, components: int) -> bool:
        probe = parent.copy()
        for k in range(start, m):
            a, b = ends[k]
            ra, rb = find(probe, a), find(probe, b)
            if ra != rb:
                probe[rb] = ra
                components -= 1
                if components == 1:
                    return True
        return components == 1

    stack: list[tuple[int, list[int], int, tuple[int, ...]]] = [(0, list(range(n)), n, ())]
    while stack:
        k, parent, components, chosen = stack.pop()
        if components == 1:
            yield chosen
            continue
        if k == m:
            continue
        a, b = ends[k]
        ra, rb = find(parent, a), find(parent, b)
        if connectable(parent, k + 1, components):
            stack.append((k + 1, parent, components, chosen))
        if ra != rb:
            merged = parent.copy()
            merged[rb] = ra
            stack.append((k + 1, merged, components - 1, chosen + (edges[k].eid,)))


@dataclass(frozen=True)
class _TreeTable:
    """Spanning trees with a per-edge flow matrix for fast costs."""

    edge_sets: tuple[tuple[int, ...], ...]
    flows: np.ndarray
    lengths: np.ndarray


def _flow_table(
    g: Instance, edges: Sequence[Edge], edge_sets: tuple[tuple[int, ...], ...]
) -> _TreeTable:
    by_id = {e.eid: e for e in edges}
    column = {e.eid: j for j, e in enumerate(edges)}
    flows = np.zeros((len(edge_sets), len(edges)), dtype=np.int64)
    demands = g.demands
    for row, eids in enumerate(edge_sets):
        order = tree_order(g.root, [by_id[i] for i in eids])
        for eid, flow in compute_flows(order, demands).items():
            flows[row, column[eid]] = flow
    return _TreeTable(edge_sets, flows, np.array([e.length for e in edges]))


@lru_cache(maxsize=6)
def _enumerated_table(g: Instance) -> _TreeTable:
    verts, edges = _root_component(g)
    return _flow_table(g, edges, tuple(_spanning_edge_sets(verts, edges)))


def _streamed_tables(g: Instance) -> Iterator[_TreeTable]:
    """Every spanning tree, in fresh flow tables of at most _TABLE_LIMIT rows."""
    verts, edges = _root_component(g)
    trees = _spanning_edge_sets(verts, edges)
    while chunk := tuple(islice(trees, max(1, _TABLE_LIMIT))):
        yield _flow_table(g, edges, chunk)


def best_tree_for_combination(
    g: Instance, thresholds: Sequence[float], coefficients: Sequence[float]
) -> RoutedTree:
    """Spanning tree minimizing sum_i coefficients[i] * cost(thresholds[i]).

    Enumerates the spanning trees of the root's component; ties go to the
    lexicographically smallest edge-id set. Raises OracleLimitError when the
    component has more than ORACLE_TREE_LIMIT spanning trees (counted via
    the matrix-tree theorem first).
    """
    if len(thresholds) != len(coefficients):
        raise ConfigError("thresholds and coefficients must have equal length")
    count = count_spanning_trees(g)
    if count > ORACLE_TREE_LIMIT:
        raise OracleLimitError(
            f"instance too large for oracle: about {count} spanning trees "
            f"(limit {ORACLE_TREE_LIMIT})"
        )
    tables = [_enumerated_table(g)] if count <= _TABLE_LIMIT else _streamed_tables(g)
    best: tuple[float, tuple[int, ...]] | None = None
    for table in tables:
        costs = np.zeros(len(table.edge_sets))
        for a, m in zip(coefficients, thresholds):
            if a:
                costs += a * (table.lengths * np.minimum(table.flows, m)).sum(axis=1)
        low = costs.min()
        key = (low, min(table.edge_sets[j] for j in np.flatnonzero(costs == low)))
        if best is None or key < best:
            best = key
    assert best is not None
    return route(g, best[1])


def exact_ssrob(g: Instance, threshold: float) -> RoutedTree:
    """Minimum-cost routing tree for one basis threshold, by enumeration.

    The single-term case of :func:`best_tree_for_combination`, with its
    guard and tie rule.
    """
    return best_tree_for_combination(g, (threshold,), (1.0,))


def _steiner_core_edges(g: Instance, terminals: frozenset[int]) -> frozenset[int]:
    """Steiner tree over ``terminals`` by the metric-closure MST approximation.

    MST of the complete terminal graph under shortest-path distances, paths
    expanded back into the instance, cycles broken by dropping the longest
    redundant edge (an MST pass over the expanded edge union).
    """
    terms = sorted(terminals)
    if len(terms) <= 1:
        return frozenset()
    trees = {t: shortest_path_tree(g, t) for t in terms}
    closure: list[tuple[float, int, int]] = []
    for i, a in enumerate(terms):
        dist_a = trees[a][0]
        for b in terms[i + 1 :]:
            d = dist_a[b]
            if d == INF:
                raise InstanceError(f"terminals {a} and {b} are not connected")
            closure.append((d, a, b))
    closure.sort()

    by_id = g.edge_by_id
    uf = UnionFind(terms)
    union_edges: dict[int, Edge] = {}
    joined = 1
    for _d, a, b in closure:
        if not uf.union(a, b):
            continue
        joined += 1
        pred = trees[a][1]
        w = b
        while w != a:
            parent, eid = pred[w]
            union_edges[eid] = by_id[eid]
            w = parent
        if joined == len(terms):
            break

    touched = tree_vertices(g.root, union_edges.values())
    reduced, _ = minimum_spanning_forest(touched, union_edges.values())
    return frozenset(e.eid for e in reduced)


def _demand_paths(
    g: Instance, graph: Graph, source: int, skip: Container[int]
) -> frozenset[int]:
    """Edges of the shortest ``graph`` paths to ``source`` from every demand
    vertex of ``g`` not in ``skip``."""
    dist, pred = shortest_path_tree(graph, source)
    picked: set[int] = set()
    for v, _amount in g.demand_items:
        if v in skip:
            continue
        if dist.get(v, INF) == INF:
            raise InstanceError(f"disconnected demand: vertex {v} is unreachable from the root")
        w = v
        while w != source:
            parent, eid = pred[w]
            picked.add(eid)
            w = parent
    return frozenset(picked)


def _rent_paths(g: Instance, core_edge_ids: frozenset[int]) -> frozenset[int]:
    """Shortest-path edges connecting every off-core demand to the core."""
    core = tree_vertices(g.root, (g.edge_by_id[eid] for eid in core_edge_ids))
    return _demand_paths(g, contract(g, core), SUPERNODE, core)


def _spt_demand_paths(g: Instance) -> frozenset[int]:
    """Shortest-path edges from the root to every demand vertex.

    Not ``_rent_paths(g, frozenset())``: contraction renames the root to
    SUPERNODE, which changes how (distance, predecessor id) ties break.
    """
    return _demand_paths(g, g, g.root, ())


def sample_and_augment(
    g: Instance, threshold: float, seed: int = 0, trials: int = 32
) -> RoutedTree:
    """Best-of-``trials`` randomized core sampling for one threshold.

    Each trial marks every demand unit independently with probability
    1/threshold, buys a Steiner core over the marked vertices plus the root,
    and rents shortest paths into the contracted core for the rest. The
    cheapest trial tree wins; cost ties go to the smaller edge-id set.

    Degenerate thresholds are handled deterministically: threshold >= total
    demand reduces to shortest-path routing, threshold <= 1 to the Steiner
    core over all demand vertices.
    """
    if threshold < 1.0:
        raise ConfigError("threshold must be >= 1")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if threshold >= g.total_demand:
        return route(g, _spt_demand_paths(g))
    if threshold <= 1.0:
        core = _steiner_core_edges(g, frozenset(v for v, _ in g.demand_items) | {g.root})
        return route(g, core | _rent_paths(g, core))

    mark_probability = 1.0 / threshold
    best: tuple[tuple[float, tuple[int, ...]], RoutedTree] | None = None
    for trial in range(trials):
        rng = random.Random(seed + trial)
        marked: set[int] = set()
        for v, amount in g.demand_items:
            hit = False
            for _unit in range(amount):
                if rng.random() < mark_probability:
                    hit = True
            if hit:
                marked.add(v)
        core = _steiner_core_edges(g, frozenset(marked) | {g.root})
        tree = route(g, core | _rent_paths(g, core))
        key = (basis_cost(tree, threshold), tree.edge_ids)
        if best is None or key < best[0]:
            best = (key, tree)
    assert best is not None
    return best[1]


@dataclass(frozen=True)
class ExactSolver:
    """Optimal basis trees by exhaustive enumeration; tiny instances only."""

    name: ClassVar[str] = "exact"
    quality: ClassVar[str] = "exact"

    def solve(self, g: Instance, threshold: float, seed: int = 0) -> RoutedTree:
        return exact_ssrob(g, threshold)


@dataclass(frozen=True)
class SampleAugmentSolver:
    """Randomized sample-and-augment heuristic, best of ``trials`` repeats."""

    trials: int = 32
    name: ClassVar[str] = "sample-augment"

    @property
    def quality(self) -> str:
        return f"heuristic(trials={self.trials})"

    def solve(self, g: Instance, threshold: float, seed: int = 0) -> RoutedTree:
        return sample_and_augment(g, threshold, seed=seed, trials=self.trials)


def get_solver(name: str, trials: int = 32):
    """Solver lookup for the CLI names 'exact' and 'sample-augment'."""
    if name == "exact":
        return ExactSolver()
    if name == "sample-augment":
        return SampleAugmentSolver(trials=trials)
    raise ConfigError(f"unknown solver '{name}' (choose 'exact' or 'sample-augment')")
