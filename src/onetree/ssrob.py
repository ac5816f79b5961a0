"""Rent-or-buy solvers for a single basis threshold.

Two interchangeable solvers, both deterministic given a seed:

- An exact oracle that enumerates the spanning trees of the root's
  component (every Steiner-optimal topology is contained in one, and
  zero-flow edges are free). One scan costs every tree at once through a
  flow table with a row per tree. The enumerated edge ids stream straight
  into an integer array; a row keeps the tree's n-1 edge columns and one
  flow per component edge, each in the narrowest integer type that holds
  the edge count or the total demand (one byte each below 256), so a
  table of n vertices and m edges takes about (n-1) + m bytes per tree.
  The flows of all rows come at once from peeling leaves toward the root,
  in n-1 whole-array steps; costs are summed in row blocks, bit for bit as
  one whole-table expression would. Up to ``_TABLE_LIMIT`` (2*10^5) trees
  the table is built once per instance and cached; above it the trees
  stream through fresh tables of at most that many rows, so memory stays
  at the scale of one table at the limit whatever the tree count. Beyond
  ``ORACLE_TREE_LIMIT`` (10^7) trees the oracle refuses. Cost ties go to
  the lexicographically smallest edge-id tuple.
- A randomized sample-and-augment heuristic; cost ties between its trials
  go to the smaller edge-id tuple as well. Its terminals are always demand
  vertices or the root, so their shortest-path trees are computed once per
  instance (memoized on it) and shared by every threshold and trial. The
  rent step searches the bought core as one merged source of
  ``shortest_path_tree`` instead of building a contraction per trial, and
  its paths are memoized on the instance by the core's vertex set. The
  solve at threshold index i gets seed + i and its trial t marks from
  ``random.Random(seed + i + t)``, so K+1 indices of T trials use only K+T
  streams; each stream's least unit draw per demand vertex is memoized on
  the instance as well. All of these give the same trees as the plain
  per-trial algorithm.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat, starmap
from typing import ClassVar, Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, InstanceError, OracleLimitError
from .graph import (
    INF,
    SUPERNODE,
    Edge,
    Instance,
    PathTree,
    UnionFind,
    minimum_spanning_forest,
    reachable_vertices,
    shortest_path_tree,
    tree_vertices,
)
from .routing import RoutedTree, basis_cost, route

#: Hard ceiling on spanning trees the exact oracle will enumerate.
ORACLE_TREE_LIMIT = 10_000_000
#: Above this count the oracle streams trees instead of caching a flow table.
_TABLE_LIMIT = 200_000
#: Rows per block when costing a table; a block's temporaries stay in cache.
_COST_BLOCK = 4096


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
    """Spanning trees, one per row, with their flows for fast costs.

    Column j stands for the component edge with id ``eids[j]``. ``columns``
    lists each tree's edge columns in enumeration order; ``flows`` has one
    entry per column, zero off the tree. ``columns`` takes the narrowest
    integer type that holds the edge count, ``flows`` the narrowest that
    holds the total demand.
    """

    columns: np.ndarray
    flows: np.ndarray
    eids: np.ndarray
    lengths: np.ndarray

    def edge_ids(self, row: int) -> tuple[int, ...]:
        """Row ``row``'s tree as the edge-id tuple it was enumerated as."""
        return tuple(self.eids[self.columns[row]].tolist())


def _flow_table(
    g: Instance, verts: Sequence[int], edges: Sequence[Edge], trees: Iterable[tuple[int, ...]]
) -> _TreeTable:
    """Flow table of ``trees``, spanning trees of the component ``verts``/``edges``.

    Every row's flows come at once from peeling leaves: each vertex keeps
    its tree degree and the XOR of its tree-edge columns, so a leaf's one
    edge is that XOR. Each of the n-1 steps pops one pending leaf per row,
    credits its subtree demand to its edge, hands the demand to the other
    endpoint and pushes that endpoint once it is a leaf too. The root is
    never pushed, so its own demand stays off every edge.
    """
    n = len(verts)
    width = n - 1
    eids = np.array([e.eid for e in edges], np.intp)
    lengths = np.array([e.length for e in edges])
    flat = np.fromiter(chain.from_iterable(trees), dtype=np.int32)
    if not width:
        # a lone root: its one spanning tree has no edges
        return _TreeTable(np.zeros((1, 0), np.uint8), np.zeros((1, 0)), eids, lengths)
    # degrees, columns and vertex indices all stay within the edge count
    small = np.min_scalar_type(len(edges))
    column = np.zeros(eids.max() + 1, small)
    column[eids] = np.arange(len(edges))
    columns = column[flat.reshape(-1, width)]
    del flat
    index = {v: i for i, v in enumerate(verts)}
    ends = np.array([(index[e.u], index[e.v]) for e in edges], np.intp)

    count = len(columns)
    each = np.arange(count)
    degree = np.zeros((count, n), small)
    link = np.zeros((count, n), small)
    for c in columns.T:
        for end in ends[c].T:
            degree[each, end] += 1
            link[each, end] ^= c

    # a flow never exceeds the total demand
    own = np.array([g.demands.get(v, 0) for v in verts], np.min_scalar_type(g.total_demand))
    below = np.tile(own, (count, 1))
    root = index[g.root]
    stack = np.zeros((count, width), small)
    top = np.zeros(count, np.intp)
    for v in range(n):
        if v != root:
            push = np.flatnonzero(degree[:, v] == 1)
            stack[push, top[push]] = v
            top[push] += 1
    flows = np.zeros((count, len(edges)), below.dtype)
    for _ in range(width):
        top -= 1
        leaf = stack[each, top]
        c = link[each, leaf]
        demand = below[each, leaf]
        flows[each, c] = demand
        other = ends[c, 0] ^ ends[c, 1] ^ leaf
        below[each, other] += demand
        link[each, other] ^= c
        degree[each, other] -= 1
        push = np.flatnonzero((degree[each, other] == 1) & (other != root))
        stack[push, top[push]] = other[push]
        top[push] += 1
    return _TreeTable(columns, flows, eids, lengths)


@lru_cache(maxsize=6)
def _enumerated_table(g: Instance) -> _TreeTable:
    verts, edges = _root_component(g)
    return _flow_table(g, verts, edges, _spanning_edge_sets(verts, edges))


def _streamed_tables(g: Instance) -> Iterator[_TreeTable]:
    """Every spanning tree, in fresh flow tables of at most _TABLE_LIMIT rows."""
    verts, edges = _root_component(g)
    trees = _spanning_edge_sets(verts, edges)
    for first in trees:
        chunk = chain((first,), islice(trees, max(1, _TABLE_LIMIT) - 1))
        yield _flow_table(g, verts, edges, chunk)


def _table_costs(
    table: _TreeTable, thresholds: Sequence[float], coefficients: Sequence[float]
) -> np.ndarray:
    """Combined cost of every row, in row blocks that stay in cache.

    Each row is summed in column order exactly as one whole-table
    expression would, so costs, and with them ties, are bit for bit the
    same; a matrix product would round differently. Flows are widened to
    float64 first: mixed with a float scalar, a narrow integer array would
    otherwise compute in float16 under NumPy 1.x casting rules.
    """
    costs = np.zeros(len(table.flows))
    for start in range(0, len(costs), _COST_BLOCK):
        flows = table.flows[start : start + _COST_BLOCK].astype(np.float64)
        part = costs[start : start + _COST_BLOCK]
        for a, m in zip(coefficients, thresholds):
            if a:
                part += a * (table.lengths * np.minimum(flows, m)).sum(axis=1)
    return costs


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
        costs = _table_costs(table, thresholds, coefficients)
        low = costs.min()
        tied = np.flatnonzero(costs == low)
        key = (low, min(table.edge_ids(j) for j in tied))
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


def _terminal_tree(g: Instance, source: int) -> PathTree:
    """``shortest_path_tree(g, source)``, run once per instance and source.

    Terminals are demand vertices or the root, so every threshold and trial
    of one instance shares at most |demands| + 1 trees. Callers must not
    mutate the returned dicts.
    """
    trees = g.source_trees
    tree = trees.get(source)
    if tree is None:
        tree = trees[source] = shortest_path_tree(g, source)
    return tree


def _steiner_core_edges(g: Instance, terminals: frozenset[int]) -> frozenset[int]:
    """Steiner tree over ``terminals`` by the metric-closure MST approximation.

    MST of the complete terminal graph under shortest-path distances, paths
    expanded back into the instance, cycles broken by dropping the longest
    redundant edge (an MST pass over the expanded edge union).
    """
    terms = sorted(terminals)
    if len(terms) <= 1:
        return frozenset()
    trees = {t: _terminal_tree(g, t) for t in terms}
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
    g: Instance, tree: PathTree, source: int, skip: Container[int]
) -> frozenset[int]:
    """Edges of the shortest-path ``tree`` paths to ``source`` (a vertex or
    SUPERNODE) from every demand vertex of ``g`` not in ``skip``."""
    dist, pred = tree
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
    """Shortest-path edges connecting every off-core demand to the core.

    The core is searched as one merged source, which gives the paths of a
    search from SUPERNODE in ``contract(g, core)`` without building it. The
    result depends only on the core's vertex set, so it is memoized on the
    instance under that set; trials and thresholds often buy the same core.
    """
    core = frozenset(tree_vertices(g.root, (g.edge_by_id[eid] for eid in core_edge_ids)))
    memo = g.rent_paths
    paths = memo.get(core)
    if paths is None:
        paths = memo[core] = _demand_paths(g, shortest_path_tree(g, core), SUPERNODE, core)
    return paths


def _spt_demand_paths(g: Instance) -> frozenset[int]:
    """Shortest-path edges from the root to every demand vertex.

    Not ``_rent_paths(g, frozenset())``: the merged source is named
    SUPERNODE, not the root's id, which changes how (distance, predecessor
    id) ties break.
    """
    return _demand_paths(g, _terminal_tree(g, g.root), g.root, ())


def _unit_minima(g: Instance, rng: random.Random) -> tuple[float, ...]:
    """Least of each demand vertex's unit draws, one draw per demand unit in
    demand order: the stream a per-unit marking loop consumes, drawn in C."""
    return tuple(min(starmap(rng.random, repeat((), amount))) for _v, amount in g.demand_items)


def _marked_vertices(g: Instance, seed: int, mark_probability: float) -> frozenset[int]:
    """Demand vertices with a unit of ``random.Random(seed)`` marked with
    ``mark_probability``.

    A unit is marked when its draw is below the probability, so a vertex is
    marked when its least draw is. Seeds recur across trials and thresholds
    (trial t at index i uses seed + i + t), so the least draws are memoized
    on the instance by seed.
    """
    memo = g.unit_minima
    lows = memo.get(seed)
    if lows is None:
        lows = memo[seed] = _unit_minima(g, random.Random(seed))
    return frozenset(
        v for (v, _amount), low in zip(g.demand_items, lows) if low < mark_probability
    )


def sample_and_augment(
    g: Instance, threshold: float, seed: int = 0, trials: int = 32
) -> RoutedTree:
    """Best-of-``trials`` randomized core sampling for one threshold.

    Each trial marks every demand unit independently with probability
    1/threshold, buys a Steiner core over the marked vertices plus the root,
    and rents shortest paths into the core for the rest. The cheapest trial
    tree wins; cost ties go to the smaller edge-id set.

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
        marked = _marked_vertices(g, seed + trial, mark_probability)
        core = _steiner_core_edges(g, marked | {g.root})
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
