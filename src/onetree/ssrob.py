"""Rent-or-buy solvers for a single basis threshold.

Two interchangeable solvers, both deterministic given a seed:

- An exact oracle that enumerates the spanning trees of the root's
  component (every Steiner-optimal topology is contained in one, and
  zero-flow edges are free). The enumeration is contraction-deletion over
  edges in id order, run level by level over every live partial tree at
  once: at edge k each row of the frontier gets an include child where k
  joins two of its blocks and an exclude child where the rest can still
  connect it. The exclude test comes from one backward pass per component:
  every row may exclude k when edges k+1.. already join its ends, none when
  k is a bridge, and otherwise the rows replay the components of edges
  k+1.. on their blocks. A frontier block holds at most _FRONTIER_BLOCK
  (and _TABLE_LIMIT) rows; a larger one is split depth first, which keeps
  the order of the trees and bounds memory. Trees come out in ascending
  lexicographic edge-id order and stream straight into a flow table with a
  row per tree: the tree's n-1 edge columns and one flow per component
  edge, each in the narrowest integer type that holds the edge count or the
  total demand (one byte each below 256). The flows of all rows come at
  once from peeling leaves toward the root, in n-1 whole-array steps. Costs
  depend on flows alone, so the table keeps the first row of each distinct
  flow vector, which holds that class's smallest edge-id tuple; costs are
  summed in row blocks, bit for bit as one whole-table expression would. Up
  to ``_TABLE_LIMIT`` (2*10^5) trees the table is built once per instance
  and cached; above it the trees stream through fresh tables of at most
  that many rows, so memory stays at the scale of one table at the limit
  whatever the tree count. Beyond ``ORACLE_TREE_LIMIT`` (10^7) trees the
  oracle refuses. Cost ties go to the lexicographically smallest edge-id
  tuple.
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
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat, starmap
from typing import ClassVar, Container, Iterable, Iterator, Sequence, Union

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
#: Most rows in one frontier block of the spanning-tree enumerator.
_FRONTIER_BLOCK = 16_384
#: Rows per block when costing a table (its temporaries stay in cache) or
#: turning enumerated rows into edge-id tuples.
_ROW_BLOCK = 4096


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


def _bridges(n: int, ends: Sequence[tuple[int, int]]) -> list[bool]:
    """Which edges of the connected multigraph on vertices 0..n-1 are bridges.

    Tarjan's low-link test on an explicit DFS stack; a parallel edge is told
    from the tree edge it doubles by its index, so it is never a bridge.
    """
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (a, b) in enumerate(ends):
        adjacent[a].append((b, k))
        adjacent[b].append((a, k))
    bridge = [False] * len(ends)
    order = [-1] * n
    low = [0] * n
    order[0] = 0
    visited = 1
    stack = [(0, -1, iter(adjacent[0]))]
    while stack:
        v, via, rest = stack[-1]
        for w, k in rest:
            if k == via:
                continue
            if order[w] < 0:
                order[w] = low[w] = visited
                visited += 1
                stack.append((w, k, iter(adjacent[w])))
                break
            low[v] = min(low[v], order[w])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                bridge[via] = low[v] > order[parent]
    return bridge


#: Per edge k, which rows may exclude it: all (True), none (False), or those
#: whose blocks the multi-vertex components of edges k+1.. still join.
_Probe = Union[bool, list[np.ndarray]]


def _exclude_probes(n: int, ends: Sequence[tuple[int, int]]) -> list[_Probe]:
    """The exclude test of every edge, from one backward union-find pass.

    Edge k may be left out of a partial tree exactly when its blocks and
    edges k+1.. connect everything. That holds for every row when edges
    k+1.. already join k's ends, and for none when k is a bridge. Otherwise
    the rows replay the components of edges k+1.. on their blocks.
    """
    bridge = _bridges(n, ends)
    later = UnionFind(range(n))
    probes: list[_Probe] = [False] * len(ends)
    for k in range(len(ends) - 1, -1, -1):
        a, b = ends[k]
        if later.find(a) == later.find(b):
            probes[k] = True
            continue
        if not bridge[k]:
            members: dict[int, list[int]] = {}
            for v in range(n):
                members.setdefault(later.find(v), []).append(v)
            probes[k] = [np.array(group, np.intp) for group in members.values() if len(group) > 1]
        later.union(a, b)
    return probes


def _joined(labels: np.ndarray, groups: list[np.ndarray], a: int, b: int) -> np.ndarray:
    """Whether ``a`` and ``b`` share a block of each row of ``labels`` once
    the blocks meeting each group are merged, group after group.

    The last group needs no merge: it joins ``a`` and ``b`` exactly when
    both their blocks meet it.
    """
    count, n = labels.shape
    offset = np.arange(0, count * n, n)[:, None]
    for group in groups[:-1]:
        ids = labels[:, group]
        hit = np.zeros(count * n, bool)
        hit[ids + offset] = True
        labels = np.where(hit[labels + offset], ids.min(axis=1)[:, None], labels)
    at_a, at_b = labels[:, a], labels[:, b]
    joined = at_a == at_b
    if groups:
        ids = labels[:, groups[-1]]
        joined |= (ids == at_a[:, None]).any(axis=1) & (ids == at_b[:, None]).any(axis=1)
    return joined


def _branch(rows: np.ndarray, n: int, k: int, a: int, b: int, probe: _Probe) -> np.ndarray:
    """The children of every frontier row at edge k, which joins ``a`` and
    ``b``: the include child first where k joins two blocks, then the
    exclude child where ``probe`` allows it."""
    at_a, at_b = rows[:, a], rows[:, b]
    include = at_a != at_b
    if isinstance(probe, bool):
        exclude = np.full(len(rows), probe)
    else:
        exclude = ~include
        ask = np.flatnonzero(include)
        for first in range(0, len(ask), _ROW_BLOCK):
            part = ask[first : first + _ROW_BLOCK]
            exclude[part] = _joined(rows[part, :n], probe, a, b)
    low = np.minimum(at_a, at_b)[include, None]
    high = np.maximum(at_a, at_b)[include, None]
    kids = include + exclude.astype(np.intp)
    took = (np.cumsum(kids) - kids)[include]
    rows = rows[np.repeat(np.arange(len(rows)), kids)]
    merged = rows[took]
    labels = merged[:, :n]
    np.copyto(labels, low, where=labels == high)
    merged[:, n + k] = 1
    rows[took] = merged
    return rows


def _spanning_tree_blocks(verts: Sequence[int], edges: Sequence[Edge]) -> Iterator[np.ndarray]:
    """Every spanning tree as a row of 0/1 edge flags, in blocks of rows.

    Contraction-deletion run level by level. A frontier row is a partial
    tree: a block label per vertex (the least vertex of its block) followed
    by one flag per edge chosen so far. At edge k every row gets an include
    child if k joins two of its blocks and an exclude child if the rest can
    still connect it (see _exclude_probes). Children stay contiguous,
    include first, so the trees come out in ascending lexicographic order.
    A frontier block never exceeds _FRONTIER_BLOCK or _TABLE_LIMIT rows: a
    larger one is split and its tail set aside until the head is done, depth
    first, so memory stays small whatever the tree count.
    """
    n, m = len(verts), len(edges)
    index = {v: i for i, v in enumerate(verts)}
    ends = [(index[e.u], index[e.v]) for e in edges]
    probes = _exclude_probes(n, ends)
    limit = max(1, min(_TABLE_LIMIT, _FRONTIER_BLOCK))
    root = np.zeros((1, n + m), np.min_scalar_type(n - 1))
    root[0, :n] = np.arange(n)
    pending = [(0, root)]
    while pending:
        k, rows = pending.pop()
        for k in range(k, m):
            rows = _branch(rows, n, k, *ends[k], probes[k])
            if len(rows) > limit:
                pending.append((k + 1, rows[limit:].copy()))
                rows = rows[:limit]
        yield rows[:, n:]


def _spanning_edge_sets(
    verts: Sequence[int], edges: Sequence[Edge]
) -> Iterator[tuple[int, ...]]:
    """Every spanning tree as an ascending edge-id tuple, in ascending
    lexicographic order, no duplicates; converted in blocks of _ROW_BLOCK rows."""
    eids = np.array([e.eid for e in edges], np.intp)
    for flags in _spanning_tree_blocks(verts, edges):
        for start in range(0, len(flags), _ROW_BLOCK):
            block = flags[start : start + _ROW_BLOCK]
            chosen = eids[np.nonzero(block)[1]].reshape(len(block), -1)
            yield from map(tuple, chosen.tolist())


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

    # per-row arrays are kept flat, vertex v of row r at r * n + v, and so
    # is each row's stack of pending leaves, with top[r] the flat index just
    # past its last one: every access is one gather or scatter by one array
    count = len(columns)
    at = np.arange(0, count * n, n)
    degree = np.zeros(count * n, small)
    link = np.zeros(count * n, small)
    for c in columns.T:
        for end in ends[c].T:
            degree[at + end] += 1
            link[at + end] ^= c

    # a flow never exceeds the total demand
    own = np.array([g.demands.get(v, 0) for v in verts], np.min_scalar_type(g.total_demand))
    below = np.tile(own, count)
    root = index[g.root]
    across = (ends[:, 0] ^ ends[:, 1]).astype(small)
    stack = np.zeros(count * n, small)
    top = at.copy()
    for v in range(n):
        if v != root:
            push = np.flatnonzero(degree[v::n] == 1)
            stack[top[push]] = v
            top[push] += 1
    flows = np.zeros((count, len(edges)), below.dtype)
    flow_at = np.arange(0, flows.size, len(edges))
    for _ in range(width):
        top -= 1
        leaf = stack[top]
        here = at + leaf
        c = link[here]
        demand = below[here]
        flows.ravel()[flow_at + c] = demand
        other = across[c] ^ leaf
        here = at + other
        below[here] += demand
        link[here] ^= c
        degree[here] -= 1
        push = np.flatnonzero((degree[here] == 1) & (other != root))
        stack[top[push]] = other[push]
        top[push] += 1
    return _TreeTable(columns, flows, eids, lengths)


def _distinct_flows(table: _TreeTable) -> _TreeTable:
    """``table`` cut to the first row of each distinct flow vector.

    A cost depends on the flows alone, so a scan of the cut table finds the
    same costs, bit for bit. Component edges are in ascending id order (both
    Instance constructors number edges in list order), so trees are
    enumerated in ascending edge-id order and the first row of a flow class
    holds its smallest edge-id tuple: the tie rule is kept too. A tree whose
    every edge carries flow is the only tree with its flows, since their
    support is its edge set, so only the rows with a zero-flow tree edge are
    compared.
    """
    flows = table.flows
    maybe = np.flatnonzero(np.count_nonzero(flows, axis=1) < table.columns.shape[1])
    if len(maybe) < 2:
        return table
    shared = flows[maybe]
    if flows.dtype == object:
        first: dict[tuple[int, ...], int] = {}
        for j, row in enumerate(map(tuple, shared.tolist())):
            first.setdefault(row, j)
        firsts = np.fromiter(first.values(), np.intp, len(first))
    else:
        whole_row = np.dtype((np.void, flows.itemsize * flows.shape[1]))
        firsts = np.unique(shared.view(whole_row), return_index=True)[1]
    if len(firsts) == len(maybe):
        return table
    repeated = np.ones(len(maybe), bool)
    repeated[firsts] = False
    keep = np.delete(np.arange(len(flows)), maybe[repeated])
    return _TreeTable(table.columns[keep], flows[keep], table.eids, table.lengths)


@lru_cache(maxsize=6)
def _enumerated_table(g: Instance) -> _TreeTable:
    verts, edges = _root_component(g)
    return _distinct_flows(_flow_table(g, verts, edges, _spanning_edge_sets(verts, edges)))


def _streamed_tables(g: Instance) -> Iterator[_TreeTable]:
    """Every spanning tree, in fresh flow tables of at most _TABLE_LIMIT rows,
    each cut to its distinct flow vectors."""
    verts, edges = _root_component(g)
    trees = _spanning_edge_sets(verts, edges)
    for first in trees:
        chunk = chain((first,), islice(trees, max(1, _TABLE_LIMIT) - 1))
        yield _distinct_flows(_flow_table(g, verts, edges, chunk))


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
    for start in range(0, len(costs), _ROW_BLOCK):
        flows = table.flows[start : start + _ROW_BLOCK].astype(np.float64)
        part = costs[start : start + _ROW_BLOCK]
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
    for v, amount in g.demand_items:
        if amount > sys.maxsize:
            raise InstanceError(
                f"demand {amount} on vertex {v} is too large for sample-augment, "
                "which draws one random number per demand unit"
            )
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
