"""Rent-or-buy solvers for a single basis threshold.

Two interchangeable solvers, both deterministic given a seed:

- An exact oracle. A spanning tree's flows are zero off its flow support,
  the least subtree joining the root and the positive-demand vertices (the
  terminals): a Steiner topology. Costs depend on flows alone, so the
  oracle enumerates each Steiner topology of the root's component once
  (``_steiner_topologies``, branching edges in a greedy min-frontier order,
  ``_frontier_order``), completes each to the least spanning tree of
  its flow class and scans flow tables of those trees (``_flow_table``),
  cached per instance since it scans an instance once per threshold index.
  Cost ties go to the lexicographically smallest spanning tree. Its one
  limit is on the enumerator's work, counted in array cells since a
  frontier row costs in proportion to its width: past
  ``ORACLE_CELL_BUDGET`` (2^26) it refuses the instance. The spanning-tree
  count plays no part, so a graph with many trees but few topologies is
  answered.
- A randomized sample-and-augment heuristic (``sample_and_augment``);
  cost ties between its trials go to the smaller edge-id tuple as well. It
  gives the plain per-trial algorithm's trees but memoizes on the instance
  what trials and thresholds share: terminal shortest-path trees, each
  seed's draws and each terminal set's routed trial tree. The solve at
  threshold index i gets seed + i and its trial t draws from
  ``random.Random(seed + i + t)``, so K+1 indices of T trials use only K+T
  streams. A stream's marked set only shrinks as the threshold grows, so
  over d demand vertices a run routes at most min((K+1)·T, (K+T)·(d+1))
  distinct trial trees.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable, ClassVar, Container, Iterator, Sequence

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
    shortest_path_tree,
    tree_order,
    tree_vertices,
)
from .routing import RoutedTree, basis_cost, route

#: Most array cells the exact oracle's enumerator handles per instance
#: (see _steiner_topologies); past it the oracle refuses the instance.
ORACLE_CELL_BUDGET = 2**26
#: Most rows in one frontier block of the Steiner-topology enumerator, and
#: so in one flow table.
_FRONTIER_BLOCK = 16_384
#: Most array cells (2n+m per row) in one frontier block, for wide rows.
_FRONTIER_CELLS = 2**20


def _root_component(g: Instance) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    verts = {v for v, _ in tree_order(g.root, g.edges)}
    edges = tuple(e for e in g.edges if e.u in verts)
    return tuple(sorted(verts)), edges


def _frontier_order(n: int, ends: Sequence[tuple[int, int]]) -> list[int]:
    """The edges ``ends`` of a connected graph on vertices 0..n-1 in a greedy
    min-frontier order, which keeps the enumerator's open vertices few.

    Vertices are placed one at a time from vertex 0, the root, each step
    taking the unplaced neighbour of the placed set whose placement grows
    the frontier (placed vertices with an unplaced neighbour) least, ties to
    the smaller index; parallel edges count once. Edges then go by (later
    end's place, earlier end's place, index). A vertex's growth is kept as
    two counts that a placement updates only near the placed vertex, and a
    lazy heap re-scores just the vertices whose counts changed, so the
    order takes O(m log n).
    """
    near = [set() for _ in range(n)]
    for a, b in ends:
        near[a].add(b)
        near[b].add(a)
    # per vertex: unplaced neighbours, and placed neighbours it is the last
    # unplaced neighbour of
    left, closes = [len(vs) for vs in near], [0] * n

    def growth(v: int) -> int:
        return (left[v] > 0) - closes[v]

    place, placed, heap = [-1] * n, 0, [(growth(0), 0)]
    while heap:
        s, v = heappop(heap)
        if place[v] >= 0 or s != growth(v):
            continue
        place[v], placed = placed, placed + 1
        stale = set()
        for w in near[v]:
            left[w] -= 1
            if place[w] < 0:
                stale.add(w)
        for w in (v, *near[v]):
            if place[w] >= 0 and left[w] == 1:
                last = next(u for u in near[w] if place[u] < 0)
                closes[last] += 1
                stale.add(last)
        for w in stale:
            heappush(heap, (growth(w), w))
    spans = [(max(place[a], place[b]), min(place[a], place[b]), k) for k, (a, b) in enumerate(ends)]
    return [k for _, _, k in sorted(spans)]


def _exclude_probes(n: int, ends: Sequence[tuple[int, int]]) -> Callable[[int], list[np.ndarray]]:
    """A function giving, per edge k, the multi-vertex components of edges
    k+1.. as vertex arrays, in O(n) a call after O(n + m) setup.

    Union-find joins the edges last to first, and a join appends one root's
    linked list of vertices to the other's, so every component ever made is
    a run of the final lists. The components of edges k+1.. are those made
    by a join at an edge after k and joined into another at or before k.
    """
    uf = UnionFind(range(n))
    tail, after, top = list(range(n)), [-1] * n, list(range(n))
    # each vertex, then one component per join, as [first vertex, size, edge
    # making it, edge joining it into another]; top[r] is root r's latest
    comps = [[v, 1, -1, -1] for v in range(n)]
    for k in range(len(ends) - 1, -1, -1):
        a, b = uf.find(ends[k][0]), uf.find(ends[k][1])
        if uf.union(a, b):
            comps[top[a]][3] = comps[top[b]][3] = k
            comps.append([a, comps[top[a]][1] + comps[top[b]][1], k, -1])
            after[tail[a]], tail[a], top[a] = b, tail[b], len(comps) - 1
    order = []
    for v in (r for r in range(n) if uf.find(r) == r):
        while v >= 0:
            order.append(v)
            v = after[v]
    head, size, made, gone = np.array(comps).T
    lo = np.argsort(order)[head]
    hi = lo + size
    order = np.array(order, np.min_scalar_type(n))

    def probes(k: int) -> list[np.ndarray]:
        live = np.flatnonzero((made > k) & (gone <= k))
        return [order[i:j] for i, j in zip(lo[live].tolist(), hi[live].tolist())]

    return probes


def _joined(labels: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Each row of block ``labels`` with the blocks meeting each group merged
    under their least label: one label per component of blocks and groups."""
    count, n = labels.shape
    offset = np.arange(0, count * n, n)[:, None]
    for group in groups:
        ids = labels[:, group]
        hit = np.zeros(count * n, bool)
        hit[ids + offset] = True
        labels = np.where(hit[labels + offset], ids.min(axis=1)[:, None], labels)
    return labels


def _branch(
    rows: np.ndarray, n: int, k: int, a: int, b: int, probe: list[np.ndarray], ending: list[int]
) -> np.ndarray:
    """The children of every frontier row at edge k, which joins ``a`` and
    ``b``: the include child first where k joins two blocks, then the
    exclude child where every vertex of positive degree (every terminal and
    every covered vertex) still joins the root's block, label 0, through the
    row's blocks and the components ``probe`` of edges k+1 onward. Either
    child is dropped where it leaves a vertex of ``ending`` (non-terminal
    ends whose last edge is k) with degree 1."""
    labels, degrees = rows[:, :n], rows[:, n : 2 * n]
    at_a, at_b = labels[:, a], labels[:, b]
    include = at_a != at_b
    exclude = ((_joined(labels, probe) == 0) | (degrees == 0)).all(axis=1)
    for v in ending:
        include &= degrees[:, v] != 0
        exclude &= degrees[:, v] != 1
    low = np.minimum(at_a, at_b)[include, None]
    high = np.maximum(at_a, at_b)[include, None]
    kids = include + exclude.astype(np.intp)
    took = (np.cumsum(kids) - kids)[include]
    rows = rows[np.repeat(np.arange(len(rows)), kids)]
    merged = rows[took]
    labels = merged[:, :n]
    np.copyto(labels, low, where=labels == high)
    merged[:, [n + a, n + b]] += 1
    merged[:, 2 * n + k] = 1
    rows[took] = merged
    return rows


def _least_trees(rows: np.ndarray, n: int, ends: Sequence[tuple[int, int]]) -> np.ndarray:
    """The 0/1 edge flags of each row's Steiner topology completed to the
    least spanning tree that holds it: one Kruskal pass in edge-id order
    over the rows' block labels adds every edge that joins two blocks. The
    trees that hold a topology are the bases of a matroid, so that greedy
    basis is the lexicographically least tree of the flow class."""
    labels, flags = rows[:, :n], rows[:, 2 * n :]
    for k, (a, b) in enumerate(ends):
        low = np.minimum(labels[:, a], labels[:, b])[:, None]
        high = np.maximum(labels[:, a], labels[:, b])[:, None]
        flags[:, k] |= low[:, 0] != high[:, 0]
        np.copyto(labels, low, where=labels == high)
    return flags


def _steiner_topologies(
    g: Instance, verts: Sequence[int], edges: Sequence[Edge]
) -> Iterator[np.ndarray]:
    """One spanning tree per flow class of the component ``verts``/``edges``,
    the class's least, as a row of 0/1 edge flags, in blocks of at most
    _FRONTIER_BLOCK rows and _FRONTIER_CELLS cells.

    Contraction-deletion over Steiner topologies, run level by level. A
    frontier row is a partial topology: a block label per vertex (the least
    vertex of its block, with the root as vertex 0), a degree per vertex
    (one more for a terminal, so that positive degrees mark every vertex the
    topology must reach) and one flag per edge chosen so far. _branch gives
    each row its children at edge k; a row that survives every edge is a
    Steiner topology. A frontier block that outgrows that size is split
    and its tail set aside, without the flags of edges past k, which are
    all 0, until the head is done, depth first.

    Edges are branched in _frontier_order, not by id: the fewer vertices
    still wait for an edge, the sooner a dead branch fails the leaf rule or
    the exclude probes, which on the oracle_n14 graphs of seed 1 cuts the
    rows branched from 260,544 to 77,506. Each finished block's flag
    columns go back to edge-id order before _least_trees, so every row is
    its class's least tree whichever order found it.

    Raises OracleLimitError before its work passes ORACLE_CELL_BUDGET
    array cells, counting per branched row its 2n+m cells plus the n that
    _joined spends per probe group, over every level and block: rows
    branched, not topologies yielded, are what the enumeration costs.
    Every level branches at least one row, so a graph with m·(2n+m) over
    the budget is refused before any set-up.
    """
    n, m = len(verts), len(edges)
    too_large = OracleLimitError(
        f"instance too large for oracle: its enumeration passes {ORACLE_CELL_BUDGET} array cells"
    )
    if m * (2 * n + m) > ORACLE_CELL_BUDGET:
        raise too_large
    ranked = sorted(verts, key=lambda v: v != g.root)
    index = {v: i for i, v in enumerate(ranked)}
    id_ends = [(index[e.u], index[e.v]) for e in edges]
    order = _frontier_order(n, id_ends)
    ends = [id_ends[k] for k in order]
    id_flags = 2 * n + np.argsort(order)
    probes = _exclude_probes(n, ends)
    terminal = [v == g.root or g.demands.get(v, 0) > 0 for v in ranked]
    last = {v: k for k, pair in enumerate(ends) for v in pair if not terminal[v]}
    ending = [[v for v in {a, b} if last.get(v) == k] for k, (a, b) in enumerate(ends)]
    start = np.array([[*range(n), *terminal] + [0] * m], np.min_scalar_type(n))
    block = max(1, min(_FRONTIER_BLOCK, _FRONTIER_CELLS // (2 * n + m)))
    pending, work = [(0, start)], 0
    while pending:
        k, rows = pending.pop()
        rows = np.pad(rows, ((0, 0), (0, 2 * n + m - rows.shape[1])))
        for k in range(k, m):
            probe = probes(k)
            work += len(rows) * (2 * n + m + n * len(probe))
            if work > ORACLE_CELL_BUDGET:
                raise too_large
            rows = _branch(rows, n, k, *ends[k], probe, ending[k])
            if len(rows) > block:
                pending.append((k + 1, rows[block:, : 2 * n + k + 1].copy()))
                rows = rows[:block]
        if len(rows):
            rows[:, 2 * n :] = rows[:, id_flags]
            yield _least_trees(rows, n, id_ends)


@dataclass(frozen=True)
class _TreeTable:
    """Spanning trees, one per row, with their flows for fast costs.

    Column j stands for the component edge with id ``eids[j]``. ``columns``
    lists each tree's edge columns in ascending order; ``flows`` has one
    entry per column, zero off the tree. ``columns`` takes the narrowest
    integer type that holds the edge count, ``flows`` the narrowest that
    holds the total demand.
    """

    columns: np.ndarray
    flows: np.ndarray
    eids: np.ndarray
    lengths: np.ndarray

    def edge_ids(self, row: int) -> tuple[int, ...]:
        """Row ``row``'s tree as an ascending edge-id tuple."""
        return tuple(self.eids[self.columns[row]].tolist())


def _flow_table(
    g: Instance, verts: Sequence[int], edges: Sequence[Edge], flags: np.ndarray
) -> _TreeTable:
    """Flow table of the spanning trees of the component ``verts``/``edges``
    given as rows of 0/1 edge ``flags``, such as one block of
    _steiner_topologies.

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
    if not width:
        # a lone root: its one spanning tree has no edges
        return _TreeTable(np.zeros((1, 0), np.uint8), np.zeros((1, 0)), eids, lengths)
    # degrees, columns and vertex indices all stay within the edge count
    small = np.min_scalar_type(len(edges))
    columns = np.nonzero(flags)[1].astype(small).reshape(-1, width)
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


@lru_cache(maxsize=6)
def _enumerated_table(g: Instance) -> tuple[_TreeTable, ...]:
    """One flow table per block of _steiner_topologies: a row per flow class
    of the root's component, holding the class's least tree. Cached, since
    the oracle scans an instance once per threshold index.

    Each cached row was branched at the last edge for 2n+m cells of the
    budget and holds n-1 columns and m flows, so an instance caches at most
    8 bytes (2 with 16-bit flows) per ORACLE_CELL_BUDGET cell; K_8 with
    demand on vertices 1-4, 5.2·10^7 cells of work, caches 48,818 rows,
    under 2 MB.

    Raises OracleLimitError once the enumerator's work passes
    ORACLE_CELL_BUDGET array cells. An exception is not cached, so a
    refused instance is refused on every call, each after that much work.
    """
    verts, edges = _root_component(g)
    return tuple(
        _flow_table(g, verts, edges, flags) for flags in _steiner_topologies(g, verts, edges)
    )


def _table_costs(
    table: _TreeTable, thresholds: Sequence[float], coefficients: Sequence[float]
) -> np.ndarray:
    """Combined cost of every row of ``table``.

    Each row is summed on its own, in column order, so its cost, and with
    it every tie, is bit for bit the same whichever table the row is in; a
    matrix product would round differently. Flows are widened to float64
    first: mixed with a float scalar, a narrow integer array would otherwise
    compute in float16 under NumPy 1.x casting rules. A table holds at most
    _FRONTIER_BLOCK rows, so its two float buffers stay small.
    """
    costs = np.zeros(len(table.flows))
    flows = table.flows.astype(np.float64)
    capped = np.empty_like(flows)
    for a, m in zip(coefficients, thresholds):
        if a:
            np.multiply(np.minimum(flows, m, out=capped), table.lengths, out=capped)
            costs += a * capped.sum(axis=1)
    return costs


def best_tree_for_combination(
    g: Instance, thresholds: Sequence[float], coefficients: Sequence[float]
) -> RoutedTree:
    """Spanning tree minimizing sum_i coefficients[i] * cost(thresholds[i]).

    Scans one spanning tree per flow class of the root's component; ties go
    to the lexicographically smallest edge-id set. Raises OracleLimitError
    when enumerating the classes passes ORACLE_CELL_BUDGET array cells
    (see ``_enumerated_table``).
    """
    if len(thresholds) != len(coefficients):
        raise ConfigError("thresholds and coefficients must have equal length")
    tables = _enumerated_table(g)

    def key(table: _TreeTable) -> tuple[float, tuple[int, ...]]:
        costs = _table_costs(table, thresholds, coefficients)
        low = costs.min()
        return low, min(table.edge_ids(j) for j in np.flatnonzero(costs == low))

    return route(g, min(map(key, tables))[1])


def exact_ssrob(g: Instance, threshold: float) -> RoutedTree:
    """Minimum-cost routing tree for one basis threshold, by enumeration.

    The single-term case of :func:`best_tree_for_combination`, with its
    row budget and tie rule.
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


def _path_edges(pred: dict[int, tuple[int, int]], start: int, stop: int) -> Iterator[int]:
    """Edge ids of the shortest-path tree path ``pred`` walks from ``start``
    back to ``stop``."""
    while start != stop:
        start, eid = pred[start]
        yield eid


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
        for eid in _path_edges(trees[a][1], b, a):
            union_edges[eid] = by_id[eid]
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
        picked.update(_path_edges(pred, v, source))
    return frozenset(picked)


def _rent_paths(g: Instance, core_edge_ids: frozenset[int]) -> frozenset[int]:
    """Shortest-path edges connecting every off-core demand to the core.

    The core is searched as one merged source, which gives the paths of a
    search from SUPERNODE in ``contract(g, core)`` without building it.
    """
    core = frozenset(tree_vertices(g.root, (g.edge_by_id[eid] for eid in core_edge_ids)))
    return _demand_paths(g, shortest_path_tree(g, core), SUPERNODE, core)


def _spt_demand_paths(g: Instance) -> frozenset[int]:
    """Shortest-path edges from the root to every demand vertex.

    Not ``_rent_paths(g, frozenset())``: the merged source is named
    SUPERNODE, not the root's id, which changes how (distance, predecessor
    id) ties break.
    """
    return _demand_paths(g, _terminal_tree(g, g.root), g.root, ())


def _marked_vertices(g: Instance, seed: int, chances: Sequence[float]) -> frozenset[int]:
    """Demand vertices marked by the stream ``random.Random(seed)``.

    The stream gives one draw per demand vertex, in ``demand_items`` order,
    and a vertex is marked when its draw is below its entry of ``chances``,
    the chance that at least one of its units is marked. Seeds recur across
    trials and thresholds (trial t at index i uses seed + i + t), so the
    draws are memoized on the instance by seed.
    """
    memo = g.unit_draws
    draws = memo.get(seed)
    if draws is None:
        rng = random.Random(seed)
        draws = memo[seed] = tuple(rng.random() for _ in g.demand_items)
    return frozenset(
        v for (v, _amount), u, chance in zip(g.demand_items, draws, chances) if u < chance
    )


def _trial_tree(g: Instance, marked: frozenset[int]) -> RoutedTree:
    """The tree a trial builds from its ``marked`` demand vertices: a Steiner
    core over them and the root, plus rent paths into it.

    It depends on the terminal set alone, so it is memoized on the instance
    under that set; the trials of one threshold and of its neighbours mark
    the same sets again and again.
    """
    terminals = marked | {g.root}
    memo = g.trial_trees
    tree = memo.get(terminals)
    if tree is None:
        core = _steiner_core_edges(g, terminals)
        tree = memo[terminals] = route(g, core | _rent_paths(g, core))
    return tree


def sample_and_augment(
    g: Instance, threshold: float, seed: int = 0, trials: int = 32
) -> RoutedTree:
    """Best-of-``trials`` randomized core sampling for one threshold.

    Each trial marks every demand unit independently with probability
    p = 1/threshold, buys a Steiner core over the vertices with a marked
    unit plus the root, and rents shortest paths into the core for the
    rest. A vertex with ``amount`` units has a marked one with chance
    1 - (1 - p)^amount; these chances are computed once per solve and each
    trial takes one draw per demand vertex against them, so its cost does
    not grow with the total demand. The cheapest trial tree wins; cost ties
    go to the smaller edge-id set. Trials that mark the same set count
    once: their tree, and so its (cost, edge ids) key, is the same.

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
        return _trial_tree(g, frozenset(v for v, _ in g.demand_items))

    unmarked_log = math.log1p(-1.0 / threshold)
    chances = [-math.expm1(amount * unmarked_log) for _v, amount in g.demand_items]
    marked_sets = {_marked_vertices(g, seed + trial, chances) for trial in range(trials)}
    return min(
        (_trial_tree(g, marked) for marked in marked_sets),
        key=lambda tree: (basis_cost(tree, threshold), tree.edge_ids),
    )


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
