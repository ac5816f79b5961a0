"""Independent oracles used only by the tests.

The brute-force tree oracles deliberately share nothing with the package's
subset-DP oracle: spanning trees are found by filtering fixed-size edge
subsets, and :func:`count_spanning_trees` counts them exactly by the
matrix-tree theorem. :func:`reference_spanning_edge_sets` is a plain
contraction-deletion walk over every spanning tree, one partial tree at a
time, and :func:`reference_flow_classes` groups its trees by their walked
flows, keeping the least edge-id tuple per class. :func:`exact_cost` costs
a tree in rational arithmetic, so that a test can ask for the least cost
exactly, whatever order a float sum takes. The numeric parameter optimizer
checks the closed form in :func:`onetree.optimal_parameters` without using
it. :func:`workload_instances` gives the benchmark's own graphs.
:func:`reference_sample_and_augment` is the plain form of the package's
sample-and-augment solver, which the faster one must match tree for tree;
:func:`basis_grid` is the threshold grid of an instance, and
:func:`reference_monotonize` the loops that compared costs at every index,
which ``monotonize``'s skip of identical neighbors must match.
:func:`reference_shortest_path_tree` is the shortest-path search over
per-vertex ``Edge`` tuples, keyed by vertex id, that the package's list
search must match; :func:`reference_search` the bounded search with a tuple
label on every vertex, which the package's float-first relax must match;
:func:`reference_core` the Steiner core by Kruskal over the metric closure,
which the package's dense Prim must match; and :func:`reference_contract`
the contraction keyed by base vertex id that the package's renumbered one
must match. :func:`other` is an edge's far end.
:func:`reference_route` checks and routes an edge set by a
breadth-first walk over an adjacency built from its own ``Edge`` objects
(:func:`reference_tree_order`), which ``route``'s walk over the instance's
adjacency must match, and :func:`reference_tree_distances` sums root
distances along that walk; :func:`tree_vertices` gives an edge set's
vertices and :func:`root_component_edges` the root's component by that
walk. :func:`reference_branch_vertices` finds the exact oracle's
terminals and branch vertices from neighbour sets, which its
set-up's count over the instance's adjacency must match, and
:func:`reference_last` is the LAST's relax-on-DFS over an MST adjacency of
``Edge`` lists, which ``build_last``'s DFS over the instance's adjacency
must match.
:class:`ConcaveFunction`, :func:`decompose_function`, :func:`eval_cost` and
:func:`best_tree_for_function` state a concave cost function over the
threshold basis, for the tests of the reduction from any concave function
to the basis.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from onetree import SUPERNODE, Instance, RoutedTree, basis_cost, basis_threshold, contract, route
from onetree import ConfigError, InvalidTreeError, InvariantError, load_instance, threshold_grid
from onetree import shortest_path_tree
from onetree.graph import INF, Edge, UnionFind, minimum_spanning_forest, minimum_spanning_tree
from onetree.ssrob import best_tree_for_combination

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def other(e: Edge, w: int) -> int:
    """The end of ``e`` opposite ``w``."""
    return e.v if w == e.u else e.u


def reference_tree_order(root: int, edges: Iterable[Edge]) -> list[tuple[int, Edge | None]]:
    """Breadth-first ``(vertex, edge to its parent)`` pairs from ``root``
    over an adjacency of ``Edge`` lists built from ``edges`` alone; the
    root comes first with edge None, and vertices off its component are
    absent."""
    adj: dict[int, list[Edge]] = {root: []}
    for e in edges:
        adj.setdefault(e.u, []).append(e)
        adj.setdefault(e.v, []).append(e)
    order: list[tuple[int, Edge | None]] = [(root, None)]
    seen = {root}
    for v, _ in order:
        for e in adj[v]:
            w = other(e, v)
            if w not in seen:
                seen.add(w)
                order.append((w, e))
    return order


def reference_tree_distances(root: int, edges: Iterable[Edge]) -> dict[int, float]:
    """Distance from ``root`` to every vertex reachable through ``edges``."""
    dist = {root: 0.0}
    for v, via in reference_tree_order(root, edges)[1:]:
        dist[v] = dist[other(via, v)] + via.length
    return dist


def reference_route(
    g: Instance, edge_ids: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``route``'s ``(edge_ids, flows)`` by a walk over ``edge_ids`` alone,
    with no memo: the checks and error messages of ``route``, then each
    edge's flow summed from the demand below it in reverse walk order."""
    ids = tuple(sorted(set(edge_ids)))
    edges = []
    for eid in ids:
        if eid not in g.edge_by_id:
            raise InvalidTreeError(f"unknown edge id {eid}")
        edges.append(g.edge_by_id[eid])
    order = reference_tree_order(g.root, edges)
    reached = {v for v, _ in order}
    if len(order) != len(edges) + 1:
        if any(e.u not in reached for e in edges):
            raise InvalidTreeError("edge set is not connected to the root")
        raise InvalidTreeError("cyclic edge set")
    for v, _amount in g.demand_items:
        if v not in reached:
            raise InvalidTreeError(f"demand vertex not spanned: {v}")
    subtree = {v: g.demands.get(v, 0) for v, _ in order}
    flows: dict[int, int] = {}
    for v, via in reversed(order[1:]):
        flows[via.eid] = subtree[v]
        subtree[other(via, v)] += subtree[v]
    return ids, tuple(flows[eid] for eid in ids)


def tree_vertices(root: int, edges: Iterable[Edge]) -> set[int]:
    """``root`` plus every endpoint of ``edges``."""
    touched = {root}
    for e in edges:
        touched.add(e.u)
        touched.add(e.v)
    return touched


def root_component(g: Instance) -> set[int]:
    """Vertices reachable from the root, by the reference walk."""
    return {v for v, _ in reference_tree_order(g.root, g.edges)}


def root_component_edges(g: Instance) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    """The root's component: its vertices, ascending, and its edges, in
    ``g.edges`` order, by the reference walk."""
    verts = root_component(g)
    return tuple(sorted(verts)), tuple(e for e in g.edges if e.u in verts)


def reference_branch_vertices(g: Instance) -> tuple[list[int], list[int]]:
    """The exact oracle's terminals, in demand order, and branch vertices,
    ascending, from neighbour sets built over the root's component: the
    terminals are its demand vertices other than the root, and the branch
    vertices the root, the terminals and each vertex with three or more
    distinct neighbours."""
    verts, edges = root_component_edges(g)
    near: dict[int, set[int]] = {v: set() for v in verts}
    for e in edges:
        near[e.u].add(e.v)
        near[e.v].add(e.u)
    terms = [v for v, _ in g.demand_items if v != g.root and v in near]
    keys = [v for v in verts if len(near[v]) >= 3 or v == g.root or v in terms]
    return terms, keys


def reference_last(g: Instance, root: int, alpha: float) -> frozenset[int]:
    """The LAST's edge ids by the relax-on-DFS loop over an MST adjacency of
    ``Edge`` lists, sorted per vertex by (length, id), with a seen set and
    root distances in a dict; a lone vertex gives the empty tree."""
    if g.n == 1:
        return frozenset()
    search = shortest_path_tree(g, root)
    dist_true, pred_true = search[0], pred_dict(search)
    by_id = g.edge_by_id
    mst_adj: dict[int, list[Edge]] = {v: [] for v in g.vertex_ids}
    for eid in sorted(minimum_spanning_tree(g)):
        e = by_id[eid]
        mst_adj[e.u].append(e)
        mst_adj[e.v].append(e)
    for v in mst_adj:
        mst_adj[v].sort(key=lambda e: (e.length, e.eid))
    dist = {v: math.inf for v in g.vertex_ids}
    dist[root] = 0.0
    parent: dict[int, tuple[int, int]] = {}

    def relax(u: int, v: int, e: Edge) -> None:
        if dist[u] + e.length < dist[v]:
            dist[v] = dist[u] + e.length
            parent[v] = (u, e.eid)

    def splice(v: int) -> None:
        path = []
        while v != root:
            p, eid = pred_true[v]
            path.append((p, v, by_id[eid]))
            v = p
        for p, w, e in reversed(path):
            relax(p, w, e)

    stack: list[tuple[int, int | None, Edge | None]] = [(root, None, None)]
    seen = {root}
    while stack:
        v, via_parent, via_edge = stack.pop()
        if via_edge is not None and via_parent is not None:
            relax(via_parent, v, via_edge)
            if dist[v] > alpha * dist_true[v]:
                splice(v)
        for e in reversed(mst_adj[v]):
            w = other(e, v)
            if w not in seen:
                seen.add(w)
                stack.append((w, v, e))
    return frozenset(eid for _, eid in parent.values())


def subset_spanning_trees(g: Instance) -> Iterator[tuple[int, ...]]:
    """Every spanning tree of the root's component, by subset filtering."""
    verts = sorted(root_component(g))
    vert_set = set(verts)
    edges = [e for e in g.edges if e.u in vert_set]
    for combo in itertools.combinations(edges, len(verts) - 1):
        uf = UnionFind(verts)
        if all(uf.union(e.u, e.v) for e in combo):
            yield tuple(e.eid for e in combo)


def count_spanning_trees(g: Instance) -> int:
    """Number of spanning trees of the root's component, by the matrix-tree
    theorem with exact integer (Bareiss) elimination; a lone root's reduced
    Laplacian is empty, with determinant 1."""
    index = {v: i for i, v in enumerate(sorted(root_component(g)))}
    lap = [[0] * len(index) for _ in index]
    for e in g.edges:
        if e.u in index:
            i, j = index[e.u], index[e.v]
            lap[i][i] += 1
            lap[j][j] += 1
            lap[i][j] -= 1
            lap[j][i] -= 1
    a = [row[1:] for row in lap[1:]]
    size, prev = len(a), 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if a[r][k]), None)
        if pivot is None:
            return 0
        a[k], a[pivot] = a[pivot], a[k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    # a row swap flips the sign; the count is the determinant's magnitude
    return abs(prev)


def reference_spanning_edge_sets(
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


def reference_flow_classes(
    g: Instance, verts: Sequence[int], edges: Sequence[Edge]
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every flow class of the spanning trees of the root's component
    ``verts``/``edges``: its flow vector, one flow per edge of ``edges``
    from a walk of each tree, mapped to the class's smallest edge-id tuple."""
    classes: dict[tuple[int, ...], tuple[int, ...]] = {}
    for eids in reference_spanning_edge_sets(verts, edges):
        walk = dict(zip(*reference_route(g, eids)))
        flows = tuple(walk.get(e.eid, 0) for e in edges)
        classes[flows] = min(classes.get(flows, eids), eids)
    return classes


def perfbench_module(name: str):
    """``perfbench/<name>.py``, a stdlib-only benchmark module such as the
    generator ``workloads`` or the ``tracer``."""
    module = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(module, PERFBENCH / f"{name}.py")
    # dataclasses look their module up by name while the module runs
    loaded = sys.modules[module] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def workload(name: str):
    """Benchmark workload ``name``'s settings: its ``eps``, ``trials``, ..."""
    return perfbench_module("workloads").WORKLOADS[name]


def workload_instances(name: str, seeds: Iterable[int], /, **changes) -> list[Instance]:
    """The graphs of benchmark workload ``name`` at ``seeds``, made by the
    benchmark's own generator; ``changes`` replace fields of the workload,
    such as ``total_demand``, before generating."""
    workloads = perfbench_module("workloads")
    w = replace(workloads.WORKLOADS[name], **changes)
    graphs = []
    for seed in seeds:
        rng = random.Random(f"{w.name}:{seed}")
        graphs += [load_instance(workloads.instance_text(w, rng)) for _ in range(w.graphs)]
    return graphs


def reference_monotonize(
    trees: Sequence[RoutedTree], thresholds: Sequence[float]
) -> tuple[RoutedTree, ...]:
    """The loops ``monotonize`` had before it skipped neighbors that are the
    same tree object: costs are compared at every index, in both passes."""

    def strictly_less(a: float, b: float) -> bool:
        return a < b - 1e-12 * max(abs(a), abs(b), 1.0)

    out = list(trees)
    for i in range(1, len(out)):
        m = thresholds[i]
        if strictly_less(basis_cost(out[i - 1], m), basis_cost(out[i], m)):
            out[i] = out[i - 1]
    for i in range(len(out) - 2, -1, -1):
        m = thresholds[i]
        if strictly_less(basis_cost(out[i + 1], m), basis_cost(out[i], m)):
            out[i] = out[i + 1]
    return tuple(out)


def basis_grid(g: Instance, eps: float) -> tuple[float, ...]:
    """The thresholds ``compute_layers`` puts on ``LayerSet.thresholds``:
    (1 + eps) ** i for i = 0..K."""
    return threshold_grid(g.total_demand, eps)


def brute_min_cost(
    g: Instance, cost_fn: Callable[[RoutedTree], float]
) -> tuple[float, tuple[int, ...]]:
    """Minimum of ``cost_fn`` over all spanning trees, ties to smaller ids."""
    best: tuple[float, tuple[int, ...]] | None = None
    for eids in subset_spanning_trees(g):
        key = (cost_fn(route(g, eids)), tuple(sorted(eids)))
        if best is None or key < best:
            best = key
    assert best is not None, "instance has no spanning tree"
    return best


def exact_cost(
    tree: RoutedTree, thresholds: Sequence[float], coefficients: Sequence[float]
) -> Fraction:
    """sum_i coefficients[i] * cost(thresholds[i]) of ``tree``, in rationals:
    every float is a binary fraction, so the sum is exact."""
    return sum(
        (
            Fraction(a) * Fraction(e.length) * min(Fraction(flow), Fraction(m))
            for e, flow in zip(tree.edges, tree.flows)
            for a, m in zip(coefficients, thresholds)
        ),
        Fraction(0),
    )


def least_exact_cost(
    trees: Iterable[RoutedTree], thresholds: Sequence[float], coefficients: Sequence[float]
) -> Fraction:
    """The least :func:`exact_cost` of ``trees``. Only trees within a
    relative 1e-9 of the least float cost are costed exactly: a float sum of
    so few terms is off by far less, so no other tree can be least."""
    costed = [
        (sum(a * basis_cost(tree, m) for a, m in zip(coefficients, thresholds)), tree)
        for tree in trees
    ]
    low = min(cost for cost, _ in costed)
    return min(
        exact_cost(tree, thresholds, coefficients)
        for cost, tree in costed
        if cost <= low + 1e-9 * abs(low)
    )


def combined_objective(alpha: float, gamma: float, delta: float) -> float:
    """max(beta*gamma^2/(gamma-1), alpha*delta^2/(delta-alpha-1)) with beta
    pinned to its minimum (alpha+1)/(alpha-1); +inf outside the domain."""
    if alpha <= 1.0 or gamma <= 1.0 or delta <= alpha + 1.0:
        return math.inf
    beta = (alpha + 1.0) / (alpha - 1.0)
    buy_branch = beta * gamma * gamma / (gamma - 1.0)
    rent_branch = alpha * delta * delta / (delta - alpha - 1.0)
    return max(buy_branch, rent_branch)


def _golden_min(fn, lo: float, hi: float, iters: int = 200) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - ratio * (b - a)
    x2 = a + ratio * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = fn(x2)
        if b - a < 1e-13 * max(1.0, abs(a)):
            break
    return (a + b) / 2.0


def refine_parameters(
    alpha: float = 2.0, gamma: float = 3.0, delta: float = 8.0, cycles: int = 80
) -> tuple[float, float, float, float]:
    """Local search from a start point: cyclic golden-section descent on each
    coordinate of :func:`combined_objective`. Returns (alpha, gamma, delta,
    objective value)."""

    def buy_branch(a: float, g: float) -> float:
        return (a + 1.0) / (a - 1.0) * g * g / (g - 1.0)

    def rent_branch(a: float, d: float) -> float:
        return a * d * d / (d - a - 1.0) if d > a + 1.0 else math.inf

    for _ in range(cycles):
        gamma = _golden_min(lambda x: buy_branch(alpha, x), 1.0 + 1e-9, max(8.0, 4.0 * gamma))
        delta = _golden_min(
            lambda x: rent_branch(alpha, x), alpha + 1.0 + 1e-9, max(20.0, 4.0 * delta)
        )
        alpha = _golden_min(
            lambda x: combined_objective(x, gamma, delta), 1.0 + 1e-9, delta - 1.0 - 1e-9
        )
    return alpha, gamma, delta, combined_objective(alpha, gamma, delta)


def search_parameters() -> tuple[float, float, float, float]:
    """Coarse grid scan followed by local refinement; independent of the
    closed form."""
    best: tuple[float, tuple[float, float, float]] | None = None
    for ai in range(11, 40):
        a = ai / 10.0
        for gi in range(11, 60, 2):
            g = gi / 10.0
            for di in range(int(10 * (a + 1.1)), 120, 2):
                d = di / 10.0
                value = combined_objective(a, g, d)
                if best is None or value < best[0]:
                    best = (value, (a, g, d))
    assert best is not None
    return refine_parameters(*best[1])


def pred_dict(tree) -> dict[int, tuple[int, int]]:
    """A search's ``(dist, links)`` links as the ``{v: (parent, edge id)}``
    dict the package's search returned before it kept flat lists, keys in
    settle order. It first checks the lists' shape: ``parent`` and ``edge``
    as long as ``dist``, no vertex twice in ``order``, a parent and an edge
    for each vertex listed, and None in both lists for every other vertex,
    where an int, read as an index, would silently name a vertex."""
    dist, links = tree
    order = links.order
    assert len(links.parent) == len(links.edge) == len(dist)
    assert len(links) == len(order) == len(set(order))
    listed = set(order)
    for v in range(len(dist)):
        linked = (links.parent[v], links.edge[v])
        assert (None not in linked) if v in listed else linked == (None, None), (v, linked)
    return {v: (links.parent[v], links.edge[v]) for v in order}


def reference_shortest_path_tree(g, source):
    """The package's shortest-path search as it stood over per-vertex
    ``Edge`` tuples, keyed by vertex id, with a pop-time label test: the
    package's search must give this ``pred`` dict, in the same settle order,
    and as its distance list this ``dist`` dict's values in id order."""
    adj: dict[int, list[Edge]] = {v: [] for v in g.vertex_ids}
    for e in g.edges:
        adj[e.u].append(e)
        adj[e.v].append(e)
    if isinstance(source, frozenset):
        members, name = source, SUPERNODE
    else:
        members, name = frozenset((source,)), source
    if not members or not members <= adj.keys():
        raise ValueError(f"source vertex {source} is not in the graph")
    dist = {v: INF for v in adj}
    pred: dict[int, tuple[int, int]] = {}
    start = (0.0, SUPERNODE - 1, -1)
    label: dict[int, tuple[float, int, int]] = dict.fromkeys(members, start)
    done: set[int] = set()
    heap: list[tuple[float, int, int, int]] = [(*start, s) for s in sorted(members)]
    while heap:
        d, p, eid, v = heappop(heap)
        if v in done or label.get(v) != (d, p, eid):
            continue
        done.add(v)
        dist[v] = d
        if v in members:
            via = name
        else:
            pred[v] = (p, eid)
            via = v
        for e in adj[v]:
            w = other(e, v)
            if w in done:
                continue
            cand = (d + e.length, via, e.eid)
            if w not in label or cand < label[w]:
                label[w] = cand
                heappush(heap, (cand[0], cand[1], cand[2], w))
    return dist, pred


def reference_search(g: Instance, source, bound):
    """``graph.bounded_search`` as it stood before its relax compared a float
    cap first: every label a tuple, starting at (INF, INF) or, with a bound,
    at (bound[w], INF), a candidate tuple built on every relax of an
    unsettled vertex, and settled vertices flagged in a list. The package's
    search must give this ``dist`` list and this ``pred`` dict, in the same
    settle order."""
    adj = g.adjacency
    n = len(adj)
    if isinstance(source, frozenset):
        members, name = sorted(source), SUPERNODE
    else:
        members, name = [source], source
    if not members or not all(0 <= s < n for s in members):
        raise ValueError(f"source vertex {source} is not in the graph")
    dist = [INF] * n
    done = [False] * n
    label: list[tuple] = [(INF, INF)] * n if bound is None else [(b, INF) for b in bound]
    for s in members:
        done[s] = True
        dist[s] = 0.0
    heap: list[tuple] = []
    for s in members:
        for w, length, e in adj[s]:
            if not done[w]:
                cand = (length, name, e, w)
                if cand < label[w]:
                    label[w] = cand
                    heappush(heap, cand)
    pred: dict[int, tuple[int, int]] = {}
    while heap:
        d, p, eid, v = heappop(heap)
        if done[v]:
            continue
        done[v] = True
        dist[v] = d
        pred[v] = (p, eid)
        for w, length, e in adj[v]:
            if not done[w]:
                cand = (d + length, v, e, w)
                if cand < label[w]:
                    label[w] = cand
                    heappush(heap, cand)
    return dist, pred


def reference_contract(g: Instance, merged, keep=None) -> tuple[tuple[int, ...], list[Edge]]:
    """``contract`` keyed by base vertex id: the vertex ids with SUPERNODE
    for the merged set, SUPERNODE first and the rest ascending, and the
    kept edges between them, by edge id, where each pair of ends keeps the
    shortest of its parallel edges (ties by smaller id)."""
    merged = set(merged)
    kept = set(g.vertex_ids if keep is None else keep) - merged
    name = {v: SUPERNODE for v in merged} | {v: v for v in kept}
    best: dict[frozenset[int], Edge] = {}
    for e in sorted(g.edges, key=lambda e: (e.length, e.eid)):
        ends = frozenset((name.get(e.u), name.get(e.v)))
        if None not in ends and len(ends) == 2 and ends not in best:
            best[ends] = Edge(e.eid, *sorted(ends), e.length)
    return (SUPERNODE, *sorted(kept)), sorted(best.values(), key=lambda e: e.eid)


def _reference_paths(g: Instance, tree, source: int, skip) -> set[int]:
    dist, pred = tree
    picked: set[int] = set()
    for v, _amount in g.demand_items:
        if v in skip:
            continue
        assert dist[v] < INF
        w = v
        while w != source:
            w, eid = pred[w]
            picked.add(eid)
    return picked


def reference_core(g: Instance, terminals: set[int]) -> frozenset[int]:
    """Edge ids of the metric-closure Steiner tree over ``terminals``:
    Kruskal over the sorted (d, a, b) keys of the pairs a < b, with d and
    b's path to a read in a's tree, the paths expanded, and an MST pass
    over the union."""
    terms = sorted(terminals)
    if len(terms) <= 1:
        return frozenset()
    searches = {t: shortest_path_tree(g, t) for t in terms}
    trees = {t: pred_dict(search) for t, search in searches.items()}
    closure = sorted(
        (searches[a][0][b], a, b) for i, a in enumerate(terms) for b in terms[i + 1 :]
    )
    uf = UnionFind(terms)
    union_edges = {}
    for _d, a, b in closure:
        if uf.union(a, b):
            w = b
            while w != a:
                w, eid = trees[a][w]
                union_edges[eid] = g.edge_by_id[eid]
    touched = tree_vertices(g.root, union_edges.values())
    reduced, _ = minimum_spanning_forest(touched, union_edges.values())
    return frozenset(e.eid for e in reduced)


def _reference_rent(g: Instance, core_ids: frozenset[int]) -> set[int]:
    """``reference_rent`` to the vertices of the core with edge ids ``core_ids``."""
    return reference_rent(g, tree_vertices(g.root, (g.edge_by_id[eid] for eid in core_ids)))


def reference_rent(g: Instance, core: set[int]) -> set[int]:
    """Rent paths from the off-``core`` demand vertices, searched from vertex
    0 of an explicit contraction of the core vertex set, with labels mapped
    back to base ids by the ascending kept ids."""
    base = [SUPERNODE, *sorted(set(g.vertex_ids) - core)]
    dist, pred = reference_shortest_path_tree(contract(g, core), 0)
    tree = (
        {base[v]: d for v, d in dist.items()},
        {base[v]: (base[p], eid) for v, (p, eid) in pred.items()},
    )
    return _reference_paths(g, tree, SUPERNODE, core)


def reference_marking(g: Instance, rng: random.Random, mark_probability: float) -> set[int]:
    """Demand vertices with at least one marked unit: one draw per demand
    vertex, below the chance 1 - (1 - p)^amount that a unit is marked."""
    marked: set[int] = set()
    for v, amount in g.demand_items:
        if rng.random() < -math.expm1(amount * math.log1p(-mark_probability)):
            marked.add(v)
    return marked


def reference_sample_and_augment(
    g: Instance, threshold: float, seed: int = 0, trials: int = 32
) -> RoutedTree:
    """Sample-and-augment with a fresh Dijkstra per terminal, rent paths
    searched in an explicit contraction of the core, and fresh marking draws
    and chances in every trial."""
    if threshold >= g.total_demand:
        tree = shortest_path_tree(g, g.root)
        return route(g, _reference_paths(g, (tree[0], pred_dict(tree)), g.root, ()))
    if threshold <= 1.0:
        core = reference_core(g, {v for v, _ in g.demand_items} | {g.root})
        return route(g, core | _reference_rent(g, core))
    best = None
    for trial in range(trials):
        marked = reference_marking(g, random.Random(seed + trial), 1.0 / threshold)
        core = reference_core(g, marked | {g.root})
        tree = route(g, core | _reference_rent(g, core))
        key = (basis_cost(tree, threshold), tree.edge_ids)
        if best is None or key < best[0]:
            best = (key, tree)
    return best[1]


@dataclass(frozen=True)
class ConcaveFunction:
    """f(x) = sum_i coefficients[i] * min(x, (1 + eps) ** i).

    Nonnegative coefficients make f concave, nondecreasing, and 0 at 0.
    Tiny negative coefficients from float noise are clamped to 0; anything
    materially negative is rejected.
    """

    eps: float
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ConfigError("at least one coefficient is required")
        cleaned = []
        for a in self.coefficients:
            if a < -1e-12:
                raise ConfigError("coefficients must be nonnegative")
            cleaned.append(max(0.0, float(a)))
        object.__setattr__(self, "coefficients", tuple(cleaned))

    @property
    def thresholds(self) -> tuple[float, ...]:
        return tuple(basis_threshold(i, self.eps) for i in range(len(self.coefficients)))

    def value(self, x: float) -> float:
        total = 0.0
        for a, m in zip(self.coefficients, self.thresholds):
            if a:
                total += a * (x if x < m else m)
        return total


def decompose_function(samples: Sequence[float], eps: float) -> ConcaveFunction:
    """Fit grid samples g((1+eps)**i), i = 0..K, as slope drops.

    Samples must be nonnegative, nondecreasing, and concave on the grid
    (g(0) = 0 is implied). The coefficient at index i is the slope drop at
    the i-th threshold, with the slope beyond the last threshold taken as 0;
    reconstruction at the grid points is then exact.
    """
    pts = [float(s) for s in samples]
    if not pts:
        raise ConfigError("at least one sample is required")
    if pts[0] < 0.0:
        raise ConfigError("samples must be nonnegative")
    grid = [basis_threshold(i, eps) for i in range(len(pts))]
    slopes = [pts[0] / grid[0]]
    for i in range(1, len(pts)):
        slopes.append((pts[i] - pts[i - 1]) / (grid[i] - grid[i - 1]))
    scale = max(1.0, max(abs(s) for s in slopes))
    tol = 1e-12 * scale
    for s in slopes:
        if s < -tol:
            raise ConfigError("samples are decreasing")
    for i in range(len(slopes) - 1):
        if slopes[i + 1] > slopes[i] + tol:
            raise ConfigError("samples are not concave on the threshold grid")
    coefficients = [slopes[i] - slopes[i + 1] for i in range(len(slopes) - 1)]
    coefficients.append(slopes[-1])
    fn = ConcaveFunction(eps=eps, coefficients=tuple(coefficients))
    for x, expected in zip(grid, pts):
        got = fn.value(x)
        if abs(got - expected) > 1e-9 * max(1.0, abs(expected)):
            raise InvariantError("grid reconstruction drifted beyond 1e-9")
    return fn


def eval_cost(tree: RoutedTree, fn: ConcaveFunction) -> float:
    """Tree cost under ``fn``: sum_i a_i * basis cost at the i-th threshold."""
    total = 0.0
    for a, m in zip(fn.coefficients, fn.thresholds):
        if a:
            total += a * basis_cost(tree, m)
    return total


def best_tree_for_function(g: Instance, fn: ConcaveFunction) -> RoutedTree:
    """The exact oracle's optimum of :func:`eval_cost` over spanning trees."""
    return best_tree_for_combination(g, fn.thresholds, fn.coefficients)
