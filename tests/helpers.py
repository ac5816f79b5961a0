"""Independent oracles used only by the tests.

The brute-force tree oracles deliberately share nothing with the package's
contraction-deletion enumerator: spanning trees are found by filtering
fixed-size edge subsets, and :func:`count_spanning_trees` counts them
exactly by the matrix-tree theorem. :func:`reference_spanning_edge_sets`
is a plain contraction-deletion walk over every spanning tree, one partial
tree at a time, and :func:`reference_flow_classes` groups its trees by
their walked flows, keeping the least edge-id tuple per class: the rows
the package's Steiner-topology enumerator must produce. :func:`flagged_edge_sets` reads
that enumerator's 0/1 flag blocks back as edge-id tuples to compare, and
:func:`edge_flags` writes tuples as flags. The numeric parameter optimizer
checks the closed form in :func:`onetree.optimal_parameters` without using
it.
:func:`reference_frontier_order` recomputes the enumerator's greedy edge
order from scratch at every step, and :func:`answers_in_both_orders` runs
the oracle once in that order and once in edge-id order
(:func:`edge_id_order`), for tests that the order changes no answer, on
graphs that include :func:`oracle_n14_instances`, the benchmark's own.
:func:`reference_sample_and_augment` is the plain form of the package's
sample-and-augment solver, which the faster one must match tree for tree,
and :func:`reference_K` the loop that the closed form of ``compute_K`` must
match.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import pytest

from onetree import SUPERNODE, Instance, RoutedTree, basis_cost, basis_threshold, contract, route
from onetree import InvalidTreeError, load_instance, shortest_path_tree, ssrob
from onetree.graph import (
    INF,
    Edge,
    UnionFind,
    minimum_spanning_forest,
    tree_order,
    tree_vertices,
)
from onetree.routing import compute_flows
from onetree.ssrob import _enumerated_table, _table_costs, best_tree_for_combination

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def root_component(g: Instance) -> set[int]:
    """Vertices reachable from the root."""
    return {v for v, _ in tree_order(g.root, g.edges)}


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


def flagged_edge_sets(
    blocks: Iterable[Sequence[Sequence[int]]], edges: Sequence[Edge]
) -> Iterator[tuple[int, ...]]:
    """Each row of each block of 0/1 flags, one flag per edge of ``edges``,
    as the edge-id tuple of its flagged edges, in row order."""
    for flags in blocks:
        for row in flags:
            yield tuple(e.eid for e, flag in zip(edges, row) if flag)


def reference_flow_classes(
    g: Instance, verts: Sequence[int], edges: Sequence[Edge]
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every flow class of the spanning trees of the root's component
    ``verts``/``edges``: its flow vector, one flow per edge of ``edges``
    from a walk of each tree, mapped to the class's smallest edge-id tuple."""
    classes: dict[tuple[int, ...], tuple[int, ...]] = {}
    for eids in reference_spanning_edge_sets(verts, edges):
        walk = compute_flows(tree_order(g.root, [g.edge_by_id[i] for i in eids]), g.demands)
        flows = tuple(walk.get(e.eid, 0) for e in edges)
        classes[flows] = min(classes.get(flows, eids), eids)
    return classes


def edge_flags(trees: Sequence[tuple[int, ...]], edges: Sequence[Edge]) -> list[list[int]]:
    """Each edge-id tuple of ``trees`` as a row of 0/1 flags, one flag per
    edge of ``edges``: the inverse of :func:`flagged_edge_sets`."""
    return [[int(e.eid in chosen) for e in edges] for chosen in map(set, trees)]


def edge_id_order(n: int, ends: Sequence[tuple[int, int]]) -> list[int]:
    """Stand-in for ``ssrob._frontier_order`` that branches in edge-id order."""
    return list(range(len(ends)))


def reference_frontier_order(n: int, ends: Sequence[tuple[int, int]]) -> list[int]:
    """The greedy min-frontier edge order, every growth recomputed from
    scratch at every step: place vertex 0, then repeatedly the unplaced
    neighbour v of the placed set with the least (v has an unplaced
    neighbour) minus (placed neighbours whose only unplaced neighbour is
    v), ties to the smaller v; then sort edges by (later end's place,
    earlier end's place, index)."""
    near = [set() for _ in range(n)]
    for a, b in ends:
        near[a].add(b)
        near[b].add(a)
    place = {0: 0}

    def growth(v: int) -> int:
        opens = any(u not in place for u in near[v])
        closes = sum(u in place and near[u] - place.keys() == {v} for u in near[v])
        return opens - closes

    while len(place) < n:
        _, v = min((growth(v), v) for v in range(n) if v not in place and near[v] & place.keys())
        place[v] = len(place)
    spans = [sorted((place[a], place[b])) for a, b in ends]
    return sorted(range(len(ends)), key=lambda k: (spans[k][1], spans[k][0], k))


def oracle_answers(g: Instance, combinations) -> tuple[list, list[tuple[int, ...] | str]]:
    """What the exact oracle answers for ``g`` from a fresh enumeration:
    its rows as sorted (edge ids, flows, one cost per combination), the
    costs from ``_table_costs``, and ``best_tree_for_combination``'s tree
    per combination, or its error where demand lies outside the root's
    component. ``combinations`` holds (thresholds, coefficients) pairs; the
    table cache is cleared before and after."""
    def best(combination) -> tuple[int, ...] | str:
        try:
            return best_tree_for_combination(g, *combination).edge_ids
        except InvalidTreeError as error:
            return str(error)

    _enumerated_table.cache_clear()
    try:
        rows = []
        for table in _enumerated_table(g):
            costs = [_table_costs(table, *combination).tolist() for combination in combinations]
            rows += [
                (table.edge_ids(j), table.flows[j].tolist(), [c[j] for c in costs])
                for j in range(len(table.flows))
            ]
        trees = [best(combination) for combination in combinations]
    finally:
        _enumerated_table.cache_clear()
    return sorted(rows), trees


def answers_in_both_orders(g: Instance, combinations) -> tuple[tuple, tuple]:
    """:func:`oracle_answers` with the enumerator branching in its own edge
    order, then in edge-id order (``_frontier_order`` patched)."""
    first = oracle_answers(g, combinations)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssrob, "_frontier_order", edge_id_order)
        return first, oracle_answers(g, combinations)


def oracle_n14_instances(seeds: Iterable[int]) -> list[Instance]:
    """The ``oracle_n14`` benchmark graphs of ``seeds``, made by the
    benchmark's own stdlib-only generator, ``perfbench/workloads.py``."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    # dataclasses look their module up by name while the module runs
    workloads = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    w = workloads.WORKLOADS["oracle_n14"]
    graphs = []
    for seed in seeds:
        rng = random.Random(f"{w.name}:{seed}")
        graphs += [load_instance(workloads.instance_text(w, rng)) for _ in range(w.graphs)]
    return graphs


def reference_K(total_demand: int, eps: float, start: int = 0) -> int:
    """The loop ``compute_K`` replaced: step k up until the threshold
    reaches the total demand, up to a relative 1e-12.

    ``start`` lets a sweep over ascending demands resume from the previous
    K; the test only gets harder as D grows, so every k below that K fails
    it again and the result is the one the loop from 0 gives.
    """
    k = start
    while basis_threshold(k, eps) < total_demand * (1.0 - 1e-12):
        k += 1
    return k


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


def _reference_paths(g: Instance, graph, source: int, skip) -> set[int]:
    dist, pred = shortest_path_tree(graph, source)
    picked: set[int] = set()
    for v, _amount in g.demand_items:
        if v in skip:
            continue
        assert dist.get(v, INF) < INF
        w = v
        while w != source:
            w, eid = pred[w]
            picked.add(eid)
    return picked


def _reference_core(g: Instance, terminals: set[int]) -> frozenset[int]:
    terms = sorted(terminals)
    if len(terms) <= 1:
        return frozenset()
    trees = {t: shortest_path_tree(g, t) for t in terms}
    closure = sorted(
        (trees[a][0][b], a, b) for i, a in enumerate(terms) for b in terms[i + 1 :]
    )
    uf = UnionFind(terms)
    union_edges = {}
    for _d, a, b in closure:
        if uf.union(a, b):
            w = b
            while w != a:
                w, eid = trees[a][1][w]
                union_edges[eid] = g.edge_by_id[eid]
    touched = tree_vertices(g.root, union_edges.values())
    reduced, _ = minimum_spanning_forest(touched, union_edges.values())
    return frozenset(e.eid for e in reduced)


def _reference_rent(g: Instance, core_ids: frozenset[int]) -> set[int]:
    core = tree_vertices(g.root, (g.edge_by_id[eid] for eid in core_ids))
    return _reference_paths(g, contract(g, core), SUPERNODE, core)


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
        return route(g, _reference_paths(g, g, g.root, ()))
    if threshold <= 1.0:
        core = _reference_core(g, {v for v, _ in g.demand_items} | {g.root})
        return route(g, core | _reference_rent(g, core))
    best = None
    for trial in range(trials):
        marked = reference_marking(g, random.Random(seed + trial), 1.0 / threshold)
        core = _reference_core(g, marked | {g.root})
        tree = route(g, core | _reference_rent(g, core))
        key = (basis_cost(tree, threshold), tree.edge_ids)
        if best is None or key < best[0]:
            best = (key, tree)
    return best[1]
