"""Independent oracles used only by the tests.

The brute-force tree oracles deliberately share nothing with the package's
contraction-deletion enumerator: spanning trees are found by filtering
fixed-size edge subsets. :func:`reference_spanning_edge_sets` is that
enumerator in its plain form, a depth-first walk over one partial tree at a
time, whose sequence the level-by-level one must reproduce. The numeric parameter optimizer checks the closed
form in :func:`onetree.optimal_parameters` without using it.
:func:`reference_sample_and_augment` is the plain form of the package's
sample-and-augment solver, which the faster one must match tree for tree.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterator, Sequence

from onetree import SUPERNODE, Instance, RoutedTree, basis_cost, contract, route
from onetree import shortest_path_tree
from onetree.graph import (
    INF,
    Edge,
    UnionFind,
    minimum_spanning_forest,
    reachable_vertices,
    tree_vertices,
)


def subset_spanning_trees(g: Instance) -> Iterator[tuple[int, ...]]:
    """Every spanning tree of the root's component, by subset filtering."""
    verts = sorted(reachable_vertices(g, g.root))
    vert_set = set(verts)
    edges = [e for e in g.edges if e.u in vert_set]
    for combo in itertools.combinations(edges, len(verts) - 1):
        uf = UnionFind(verts)
        if all(uf.union(e.u, e.v) for e in combo):
            yield tuple(e.eid for e in combo)


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
    """Demand vertices with at least one marked unit, one draw per unit."""
    marked: set[int] = set()
    for v, amount in g.demand_items:
        hit = False
        for _unit in range(amount):
            if rng.random() < mark_probability:
                hit = True
        if hit:
            marked.add(v)
    return marked


def reference_sample_and_augment(
    g: Instance, threshold: float, seed: int = 0, trials: int = 32
) -> RoutedTree:
    """Sample-and-augment with a fresh Dijkstra per terminal, rent paths
    searched in an explicit contraction of the core, and a per-unit marking
    loop."""
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
