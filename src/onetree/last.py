"""Light approximate shortest-path trees (LASTs).

A LAST keeps every root distance within a stretch factor alpha of the true
shortest path while keeping total weight within beta = (alpha+1)/(alpha-1)
of the MST. Built by a relax-on-DFS sweep over the MST; checked by an
independent verifier that recomputes distances and the MST from scratch.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .errors import ConfigError, DisconnectedError
from .graph import Edge, Instance, minimum_spanning_tree, shortest_path_tree, tree_distances


class LastTree(NamedTuple):
    """A spanning tree of the host graph, rooted at ``root``; ``verify_last``
    recomputes its root distances."""

    graph: Instance
    root: int
    edge_ids: frozenset[int]


def guaranteed_beta(alpha: float) -> float:
    """Weight ratio the construction guarantees for a given stretch bound."""
    if alpha <= 1:
        raise ConfigError("alpha must be > 1")
    return (alpha + 1.0) / (alpha - 1.0)


def build_last(g: Instance, root: int, alpha: float) -> LastTree:
    """Relax-on-DFS construction of an (alpha, (alpha+1)/(alpha-1)) LAST.

    Walks the MST depth-first from the root carrying the length of the
    current tree path; whenever a vertex ends up more than alpha times its
    true shortest-path distance away, the whole shortest path to it is
    spliced into the tree and the running length resets. Child order is
    (edge length, edge id), so the output is deterministic.
    """
    if alpha <= 1:
        raise ConfigError("alpha must be > 1")
    vertices = g.vertex_ids
    if root not in vertices:
        raise ConfigError(f"root {root} is not a vertex of the graph")
    if len(vertices) == 1:
        return LastTree(graph=g, root=root, edge_ids=frozenset())

    dist_true, pred_true = shortest_path_tree(g, root)
    if math.inf in dist_true:
        raise DisconnectedError("LAST construction requires a connected graph")
    mst_ids = minimum_spanning_tree(g)
    by_id = g.edge_by_id

    mst_adj: dict[int, list[Edge]] = {v: [] for v in vertices}
    for eid in sorted(mst_ids):
        e = by_id[eid]
        mst_adj[e.u].append(e)
        mst_adj[e.v].append(e)
    for v in mst_adj:
        mst_adj[v].sort(key=lambda e: (e.length, e.eid))

    dist = {v: math.inf for v in vertices}
    dist[root] = 0.0
    parent: dict[int, tuple[int, int]] = {}

    def relax(u: int, v: int, e: Edge) -> None:
        cand = dist[u] + e.length
        if cand < dist[v]:
            dist[v] = cand
            parent[v] = (u, e.eid)

    def splice(v: int) -> None:
        path: list[tuple[int, int, Edge]] = []
        w = v
        while w != root:
            p, eid = pred_true[w]
            path.append((p, w, by_id[eid]))
            w = p
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
            w = e.other(v)
            if w not in seen:
                seen.add(w)
                stack.append((w, v, e))

    edge_ids = frozenset(eid for _, eid in parent.values())
    return LastTree(graph=g, root=root, edge_ids=edge_ids)


class LastReport(NamedTuple):
    """Outcome of an independent LAST check."""

    stretches: Mapping[int, float]
    max_stretch: float
    worst_vertex: int | None
    tree_weight: float
    mst_weight: float
    weight_ratio: float
    spanning: bool
    stretch_ok: bool
    weight_ok: bool

    @property
    def passed(self) -> bool:
        return self.spanning and self.stretch_ok and self.weight_ok


def verify_last(t: LastTree, alpha: float, beta: float) -> LastReport:
    """Recompute distances and the MST from the host graph and check both
    guarantees against (alpha + 1e-9, beta + 1e-9)."""
    g = t.graph
    dist_true, _ = shortest_path_tree(g, t.root)
    by_id = g.edge_by_id
    edges = [by_id[eid] for eid in sorted(t.edge_ids)]
    reached = tree_distances(t.root, edges)

    vertices = g.vertex_ids
    spanning = len(reached) == len(vertices) and len(edges) == len(vertices) - 1

    stretches: dict[int, float] = {}
    for v in vertices:
        if v == t.root:
            continue
        tree_d = reached.get(v, math.inf)
        true_d = dist_true[v]
        if true_d > 0.0:
            stretches[v] = tree_d / true_d
        else:
            stretches[v] = 1.0 if tree_d == 0.0 else math.inf

    if stretches:
        max_stretch = max(stretches.values())
        worst_vertex = min(v for v, s in stretches.items() if s == max_stretch)
    else:
        max_stretch = 1.0
        worst_vertex = None

    tree_weight = sum(e.length for e in edges)
    mst_weight = sum(by_id[eid].length for eid in minimum_spanning_tree(g))
    if mst_weight > 0.0:
        weight_ratio = tree_weight / mst_weight
    else:
        weight_ratio = 1.0 if tree_weight == 0.0 else math.inf

    return LastReport(
        stretches=stretches,
        max_stretch=max_stretch,
        worst_vertex=worst_vertex,
        tree_weight=tree_weight,
        mst_weight=mst_weight,
        weight_ratio=weight_ratio,
        spanning=spanning,
        stretch_ok=max_stretch <= alpha + 1e-9,
        weight_ok=weight_ratio <= beta + 1e-9,
    )
