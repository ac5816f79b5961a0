"""Light approximate shortest-path trees (LASTs).

A LAST keeps every root distance within a stretch factor alpha of the true
shortest path while keeping total weight within beta = (alpha+1)/(alpha-1)
of the MST. Built by a relax-on-DFS over the MST edges of the adjacency;
checked by an independent verifier that recomputes distances and the MST.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .errors import ConfigError
from .graph import Instance, minimum_spanning_tree, shortest_path_tree, tree_walk


class LastTree(NamedTuple):
    """A spanning tree of the host graph, rooted at the graph's root;
    ``verify_last`` recomputes its root distances."""

    graph: Instance
    edge_ids: frozenset[int]


def guaranteed_beta(alpha: float) -> float:
    """Weight ratio the construction guarantees for a given stretch bound."""
    if alpha <= 1:
        raise ConfigError("alpha must be > 1")
    return (alpha + 1.0) / (alpha - 1.0)


def build_last(g: Instance, alpha: float) -> LastTree:
    """Relax-on-DFS construction of an (alpha, (alpha+1)/(alpha-1)) LAST at g.root.

    Walks the MST depth-first from the root carrying the length of the
    current tree path; whenever a vertex ends up more than alpha times its
    true shortest-path distance away, the whole shortest path to it is
    spliced into the tree and the running length resets. The children are
    the ``g.adjacency`` entries on other MST edges, taken in (edge length,
    edge id) order, so the output is deterministic.
    """
    if alpha <= 1:
        raise ConfigError("alpha must be > 1")
    root = g.root
    dist_true, links = shortest_path_tree(g, root)
    parent_true, edge_true = links.parent, links.edge
    mst_ids = minimum_spanning_tree(g)

    dist = [math.inf] * g.n
    dist[root] = 0.0
    parent: dict[int, tuple[int, int]] = {}

    def relax(u: int, v: int, length: float, eid: int) -> None:
        if dist[u] + length < dist[v]:
            dist[v] = dist[u] + length
            parent[v] = (u, eid)

    def splice(v: int) -> None:
        path: list[tuple[int, int, int]] = []
        while v != root:
            p, eid = parent_true[v], edge_true[v]
            path.append((p, v, eid))
            v = p
        for p, w, eid in reversed(path):
            relax(p, w, g.edge_by_id[eid].length, eid)

    stack: list[tuple[float, int | None, int, int]] = [(0.0, None, root, root)]
    while stack:
        length, via, v, u = stack.pop()
        if via is not None:
            relax(u, v, length, via)
            if dist[v] > alpha * dist_true[v]:
                splice(v)
        children = [(ln, e, w, v) for w, ln, e in g.adjacency[v] if e in mst_ids and e != via]
        stack += sorted(children, reverse=True)

    edge_ids = frozenset(eid for _, eid in parent.values())
    return LastTree(graph=g, edge_ids=edge_ids)


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
    dist_true, _ = shortest_path_tree(g, g.root)
    by_id = g.edge_by_id
    edges = [by_id[eid] for eid in sorted(t.edge_ids)]
    reached = {g.root: 0.0}
    for v, (parent, eid) in tree_walk(g, g.root, t.edge_ids).items():
        reached[v] = reached[parent] + by_id[eid].length

    vertices = g.vertex_ids
    spanning = len(reached) == len(vertices) and len(edges) == len(vertices) - 1

    stretches: dict[int, float] = {}
    for v in vertices:
        if v == g.root:
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
