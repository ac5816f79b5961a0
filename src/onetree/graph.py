"""Graph model and the elementary algorithms everything else builds on.

Vertices are dense 0-based integers. Parallel edges are permitted and keep
distinct ids; every tie is broken on (value, id) pairs so identical inputs
produce identical outputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from .errors import DisconnectedError, InstanceError, ParseError

if TYPE_CHECKING:
    from .routing import RoutedTree

#: Vertex id of the merged supervertex in a contracted graph.
SUPERNODE = -1

INF = math.inf

#: ``shortest_path_tree`` result: distances and ``(parent, edge id)`` links.
PathTree = tuple[dict[int, float], dict[int, tuple[int, int]]]


@dataclass(frozen=True)
class Edge:
    """Undirected edge; ``eid`` is stable and unique within its graph."""

    eid: int
    u: int
    v: int
    length: float

    def other(self, w: int) -> int:
        """Endpoint opposite ``w``."""
        return self.v if w == self.u else self.u


class Lookups:
    """Per-graph indexes, built once from ``vertex_ids`` and ``edges``."""

    @cached_property
    def edge_by_id(self) -> dict[int, Edge]:
        return {e.eid: e for e in self.edges}

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], dict[int, int], tuple[tuple, ...]]:
        """The vertex ids in order, id -> index in them, and per index its
        (neighbour index, length, edge id) triples; read only by
        ``shortest_path_tree``."""
        index = {v: i for i, v in enumerate(self.vertex_ids)}
        lists: list[list[tuple[int, float, int]]] = [[] for _ in index]
        for e in self.edges:
            a, b = index[e.u], index[e.v]
            lists[a].append((b, e.length, e.eid))
            lists[b].append((a, e.length, e.eid))
        # the ids come from ``index`` so every search's dicts share one int per id
        return tuple(index), index, tuple(map(tuple, lists))


@dataclass(frozen=True)
class Instance(Lookups):
    """A weighted graph with a root vertex and positive integer demands.

    Raises InstanceError when total edge length times total demand is not
    finite: every cost the pipeline forms is at most that product.
    """

    n: int
    edges: tuple[Edge, ...]
    root: int
    demand_items: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        total = self.total_demand
        length = sum(e.length for e in self.edges)
        if total > sys.float_info.max or not math.isfinite(length * total):
            raise InstanceError("total edge length times total demand is not finite")

    @property
    def vertex_ids(self) -> range:
        return range(self.n)

    @cached_property
    def demands(self) -> dict[int, int]:
        return dict(self.demand_items)

    @cached_property
    def total_demand(self) -> int:
        return sum(amount for _, amount in self.demand_items)

    @cached_property
    def source_trees(self) -> dict[int, PathTree]:
        """Memo of ``shortest_path_tree(self, s)`` by source ``s``; read only."""
        return {}

    @cached_property
    def unit_draws(self) -> dict[int, tuple[float, ...]]:
        """Memo of the marking draws, one per demand vertex, by seed; see ssrob."""
        return {}

    @cached_property
    def routed_trees(self) -> dict[frozenset[int], RoutedTree]:
        """Memo of ``routing.route`` by edge set: one valid routed tree, and so
        one cost memo, per distinct set of edge ids, whichever caller asks."""
        return {}

    @cached_property
    def trial_trees(self) -> dict[frozenset[int], RoutedTree]:
        """Memo of the sample-and-augment trial tree by marked set of demand
        vertices; see ssrob. A pipeline run of K+1 thresholds and T trials
        holds at most min((K+1)·T, (K+T)·(d+1)) keys, d demand vertices: a
        seed's marked set only shrinks as the threshold grows, and the run
        draws from K+T seeds. Marked sets whose trials build one edge set
        share its tree from ``routed_trees``."""
        return {}

    @cached_property
    def oracle_setup(self) -> list:
        """Memo of the exact oracle's set-up: empty, or its one entry; see
        ssrob. The entry holds the branch vertices and their distances, each
        terminal set's demand, and the answers by acyclic flow support and
        by weight vector, with equal weights folded to ones."""
        return []


@dataclass(frozen=True)
class ContractedGraph(Lookups):
    """An instance with a vertex set collapsed to SUPERNODE; see ``contract``.

    Retained edges keep their base edge id. Among parallel edges between the
    same contracted endpoints only the shortest survives (ties by smaller id).
    """

    vertex_ids: tuple[int, ...]
    edges: tuple[Edge, ...]


Graph = Union[Instance, ContractedGraph]


def make_instance(
    n: int,
    edges: Sequence[tuple[int, int, float]],
    root: int,
    demands: Mapping[int, int],
) -> Instance:
    """Build an Instance from (u, v, length) triples; ids follow list order."""
    built = tuple(Edge(i, u, v, float(length)) for i, (u, v, length) in enumerate(edges))
    return Instance(n=n, edges=built, root=root, demand_items=tuple(sorted(demands.items())))


def load_instance(text: str) -> Instance:
    """Parse and validate an instance file.

    Format (whitespace separated, ``#`` starts a comment):

        n m root
        u v length        one line per edge, m lines
        d v amount        one line per demand vertex

    Raises ParseError with the offending line number on malformed input,
    InstanceError on nonpositive or non-finite lengths, on demands unreachable
    from the root, and when total length times total demand is not finite.
    """
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise ParseError("line 1: empty instance file")

    lineno, tok = rows[0]
    if len(tok) != 3:
        raise ParseError(f"line {lineno}: expected header 'n m root'")
    try:
        n, m, root = int(tok[0]), int(tok[1]), int(tok[2])
    except ValueError:
        raise ParseError(f"line {lineno}: header fields must be integers") from None
    if n < 1:
        raise ParseError(f"line {lineno}: vertex count must be >= 1")
    if m < 0:
        raise ParseError(f"line {lineno}: edge count must be >= 0")
    if not 0 <= root < n:
        raise ParseError(f"line {lineno}: root {root} out of range 0..{n - 1}")
    if len(rows) < 1 + m:
        raise ParseError(f"line {rows[-1][0]}: expected {m} edge lines, found {len(rows) - 1}")

    edges: list[Edge] = []
    for k in range(m):
        lineno, tok = rows[1 + k]
        if tok[0] == "d":
            raise ParseError(f"line {lineno}: expected {m} edge lines, found {k}")
        if len(tok) != 3:
            raise ParseError(f"line {lineno}: expected edge line 'u v length'")
        try:
            u, v = int(tok[0]), int(tok[1])
            length = float(tok[2])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed edge line") from None
        for w in (u, v):
            if not 0 <= w < n:
                raise ParseError(f"line {lineno}: vertex {w} out of range 0..{n - 1}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not math.isfinite(length):
            raise InstanceError(f"line {lineno}: non-finite length on edge {u}-{v}")
        if not length > 0.0:
            raise InstanceError(f"line {lineno}: nonpositive length on edge {u}-{v}")
        edges.append(Edge(k, u, v, length))

    demands: dict[int, int] = {}
    for lineno, tok in rows[1 + m :]:
        if len(tok) != 3 or tok[0] != "d":
            raise ParseError(f"line {lineno}: expected demand line 'd v amount'")
        try:
            v, amount = int(tok[1]), int(tok[2])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed demand line") from None
        if not 0 <= v < n:
            raise ParseError(f"line {lineno}: vertex {v} out of range 0..{n - 1}")
        if amount < 1:
            raise InstanceError(f"line {lineno}: demand on vertex {v} must be a positive integer")
        if v in demands:
            raise ParseError(f"line {lineno}: duplicate demand for vertex {v}")
        demands[v] = amount
    if not demands:
        raise ParseError("missing demand lines: at least one 'd v amount' row is required")

    g = Instance(n=n, edges=tuple(edges), root=root, demand_items=tuple(sorted(demands.items())))
    component = {v for v, _ in tree_order(root, g.edges)}
    for v in sorted(demands):
        if v not in component:
            raise InstanceError(f"disconnected demand: vertex {v} is unreachable from the root")
    return g


def shortest_path_tree(g: Graph, source: int | frozenset[int]) -> PathTree:
    """Exact single-source shortest paths by edge length.

    Returns (distances, predecessors) where predecessors maps each reached
    vertex other than the source to ``(parent vertex, edge id)``. Unreachable
    vertices get distance +inf and no predecessor. Ties are broken by
    (distance, smaller predecessor id, smaller edge id).

    ``source`` may also be a frozenset of vertices, searched as one merged
    source named SUPERNODE: its members get distance 0 and no predecessor,
    and an edge leaving the set records parent SUPERNODE. Outside the set
    this gives the (distance, predecessor, edge id) labels of this search
    from SUPERNODE on ``contract(g, source)``, without building the
    contraction. That holds for a one-vertex set too: SUPERNODE (-1) is
    below every vertex id, so it wins predecessor ties that the member's own
    id could lose. Parallel edges resolve by (length, edge id) in both, as
    long as adding a distance does not round two of their lengths to one sum.

    The search runs over ``g.adjacency``'s dense indices. A vertex's label is
    its least heap entry (distance, via, edge id, index): an entry is pushed
    only when it beats the label, and never for a settled vertex, so the
    heap pops that least entry first and the first pop is final. The index
    order is the id order (SUPERNODE first in a contraction), so an entry
    tie that reaches the index resolves as it would on ids.

    The source's members are settled before the heap loop, at distance 0,
    with their edges relaxed in index order. That is the search that starts
    with one (0.0, SUPERNODE - 1, -1, index) entry per member: every length
    is positive, so those entries are the least the heap ever holds, pop
    first and in index order, and push no entry for another member. So no
    member enters the heap, and the labels and the settle order are the
    same.
    """
    ids, index, adj = g.adjacency
    if isinstance(source, frozenset):
        members, name = source, SUPERNODE
    else:
        members, name = frozenset((source,)), source
    if not members or not members <= index.keys():
        raise ValueError(f"source vertex {source} is not in the graph")
    dist = [INF] * len(ids)
    done = [False] * len(ids)
    # (INF, INF) compares above every entry: no label yet
    label: list[tuple] = [(INF, INF)] * len(ids)
    starts = sorted(index[s] for s in members)
    for i in starts:
        done[i] = True
        dist[i] = 0.0
    heap: list[tuple] = []
    for i in starts:
        for w, length, e in adj[i]:
            if not done[w]:
                cand = (length, name, e, w)
                if cand < label[w]:
                    label[w] = cand
                    heappush(heap, cand)
    pred: dict[int, tuple[int, int]] = {}
    while heap:
        d, p, eid, i = heappop(heap)
        if done[i]:
            continue
        done[i] = True
        dist[i] = d
        v = ids[i]
        pred[v] = (p, eid)
        for w, length, e in adj[i]:
            if not done[w]:
                cand = (d + length, v, e, w)
                if cand < label[w]:
                    label[w] = cand
                    heappush(heap, cand)
    return dict(zip(ids, dist)), pred


class UnionFind:
    """Minimal disjoint-set structure over arbitrary hashable items."""

    def __init__(self, items: Iterable[int]):
        self._parent = {x: x for x in items}

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[rb] = ra
        return True


def minimum_spanning_forest(
    vertices: Iterable[int], edges: Iterable[Edge]
) -> tuple[list[Edge], int]:
    """Kruskal over (length, edge id); returns (chosen edges, component count)."""
    verts = list(vertices)
    uf = UnionFind(verts)
    chosen: list[Edge] = []
    components = len(verts)
    for e in sorted(edges, key=lambda e: (e.length, e.eid)):
        if uf.union(e.u, e.v):
            chosen.append(e)
            components -= 1
    return chosen, components


def minimum_spanning_tree(g: Graph) -> frozenset[int]:
    """MST edge ids of a connected graph; deterministic under ties."""
    chosen, components = minimum_spanning_forest(g.vertex_ids, g.edges)
    if components != 1:
        raise DisconnectedError("minimum spanning tree requires a connected graph")
    return frozenset(e.eid for e in chosen)


def contract(
    g: Instance, merged: Iterable[int], keep: Iterable[int] | None = None
) -> ContractedGraph:
    """Collapse ``merged`` to SUPERNODE, optionally restricting to ``keep``.

    ``keep`` is a base-vertex filter realizing an induced subgraph of the
    contraction; the supernode is always retained. Self-loops at the
    supernode vanish; parallel contracted edges reduce to the shortest.
    """
    s = frozenset(merged)
    if not s:
        raise ValueError("contraction set must be nonempty")
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"contraction vertex {v} out of range")
    if keep is None:
        kept_base = set(g.vertex_ids) - s
    else:
        kept_base = set(keep) - s
    best: dict[tuple[int, int], Edge] = {}
    for e in g.edges:
        a = SUPERNODE if e.u in s else e.u
        b = SUPERNODE if e.v in s else e.v
        if a == b:
            continue
        if a != SUPERNODE and a not in kept_base:
            continue
        if b != SUPERNODE and b not in kept_base:
            continue
        if a > b:
            a, b = b, a
        cur = best.get((a, b))
        if cur is None or (e.length, e.eid) < (cur.length, cur.eid):
            best[(a, b)] = Edge(e.eid, a, b, e.length)
    edges = tuple(sorted(best.values(), key=lambda e: e.eid))
    return ContractedGraph(vertex_ids=(SUPERNODE, *sorted(kept_base)), edges=edges)


def tree_vertices(root: int, edges: Iterable[Edge]) -> set[int]:
    """``root`` plus every endpoint of ``edges``."""
    touched = {root}
    for e in edges:
        touched.add(e.u)
        touched.add(e.v)
    return touched


def tree_order(root: int, edges: Iterable[Edge]) -> list[tuple[int, Edge | None]]:
    """Breadth-first ``(vertex, edge to its parent)`` pairs from ``root``.

    The root comes first with edge None. Every vertex of the root's
    component comes once, so the walk lays one edge per vertex past the
    root: ``edges`` form a tree at ``root`` exactly when the walk is one
    longer than ``edges``. Vertices outside that component are absent.
    """
    adj: dict[int, list[Edge]] = {root: []}
    for e in edges:
        adj.setdefault(e.u, []).append(e)
        adj.setdefault(e.v, []).append(e)
    order: list[tuple[int, Edge | None]] = [(root, None)]
    seen = {root}
    for v, _ in order:
        for e in adj[v]:
            w = e.other(v)
            if w not in seen:
                seen.add(w)
                order.append((w, e))
    return order


def tree_distances(root: int, edges: Iterable[Edge]) -> dict[int, float]:
    """Distance from ``root`` to every vertex reachable through ``edges``."""
    dist = {root: 0.0}
    for v, via in tree_order(root, edges)[1:]:
        dist[v] = dist[via.other(v)] + via.length
    return dist
