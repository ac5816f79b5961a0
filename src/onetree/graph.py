"""Graph model and the elementary algorithms everything else builds on.

Vertices are dense 0-based integers. Parallel edges are permitted and keep
distinct ids; every tie is broken on (value, id) pairs so identical inputs
produce identical outputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heappop, heappush
from operator import add
from typing import TYPE_CHECKING, Container, Iterable, Mapping, Sequence

from .errors import DisconnectedError, InstanceError, ParseError

if TYPE_CHECKING:
    from .routing import RoutedTree

#: Name of a merged source in ``shortest_path_tree``'s predecessor links.
SUPERNODE = -1

INF = math.inf

#: ``shortest_path_tree`` result: distances by vertex id and ``(parent,
#: edge id)`` links.
PathTree = tuple[list[float], dict[int, tuple[int, int]]]


@dataclass(frozen=True)
class Edge:
    """Undirected edge; ``eid`` is stable and unique within its graph."""

    eid: int
    u: int
    v: int
    length: float


@dataclass(frozen=True)
class Instance:
    """A weighted graph on vertices 0..n-1 with a root vertex and positive
    integer demands; ``contract`` also returns one, with no demands.

    Raises InstanceError when the root, an edge end or a demand vertex is
    outside 0..n-1, on a self-loop, a nonpositive length, the least id of
    two edges, a demand that is not an int of at least 1 or a vertex with
    two demands, when total length times total demand is not finite (every
    cost formed is at most that), and on the least unreachable demand vertex.
    A memo's gain is a seed-1 benchmark pass without it against one with
    every memo (in-process, interleaved, 2-vCPU Xeon, Python 3.11).
    """

    n: int
    edges: tuple[Edge, ...]
    root: int
    demand_items: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= self.root < n:
            raise InstanceError(f"root {self.root} out of range 0..{n - 1}")
        for e in self.edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise InstanceError(f"edge {e.eid} ({e.u}, {e.v}) has an end out of range 0..{n - 1}")
            if e.u == e.v:
                raise InstanceError(f"edge {e.eid} is a self-loop at vertex {e.u}")
            if not e.length > 0.0:
                raise InstanceError(f"edge {e.eid} has length {e.length}, which is not positive")
        if len(self.edge_by_id) < len(self.edges):
            ids = sorted(e.eid for e in self.edges)
            twice = next(a for a, b in zip(ids, ids[1:]) if a == b)
            raise InstanceError(f"edge id {twice} names two edges")
        for v, amount in self.demand_items:
            if not 0 <= v < n:
                raise InstanceError(f"demand vertex {v} out of range 0..{n - 1}")
            if not (isinstance(amount, int) and amount >= 1):
                raise InstanceError(f"demand {amount!r} on vertex {v} is not a positive integer")
        if len(dict(self.demand_items)) < len(self.demand_items):
            raise InstanceError("a demand vertex is listed twice")
        total = self.total_demand
        length = sum(e.length for e in self.edges)
        if total > sys.float_info.max or not math.isfinite(length * total):
            raise InstanceError("total edge length times total demand is not finite")
        if self.demand_items:
            lost = self.demands.keys() - tree_walk(self, self.root).keys() - {self.root}
            if lost:
                raise InstanceError(f"disconnected demand: vertex {min(lost)} is unreachable from the root")

    @property
    def vertex_ids(self) -> range:
        return range(self.n)

    @cached_property
    def edge_by_id(self) -> dict[int, Edge]:
        return {e.eid: e for e in self.edges}

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float, int], ...], ...]:
        """Per vertex, its (neighbour, length, edge id) triples, in the
        order of ``edges``; read by ``bounded_search`` and ``tree_walk``."""
        lists: list[list[tuple[int, float, int]]] = [[] for _ in range(self.n)]
        for e in self.edges:
            lists[e.u].append((e.v, e.length, e.eid))
            lists[e.v].append((e.u, e.length, e.eid))
        return tuple(map(tuple, lists))

    @cached_property
    def demands(self) -> dict[int, int]:
        return dict(self.demand_items)

    @cached_property
    def total_demand(self) -> int:
        return sum(amount for _, amount in self.demand_items)

    @cached_property
    def source_trees(self) -> dict[int, PathTree]:
        """Memo of ``shortest_path_tree(self, s)`` by source ``s``; read only.
        Without it, ``sa_mid`` takes 20.6x as long."""
        return {}

    @cached_property
    def unit_draws(self) -> dict[int, tuple[float, ...]]:
        """Memo of the marking draws, one per demand vertex, by seed; see
        ssrob. Without it, ``oracle_n14`` takes 2.0x as long."""
        return {}

    @cached_property
    def routed_trees(self) -> dict[frozenset[int], RoutedTree]:
        """Memo of ``routing.route`` by edge set: one valid routed tree, and so
        one cost memo, per distinct set of edge ids, whichever caller asks.
        Without it, each workload takes 8-20% longer."""
        return {}

    @cached_property
    def trial_trees(self) -> dict[frozenset[int], RoutedTree]:
        """Memo of the sample-and-augment trial tree by marked set of demand
        vertices; see ssrob. Without it, each workload takes 43-78% longer."""
        return {}

    @cached_property
    def oracle_setup(self) -> list:
        """Memo of the exact oracle's set-up with its answers by weights and
        its last DP tables: empty, or its one entry; see ssrob. Without it,
        ``oracle_n14`` takes 2.1x as long, 36% longer without the answers
        alone, and 8% longer (the n=200 oracle rung 42%) without the tables."""
        return []


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
    InstanceError on nonpositive or non-finite lengths and as Instance does.
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

    return Instance(n=n, edges=tuple(edges), root=root, demand_items=tuple(sorted(demands.items())))


def shortest_path_tree(g: Instance, source: int | frozenset[int]) -> PathTree:
    """``bounded_search`` with no bound: exact single-source shortest paths."""
    return bounded_search(g, source, None)


def bounded_search(
    g: Instance, source: int | frozenset[int], bound: Sequence[float] | None
) -> PathTree:
    """Single-source shortest paths by edge length, labelled within ``bound``.

    Returns (distances, predecessors): distances is a list indexed by
    vertex id, +inf where unreachable, and predecessors maps each reached
    vertex other than the source to ``(parent vertex, edge id)``, with keys
    in settle order, so by nondecreasing distance. Ties are broken by
    (distance, smaller predecessor id, smaller edge id). A source outside
    0..n-1 raises ValueError.

    ``source`` may also be a frozenset of vertices, searched as one merged
    source named SUPERNODE: its members get distance 0 and no predecessor,
    and an edge leaving the set records parent SUPERNODE. Outside the set
    this gives the labels of this search from vertex 0 on
    ``contract(g, source)``, read through its numbering, without building
    the contraction. That numbering keeps the id order, and SUPERNODE (-1)
    is below every vertex id as 0 is in the contraction, so the ties break
    alike; a one-vertex set is no exception, since SUPERNODE wins
    predecessor ties that the member's own id could lose. Parallel edges
    resolve by (length, edge id) in both, as long as adding a distance does
    not round two of their lengths to one sum.

    A vertex's label is its least heap entry (distance, via, edge id,
    vertex): an entry is pushed only when it beats the label, and never for
    a settled vertex, so the first pop is final. A label starts as a
    distance cap, bound[w] or INF; a relax compares d + length with the cap
    and builds the tuple, which settles ties, only within it. A settled
    vertex's cap is -INF. A bound can raise a distance, never lower it; a
    vertex keeps its unbounded label when every x on its unbounded path has
    distance at most bound[x], unless some d + length rounds back to d: each
    is relaxed by its parent before it can pop, and no other entry is less.

    The source's members are settled before the heap loop, at distance 0,
    with their edges relaxed in id order: as (0.0, SUPERNODE - 1, -1,
    member) entries they would be the least the heap ever holds, pop first
    in id order and push no entry for another member, so the labels and the
    settle order are the same.
    """
    adj = g.adjacency
    n = len(adj)
    if isinstance(source, frozenset):
        members, name = sorted(source), SUPERNODE
    else:
        members, name = [source], source
    if not members or not all(0 <= s < n for s in members):
        raise ValueError(f"source vertex {source} is not in the graph")
    dist = [INF] * n
    best = [INF] * n if bound is None else list(bound)
    # (INF, INF) compares above every entry: no label yet
    label: list[tuple] = [(INF, INF)] * n
    for s in members:
        best[s] = -INF
        dist[s] = 0.0
    heap: list[tuple] = []
    for s in members:
        for w, length, e in adj[s]:
            if length <= best[w]:
                cand = (length, name, e, w)
                if cand < label[w]:
                    label[w] = cand
                    best[w] = length
                    heappush(heap, cand)
    pred: dict[int, tuple[int, int]] = {}
    while heap:
        d, p, eid, v = heappop(heap)
        if best[v] == -INF:
            continue
        best[v] = -INF
        dist[v] = d
        pred[v] = (p, eid)
        for w, length, e in adj[v]:
            dw = d + length
            if dw <= best[w]:
                cand = (dw, v, e, w)
                if cand < label[w]:
                    label[w] = cand
                    best[w] = dw
                    heappush(heap, cand)
    return dist, pred


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


def minimum_spanning_tree(g: Instance) -> frozenset[int]:
    """MST edge ids of a connected graph; deterministic under ties."""
    chosen, components = minimum_spanning_forest(g.vertex_ids, g.edges)
    if components != 1:
        raise DisconnectedError("minimum spanning tree requires a connected graph")
    return frozenset(e.eid for e in chosen)


def contract(g: Instance, merged: Iterable[int], keep: Iterable[int] | None = None) -> Instance:
    """Collapse ``merged`` to vertex 0, the root, optionally restricting to ``keep``.

    ``keep`` is a base-vertex filter realizing an induced subgraph of the
    contraction. The other kept vertices are numbered 1..k in ascending id
    order, so every tie by vertex id breaks as it would on base ids. Edges
    keep their base ids; self-loops at vertex 0 vanish, and among parallel
    contracted edges only the shortest survives (ties by smaller id). The
    result has no demands.
    """
    s = frozenset(merged)
    if not s:
        raise ValueError("contraction set must be nonempty")
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"contraction vertex {v} out of range")
    kept = sorted(set(g.vertex_ids if keep is None else keep) - s)
    number = dict.fromkeys(s, 0)
    number.update((v, k) for k, v in enumerate(kept, start=1))
    best: dict[tuple[int, int], Edge] = {}
    for e in g.edges:
        a, b = number.get(e.u), number.get(e.v)
        if a is None or b is None or a == b:
            continue
        if a > b:
            a, b = b, a
        cur = best.get((a, b))
        if cur is None or (e.length, e.eid) < (cur.length, cur.eid):
            best[(a, b)] = Edge(e.eid, a, b, e.length)
    edges = tuple(sorted(best.values(), key=lambda e: e.eid))
    return Instance(n=len(kept) + 1, edges=edges, root=0, demand_items=())


def tree_walk(
    g: Instance, root: int, edge_ids: Container[int] | None = None
) -> dict[int, tuple[int, int]]:
    """Breadth-first walk from ``root`` over ``g.adjacency``, following only
    the edges whose id is in ``edge_ids`` (every edge when None).

    Returns each reached vertex other than ``root`` mapped to its ``(parent,
    edge id)``, keys in walk order, so a parent comes before its children.
    The walk lays one edge per vertex it reaches: edges of ``g`` form a tree
    at ``root`` exactly when it lays every one of them.
    """
    adj = g.adjacency
    links: dict[int, tuple[int, int]] = {root: (root, -1)}
    order = [root]
    for v in order:
        for w, _, e in adj[v]:
            if (edge_ids is None or e in edge_ids) and w not in links:
                links[w] = (v, e)
                order.append(w)
    del links[root]
    return links


def ordered_sum(terms: Iterable[float]) -> float:
    """``sum(terms)`` added left to right with no compensation, as Python
    3.11 and earlier add floats; from 3.12, ``sum`` compensates, so a sum
    that reaches a report or breaks a tie would change with the interpreter."""
    return reduce(add, terms, 0)
