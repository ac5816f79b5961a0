"""Seeded instance generation for the benchmark workloads.

Everything here is standard library only, so the generator does not depend
on the package it feeds. The same (workload, seed) pair always yields the
same instance files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One workload: the instances to generate and the `onetree run` flags."""

    name: str
    graphs: int
    n: int
    m: int
    demand_vertices: int
    total_demand: int
    trials: int
    oracle: bool
    #: Span expected to have the largest self time (the workload's purpose).
    dominant_span: str
    max_length: int = 100
    eps: float = 0.1
    #: Inclusive range of spanning-tree counts a generated graph must fall in.
    tree_range: tuple[int, int] | None = None

    def cli_flags(self) -> list[str]:
        flags = ["--eps", repr(self.eps), "--ssrob", "sample-augment",
                 "--trials", str(self.trials), "--seed", "0"]
        if self.oracle:
            flags.append("--oracle")
        return flags


# Why each workload exists; every traced run re-checks ``dominant_span``.
# sa_mid      - Dijkstra inside sample-and-augment dominates; no oracle.
# huge_demand - K grows with D; the per-demand-unit marking loop in the
#               solver (solve self time) dominates, Dijkstra is minor.
# oracle_n14  - every graph has 5.2e4..5.3e4 spanning trees, inside the
#               oracle's flow-table range (<= 2e5), so building that table
#               dominates time and peak memory. The band is narrow so that
#               cost hardly varies from seed to seed. With 24 edges such
#               graphs turn up within a few hundred draws; with 26 edges
#               most random graphs have more than 2e5 spanning trees.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sa_mid", graphs=1, n=200, m=400, demand_vertices=20,
                 total_demand=500, trials=8, oracle=False,
                 dominant_span="graph.dijkstra"),
        Workload("huge_demand", graphs=1, n=20, m=40, demand_vertices=8,
                 total_demand=300_000, trials=2, oracle=False,
                 dominant_span="ssrob.solve"),
        Workload("oracle_n14", graphs=3, n=14, m=24, demand_vertices=5,
                 total_demand=40, trials=32, oracle=True,
                 tree_range=(52_000, 53_000), dominant_span="ssrob.table"),
    )
}


def spanning_tree_count(n: int, edges: list[tuple[int, int, int]]) -> int:
    """Matrix-tree theorem with exact integer (Bareiss) elimination."""
    lap = [[0] * n for _ in range(n)]
    for u, v, _length in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    a = [row[1:] for row in lap[1:]]
    size = n - 1
    sign, prev = 1, 1
    for k in range(size):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[size - 1][size - 1] if size else 1


def _random_graph(rng: random.Random, w: Workload) -> list[tuple[int, int, int]]:
    """Random spanning tree plus distinct extra vertex pairs up to m edges."""
    edges = []
    pairs = set()
    for v in range(1, w.n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, w.max_length)))
        pairs.add((u, v))
    while len(edges) < w.m:
        u, v = sorted(rng.sample(range(w.n), 2))
        if (u, v) not in pairs:
            pairs.add((u, v))
            edges.append((u, v, rng.randint(1, w.max_length)))
    return edges


def _demands(rng: random.Random, w: Workload, root: int) -> dict[int, int]:
    """``total_demand`` split evenly over random non-root vertices.

    An even split keeps the solver's work (how many vertices a trial marks)
    the same from seed to seed, so run time tracks the code, not the draw.
    """
    chosen = rng.sample([v for v in range(w.n) if v != root], w.demand_vertices)
    share, extra = divmod(w.total_demand, w.demand_vertices)
    return {v: share + (k < extra) for k, v in enumerate(chosen)}


def instance_text(w: Workload, rng: random.Random) -> str:
    while True:
        edges = _random_graph(rng, w)
        if w.tree_range is None:
            break
        lo, hi = w.tree_range
        if lo <= spanning_tree_count(w.n, edges) <= hi:
            break
    root = rng.randrange(w.n)
    demands = _demands(rng, w, root)
    lines = [f"{w.n} {len(edges)} {root}"]
    lines += [f"{u} {v} {length}" for u, v, length in edges]
    lines += [f"d {v} {amount}" for v, amount in sorted(demands.items())]
    return "\n".join(lines) + "\n"


def write_instances(w: Workload, seed: int, directory: Path) -> list[str]:
    """Write the workload's instance files; returns their names in ``directory``."""
    rng = random.Random(f"{w.name}:{seed}")
    names = []
    for k in range(w.graphs):
        name = f"{w.name}-{k}.graph"
        (directory / name).write_text(instance_text(w, rng))
        names.append(name)
    return names
