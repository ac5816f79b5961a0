"""Seeded random instance and corpus generation for desk-scale runs.

Only the tests and CI use it, so it is not part of the installed package;
from a checkout, ``PYTHONPATH=tests`` makes it importable as ``corpus``.
"""

from __future__ import annotations

import random
from pathlib import Path

from onetree import Instance, make_instance


def random_instance(
    rng: random.Random,
    n_min: int = 3,
    n_max: int = 7,
    max_length: int = 9,
    max_extra_edges: int = 3,
    max_demand_vertices: int = 3,
    max_total_demand: int = 8,
) -> Instance:
    """Small connected instance: a random tree plus a few extra edges.

    Extra edges may duplicate an existing vertex pair, which exercises
    parallel-edge handling. Lengths are integers in 1..max_length; total
    demand stays within max_total_demand.
    """
    n = rng.randint(n_min, n_max)
    root = rng.randrange(n)
    edges: list[tuple[int, int, float]] = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, float(rng.randint(1, max_length))))
    for _ in range(rng.randint(0, max_extra_edges)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v, float(rng.randint(1, max_length))))
    candidates = [v for v in range(n) if v != root]
    k = rng.randint(1, min(max_demand_vertices, len(candidates)))
    chosen = rng.sample(candidates, k)
    demands = {v: 1 for v in chosen}
    for _ in range(rng.randint(0, max_total_demand - k)):
        demands[rng.choice(chosen)] += 1
    return make_instance(n, edges, root, demands)


def random_connected_instance(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 50,
    max_length: int = 20,
    extra_edge_factor: float = 1.0,
) -> Instance:
    """Larger connected graph for light-tree checks; one token demand."""
    n = rng.randint(n_min, n_max)
    edges: list[tuple[int, int, float]] = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, float(rng.randint(1, max_length))))
    for _ in range(int(extra_edge_factor * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v, float(rng.randint(1, max_length))))
    demands = {n - 1: 1} if n > 1 else {0: 1}
    return make_instance(n, edges, 0, demands)


def instance_text(g: Instance) -> str:
    """Serialize an instance in the loadable file format."""
    lines = [f"{g.n} {len(g.edges)} {g.root}"]
    for e in g.edges:
        length = int(e.length) if e.length == int(e.length) else e.length
        lines.append(f"{e.u} {e.v} {length}")
    for v, amount in g.demand_items:
        lines.append(f"d {v} {amount}")
    return "\n".join(lines) + "\n"


def write_corpus(directory: Path | str, count: int, seed: int, **kwargs) -> list[Path]:
    """Write ``count`` random instances as inst0000.graph .. under ``directory``."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    paths = []
    for idx in range(count):
        g = random_instance(rng, **kwargs)
        path = target / f"inst{idx:04d}.graph"
        path.write_text(instance_text(g))
        paths.append(path)
    return paths
