"""Independent oracles used only by the tests.

The brute-force tree oracles deliberately share nothing with the package's
contraction-deletion enumerator: spanning trees are found by filtering
fixed-size edge subsets. The numeric parameter optimizer checks the closed
form in :func:`onetree.optimal_parameters` without using it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator

from onetree import Instance, RoutedTree, route
from onetree.graph import UnionFind, reachable_vertices


def subset_spanning_trees(g: Instance) -> Iterator[tuple[int, ...]]:
    """Every spanning tree of the root's component, by subset filtering."""
    verts = sorted(reachable_vertices(g, g.root))
    vert_set = set(verts)
    edges = [e for e in g.edges if e.u in vert_set]
    for combo in itertools.combinations(edges, len(verts) - 1):
        uf = UnionFind(verts)
        if all(uf.union(e.u, e.v) for e in combo):
            yield tuple(e.eid for e in combo)


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
