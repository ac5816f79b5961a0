"""Concave cost functions over the threshold basis and ratio measurement
against per-threshold oracle trees."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, InvariantError
from .graph import Instance
from .layers import compute_K
from .routing import RoutedTree, basis_cost, basis_threshold
from .ssrob import best_tree_for_combination


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
    """Exhaustive optimum of :func:`eval_cost` over spanning trees."""
    return best_tree_for_combination(g, fn.thresholds, fn.coefficients)


@dataclass(frozen=True)
class RatioRow:
    index: int
    threshold: float
    tree_cost: float
    optimal_cost: float
    ratio: float


@dataclass(frozen=True)
class RatioReport:
    """Per-threshold cost ratios of one tree against oracle trees; the
    report schema that carries them is ``cli.build_report``'s."""

    rows: tuple[RatioRow, ...]
    max_ratio: float
    argmax_index: int
    lambda_mode: str


def simultaneous_ratio(
    tree: RoutedTree, g: Instance, eps: float, oracle, seed: int = 0
) -> RatioReport:
    """Compare ``tree`` against an oracle tree at every basis threshold.

    With an exact oracle the max ratio is the tree's simultaneous
    approximation factor over the whole basis; with a heuristic oracle the
    per-threshold ratios are only lower bounds, and the report's
    ``lambda_mode`` names that oracle's quality.
    """
    top = compute_K(g.total_demand, eps)
    rows = []
    for i in range(top + 1):
        m = basis_threshold(i, eps)
        opt = oracle.solve(g, m, seed=seed)
        tree_cost = basis_cost(tree, m)
        optimal_cost = basis_cost(opt, m)
        if optimal_cost > 0.0:
            ratio = tree_cost / optimal_cost
        else:
            ratio = 1.0 if tree_cost <= 1e-12 else math.inf
        rows.append(
            RatioRow(
                index=i,
                threshold=m,
                tree_cost=tree_cost,
                optimal_cost=optimal_cost,
                ratio=ratio,
            )
        )
    max_ratio = max(row.ratio for row in rows)
    argmax_index = min(row.index for row in rows if row.ratio == max_ratio)
    return RatioReport(
        rows=tuple(rows),
        max_ratio=max_ratio,
        argmax_index=argmax_index,
        lambda_mode=oracle.quality,
    )
