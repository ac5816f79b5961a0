"""Ratio measurement of one tree against per-threshold oracle trees."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .routing import RoutedTree, basis_cost


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
    tree: RoutedTree, thresholds: tuple[float, ...], oracle, seed: int = 0
) -> RatioReport:
    """Compare ``tree`` against an oracle tree at each of ``thresholds``.

    With an exact oracle the max ratio is the tree's simultaneous
    approximation factor over the whole basis; with a heuristic oracle the
    per-threshold ratios are only lower bounds, and the report's
    ``lambda_mode`` names that oracle's quality.
    """
    rows = []
    for i, m in enumerate(thresholds):
        opt = oracle.solve(tree.instance, m, seed=seed)
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
