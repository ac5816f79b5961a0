"""Basis trees for every threshold index, cross-index monotonization, and
geometric pruning down to the layer index set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, InvariantError
from .graph import Instance
from .routing import (
    RentBuyDecomposition,
    RoutedTree,
    basis_cost,
    basis_threshold,
    decompose,
)


def compute_K(total_demand: int, eps: float) -> int:
    """Smallest K with (1 + eps) ** K >= total demand; 0 when demand is 1."""
    if total_demand < 1:
        raise ConfigError("total demand must be >= 1")
    if eps <= 0:
        raise ConfigError("eps must be positive")
    k = 0
    while basis_threshold(k, eps) < total_demand * (1.0 - 1e-12):
        k += 1
    return k


def _strictly_less(a: float, b: float) -> bool:
    # equal within 1e-12 relative counts as not-less, so float ties never flip
    return a < b - 1e-12 * max(abs(a), abs(b), 1.0)


def monotonize(trees: Sequence[RoutedTree], eps: float) -> tuple[RoutedTree, ...]:
    """Replace each tree by a strictly cheaper neighbor at its own threshold.

    One ascending pass (take the previous tree when cheaper) then one
    descending pass (take the next tree when cheaper). Afterwards every tree
    is no worse at its own threshold than either neighbor, which forces buy
    costs nonincreasing and rent costs nondecreasing across indices.
    """
    out = list(trees)
    top = len(out) - 1
    for i in range(1, top + 1):
        m = basis_threshold(i, eps)
        if _strictly_less(basis_cost(out[i - 1], m), basis_cost(out[i], m)):
            out[i] = out[i - 1]
    for i in range(top - 1, -1, -1):
        m = basis_threshold(i, eps)
        if _strictly_less(basis_cost(out[i + 1], m), basis_cost(out[i], m)):
            out[i] = out[i + 1]
    return tuple(out)


def prune(
    decompositions: Sequence[RentBuyDecomposition], gamma: float, delta: float
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Geometric pruning; returns (kept indices, buy-pass survivors), ascending.

    The buy pass walks indices upward keeping an index only when its buy cost
    drops strictly below 1/gamma of the last kept value; the rent pass walks
    the survivors downward keeping strict 1/delta drops in rent cost. Ties
    are discarded.
    """
    if gamma <= 1:
        raise ConfigError("gamma must be > 1")
    if delta <= 1:
        raise ConfigError("delta must be > 1")
    for i, d in enumerate(decompositions):
        if d.index != i:
            raise ConfigError("decompositions must be indexed 0..K in order")
    survivors: list[int] = []
    bound = math.inf
    for d in decompositions:
        if d.buy_cost < bound / gamma:
            survivors.append(d.index)
            bound = d.buy_cost
    kept: list[int] = []
    bound = math.inf
    for i in reversed(survivors):
        if decompositions[i].rent_cost < bound / delta:
            kept.append(i)
            bound = decompositions[i].rent_cost
    return tuple(sorted(kept)), tuple(survivors)


@dataclass(frozen=True)
class LayerSet:
    """Everything the stitching stage needs: one tree and decomposition per
    threshold index, plus the pruned index list (ascending) and the
    intermediate buy-pass survivors."""

    eps: float
    gamma: float
    delta: float
    top_index: int
    trees: tuple[RoutedTree, ...]
    decompositions: tuple[RentBuyDecomposition, ...]
    kept: tuple[int, ...]
    kept_buy: tuple[int, ...]


def compute_layers(
    g: Instance,
    eps: float,
    solver,
    gamma: float,
    delta: float,
    seed: int = 0,
) -> LayerSet:
    """Full layer-finding pass: one rent-or-buy solve per threshold index,
    monotonize, decompose, prune. Solves receive seed + index."""
    top = compute_K(g.total_demand, eps)
    raw = [solver.solve(g, basis_threshold(i, eps), seed=seed + i) for i in range(top + 1)]
    trees = monotonize(raw, eps)
    decs = tuple(decompose(t, i, eps) for i, t in enumerate(trees))
    kept, survivors = prune(decs, gamma, delta)
    return LayerSet(
        eps=eps,
        gamma=gamma,
        delta=delta,
        top_index=top,
        trees=trees,
        decompositions=decs,
        kept=kept,
        kept_buy=survivors,
    )


def verify_layerset(layers: LayerSet) -> None:
    """Assert the structural properties the construction relies on.

    Raises InvariantError on: non-monotone buy/rent costs, index 0 or the
    smallest-buy-cost survivor missing from the kept set, or a threshold
    index whose derived kept layer fails the gamma/delta cost caps.
    """
    slack = 1e-9
    decs = layers.decompositions
    for i in range(layers.top_index):
        b_i, b_next = decs[i].buy_cost, decs[i + 1].buy_cost
        r_i, r_next = decs[i].rent_cost, decs[i + 1].rent_cost
        if b_i < b_next - slack * max(1.0, b_i, b_next):
            raise InvariantError(f"buy cost increases from index {i} to {i + 1}")
        if r_i > r_next + slack * max(1.0, r_i, r_next):
            raise InvariantError(f"rent cost decreases from index {i} to {i + 1}")
    if 0 not in layers.kept:
        raise InvariantError("index 0 missing from the kept layer set")
    if layers.kept_buy and max(layers.kept_buy) not in layers.kept:
        raise InvariantError("smallest-buy-cost survivor missing from the kept layer set")
    for k in range(layers.top_index + 1):
        anchor = max(j for j in layers.kept_buy if j <= k)
        i = min(i for i in layers.kept if i >= anchor)
        if decs[i].buy_cost > layers.gamma * decs[k].buy_cost * (1.0 + slack) + 1e-12:
            raise InvariantError(
                f"kept index {i} exceeds the gamma buy cap relative to index {k}"
            )
        if decs[i].rent_cost > layers.delta * decs[k].rent_cost * (1.0 + slack) + 1e-12:
            raise InvariantError(
                f"kept index {i} exceeds the delta rent cap relative to index {k}"
            )
