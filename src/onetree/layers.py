"""Basis trees for every threshold index, cross-index monotonization, and
geometric pruning down to the layer index set."""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import ConfigError, InvariantError
from .graph import Instance
from .routing import (
    RentBuyDecomposition,
    RoutedTree,
    basis_cost,
    basis_threshold,
    buy_cutoff,
    decompose,
)

if TYPE_CHECKING:
    from .builder import Parameters


#: Most threshold indices K a run may ask for; it makes K+1 basis solves.
MAX_K = 100_000


def threshold_grid(total_demand: int, eps: float) -> tuple[float, ...]:
    """basis_threshold(i, eps) for i = 0..K, K the least index whose threshold
    reaches the total demand D up to a relative 1e-12, so that a power rounding
    just below an exact boundary counts; K = 0 at D = 1. Raises ConfigError when
    D is below 1 or past the float range, when 1 + eps rounds to 1, and when K
    would pass MAX_K."""
    if total_demand < 1:
        raise ConfigError("total demand must be >= 1")
    if total_demand > sys.float_info.max:
        raise ConfigError("total demand is past the float range")
    if not eps > 0:
        raise ConfigError("eps must be positive")
    if 1.0 + eps == 1.0:
        raise ConfigError(f"eps {eps} is too small: 1 + eps rounds to 1")
    grid, target = [basis_threshold(0, eps)], total_demand * (1.0 - 1e-12)
    while grid[-1] < target:
        if len(grid) > MAX_K:
            raise ConfigError(f"eps {eps} needs K > {MAX_K} threshold indices; the cap is K = {MAX_K}")
        grid.append(basis_threshold(len(grid), eps))
    return tuple(grid)


def within(value: float, cap: float) -> bool:
    """``value`` is at most ``cap``, up to a relative 1e-9 and an absolute 1e-12."""
    return value <= cap * (1.0 + 1e-9) + 1e-12


def _strictly_less(a: float, b: float) -> bool:
    # equal within 1e-12 relative counts as not-less, so float ties never flip
    return a < b - 1e-12 * max(abs(a), abs(b), 1.0)


def monotonize(
    trees: Sequence[RoutedTree], thresholds: Sequence[float]
) -> tuple[RoutedTree, ...]:
    """Replace each tree by a strictly cheaper neighbor at its own threshold.

    One ascending pass (take the previous tree when cheaper) then one
    descending pass (take the next tree when cheaper). Afterwards every tree
    is no worse at its own threshold than either neighbor, which forces buy
    costs nonincreasing and rent costs nondecreasing across indices. Only
    neighbors that are different tree objects are compared.
    """
    out = list(trees)
    for i in range(1, len(out)):
        m, prev, cur = thresholds[i], out[i - 1], out[i]
        if prev is not cur and _strictly_less(basis_cost(prev, m), basis_cost(cur, m)):
            out[i] = prev
    for i in range(len(out) - 2, -1, -1):
        m, nxt, cur = thresholds[i], out[i + 1], out[i]
        if nxt is not cur and _strictly_less(basis_cost(nxt, m), basis_cost(cur, m)):
            out[i] = nxt
    return tuple(out)


def prune(
    decompositions: Sequence[RentBuyDecomposition], gamma: float, delta: float
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Geometric pruning; returns (kept indices, buy-pass survivors), ascending.

    A decomposition's index is its position. The buy pass walks indices
    upward keeping an index only when its buy cost drops strictly below
    1/gamma of the last kept value; the rent pass walks the survivors
    downward keeping strict 1/delta drops in rent cost. Ties are discarded;
    a zero cost is a drop from any positive one.
    """
    if gamma <= 1:
        raise ConfigError("gamma must be > 1")
    if delta <= 1:
        raise ConfigError("delta must be > 1")
    survivors: list[int] = []
    bound = math.inf
    for i, d in enumerate(decompositions):
        if d.buy_cost < bound / gamma or d.buy_cost == 0.0 < bound:
            survivors.append(i)
            bound = d.buy_cost
    kept: list[int] = []
    bound = math.inf
    for i in reversed(survivors):
        cost = decompositions[i].rent_cost
        if cost < bound / delta or cost == 0.0 < bound:
            kept.append(i)
            bound = cost
    return tuple(sorted(kept)), tuple(survivors)


class LayerSet(NamedTuple):
    """The per-threshold table every later stage reads: entry i holds basis
    threshold (1 + eps) ** i, the monotonized basis tree, its cost at that
    threshold and its decomposition. Also the parameters the layers were
    found with, the pruned index list (ascending) and the buy-pass survivors."""

    params: Parameters
    thresholds: tuple[float, ...]
    trees: tuple[RoutedTree, ...]
    costs: tuple[float, ...]
    decompositions: tuple[RentBuyDecomposition, ...]
    kept: tuple[int, ...]
    kept_buy: tuple[int, ...]

    @property
    def top_index(self) -> int:
        """K, the least index whose threshold reaches the total demand."""
        return len(self.thresholds) - 1


def compute_layers(g: Instance, params: Parameters, solver, seed: int = 0) -> LayerSet:
    """Full layer-finding pass: one rent-or-buy solve per threshold index,
    monotonize, decompose, prune by ``params``' gamma and delta. Solves
    receive seed + index, and ``decompose`` runs once per tree and bought set."""
    thresholds = threshold_grid(g.total_demand, params.eps)
    raw = [solver.solve(g, m, seed=seed + i) for i, m in enumerate(thresholds)]
    trees = monotonize(raw, thresholds)
    split: dict[tuple[int, int], RentBuyDecomposition] = {}  # by id(tree), count of flows bought
    decs = []
    for t, m in zip(trees, thresholds):
        key = (id(t), sum(map(buy_cutoff(m).__le__, t.flows)))
        decs.append(split.get(key) or split.setdefault(key, decompose(t, m)))
    kept, survivors = prune(decs, params.gamma, params.delta)
    return LayerSet(
        params=params,
        thresholds=thresholds,
        trees=trees,
        costs=tuple(basis_cost(t, m) for t, m in zip(trees, thresholds)),
        decompositions=tuple(decs),
        kept=kept,
        kept_buy=survivors,
    )


def verify_layerset(layers: LayerSet) -> None:
    """Assert the structural properties the construction relies on.

    Raises InvariantError on: non-monotone buy/rent costs, index 0 missing
    from the kept set or the buy-pass survivors, the smallest-buy-cost
    survivor missing from the kept set, or an index k whose kept layer fails
    the gamma/delta cost caps; one forward sweep finds every k's layer.
    """
    decs = layers.decompositions
    gamma, delta = layers.params.gamma, layers.params.delta
    for i in range(layers.top_index):
        b_i, b_next = decs[i].buy_cost, decs[i + 1].buy_cost
        r_i, r_next = decs[i].rent_cost, decs[i + 1].rent_cost
        if b_i < b_next - 1e-9 * max(1.0, b_i, b_next):
            raise InvariantError(f"buy cost increases from index {i} to {i + 1}")
        if r_i > r_next + 1e-9 * max(1.0, r_i, r_next):
            raise InvariantError(f"rent cost decreases from index {i} to {i + 1}")
    kept, survivors = sorted(layers.kept), set(layers.kept_buy)
    if 0 not in kept or 0 not in survivors:
        raise InvariantError("index 0 missing from the kept layer set or the buy-pass survivors")
    if max(survivors) not in kept:
        raise InvariantError("smallest-buy-cost survivor missing from the kept layer set")
    layer = 0  # kept[layer]: least kept index >= the greatest survivor <= k
    for k in range(layers.top_index + 1):
        while k in survivors and kept[layer] < k:
            layer += 1
        i = kept[layer]
        if not within(decs[i].buy_cost, gamma * decs[k].buy_cost):
            raise InvariantError(
                f"kept index {i} exceeds the gamma buy cap relative to index {k}"
            )
        if not within(decs[i].rent_cost, delta * decs[k].rent_cost):
            raise InvariantError(
                f"kept index {i} exceeds the delta rent cap relative to index {k}"
            )
