"""Stitch pruned layers into one tree.

Working from the innermost kept layer outward: contract everything built so
far, restrict to the layer's core, attach a light approximate shortest-path
tree rooted at the contraction, and keep a snapshot of the edges present
after each round. The snapshots partition the final tree per layer, which is
what the cost-bound checks consume, with caps from ``Parameters`` (below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import ConfigError, InvalidTreeError, InvariantError
from .graph import Instance, contract
from .last import build_last, guaranteed_beta
from .layers import LayerSet
from .routing import RoutedTree, basis_cost, route


class BuildRound(NamedTuple):
    """Trace of one stitching round."""

    index: int
    core_size: int
    graph_vertices: int
    graph_edges: int
    added_edges: tuple[int, ...]


class SimultaneousTree(NamedTuple):
    """Final routed tree plus the per-layer edge partition and build trace.

    ``buy_parts[i]`` holds the edges present right after the round that added
    layer i's core; the rest of the final tree is layer i's rent part.
    """

    tree: RoutedTree
    buy_parts: Mapping[int, frozenset[int]]
    rounds: tuple[BuildRound, ...]


def build_tree(g: Instance, layers: LayerSet, prune_zero_flow: bool = False) -> SimultaneousTree:
    """Run the stitching rounds, with LASTs of stretch ``layers.params.alpha``,
    and route the result.

    Rounds visit the kept indices in decreasing order. Each round can only
    attach vertices not yet spanned, so the union stays acyclic; a cycle or
    an unspanned demand vertex here is a bug and raises InvariantError.
    Zero-flow pruning is off by default; it never changes any cost.
    """
    built: set[int] = set()
    spanned: set[int] = {g.root}
    snapshots: dict[int, frozenset[int]] = {}
    rounds: list[BuildRound] = []
    for i in sorted(layers.kept, reverse=True):
        core = layers.decompositions[i].core
        contracted = contract(g, spanned, keep=core)
        light = build_last(contracted, contracted.root, layers.params.alpha)
        added = tuple(sorted(light.edge_ids))
        for eid in added:
            if eid in built:
                raise InvariantError(f"round {i} re-added edge {eid}")
        built.update(added)
        # every edge of the contraction has both base ends in spanned or core
        spanned.update(core)
        snapshots[i] = frozenset(built)
        rounds.append(
            BuildRound(
                index=i,
                core_size=len(core),
                graph_vertices=contracted.n,
                graph_edges=len(contracted.edges),
                added_edges=added,
            )
        )

    try:
        tree = route(g, built)
    except InvalidTreeError as exc:
        raise InvariantError(f"stitched edge set is not a valid tree: {exc}") from exc
    if prune_zero_flow:
        keep = frozenset(
            eid for eid, flow in zip(tree.edge_ids, tree.flows) if flow > 0
        )
        tree = route(g, keep)
        snapshots = {i: snap & keep for i, snap in snapshots.items()}

    return SimultaneousTree(
        tree=tree,
        buy_parts={i: snapshots[i] for i in layers.kept},
        rounds=tuple(rounds),
    )


#: Stretch bound at the closed-form optimum, (1 + sqrt 5) / 2.
GOLDEN_ALPHA = (1.0 + math.sqrt(5.0)) / 2.0
#: Value of both balanced cost branches at the optimum, 8 + 4 sqrt 5.
OPTIMAL_BRANCH_VALUE = 8.0 + 4.0 * math.sqrt(5.0)


@dataclass(frozen=True)
class Parameters:
    """Construction parameters with derived constants and the headline bound.

    alpha is the LAST stretch, gamma the geometric buy-cost drop between
    kept layers, delta the geometric rent-cost growth. beta, the LAST weight
    ratio, follows from alpha.
    """

    eps: float
    alpha: float
    gamma: float
    delta: float
    lambda_mode: str = "exact"

    def __post_init__(self) -> None:
        # NaN passes every comparison below, and inf breaks the derived constants
        for name in ("eps", "alpha", "gamma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        if self.alpha <= 1:
            raise ConfigError("alpha must be > 1")
        if self.gamma <= 1:
            raise ConfigError("gamma must be > 1")
        if self.delta <= self.alpha + 1:
            raise ConfigError("delta must exceed alpha + 1")
        # inf·0 bounds would be NaN, and an inf headline is no JSON number
        for name in ("buy_constant", "rent_constant", "branch_bound", "headline_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} overflows: choose a smaller eps, alpha, gamma or delta")

    @property
    def beta(self) -> float:
        """LAST weight ratio guaranteed at stretch alpha: (alpha+1)/(alpha-1)."""
        return guaranteed_beta(self.alpha)

    @property
    def buy_constant(self) -> float:
        """Per-layer cap on plain edge cost: beta * gamma / (gamma - 1)."""
        return self.beta * self.gamma / (self.gamma - 1.0)

    @property
    def rent_constant(self) -> float:
        """Per-layer cap on flow cost: alpha * delta / (delta - alpha - 1)."""
        return self.alpha * self.delta / (self.delta - self.alpha - 1.0)

    @property
    def branch_bound(self) -> float:
        """The larger cost branch: max(buy_constant * gamma, rent_constant * delta)."""
        return max(self.buy_constant * self.gamma, self.rent_constant * self.delta)

    @property
    def headline_ratio(self) -> float:
        """(1 + eps) * branch_bound; the solver quality factor is reported
        separately as ``lambda_mode``."""
        return (1.0 + self.eps) * self.branch_bound

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta": self.delta,
            "buy_constant": self.buy_constant,
            "rent_constant": self.rent_constant,
            "headline_ratio": self.headline_ratio,
        }


def optimal_parameters(lambda_descriptor: str = "exact", eps: float = 0.1) -> Parameters:
    """Closed-form optimum: alpha = (1+sqrt5)/2, beta = 2+sqrt5, gamma = 2,
    delta = 3+sqrt5, where both cost branches equal 8+4*sqrt5."""
    root5 = math.sqrt(5.0)
    params = Parameters(
        eps=eps,
        alpha=GOLDEN_ALPHA,
        gamma=2.0,
        delta=3.0 + root5,
        lambda_mode=lambda_descriptor,
    )
    buy_branch = params.buy_constant * params.gamma
    rent_branch = params.rent_constant * params.delta
    if abs(buy_branch - OPTIMAL_BRANCH_VALUE) > 1e-9 or abs(rent_branch - OPTIMAL_BRANCH_VALUE) > 1e-9:
        raise InvariantError("closed-form parameters do not balance the two cost branches")
    return params


class LayerBoundRow(NamedTuple):
    """Cost bounds for one kept layer."""

    index: int
    buy_edge_cost: float
    buy_bound: float
    buy_ok: bool
    rent_flow_cost: float
    rent_bound: float
    rent_ok: bool


class StructureRow(NamedTuple):
    """Whole-tree cost against one basis tree at its own threshold."""

    index: int
    tree_cost: float
    cap: float
    ok: bool


class LayerBoundReport(NamedTuple):
    rows: tuple[LayerBoundRow, ...]
    buy_constant_observed: float | None
    rent_constant_observed: float | None
    structure_rows: tuple[StructureRow, ...]
    all_ok: bool

    def first_failure(self) -> str | None:
        for row in self.rows:
            if not row.buy_ok:
                return f"layer {row.index}: edge cost {row.buy_edge_cost} exceeds buy bound {row.buy_bound}"
            if not row.rent_ok:
                return f"layer {row.index}: flow cost {row.rent_flow_cost} exceeds rent bound {row.rent_bound}"
        for row in self.structure_rows:
            if not row.ok:
                return f"index {row.index}: tree cost {row.tree_cost} exceeds structure cap {row.cap}"
        return None


def check_layer_bounds(result: SimultaneousTree, layers: LayerSet) -> LayerBoundReport:
    """Check the per-layer cost bounds and the whole-tree consequence, with
    the constants of ``layers.params``.

    For each kept layer, the plain length of the edges laid through its round
    must stay within buy_constant of the layer's buy cost, and the
    flow-weighted cost of the remaining edges within rent_constant of its
    rent cost. The final tree must then cost at most branch_bound times each
    basis tree at that tree's own threshold. Relative slack 1e-9 throughout.
    """
    params = layers.params
    branch_bound = params.branch_bound
    slack = 1e-9
    by_id = result.tree.instance.edge_by_id
    flow = result.tree.flow_map
    all_edges = frozenset(result.tree.edge_ids)

    rows: list[LayerBoundRow] = []
    buy_observed: float | None = None
    rent_observed: float | None = None
    for i in layers.kept:
        dec = layers.decompositions[i]
        buy_edge_cost = sum(by_id[eid].length for eid in result.buy_parts[i])
        rent_part = all_edges - result.buy_parts[i]
        rent_flow_cost = sum(by_id[eid].length * flow[eid] for eid in rent_part)
        buy_bound = params.buy_constant * dec.buy_cost
        rent_bound = params.rent_constant * dec.rent_cost
        buy_ok = buy_edge_cost <= buy_bound * (1.0 + slack) + 1e-12
        rent_ok = rent_flow_cost <= rent_bound * (1.0 + slack) + 1e-12
        if dec.buy_cost > 0.0:
            observed = buy_edge_cost / dec.buy_cost
            buy_observed = observed if buy_observed is None else max(buy_observed, observed)
        if dec.rent_cost > 0.0:
            observed = rent_flow_cost / dec.rent_cost
            rent_observed = observed if rent_observed is None else max(rent_observed, observed)
        rows.append(
            LayerBoundRow(
                index=i,
                buy_edge_cost=buy_edge_cost,
                buy_bound=buy_bound,
                buy_ok=buy_ok,
                rent_flow_cost=rent_flow_cost,
                rent_bound=rent_bound,
                rent_ok=rent_ok,
            )
        )

    structure_rows: list[StructureRow] = []
    for k, (m, basis) in enumerate(zip(layers.thresholds, layers.costs)):
        tree_cost = basis_cost(result.tree, m)
        cap = branch_bound * basis
        structure_rows.append(
            StructureRow(
                index=k,
                tree_cost=tree_cost,
                cap=cap,
                ok=tree_cost <= cap * (1.0 + slack) + 1e-12,
            )
        )

    all_ok = all(r.buy_ok and r.rent_ok for r in rows) and all(
        r.ok for r in structure_rows
    )
    return LayerBoundReport(
        rows=tuple(rows),
        buy_constant_observed=buy_observed,
        rent_constant_observed=rent_observed,
        structure_rows=tuple(structure_rows),
        all_ok=all_ok,
    )
