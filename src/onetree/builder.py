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
from typing import Mapping

from .errors import ConfigError, InvalidTreeError, InvariantError
from .graph import SUPERNODE, Instance, contract, tree_vertices
from .last import build_last, guaranteed_beta
from .layers import LayerSet
from .routing import RoutedTree, basis_cost, basis_threshold, route


@dataclass(frozen=True)
class BuildRound:
    """Trace of one stitching round."""

    index: int
    core_size: int
    graph_vertices: int
    graph_edges: int
    added_edges: tuple[int, ...]


@dataclass(frozen=True)
class SimultaneousTree:
    """Final routed tree plus the per-layer edge partition and build trace.

    ``buy_parts[i]`` holds the edges present right after the round that added
    layer i's core; ``rent_parts[i]`` holds the rest of the final tree.
    """

    tree: RoutedTree
    alpha: float
    buy_parts: Mapping[int, frozenset[int]]
    rent_parts: Mapping[int, frozenset[int]]
    rounds: tuple[BuildRound, ...]


def build_tree(
    g: Instance, layers: LayerSet, alpha: float, prune_zero_flow: bool = False
) -> SimultaneousTree:
    """Run the stitching rounds and route the result.

    Rounds visit the kept indices in decreasing order. Each round can only
    attach vertices not yet spanned, so the union stays acyclic; a cycle or
    an unspanned demand vertex here is a bug and raises InvariantError.
    Zero-flow pruning is off by default; it never changes any cost.
    """
    if alpha <= 1:
        raise ConfigError("alpha must be > 1")
    built: set[int] = set()
    spanned: set[int] = {g.root}
    snapshots: dict[int, frozenset[int]] = {}
    rounds: list[BuildRound] = []
    for i in sorted(layers.kept, reverse=True):
        core = layers.decompositions[i].core
        contracted = contract(g, spanned, keep=core)
        light = build_last(contracted, SUPERNODE, alpha)
        added = tuple(sorted(light.edge_ids))
        for eid in added:
            if eid in built:
                raise InvariantError(f"round {i} re-added edge {eid}")
        built.update(added)
        spanned.update(core, tree_vertices(g.root, (g.edge_by_id[eid] for eid in added)))
        snapshots[i] = frozenset(built)
        rounds.append(
            BuildRound(
                index=i,
                core_size=len(core),
                graph_vertices=len(contracted.vertex_ids),
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

    all_edges = frozenset(tree.edge_ids)
    buy_parts = {i: snapshots[i] for i in layers.kept}
    rent_parts = {i: all_edges - snapshots[i] for i in layers.kept}

    return SimultaneousTree(
        tree=tree,
        alpha=alpha,
        buy_parts=buy_parts,
        rent_parts=rent_parts,
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
    def headline_ratio(self) -> float:
        """(1 + eps) * max(buy branch, rent branch); the solver quality factor
        is reported separately as ``lambda_mode``."""
        return (1.0 + self.eps) * max(
            self.buy_constant * self.gamma, self.rent_constant * self.delta
        )

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


@dataclass(frozen=True)
class LayerBoundRow:
    """Cost bounds for one kept layer."""

    index: int
    buy_edge_cost: float
    buy_bound: float
    buy_ok: bool
    rent_flow_cost: float
    rent_bound: float
    rent_ok: bool


@dataclass(frozen=True)
class StructureRow:
    """Whole-tree cost against one basis tree at its own threshold."""

    index: int
    tree_cost: float
    cap: float
    ok: bool


@dataclass(frozen=True)
class LayerBoundReport:
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


def check_layer_bounds(
    result: SimultaneousTree, layers: LayerSet, params: Parameters
) -> LayerBoundReport:
    """Check the per-layer cost bounds and the whole-tree consequence.

    For each kept layer, the plain length of the edges laid through its round
    must stay within buy_constant of the layer's buy cost, and the
    flow-weighted cost of the remaining edges within rent_constant of its
    rent cost. The final tree must then cost at most
    max(buy_constant * gamma, rent_constant * delta) times each basis tree at
    that tree's own threshold. Relative slack 1e-9 throughout.
    """
    if abs(params.alpha - result.alpha) > 1e-12:
        raise ConfigError("parameters do not match the alpha the tree was built with")
    if abs(params.gamma - layers.gamma) > 1e-12 or abs(params.delta - layers.delta) > 1e-12:
        raise ConfigError("parameters do not match the gamma/delta the layers used")
    if abs(params.eps - layers.eps) > 1e-12:
        raise ConfigError("parameters do not match the eps the layers used")

    slack = 1e-9
    by_id = result.tree.instance.edge_by_id
    flow = result.tree.flow_map

    rows: list[LayerBoundRow] = []
    buy_observed: float | None = None
    rent_observed: float | None = None
    for i in layers.kept:
        dec = layers.decompositions[i]
        buy_edge_cost = sum(by_id[eid].length for eid in result.buy_parts[i])
        rent_flow_cost = sum(by_id[eid].length * flow[eid] for eid in result.rent_parts[i])
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

    cap_factor = max(
        params.buy_constant * params.gamma, params.rent_constant * params.delta
    )
    structure_rows: list[StructureRow] = []
    for k in range(layers.top_index + 1):
        m = basis_threshold(k, layers.eps)
        tree_cost = basis_cost(result.tree, m)
        cap = cap_factor * basis_cost(layers.trees[k], m)
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
