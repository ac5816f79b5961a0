"""Routed trees: rootward flows, basis-threshold costs, rent/buy splits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidTreeError
from .graph import Edge, Instance, tree_order, tree_vertices


def basis_threshold(index: int, eps: float) -> float:
    """Threshold of the index-th basis function, (1 + eps) ** index."""
    return (1.0 + eps) ** index


@dataclass(frozen=True)
class RoutedTree:
    """A tree over the instance plus the demand flow each edge carries rootward.

    Edges with zero flow are legal (they cost nothing under every threshold)
    and are kept in the structure.
    """

    instance: Instance
    edge_ids: tuple[int, ...]
    flows: tuple[int, ...]

    @cached_property
    def flow_map(self) -> dict[int, int]:
        return dict(zip(self.edge_ids, self.flows))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        by_id = self.instance.edge_by_id
        return tuple(by_id[eid] for eid in self.edge_ids)

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(tree_vertices(self.instance.root, self.edges))

    @property
    def total_length(self) -> float:
        return sum(e.length for e in self.edges)


def compute_flows(
    order: Sequence[tuple[int, Edge | None]], demands: Mapping[int, int]
) -> dict[int, int]:
    """Rootward flow per edge of a tree: the demand hanging below it.

    ``order`` is the tree's :func:`~onetree.graph.tree_order` walk; use
    :func:`route` when the edge set needs checking first.
    """
    subtree = {v: demands.get(v, 0) for v, _ in order}
    flows: dict[int, int] = {}
    for v, via in reversed(order[1:]):
        flows[via.eid] = subtree[v]
        subtree[via.other(v)] += subtree[v]
    return flows


def route(g: Instance, edge_ids: Iterable[int]) -> RoutedTree:
    """Validate an edge set as a routing tree and compute its flows.

    The edges must form a tree at the root and span every demand vertex.
    One breadth-first walk checks the first: it lays one edge per vertex it
    reaches, so any edge left over closes a cycle in the root's component
    or lies off it, and the error names whichever the leftovers show.
    """
    ids = tuple(sorted(set(edge_ids)))
    by_id = g.edge_by_id
    edges = []
    for eid in ids:
        if eid not in by_id:
            raise InvalidTreeError(f"unknown edge id {eid}")
        edges.append(by_id[eid])

    order = tree_order(g.root, edges)
    reached = {v for v, _ in order}
    if len(order) != len(edges) + 1:
        if any(e.u not in reached for e in edges):
            raise InvalidTreeError("edge set is not connected to the root")
        raise InvalidTreeError("cyclic edge set")
    for v, _amount in g.demand_items:
        if v not in reached:
            raise InvalidTreeError(f"demand vertex not spanned: {v}")

    flows = compute_flows(order, g.demands)
    return RoutedTree(instance=g, edge_ids=ids, flows=tuple(flows[eid] for eid in ids))


def basis_cost(tree: RoutedTree, threshold: float) -> float:
    """Cost of the tree when each edge pays length * min(flow, threshold)."""
    total = 0.0
    for e, flow in zip(tree.edges, tree.flows):
        total += e.length * (flow if flow < threshold else threshold)
    return total


class RentBuyDecomposition(NamedTuple):
    """Split of a routed tree at one basis threshold.

    Edges at or above the threshold are bought (their plain lengths sum to
    ``buy_cost``); the rest are rented at flow-weighted cost ``rent_cost``.
    The core is the root plus every endpoint of a bought edge.
    """

    bought: frozenset[int]
    rent_cost: float
    buy_cost: float
    core: frozenset[int]


def decompose(tree: RoutedTree, threshold: float) -> RentBuyDecomposition:
    """Classify each edge as bought (flow >= threshold) or rented.

    Flows are exact integers, so the boundary test is exact whenever the
    threshold is an integer; otherwise a 1e-12 relative band below the
    threshold still counts as bought, guarding float error in (1+eps)**i.
    """
    cutoff = threshold if threshold == math.floor(threshold) else threshold * (1.0 - 1e-12)
    bought: list[int] = []
    rent_cost = 0.0
    buy_cost = 0.0
    core = {tree.instance.root}
    for e, flow in zip(tree.edges, tree.flows):
        if flow >= cutoff:
            bought.append(e.eid)
            buy_cost += e.length
            core.add(e.u)
            core.add(e.v)
        else:
            rent_cost += e.length * flow
    return RentBuyDecomposition(
        bought=frozenset(bought),
        rent_cost=rent_cost,
        buy_cost=buy_cost,
        core=frozenset(core),
    )
