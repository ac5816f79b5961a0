"""Routed trees: rootward flows, basis-threshold costs, rent/buy splits."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InvalidTreeError
from .graph import Edge, Instance, ordered_sum, tree_walk


def basis_threshold(index: int, eps: float) -> float:
    """Threshold of the index-th basis function, (1 + eps) ** index, or the
    largest float where that overflows: no flow passes it, as no instance's
    total demand does, so every cost there is the cost at total demand."""
    try:
        return (1.0 + eps) ** index
    except OverflowError:
        return sys.float_info.max


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
    def edges(self) -> tuple[Edge, ...]:
        by_id = self.instance.edge_by_id
        return tuple(by_id[eid] for eid in self.edge_ids)

    @cached_property
    def costs(self) -> dict[float, float]:
        """``basis_cost``'s memo by threshold; without it, seed-1 huge_demand takes 16% longer."""
        return {}

    @property
    def total_length(self) -> float:
        return ordered_sum(e.length for e in self.edges)


def route(g: Instance, edge_ids: Iterable[int]) -> RoutedTree:
    """Validate an edge set as a routing tree and compute its flows.

    The edges must form a tree at the root and span every demand vertex.
    One ``tree_walk`` from the root checks the first: it lays one edge per
    vertex it reaches, so any edge left over closes a cycle in the root's
    component or lies off it, and the error names whichever the leftovers
    show. Each edge's flow, the demand below it, is then summed up the
    walk's parent links in reverse walk order.
    A valid tree is kept in ``g.routed_trees`` by its edge set, so every later
    call for that set returns the same object; an invalid set raises again.
    """
    key = frozenset(edge_ids)
    tree = g.routed_trees.get(key)
    if tree is not None:
        return tree
    ids = tuple(sorted(key))
    by_id = g.edge_by_id
    for eid in ids:
        if eid not in by_id:
            raise InvalidTreeError(f"unknown edge id {eid}")
    root = g.root
    links = tree_walk(g, root, key)
    if len(links) != len(ids):
        if any(by_id[eid].u != root and by_id[eid].u not in links for eid in ids):
            raise InvalidTreeError("edge set is not connected to the root")
        raise InvalidTreeError("cyclic edge set")
    for v, _amount in g.demand_items:
        if v != root and v not in links:
            raise InvalidTreeError(f"demand vertex not spanned: {v}")
    below = [0] * g.n
    for v, amount in g.demand_items:
        below[v] = amount
    flows = {}
    for v, (parent, eid) in reversed(links.items()):
        flow = flows[eid] = below[v]
        below[parent] += flow
    tree = g.routed_trees[key] = RoutedTree(g, ids, tuple(flows[eid] for eid in ids))
    return tree


def basis_cost(tree: RoutedTree, threshold: float) -> float:
    """Cost of the tree when each edge pays length * min(flow, threshold),
    summed in edge-id order once per threshold and kept in ``tree.costs``."""
    total = tree.costs.get(threshold)
    if total is None:
        total = 0.0
        for e, flow in zip(tree.edges, tree.flows):
            total += e.length * (flow if flow < threshold else threshold)
        tree.costs[threshold] = total
    return total


class RentBuyDecomposition(NamedTuple):
    """Split of a routed tree at one basis threshold.

    Edges whose flow is at or above the threshold are bought, at their plain
    lengths summed in ``buy_cost``; the rest are rented at flow-weighted cost
    ``rent_cost``. The core is the root plus every endpoint of a bought edge.
    """

    rent_cost: float
    buy_cost: float
    core: frozenset[int]


def buy_cutoff(threshold: float) -> float:
    """Least flow bought at ``threshold``: itself when an integer, as flows
    are; else 1e-12 relatively below it, guarding float error in (1+eps)**i."""
    return threshold if threshold == math.floor(threshold) else threshold * (1.0 - 1e-12)


def decompose(tree: RoutedTree, threshold: float) -> RentBuyDecomposition:
    """Split ``tree`` at ``threshold``: an edge is bought when its flow is
    at least ``buy_cutoff(threshold)``, and rented otherwise."""
    cutoff = buy_cutoff(threshold)
    rent_cost = 0.0
    buy_cost = 0.0
    core = {tree.instance.root}
    for e, flow in zip(tree.edges, tree.flows):
        if flow >= cutoff:
            buy_cost += e.length
            core.add(e.u)
            core.add(e.v)
        else:
            rent_cost += e.length * flow
    return RentBuyDecomposition(rent_cost, buy_cost, frozenset(core))
