import random

import pytest

from onetree import (
    InvalidTreeError,
    basis_cost,
    basis_threshold,
    decompose,
    make_instance,
    route,
)
from onetree.corpus import random_instance
from onetree.layers import compute_K

from helpers import subset_spanning_trees


def test_route_path_flows(path3):
    t = route(path3, (0, 1))
    assert t.flow_map == {0: 2, 1: 1}


def test_route_star_flows():
    g = make_instance(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], 0, {1: 1, 2: 1, 3: 1})
    t = route(g, (0, 1, 2))
    assert t.flow_map == {0: 1, 1: 1, 2: 1}


def test_route_keeps_flowless_branch():
    # vertices 2, 3 hang off the demand path but carry nothing
    g = make_instance(4, [(0, 1, 1), (0, 2, 1), (2, 3, 1)], 0, {1: 1})
    t = route(g, (0, 1, 2))
    assert t.flow_map == {0: 1, 1: 0, 2: 0}
    assert basis_cost(t, 1.0) == 1.0


def test_route_rejects_cycle(cycle4):
    with pytest.raises(InvalidTreeError, match="cyclic"):
        route(cycle4, (0, 1, 2, 3))


@pytest.mark.parametrize(
    "edges, ids",
    [
        # a triangle through the root
        ([(0, 1, 1), (1, 2, 1), (2, 0, 1)], (0, 1, 2)),
        # a triangle hanging below the root
        ([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1)], (0, 1, 2, 3)),
        # two parallel edges, a cycle of length two
        ([(0, 1, 1), (0, 1, 2), (1, 2, 1)], (0, 1, 2)),
    ],
)
def test_route_rejects_cycle_in_root_component(edges, ids):
    g = make_instance(4, edges, 0, {1: 1})
    with pytest.raises(InvalidTreeError, match="cyclic edge set"):
        route(g, ids)


def test_route_cycle_off_the_root_is_not_connected():
    # a tree at the root plus a triangle elsewhere: the root's walk leaves
    # the triangle's edges over, and they lie off its component
    g = make_instance(5, [(0, 1, 1), (2, 3, 1), (3, 4, 1), (4, 2, 1)], 0, {1: 1})
    with pytest.raises(InvalidTreeError, match="not connected"):
        route(g, (0, 1, 2, 3))


def test_route_rejects_unspanned_demand(cycle4):
    with pytest.raises(InvalidTreeError, match="demand vertex not spanned: 2"):
        route(cycle4, (0, 3))


def test_route_rejects_floating_edges():
    g = make_instance(4, [(0, 1, 1), (2, 3, 1)], 0, {1: 1})
    with pytest.raises(InvalidTreeError, match="not connected"):
        route(g, (0, 1))


def test_basis_cost_examples(path3):
    t = route(path3, (0, 1))
    assert basis_cost(t, 1.0) == 2.0
    assert basis_cost(t, 2.0) == 3.0
    # threshold above the max flow degenerates to flow-weighted cost
    assert basis_cost(t, 100.0) == 3.0


def test_decompose_path_examples(path3):
    t = route(path3, (0, 1))
    d1 = decompose(t, 1, 1.0)
    assert d1.threshold == 2.0
    assert d1.bought == {0}
    assert d1.buy_cost == 1.0
    assert d1.rent_cost == 1.0
    assert d1.core == {0, 1}
    d0 = decompose(t, 0, 1.0)
    assert d0.bought == {0, 1}
    assert d0.buy_cost == 2.0
    assert d0.rent_cost == 0.0
    assert d0.core == {0, 1, 2}


def test_decompose_zero_flow_edge_rented_free():
    g = make_instance(3, [(0, 1, 1), (0, 2, 5)], 0, {1: 1})
    t = route(g, (0, 1))
    d = decompose(t, 0, 1.0)
    assert 1 not in d.bought
    assert d.rent_cost == 0.0
    assert d.core == {0, 1}


def test_boundary_flow_equal_threshold_is_bought(path3):
    t = route(path3, (0, 1))
    # flow on edge 0 is exactly 2 and the threshold is exactly 2
    d = decompose(t, 1, 1.0)
    assert 0 in d.bought


def test_cost_identity_on_random_trees():
    rng = random.Random(2024)
    for _ in range(20):
        g = random_instance(rng)
        eps = rng.choice([0.5, 1.0, 0.3])
        top = compute_K(g.total_demand, eps)
        trees = list(subset_spanning_trees(g))
        for eids in trees[:: max(1, len(trees) // 5)]:
            t = route(g, eids)
            for i in range(top + 1):
                d = decompose(t, i, eps)
                direct = basis_cost(t, d.threshold)
                assert direct == pytest.approx(
                    d.rent_cost + d.threshold * d.buy_cost, rel=1e-9
                )


def test_basis_cost_concave_nondecreasing_in_threshold():
    rng = random.Random(55)
    for _ in range(10):
        g = random_instance(rng)
        eids = next(subset_spanning_trees(g))
        t = route(g, eids)
        grid = [1.0, 1.5, 2.25, 3.375, 5.0625, 7.59375, 16.0]
        costs = [basis_cost(t, m) for m in grid]
        for a, b in zip(costs, costs[1:]):
            assert b >= a - 1e-12
        # concavity: increments shrink relative to threshold growth
        for j in range(1, len(grid) - 1):
            left = (costs[j] - costs[j - 1]) / (grid[j] - grid[j - 1])
            right = (costs[j + 1] - costs[j]) / (grid[j + 1] - grid[j])
            assert right <= left + 1e-12


def test_root_incident_flow_sums_to_total_demand():
    rng = random.Random(123)
    for _ in range(20):
        g = random_instance(rng)
        eids = next(subset_spanning_trees(g))
        t = route(g, eids)
        at_root = sum(
            flow
            for e, flow in zip(t.edges, t.flows)
            if g.root in (e.u, e.v)
        )
        routed = g.total_demand - g.demands.get(g.root, 0)
        assert at_root == routed


def test_basis_threshold_values():
    assert basis_threshold(0, 0.5) == 1.0
    assert basis_threshold(3, 1.0) == 8.0
