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
from onetree.builder import optimal_parameters
from onetree.cli import solve_instance
from onetree.layers import threshold_grid
from onetree.ssrob import ExactSolver, SampleAugmentSolver

from corpus import random_instance
from helpers import subset_spanning_trees, workload_instances


def test_route_path_flows(path3):
    t = route(path3, (0, 1))
    assert dict(zip(t.edge_ids, t.flows)) == {0: 2, 1: 1}


def test_route_star_flows():
    g = make_instance(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], 0, {1: 1, 2: 1, 3: 1})
    t = route(g, (0, 1, 2))
    assert dict(zip(t.edge_ids, t.flows)) == {0: 1, 1: 1, 2: 1}


def test_route_keeps_flowless_branch():
    # vertices 2, 3 hang off the demand path but carry nothing
    g = make_instance(4, [(0, 1, 1), (0, 2, 1), (2, 3, 1)], 0, {1: 1})
    t = route(g, (0, 1, 2))
    assert dict(zip(t.edge_ids, t.flows)) == {0: 1, 1: 0, 2: 0}
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
    d1 = decompose(t, basis_threshold(1, 1.0))
    assert d1.buy_cost == 1.0
    assert d1.rent_cost == 1.0
    assert d1.core == {0, 1}
    d0 = decompose(t, basis_threshold(0, 1.0))
    assert d0.buy_cost == 2.0
    assert d0.rent_cost == 0.0
    assert d0.core == {0, 1, 2}


def test_decompose_zero_flow_edge_rented_free():
    g = make_instance(3, [(0, 1, 1), (0, 2, 5)], 0, {1: 1})
    t = route(g, (0, 1))
    d = decompose(t, basis_threshold(0, 1.0))
    # edge 1 (length 5) is rented: it adds nothing to the buy cost or core
    assert d.buy_cost == 1.0
    assert d.rent_cost == 0.0
    assert d.core == {0, 1}


def test_boundary_flow_equal_threshold_is_bought(path3):
    t = route(path3, (0, 1))
    # flow on edge 0 is exactly 2 and the threshold is exactly 2
    d = decompose(t, basis_threshold(1, 1.0))
    assert d.buy_cost == 1.0
    assert d.core == {0, 1}


def test_cost_identity_on_random_trees():
    rng = random.Random(2024)
    for _ in range(20):
        g = random_instance(rng)
        eps = rng.choice([0.5, 1.0, 0.3])
        grid = threshold_grid(g.total_demand, eps)
        trees = list(subset_spanning_trees(g))
        for eids in trees[:: max(1, len(trees) // 5)]:
            t = route(g, eids)
            for m in grid:
                d = decompose(t, m)
                assert basis_cost(t, m) == pytest.approx(d.rent_cost + m * d.buy_cost, rel=1e-9)


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


def _cost_in_edge_id_order(tree, threshold):
    total = 0.0
    for eid, flow in sorted(zip(tree.edge_ids, tree.flows)):
        total += tree.instance.edge_by_id[eid].length * min(flow, threshold)
    return total


def test_memoized_costs_equal_a_fresh_sum_bit_for_bit():
    # every tree the pipeline and the oracle keep on the seed-1 oracle_n14
    # graphs: route shares one tree per edge set, and each cost basis_cost
    # kept, and its answer at every threshold, must be the edge-id-order sum
    # bit for bit, whatever was asked before
    params = optimal_parameters(lambda_descriptor="heuristic(trials=32)", eps=0.1)
    for g in workload_instances("oracle_n14", [1]):
        res = solve_instance(g, params, SampleAugmentSolver(trials=32), oracle=ExactSolver())
        setup = g.oracle_setup[0]
        trees = {id(t): t for t in (*res.layers.trees, res.result.tree, *g.trial_trees.values(),
                                    *setup.answers.values())}
        assert res.ratio is not None
        assert len(trees) == len({t.edge_ids for t in trees.values()}) > 1, len(trees)
        for tree in trees.values():
            assert g.routed_trees[frozenset(tree.edge_ids)] is tree
            for m in res.layers.thresholds:
                assert basis_cost(tree, m).hex() == _cost_in_edge_id_order(tree, m).hex()
            assert len(tree.costs) >= len(res.layers.thresholds)
            for m, cost in tree.costs.items():
                assert cost.hex() == _cost_in_edge_id_order(tree, m).hex()
            fresh = _cost_in_edge_id_order(tree, 3.0).hex()
            assert basis_cost(tree, 3).hex() == basis_cost(tree, 3.0).hex() == fresh


def test_route_returns_one_tree_per_edge_set():
    edges = [(0, 1, 1), (1, 2, 2), (0, 3, 1), (2, 3, 4)]
    g = make_instance(4, edges, 0, {2: 3, 3: 1})
    first = route(g, [2, 0, 1])
    for ids in ((1, 0, 2, 0, 1), (eid for eid in (0, 2, 1)), frozenset({0, 1, 2})):
        assert route(g, ids) is first
    assert list(g.routed_trees.values()) == [first]
    other = route(make_instance(4, edges, 0, {2: 3, 3: 1}), [0, 1, 2])
    assert other is not first
    assert (other.edge_ids, other.flows) == (first.edge_ids, first.flows)
    for _ in range(2):
        with pytest.raises(InvalidTreeError, match="cyclic"):
            route(g, [0, 1, 2, 3])
        with pytest.raises(InvalidTreeError, match="demand vertex not spanned: 3"):
            route(g, [0, 1])
    assert g.routed_trees == {frozenset({0, 1, 2}): first}
