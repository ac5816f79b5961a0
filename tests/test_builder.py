import random

import pytest

from onetree import (
    ConfigError,
    ExactSolver,
    Parameters,
    SampleAugmentSolver,
    build_tree,
    check_layer_bounds,
    compute_layers,
    make_instance,
    optimal_parameters,
    route,
)
from onetree.corpus import random_instance


def two_layer_instance():
    """Hub instance whose kept layers are {0, 2} with inner core {root, hub}."""
    g = make_instance(5, [(0, 1, 8), (1, 2, 4), (1, 3, 4), (1, 4, 4)], 0, {2: 2, 3: 1, 4: 1})
    params = Parameters(eps=1.0, alpha=1.4, gamma=2.0, delta=2.5, lambda_mode="exact")
    layers = compute_layers(g, 1.0, ExactSolver(), params.gamma, params.delta)
    return g, params, layers


def test_single_layer_path(path3):
    params = optimal_parameters(eps=1.0)
    layers = compute_layers(path3, 1.0, ExactSolver(), params.gamma, params.delta)
    assert layers.kept == (0,)
    result = build_tree(path3, layers, params.alpha)
    assert result.tree.edge_ids == (0, 1)
    assert result.buy_parts[0] == {0, 1}
    assert result.rent_parts[0] == frozenset()


def test_two_layer_structure():
    g, params, layers = two_layer_instance()
    assert layers.kept == (0, 2)
    assert layers.decompositions[2].core == {0, 1}
    result = build_tree(g, layers, params.alpha)
    assert result.buy_parts[2] == {0}
    assert result.buy_parts[0] == {0, 1, 2, 3}
    assert result.rent_parts[2] == {1, 2, 3}
    report = check_layer_bounds(result, layers, params)
    assert report.all_ok


def test_empty_core_round_is_noop():
    # single demand vertex under the top threshold: the innermost kept layer buys nothing
    g = make_instance(2, [(0, 1, 3)], 0, {1: 3})
    params = optimal_parameters(eps=1.0)
    layers = compute_layers(g, 1.0, ExactSolver(), params.gamma, params.delta)
    top = max(layers.kept)
    assert layers.decompositions[top].buy_cost == 0.0
    assert layers.decompositions[top].core == {0}
    result = build_tree(g, layers, params.alpha)
    assert result.buy_parts[top] == frozenset()


def test_partitions_and_nesting():
    rng = random.Random(14)
    params = optimal_parameters(eps=0.5)
    for k in range(30):
        g = random_instance(rng)
        layers = compute_layers(g, 0.5, ExactSolver(), params.gamma, params.delta, seed=k)
        result = build_tree(g, layers, params.alpha)
        edges = frozenset(result.tree.edge_ids)
        for i in layers.kept:
            assert result.buy_parts[i] | result.rent_parts[i] == edges
            assert not result.buy_parts[i] & result.rent_parts[i]
        ordered = sorted(layers.kept, reverse=True)
        for earlier, later in zip(ordered, ordered[1:]):
            assert result.buy_parts[earlier] <= result.buy_parts[later]


def test_tree_spans_demands_and_is_acyclic():
    rng = random.Random(15)
    params = optimal_parameters(eps=0.5)
    for k in range(30):
        g = random_instance(rng)
        layers = compute_layers(g, 0.5, SampleAugmentSolver(trials=4), params.gamma, params.delta, seed=k)
        result = build_tree(g, layers, params.alpha)
        # route() revalidates: acyclic, connected to the root, demands spanned
        again = route(g, result.tree.edge_ids)
        assert again.flow_map == result.tree.flow_map


def test_layer_bounds_hold_across_corpus():
    rng = random.Random(16)
    params = optimal_parameters(eps=0.5)
    for k in range(50):
        g = random_instance(rng)
        layers = compute_layers(g, 0.5, ExactSolver(), params.gamma, params.delta, seed=k)
        result = build_tree(g, layers, params.alpha)
        report = check_layer_bounds(result, layers, params)
        assert report.all_ok, report.first_failure()
        if report.buy_constant_observed is not None:
            assert report.buy_constant_observed <= params.buy_constant + 1e-9
        if report.rent_constant_observed is not None:
            assert report.rent_constant_observed <= params.rent_constant + 1e-9


def test_zero_flow_pruning_preserves_costs():
    from onetree import basis_cost

    rng = random.Random(18)
    params = optimal_parameters(eps=0.5)
    for k in range(10):
        g = random_instance(rng)
        layers = compute_layers(g, 0.5, ExactSolver(), params.gamma, params.delta, seed=k)
        kept = build_tree(g, layers, params.alpha)
        pruned = build_tree(g, layers, params.alpha, prune_zero_flow=True)
        assert all(flow > 0 for flow in pruned.tree.flows)
        for m in (1.0, 2.0, 4.0, 8.0):
            assert basis_cost(pruned.tree, m) == pytest.approx(basis_cost(kept.tree, m))


def test_delta_too_small_rejected_before_building():
    with pytest.raises(ConfigError, match="delta"):
        Parameters(eps=0.5, alpha=1.6, gamma=2.0, delta=2.5)


def test_mismatched_parameters_rejected():
    g, params, layers = two_layer_instance()
    result = build_tree(g, layers, params.alpha)
    other = Parameters(eps=1.0, alpha=1.4, gamma=3.0, delta=2.5, lambda_mode="exact")
    with pytest.raises(ConfigError, match="gamma/delta"):
        check_layer_bounds(result, layers, other)


def test_structure_cap_against_basis_trees():
    from onetree import basis_cost, basis_threshold

    rng = random.Random(19)
    params = optimal_parameters(eps=0.5)
    cap = max(params.buy_constant * params.gamma, params.rent_constant * params.delta)
    for k in range(25):
        g = random_instance(rng)
        layers = compute_layers(g, 0.5, ExactSolver(), params.gamma, params.delta, seed=k)
        result = build_tree(g, layers, params.alpha)
        for i in range(layers.top_index + 1):
            m = basis_threshold(i, 0.5)
            assert basis_cost(result.tree, m) <= cap * basis_cost(layers.trees[i], m) * (1 + 1e-9) + 1e-12
