import random
import re
from pathlib import Path

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

from corpus import instance_text, random_instance


def two_layer_instance():
    """Hub instance whose kept layers are {0, 2} with inner core {root, hub}."""
    g = make_instance(5, [(0, 1, 8), (1, 2, 4), (1, 3, 4), (1, 4, 4)], 0, {2: 2, 3: 1, 4: 1})
    params = Parameters(eps=1.0, alpha=1.4, gamma=2.0, delta=2.5, lambda_mode="exact")
    return g, compute_layers(g, params, ExactSolver())


def test_single_layer_path(path3):
    params = optimal_parameters(eps=1.0)
    layers = compute_layers(path3, params, ExactSolver())
    assert layers.kept == (0,)
    result = build_tree(path3, layers)
    assert result.tree.edge_ids == (0, 1)
    assert result.buy_parts[0] == {0, 1} == frozenset(result.tree.edge_ids)


def test_two_layer_structure():
    g, layers = two_layer_instance()
    assert layers.kept == (0, 2)
    assert layers.decompositions[2].core == {0, 1}
    result = build_tree(g, layers)
    assert result.buy_parts[2] == {0}
    assert result.buy_parts[0] == {0, 1, 2, 3}
    assert frozenset(result.tree.edge_ids) - result.buy_parts[2] == {1, 2, 3}
    report = check_layer_bounds(result, layers)
    assert report.all_ok


def test_empty_core_round_is_noop():
    # single demand vertex under the top threshold: the innermost kept layer buys nothing
    g = make_instance(2, [(0, 1, 3)], 0, {1: 3})
    params = optimal_parameters(eps=1.0)
    layers = compute_layers(g, params, ExactSolver())
    top = max(layers.kept)
    assert layers.decompositions[top].buy_cost == 0.0
    assert layers.decompositions[top].core == {0}
    result = build_tree(g, layers)
    assert result.buy_parts[top] == frozenset()


def test_partitions_and_nesting():
    rng = random.Random(14)
    params = optimal_parameters(eps=0.5)
    for k in range(30):
        g = random_instance(rng)
        layers = compute_layers(g, params, ExactSolver(), seed=k)
        result = build_tree(g, layers)
        edges = frozenset(result.tree.edge_ids)
        for i in layers.kept:
            assert result.buy_parts[i] <= edges
        ordered = sorted(layers.kept, reverse=True)
        for earlier, later in zip(ordered, ordered[1:]):
            assert result.buy_parts[earlier] <= result.buy_parts[later]


def test_tree_spans_demands_and_is_acyclic():
    rng = random.Random(15)
    params = optimal_parameters(eps=0.5)
    for k in range(30):
        g = random_instance(rng)
        layers = compute_layers(g, params, SampleAugmentSolver(trials=4), seed=k)
        result = build_tree(g, layers)
        # route() revalidates: acyclic, connected to the root, demands spanned
        again = route(g, result.tree.edge_ids)
        assert (again.edge_ids, again.flows) == (result.tree.edge_ids, result.tree.flows)


def test_layer_bounds_hold_across_corpus():
    rng = random.Random(16)
    params = optimal_parameters(eps=0.5)
    for k in range(50):
        g = random_instance(rng)
        layers = compute_layers(g, params, ExactSolver(), seed=k)
        result = build_tree(g, layers)
        report = check_layer_bounds(result, layers)
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
        layers = compute_layers(g, params, ExactSolver(), seed=k)
        kept = build_tree(g, layers)
        pruned = build_tree(g, layers, prune_zero_flow=True)
        assert all(flow > 0 for flow in pruned.tree.flows)
        for m in (1.0, 2.0, 4.0, 8.0):
            assert basis_cost(pruned.tree, m) == pytest.approx(basis_cost(kept.tree, m))


def test_delta_too_small_rejected_before_building():
    with pytest.raises(ConfigError, match="delta"):
        Parameters(eps=0.5, alpha=1.6, gamma=2.0, delta=2.5)


def test_structure_cap_against_basis_trees():
    from onetree import basis_cost, basis_threshold

    rng = random.Random(19)
    params = optimal_parameters(eps=0.5)
    cap = max(params.buy_constant * params.gamma, params.rent_constant * params.delta)
    assert params.branch_bound == cap
    for k in range(25):
        g = random_instance(rng)
        layers = compute_layers(g, params, ExactSolver(), seed=k)
        result = build_tree(g, layers)
        for i in range(layers.top_index + 1):
            m = basis_threshold(i, 0.5)
            assert basis_cost(result.tree, m) <= cap * basis_cost(layers.trees[i], m) * (1 + 1e-9) + 1e-12


def test_readme_library_snippet_runs(path3, tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "path3.graph").write_text(instance_text(path3))
    monkeypatch.chdir(tmp_path)
    exec(snippet, {})
    # a path has one spanning tree, so the stitched tree is the optimum
    assert capsys.readouterr().out.split() == ["True", "1.0"]


def test_float_sums_add_left_to_right():
    # ten edges of length 0.1 add to 0.9999999999999999 left to right, and to
    # 1.0 by sum() from Python 3.12, which compensates: the tree's length and
    # the per-layer sums reach the report, so they add left to right in
    # their term order, whichever interpreter runs
    def left_to_right(terms):
        total = 0
        for term in terms:
            total += term
        return total

    g = make_instance(11, [(v, v + 1, 0.1) for v in range(10)], 0, {5: 3, 10: 1})
    layers = compute_layers(g, optimal_parameters(eps=1.0), ExactSolver())
    result = build_tree(g, layers)
    tree = result.tree
    assert tree.total_length == left_to_right(e.length for e in tree.edges) == 0.9999999999999999
    rows = check_layer_bounds(result, layers).rows
    assert [row.index for row in rows] == list(layers.kept)
    for row in rows:
        buy = result.buy_parts[row.index]
        want_buy = left_to_right(g.edge_by_id[eid].length for eid in buy)
        rent_part = frozenset(tree.edge_ids) - buy
        flow = dict(zip(tree.edge_ids, tree.flows))
        want_rent = left_to_right(g.edge_by_id[eid].length * flow[eid] for eid in rent_part)
        assert (row.buy_edge_cost, row.rent_flow_cost) == (want_buy, want_rent)
    assert rows[0].buy_edge_cost == 0.9999999999999999
