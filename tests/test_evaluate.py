import math
import random

import pytest

from onetree import (
    ConfigError,
    ExactSolver,
    Parameters,
    make_instance,
    optimal_parameters,
    route,
    simultaneous_ratio,
)
from onetree.builder import GOLDEN_ALPHA, OPTIMAL_BRANCH_VALUE
from onetree.cli import build_report, solve_instance

from corpus import random_instance
from helpers import (
    ConcaveFunction,
    basis_grid,
    best_tree_for_function,
    combined_objective,
    decompose_function,
    eval_cost,
    refine_parameters,
    search_parameters,
)

ROOT5 = math.sqrt(5.0)


def test_decompose_linear_function():
    eps = 1.0
    samples = [1.0, 2.0, 4.0, 8.0]
    fn = decompose_function(samples, eps)
    # identity on the grid: all mass at the top basis index
    assert fn.coefficients[:-1] == (0.0, 0.0, 0.0)
    assert fn.coefficients[-1] == 1.0
    for i, s in enumerate(samples):
        assert fn.value(2.0**i) == pytest.approx(s, rel=1e-12)


def test_decompose_basis_element():
    eps = 1.0
    samples = [1.0, 2.0, 2.0, 2.0]  # min(x, 2) on the grid 1, 2, 4, 8
    fn = decompose_function(samples, eps)
    assert fn.coefficients == (0.0, 1.0, 0.0, 0.0)


def test_decompose_sqrt_reconstructs():
    eps = 1.0
    grid = [2.0**i for i in range(5)]  # demand 16
    samples = [math.sqrt(x) for x in grid]
    fn = decompose_function(samples, eps)
    assert all(a >= 0 for a in fn.coefficients)
    for x, s in zip(grid, samples):
        assert fn.value(x) == pytest.approx(s, rel=1e-9)


def test_decompose_rejects_bad_samples():
    with pytest.raises(ConfigError, match="decreasing"):
        decompose_function([2.0, 1.0], 1.0)
    with pytest.raises(ConfigError, match="concave"):
        decompose_function([1.0, 2.0, 8.0], 1.0)


def test_eval_cost_examples(path3):
    t = route(path3, (0, 1))
    basis0 = ConcaveFunction(1.0, (1.0, 0.0))
    basis1 = ConcaveFunction(1.0, (0.0, 1.0))
    both = ConcaveFunction(1.0, (1.0, 1.0))
    assert eval_cost(t, basis0) == 2.0
    assert eval_cost(t, basis1) == 3.0
    assert eval_cost(t, both) == 5.0


def test_eval_cost_monotone_in_coefficients(path3):
    t = route(path3, (0, 1))
    base = ConcaveFunction(1.0, (0.5, 0.5))
    bumped = ConcaveFunction(1.0, (0.5, 0.9))
    assert eval_cost(t, bumped) >= eval_cost(t, base)


def test_concave_function_rejects_negative_coefficients():
    with pytest.raises(ConfigError):
        ConcaveFunction(1.0, (1.0, -0.5))


def test_ratio_unique_tree_is_one(path3):
    t = route(path3, (0, 1))
    report = simultaneous_ratio(t, basis_grid(path3, 1.0), ExactSolver())
    assert report.max_ratio == 1.0
    assert all(row.ratio == 1.0 for row in report.rows)


def test_ratio_cycle_far_demand_is_three():
    g = make_instance(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], 0, {3: 1})
    t = route(g, (0, 1, 2))  # the MST path; vertex 3 sits at tree distance 3
    report = simultaneous_ratio(t, basis_grid(g, 1.0), ExactSolver())
    assert report.max_ratio == pytest.approx(3.0)
    assert report.rows[report.argmax_index].optimal_cost == pytest.approx(1.0)


def test_ratio_report_serialization(path3):
    # build_report writes the same keys with and without oracle ratios; the
    # ratio keys are None without them
    params = optimal_parameters(eps=1.0)
    keys = {"eps", "K", "per_i", "max_ratio", "argmax_i", "params", "lambda_mode",
            "instance", "oracle_skipped", "lambda_emp", "layers", "bound_checks", "tree"}
    for oracle in (ExactSolver(), None):
        res = solve_instance(path3, params, ExactSolver(), oracle=oracle)
        payload = build_report("path3", res)
        assert set(payload) == keys
        assert payload["eps"] == 1.0 and payload["K"] == res.layers.top_index == 1
        assert payload["params"] == params.to_json_dict()
        if oracle is None:
            assert [payload[k] for k in ("per_i", "max_ratio", "argmax_i", "lambda_mode")] == [None] * 4
        else:
            assert payload["lambda_mode"] == "exact"
            assert payload["max_ratio"] == 1.0 and payload["argmax_i"] == 0
            assert [row.keys() for row in payload["per_i"]] == [{"M", "cost_T", "cost_opt", "ratio"}] * 2


def test_ratio_with_heuristic_oracle_carries_caveat(path3):
    from onetree import SampleAugmentSolver

    t = route(path3, (0, 1))
    report = simultaneous_ratio(t, basis_grid(path3, 1.0), SampleAugmentSolver(trials=2))
    # the oracle's quality, named in the report, marks its ratios as lower bounds
    assert report.lambda_mode == "heuristic(trials=2)"


def test_parameters_validation():
    with pytest.raises(ConfigError):
        Parameters(eps=0.5, alpha=1.0, gamma=2.0, delta=5.0)
    with pytest.raises(ConfigError):
        Parameters(eps=0.5, alpha=2.0, gamma=1.0, delta=5.0)
    with pytest.raises(ConfigError):
        Parameters(eps=-0.5, alpha=2.0, gamma=2.0, delta=5.0)
    # beta is derived, so a beta below (alpha+1)/(alpha-1) cannot be given
    assert Parameters(eps=0.5, alpha=2.0, gamma=2.0, delta=5.0).beta == 3.0
    with pytest.raises(TypeError):
        Parameters(eps=0.5, alpha=2.0, beta=2.9, gamma=2.0, delta=5.0)


def test_optimal_parameters_closed_form():
    p = optimal_parameters(eps=0.5)
    assert p.alpha == pytest.approx((1 + ROOT5) / 2, abs=1e-12)
    assert p.beta == pytest.approx(2 + ROOT5, abs=1e-12)
    assert p.gamma == 2.0
    assert p.delta == pytest.approx(3 + ROOT5, abs=1e-12)
    assert p.buy_constant * p.gamma == pytest.approx(OPTIMAL_BRANCH_VALUE, abs=1e-9)
    assert p.rent_constant * p.delta == pytest.approx(OPTIMAL_BRANCH_VALUE, abs=1e-9)
    assert p.headline_ratio == pytest.approx(1.5 * OPTIMAL_BRANCH_VALUE, abs=1e-6)


def test_numeric_reoptimizer_matches_closed_form():
    alpha, gamma, delta, value = refine_parameters(2.0, 3.0, 8.0)
    assert alpha == pytest.approx(GOLDEN_ALPHA, abs=1e-6)
    assert gamma == pytest.approx(2.0, abs=1e-6)
    assert delta == pytest.approx(3 + ROOT5, abs=1e-6)
    assert value == pytest.approx(OPTIMAL_BRANCH_VALUE, abs=1e-6)


def test_grid_search_matches_closed_form():
    alpha, gamma, delta, value = search_parameters()
    assert alpha == pytest.approx(GOLDEN_ALPHA, abs=1e-6)
    assert gamma == pytest.approx(2.0, abs=1e-6)
    assert delta == pytest.approx(3 + ROOT5, abs=1e-6)
    assert value == pytest.approx(OPTIMAL_BRANCH_VALUE, abs=1e-6)


def test_objective_domain_guard():
    assert combined_objective(1.0, 2.0, 5.0) == math.inf
    assert combined_objective(2.0, 2.0, 3.0) == math.inf


def test_reduction_inequality_random_functions():
    rng = random.Random(606)
    eps = 0.5
    params = optimal_parameters(eps=eps)
    for k in range(5):
        g = random_instance(rng)
        res = solve_instance(g, params, ExactSolver(), seed=k, oracle=ExactSolver())
        tree = res.result.tree
        max_ratio = res.ratio.max_ratio
        top = res.layers.top_index
        for _ in range(20):
            coeffs = tuple(rng.random() if rng.random() < 0.7 else 0.0 for _ in range(top + 1))
            if not any(coeffs):
                coeffs = (1.0,) + coeffs[1:]
            fn = ConcaveFunction(eps, coeffs)
            best = best_tree_for_function(g, fn)
            lhs = eval_cost(tree, fn)
            rhs = eval_cost(best, fn)
            assert lhs <= (1 + eps) * max_ratio * rhs * (1 + 1e-9)
            # tighter chain: the per-threshold optima lower-bound any tree
            opt_mix = sum(
                a * row.optimal_cost for a, row in zip(coeffs, res.ratio.rows)
            )
            assert opt_mix <= rhs * (1 + 1e-9)
            assert lhs <= max_ratio * opt_mix * (1 + 1e-9)
