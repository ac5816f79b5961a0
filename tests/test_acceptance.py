"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The corpus is frozen by
seed; every expected value is either derived from an independent oracle in
this file/helpers.py or asserted against the stated closed forms.
"""

import json
import math
import random
import time

import pytest

from onetree import (
    ExactSolver,
    Parameters,
    SampleAugmentSolver,
    basis_cost,
    build_last,
    compute_layers,
    exact_ssrob,
    optimal_parameters,
    verify_last,
)
from onetree.cli import main, solve_instance
from onetree.builder import GOLDEN_ALPHA, OPTIMAL_BRANCH_VALUE
from onetree.last import guaranteed_beta

from corpus import instance_text, random_connected_instance, random_instance
from helpers import (
    ConcaveFunction,
    best_tree_for_function,
    brute_min_cost,
    count_spanning_trees,
    eval_cost,
    refine_parameters,
    search_parameters,
)

EPS = 0.5
CORPUS_SEED = 20260809
CORPUS_SIZE = 200
BRANCH_VALUE = 16.9442719100
SLACK = 1e-9


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_instance(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def exact_runs(corpus):
    params = optimal_parameters(eps=EPS)
    start = time.perf_counter()
    runs = [
        solve_instance(g, params, ExactSolver(), seed=k, oracle=ExactSolver())
        for k, g in enumerate(corpus)
    ]
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def heuristic_runs(corpus):
    params = optimal_parameters(lambda_descriptor="heuristic(trials=32)", eps=EPS)
    solver = SampleAugmentSolver(trials=32)
    return [
        solve_instance(g, params, solver, seed=k, oracle=ExactSolver())
        for k, g in enumerate(corpus)
    ]


def test_criterion_1_simultaneous_bound(exact_runs, heuristic_runs):
    runs, elapsed = exact_runs
    cap = (1 + EPS) * BRANCH_VALUE * (1 + SLACK)
    worst = 0.0
    for k, res in enumerate(runs):
        assert res.ratio is not None and not res.oracle_skipped
        assert res.ratio.max_ratio <= cap, (k, res.ratio.max_ratio)
        worst = max(worst, res.ratio.max_ratio)
    assert elapsed < 60.0, f"exact corpus pass took {elapsed:.1f}s"

    worst_heur = 0.0
    for k, res in enumerate(heuristic_runs):
        lam = res.lambda_emp
        assert lam is not None
        bound = (1 + EPS) * lam * BRANCH_VALUE * (1 + SLACK)
        assert res.ratio.max_ratio <= bound, (k, res.ratio.max_ratio, lam)
        worst_heur = max(worst_heur, res.ratio.max_ratio)
    print(
        f"\nPASS criterion 1: {len(runs)} instances, exact worst ratio "
        f"{worst:.4f} <= {cap:.4f} in {elapsed:.1f}s; heuristic worst ratio "
        f"{worst_heur:.4f} within its measured-lambda bound"
    )


def test_criterion_2_monotonicity(corpus, exact_runs, heuristic_runs):
    checked = 0

    def check(layers):
        nonlocal checked
        decs = layers.decompositions
        for i in range(layers.top_index):
            assert decs[i].buy_cost >= decs[i + 1].buy_cost - 1e-9
            assert decs[i].rent_cost <= decs[i + 1].rent_cost + 1e-9
        checked += 1

    for res in exact_runs[0]:
        check(res.layers)
    for res in heuristic_runs:
        check(res.layers)

    rng = random.Random(CORPUS_SEED + 1)
    solver = SampleAugmentSolver(trials=2)
    params = Parameters(eps=EPS, alpha=GOLDEN_ALPHA, gamma=2.0, delta=3 + math.sqrt(5))
    for trial in range(1000):
        g = random_instance(rng)
        check(compute_layers(g, params, solver, seed=trial))
    print(f"\nPASS criterion 2: buy/rent monotonicity held in {checked} runs")


def test_criterion_3_layer_bounds(exact_runs, heuristic_runs):
    rows = 0
    for res in list(exact_runs[0]) + list(heuristic_runs):
        assert res.bounds.all_ok, res.bounds.first_failure()
        for row in res.bounds.rows:
            assert row.buy_edge_cost <= row.buy_bound * (1 + SLACK) + 1e-12
            assert row.rent_flow_cost <= row.rent_bound * (1 + SLACK) + 1e-12
            rows += 1
    print(f"\nPASS criterion 3: buy/rent layer bounds held for {rows} layers")


def test_criterion_4_light_tree_guarantees():
    rng = random.Random(CORPUS_SEED + 2)
    graphs = [random_connected_instance(rng) for _ in range(1000)]
    alphas = (GOLDEN_ALPHA, 1.01, 1.1, 3.0, 10.0)
    checks = 0
    for g in graphs:
        for alpha in alphas:
            beta = guaranteed_beta(alpha)
            report = verify_last(build_last(g, alpha), alpha, beta)
            assert report.passed, (g.n, alpha, report.max_stretch, report.weight_ratio)
            checks += 1
    print(f"\nPASS criterion 4: {checks} light-tree builds verified at 5 stretch levels")


def test_criterion_5_closed_form_parameters():
    p = optimal_parameters(eps=EPS)
    root5 = math.sqrt(5.0)
    assert abs(p.alpha - (1 + root5) / 2) <= 1e-9
    assert abs(p.beta - (2 + root5)) <= 1e-9
    assert abs(p.delta - (3 + root5)) <= 1e-9
    buy_branch = p.buy_constant * p.gamma
    rent_branch = p.rent_constant * p.delta
    assert abs(buy_branch - rent_branch) <= 1e-9
    assert abs(buy_branch - OPTIMAL_BRANCH_VALUE) <= 1e-9

    for alpha, gamma, delta, value in (refine_parameters(2.0, 3.0, 8.0), search_parameters()):
        assert abs(alpha - GOLDEN_ALPHA) <= 1e-6
        assert abs(gamma - 2.0) <= 1e-6
        assert abs(delta - (3 + root5)) <= 1e-6
        assert abs(value - OPTIMAL_BRANCH_VALUE) <= 1e-6
    print("\nPASS criterion 5: closed-form optimum confirmed; numeric optimizer agrees to 1e-6")


def test_criterion_6_reduction_inequality(corpus, exact_runs):
    rng = random.Random(CORPUS_SEED + 3)
    checks = 0
    for g, res in list(zip(corpus, exact_runs[0]))[:10]:
        tree = res.result.tree
        max_ratio = res.ratio.max_ratio
        top = res.layers.top_index
        for _ in range(100):
            coeffs = tuple(rng.random() if rng.random() < 0.7 else 0.0 for _ in range(top + 1))
            if not any(coeffs):
                coeffs = (1.0,) + coeffs[1:]
            fn = ConcaveFunction(EPS, coeffs)
            best = best_tree_for_function(g, fn)
            lhs = eval_cost(tree, fn)
            rhs = eval_cost(best, fn)
            assert lhs <= (1 + EPS) * max_ratio * rhs * (1 + SLACK), (coeffs, lhs, rhs)
            checks += 1
    print(f"\nPASS criterion 6: reduction inequality held for {checks} random concave functions")


def test_criterion_7_oracle_soundness(corpus):
    thresholds = (1.0, 2.25, 5.0625)
    verified = 0
    for g in corpus:
        if count_spanning_trees(g) > 10_000:
            continue
        for m in thresholds:
            got = basis_cost(exact_ssrob(g, m), m)
            want, _ = brute_min_cost(g, lambda t: basis_cost(t, m))
            assert got == pytest.approx(want, rel=1e-12), (m, got, want)
            verified += 1

    rng = random.Random(CORPUS_SEED + 4)
    spot = 0
    for k in range(30):
        g = random_instance(rng, n_min=3, n_max=5)
        for i in range(6):
            m = 1.5**i
            got = basis_cost(exact_ssrob(g, m), m)
            want, _ = brute_min_cost(g, lambda t: basis_cost(t, m))
            assert got == pytest.approx(want, rel=1e-12)
            spot += 1
    print(
        f"\nPASS criterion 7: exact oracle matched the independent "
        f"subset-enumeration oracle in {verified} corpus checks and {spot} spot checks"
    )


def test_criterion_8_determinism(tmp_path, corpus):
    instance = tmp_path / "det.graph"
    instance.write_text(instance_text(corpus[7]))
    blobs = set()
    for rep in range(20):
        out = tmp_path / f"rep{rep}.json"
        code = main(
            ["run", str(instance), "--eps", "0.5", "--seed", "3", "--trials", "16",
             "--oracle", "--out-report", str(out)]
        )
        assert code == 0
        blobs.add(out.read_bytes())
    assert len(blobs) == 1
    payload = json.loads(next(iter(blobs)))
    assert payload["max_ratio"] is not None
    print("\nPASS criterion 8: 20 repeated runs produced byte-identical reports")
