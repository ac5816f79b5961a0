import random

import pytest

from onetree import (
    ConfigError,
    ExactSolver,
    OracleLimitError,
    SampleAugmentSolver,
    basis_cost,
    count_spanning_trees,
    exact_ssrob,
    get_solver,
    make_instance,
    route,
    sample_and_augment,
)
from onetree import ssrob
from onetree.corpus import random_instance
from onetree.ssrob import best_tree_for_combination

from helpers import brute_min_cost, subset_spanning_trees


def test_count_spanning_trees(path3, cycle4):
    assert count_spanning_trees(path3) == 1
    assert count_spanning_trees(cycle4) == 4


def test_count_handles_parallel_edges():
    g = make_instance(2, [(0, 1, 1), (0, 1, 2)], 0, {1: 1})
    assert count_spanning_trees(g) == 2


def test_exact_on_unique_tree(path3):
    for m in (1.0, 2.0, 7.0):
        assert exact_ssrob(path3, m).edge_ids == (0, 1)


def test_exact_cycle_all_trees_tie(cycle4):
    t = exact_ssrob(cycle4, 1.0)
    assert basis_cost(t, 1.0) == 3.0
    # every 3-edge tree costs 3; the smallest edge-id set wins
    assert t.edge_ids == (0, 1, 2)


def test_exact_prefers_star_for_large_threshold(triangle_cheap_root):
    t = exact_ssrob(triangle_cheap_root, 10.0)
    assert t.edge_ids == (0, 1)
    assert basis_cost(t, 10.0) == 2.0


def test_exact_matches_independent_subset_oracle():
    rng = random.Random(404)
    for _ in range(20):
        g = random_instance(rng, n_min=3, n_max=5)
        for m in (1.0, 2.0, 3.5):
            got = basis_cost(exact_ssrob(g, m), m)
            want, _ = brute_min_cost(g, lambda t: basis_cost(t, m))
            assert got == pytest.approx(want, rel=1e-12)


def test_exact_oracle_guard():
    # complete graph on 12 vertices has 12**10 spanning trees
    n = 12
    edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
    g = make_instance(n, edges, 0, {1: 1})
    with pytest.raises(OracleLimitError, match="too large for oracle"):
        exact_ssrob(g, 2.0)


def test_enumeration_covers_every_spanning_tree():
    from onetree.ssrob import _root_component, _spanning_edge_sets

    rng = random.Random(17)
    for _ in range(10):
        g = random_instance(rng, n_min=3, n_max=6)
        verts, edges = _root_component(g)
        ours = set(_spanning_edge_sets(verts, edges))
        independent = {tuple(sorted(s)) for s in subset_spanning_trees(g)}
        assert ours == independent
        assert len(ours) == count_spanning_trees(g)


@pytest.mark.parametrize("limit", [1, 7])
def test_streamed_scan_matches_table(monkeypatch, limit):
    # K4 (16 trees) whose only optimum, the star at vertex 3, is enumerated last
    k4 = [(0, 1, 10), (0, 2, 10), (0, 3, 1), (1, 2, 10), (1, 3, 1), (2, 3, 1)]
    rng = random.Random(4242)
    corpus = [make_instance(4, k4, 0, {1: 1, 2: 1})]
    corpus += [random_instance(rng, n_min=4, n_max=7, max_extra_edges=4) for _ in range(25)]
    thresholds = (1.0, 2.0, 3.5)
    coefficients = (0.5, 0.0, 1.25)

    def solve_all():
        return [
            (
                [exact_ssrob(g, m).edge_ids for m in thresholds],
                best_tree_for_combination(g, thresholds, coefficients).edge_ids,
            )
            for g in corpus
        ]

    table = solve_all()
    monkeypatch.setattr(ssrob, "_TABLE_LIMIT", limit)
    assert solve_all() == table


def test_spt_ties_break_on_root_predecessor():
    # both root-to-1 paths have length 2; the one through vertex 0 wins on
    # the smaller predecessor id, which contracting the root would flip
    g = make_instance(3, [(2, 1, 2), (2, 0, 1), (0, 1, 1)], 2, {1: 3})
    assert sample_and_augment(g, 3.0).edge_ids == (1, 2)


def test_sample_augment_degenerate_low_threshold(path3):
    t = sample_and_augment(path3, 1.0, seed=0, trials=4)
    assert t.edge_ids == (0, 1)
    assert basis_cost(t, 1.0) == 2.0


def test_sample_augment_degenerate_high_threshold(path3):
    t = sample_and_augment(path3, 5.0, seed=0, trials=4)
    assert basis_cost(t, 5.0) == 3.0


def test_sample_augment_validates_inputs(path3):
    with pytest.raises(ConfigError):
        sample_and_augment(path3, 0.5)
    with pytest.raises(ConfigError):
        sample_and_augment(path3, 2.0, trials=0)


def test_sample_augment_deterministic(cycle4):
    a = sample_and_augment(cycle4, 2.0, seed=9, trials=8)
    b = sample_and_augment(cycle4, 2.0, seed=9, trials=8)
    assert a.edge_ids == b.edge_ids


def test_sample_augment_never_beats_exact():
    rng = random.Random(31)
    for k in range(30):
        g = random_instance(rng)
        m = rng.choice([1.0, 2.0, 3.0, 5.0])
        heuristic = basis_cost(sample_and_augment(g, m, seed=k, trials=8), m)
        exact = basis_cost(exact_ssrob(g, m), m)
        assert heuristic >= exact - 1e-9


def test_sample_augment_desk_corpus_factor():
    # fixed corpus; the observed worst factor is frozen below
    rng = random.Random(777)
    worst = 1.0
    for k in range(40):
        g = random_instance(rng, n_min=6, n_max=6)
        exact = basis_cost(exact_ssrob(g, 2.0), 2.0)
        heuristic = basis_cost(sample_and_augment(g, 2.0, seed=k, trials=64), 2.0)
        worst = max(worst, heuristic / exact)
    assert worst <= 1.0 + 1e-12


def test_best_tree_for_combination_matches_brute_force():
    rng = random.Random(808)
    for _ in range(10):
        g = random_instance(rng, n_min=3, n_max=6)
        thresholds = (1.0, 2.0, 4.0)
        coefficients = (rng.random(), rng.random(), rng.random())
        t = best_tree_for_combination(g, thresholds, coefficients)
        got = sum(a * basis_cost(t, m) for a, m in zip(coefficients, thresholds))
        want, _ = brute_min_cost(
            g,
            lambda tree: sum(
                a * basis_cost(tree, m) for a, m in zip(coefficients, thresholds)
            ),
        )
        assert got == pytest.approx(want, rel=1e-9)


def test_solver_registry():
    assert isinstance(get_solver("exact"), ExactSolver)
    heuristic = get_solver("sample-augment", trials=7)
    assert isinstance(heuristic, SampleAugmentSolver)
    assert heuristic.quality == "heuristic(trials=7)"
    with pytest.raises(ConfigError):
        get_solver("gurobi")


def test_solver_trees_are_valid_routings():
    rng = random.Random(66)
    for k in range(10):
        g = random_instance(rng)
        for solver in (ExactSolver(), SampleAugmentSolver(trials=4)):
            t = solver.solve(g, 2.0, seed=k)
            again = route(g, t.edge_ids)
            assert again.flow_map == t.flow_map
