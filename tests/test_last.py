import math
import random

import pytest

from onetree import (
    ConfigError,
    build_last,
    make_instance,
    minimum_spanning_tree,
    verify_last,
)
from onetree.builder import GOLDEN_ALPHA
from onetree.graph import shortest_path_tree
from onetree.last import LastTree, guaranteed_beta

from corpus import random_connected_instance
from helpers import reference_tree_distances


def last_distances(t: LastTree) -> dict[int, float]:
    """Root distances along the LAST's own edges."""
    return reference_tree_distances(t.graph.root, [t.graph.edge_by_id[e] for e in t.edge_ids])


def test_star_is_its_own_last():
    g = make_instance(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)], 0, {1: 1})
    t = build_last(g, 1.5)
    assert t.edge_ids == {0, 1, 2}
    report = verify_last(t, 1.5, guaranteed_beta(1.5))
    assert report.passed
    assert report.max_stretch == 1.0
    assert report.weight_ratio == 1.0


def test_cycle_splices_far_vertex(cycle4):
    t = build_last(cycle4, 1.618)
    assert t.edge_ids == {0, 1, 3}
    assert last_distances(t) == {0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0}
    report = verify_last(t, 1.618, guaranteed_beta(1.618))
    assert report.passed
    assert report.tree_weight == 3.0


def test_tree_input_returned_unchanged(path3):
    for alpha in (1.01, 2.0, 50.0):
        t = build_last(path3, alpha)
        assert t.edge_ids == {0, 1}


def test_single_vertex_graph():
    g = make_instance(1, [], 0, {0: 1})
    t = build_last(g, 2.0)
    assert t.edge_ids == frozenset()
    assert last_distances(t) == {0: 0.0}
    report = verify_last(t, 2.0, guaranteed_beta(2.0))
    assert report.passed and report.stretches == {}


def test_rejects_alpha_at_most_one(path3):
    with pytest.raises(ConfigError):
        build_last(path3, 1.0)


def test_verify_flags_mst_stretch(cycle4):
    mst = LastTree(cycle4, frozenset(minimum_spanning_tree(cycle4)))
    report = verify_last(mst, 1.1, 21.0)
    assert not report.passed
    assert report.worst_vertex == 3
    assert report.max_stretch == pytest.approx(3.0)


def test_shortest_path_tree_always_passes_stretch():
    rng = random.Random(1)
    for _ in range(20):
        g = random_connected_instance(rng, n_max=20)
        _, pred = shortest_path_tree(g, 0)
        spt = LastTree(g, frozenset(eid for _, eid in pred.values()))
        report = verify_last(spt, 1.0 + 1e-12, 1e9)
        assert report.stretch_ok


def test_random_graphs_satisfy_both_guarantees():
    rng = random.Random(97)
    for _ in range(100):
        g = random_connected_instance(rng)
        for alpha in (GOLDEN_ALPHA, 1.1, 3.0):
            t = build_last(g, alpha)
            report = verify_last(t, alpha, guaranteed_beta(alpha))
            assert report.passed, (g.n, alpha, report.max_stretch, report.weight_ratio)


def test_huge_alpha_returns_mst():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_instance(rng, n_max=25)
        t = build_last(g, 1e9)
        assert t.edge_ids == minimum_spanning_tree(g)


def test_tight_alpha_weight_stays_bounded():
    rng = random.Random(6)
    alpha = 1.01
    cap = guaranteed_beta(alpha)
    for _ in range(30):
        g = random_connected_instance(rng, n_max=15)
        t = build_last(g, alpha)
        report = verify_last(t, alpha, cap)
        assert report.passed
        assert report.weight_ratio <= cap + 1e-9


def test_deterministic_construction():
    rng1, rng2 = random.Random(3), random.Random(3)
    g1 = random_connected_instance(rng1)
    g2 = random_connected_instance(rng2)
    assert build_last(g1, 1.5).edge_ids == build_last(g2, 1.5).edge_ids


def test_distances_match_edge_set():
    rng = random.Random(71)
    for _ in range(20):
        g = random_connected_instance(rng, n_max=30)
        t = build_last(g, 2.0)
        distances = last_distances(t)
        assert len(distances) == g.n and len(t.edge_ids) == g.n - 1
        assert not math.isinf(max(distances.values()))
        # verify_last's stretches are these distances over the true ones
        true_dist, _ = shortest_path_tree(g, 0)
        report = verify_last(t, 2.0, guaranteed_beta(2.0))
        assert report.stretches == {v: distances[v] / true_dist[v] for v in range(1, g.n)}
