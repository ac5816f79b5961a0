import math
import random

import pytest

from onetree import (
    SUPERNODE,
    DisconnectedError,
    InstanceError,
    ParseError,
    contract,
    load_instance,
    make_instance,
    minimum_spanning_tree,
    shortest_path_tree,
)
from onetree.corpus import instance_text, random_instance
from onetree.graph import tree_distances

from helpers import brute_min_cost

PATH3_TEXT = """\
# tiny path
3 2 0
0 1 1
1 2 1
d 1 1
d 2 1
"""


def test_load_path3():
    g = load_instance(PATH3_TEXT)
    assert g.n == 3
    assert g.root == 0
    assert g.total_demand == 2
    assert [(e.u, e.v, e.length) for e in g.edges] == [(0, 1, 1.0), (1, 2, 1.0)]


def test_load_rejects_zero_length():
    text = "3 2 0\n0 1 0\n1 2 1\nd 2 1\n"
    with pytest.raises(InstanceError, match="nonpositive length"):
        load_instance(text)


def test_load_rejects_disconnected_demand():
    text = "4 2 0\n0 1 1\n2 3 1\nd 3 1\n"
    with pytest.raises(InstanceError, match="^disconnected demand: vertex 3 is unreachable from the root$"):
        load_instance(text)


@pytest.mark.parametrize(
    "lengths, amount",
    [((1, 1, 1), 10**400), ((1e308, 1e308, 1), 1), ((1e300, 1, 1), 10**9), ((math.inf, 1, 1), 1)],
    ids=["demand beyond float", "length sum", "product", "infinite length"],
)
def test_make_instance_rejects_non_finite_cost_range(lengths, amount):
    # the library constructor applies load_instance's check, so no solver
    # ever meets a cost it cannot hold in a float
    edges = [(0, 1, lengths[0]), (1, 2, lengths[1]), (0, 2, lengths[2])]
    with pytest.raises(InstanceError, match="not finite"):
        make_instance(3, edges, 0, {2: amount})


def test_load_ignores_disconnected_non_demand_vertex():
    text = "4 2 0\n0 1 1\n2 3 1\nd 1 1\n"
    g = load_instance(text)
    assert g.total_demand == 1


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty"),
        ("3 2\n0 1 1\n1 2 1\nd 1 1\n", "header"),
        ("3 2 9\n0 1 1\n1 2 1\nd 1 1\n", "root"),
        ("3 2 0\n0 1 1\n1 5 1\nd 1 1\n", "out of range"),
        ("3 2 0\n1 1 1\n1 2 1\nd 1 1\n", "self-loop"),
        ("3 2 0\n0 1 1\n1 2 1\nd 1 1\nd 1 2\n", "duplicate demand"),
        ("3 2 0\n0 1 1\n1 2 1\n", "missing demand"),
        ("3 2 0\n0 1 1\nd 1 1\n", "expected 2 edge"),
    ],
)
def test_load_parse_errors(text, match):
    with pytest.raises(ParseError, match=match):
        load_instance(text)


def test_load_error_carries_line_number():
    text = "3 2 0\n0 1 1\n1 2 oops\nd 1 1\n"
    with pytest.raises(ParseError, match="line 3"):
        load_instance(text)


def test_load_accepts_float_lengths_and_parallel_edges():
    text = "3 3 0\n0 1 1.5e0\n0 1 0.25\n1 2 2.5\nd 2 1\n"
    g = load_instance(text)
    assert [e.length for e in g.edges] == [1.5, 0.25, 2.5]
    # parallel pair keeps distinct ids
    assert (g.edges[0].u, g.edges[0].v) == (g.edges[1].u, g.edges[1].v)


def test_instance_text_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        g = random_instance(rng)
        again = load_instance(instance_text(g))
        assert again == g


def test_spt_path(path3):
    dist, pred = shortest_path_tree(path3, 0)
    assert dist == {0: 0.0, 1: 1.0, 2: 2.0}
    assert pred == {1: (0, 0), 2: (1, 1)}


def test_spt_tie_break_prefers_smaller_predecessor(cycle4):
    dist, pred = shortest_path_tree(cycle4, 0)
    assert dist[2] == 2.0
    # two shortest paths to vertex 2; the one through vertex 1 wins
    assert pred[2] == (1, 1)


def test_spt_single_vertex():
    g = make_instance(1, [], 0, {0: 1})
    dist, pred = shortest_path_tree(g, 0)
    assert dist == {0: 0.0}
    assert pred == {}


def test_spt_unreachable_vertex_gets_infinity():
    g = make_instance(3, [(0, 1, 1)], 0, {1: 1})
    dist, _ = shortest_path_tree(g, 0)
    assert dist[2] == math.inf


def test_spt_triangle_inequality_random():
    rng = random.Random(99)
    for _ in range(50):
        g = random_instance(rng)
        dist, _ = shortest_path_tree(g, g.root)
        for e in g.edges:
            if dist[e.u] < math.inf and dist[e.v] < math.inf:
                assert dist[e.u] <= dist[e.v] + e.length + 1e-9
                assert dist[e.v] <= dist[e.u] + e.length + 1e-9


def test_mst_path_unique(path3):
    assert minimum_spanning_tree(path3) == {0, 1}


def test_mst_cycle_drops_largest_id(cycle4):
    assert minimum_spanning_tree(cycle4) == {0, 1, 2}


def test_mst_forced_by_cut():
    g = make_instance(3, [(0, 1, 1), (0, 2, 1), (1, 2, 5)], 0, {1: 1})
    assert minimum_spanning_tree(g) == {0, 1}


def test_mst_disconnected_errors():
    g = make_instance(4, [(0, 1, 1), (2, 3, 1)], 0, {1: 1})
    with pytest.raises(DisconnectedError):
        minimum_spanning_tree(g)


def test_mst_matches_brute_force_minimum():
    rng = random.Random(4242)
    for _ in range(25):
        g = random_instance(rng, n_min=4, n_max=8)
        mst = minimum_spanning_tree(g)
        weight = sum(g.edge_by_id[eid].length for eid in mst)
        best, _ = brute_min_cost(g, lambda t: t.total_length)
        assert weight == pytest.approx(best, abs=1e-9)


def test_contract_singleton_keeps_graph(path3):
    cg = contract(path3, {0})
    assert cg.vertex_ids == (SUPERNODE, 1, 2)
    assert [(e.eid, e.u, e.v) for e in cg.edges] == [(0, SUPERNODE, 1), (1, 1, 2)]


def test_contract_pair_on_path(path3):
    cg = contract(path3, {0, 1})
    assert cg.vertex_ids == (SUPERNODE, 2)
    assert [(e.eid, e.u, e.v, e.length) for e in cg.edges] == [(1, SUPERNODE, 2, 1.0)]


def test_contract_reduces_parallel_edges(cycle4):
    cg = contract(cycle4, {0, 2})
    assert cg.vertex_ids == (SUPERNODE, 1, 3)
    # edges 1 and 3 lose their ties to the parallel edges 0 and 2
    assert [(e.eid, e.u, e.v, e.length) for e in cg.edges] == [
        (0, SUPERNODE, 1, 1.0),
        (2, SUPERNODE, 3, 1.0),
    ]


def test_contract_vertex_filter_restricts(cycle4):
    cg = contract(cycle4, {0}, keep={1})
    assert cg.vertex_ids == (SUPERNODE, 1)
    assert [e.eid for e in cg.edges] == [0]


def test_contract_preserves_lengths_and_counts():
    rng = random.Random(7)
    for _ in range(30):
        g = random_instance(rng)
        merged = {g.root, rng.randrange(g.n)}
        cg = contract(g, merged)
        assert len(cg.edges) <= len(g.edges)
        for e in cg.edges:
            assert e.length == g.edge_by_id[e.eid].length


def test_merged_source_matches_contraction():
    rng = random.Random(5)
    for _ in range(200):
        g = random_instance(rng, n_max=9, max_length=3, max_extra_edges=8)
        merged = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        dist, pred = shortest_path_tree(g, merged)
        cdist, cpred = shortest_path_tree(contract(g, merged), SUPERNODE)
        for v in set(g.vertex_ids) - merged:
            assert dist[v] == cdist[v]
            assert pred.get(v) == cpred.get(v)
        assert all(dist[v] == 0.0 and v not in pred for v in merged)


def test_merged_source_rejects_bad_sets(path3):
    for bad in (frozenset(), frozenset({0, 7})):
        with pytest.raises(ValueError):
            shortest_path_tree(path3, bad)


def test_contract_requires_nonempty_set(path3):
    with pytest.raises(ValueError):
        contract(path3, set())


def test_tree_distances():
    g = make_instance(4, [(0, 1, 2), (1, 2, 3), (0, 3, 1)], 0, {1: 1})
    d = tree_distances(0, g.edges)
    assert d == {0: 0.0, 1: 2.0, 2: 5.0, 3: 1.0}


def test_determinism_identical_inputs():
    rng1, rng2 = random.Random(11), random.Random(11)
    g1, g2 = random_instance(rng1), random_instance(rng2)
    assert g1 == g2
    assert shortest_path_tree(g1, g1.root) == shortest_path_tree(g2, g2.root)
    assert minimum_spanning_tree(g1) == minimum_spanning_tree(g2)
