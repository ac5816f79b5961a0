import math
import random
from heapq import heappop

import pytest

from onetree import (
    SUPERNODE,
    DisconnectedError,
    Edge,
    Instance,
    InstanceError,
    ParseError,
    SampleAugmentSolver,
    contract,
    graph,
    load_instance,
    make_instance,
    minimum_spanning_tree,
    optimal_parameters,
    shortest_path_tree,
    ssrob,
)
from onetree.cli import solve_instance
from onetree.graph import tree_walk

from corpus import instance_text, random_instance
from helpers import (
    brute_min_cost,
    reference_contract,
    reference_shortest_path_tree,
    reference_tree_distances,
    tree_vertices,
    workload_instances,
)

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


@pytest.mark.parametrize("length", [-1.0, 0.0, -0.0, math.nan])
def test_make_instance_rejects_nonpositive_length(length):
    # load_instance refuses these lines; the library constructor must too,
    # since a search's first pop is final only on positive lengths
    edges = [(0, 1, 1.0), (1, 2, length), (0, 2, 5.0)]
    with pytest.raises(InstanceError, match=r"^edge 1 has length .*, which is not positive$"):
        make_instance(3, edges, 0, {2: 3})


@pytest.mark.parametrize(
    "edges, root, demands, match",
    [
        ([(0, 1, 1), (1, 5, 1)], 0, {1: 1}, r"^edge 1 \(1, 5\) has an end out of range 0\.\.2$"),
        ([(-1, 2, 1), (0, 2, 1)], 0, {2: 1}, r"^edge 0 \(-1, 2\) has an end out of range"),
        ([(0, 1, 1)], 3, {1: 1}, r"^root 3 out of range 0\.\.2$"),
        ([(0, 1, 1)], -1, {1: 1}, r"^root -1 out of range"),
        ([(0, 1, 1)], 0, {1: 1, 3: 1}, r"^demand vertex 3 out of range 0\.\.2$"),
        ([(0, 1, 1)], 0, {-1: 1}, r"^demand vertex -1 out of range"),
    ],
    ids=["edge end", "negative edge end", "root", "negative root", "demand", "negative demand"],
)
def test_make_instance_rejects_out_of_range_vertices(edges, root, demands, match):
    # a negative id would otherwise index a search list from its end
    with pytest.raises(InstanceError, match=match):
        make_instance(3, edges, root, demands)


@pytest.mark.parametrize(
    "extra, demand_items, match",
    [
        ([], ((1, 3), (2, 0)), r"^demand 0 on vertex 2 is not a positive integer$"),
        ([], ((1, 5), (2, -3)), r"^demand -3 on vertex 2 is not a positive integer$"),
        ([], ((2, 1.5),), r"^demand 1\.5 on vertex 2 is not a positive integer$"),
        ([], ((2, 2), (2, 3)), r"^a demand vertex is listed twice$"),
        ([(1, 1, 1)], ((2, 1),), r"^edge 3 is a self-loop at vertex 1$"),
    ],
    ids=["zero demand", "negative demand", "fractional demand", "vertex twice", "self-loop"],
)
def test_instance_rejects_what_load_instance_rejects(extra, demand_items, match):
    # load_instance refuses each of these at its line; let through here, a
    # zero demand would end in "demand vertex not spanned", a negative one in
    # a false delta-cap InvariantError, 1.5 would route a flow of 1.5, and a
    # vertex listed twice would count twice in total_demand, once in demands
    triples = [(0, 1, 1), (1, 2, 1), (0, 2, 3), *extra]
    edges = tuple(Edge(i, u, v, float(length)) for i, (u, v, length) in enumerate(triples))
    with pytest.raises(InstanceError, match=match):
        Instance(n=3, edges=edges, root=0, demand_items=demand_items)
    if len(dict(demand_items)) == len(demand_items):
        with pytest.raises(InstanceError, match=match):
            make_instance(3, triples, 0, dict(demand_items))


def test_unreachable_demand_is_refused_however_the_instance_is_built():
    # make_instance, Instance and load_instance name the same vertex, the
    # least the root cannot reach, before any solve; demand at an isolated
    # root alone, and contract's demand-free output, are accepted
    edges = [(0, 1, 1), (2, 3, 1), (4, 5, 1)]
    demands = {5: 2, 1: 1, 3: 1}
    built = tuple(Edge(i, u, v, float(w)) for i, (u, v, w) in enumerate(edges))
    text = "6 3 0\n" + "".join(f"{u} {v} {w}\n" for u, v, w in edges)
    text += "".join(f"d {v} {a}\n" for v, a in demands.items())
    messages = []
    for build in (
        lambda: make_instance(6, edges, 0, demands),
        lambda: Instance(n=6, edges=built, root=0, demand_items=tuple(demands.items())),
        lambda: load_instance(text),
    ):
        with pytest.raises(InstanceError) as refused:
            build()
        messages.append(str(refused.value))
    assert messages == ["disconnected demand: vertex 3 is unreachable from the root"] * 3
    lone = make_instance(4, [(1, 2, 1), (2, 3, 1)], 0, {0: 4})
    assert load_instance("4 2 0\n1 2 1\n2 3 1\nd 0 4\n") == lone
    assert contract(lone, {1}, keep={0, 1, 3}).demand_items == ()


def test_a_repeated_edge_id_is_refused():
    # a path of two edges under one id would route as a cycle; the least
    # repeated id is named, whatever order the edges come in
    with pytest.raises(InstanceError, match="^edge id 0 names two edges$"):
        Instance(n=3, edges=(Edge(0, 0, 1, 1.0), Edge(0, 1, 2, 5.0)), root=0, demand_items=((2, 1),))
    edges = (Edge(7, 0, 1, 1.0), Edge(3, 1, 2, 1.0), Edge(7, 2, 3, 1.0), Edge(3, 0, 3, 2.0))
    with pytest.raises(InstanceError, match="^edge id 3 names two edges$"):
        Instance(n=4, edges=edges, root=0, demand_items=((2, 1),))
    # make_instance and load_instance number edges by position, and contract
    # keeps one edge per id, parallel edges and all
    parallel = [(0, 1, 2), (0, 1, 1), (1, 2, 1), (2, 0, 3), (1, 2, 1)]
    g = make_instance(3, parallel, 0, {2: 1})
    assert [e.eid for e in g.edges] == [0, 1, 2, 3, 4]
    assert load_instance(instance_text(g)) == g
    assert len(contract(g, {0, 1}).edge_by_id) == 1


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
    assert dist == [0.0, 1.0, 2.0]
    assert pred == {1: (0, 0), 2: (1, 1)}


def test_spt_tie_break_prefers_smaller_predecessor(cycle4):
    dist, pred = shortest_path_tree(cycle4, 0)
    assert dist[2] == 2.0
    # two shortest paths to vertex 2; the one through vertex 1 wins
    assert pred[2] == (1, 1)


def test_spt_single_vertex():
    g = make_instance(1, [], 0, {0: 1})
    dist, pred = shortest_path_tree(g, 0)
    assert dist == [0.0]
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
    assert (cg.n, cg.root, cg.demand_items) == (3, 0, ())
    assert [(e.eid, e.u, e.v) for e in cg.edges] == [(0, 0, 1), (1, 1, 2)]


def test_contract_pair_on_path(path3):
    cg = contract(path3, {0, 1})
    # vertex 1 is base vertex 2, the one kept vertex
    assert (cg.n, cg.root, cg.demand_items) == (2, 0, ())
    assert [(e.eid, e.u, e.v, e.length) for e in cg.edges] == [(1, 0, 1, 1.0)]


def test_contract_reduces_parallel_edges(cycle4):
    cg = contract(cycle4, {0, 2})
    # vertices 1 and 2 are base vertices 1 and 3
    assert (cg.n, cg.root, cg.demand_items) == (3, 0, ())
    # edges 1 and 3 lose their ties to the parallel edges 0 and 2
    assert [(e.eid, e.u, e.v, e.length) for e in cg.edges] == [(0, 0, 1, 1.0), (2, 0, 2, 1.0)]


def test_contract_vertex_filter_restricts(cycle4):
    cg = contract(cycle4, {0}, keep={1})
    assert (cg.n, cg.root, cg.demand_items) == (2, 0, ())
    assert [(e.eid, e.u, e.v) for e in cg.edges] == [(0, 0, 1)]


def test_contract_preserves_lengths_and_counts():
    # vertex k is the k-th kept base id, and every edge keeps its id and
    # length with its ends mapped back, as in the contraction keyed by base id
    rng = random.Random(7)
    for k in range(300):
        if k % 3 == 0:
            g = random_instance(rng)
        else:
            g = _rounding_instance(rng) if k % 3 == 1 else random_instance(rng, n_max=12, max_length=3)
        merged = rng.sample(range(g.n), rng.randint(1, g.n))
        keep = rng.sample(range(g.n), rng.randint(0, g.n)) if k % 2 else None
        cg = contract(g, merged, keep)
        ids, edges = reference_contract(g, merged, keep)
        assert (cg.n, cg.root, cg.demand_items) == (len(ids), 0, ())
        assert [(e.eid, ids[e.u], ids[e.v], e.length) for e in cg.edges] == [
            (e.eid, e.u, e.v, e.length) for e in edges
        ]
        assert len(cg.edges) <= len(g.edges)
        assert all(e.length == g.edge_by_id[e.eid].length for e in cg.edges)


def test_merged_source_matches_contraction():
    rng = random.Random(5)
    for _ in range(200):
        g = random_instance(rng, n_max=9, max_length=3, max_extra_edges=8)
        merged = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        dist, pred = shortest_path_tree(g, merged)
        cdist, cpred = shortest_path_tree(contract(g, merged), 0)
        # contracted vertex k is base[k]: SUPERNODE, then the kept ids ascending
        base = [SUPERNODE, *sorted(set(g.vertex_ids) - merged)]
        for k, v in enumerate(base[1:], start=1):
            assert dist[v] == cdist[k]
            if k in cpred:
                p, eid = cpred[k]
                assert pred[v] == (base[p], eid)
            else:
                assert v not in pred
        assert all(dist[v] == 0.0 and v not in pred for v in merged)


def _assert_same_search(g, source):
    dist, pred = shortest_path_tree(g, source)
    want_dist, want_pred = reference_shortest_path_tree(g, source)
    assert dist == [want_dist[v] for v in g.vertex_ids], source
    assert pred == want_pred, source
    # same settle order
    assert list(pred) == list(want_pred), source


def _rounding_instance(rng):
    """Random graph whose lengths mix 1.0 with 1e-17, which a sum with 1.0
    rounds away, so distinct paths tie on distance and parallel edges tie
    on their sums."""
    n = rng.randint(2, 9)
    edges = [(rng.randrange(v), v, rng.choice((1.0, 1e-17, 2.0))) for v in range(1, n)]
    for _ in range(rng.randint(0, 10)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.choice((1.0, 1e-17, 1.0 + 2**-52))))
    return make_instance(n, edges, 0, {n - 1: 1})


def test_search_matches_reference_from_every_vertex():
    rng = random.Random(23)
    for k in range(300):
        if k % 2:
            g = _rounding_instance(rng)
        else:
            g = random_instance(rng, n_max=12, max_length=3, max_extra_edges=12)
        for v in g.vertex_ids:
            _assert_same_search(g, v)


def test_search_matches_reference_from_merged_sets():
    rng = random.Random(29)
    for k in range(300):
        g = _rounding_instance(rng) if k % 2 else random_instance(rng, n_max=12, max_length=3)
        merged = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        _assert_same_search(g, merged)


def test_search_pops_no_source_member(monkeypatch):
    # the source's members are settled before the heap loop, so none of
    # them is ever pushed, and so none is popped
    popped = []

    def recording(heap):
        entry = heappop(heap)
        popped.append(entry)
        return entry

    monkeypatch.setattr(graph, "heappop", recording)
    rng = random.Random(37)
    for k in range(300):
        g = _rounding_instance(rng) if k % 2 else random_instance(rng, n_max=12, max_length=3)
        merged = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        for source in (merged, rng.randrange(g.n)):
            members = merged if source is merged else {source}
            popped.clear()
            _dist, pred = shortest_path_tree(g, source)
            assert not any(i in members for *_, i in popped), source
            assert len(popped) >= len(pred)


def test_search_matches_reference_on_sa_mid_rent_searches(monkeypatch):
    # every core the seed-1 sa_mid pipeline rents into, searched as one
    # merged source on its n=200 graph: 150 cores of 1 to 52 vertices, each
    # the vertex set of the Steiner core's edges and the root
    (g,) = workload_instances("sa_mid", [1])
    cores = []
    steiner_core = ssrob._steiner_core

    def recording(h, terminals):
        edge_ids, vertices = steiner_core(h, terminals)
        assert vertices == tree_vertices(h.root, map(h.edge_by_id.get, edge_ids))
        cores.append(vertices)
        return edge_ids, vertices

    monkeypatch.setattr(ssrob, "_steiner_core", recording)
    params = optimal_parameters(lambda_descriptor="heuristic(trials=8)", eps=0.1)
    solve_instance(g, params, SampleAugmentSolver(trials=8))
    assert (len(cores), min(map(len, cores)), max(map(len, cores))) == (150, 1, 52)
    for core in set(cores):
        _assert_same_search(g, core)


def test_search_matches_reference_on_contractions():
    rng = random.Random(31)
    for k in range(300):
        g = _rounding_instance(rng) if k % 2 else random_instance(rng, n_max=12, max_length=3)
        merged = rng.sample(range(g.n), rng.randint(1, g.n))
        keep = rng.sample(range(g.n), rng.randint(0, g.n)) if k % 3 == 0 else None
        cg = contract(g, merged, keep)
        for v in cg.vertex_ids:
            _assert_same_search(cg, v)


def test_search_matches_reference_on_parallel_and_rounding_edges():
    g = make_instance(
        4,
        [(0, 1, 1.0), (1, 0, 1.0), (0, 1, 1e-17), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1e-17),
         (1, 3, 1.0), (0, 2, 1.0), (3, 0, 2.0)],
        0,
        {3: 1},
    )
    for source in (*g.vertex_ids, frozenset({0, 1}), frozenset({2})):
        _assert_same_search(g, source)
    for merged in ({0}, {1, 2}):
        cg = contract(g, merged)
        for v in cg.vertex_ids:
            _assert_same_search(cg, v)


def test_search_rejects_what_reference_rejects(path3):
    cg = contract(path3, {1})
    for g, source in ((path3, 7), (path3, -1), (path3, frozenset()), (path3, frozenset({0, 7})),
                      (cg, 3), (cg, SUPERNODE), (cg, frozenset({SUPERNODE, 1}))):
        for search in (shortest_path_tree, reference_shortest_path_tree):
            with pytest.raises(ValueError, match="is not in the graph"):
                search(g, source)


def test_merged_source_rejects_bad_sets(path3):
    for bad in (frozenset(), frozenset({0, 7})):
        with pytest.raises(ValueError):
            shortest_path_tree(path3, bad)


def test_contract_requires_nonempty_set(path3):
    with pytest.raises(ValueError):
        contract(path3, set())


def test_tree_distances():
    # root distances summed down tree_walk's parent links, as verify_last
    # sums them; the walk is breadth-first over the adjacency, so a parent
    # comes before its children, and follows only the edge ids it is given
    g = make_instance(4, [(0, 1, 2), (1, 2, 3), (0, 3, 1)], 0, {1: 1})
    links = tree_walk(g, 0)
    assert list(links.items()) == [(1, (0, 0)), (3, (0, 2)), (2, (1, 1))]
    d = {0: 0.0}
    for v, (parent, eid) in links.items():
        d[v] = d[parent] + g.edge_by_id[eid].length
    assert d == reference_tree_distances(0, g.edges) == {0: 0.0, 1: 2.0, 2: 5.0, 3: 1.0}
    assert tree_walk(g, 0, {0, 1}) == {1: (0, 0), 2: (1, 1)}
    assert tree_walk(g, 2, {1}) == {1: (2, 1)}
    assert tree_walk(g, 3, ()) == {}


def test_determinism_identical_inputs():
    rng1, rng2 = random.Random(11), random.Random(11)
    g1, g2 = random_instance(rng1), random_instance(rng2)
    assert g1 == g2
    assert shortest_path_tree(g1, g1.root) == shortest_path_tree(g2, g2.root)
    assert minimum_spanning_tree(g1) == minimum_spanning_tree(g2)
