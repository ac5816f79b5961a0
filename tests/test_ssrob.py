import random

import numpy as np
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
from onetree.graph import tree_order
from onetree.routing import compute_flows
from onetree.ssrob import (
    _enumerated_table,
    _flow_table,
    _marked_vertices,
    _rent_paths,
    _root_component,
    _spanning_edge_sets,
    _table_costs,
    _unit_minima,
    best_tree_for_combination,
)

from helpers import (
    brute_min_cost,
    reference_marking,
    reference_sample_and_augment,
    reference_spanning_edge_sets,
    subset_spanning_trees,
)


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
    rng = random.Random(17)
    for _ in range(10):
        g = random_instance(rng, n_min=3, n_max=6)
        verts, edges = _root_component(g)
        ours = set(_spanning_edge_sets(verts, edges))
        independent = {tuple(sorted(s)) for s in subset_spanning_trees(g)}
        assert ours == independent
        assert len(ours) == count_spanning_trees(g)


def _flow_test_instance(rng: random.Random):
    """Small instance whose root component may be the root alone, with
    parallel edges, demand at the root and demand outside the component."""
    n = rng.randint(1, 7)
    inside = rng.randint(1, n)
    edges = [(rng.randrange(v), v, rng.randint(1, 3)) for v in range(1, inside)]
    for _ in range(rng.randint(0, 4) if inside > 1 else 0):
        u, v = rng.sample(range(inside), 2)
        edges.append((u, v, rng.randint(1, 3)))
    for _ in range(rng.randint(0, 2) if inside > 1 else 0):
        edges.append(rng.choice(edges))
    if n - inside >= 2:
        edges.append((inside, n - 1, 1))
    rng.shuffle(edges)
    demands = {v: rng.randint(1, 5) for v in rng.sample(range(n), rng.randint(1, n))}
    if rng.random() < 0.2:
        demands[rng.randrange(n)] = 3_000_000_000  # flows beyond int32
    return make_instance(n, edges, rng.randrange(inside), demands)


def test_flow_table_matches_tree_walk():
    # every row's peeled flows equal the per-tree walk's, column by column
    rng = random.Random(5150)
    seen = set()
    for _ in range(300):
        g = _flow_test_instance(rng)
        verts, edges = _root_component(g)
        trees = list(_spanning_edge_sets(verts, edges))
        table = _flow_table(g, verts, edges, iter(trees))
        assert [table.edge_ids(j) for j in range(len(trees))] == trees
        assert table.flows.shape == (len(trees), len(edges))
        for eids, flows in zip(trees, table.flows.tolist()):
            walk = compute_flows(tree_order(g.root, [g.edge_by_id[i] for i in eids]), g.demands)
            assert flows == [walk.get(e.eid, 0) for e in edges], (g, eids)
        pairs = [frozenset((e.u, e.v)) for e in edges]
        seen.update(
            name
            for name, present in [
                ("lone root", len(verts) == 1),
                ("root demand", g.root in g.demands),
                ("outside", len(verts) < g.n),
                ("parallel", len(set(pairs)) < len(pairs)),
                ("beyond int32", table.flows.max(initial=0) > 2**31),
            ]
            if present
        )
    assert len(seen) == 5


def _enumeration_test_instance(rng: random.Random, kind: str):
    """Shuffled path, cycle, cycle with pendant trees, or a small random
    instance from _flow_test_instance (lone roots, parallel edges, vertices
    outside the root's component)."""
    if kind == "random":
        return _flow_test_instance(rng)
    n = rng.randint(2, 9)
    if kind == "path":
        pairs = [(v, v + 1) for v in range(n - 1)]
    elif kind == "cycle":
        pairs = [(v, (v + 1) % n) for v in range(n)]
    else:
        core = rng.randint(2, n)
        pairs = [(v, (v + 1) % core) for v in range(core)]
        pairs += [(rng.randrange(v), v) for v in range(core, n)]
    name = list(range(n))
    rng.shuffle(name)
    rng.shuffle(pairs)
    edges = [(name[u], name[v], 1) for u, v in pairs]
    return make_instance(n, edges, rng.randrange(n), {rng.randrange(n): 1})


def _enumeration_corpus(count: int):
    rng = random.Random(9001)
    kinds = ("path", "cycle", "pendant", "random", "random")
    return [_enumeration_test_instance(rng, kinds[k % len(kinds)]) for k in range(count)]


def test_enumeration_matches_reference():
    # the level-by-level enumerator yields the depth-first walk's trees in
    # the walk's own order
    seen = set()
    for g in _enumeration_corpus(500):
        verts, edges = _root_component(g)
        trees = list(_spanning_edge_sets(verts, edges))
        assert trees == list(reference_spanning_edge_sets(verts, edges)), g
        assert len(trees) == count_spanning_trees(g)
        pairs = [frozenset((e.u, e.v)) for e in edges]
        seen.update(
            name
            for name, present in [
                ("lone root", len(verts) == 1),
                ("outside", len(verts) < g.n),
                ("parallel", len(set(pairs)) < len(pairs)),
                ("bridge", any(all(e.eid in t for t in trees) for e in edges)),
                ("cycle", len(edges) >= len(verts) > 2),
            ]
            if present
        )
    assert len(seen) == 5


@pytest.mark.parametrize("limit", [1, 7])
def test_split_enumeration_matches_reference(monkeypatch, limit):
    # a frontier split into blocks of at most `limit` rows keeps the order
    monkeypatch.setattr(ssrob, "_TABLE_LIMIT", limit)
    for g in _enumeration_corpus(150):
        verts, edges = _root_component(g)
        trees = list(_spanning_edge_sets(verts, edges))
        assert trees == list(reference_spanning_edge_sets(verts, edges)), g


def _full_scan(g, thresholds, coefficients):
    """Best tree by a scan of every enumerated row, ties to the smallest ids."""
    verts, edges = _root_component(g)
    table = _flow_table(g, verts, edges, _spanning_edge_sets(verts, edges))
    costs = _table_costs(table, thresholds, coefficients)
    return min(table.edge_ids(j) for j in np.flatnonzero(costs == costs.min()))


def test_distinct_rows_scan_matches_full_table():
    # the table cut to distinct flow vectors picks the full scan's tree,
    # ties included, for one- and multi-term combinations
    rng = random.Random(7373)
    cut = object_flows = 0
    for k in range(150):
        g = random_instance(rng, n_min=3, n_max=7, max_length=2, max_extra_edges=5)
        if k % 10 == 0:
            # flows beyond int64 make the flow table an object array
            g = make_instance(g.n, [(e.u, e.v, e.length) for e in g.edges], g.root,
                              {v: a * 10**19 for v, a in g.demands.items()})
        table = _enumerated_table(g)
        cut += len(table.flows) < count_spanning_trees(g)
        object_flows += table.flows.dtype == object
        total = float(g.total_demand)
        for thresholds, coefficients in [
            ((1.0,), (1.0,)),
            ((total,), (1.0,)),
            ((2.0,), (1.0,)),
            ((1.0, 2.0, total), (0.5, 0.0, 1.25)),
            ((1.0, 3.0), (rng.random(), rng.random())),
        ]:
            got = best_tree_for_combination(g, thresholds, coefficients).edge_ids
            assert got == _full_scan(g, thresholds, coefficients), (k, thresholds)
    assert cut > 50 and object_flows == 15


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


def _tie_heavy_instance(rng: random.Random):
    """Random instance with lengths 1..3 and at least one parallel edge."""
    g = random_instance(
        rng, n_max=9, max_length=3, max_extra_edges=6, max_demand_vertices=5, max_total_demand=14
    )
    triples = [(e.u, e.v, e.length) for e in g.edges]
    for _ in range(rng.randint(1, 3)):
        u, v, _ = rng.choice(triples)
        triples.append((u, v, float(rng.randint(1, 3))))
    return make_instance(g.n, triples, g.root, g.demands)


def test_sample_augment_matches_reference():
    # memoized terminal trees, merged-source rent paths and the C-level
    # marking draw must pick the very trees of the plain algorithm
    rng = random.Random(2024)
    for k in range(300):
        g = _tie_heavy_instance(rng)
        total = g.total_demand
        for m in (1.0, 1.5, 2.0, 3.7, max(1.0, total / 2), float(total)):
            got = sample_and_augment(g, m, seed=k, trials=4)
            want = reference_sample_and_augment(g, m, seed=k, trials=4)
            assert got.edge_ids == want.edge_ids, (k, m)


def test_marking_takes_one_draw_per_unit():
    # marking by the memoized least draws marks what the per-unit loop does,
    # and taking those draws leaves the rng where the loop leaves it
    g = make_instance(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], 0, {1: 1, 2: 40, 3: 7})
    for seed in range(50):
        for p in (0.01, 0.1, 0.5):
            ours, theirs = random.Random(seed), random.Random(seed)
            _unit_minima(g, ours)
            assert _marked_vertices(g, seed, p) == reference_marking(g, theirs, p)
            assert ours.getstate() == theirs.getstate()


def test_repeated_core_searches_once(monkeypatch):
    searches = []
    search = ssrob.shortest_path_tree

    def counted(g, source):
        searches.append(source)
        return search(g, source)

    monkeypatch.setattr(ssrob, "shortest_path_tree", counted)
    g = make_instance(4, [(0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 3, 1), (0, 3, 5)], 0, {2: 1, 3: 2})
    assert _rent_paths(g, frozenset({0})) == {2, 3}
    # the parallel edge buys the same core vertex set {0, 1}
    assert _rent_paths(g, frozenset({1})) == {2, 3}
    assert _rent_paths(g, frozenset({0})) == {2, 3}
    assert searches == [frozenset({0, 1})]


def test_rent_paths_name_single_vertex_core_supernode():
    # core {root = 3}: vertex 0 is at distance 2 both over edge 3 and through
    # vertex 1; named SUPERNODE (-1) the core wins that predecessor tie and
    # edge 3 is picked, named by its own id 3 it would lose to vertex 1 (edge 0)
    edges = [(0, 1, 1), (1, 2, 3), (2, 3, 3), (0, 3, 2), (1, 3, 3), (3, 2, 1), (0, 2, 3),
             (1, 3, 1), (3, 1, 3)]
    g = make_instance(4, edges, 3, {0: 15, 1: 31, 3: 27})
    assert _rent_paths(g, frozenset()) == {3, 7}


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
