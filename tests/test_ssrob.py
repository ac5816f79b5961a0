import math
import random

import numpy as np
import pytest

from onetree import (
    ConfigError,
    ExactSolver,
    OracleLimitError,
    SampleAugmentSolver,
    basis_cost,
    exact_ssrob,
    get_solver,
    make_instance,
    route,
    sample_and_augment,
)
from onetree import ssrob
from onetree.corpus import random_instance
from onetree.graph import tree_order
from onetree.layers import compute_K
from onetree.routing import basis_threshold, compute_flows
from onetree.ssrob import (
    _enumerated_table,
    _flow_table,
    _marked_vertices,
    _rent_paths,
    _root_component,
    _steiner_topologies,
    _table_costs,
    best_tree_for_combination,
)

from helpers import (
    answers_in_both_orders,
    brute_min_cost,
    count_spanning_trees,
    edge_flags,
    edge_id_order,
    flagged_edge_sets,
    oracle_n14_instances,
    reference_frontier_order,
    reference_flow_classes,
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
    # the complete graph on 12 vertices passes the oracle's work budget
    # before it finds a topology
    n = 12
    edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
    g = make_instance(n, edges, 0, {1: 1})
    with pytest.raises(OracleLimitError, match="too large for oracle"):
        exact_ssrob(g, 2.0)


def test_enumeration_covers_every_spanning_tree():
    # every spanning tree, found by subset filtering and routed on its own,
    # falls in the flow class of exactly one row, and that row is the
    # class's smallest edge-id tuple
    rng = random.Random(17)
    for _ in range(10):
        g = random_instance(rng, n_min=3, n_max=6)
        verts, edges = _root_component(g)
        ours = list(flagged_edge_sets(_steiner_topologies(g, verts, edges), edges))
        least: dict[tuple[int, ...], tuple[int, ...]] = {}
        for eids in map(tuple, map(sorted, subset_spanning_trees(g))):
            flows = route(g, eids).flow_map
            key = tuple(flows.get(e.eid, 0) for e in edges)
            least[key] = min(least.get(key, eids), eids)
        assert sorted(ours) == sorted(least.values())
        assert len(ours) <= count_spanning_trees(g)


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
        trees = list(reference_spanning_edge_sets(verts, edges))
        table = _flow_table(g, verts, edges, np.array(edge_flags(trees, edges)))
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
    """Shuffled path, cycle, cycle with pendant trees, complete graph on 5 or
    6 vertices with one parallel edge, or a small random instance from
    _flow_test_instance (lone roots, parallel edges, vertices outside the
    root's component)."""
    if kind == "random":
        return _flow_test_instance(rng)
    if kind == "complete":
        # later edges join k's ends on levels whose frontiers are large
        n = rng.randint(5, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs.append(rng.choice(pairs))
        rng.shuffle(pairs)
        edges = [(u, v, rng.randint(1, 9)) for u, v in pairs]
        return make_instance(n, edges, rng.randrange(n), {rng.randrange(n): 1})
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
    """``count`` small instances of every kind, then a 300-vertex path and a
    6-cycle with a 200-vertex tail, where almost every edge is a bridge."""
    rng = random.Random(9001)
    kinds = ("path", "cycle", "pendant", "complete", "random", "random")
    corpus = [_enumeration_test_instance(rng, kinds[k % len(kinds)]) for k in range(count)]
    path = [(v + 1, v, 1) for v in range(299)]
    tail = [(v, (v + 1) % 6, 1) for v in range(6)] + [(v, v + 1, 1) for v in range(5, 205)]
    return corpus + [make_instance(300, path, 150, {0: 1}), make_instance(206, tail, 205, {0: 2})]


def _check_classes(g):
    """The enumerator's blocks for ``g``, after checking that its rows are
    one per flow class, each the class's smallest edge-id tuple, against the
    depth-first walk's trees grouped by their walked flows."""
    verts, edges = _root_component(g)
    blocks = list(_steiner_topologies(g, verts, edges))
    trees = list(flagged_edge_sets(blocks, edges))
    classes = reference_flow_classes(g, verts, edges)
    assert len(trees) == len(classes) <= count_spanning_trees(g), g
    assert sorted(trees) == sorted(classes.values()), g
    return blocks


def test_enumeration_matches_reference():
    seen = set()
    for g in _enumeration_corpus(500):
        verts, edges = _root_component(g)
        trees = list(flagged_edge_sets(_check_classes(g), edges))
        pairs = [frozenset((e.u, e.v)) for e in edges]
        seen.update(
            name
            for name, present in [
                ("lone root", len(verts) == 1),
                ("outside", len(verts) < g.n),
                ("parallel", len(set(pairs)) < len(pairs)),
                ("bridge", any(all(e.eid in t for t in trees) for e in edges)),
                ("cycle", len(edges) >= len(verts) > 2),
                ("merged classes", len(trees) < count_spanning_trees(g)),
                ("demand at the root only", set(g.demands) & set(verts) <= {g.root}),
            ]
            if present
        )
    assert len(seen) == 7


@pytest.mark.parametrize("limit", [1, 7])
def test_split_enumeration_matches_reference(monkeypatch, limit):
    # a frontier split into blocks of at most `limit` rows keeps every class
    monkeypatch.setattr(ssrob, "_FRONTIER_BLOCK", limit)
    for g in _enumeration_corpus(150):
        assert all(len(flags) <= limit for flags in _check_classes(g)), g


def _combinations(g):
    total = float(g.total_demand)
    return [((1.0,), (1.0,)), ((2.0,), (1.0,)), ((total,), (1.0,)),
            ((1.0, 2.0, total), (0.5, 0.0, 1.25))]


def test_frontier_order_matches_plain_greedy(monkeypatch):
    # the lazy heap gives the order a from-scratch greedy gives, on every
    # component the enumerator sees
    seen = []
    frontier_order = ssrob._frontier_order

    def recorded(n, ends):
        seen.append((n, list(ends), frontier_order(n, ends)))
        return seen[-1][2]

    monkeypatch.setattr(ssrob, "_frontier_order", recorded)
    for g in _enumeration_corpus(150) + oracle_n14_instances([1]):
        list(_steiner_topologies(g, *_root_component(g)))
    assert all(got == reference_frontier_order(n, ends) for n, ends, got in seen)
    assert sum(got != sorted(got) for _n, _ends, got in seen) > 100


def test_edge_order_does_not_change_answers():
    # branching in edge-id order instead gives the same rows, flows and row
    # cost bits, and the same best trees
    corpus = _enumeration_corpus(150) + oracle_n14_instances([1, 2, 3])
    for g in corpus:
        ours, by_id = answers_in_both_orders(g, _combinations(g))
        assert ours == by_id, g


def _full_scan(g, thresholds, coefficients):
    """Best tree by a scan of every spanning tree's row, ties to the smallest ids."""
    verts, edges = _root_component(g)
    trees = list(reference_spanning_edge_sets(verts, edges))
    table = _flow_table(g, verts, edges, np.array(edge_flags(trees, edges)))
    costs = _table_costs(table, thresholds, coefficients)
    return min(table.edge_ids(j) for j in np.flatnonzero(costs == costs.min()))


def test_distinct_rows_scan_matches_full_table():
    # the table of one row per flow class picks the full scan's tree, ties
    # included, for one- and multi-term combinations
    rng = random.Random(7373)
    cut = object_flows = 0
    for k in range(150):
        g = random_instance(rng, n_min=3, n_max=7, max_length=2, max_extra_edges=5)
        if k % 10 == 0:
            # flows beyond int64 make the flow table an object array
            g = make_instance(g.n, [(e.u, e.v, e.length) for e in g.edges], g.root,
                              {v: a * 10**19 for v, a in g.demands.items()})
        tables = _enumerated_table(g)
        cut += sum(len(table.flows) for table in tables) < count_spanning_trees(g)
        object_flows += tables[0].flows.dtype == object
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


@pytest.mark.parametrize("block", [1, 7])
def test_split_tables_scan_matches_one_table(monkeypatch, block):
    # trees split over many cached tables give the one-table answer, ties
    # across tables included; K4 (16 trees) has one optimum, the star at
    # vertex 3, which is enumerated last
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
    monkeypatch.setattr(ssrob, "_FRONTIER_BLOCK", block)
    _enumerated_table.cache_clear()
    try:
        assert solve_all() == table
        assert all(len(kept.columns) <= block for g in corpus for kept in _enumerated_table(g))
    finally:
        _enumerated_table.cache_clear()


def test_budget_counts_branched_cells(monkeypatch):
    # K5 with one demand vertex has 16 flow classes, the simple paths from
    # the root to it, and the enumerator branches 264 frontier rows to find
    # them, 6,395 array cells by the budget's count: each row's 2n+m cells
    # plus n per exclude probe group. Under a smaller budget it stops within
    # one frontier block of it, on every call; at 6,395 it answers,
    # enumerating once for three calls
    spent = []
    enumerations = []
    branch = ssrob._branch
    topologies = ssrob._steiner_topologies

    def counted_branch(rows, n, k, a, b, probe, ending):
        spent.append(len(rows) * (rows.shape[1] + n * len(probe)))
        return branch(rows, n, k, a, b, probe, ending)

    def counted_topologies(*args):
        enumerations.append(args)
        return topologies(*args)

    monkeypatch.setattr(ssrob, "_branch", counted_branch)
    monkeypatch.setattr(ssrob, "_steiner_topologies", counted_topologies)
    monkeypatch.setattr(ssrob, "_FRONTIER_BLOCK", 8)
    g = make_instance(5, [(u, v, 1 + u + v) for u in range(5) for v in range(u + 1, 5)], 0, {4: 3})
    # a block of 8 rows of 2*5+10 cells, with at most 2 probe groups of K5
    block_cells = 8 * (2 * 5 + 10 + 5 * 2)
    _enumerated_table.cache_clear()
    try:
        monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 2000)
        for _ in range(2):
            spent.clear()
            with pytest.raises(OracleLimitError, match="^instance too large for oracle"):
                exact_ssrob(g, 1.0)
            assert 2000 - block_cells < sum(spent) <= 2000
        monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 6395)
        spent.clear()
        enumerations.clear()
        trees = [exact_ssrob(g, m).edge_ids for m in (1.0, 2.0, 3.0)]
        assert sum(len(table.flows) for table in _enumerated_table(g)) == 16
    finally:
        _enumerated_table.cache_clear()
    # the direct edge 3 wins; edges 0..2 complete it to the least tree
    assert trees == [(0, 1, 2, 3)] * 3
    assert len(enumerations) == 1 and sum(spent) == 6395


def test_wide_graph_refused_before_set_up(monkeypatch):
    # K5 branches at least one row of 2n+m = 20 cells at each of its 10
    # edges, 200 cells in all: under a budget of 199 the enumerator refuses
    # before it orders the edges, and at 200 it goes on to order them
    class SetUp(Exception):
        pass

    def no_set_up(*args):
        raise SetUp

    monkeypatch.setattr(ssrob, "_frontier_order", no_set_up)
    g = make_instance(5, [(u, v, 1) for u in range(5) for v in range(u + 1, 5)], 0, {4: 1})
    _enumerated_table.cache_clear()
    try:
        monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 199)
        with pytest.raises(OracleLimitError, match="^instance too large for oracle"):
            exact_ssrob(g, 1.0)
        monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 200)
        with pytest.raises(SetUp):
            exact_ssrob(g, 1.0)
    finally:
        _enumerated_table.cache_clear()


def _sparse_instance(seed: int, n: int = 20, m: int = 32, demand_vertices: int = 6):
    """A random tree rooted at 0, each vertex hung below a smaller one, plus
    random extra edges up to m, with demand on random non-root vertices."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v, rng.randint(1, 9)) for v in range(1, n)]
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(1, 9)))
    demands = {v: rng.randint(1, 5) for v in rng.sample(range(1, n), demand_vertices)}
    return make_instance(n, edges, 0, demands)


def test_frontier_order_answers_what_id_order_refuses(monkeypatch):
    # in edge-id order every extra edge, each closing a cycle, comes after
    # the tree edges, so the connect rule prunes late: this graph takes
    # about 1.2e8 cells that way, past the budget, and 4.4e6 in the greedy
    # order; under a budget raised for it, id order finds the same trees
    g = _sparse_instance(36)
    thresholds = (1.0, 3.0, float(g.total_demand))
    _enumerated_table.cache_clear()
    try:
        ours = [exact_ssrob(g, m) for m in thresholds]
        monkeypatch.setattr(ssrob, "_frontier_order", edge_id_order)
        _enumerated_table.cache_clear()
        with pytest.raises(OracleLimitError, match="^instance too large for oracle"):
            exact_ssrob(g, 1.0)
        monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 2**27)
        by_id = [exact_ssrob(g, m) for m in thresholds]
    finally:
        _enumerated_table.cache_clear()
    for m, got, want in zip(thresholds, ours, by_id):
        assert got.edge_ids == want.edge_ids
        assert basis_cost(got, m) == basis_cost(want, m)


def _cycle_chain(cycles: int):
    """``cycles`` 4-cycles in a row, each joined to the next at one vertex,
    rooted at the first; 5 units of demand where the second cycle ends."""
    edges = []
    for i in range(cycles):
        entry, a, b, leave = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(entry, a, 1 + i % 3), (a, leave, 2), (leave, b, 1 + (i + 1) % 2), (b, entry, 2)]
    return make_instance(3 * cycles + 1, edges, 0, {6: 5})


def test_oracle_answers_many_trees_with_few_topologies():
    # the chain of 12 cycles has 4**12 spanning trees but only the flow
    # classes of its first two cycles; it is answered at the cost of that
    # two-cycle truncation, whose optimum brute force finds
    g, short = _cycle_chain(12), _cycle_chain(2)
    assert count_spanning_trees(g) == 4**12
    for m in (1.0, 2.0, 5.0):
        tree = exact_ssrob(g, m)
        want, want_ids = brute_min_cost(short, lambda t: basis_cost(t, m))
        assert basis_cost(tree, m) == pytest.approx(want, rel=1e-12)
        assert tree.edge_ids[:6] == want_ids


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


def test_sample_augment_ladder_matches_reference():
    # the pipeline's order: every threshold index of one instance, seed + i
    # and 32 trials, so later solves read trial trees memoized by earlier ones
    rng = random.Random(77)
    eps = 0.25
    for k in range(40):
        g = _tie_heavy_instance(rng)
        for i in range(compute_K(g.total_demand, eps) + 1):
            m = basis_threshold(i, eps)
            got = sample_and_augment(g, m, seed=k + i, trials=32)
            want = reference_sample_and_augment(g, m, seed=k + i, trials=32)
            assert got.edge_ids == want.edge_ids, (k, i)


def test_repeated_marked_sets_route_once(monkeypatch):
    # 32 trials over three demand vertices mark at most 8 sets per
    # threshold: each distinct set gets one core and one route per instance
    g = make_instance(
        6,
        [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 0, 2), (1, 4, 3)],
        0,
        {2: 3, 4: 1, 5: 6},
    )
    calls = {"route": 0, "core": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ssrob, "route", counted("route", ssrob.route))
    monkeypatch.setattr(ssrob, "_steiner_core_edges", counted("core", ssrob._steiner_core_edges))
    marked = {frozenset(v for v, _ in g.demand_items)}
    sample_and_augment(g, 1.0, seed=5, trials=32)
    for i, m in enumerate((1.5, 2.0, 3.0, 5.0), start=1):
        sample_and_augment(g, m, seed=5 + i, trials=32)
        marked |= {
            frozenset(reference_marking(g, random.Random(5 + i + t), 1.0 / m)) for t in range(32)
        }
    assert len(marked) > 1
    assert calls == {"route": len(marked), "core": len(marked)}
    assert len(g.trial_trees) == len(marked)


def _chances(g, p):
    return [-math.expm1(amount * math.log1p(-p)) for _v, amount in g.demand_items]


def test_marking_takes_one_draw_per_vertex():
    # the memoized draws mark what the plain per-vertex loop marks, and both
    # take exactly one draw per demand vertex from the seed's stream
    g = make_instance(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], 0, {1: 1, 2: 40, 3: 7})
    for seed in range(50):
        stream = random.Random(seed)
        first = tuple(stream.random() for _ in g.demand_items)
        for p in (0.01, 0.1, 0.5):
            theirs = random.Random(seed)
            assert _marked_vertices(g, seed, _chances(g, p)) == reference_marking(g, theirs, p)
            assert theirs.getstate() == stream.getstate()
        assert g.unit_draws[seed] == first


def test_marking_frequency_matches_unit_marking():
    # a vertex with `amount` units each marked with chance p has a marked
    # unit with chance 1 - (1 - p)^amount; over fixed seeds the per-vertex
    # draw must hit that rate within 4 standard deviations
    amounts = {1: 1, 2: 7, 3: 40}
    g = make_instance(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], 0, amounts)
    runs = 20_000
    for p in (0.01, 0.1, 0.5):
        chances = _chances(g, p)
        hits = dict.fromkeys(amounts, 0)
        for seed in range(runs):
            for v in _marked_vertices(g, seed, chances):
                hits[v] += 1
        for v, amount in amounts.items():
            want = 1.0 - (1.0 - p) ** amount
            sigma = math.sqrt(want * (1.0 - want) / runs)
            assert abs(hits[v] / runs - want) <= 4.0 * sigma, (p, amount, hits[v])


def test_rent_paths_search_from_core_vertex_set(monkeypatch):
    searches = []
    search = ssrob.shortest_path_tree

    def counted(g, source):
        searches.append(source)
        return search(g, source)

    monkeypatch.setattr(ssrob, "shortest_path_tree", counted)
    g = make_instance(4, [(0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 3, 1), (0, 3, 5)], 0, {2: 1, 3: 2})
    # either parallel edge buys the core vertex set {0, 1}, searched as one
    # merged source, so both give the same rent paths
    assert _rent_paths(g, frozenset({0})) == {2, 3}
    assert _rent_paths(g, frozenset({1})) == {2, 3}
    assert searches == [frozenset({0, 1})] * 2


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
