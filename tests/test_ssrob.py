import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from onetree import (
    ConfigError,
    ExactSolver,
    InstanceError,
    InvalidTreeError,
    OracleLimitError,
    SampleAugmentSolver,
    basis_cost,
    exact_ssrob,
    get_solver,
    make_instance,
    optimal_parameters,
    route,
    sample_and_augment,
    shortest_path_tree,
)
from onetree import ssrob
from onetree.cli import solve_instance
from onetree.graph import minimum_spanning_forest, tree_vertices
from onetree.layers import compute_K
from onetree.routing import basis_threshold
from onetree.ssrob import (
    _marked_vertices,
    _rent_paths,
    _root_component,
    best_tree_for_combination,
)

from corpus import random_instance
from helpers import (
    basis_grid,
    brute_min_cost,
    count_spanning_trees,
    exact_cost,
    least_exact_cost,
    reference_flow_classes,
    reference_marking,
    reference_sample_and_augment,
    subset_spanning_trees,
    workload,
    workload_instances,
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
    # every 3-edge tree costs 3, and the first minimum in the DP's scan order
    # wins: at the root, the send from the root itself (the least vertex id),
    # then the split that sends terminal 1 alone (the part holding the least
    # terminal with the smallest bitmask); terminals 2 and 3 join at 3
    assert t.edge_ids == (0, 2, 3)


def test_exact_prefers_star_for_large_threshold(triangle_cheap_root):
    t = exact_ssrob(triangle_cheap_root, 10.0)
    assert t.edge_ids == (0, 1)
    assert basis_cost(t, 10.0) == 2.0


def test_exact_matches_independent_subset_oracle():
    rng = random.Random(404)
    for _ in range(20):
        g = random_instance(rng, n_min=3, n_max=5)
        for m in (1.0, 2.0, 3.5):
            got = exact_cost(exact_ssrob(g, m), (m,), (1.0,))
            want, _ = brute_min_cost(g, lambda t: exact_cost(t, (m,), (1.0,)))
            assert got == want


def test_exact_oracle_guard():
    # 20 demand vertices on a path of 21 take 3^20·21 cells, past the budget
    path = [(v, v + 1, 1) for v in range(20)]
    with pytest.raises(OracleLimitError, match="too large for oracle"):
        exact_ssrob(make_instance(21, path, 0, {v: 1 for v in range(1, 21)}), 2.0)
    # K_12 with one demand vertex takes 3·12 + 2·12² cells: the direct edge,
    # completed by the rest of the star at the root
    n = 12
    g = make_instance(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)], 0, {1: 1})
    assert exact_ssrob(g, 2.0).edge_ids == tuple(range(n - 1))


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



def _combinations(g):
    total = float(g.total_demand)
    return [((1.0,), (1.0,)), ((2.0,), (1.0,)), ((total,), (1.0,)),
            ((1.0, 2.0, total), (0.5, 0.0, 1.25))]


def _flows(g, tree):
    """``tree``'s flow on each edge of the root's component."""
    return tuple(tree.flow_map.get(e.eid, 0) for e in _root_component(g)[1])


def _spans_demand(g):
    return set(g.demands) <= set(_root_component(g)[0])


def _check_oracle(g, combinations):
    """The reference flow classes of ``g``, after checking that for each
    (thresholds, coefficients) pair the oracle's tree is the least tree of
    its flow class and costs exactly the least cost of any class."""
    verts, edges = _root_component(g)
    classes = reference_flow_classes(g, verts, edges)
    least = [route(g, eids) for eids in classes.values()]
    for thresholds, coefficients in combinations:
        tree = best_tree_for_combination(g, thresholds, coefficients)
        assert classes[_flows(g, tree)] == tree.edge_ids, (g, thresholds)
        want = least_exact_cost(least, thresholds, coefficients)
        assert exact_cost(tree, thresholds, coefficients) == want, (g, thresholds)
    return classes


def test_oracle_flows_match_tree_walk():
    # on small instances with lone roots, demand at the root, vertices and
    # demand outside the root's component, parallel edges and flows beyond
    # int32, the oracle's tree carries the walked flows of a reference flow
    # class, is that class's least tree and costs exactly the least of any
    # class; demand outside the root's component cannot be spanned
    rng = random.Random(5150)
    seen = set()
    for _ in range(300):
        g = _flow_test_instance(rng)
        verts, edges = _root_component(g)
        if _spans_demand(g):
            _check_oracle(g, _combinations(g))
        else:
            with pytest.raises(InvalidTreeError, match="demand vertex not spanned"):
                exact_ssrob(g, 2.0)
        pairs = [frozenset((e.u, e.v)) for e in edges]
        seen.update(
            name
            for name, present in [
                ("lone root", len(verts) == 1),
                ("root demand", g.root in g.demands),
                ("outside", not _spans_demand(g)),
                ("parallel", len(set(pairs)) < len(pairs)),
                ("beyond int32", _spans_demand(g) and g.total_demand > 2**31),
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



def test_enumeration_matches_reference():
    # the oracle against the reference walk of every spanning tree, grouped
    # into flow classes: paths, cycles, cycles with pendant trees, complete
    # graphs with a parallel edge, small random instances and two long
    # graphs of bridges
    seen = set()
    for g in _enumeration_corpus(500):
        if not _spans_demand(g):
            continue
        verts, edges = _root_component(g)
        trees = list(_check_oracle(g, _combinations(g)).values())
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
                ("demand at the root only", set(g.demands) <= {g.root}),
            ]
            if present
        )
    assert len(seen) == 7


def _count_dp_blocks(monkeypatch) -> dict[str, int]:
    """Patch the subset DP to count, over every solve, the blocks its split
    and its send steps write beyond one per subset size: each block is one
    ``np.minimum.reduce`` into a slice of G (split) or of F (send)."""
    extra = {"split": 0, "send": 0}
    outs = []
    reduce = np.minimum.reduce

    def recorded(x, axis, out):
        outs.append(out)
        return reduce(x, axis=axis, out=out)

    class Minimum:
        __call__ = staticmethod(np.minimum)
        reduce = staticmethod(recorded)

    class Numpy:
        minimum = Minimum()

        def __getattr__(self, name):
            return getattr(np, name)

    dp = ssrob._subset_dp

    def counted(w, dist_t, starts):
        outs.clear()
        F, G = dp(w, dist_t, starts)
        extra["split"] += sum(out.base is G for out in outs) - max(0, len(starts) - 1)
        extra["send"] += sum(out.base is F for out in outs) - len(starts)
        return F, G

    monkeypatch.setattr(ssrob, "np", Numpy())
    monkeypatch.setattr(ssrob, "_subset_dp", counted)
    return extra


@pytest.mark.parametrize("limit", [1, 7])
def test_split_enumeration_matches_reference(monkeypatch, limit):
    # the DP split into blocks of at most `limit` array cells (one set and
    # one destination column a block where a set's splits alone pass it)
    # still matches the reference; both its steps do run in several blocks
    monkeypatch.setattr(ssrob, "_DP_BLOCK", limit)
    extra = _count_dp_blocks(monkeypatch)
    for g in _enumeration_corpus(150):
        if _spans_demand(g):
            _check_oracle(g, _combinations(g))
    assert extra["split"] > 0 and extra["send"] > 0


def test_edge_order_does_not_change_answers():
    # renumbering the edges (a shuffled edge list) changes no exact optimum,
    # on the corpus and the oracle_n14 graphs; only where flow classes tie
    # may it pick another tree
    rng = random.Random(31337)
    for g in _enumeration_corpus(150) + workload_instances("oracle_n14", [1, 2, 3]):
        if not _spans_demand(g):
            continue
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        h = make_instance(g.n, [(e.u, e.v, e.length) for e in shuffled], g.root, g.demands)
        for combination in _combinations(g):
            ours = exact_cost(best_tree_for_combination(g, *combination), *combination)
            theirs = exact_cost(best_tree_for_combination(h, *combination), *combination)
            assert ours == theirs, g


def test_oracle_matches_full_scan():
    # every spanning tree, found by subset filtering and routed on its own,
    # costs at least the oracle's tree, exactly, for one- and multi-term
    # combinations, and the oracle's tree is the least of the trees with its
    # flows. One instance in ten has its demands and thresholds scaled by
    # 2^64, past int64; a power of two scales every float step exactly
    rng = random.Random(7373)
    cut = 0
    for k in range(150):
        g = random_instance(rng, n_min=3, n_max=7, max_length=2, max_extra_edges=5)
        scale = 2**64 if k % 10 == 0 else 1
        if scale > 1:
            g = make_instance(g.n, [(e.u, e.v, e.length) for e in g.edges], g.root,
                              {v: a * scale for v, a in g.demands.items()})
        trees = [route(g, eids) for eids in subset_spanning_trees(g)]
        cut += len({_flows(g, t) for t in trees}) < len(trees)
        total = float(g.total_demand)
        for thresholds, coefficients in [
            ((1.0 * scale,), (1.0,)),
            ((total,), (1.0,)),
            ((2.0 * scale,), (1.0,)),
            ((1.0 * scale, 2.0 * scale, total), (0.5, 0.0, 1.25)),
            ((1.0 * scale, 3.0 * scale), (rng.random(), rng.random())),
        ]:
            got = best_tree_for_combination(g, thresholds, coefficients)
            want = least_exact_cost(trees, thresholds, coefficients)
            assert exact_cost(got, thresholds, coefficients) == want, (k, thresholds)
            same = [t.edge_ids for t in trees if _flows(g, t) == _flows(g, got)]
            assert got.edge_ids == min(same), (k, thresholds)
    assert cut > 50


def test_enumeration_covers_every_spanning_tree():
    # every spanning tree, found by subset filtering and routed on its own,
    # falls in the flow class of exactly one reference row, and that row is
    # the class's smallest edge-id tuple; the oracle's tree costs exactly no
    # more than any of them
    rng = random.Random(17)
    for _ in range(10):
        g = random_instance(rng, n_min=3, n_max=6)
        classes = _check_oracle(g, _combinations(g))
        least: dict[tuple[int, ...], tuple[int, ...]] = {}
        trees = [route(g, eids) for eids in map(tuple, map(sorted, subset_spanning_trees(g)))]
        for tree in trees:
            least[_flows(g, tree)] = min(least.get(_flows(g, tree), tree.edge_ids), tree.edge_ids)
        assert least == classes
        assert len(classes) <= count_spanning_trees(g) == len(trees)
        for thresholds, coefficients in _combinations(g):
            got = exact_cost(best_tree_for_combination(g, thresholds, coefficients),
                             thresholds, coefficients)
            assert all(got <= exact_cost(t, thresholds, coefficients) for t in trees)


def test_distinct_rows_scan_matches_full_table():
    # a scan of one least tree per flow class finds the least exact cost of
    # a scan of every spanning tree, and the oracle's tree costs exactly that
    # and is the least tree of its class, for one- and multi-term
    # combinations; one instance in ten has demands scaled by 10^19, so its
    # flows pass int64
    rng = random.Random(2718)
    cut = beyond_int64 = 0
    for k in range(60):
        g = random_instance(rng, n_min=3, n_max=7, max_length=2, max_extra_edges=5)
        if k % 10 == 0:
            g = make_instance(g.n, [(e.u, e.v, e.length) for e in g.edges], g.root,
                              {v: a * 10**19 for v, a in g.demands.items()})
        verts, edges = _root_component(g)
        rows = [route(g, eids) for eids in reference_flow_classes(g, verts, edges).values()]
        trees = [route(g, eids) for eids in subset_spanning_trees(g)]
        cut += len(rows) < len(trees)
        beyond_int64 += g.total_demand > 2**63
        total = float(g.total_demand)
        for thresholds, coefficients in [
            ((1.0,), (1.0,)),
            ((total,), (1.0,)),
            ((2.0,), (1.0,)),
            ((1.0, 2.0, total), (0.5, 0.0, 1.25)),
            ((1.0, 3.0), (rng.random(), rng.random())),
        ]:
            want = least_exact_cost(trees, thresholds, coefficients)
            assert least_exact_cost(rows, thresholds, coefficients) == want, (k, thresholds)
            got = best_tree_for_combination(g, thresholds, coefficients)
            assert exact_cost(got, thresholds, coefficients) == want, (k, thresholds)
            same = [t.edge_ids for t in rows if _flows(g, t) == _flows(g, got)]
            assert same == [got.edge_ids], (k, thresholds)
    assert cut > 20 and beyond_int64 == 6


@pytest.mark.parametrize("block", [1, 7])
def test_split_tables_scan_matches_one_table(monkeypatch, block):
    # the DP's tables filled in blocks of at most `block` cells give the
    # answers of one block per size, ties included, and both steps do run in
    # several blocks; K4 (16 trees) has one optimum, the star at vertex 3.
    # Each pass solves fresh, equal instances, since an instance keeps its
    # answers by weights and would not run the blocked DP again
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
            for g in map(_fresh, corpus)
        ]

    table = solve_all()
    assert table[0][0] == [(2, 4, 5)] * 3
    monkeypatch.setattr(ssrob, "_DP_BLOCK", block)
    extra = _count_dp_blocks(monkeypatch)
    assert solve_all() == table
    assert extra["split"] > 0 and extra["send"] > 0


def _k5(demands):
    """K5 with edge u-v of length 1 + u + v, rooted at 0."""
    return make_instance(5, [(u, v, 1 + u + v) for u in range(5) for v in range(u + 1, 5)], 0,
                         demands)


def test_budget_counts_dp_cells(monkeypatch):
    # K5 with one demand vertex has 5 branch vertices, so 3·5 + 2·5² = 65
    # cells: under a budget of 64 it is refused on every call, and at 65 it
    # is answered, the direct edge 3 completed by edges 0..2. A 1500-vertex
    # path has two branch vertices, its root and its one terminal: 14 cells
    g = _k5({4: 3})
    monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 64)
    for _ in range(2):
        with pytest.raises(
            OracleLimitError,
            match="^instance too large for oracle: its subset DP takes 65 array cells, over 64$",
        ):
            exact_ssrob(g, 1.0)
    monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 65)
    assert [exact_ssrob(g, m).edge_ids for m in (1.0, 2.0, 3.0)] == [(0, 1, 2, 3)] * 3
    path = make_instance(1500, [(v, v + 1, 1) for v in range(1499)], 0, {1499: 1})
    monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 13)
    with pytest.raises(OracleLimitError, match="takes 14 array cells"):
        exact_ssrob(path, 1.0)
    monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 14)
    assert exact_ssrob(path, 1.0).edge_ids == tuple(range(1499))


def test_wide_graph_refused_before_set_up(monkeypatch):
    # the budget is checked before any shortest-path search and any table:
    # one cell short of K5's 65, the oracle refuses without a search, and at
    # 65 it goes on to search
    class SetUp(Exception):
        pass

    def no_set_up(*args):
        raise SetUp

    monkeypatch.setattr(ssrob, "shortest_path_tree", no_set_up)
    monkeypatch.setattr(ssrob, "_subset_dp", no_set_up)
    g = _k5({4: 1})
    monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 64)
    with pytest.raises(OracleLimitError, match="^instance too large for oracle"):
        exact_ssrob(g, 1.0)
    monkeypatch.setattr(ssrob, "ORACLE_CELL_BUDGET", 65)
    with pytest.raises(SetUp):
        exact_ssrob(g, 1.0)


def test_dropped_instance_is_collected():
    # the set-up, distance matrix included, is kept on its own instance: an
    # equal instance does not share it, and dropping the instance frees it
    g = _k5({3: 2, 4: 1})
    exact_ssrob(g, 1.0)
    assert g.oracle_setup and not _k5({3: 2, 4: 1}).oracle_setup
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_cycle_in_the_path_union_is_cancelled(monkeypatch):
    # on this 2x3 grid of unit edges at threshold 8, the DP's winning sends,
    # expanded into shortest paths, close a cycle; pushing flow around it to
    # the cheaper end leaves a tree of exactly the least cost of any
    closed = []
    first_cycle = ssrob._first_cycle

    def recorded(g, eids):
        closed.append(first_cycle(g, eids))
        return closed[-1]

    monkeypatch.setattr(ssrob, "_first_cycle", recorded)
    edges = [(0, 1, 1), (0, 3, 1), (1, 2, 1), (1, 4, 1), (2, 5, 1), (3, 4, 1), (4, 5, 1)]
    g = make_instance(6, edges, 5, {0: 1, 1: 6, 2: 8, 3: 6, 4: 6, 5: 8})
    tree = exact_ssrob(g, 8.0)
    assert closed[0] and not closed[-1]
    want, _ = brute_min_cost(g, lambda t: exact_cost(t, (8.0,), (1.0,)))
    assert exact_cost(tree, (8.0,), (1.0,)) == want


def test_one_way_cycle_is_cancelled_to_its_bounded_end():
    # every edge of the triangle runs with the cycle, so only a push against
    # it is bounded, and that push empties all three edges. In the exact
    # solve, the winning sends close such a cycle at threshold 0
    g = make_instance(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], 0, {1: 1})
    assert ssrob._acyclic_support(g, {0: 1, 1: 1, 2: 1}, lambda x: x) == frozenset()
    edges = [(0, 1, 1), (1, 2, 1), (0, 3, 3), (0, 4, 1), (0, 2, 2), (2, 3, 1)]
    g = make_instance(5, edges, 3, {0: 1, 1: 1, 2: 1})
    tree = exact_ssrob(g, 0.0)
    assert len(tree.edge_ids) == 4 and basis_cost(tree, 0.0) == 0.0


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



def test_oracle_answers_sparse_graphs():
    # 60 seeded graphs with n=20, m=32 and 6 demand vertices are all
    # answered. At the total demand every unit takes a shortest path to the
    # root, and at other thresholds no sample-and-augment tree costs less
    for seed in range(60):
        g = _sparse_instance(seed)
        total = float(g.total_demand)
        dist = shortest_path_tree(g, g.root)[0]
        want = sum(amount * Fraction(dist[v]) for v, amount in g.demand_items)
        assert exact_cost(exact_ssrob(g, total), (total,), (1.0,)) == want
        for m in (1.0, 3.0):
            heuristic = sample_and_augment(g, m, seed=seed, trials=8)
            assert exact_cost(exact_ssrob(g, m), (m,), (1.0,)) <= exact_cost(heuristic, (m,), (1.0,))


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


@pytest.mark.parametrize("name", ["sa_mid", "huge_demand", "oracle_n14"])
def test_sample_augment_workload_ladders_match_reference(name):
    # every threshold of a workload's seed-1 ladder, solved in the
    # pipeline's order with its seeds and trials, gives the reference's tree;
    # the reference keeps no memo and joins its core by a sorted Kruskal
    # closure, an independent check of the memos and of the Prim closure
    w = workload(name)
    for g in workload_instances(name, [1]):
        for i, m in enumerate(basis_grid(g, w.eps)):
            got = sample_and_augment(g, m, seed=i, trials=w.trials)
            want = reference_sample_and_augment(g, m, seed=i, trials=w.trials)
            assert got.edge_ids == want.edge_ids, (name, i)


def test_certain_marking_draws_no_stream():
    # with 60 and 90 units every chance 1 - (1 - 1/M)^amount rounds to 1.0 at
    # M = 2, and every draw lies in [0, 1): each trial would mark both demand
    # vertices, so no stream is drawn and the tree is threshold 1's
    edges = [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 0, 1), (1, 3, 2)]
    g = make_instance(4, edges, 0, {1: 60, 2: 90})

    def certain(m):
        return all(-math.expm1(a * math.log1p(-1.0 / m)) == 1.0 for _v, a in g.demand_items)

    assert certain(2.0)
    tree = sample_and_augment(g, 2.0, trials=4)
    assert g.unit_draws == {}
    assert tree is sample_and_augment(g, 1.0)
    # the least threshold of the ladder 1.25^i with a chance below 1 draws
    # one stream per trial
    i = next(i for i in range(1, 100) if not certain(1.25**i))
    assert 1.25**i < g.total_demand
    sample_and_augment(g, 1.25 ** (i - 1), seed=i - 1, trials=4)
    assert g.unit_draws == {}
    sample_and_augment(g, 1.25**i, seed=i, trials=4)
    assert sorted(g.unit_draws) == [i, i + 1, i + 2, i + 3]


def test_huge_demand_streams_drawn_do_not_grow_with_total_demand():
    # the huge_demand graph with its demand scaled by 100: K grows by 48
    # thresholds, but the new ones are all certain to mark every demand
    # vertex, so the pipeline draws the same 61 streams
    w = workload("huge_demand")
    params = optimal_parameters(lambda_descriptor=f"heuristic(trials={w.trials})", eps=w.eps)
    counts = []
    for total in (3 * 10**5, 3 * 10**7):
        (g,) = workload_instances("huge_demand", [1], total_demand=total)
        res = solve_instance(g, params, SampleAugmentSolver(trials=w.trials))
        counts.append((res.layers.top_index, len(g.unit_draws)))
    assert counts == [(133, 61), (181, 61)]


def test_disconnected_terminals_are_refused():
    # demand vertex 3 lies off the root's component, so the core over every
    # demand vertex finds a pair of terminals with no path between them
    g = make_instance(4, [(0, 1, 1), (2, 3, 1)], 0, {1: 1, 3: 1})
    with pytest.raises(InstanceError, match=r"^terminals \d+ and \d+ are not connected$"):
        sample_and_augment(g, 1.0)


def test_disconnected_rent_demand_is_refused():
    # demand vertex 3 lies off the root's component and is almost never
    # marked (chance 1e-5), so the trials rent for it: its own tree reaches
    # no core vertex, it bounds nothing, and the bounded search from the core
    # leaves it unreachable, also when a demand vertex after it is reachable
    message = r"^disconnected demand: vertex 3 is unreachable from the root$"
    for n, edges, demands in (
        (4, [(0, 1, 1), (2, 3, 1)], {1: 10**6, 3: 1}),
        (5, [(0, 1, 1), (2, 3, 1), (1, 4, 2)], {1: 10**6, 3: 1, 4: 1}),
    ):
        g = make_instance(n, edges, 0, demands)
        with pytest.raises(InstanceError, match=message):
            sample_and_augment(g, 10.0**5, seed=0, trials=4)
        assert 3 in g.source_trees  # the rent bound read its tree
        with pytest.raises(InstanceError, match=message):
            _rent_paths(g, frozenset({0, 1}))


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
    monkeypatch.setattr(ssrob, "_steiner_core", counted("core", ssrob._steiner_core))
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
    trees = g.trial_trees.values()
    assert len({id(t) for t in trees}) == len({t.edge_ids for t in trees})

    # on this oracle_n14 graph the pipeline's 32 marked sets build 2 edge
    # sets: each edge set is routed once, and its marked sets share the tree
    g = workload_instances("oracle_n14", [1])[0]
    params = optimal_parameters(lambda_descriptor="heuristic(trials=32)", eps=0.1)
    solve_instance(g, params, SampleAugmentSolver(trials=32))
    trees = g.trial_trees.values()
    edge_sets = {t.edge_ids for t in trees}
    assert len(trees) > len(edge_sets) > 1
    assert len({id(t) for t in trees}) == len(edge_sets)


def test_steiner_core_breaks_a_cycle_its_paths_close():
    # 1-2-3 and 1-3 tie at length 2, and each search breaks the tie on the
    # smaller predecessor id: the closure path 5-1-2-3-4 comes from 4's
    # tree and 4-3-1-0 from 0's, so their union closes the cycle 1-2-3,
    # which the core's MST pass must break; every demand vertex is marked
    # at threshold 1, so the solver's tree is that core; the core's vertex
    # set is the union's, which the MST pass keeps
    edges = [(1, 2, 1), (2, 3, 1), (1, 3, 2), (1, 0, 4), (3, 4, 1), (1, 5, 3)]
    g = make_instance(6, edges, 0, {4: 1, 5: 1})
    core, core_vertices = ssrob._steiner_core(g, frozenset({0, 4, 5}))
    reduced, _ = minimum_spanning_forest(range(6), g.edges)  # the union: every edge
    assert core == frozenset(e.eid for e in reduced) == {0, 1, 3, 4, 5}
    assert core_vertices == tree_vertices(0, reduced) == set(range(6))
    assert sample_and_augment(g, 1.0).edge_ids == (0, 1, 3, 4, 5)


def _fresh(g):
    """An instance equal to ``g`` that shares none of its memos."""
    return make_instance(g.n, [(e.u, e.v, e.length) for e in g.edges], g.root, g.demands)


def _support(tree):
    return frozenset(eid for eid, f in tree.flow_map.items() if f)


def test_repeated_oracle_supports_route_once(monkeypatch):
    # an ascending and then a descending threshold ladder, and a multi-term
    # combination, on one instance route each distinct flow support once,
    # and each answer is the one a fresh, equal instance gives. On the grid
    # whose winning sends close a cycle, the support from before cancelling
    # is never stored, so that solve routes again each time
    routed = []
    monkeypatch.setattr(ssrob, "route", lambda g, eids: routed.append(g) or route(g, eids))
    g = workload_instances("oracle_n14", [1])[2]
    ladder = basis_grid(g, 0.25)
    combinations = [((m,), (1.0,)) for m in ladder + ladder[::-1]]
    combinations.append((ladder[::4], (0.5, 0.0, 2.0, 1.25, 0.75)))
    trees = [best_tree_for_combination(g, *c) for c in combinations]
    supports = {_support(tree) for tree in trees}
    assert len(routed) == len(supports) == 3
    assert set(g.oracle_setup[0].trees) == supports
    for c, tree in zip(combinations, trees):
        again = best_tree_for_combination(_fresh(g), *c)
        assert (again.edge_ids, again.flows) == (tree.edge_ids, tree.flows), c

    before = []
    acyclic_support = ssrob._acyclic_support

    def recorded(g, flow, unit_cost):
        before.append(frozenset(eid for eid, f in flow.items() if f))
        return acyclic_support(g, flow, unit_cost)

    monkeypatch.setattr(ssrob, "_acyclic_support", recorded)
    edges = [(0, 1, 1), (0, 3, 1), (1, 2, 1), (1, 4, 1), (2, 5, 1), (3, 4, 1), (4, 5, 1)]
    grid = make_instance(6, edges, 5, {0: 1, 1: 6, 2: 8, 3: 6, 4: 6, 5: 8})
    routed.clear()
    first, second = exact_ssrob(grid, 8.0), exact_ssrob(grid, 8.0)
    assert len(routed) == 2 and before[0] == before[1] != _support(first)
    assert before[0] not in grid.oracle_setup[0].trees
    assert not grid.oracle_setup[0].answers
    assert first.edge_ids == second.edge_ids


def test_oracle_answers_do_not_depend_on_call_order():
    # one instance solving the basis grid ascending, descending or shuffled
    # answers each threshold as a fresh, equal instance does: the weights
    # below the least demand fold to ones, so every such threshold gets one
    # answer whichever asks first
    rng = random.Random(21)
    for g in workload_instances("oracle_n14", [1]):
        grid = basis_grid(g, 0.1)
        shuffled = rng.sample(grid, len(grid))
        want = {m: exact_ssrob(_fresh(g), m) for m in grid}
        for order in (grid, grid[::-1], shuffled):
            h = _fresh(g)
            for m in order:
                got = exact_ssrob(h, m)
                assert (got.edge_ids, got.flows) == (want[m].edge_ids, want[m].flows), m


def _weight_vectors(g, thresholds):
    """The distinct per-set weight vectors min(D(S), M) of ``thresholds``
    over the nonempty terminal sets S, counting all equal ones as one."""
    sums = [0]
    for v, amount in g.demand_items:
        if v != g.root:
            sums += [s + amount for s in sums]
    vectors = {tuple(min(s, m) for s in sums[1:]) for m in thresholds}
    return {w if len(set(w)) > 1 else "ones" for w in vectors}


def test_subset_dp_runs_once_per_weight_vector(monkeypatch):
    # the pipeline with --oracle runs the DP once per distinct weight vector
    # of its basis grid, 19 on each oracle_n14 seed-1 graph, whether the
    # layers come from sample-and-augment or from the exact solver, whose
    # ratio pass asks again for every threshold the layers solved
    calls = []
    dp = ssrob._subset_dp
    monkeypatch.setattr(ssrob, "_subset_dp", lambda *a: calls.append(1) or dp(*a))
    params = optimal_parameters(eps=0.1)
    for g in workload_instances("oracle_n14", [1]):
        assert len(_weight_vectors(g, basis_grid(g, 0.1))) == 19
        for solver in (SampleAugmentSolver(), ExactSolver()):
            calls.clear()
            solve_instance(_fresh(g), params, solver, oracle=ExactSolver())
            assert len(calls) == 19, solver.name


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
    searches, trees = [], []
    search, source_tree = ssrob.bounded_search, ssrob._source_tree

    def counted(g, source, bound):
        searches.append(source)
        return search(g, source, bound)

    def counted_tree(g, source):
        trees.append(source)
        return source_tree(g, source)

    monkeypatch.setattr(ssrob, "bounded_search", counted)
    monkeypatch.setattr(ssrob, "_source_tree", counted_tree)
    g = make_instance(4, [(0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 3, 1), (0, 3, 5)], 0, {2: 1, 3: 2})
    # the core vertex set {0, 1} is searched as one merged source, bounded
    # by the off-core demand vertices' own trees, one each
    assert _rent_paths(g, frozenset({0, 1})) == {2, 3}
    assert searches == [frozenset({0, 1})]
    assert sorted(trees) == [2, 3]
    assert g.source_trees.keys() == {2, 3}
    # a core holding every demand vertex rents nothing and is not searched,
    # also when the demand sits on the root, which every core holds
    assert _rent_paths(g, frozenset({0, 1, 2, 3})) == frozenset()
    on_root = make_instance(3, [(0, 1, 1), (1, 2, 1)], 2, {1: 4, 2: 1})
    assert _rent_paths(on_root, frozenset({1, 2})) == frozenset()
    only_root = make_instance(2, [(0, 1, 1)], 0, {0: 3})
    assert _rent_paths(only_root, frozenset({0})) == frozenset()
    assert searches == [frozenset({0, 1})]
    assert sorted(trees) == [2, 3]


def test_rent_bound_margin_covers_rounding():
    # path 1 -(1/3)- 0 -(1)- 2 with core {1}: vertex 2 is 1/3 + 1 = 4/3 from
    # the core in both trees, but 4/3 - 1 rounds below 1/3, so with no
    # margin on that distance vertex 0's label would fall outside its bound
    # and vertex 2 would be left unreachable
    g = make_instance(3, [(0, 1, 1 / 3), (0, 2, 1.0)], 1, {2: 1})
    assert 1 / 3 + 1.0 - 1.0 < 1 / 3
    assert _rent_paths(g, frozenset({1})) == {0, 1}


def test_rent_paths_name_single_vertex_core_supernode():
    # core {root = 3}: vertex 0 is at distance 2 both over edge 3 and through
    # vertex 1; named SUPERNODE (-1) the core wins that predecessor tie and
    # edge 3 is picked, named by its own id 3 it would lose to vertex 1 (edge 0)
    edges = [(0, 1, 1), (1, 2, 3), (2, 3, 3), (0, 3, 2), (1, 3, 3), (3, 2, 1), (0, 2, 3),
             (1, 3, 1), (3, 1, 3)]
    g = make_instance(4, edges, 3, {0: 15, 1: 31, 3: 27})
    assert _rent_paths(g, frozenset({3})) == {3, 7}


def test_sample_augment_degenerate_low_threshold(path3):
    t = sample_and_augment(path3, 1.0, seed=0, trials=4)
    assert t.edge_ids == (0, 1)
    assert basis_cost(t, 1.0) == 2.0


def test_sample_augment_degenerate_high_threshold(path3):
    t = sample_and_augment(path3, 5.0, seed=0, trials=4)
    assert basis_cost(t, 5.0) == 3.0


def test_sample_augment_validates_inputs(path3):
    for bad in (0.5, math.nan):
        with pytest.raises(ConfigError):
            sample_and_augment(path3, bad)
        with pytest.raises(ConfigError):
            SampleAugmentSolver(trials=4).solve(path3, bad)
    with pytest.raises(ConfigError):
        sample_and_augment(path3, 2.0, trials=0)
    # an infinite threshold is no error: it routes by shortest paths
    assert sample_and_augment(path3, math.inf).edge_ids == (0, 1)


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


def test_weights_that_fall_are_refused(monkeypatch):
    # w(D) = 2·min(D, 1) - 0.5·min(D, 4) falls past D = 1, so neither the DP
    # nor the cycle push holds for it: on these two seeded graphs the oracle
    # returned a tree dearer than the brute-force least (graph 20) and failed
    # with a bare ValueError while cancelling a cycle (graph 202). Every
    # negative or NaN threshold or coefficient, or infinite coefficient, is
    # now refused before any search; zero weights and an infinite threshold
    # (a linear cost) are still answered
    rng = random.Random(1)
    graphs = [random_instance(rng, n_min=3, n_max=6) for _ in range(203)]
    combinations = [((1.0, 4.0), (2.0, -0.5)), ((2.0,), (-1.0,)), ((2.0,), (math.nan,)),
                    ((2.0,), (math.inf,)), ((-1.0,), (1.0,)), ((math.nan,), (1.0,))]
    monkeypatch.setattr(ssrob, "shortest_path_tree", None)
    for g in (graphs[20], graphs[202]):
        for thresholds, coefficients in combinations:
            with pytest.raises(ConfigError, match="must be (finite )?nonnegative numbers$"):
                best_tree_for_combination(g, thresholds, coefficients)
    monkeypatch.undo()
    g = graphs[20]
    assert basis_cost(best_tree_for_combination(g, (0.0, 2.0), (1.0, 0.0)), 0.0) == 0.0
    want, _ = brute_min_cost(g, lambda t: basis_cost(t, math.inf))
    assert basis_cost(best_tree_for_combination(g, (math.inf,), (1.0,)), math.inf) == want


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
