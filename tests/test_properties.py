"""Property tests on random small graphs, drawn by hypothesis: the exact
oracle against the brute-force tree oracle, against itself on renumbered
edges (in rational arithmetic), and its budget refusal; the cycle
cancelling behind it, on superposed random paths; sample-and-augment
against its plain reference; the bounded search behind its rent paths
against the unbounded one and against the search that built a tuple label
for every relax; the Steiner core's dense Prim against Kruskal over the
metric closure; ``route`` against the reference walk over an edge set's
own edges; ``build_last`` against the reference DFS over sorted ``Edge``
lists of the MST; the exact oracle's branch vertices against neighbour
sets over the root's component; the subset DP's tables, kept and refilled
from call to call, against a fresh fill; ``monotonize`` against its loops that
compared costs at every index; and the forward sweep of
``verify_layerset`` against the layer each index's generator formula
picks."""

import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from onetree import InvalidTreeError, InvariantError, LayerSet, OracleLimitError, Parameters
from onetree import basis_cost, basis_threshold, make_instance, monotonize, route, verify_layerset
from onetree import build_last, contract, sample_and_augment, ssrob
from onetree.graph import INF, SUPERNODE, UnionFind, bounded_search, shortest_path_tree
from onetree.routing import RentBuyDecomposition
from onetree.ssrob import _acyclic_support, _demand_paths, _rent_paths
from onetree.ssrob import _steiner_core, best_tree_for_combination, exact_ssrob

from helpers import brute_min_cost, exact_cost, reference_core, reference_rent, reference_route
from helpers import reference_branch_vertices, reference_last, reference_sample_and_augment
from helpers import reference_monotonize, reference_search, root_component
from helpers import other, pred_dict, subset_spanning_trees, tree_vertices


@st.composite
def small_instances(draw, max_n=6, max_extra=4, max_amount=6):
    """A random tree plus a few extra edges (parallel ones included) on up
    to ``max_n`` vertices, in a drawn edge order, with demand of 1 to
    ``max_amount`` units on a drawn vertex set that may hold the root."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    length = st.integers(1, 4)
    edges = [(draw(st.integers(0, v - 1)), v, draw(length)) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(vertex, vertex, length), max_size=max_extra))
    edges = draw(st.permutations(edges + [(u, v, w) for u, v, w in extra if u != v]))
    demanded = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    demands = {v: draw(st.integers(1, max_amount)) for v in demanded}
    return make_instance(n, edges, draw(vertex), demands)


terms = st.lists(
    st.tuples(st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]), st.floats(0.0, 2.0)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(small_instances(), terms, st.sampled_from([1, 2**64]))
def test_oracle_matches_brute_force(g, combination, scale):
    # one-term (exact_ssrob's case) and multi-term combinations alike; with
    # demands and thresholds scaled by 2^64 the total demand is past int64
    g = make_instance(g.n, [(e.u, e.v, e.length) for e in g.edges], g.root,
                      {v: a * scale for v, a in g.demands.items()})
    thresholds = tuple(m * scale for m, _ in combination)
    coefficients = tuple(a for _, a in combination)

    def cost(tree):
        return sum(a * basis_cost(tree, m) for a, m in zip(coefficients, thresholds))

    got = cost(best_tree_for_combination(g, thresholds, coefficients))
    want, _ = brute_min_cost(g, cost)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(small_instances(max_n=9, max_extra=8), terms, st.data())
def test_edge_order_does_not_change_random_answers(g, combination, data):
    # renumbering the edges (a permuted edge list) changes no exact optimum;
    # only a tie between flow classes may pick another tree
    thresholds, coefficients = zip(*combination)
    order = data.draw(st.permutations(g.edges))
    h = make_instance(g.n, [(e.u, e.v, e.length) for e in order], g.root, g.demands)
    for combo in [(thresholds, coefficients), ((1.0,), (1.0,))]:
        ours = exact_cost(best_tree_for_combination(g, *combo), *combo)
        assert exact_cost(best_tree_for_combination(h, *combo), *combo) == ours


def _dp_cells(g) -> int:
    """3^t·n + 2^t·n² for t terminals and n branch vertices: the root, the
    terminals and every vertex of the root's component with three or more
    distinct neighbours."""
    terms, keys = reference_branch_vertices(g)
    t, n = len(terms), len(keys)
    return 3**t * n + 2**t * n * n


@settings(max_examples=60, deadline=None)
@given(small_instances(max_n=8, max_extra=8))
def test_over_budget_refusal_comes_before_any_work(g):
    # a budget one cell short of the instance's count refuses it before any
    # shortest-path search or DP table; at exactly that count it is answered
    def no_work(*args):
        raise AssertionError("work before the budget check")

    cells = _dp_cells(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssrob, "ORACLE_CELL_BUDGET", cells - 1)
        patch.setattr(ssrob, "shortest_path_tree", no_work)
        patch.setattr(ssrob, "_subset_dp", no_work)
        with pytest.raises(OracleLimitError, match=f"takes {cells} array cells, over {cells - 1}$"):
            best_tree_for_combination(g, (2.0,), (1.0,))
    assume(set(g.demands) <= root_component(g))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssrob, "ORACLE_CELL_BUDGET", cells)
        best_tree_for_combination(g, (2.0,), (1.0,))


def _random_path(g, rnd, start: int) -> list:
    """The edges of a randomized depth-first search's path from ``start``
    to the root, from the root end."""
    stack, via = [start], {start: None}
    while g.root not in via:
        x = stack.pop()
        steps = [e for e in g.edges if x in (e.u, e.v) and other(e, x) not in via]
        rnd.shuffle(steps)
        for e in steps:
            if other(e, x) not in via:
                via[other(e, x)] = e
                stack.append(other(e, x))
    path, x = [], g.root
    while via[x] is not None:
        path.append(via[x])
        x = other(via[x], x)
    return path


@settings(max_examples=150, deadline=None)
@given(small_instances(max_n=7, max_extra=6), terms, st.randoms(use_true_random=False))
def test_cancelling_cycles_never_costs_more(g, combination, rnd):
    # every demand vertex sends half its units to the root along one random
    # path and the rest along another, and all paths are superposed; the
    # support left after cancelling every cycle is, as the oracle routes it,
    # a tree at the root whose edges all carry demand, and costs no more,
    # exactly
    assume(set(g.demands) <= root_component(g))
    thresholds, coefficients = zip(*combination)
    flow: dict[int, int] = {}
    for v, amount in g.demand_items:
        for part in (amount // 2, amount - amount // 2):
            x = g.root
            for e in _random_path(g, rnd, v):
                x = other(e, x)
                flow[e.eid] = flow.get(e.eid, 0) + (part if e.u == x else -part)

    def unit(x):
        return sum(a * min(x, m) for a, m in zip(coefficients, thresholds) if a)

    support = _acyclic_support(g, flow, unit)
    tree = route(g, support)
    assert all(tree.flows)
    superposed = sum(
        Fraction(a) * Fraction(g.edge_by_id[eid].length) * min(Fraction(abs(f)), Fraction(m))
        for eid, f in flow.items()
        for a, m in zip(coefficients, thresholds)
    )
    assert exact_cost(tree, thresholds, coefficients) <= superposed


@settings(max_examples=400, deadline=None)
@given(
    small_instances(max_n=7, max_extra=6, max_amount=10**6),
    st.floats(0.05, 0.95),
    st.integers(0, 1000),
    st.integers(1, 4),
)
def test_sample_and_augment_matches_reference(g, power, seed, trials):
    # amounts up to 10^6 at the threshold D^power, D the total demand: all,
    # some or none of the marking chances round to 1, and only where all do
    # may the solver skip its draws; the reference draws every trial's stream
    threshold = float(g.total_demand) ** power
    got = sample_and_augment(g, threshold, seed=seed, trials=trials)
    want = reference_sample_and_augment(g, threshold, seed=seed, trials=trials)
    assert got.edge_ids == want.edge_ids


@st.composite
def rent_instances(draw):
    """Unit demand on a drawn vertex set of one of three graphs: a
    ``small_instances`` graph (lengths 1 to 4); a grid of up to 4×4 with
    lengths 1 and 2, where many equal-length paths tie; or a random tree
    plus extra edges on up to 9 vertices with lengths 1/3, 0.1, 1e-9, 1e6,
    1 and 2.5, whose sums round. Every distance stays below 2^23, where
    adding 1e-9 still moves a sum, as the bounded search's exactness needs."""
    kind = draw(st.sampled_from(["small", "grid", "float"]))
    if kind == "small":
        g = draw(small_instances(max_n=8, max_extra=8))
        n, edges = g.n, [(e.u, e.v, e.length) for e in g.edges]
    elif kind == "grid":
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        n, length = rows * cols, st.integers(1, 2)
        edges = [(v, v + 1, draw(length)) for v in range(n) if (v + 1) % cols]
        edges += [(v, v + cols, draw(length)) for v in range(n - cols)]
    else:
        n = draw(st.integers(1, 9))
        vertex, length = st.integers(0, n - 1), st.sampled_from([1 / 3, 0.1, 1e-9, 1e6, 1.0, 2.5])
        edges = [(draw(st.integers(0, v - 1)), v, draw(length)) for v in range(1, n)]
        extra = draw(st.lists(st.tuples(vertex, vertex, length), max_size=8))
        edges += [(u, v, w) for u, v, w in extra if u != v]
    vertex = st.integers(0, n - 1)
    demanded = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    return make_instance(n, edges, draw(vertex), dict.fromkeys(demanded, 1))


@settings(max_examples=400, deadline=None)
@given(rent_instances(), st.data())
def test_rent_paths_match_unbounded_search(g, data):
    # a trial's core (the Steiner core of a random marked set and the root)
    # or any vertex set that holds the root: the bounded rent search picks
    # the edges that the unbounded merged-source search picks, and on
    # integer lengths those that a search of the explicit contraction picks
    vertex = st.integers(0, g.n - 1)
    if data.draw(st.booleans()):
        marked = data.draw(st.frozensets(st.sampled_from(sorted(g.demands))))
        _, core = _steiner_core(g, marked | {g.root})
    else:
        core = data.draw(st.frozensets(vertex)) | {g.root}
    off_core = g.demands.keys() - core
    want = _demand_paths(g, shortest_path_tree(g, core), SUPERNODE, core) if off_core else set()
    assert _rent_paths(g, core) == want
    if all(e.length.is_integer() for e in g.edges):
        assert reference_rent(g, core) == want


@settings(max_examples=400, deadline=None)
@given(rent_instances(), st.data())
def test_bounded_search_keeps_labels_within_bound(g, data):
    # bound each vertex at its unbounded distance times a drawn factor: no
    # distance falls below the unbounded one, and a vertex whose unbounded
    # path stays within the bound at every vertex keeps its label
    vertex = st.integers(0, g.n - 1)
    source = data.draw(st.one_of(vertex, st.frozensets(vertex, min_size=1)))
    members = source if isinstance(source, frozenset) else {source}
    tree = shortest_path_tree(g, source)
    dist, pred = tree[0], pred_dict(tree)
    factor = st.sampled_from([-1.0, 0.5, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 2.0, INF])
    bound = [d * data.draw(factor) for d in dist]
    got = bounded_search(g, source, bound)
    got_dist, got_pred = got[0], pred_dict(got)
    for v in g.vertex_ids:
        assert got_dist[v] >= dist[v]
        if v in members:
            assert got_dist[v] == 0.0 and v not in got_pred
            continue
        x, within = v, dist[v] < INF
        while within and x != SUPERNODE and x not in members:
            within = dist[x] <= bound[x]
            x = pred[x][0]
        if within:
            assert (got_dist[v], got_pred[v]) == (dist[v], pred[v])


@st.composite
def tie_instances(draw):
    """A grid of up to 4×5 with lengths 1 and 2, some of its edges doubled
    by a parallel edge of length 1 or 2, and unit demand on a drawn vertex
    set: many paths and many parallel edges tie on their distance."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    n, length = rows * cols, st.integers(1, 2)
    grid = [(v, v + 1) for v in range(n) if (v + 1) % cols]
    grid += [(v, v + cols) for v in range(n - cols)]
    doubled = draw(st.lists(st.sampled_from(grid), max_size=6)) if grid else []
    edges = draw(st.permutations([(u, v, draw(length)) for u, v in grid + doubled]))
    vertex = st.integers(0, n - 1)
    demanded = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    return make_instance(n, edges, draw(vertex), dict.fromkeys(demanded, 1))


@settings(max_examples=400, deadline=None)
@given(tie_instances(), st.data())
def test_bounded_search_matches_tuple_label_search(g, data):
    # single-source, merged-source and bounded calls: the float-first relax
    # gives the distances, labels and settle order of the search that built
    # a tuple for every relax, bounds at exactly a vertex's distance included
    vertex = st.integers(0, g.n - 1)
    source = data.draw(st.one_of(vertex, st.frozensets(vertex, min_size=1)))
    bound = None
    if data.draw(st.booleans()):
        dist, _ = shortest_path_tree(g, source)
        cap = st.one_of(st.just("dist"), st.integers(0, 2 * g.n), st.sampled_from([INF, -INF]))
        caps = [data.draw(cap) for _ in dist]
        bound = [d if c == "dist" else float(c) for d, c in zip(dist, caps)]
    got = bounded_search(g, source, bound)
    got_dist, got_pred = got[0], pred_dict(got)
    want_dist, want_pred = reference_search(g, source, bound)
    assert got_dist == want_dist
    assert list(got_pred.items()) == list(want_pred.items())


@settings(max_examples=400, deadline=None)
@given(tie_instances(), st.data())
def test_steiner_core_matches_kruskal_over_closure(g, data):
    # dense Prim picks the closure MST that Kruskal over the sorted (d, a, b)
    # keys picks, ties in d included, and collects its vertices as it expands
    terminals = data.draw(st.frozensets(st.integers(0, g.n - 1))) | {g.root}
    edge_ids, vertices = _steiner_core(g, terminals)
    assert edge_ids == reference_core(g, terminals)
    assert vertices == tree_vertices(min(terminals), (g.edge_by_id[e] for e in edge_ids))


@st.composite
def edge_sets(draw, max_n=7, max_m=9):
    """An instance on random edges, so perhaps disconnected and with
    parallel pairs, with demand in the root's component, and an edge-id
    list for it: a drawn subset, perhaps with the unknown id m, or a
    spanning tree of the root's component by Kruskal over a drawn edge
    order."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    drawn = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 4)), max_size=max_m))
    edges = [(u, v, w) for u, v, w in drawn if u != v]
    root = draw(vertex)
    near = st.sampled_from(sorted(root_component(make_instance(n, edges, root, {}))))
    demanded = draw(st.lists(near, min_size=1, max_size=n, unique=True))
    g = make_instance(n, edges, root, {v: draw(st.integers(1, 6)) for v in demanded})
    if draw(st.booleans()):
        return g, draw(st.lists(st.integers(0, len(edges)), unique=True))
    reached, uf = root_component(g), UnionFind(range(n))
    order = draw(st.permutations(g.edges))
    return g, [e.eid for e in order if e.u in reached and uf.union(e.u, e.v)]


@settings(max_examples=400, deadline=None)
@given(edge_sets())
@example((make_instance(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], 0, {2: 1}), [0, 1, 2]))  # cycle
@example((make_instance(2, [(0, 1, 1), (0, 1, 2)], 0, {1: 1}), [0, 1]))  # parallel pair
@example((make_instance(4, [(0, 1, 1), (2, 3, 1)], 0, {1: 1}), [0, 1]))  # off the root's component
@example((make_instance(2, [(0, 1, 1)], 0, {1: 1}), [0, 1]))  # unknown id
@example((make_instance(3, [(0, 1, 1), (1, 2, 1)], 0, {2: 1}), [0]))  # unspanned demand
@example((make_instance(4, [(0, 1, 1), (1, 2, 2), (1, 3, 1)], 0, {2: 2, 3: 5}), [0, 1, 2]))
def test_route_matches_reference_walk(case):
    # route's walk over the instance's adjacency gives the reference walk's
    # edge ids and flows; an edge set that walk refuses, route refuses with
    # the same message and memoizes nothing
    g, eids = case
    memo = dict(g.routed_trees)
    try:
        want = reference_route(g, eids)
    except InvalidTreeError as exc:
        with pytest.raises(InvalidTreeError, match=f"^{re.escape(str(exc))}$"):
            route(g, eids)
        assert g.routed_trees == memo
    else:
        tree = route(g, eids)
        assert (tree.edge_ids, tree.flows) == want
        assert route(g, reversed(eids)) is tree


@st.composite
def last_cases(draw):
    """A connected ``small_instances`` graph, or its contraction of a drawn
    vertex set, with a drawn root and stretch bound alpha."""
    g = draw(small_instances(max_n=9, max_extra=8))
    if draw(st.booleans()):
        g = contract(g, draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    alpha = draw(st.sampled_from([1.0001, 1.2, 1.5, 2.0, 3.0, 10.0]))
    return g, draw(st.integers(0, g.n - 1)), alpha


@settings(max_examples=400, deadline=None)
@given(last_cases())
@example((make_instance(1, [], 0, {0: 1}), 0, 2.0))  # one vertex
@example((make_instance(3, [(0, 1, 1), (0, 1, 1), (1, 2, 1), (0, 2, 1)], 0, {2: 1}), 2, 1.2))  # ties
@example((contract(make_instance(4, [(0, 1, 1), (1, 2, 1), (2, 3, 3), (0, 3, 2)], 0, {3: 1}), {1, 2}), 0, 1.5))
# two graphs on which the children's (length, id) order changes the tree
@example((make_instance(7, [(1, 3, 4), (1, 2, 4), (4, 5, 2), (1, 6, 1), (0, 1, 2), (6, 5, 2),
                            (0, 6, 1), (0, 4, 2)], 0, {6: 1}), 1, 1.0001))
@example((make_instance(8, [(0, 4, 2), (0, 2, 1), (4, 1, 3), (2, 6, 1), (1, 7, 3), (6, 7, 3),
                            (3, 4, 3), (5, 7, 2), (1, 3, 2), (0, 1, 4), (3, 5, 2), (6, 4, 2),
                            (0, 6, 2), (2, 3, 3)], 0, {7: 1}), 0, 1.0001))
def test_build_last_matches_reference_dfs(case):
    # the DFS over the instance's adjacency, re-rooted at the drawn root,
    # lays the LAST of the reference DFS over sorted Edge lists of the MST,
    # splices included
    g, root, alpha = case
    h = replace(g, root=root)
    assert build_last(h, alpha).edge_ids == reference_last(g, root, alpha)


@st.composite
def split_instances(draw):
    """A ``small_instances`` graph plus up to four vertices off its root's
    component, with random (possibly parallel) edges and no demand among
    them."""
    g = draw(small_instances(max_n=7, max_extra=8))
    k = draw(st.integers(0, 4))
    off = st.integers(g.n, g.n + k - 1)
    extra = draw(st.lists(st.tuples(off, off, st.integers(1, 4)), max_size=6)) if k else []
    edges = [(e.u, e.v, e.length) for e in g.edges] + [(u, v, w) for u, v, w in extra if u != v]
    return make_instance(g.n + k, edges, g.root, g.demands)


@settings(max_examples=400, deadline=None)
@given(split_instances())
@example(make_instance(4, [(0, 1, 1), (1, 2, 1), (1, 2, 2), (1, 3, 1)], 0, {2: 1}))  # parallel pair
@example(make_instance(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1)], 0, {1: 1, 4: 2}))  # 3 off
@example(make_instance(7, [(0, 1, 1), (3, 4, 1), (3, 5, 1), (3, 6, 1)], 0, {1: 1}))  # fork off it
def test_oracle_setup_branch_vertices_match_neighbour_sets(g):
    # the set-up's count of distinct neighbours over the instance's
    # adjacency finds the branch vertices and terminals that neighbour sets
    # over the root's component do, with the root's column among them
    terms, keys = reference_branch_vertices(g)
    setup = ssrob._oracle_setup(g)
    assert setup.keys == tuple(keys)
    assert setup.root == keys.index(g.root)
    assert [keys[j] for j in setup.starts.argmin(axis=1)] == terms


#: A drawn oracle call: one threshold for ``exact_ssrob``, or one to three
#: (threshold, coefficient) terms, zero coefficients among them, for
#: ``best_tree_for_combination``. The thresholds lie below, among and past
#: the demands of ``small_instances``, so weights change at every size.
_levels = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 13.0, 17.0, 24.0, 40.0])
oracle_calls = st.one_of(
    _levels.map(lambda m: ((m,), None)),
    st.lists(st.tuples(_levels, st.sampled_from([0.0, 0.5, 1.0, 2.5])), min_size=1, max_size=3)
    .map(lambda terms: tuple(zip(*terms))),
)


def _oracle_call(g, call):
    thresholds, coefficients = call
    if coefficients is None:
        return exact_ssrob(g, thresholds[0])
    return best_tree_for_combination(g, thresholds, coefficients)


@settings(max_examples=150, deadline=None)
@given(small_instances(max_n=7, max_extra=6, max_amount=9), st.lists(oracle_calls, min_size=1, max_size=10),
       st.sampled_from(["ascending", "descending", "drawn"]))
@example(make_instance(3, [(0, 1, 2), (1, 2, 1), (0, 2, 4)], 0, {2: 3}),  # one terminal: ones
         [((1.0,), None), ((0.0,), None), ((5.0,), None), ((2.0, 3.0), (0.0, 0.0)), ((3.0,), None)],
         "drawn")
@example(make_instance(4, [(0, 1, 1), (0, 1, 2), (1, 2, 1), (1, 3, 3), (2, 3, 1)], 0,
                       {0: 2, 1: 4, 2: 1, 3: 6}),  # parallel pair, demand at the root
         [((13.0,), None), ((1.0, 5.0), (0.5, 2.5)), ((2.0,), None), ((0.5,), None),
          ((5.0, 40.0), (1.0, 0.0)), ((3.0,), None)], "drawn")
@example(make_instance(6, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 3), (4, 5, 1), (5, 0, 2), (1, 4, 2)],
                       0, {1: 3, 2: 5, 3: 4, 4: 7, 5: 2}),  # five terminals, refilled from every size
         [((m,), None) for m in (1.0, 3.0, 5.0, 8.0, 10.0, 13.0, 17.0, 24.0, 40.0)], "descending")
def test_kept_dp_tables_equal_a_fresh_fill_bit_for_bit(g, calls, order):
    # one instance answering a run of oracle calls, its first thresholds in
    # ascending, descending or drawn order and its first two calls asked
    # again at the end (the answers memo serves them), keeps after each
    # call the tables that a fresh fill for the kept weights gives, byte for
    # byte (row 0, the empty set, is never written), and answers as a
    # fresh, equal instance does. Each fresh fill stays alive, so no
    # allocation can hand back memory that already holds the rows
    if order != "drawn":
        calls = sorted(calls, key=lambda call: call[0], reverse=order == "descending")
    fresh_fills = []
    for call in calls + calls[:2]:
        got = _oracle_call(g, call)
        h = make_instance(g.n, [(e.u, e.v, e.length) for e in g.edges], g.root, g.demands)
        want = _oracle_call(h, call)
        assert (got.edge_ids, got.flows) == (want.edge_ids, want.flows), call
        w, F, G = ssrob._oracle_setup(g).tables
        fresh = ssrob._oracle_setup(h)
        fill = ssrob._subset_dp(w, fresh.dist_t, fresh.starts, [])
        fresh_fills.append(fill)
        assert F[1:].tobytes() == fill[0][1:].tobytes(), call
        assert G[1:].tobytes() == fill[1][1:].tobytes(), call


@settings(max_examples=150, deadline=None)
@given(small_instances(max_n=5, max_extra=3), st.floats(0.05, 2.0), st.data())
def test_monotonize_matches_reference_loops(g, eps, data):
    # a ladder drawn from a few routed spanning trees, in runs of one object
    # and alternating, so identical neighbors (skipped) and distinct ones
    # with equal or unequal costs (compared) both turn up
    pool = [route(g, ids) for ids in subset_spanning_trees(g)][:4]
    trees = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    thresholds = [basis_threshold(i, eps) for i in range(len(trees))]
    got = monotonize(trees, thresholds)
    want = reference_monotonize(trees, thresholds)
    assert [id(t) for t in got] == [id(t) for t in want]


@st.composite
def kept_index_sets(draw):
    """A top index K and kept and buy-pass index sets in 0..K, as prune's
    contract has them (0 in both, the last survivor kept), each in a drawn
    order."""
    top = draw(st.integers(0, 30))
    index = st.integers(0, top)
    survivors = sorted({0, *draw(st.lists(index, max_size=8))})
    kept = sorted({0, survivors[-1], *draw(st.lists(index, max_size=8))})
    return top, draw(st.permutations(kept)), draw(st.permutations(survivors))


@settings(max_examples=300, deadline=None)
@given(kept_index_sets())
def test_verify_layerset_sweep_picks_the_generator_formula_layer(sets):
    # at each k, a table cut at K = k whose buy cost is 1 but 0.5 at k fails
    # the gamma = 1.5 cap at k alone, and names the layer it checked there,
    # unless that layer is k; the formula the sweep replaced picks the least
    # kept index at or above the greatest survivor at or below k
    top, kept, survivors = sets
    params = Parameters(eps=0.5, alpha=1.6, gamma=1.5, delta=5.236)
    for k in range(top + 1):
        anchor = max(j for j in survivors if j <= k)
        want = min(i for i in kept if i >= anchor)
        decs = tuple(RentBuyDecomposition(1.0, 0.5 if j == k else 1.0, frozenset({0}))
                     for j in range(top + 1))
        layers = LayerSet(params, (1.0,) * (k + 1), (), (), decs, tuple(kept), tuple(survivors))
        if want == k:
            verify_layerset(layers)
            continue
        with pytest.raises(InvariantError) as caught:
            verify_layerset(layers)
        assert str(caught.value) == f"kept index {want} exceeds the gamma buy cap relative to index {k}"
