"""Property tests on random small graphs, drawn by hypothesis: the exact
oracle against the brute-force tree oracle, against itself on renumbered
edges (in rational arithmetic), and its budget refusal; the cycle
cancelling behind it, on superposed random paths; sample-and-augment
against its plain reference; and the bounded search behind its rent paths
against the unbounded one."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onetree import OracleLimitError, basis_cost, make_instance, route, sample_and_augment
from onetree import ssrob
from onetree.graph import INF, SUPERNODE, UnionFind, bounded_search, shortest_path_tree, tree_order
from onetree.ssrob import _acyclic_support, _demand_paths, _rent_paths, _root_component
from onetree.ssrob import _steiner_core, best_tree_for_combination

from helpers import brute_min_cost, exact_cost, reference_rent, reference_sample_and_augment


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
    verts, edges = _root_component(g)
    near = {v: set() for v in verts}
    for e in edges:
        near[e.u].add(e.v)
        near[e.v].add(e.u)
    t = len([v for v in g.demands if v != g.root and v in near])
    n = len([v for v in verts if v == g.root or v in g.demands or len(near[v]) >= 3])
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
    assume(set(g.demands) <= {v for v, _ in tree_order(g.root, g.edges)})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssrob, "ORACLE_CELL_BUDGET", cells)
        best_tree_for_combination(g, (2.0,), (1.0,))


def _random_path(g, rnd, start: int) -> list:
    """The edges of a randomized depth-first search's path from ``start``
    to the root, from the root end."""
    stack, via = [start], {start: None}
    while g.root not in via:
        x = stack.pop()
        steps = [e for e in g.edges if x in (e.u, e.v) and e.other(x) not in via]
        rnd.shuffle(steps)
        for e in steps:
            if e.other(x) not in via:
                via[e.other(x)] = e
                stack.append(e.other(x))
    path, x = [], g.root
    while via[x] is not None:
        path.append(via[x])
        x = via[x].other(x)
    return path


@settings(max_examples=150, deadline=None)
@given(small_instances(max_n=7, max_extra=6), terms, st.randoms(use_true_random=False))
def test_cancelling_cycles_never_costs_more(g, combination, rnd):
    # every demand vertex sends half its units to the root along one random
    # path and the rest along another, and all paths are superposed; the
    # support left after cancelling every cycle is a forest whose edges all
    # carry demand to the root, and its routed tree costs no more, exactly
    reach = {v for v, _ in tree_order(g.root, g.edges)}
    assume(set(g.demands) <= reach)
    thresholds, coefficients = zip(*combination)
    flow: dict[int, int] = {}
    for v, amount in g.demand_items:
        for part in (amount // 2, amount - amount // 2):
            x = g.root
            for e in _random_path(g, rnd, v):
                x = e.other(x)
                flow[e.eid] = flow.get(e.eid, 0) + (part if e.u == x else -part)

    def unit(x):
        return sum(a * min(x, m) for a, m in zip(coefficients, thresholds) if a)

    support = _acyclic_support(g, flow, unit)
    uf = UnionFind(reach)
    assert all(uf.union(g.edge_by_id[eid].u, g.edge_by_id[eid].v) for eid in sorted(support))
    rest = [e.eid for e in g.edges if e.u in reach and uf.union(e.u, e.v)]
    tree = route(g, [*support, *rest])
    assert all(tree.flow_map[eid] for eid in support)
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
    dist, pred = shortest_path_tree(g, source)
    factor = st.sampled_from([-1.0, 0.5, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 2.0, INF])
    bound = [d * data.draw(factor) for d in dist]
    got_dist, got_pred = bounded_search(g, source, bound)
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
