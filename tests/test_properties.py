"""Property tests on random small graphs, drawn by hypothesis: the exact
oracle against the brute-force tree oracle, against itself on renumbered
edges (in rational arithmetic), and its budget refusal; and the cycle
cancelling behind it, on superposed random paths."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onetree import OracleLimitError, basis_cost, make_instance, route
from onetree import ssrob
from onetree.graph import UnionFind, tree_order
from onetree.ssrob import _acyclic_support, _root_component
from onetree.ssrob import best_tree_for_combination

from helpers import brute_min_cost, exact_cost


@st.composite
def small_instances(draw, max_n=6, max_extra=4):
    """A random tree plus a few extra edges (parallel ones included) on up
    to ``max_n`` vertices, in a drawn edge order, with demand on a drawn
    vertex set that may hold the root."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    length = st.integers(1, 4)
    edges = [(draw(st.integers(0, v - 1)), v, draw(length)) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(vertex, vertex, length), max_size=max_extra))
    edges = draw(st.permutations(edges + [(u, v, w) for u, v, w in extra if u != v]))
    demanded = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    demands = {v: draw(st.integers(1, 6)) for v in demanded}
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
