"""Property tests on random small graphs, drawn by hypothesis: the exact
oracle against the brute-force tree oracle, and against itself branching
in edge-id order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onetree import basis_cost, make_instance
from onetree.ssrob import best_tree_for_combination

from helpers import answers_in_both_orders, brute_min_cost


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
@given(small_instances(), terms)
def test_oracle_matches_brute_force(g, combination):
    # one-term (exact_ssrob's case) and multi-term combinations alike
    thresholds, coefficients = zip(*combination)

    def cost(tree):
        return sum(a * basis_cost(tree, m) for a, m in zip(coefficients, thresholds))

    got = cost(best_tree_for_combination(g, thresholds, coefficients))
    want, _ = brute_min_cost(g, cost)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(small_instances(max_n=9, max_extra=8), terms)
def test_edge_order_does_not_change_random_answers(g, combination):
    # the same rows, flows and row cost bits, and the same best tree, whether
    # the enumerator branches in its greedy order or in edge-id order
    thresholds, coefficients = zip(*combination)
    combinations = [(thresholds, coefficients), ((1.0,), (1.0,))]
    ours, by_id = answers_in_both_orders(g, combinations)
    assert ours == by_id
