import math
import random
import sys

import pytest

from onetree import (
    ConfigError,
    ExactSolver,
    Parameters,
    SampleAugmentSolver,
    basis_cost,
    basis_threshold,
    compute_K,
    compute_layers,
    monotonize,
    prune,
    route,
    verify_layerset,
)
from onetree.builder import GOLDEN_ALPHA
from onetree.routing import RentBuyDecomposition

from corpus import random_instance
from helpers import basis_grid, reference_K


def fake_decompositions(buys, rents):
    return tuple(
        RentBuyDecomposition(
            rent_cost=float(r),
            buy_cost=float(b),
            core=frozenset({0}),
        )
        for b, r in zip(buys, rents)
    )


def test_compute_K_values():
    assert compute_K(1, 0.5) == 0
    assert compute_K(2, 1.0) == 1
    assert compute_K(100, 0.1) == 49
    assert compute_K(8, 1.0) == 3  # exact power boundary


@pytest.mark.parametrize(
    "demand, eps, top", [(10**308, 1.0, 1024), (int(1.7e308), 0.5, 1751)], ids=["1e308", "1.7e308"]
)
def test_compute_K_tops_out_at_the_largest_float(demand, eps, top):
    # (1 + eps) ** top is past the largest float, and the power before it is
    # below the demand: the top threshold is the largest float, which no
    # flow passes
    assert basis_threshold(top - 1, eps) < demand
    assert basis_threshold(top, eps) == sys.float_info.max
    assert compute_K(demand, eps) == top


def test_compute_K_refuses_a_demand_past_the_float_range():
    with pytest.raises(ConfigError, match="^total demand is past the float range$"):
        compute_K(10**400, 1.0)


def test_compute_K_matches_the_loop():
    # the closed form with its one-step corrections ends where the loop does;
    # past 10^12 an integer just above a threshold is inside the loop's
    # 1e-12 slack, and log(2^29) / log(2) rounds above 29, so both need the
    # downward step
    large = [10**6, 3 * 10**9, 2**29, 2**31, 2**40 - 1, 2**58, 10**12 + 1, 10**15]
    for eps in (1e-3, 0.01, 0.1, 0.5, 1.0, 3.0):
        k = 0
        for demand in range(1, 2001):
            k = reference_K(demand, eps, start=k)
            assert compute_K(demand, eps) == k, (demand, eps)
        first = math.ceil(12 * math.log(10) / math.log(1.0 + eps))
        above = [math.ceil(basis_threshold(first + j, eps)) for j in range(3)]
        for demand in large + above:
            assert compute_K(demand, eps) == reference_K(demand, eps), (demand, eps)


def test_monotonize_identical_trees_unchanged(path3):
    t = route(path3, (0, 1))
    assert monotonize([t, t], basis_grid(path3, 1.0)) == (t, t)


def test_monotonize_descending_pass_fires(triangle_cheap_root):
    g = triangle_cheap_root
    expensive = route(g, (0, 2))  # r-a plus the length-10 edge
    cheap = route(g, (0, 1))  # the two unit edges
    out = monotonize([expensive, cheap], basis_grid(g, 1.0))
    assert out == (cheap, cheap)


def test_monotonize_ascending_pass_fires(triangle_cheap_root):
    g = triangle_cheap_root
    expensive = route(g, (0, 2))
    cheap = route(g, (0, 1))
    out = monotonize([cheap, expensive], basis_grid(g, 1.0))
    assert out == (cheap, cheap)
    # buy/rent monotonicity restored
    from onetree import decompose

    decs = [decompose(t, m) for t, m in zip(out, basis_grid(g, 1.0))]
    assert decs[0].buy_cost >= decs[1].buy_cost
    assert decs[0].rent_cost <= decs[1].rent_cost


def test_monotonize_improves_each_index():
    rng = random.Random(21)
    for k in range(20):
        g = random_instance(rng)
        eps = 0.5
        top = compute_K(g.total_demand, eps)
        solver = SampleAugmentSolver(trials=2)
        raw = [solver.solve(g, (1 + eps) ** i, seed=k + i) for i in range(top + 1)]
        out = monotonize(raw, basis_grid(g, eps))
        for i in range(top + 1):
            m = (1 + eps) ** i
            here = basis_cost(out[i], m)
            if i > 0:
                assert here <= basis_cost(out[i - 1], m) * (1 + 1e-9)
            if i < top:
                assert here <= basis_cost(out[i + 1], m) * (1 + 1e-9)


def test_prune_path_example():
    # buy costs [2, 1] with gamma=2: index 1 is not a strict drop
    decs = fake_decompositions([2, 1], [0, 1])
    kept, survivors = prune(decs, 2.0, 5.236)
    assert survivors == (0,)
    assert kept == (0,)


def test_prune_keeps_strictly_geometric_sequences():
    decs = fake_decompositions([64, 16, 4, 1], [0, 1, 8, 64])
    kept, survivors = prune(decs, 2.0, 5.236)
    assert survivors == (0, 1, 2, 3)
    assert kept == (0, 1, 2, 3)


def test_prune_zero_buy_tail_keeps_single_zero():
    decs = fake_decompositions([4, 1, 0, 0], [0, 1, 2, 3])
    kept, survivors = prune(decs, 2.0, 5.236)
    assert survivors == (0, 1, 2)
    assert 3 not in survivors


def test_prune_keeps_zero_cost_where_the_quotient_underflows():
    # 1e-323 / 9 and 5e-324 / 2 round to 0.0, yet a zero cost is still a
    # strict drop from a positive one; from a zero cost it is not
    decs = fake_decompositions([5e-324, 0, 0], [0, 1e-323, 1e-323])
    kept, survivors = prune(decs, 2.0, 9.0)
    assert survivors == (0, 1)
    assert kept == (0, 1)


def test_layerset_invariants_on_random_instances():
    rng = random.Random(3)
    params = Parameters(eps=0.5, alpha=GOLDEN_ALPHA, gamma=2.0, delta=5.236)
    for k in range(40):
        g = random_instance(rng)
        layers = compute_layers(g, params, ExactSolver(), seed=k)
        verify_layerset(layers)
        assert 0 in layers.kept
        assert max(layers.kept_buy) in layers.kept
        decs = layers.decompositions
        for i in range(layers.top_index):
            assert decs[i].buy_cost >= decs[i + 1].buy_cost - 1e-9
            assert decs[i].rent_cost <= decs[i + 1].rent_cost + 1e-9
        for i in range(layers.top_index + 1):
            assert layers.thresholds[i] == basis_threshold(i, params.eps)
            assert layers.costs[i] == basis_cost(layers.trees[i], layers.thresholds[i])


def test_structure_indexing_caps():
    rng = random.Random(8)
    gamma, delta = 2.0, 5.236
    params = Parameters(eps=0.5, alpha=GOLDEN_ALPHA, gamma=gamma, delta=delta)
    for k in range(30):
        g = random_instance(rng)
        layers = compute_layers(g, params, SampleAugmentSolver(trials=4), seed=k)
        verify_layerset(layers)
        decs = layers.decompositions
        for want in range(layers.top_index + 1):
            anchor = max(j for j in layers.kept_buy if j <= want)
            i = min(i for i in layers.kept if i >= anchor)
            assert decs[i].buy_cost <= gamma * decs[want].buy_cost + 1e-9
            assert decs[i].rent_cost <= delta * decs[want].rent_cost + 1e-9


def test_geometric_drop_along_kept_indices():
    rng = random.Random(13)
    gamma, delta = 2.0, 5.236
    params = Parameters(eps=0.5, alpha=GOLDEN_ALPHA, gamma=gamma, delta=delta)
    for k in range(30):
        g = random_instance(rng)
        layers = compute_layers(g, params, ExactSolver(), seed=k)
        decs = layers.decompositions
        survivors = layers.kept_buy
        for a, b in zip(survivors, survivors[1:]):
            assert decs[b].buy_cost < decs[a].buy_cost / gamma
        kept_desc = sorted(layers.kept, reverse=True)
        for a, b in zip(kept_desc, kept_desc[1:]):
            assert decs[b].rent_cost < decs[a].rent_cost / delta


def test_first_index_always_fully_bought():
    rng = random.Random(44)
    params = Parameters(eps=1.0, alpha=GOLDEN_ALPHA, gamma=2.0, delta=5.236)
    for k in range(20):
        g = random_instance(rng)
        layers = compute_layers(g, params, ExactSolver(), seed=k)
        assert layers.decompositions[0].rent_cost == 0.0
