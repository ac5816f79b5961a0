import math
import random
import sys

import pytest

from onetree import (
    ConfigError,
    ExactSolver,
    InvariantError,
    Parameters,
    SampleAugmentSolver,
    basis_cost,
    basis_threshold,
    compute_layers,
    decompose,
    monotonize,
    optimal_parameters,
    prune,
    route,
    threshold_grid,
    verify_layerset,
)
from onetree import layers as layers_module
from onetree.builder import GOLDEN_ALPHA
from onetree.routing import RentBuyDecomposition, buy_cutoff

from corpus import random_instance
from helpers import basis_grid, reference_monotonize, workload, workload_instances


def fake_decompositions(buys, rents):
    return tuple(
        RentBuyDecomposition(
            rent_cost=float(r),
            buy_cost=float(b),
            core=frozenset({0}),
        )
        for b, r in zip(buys, rents)
    )


def test_threshold_grid_values():
    assert threshold_grid(1, 0.5) == (1.0,)
    assert threshold_grid(2, 1.0) == (1.0, 2.0)
    assert threshold_grid(8, 1.0) == (1.0, 2.0, 4.0, 8.0)  # exact power boundary
    grid = threshold_grid(100, 0.1)
    assert grid == tuple(basis_threshold(i, 0.1) for i in range(50))
    assert grid[-2] < 100 <= grid[-1]


@pytest.mark.parametrize(
    "demand, eps, top", [(10**308, 1.0, 1024), (int(1.7e308), 0.5, 1751)], ids=["1e308", "1.7e308"]
)
def test_threshold_grid_tops_out_at_the_largest_float(demand, eps, top):
    # (1 + eps) ** top is past the largest float, and the power before it is
    # below the demand: the top threshold is the largest float, which no
    # flow passes
    assert basis_threshold(top - 1, eps) < demand
    assert basis_threshold(top, eps) == sys.float_info.max
    assert len(threshold_grid(demand, eps)) == top + 1


def test_threshold_grid_refuses_a_demand_past_the_float_range():
    with pytest.raises(ConfigError, match="^total demand is past the float range$"):
        threshold_grid(10**400, 1.0)


def test_threshold_grid_boundary_inputs():
    # exact powers of two end the grid at their own index; past 10^12 an
    # integer just above a threshold is inside the 1e-12 slack, so the grid
    # ends at that threshold, below the demand
    powers = [
        (2**29, 1.0, 29), (2**31, 1.0, 31), (2**58, 1.0, 58),
        (2**29, 0.1, 211), (2**31, 0.01, 2160), (2**58, 1e-3, 40223),
    ]
    just_above = [
        (1_000_165_605_874, 1e-3, 27645), (1_001_048_212_311, 0.01, 2777),
        (1_008_971_027_944, 0.1, 290), (1_413_503_456_554, 0.5, 69),
    ]
    for demand, eps, top in powers + just_above:
        grid = threshold_grid(demand, eps)
        assert grid == tuple(basis_threshold(i, eps) for i in range(top + 1)), (demand, eps)
        assert grid[-2] < demand * (1.0 - 1e-12), (demand, eps)
        assert (grid[-1] < demand) == ((demand, eps, top) in just_above), (demand, eps)


def test_threshold_grid_refuses_eps_and_the_cap():
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="^eps must be positive$"):
            threshold_grid(5, eps)
    with pytest.raises(ConfigError, match="1 \\+ eps rounds to 1$"):
        threshold_grid(5, 1e-300)
    # the least demand whose grid passes K = MAX_K is refused; one below is not
    eps = 1e-4
    at_cap = math.floor(basis_threshold(layers_module.MAX_K, eps))
    assert len(threshold_grid(at_cap, eps)) == layers_module.MAX_K + 1
    with pytest.raises(ConfigError, match="the cap is K = 100000$"):
        threshold_grid(at_cap + 1, eps)


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
        top = len(basis_grid(g, eps)) - 1
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


def _workload_layers(name, seed):
    """Each graph of benchmark workload ``name`` at ``seed`` with its layers,
    found as the benchmark runs it: sample-and-augment with the workload's
    trials and eps, and seed 0."""
    w = workload(name)
    params = optimal_parameters(lambda_descriptor=f"heuristic(trials={w.trials})", eps=w.eps)
    solver = SampleAugmentSolver(trials=w.trials)
    return [(g, compute_layers(g, params, solver), solver) for g in workload_instances(name, [seed])]


def _corpus_layers():
    """The CI corpus (8 instances of ``random.Random(3)``) with its layers at
    --ssrob exact --eps 0.5."""
    rng = random.Random(3)
    params = optimal_parameters(lambda_descriptor="exact", eps=0.5)
    solver = ExactSolver()
    graphs = [random_instance(rng) for _ in range(8)]
    return [(g, compute_layers(g, params, solver), solver) for g in graphs]


@pytest.mark.parametrize(
    "source",
    [*((name, seed) for name in ("sa_mid", "huge_demand", "oracle_n14") for seed in (1, 3)), "corpus"],
    ids=lambda source: source if source == "corpus" else "%s-seed%d" % source,
)
def test_decompositions_match_a_fresh_decompose_once_per_bought_set(source, monkeypatch):
    # each index's decomposition is decompose(tree, threshold) bit for bit,
    # though decompose runs once per tree and bought set; the monotonized
    # trees are the reference loops' over the solver's trees, which the
    # memos hand back as the same objects
    calls = []

    def counted(tree, threshold):
        calls.append(threshold)
        return decompose(tree, threshold)

    monkeypatch.setattr(layers_module, "decompose", counted)
    runs = _corpus_layers() if source == "corpus" else _workload_layers(*source)
    bought = set()
    for g, found, solver in runs:
        raw = [solver.solve(g, m, seed=i) for i, m in enumerate(found.thresholds)]
        assert list(map(id, found.trees)) == list(map(id, reference_monotonize(raw, found.thresholds)))
        for i, (t, m, dec) in enumerate(zip(found.trees, found.thresholds, found.decompositions)):
            fresh = decompose(t, m)
            assert dec.rent_cost.hex() == fresh.rent_cost.hex(), i
            assert dec.buy_cost.hex() == fresh.buy_cost.hex(), i
            assert dec.core == fresh.core, i
            cutoff = buy_cutoff(m)
            bought.add((id(t), frozenset(e for e, f in zip(t.edge_ids, t.flows) if f >= cutoff)))
    assert len(calls) == len(bought)


@pytest.mark.parametrize("kept_buy", [(111, 128, 130), ()], ids=["no index 0", "empty"])
def test_verify_layerset_refuses_survivors_without_index_0(kept_buy):
    # the seed-1 huge_demand layers keep (0, 130) of survivors (0, 111, 128,
    # 130); survivors without index 0 give no layer to index 0
    ((_g, found, _solver),) = _workload_layers("huge_demand", 1)
    assert (found.kept, found.kept_buy) == ((0, 130), (0, 111, 128, 130))
    verify_layerset(found)
    with pytest.raises(InvariantError, match="index 0 missing"):
        verify_layerset(found._replace(kept_buy=kept_buy))
