"""Rent-or-buy solvers for a single basis threshold.

Two interchangeable solvers, both deterministic given a seed:

- An exact oracle: the subset DP of Dreyfus and Wagner (Networks 1, 1971)
  in the send-and-split form that Erickson, Monma and Veinott give for
  single-sink concave-cost flow (Math. Oper. Res. 12, 1987). Its terminals
  are the t positive-demand vertices other than the root. A terminal set S
  with demand D(S) pays w(S) = Σ a_i·min(D(S), M_i) per unit of length, and
  over the branch vertices (the root, the terminals and every vertex with
  three or more neighbours, the only places an optimal tree can fork):

  - split: G[S][v] = min over A ⊂ S of F[A][v] + F[S∖A][v];
  - send: F[S][v] = min over u of G[S][u] + w(S)·dist(u, v).

  F[T][root] over all terminals T is the least cost of any tree, exact for
  every concave nondecreasing w with w(0) = 0 (a negative or NaN
  threshold or coefficient is refused), so one code path serves a single
  threshold and a combination of them. The winning sends are read back
  from the few rows they touch and expanded into shortest paths; the
  answer is their flow support, since an edge with no flow costs nothing.
  Only a support that ``route`` refuses (a cycle, or a circulation off the
  root) has its cycles cancelled first. Cost ties go to the first minimum
  in the DP's scan order: a send from the least branch vertex id, then a
  split whose part holding the set's least terminal has the smallest
  bitmask (terminals ordered by vertex id). The one limit is
  ``ORACLE_CELL_BUDGET``.

  What every solve of an instance shares is set up once (``_oracle_setup``)
  with a memo of answers by w, so a repeated w skips the DP, and the last
  DP's tables with their w, so a new w refills only the sizes from the
  least one whose weights changed; an answer whose cycles were cancelled
  is not kept, since a cancel reads the thresholds, not w. When every
  nonempty set weighs the same, as at each threshold at or below the least
  demand, w is first set to ones: each loaded edge of a tree carries some
  set's demand, so a tree costs that one weight times its support's
  length, the optima stay the same, and all such thresholds share one
  answer whichever asks first.
- A randomized sample-and-augment heuristic (``sample_and_augment``);
  cost ties between its trials go to the smaller edge-id tuple. It gives
  the plain per-trial algorithm's trees but memoizes on the instance what
  trials and thresholds share: terminal shortest-path trees, which also
  bound each rent search to the vertices a rent path can use, each seed's
  draws and each marked set's routed trial tree. The solve at threshold
  index i gets seed + i and its trial t draws from
  ``random.Random(seed + i + t)``, so K+1 indices of T trials use at most
  K+T streams. A stream's marked set only shrinks as the threshold grows, so
  over d demand vertices a run builds at most min((K+1)·T, (K+T)·(d+1))
  trial trees, one per marked set, and routes each distinct edge set once.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import chain, compress
from operator import lt
from typing import Callable, Container, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InvalidTreeError, OracleLimitError
from .graph import (
    INF,
    SUPERNODE,
    Edge,
    Instance,
    PathTree,
    UnionFind,
    bounded_search,
    minimum_spanning_forest,
    ordered_sum,
    shortest_path_tree,
    tree_walk,
)
from .routing import RoutedTree, basis_cost, route

#: Most array cells the exact oracle's subset DP may take, counted as
#: 3^t·n + 2^t·n² for t terminals and n branch vertices. An instance over it
#: is refused with OracleLimitError before any search, on every call; the
#: set-up's n shortest-path searches, one per branch vertex, are not counted.
ORACLE_CELL_BUDGET = 2**26
#: Most array cells in one block of the subset DP's temporaries.
_DP_BLOCK = 2**16
#: Most trials one sample-and-augment solve may run; a run memoizes one draw
#: per demand vertex for each trial's seed, so more is refused with ConfigError.
MAX_TRIALS = 10_000


@lru_cache(maxsize=16)
def _dp_plan(
    t: int,
) -> tuple[np.ndarray, tuple[int, ...], tuple[tuple[int, int, np.ndarray], ...]]:
    """The subset DP's index plan for t terminals. Its rows hold the terminal
    sets by size, and within a size by ascending bitmask, so row 0 is the
    empty set and the last row all terminals. Returns each row's bitmask,
    each row's size and, per size k = 1..t, the first row, the row after the
    last and a (2, splits, sets) array: under each k-set, one column per
    set, the rows of the part holding its least terminal, one per proper
    split in ascending bitmask order, and the rows of their complements.
    Rows are stored in the least unsigned type that holds them."""
    masks = np.arange(1 << t)
    size = sum(((masks >> i) & 1 for i in range(t)), np.zeros_like(masks))
    by_size = [masks[size == k] for k in range(t + 1)]
    order = np.concatenate(by_size)
    row = np.empty(1 << t, np.min_scalar_type(masks[-1]))
    row[order] = masks
    levels, lo = [], 1
    for k, sets in enumerate(by_size[1:], start=1):
        bits = np.nonzero((sets[:, None] >> np.arange(t)) & 1)[1].reshape(len(sets), k)
        picks = (np.arange(2 ** (k - 1) - 1)[:, None] >> np.arange(k - 1)) & 1
        parts = picks @ (1 << bits[:, 1:]).T
        parts += 1 << bits[:, 0]
        pairs = np.empty((2, *parts.shape), row.dtype)
        np.take(row, parts, out=pairs[0])
        parts ^= sets
        np.take(row, parts, out=pairs[1])
        levels.append((lo, lo + len(sets), pairs))
        lo += len(sets)
    return order, tuple(size[order].tolist()), tuple(levels)


def _subset_dp(
    w: np.ndarray, dist_t: np.ndarray, starts: np.ndarray, last: list
) -> tuple[np.ndarray, np.ndarray]:
    """The send table F and the split table G, one row per terminal set in
    ``_dp_plan`` order and one column per branch vertex, for per-row weights
    ``w``, transposed branch distances ``dist_t`` (dist_t[v, u] from u to v)
    and the one-terminal sets' split rows ``starts`` (0 at the terminal's
    own column, INF elsewhere). ``last`` is empty or the previous call's
    [w, F, G], whose tables are refilled in place; either way it is left
    holding this call's. Size-k rows read only the weights of sets of size
    at most k, so sizes below the least one whose weights changed are kept,
    that size keeps its splits and is sent, and every larger size is split
    and sent; a first call fills every size. Each step runs in blocks of at
    most _DP_BLOCK cells that write their slice of the table in place, and
    row 0, the empty set, is never written."""
    n = len(dist_t)
    size, levels = _dp_plan(len(starts))[1:]
    if last:
        old, F, G = last
        changed = np.flatnonzero(w != old)
        first = size[changed[0]] if len(changed) else len(starts) + 1
    else:
        F, G, first = np.empty((len(w), n)), np.empty((len(w), n)), 1
        G[1 : 1 + len(starts)] = starts
    last[:] = w, F, G
    cols = max(1, min(n, _DP_BLOCK // n))
    least = np.minimum.reduce
    for k, (lo, hi, pairs) in enumerate(levels[first - 1 :], start=first):
        if k > first:
            step = max(1, _DP_BLOCK // (pairs.shape[1] * n))
            for a in range(lo, hi, step):
                p = pairs[:, :, a - lo : a - lo + step]
                least(F[p[0]] + F[p[1]], axis=0, out=G[a : min(a + step, hi)])
        step = max(1, _DP_BLOCK // (n * cols))
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            here, weight = G[a:b, None, :], w[a:b, None, None]
            for c in range(0, n, cols):
                least(here + weight * dist_t[c : c + cols], axis=2, out=F[a:b, c : c + cols])
    return F, G


def _first_cycle(g: Instance, eids: Sequence[int]) -> list[tuple[int, int]]:
    """The cycle closed by the first edge of ``eids``, in id order, that
    closes one, as (edge id, +1 or -1) pairs, +1 where the cycle runs from
    the edge's end u to its end v; empty if the edges form a forest."""
    edges = [g.edge_by_id[eid] for eid in sorted(eids)]
    uf = UnionFind({x for e in edges for x in (e.u, e.v)})
    forest: set[int] = set()
    for e in edges:
        if uf.union(e.u, e.v):
            forest.add(e.eid)
            continue
        cycle, via, x = [(e.eid, 1)], tree_walk(g, e.u, forest), e.v
        while x != e.u:
            parent, eid = via[x]
            cycle.append((eid, 1 if g.edge_by_id[eid].u == x else -1))
            x = parent
        return cycle
    return []


def _acyclic_support(
    g: Instance, flow: dict[int, int], unit_cost: Callable[[int], float]
) -> frozenset[int]:
    """The support of ``flow`` (edge id -> flow from its end u to its end v)
    after cancelling every cycle in it.

    A push of δ units around a cycle keeps each edge's flow on its side of 0
    for δ in some [lo, hi]; there the cost, a sum of concave functions of δ,
    is least at an end, so the push goes to the cheaper end (ties to lo),
    which empties an edge and costs no more. An end may be infinite, when
    every edge runs one way round the cycle: each flow grows toward it, so
    the push goes to the finite end. The support left is a forest in which
    every edge carries demand to the root.
    """
    flow = {eid: f for eid, f in flow.items() if f}
    while cycle := _first_cycle(g, list(flow)):
        agree = [abs(flow[eid]) for eid, d in cycle if (flow[eid] > 0) == (d > 0)]
        against = [abs(flow[eid]) for eid, d in cycle if (flow[eid] > 0) != (d > 0)]
        pushes = ([-min(agree)] if agree else []) + ([min(against)] if against else [])

        def cost(delta: int) -> float:
            return ordered_sum(
                g.edge_by_id[eid].length * unit_cost(abs(flow[eid] + d * delta))
                for eid, d in cycle
            )

        delta = min(pushes, key=cost)
        for eid, d in cycle:
            flow[eid] += d * delta
            if not flow[eid]:
                del flow[eid]
    return frozenset(flow)


class _OracleSetup(NamedTuple):
    """What the subset-DP solves of one instance share; see _oracle_setup."""

    keys: tuple[int, ...]
    root: int
    dist_t: np.ndarray
    total: np.ndarray
    amount: tuple[int, ...]
    starts: np.ndarray
    answers: dict[bytes, RoutedTree]
    tables: list


def _oracle_setup(g: Instance) -> _OracleSetup:
    """What every subset-DP solve of ``g`` shares: the branch vertices of
    the root's component in id order (``keys``; neighbours are counted in
    ``g.adjacency``) and the root's column among them, the transposed
    distances between them (dist_t[v, u] from u to v in v's shortest-path
    tree), each terminal set's demand per DP row (``_dp_plan`` order),
    summed in float64 (``total``) and as an integer (``amount``), the
    one-terminal sets' split rows (``starts``), the answers by weights
    (``answers``; see the module docstring) and, once a DP has run, its
    [w, F, G] (``tables``; see _subset_dp). Kept in ``g.oracle_setup`` and
    dropped with ``g``; raises OracleLimitError per ORACLE_CELL_BUDGET,
    never kept.
    """
    if g.oracle_setup:
        return g.oracle_setup[0]
    reached = tree_walk(g, g.root)
    terms = [v for v, _ in g.demand_items if v != g.root]
    forks = [v for v in reached if len({w for w, _, _ in g.adjacency[v]}) >= 3]
    keys = sorted({g.root, *terms, *forks})
    t, n = len(terms), len(keys)
    cells = 3**t * n + 2**t * n * n
    if cells > ORACLE_CELL_BUDGET:
        raise OracleLimitError(
            f"instance too large for oracle: its subset DP takes {cells} array cells,"
            f" over {ORACLE_CELL_BUDGET}"
        )
    # one search per branch vertex; only those from terminals and the root,
    # which sample-and-augment shares, are kept, since n trees hold n² labels
    dist_t = np.empty((n, n))
    for j, v in enumerate(keys):
        tree = _source_tree(g, v) if v in terms or v == g.root else shortest_path_tree(g, v)
        dist_t[j] = [tree[0][u] for u in keys]
    total, amount = np.zeros(1), [0]
    for v in terms:
        total = np.concatenate((total, total + float(g.demands[v])))
        amount += [a + g.demands[v] for a in amount]
    starts = np.full((t, n), INF)
    starts[range(t), [keys.index(v) for v in terms]] = 0.0
    order = _dp_plan(t)[0]
    g.oracle_setup.append(_OracleSetup(
        tuple(keys), keys.index(g.root), dist_t, total[order],
        tuple(amount[s] for s in order.tolist()), starts, {}, [],
    ))
    return g.oracle_setup[0]


def best_tree_for_combination(
    g: Instance, thresholds: Sequence[float], coefficients: Sequence[float]
) -> RoutedTree:
    """Tree at the root spanning the demand that minimizes
    sum_i coefficients[i] * cost(thresholds[i]), by the subset DP, with its
    tie rule and memo (module docstring). Every edge of it carries flow.

    Raises ConfigError for a negative or NaN threshold or a negative, NaN or
    infinite coefficient, where w is no concave nondecreasing function, and
    OracleLimitError per ORACLE_CELL_BUDGET.
    """
    if len(thresholds) != len(coefficients):
        raise ConfigError("thresholds and coefficients must have equal length")
    if not all(m >= 0 for m in thresholds):
        raise ConfigError("thresholds must be nonnegative numbers")
    if not all(0 <= a < INF for a in coefficients):
        raise ConfigError("coefficients must be finite nonnegative numbers")
    setup = _oracle_setup(g)
    _order, size, levels = _dp_plan(len(setup.starts))
    basis_terms = [(a, m) for a, m in zip(coefficients, thresholds) if a]
    w = np.zeros(len(setup.total))
    for a, m in basis_terms:
        w += a * np.minimum(setup.total, m)
    if w[-1] > 0 and (w[1:] == w[-1]).all():  # equal weights: one answer for all
        w[1:] = 1.0
    weights = w.tobytes()
    tree = setup.answers.get(weights)
    if tree is not None:
        return tree
    F, G = _subset_dp(w, setup.dist_t, setup.starts, setup.tables)

    # expand the winning sends, from all terminals at the root down, into
    # paths of the destination's shortest-path tree, with their flows; each
    # minimum is taken over Python floats formed as the DP forms them, and
    # list.index gives np.argmin's first minimum
    keys, flow = setup.keys, {}
    stack = [(len(w) - 1, setup.root)] if len(w) > 1 else []
    while stack:
        r, v = stack.pop()
        weight = float(w[r])
        sends = [x + weight * d for x, d in zip(G[r].tolist(), setup.dist_t[v].tolist())]
        u = sends.index(min(sends))
        amount = setup.amount[r]
        x, pred = keys[u], _source_tree(g, keys[v])[1]
        while x != keys[v]:
            x, eid = pred[x]
            flow[eid] = flow.get(eid, 0) + (amount if g.edge_by_id[eid].v == x else -amount)
        if size[r] > 1:
            lo, _hi, pairs = levels[size[r] - 1]
            split = pairs[:, :, r - lo]
            ones, others = F[split, u].tolist()
            joined = [a + b for a, b in zip(ones, others)]
            i = joined.index(min(joined))
            stack += [(int(split[0, i]), u), (int(split[1, i]), u)]

    try:
        tree = setup.answers[weights] = route(g, (eid for eid, f in flow.items() if f))
    except InvalidTreeError:  # a cycle, or a circulation off the root
        support = _acyclic_support(g, flow, lambda x: ordered_sum(a * min(x, m) for a, m in basis_terms))
        return route(g, support)
    return tree


def exact_ssrob(g: Instance, threshold: float) -> RoutedTree:
    """Minimum-cost routing tree for one basis threshold: the single-term
    case of :func:`best_tree_for_combination`."""
    return best_tree_for_combination(g, (threshold,), (1.0,))


def _source_tree(g: Instance, source: int) -> PathTree:
    """``shortest_path_tree(g, source)``, run once per instance and source.

    Sample-and-augment searches from terminals (demand vertices or the
    root) and the exact oracle from branch vertices, so every threshold and
    trial of one instance shares at most one tree per vertex. Callers must
    not mutate the returned dicts.
    """
    trees = g.source_trees
    tree = trees.get(source)
    if tree is None:
        tree = trees[source] = shortest_path_tree(g, source)
    return tree


def _steiner_core(
    g: Instance, terminals: frozenset[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Steiner tree over ``terminals`` by the metric-closure MST approximation,
    as its edge ids and its vertices; a lone terminal gives no edges and itself.

    MST of the complete terminal graph under shortest-path distances, paths
    expanded back into the instance. Pair a < b has key (d, a, b), with d and
    b's path to a read in a's tree. The keys are distinct, so the MST is
    unique, and dense Prim, which builds a key only if its d is at most the d
    it would replace, finds the tree that Kruskal over sorted keys finds. The
    expanded union, its vertices collected as it grows, is connected: a tree
    is returned as it is, and a union with a cycle takes an MST pass.
    """
    terms = sorted(terminals)
    trees = {t: _source_tree(g, t) for t in terms}
    best = {b: (trees[terms[0]][0][b], terms[0], b) for b in terms[1:]}
    union_edges: dict[int, Edge] = {}
    touched = set(terms)
    while best:
        d, a, b = min(best.values())
        c = b if b in best else a
        del best[c]
        x, pred = b, trees[a][1]
        while x != a:
            x, eid = pred[x]
            touched.add(x)
            union_edges[eid] = g.edge_by_id[eid]
        for x, key in best.items():
            d = trees[c][0][x] if c < x else trees[x][0][c]
            if d <= key[0]:
                pair = (d, c, x) if c < x else (d, x, c)
                if pair < key:
                    best[x] = pair

    if len(union_edges) == len(touched) - 1:
        return frozenset(union_edges), frozenset(touched)
    reduced, _ = minimum_spanning_forest(touched, union_edges.values())
    return frozenset(e.eid for e in reduced), frozenset(touched)


def _demand_paths(
    g: Instance, tree: PathTree, source: int, skip: Container[int]
) -> frozenset[int]:
    """Edges of the shortest-path ``tree`` paths to ``source`` (a vertex or
    SUPERNODE) from every demand vertex of ``g`` not in ``skip``, which
    ``tree`` must reach, as one from the root does (see Instance). Each walk
    stops at the first vertex an earlier walk reached, whose path on to
    ``source`` is already picked. Only the walked links are read, so
    ``tree`` may come from a search bounded to keep them (``_rent_paths``)."""
    pred = tree[1]
    picked: set[int] = set()
    reached = {source}
    for v, _amount in g.demand_items:
        if v in skip:
            continue
        while v not in reached:
            reached.add(v)
            v, eid = pred[v]
            picked.add(eid)
    return frozenset(picked)


def _rent_paths(g: Instance, core: frozenset[int]) -> frozenset[int]:
    """Shortest-path edges connecting every off-core demand to the ``core``
    vertex set, as ``_steiner_core`` returns it (the root included).

    The core is searched as one merged source, which gives the paths of a
    search from vertex 0 of ``contract(g, core)``, read back through its
    numbering, without building it. A core that holds every demand vertex
    sets no bound, so its search labels nothing and it rents nothing.

    The search is goal directed (Goldberg and Harrelson, SODA 2005). With
    D_t the distance from off-core demand vertex t to its nearest core
    vertex, the first core key of t's memoized ``pred`` in settle order
    (there is one: t reaches the root), x is labelled only within max over
    t of D_t·(1 + 8·n·u) - dist_t(x), u = 2^-53, so the walks read only
    unbounded labels. A search's float distance is within 1 ± γ, γ =
    n·u/(1 - n·u), of its path's exact length and at most the float sum
    along any path; bounding d(x), dist_t(x), d(t) and D_t so puts
    d(x) + dist_t(x), for x on t's path, at most ((1 + γ)/(1 - γ))^2 =
    (1 - 2·n·u)^-2 times D_t, and the margin covers that and the two
    roundings of the bound while n·u < 1/8.
    """
    bound = [-INF] * g.n
    margin = 1.0 + 8 * g.n * 2.0**-53
    for t in g.demands.keys() - core:
        dist_t, pred_t = _source_tree(g, t)
        reach = dist_t[next(filter(core.__contains__, pred_t))] * margin
        for x in chain((t,), pred_t):
            slack = reach - dist_t[x]
            if slack < 0.0:
                break
            if slack > bound[x]:
                bound[x] = slack
    return _demand_paths(g, bounded_search(g, core, bound), SUPERNODE, core)


def _marked_vertices(g: Instance, seed: int, chances: Sequence[float]) -> frozenset[int]:
    """Demand vertices marked by the stream ``random.Random(seed)``.

    The stream gives one draw per demand vertex, in ``demand_items`` order,
    and a vertex is marked when its draw is below its entry of ``chances``,
    the chance that at least one of its units is marked. Seeds recur across
    trials and thresholds, so the draws are memoized on the instance by seed.
    """
    memo = g.unit_draws
    draws = memo.get(seed)
    if draws is None:
        rng = random.Random(seed)
        draws = memo[seed] = tuple(rng.random() for _ in g.demand_items)
    return frozenset(compress(g.demands, map(lt, draws, chances)))


def _trial_tree(g: Instance, marked: frozenset[int]) -> RoutedTree:
    """The tree a trial builds from its ``marked`` demand vertices: a Steiner
    core over them and the root, plus rent paths into it. Memoized on the
    instance by marked set, which the trials of nearby thresholds draw again
    and again; with demand on the root, a set with the root and the same set
    without it share one tree under two keys."""
    memo = g.trial_trees
    tree = memo.get(marked)
    if tree is None:
        core, core_vertices = _steiner_core(g, marked | {g.root})
        tree = memo[marked] = route(g, core | _rent_paths(g, core_vertices))
    return tree


def sample_and_augment(
    g: Instance, threshold: float, seed: int = 0, trials: int = 32
) -> RoutedTree:
    """Best-of-``trials`` randomized core sampling for one threshold.

    Each trial marks every demand unit independently with probability
    p = 1/threshold, buys a Steiner core over the vertices with a marked
    unit plus the root, and rents shortest paths into the core for the
    rest. A vertex with ``amount`` units has a marked one with chance
    1 - (1 - p)^amount; these chances are computed once per solve and each
    trial takes one draw per demand vertex against them, so its cost does
    not grow with the total demand. The cheapest trial tree wins; cost ties
    go to the smaller edge-id set. Trials that mark the same set count
    once: their tree, and so its (cost, edge ids) key, is the same.

    Degenerate thresholds are handled deterministically: threshold >= total
    demand reduces to shortest-path routing; threshold <= 1, or one at which
    every chance rounds to 1, to the Steiner core over all demand vertices,
    with no draw. A threshold below 1 or NaN, or trials outside 1..MAX_TRIALS,
    raise ConfigError.
    """
    if not threshold >= 1.0:
        raise ConfigError("threshold must be >= 1")
    if not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be between 1 and {MAX_TRIALS}")
    if threshold >= g.total_demand:
        # the root's own tree, not _rent_paths({root}): a source named SUPERNODE
        # breaks (distance, predecessor id) ties differently
        return route(g, _demand_paths(g, _source_tree(g, g.root), g.root, ()))
    if threshold <= 1.0:
        return _trial_tree(g, frozenset(g.demands))

    unmarked_log = math.log1p(-1.0 / threshold)
    chances = [-math.expm1(amount * unmarked_log) for _v, amount in g.demand_items]
    if min(chances) == 1.0:  # every draw lies in [0, 1), so every trial marks all
        return _trial_tree(g, frozenset(g.demands))
    marked_sets = {_marked_vertices(g, seed + trial, chances) for trial in range(trials)}
    trees = (_trial_tree(g, marked) for marked in marked_sets)
    return min(trees, key=lambda tree: (basis_cost(tree, threshold), tree.edge_ids))


class ExactSolver:
    """Optimal basis trees by the subset DP; few demand vertices only."""

    __slots__ = ()  # no fields, and no attribute can be set
    name = "exact"
    quality = "exact"

    def solve(self, g: Instance, threshold: float, seed: int = 0) -> RoutedTree:
        return exact_ssrob(g, threshold)


class SampleAugmentSolver(NamedTuple):
    """Randomized sample-and-augment heuristic, best of ``trials`` repeats."""

    trials: int = 32
    name = "sample-augment"

    @property
    def quality(self) -> str:
        return f"heuristic(trials={self.trials})"

    def solve(self, g: Instance, threshold: float, seed: int = 0) -> RoutedTree:
        return sample_and_augment(g, threshold, seed=seed, trials=self.trials)


def get_solver(name: str, trials: int = 32):
    """Solver lookup for the CLI names 'exact' and 'sample-augment'."""
    if name == "exact":
        return ExactSolver()
    if name == "sample-augment":
        return SampleAugmentSolver(trials=trials)
    raise ConfigError(f"unknown solver '{name}' (choose 'exact' or 'sample-augment')")
