"""Command-line front end.

``onetree run`` loads instance files (or a corpus directory), runs the
layer-and-stitch pipeline, and emits the tree, a layer trace, and a JSON
report. Exit codes: 0 success, 2 validation failure, 3 internal invariant
violation (a bug, named in the message).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .builder import LayerBoundReport, SimultaneousTree, build_tree, check_layer_bounds
from .errors import (
    ConfigError,
    InstanceError,
    InvariantError,
    OneTreeError,
    OracleLimitError,
    ParseError,
)
from .evaluate import Parameters, RatioReport, optimal_parameters, simultaneous_ratio
from .graph import Instance, load_instance
from .layers import LayerSet, compute_layers, verify_layerset
from .routing import basis_cost
from .ssrob import ExactSolver, get_solver

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INVARIANT = 3

_ROUND_COLORS = (
    "black",
    "blue",
    "red",
    "forestgreen",
    "darkorange",
    "purple",
    "teal",
    "brown",
)


@dataclass
class RunConfig:
    """Everything one invocation needs; defaults match the CLI flags."""

    instances: tuple[str, ...] = ()
    corpus_dir: str | None = None
    eps: float = 0.1
    alpha: float | None = None
    gamma: float | None = None
    delta: float | None = None
    ssrob: str = "sample-augment"
    trials: int = 32
    seed: int = 0
    oracle: bool = False
    out_tree: str | None = None
    out_report: str | None = None
    verbose: int = 0
    prune_zero_flow: bool = False


@dataclass
class PipelineResult:
    """In-memory outcome of one pipeline run."""

    instance: Instance
    params: Parameters
    layers: LayerSet
    result: SimultaneousTree
    bounds: LayerBoundReport
    ratio: RatioReport | None = None
    lambda_emp: float | None = None
    oracle_skipped: bool = False


def make_parameters(cfg: RunConfig, lambda_mode: str) -> Parameters:
    """Closed-form defaults, with any of alpha/gamma/delta overridden.

    beta is never an input; it is pinned to (alpha + 1) / (alpha - 1).
    """
    defaults = optimal_parameters(lambda_descriptor=lambda_mode, eps=cfg.eps)
    if cfg.alpha is None and cfg.gamma is None and cfg.delta is None:
        return defaults
    alpha = defaults.alpha if cfg.alpha is None else cfg.alpha
    gamma = defaults.gamma if cfg.gamma is None else cfg.gamma
    delta = defaults.delta if cfg.delta is None else cfg.delta
    if alpha <= 1:
        raise ConfigError("alpha must be > 1")
    return Parameters(
        eps=cfg.eps,
        alpha=alpha,
        beta=(alpha + 1.0) / (alpha - 1.0),
        gamma=gamma,
        delta=delta,
        lambda_mode=lambda_mode,
    )


def solve_instance(
    g: Instance,
    params: Parameters,
    solver,
    seed: int = 0,
    oracle=None,
    prune_zero_flow: bool = False,
) -> PipelineResult:
    """Layers, stitched tree, bound checks, and (optionally) oracle ratios.

    Raises InvariantError if any structural property or cost bound fails.
    An oracle refusing an oversized instance is recorded, not raised.
    """
    layers = compute_layers(g, params.eps, solver, params.gamma, params.delta, seed=seed)
    verify_layerset(layers)
    result = build_tree(g, layers, params.alpha, prune_zero_flow=prune_zero_flow)
    bounds = check_layer_bounds(result, layers, params)
    if not bounds.all_ok:
        raise InvariantError(f"layer cost bound violated: {bounds.first_failure()}")

    ratio = None
    lambda_emp = None
    oracle_skipped = False
    if oracle is not None:
        try:
            ratio = simultaneous_ratio(result.tree, g, params.eps, oracle, seed=seed)
        except OracleLimitError:
            oracle_skipped = True
        else:
            if solver.quality != "exact" and oracle.quality == "exact":
                lambda_emp = _measure_solver_quality(layers, ratio)
    return PipelineResult(
        instance=g,
        params=params,
        layers=layers,
        result=result,
        bounds=bounds,
        ratio=ratio,
        lambda_emp=lambda_emp,
        oracle_skipped=oracle_skipped,
    )


def _load_and_solve(text: str, cfg: RunConfig) -> PipelineResult:
    """Parse one instance file and run the configured pipeline on it."""
    g = load_instance(text)
    solver = get_solver(cfg.ssrob, cfg.trials)
    params = make_parameters(cfg, solver.quality)
    oracle = ExactSolver() if cfg.oracle else None
    return solve_instance(
        g, params, solver, seed=cfg.seed, oracle=oracle, prune_zero_flow=cfg.prune_zero_flow
    )


def _measure_solver_quality(layers: LayerSet, ratio: RatioReport) -> float:
    """Worst per-threshold factor of the (monotonized) basis trees over the
    oracle optima."""
    worst = 1.0
    for row in ratio.rows:
        cost = basis_cost(layers.trees[row.index], row.threshold)
        if row.optimal_cost > 0.0:
            worst = max(worst, cost / row.optimal_cost)
        elif cost > 1e-12:
            worst = float("inf")
    return worst


def build_report(name: str, res: PipelineResult) -> dict:
    """Full JSON-serializable report for one run.

    The ratio keys (eps, K, per_i, max_ratio, argmax_i, params, lambda_mode)
    sit at the top level; layer trace, bound checks, and the tree ride along.
    """
    if res.ratio is not None:
        report = res.ratio.to_json_dict(res.params)
    else:
        report = {
            "eps": res.params.eps,
            "K": res.layers.top_index,
            "per_i": None,
            "max_ratio": None,
            "argmax_i": None,
            "params": res.params.to_json_dict(),
            "lambda_mode": None,
        }
    report["instance"] = name
    report["oracle_skipped"] = res.oracle_skipped
    report["lambda_emp"] = res.lambda_emp
    report["layers"] = {
        "L": list(res.layers.kept),
        "L_B": list(res.layers.kept_buy),
        "per_index": [
            {
                "i": dec.index,
                "M": dec.threshold,
                "B": dec.buy_cost,
                "R": dec.rent_cost,
                "core_size": len(dec.core),
            }
            for dec in res.layers.decompositions
        ],
    }
    report["bound_checks"] = {
        "all_ok": res.bounds.all_ok,
        "buy_constant_observed": res.bounds.buy_constant_observed,
        "rent_constant_observed": res.bounds.rent_constant_observed,
        "per_layer": [
            {
                "i": row.index,
                "buy_edge_cost": row.buy_edge_cost,
                "buy_bound": row.buy_bound,
                "rent_flow_cost": row.rent_flow_cost,
                "rent_bound": row.rent_bound,
                "ok": row.buy_ok and row.rent_ok,
            }
            for row in res.bounds.rows
        ],
        "structure": [
            {"i": row.index, "cost": row.tree_cost, "cap": row.cap, "ok": row.ok}
            for row in res.bounds.structure_rows
        ],
    }
    tree = res.result.tree
    report["tree"] = {
        "edges": [
            [e.eid, e.u, e.v, e.length, flow]
            for e, flow in zip(tree.edges, tree.flows)
        ],
        "total_length": tree.total_length,
        "rounds": [
            {
                "i": r.index,
                "core_size": r.core_size,
                "graph_vertices": r.graph_vertices,
                "graph_edges": r.graph_edges,
                "added": list(r.added_edges),
            }
            for r in res.result.rounds
        ],
    }
    return report


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def edge_list_text(res: PipelineResult) -> str:
    tree = res.result.tree
    lines = ["# eid u v length flow"]
    for e, flow in zip(tree.edges, tree.flows):
        length = int(e.length) if e.length == int(e.length) else e.length
        lines.append(f"{e.eid} {e.u} {e.v} {length} {flow}")
    return "\n".join(lines) + "\n"


def dot_text(res: PipelineResult, include_zero_flow: bool = False) -> str:
    """Graphviz rendering: edges colored by the round that laid them,
    zero-flow edges dashed (hidden unless ``include_zero_flow``)."""
    g = res.instance
    tree = res.result.tree
    round_of: dict[int, int] = {}
    for position, build_round in enumerate(res.result.rounds):
        for eid in build_round.added_edges:
            round_of[eid] = position
    lines = ["graph onetree {"]
    demands = g.demands
    for v in sorted(tree.vertices):
        if v == g.root:
            lines.append(f'  {v} [shape=doublecircle, label="{v} (root)"];')
        elif v in demands:
            lines.append(f'  {v} [label="{v} (d={demands[v]})"];')
        else:
            lines.append(f'  {v} [color=gray, label="{v}"];')
    for e, flow in zip(tree.edges, tree.flows):
        if flow == 0 and not include_zero_flow:
            continue
        color = _ROUND_COLORS[round_of.get(e.eid, 0) % len(_ROUND_COLORS)]
        style = ", style=dashed" if flow == 0 else ""
        lines.append(
            f'  {e.u} -- {e.v} [label="x={flow}", color={color}{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write(path: Path, data: bytes) -> None:
    """Write an output file; failure is a bad argument, not a crash."""
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_tree_artifacts(res: PipelineResult, out_tree: str) -> None:
    path = Path(out_tree)
    if path.suffix == ".dot":
        _write(path, dot_text(res).encode())
    else:
        _write(path, edge_list_text(res).encode())
        _write(path.with_suffix(path.suffix + ".dot"), dot_text(res).encode())


def run_pipeline(cfg: RunConfig) -> int:
    """Run each configured instance; returns the process exit code."""
    if not cfg.instances:
        print("error: no instance files given", file=sys.stderr)
        return EXIT_INVALID
    if len(cfg.instances) > 1 and (cfg.out_tree or cfg.out_report):
        print("error: --out-tree/--out-report need a single instance", file=sys.stderr)
        return EXIT_INVALID
    for name in cfg.instances:
        try:
            text = Path(name).read_text()
        except OSError as exc:
            print(f"error: cannot read {name}: {exc}", file=sys.stderr)
            return EXIT_INVALID
        try:
            res = _load_and_solve(text, cfg)
        except (ParseError, InstanceError, ConfigError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except InvariantError as exc:
            print(f"invariant violation: {name}: {exc}", file=sys.stderr)
            return EXIT_INVARIANT

        report = build_report(name, res)
        if cfg.out_report:
            _write(Path(cfg.out_report), report_bytes(report))
        if cfg.out_tree:
            _write_tree_artifacts(res, cfg.out_tree)
        _print_summary(name, res, cfg.verbose)
    return EXIT_OK


def _print_summary(name: str, res: PipelineResult, verbose: int) -> None:
    tree = res.result.tree
    bits = [
        f"{name}:",
        f"K={res.layers.top_index}",
        f"|L|={len(res.layers.kept)}",
        f"tree_edges={len(tree.edge_ids)}",
        f"length={tree.total_length:g}",
    ]
    if res.oracle_skipped:
        bits.append("oracle=skipped")
    elif res.ratio is not None:
        bits.append(f"max_ratio={res.ratio.max_ratio:.6f}")
        if res.lambda_emp is not None:
            bits.append(f"lambda_emp={res.lambda_emp:.6f}")
    print(" ".join(bits))
    if verbose:
        for dec in res.layers.decompositions:
            kept = "*" if dec.index in res.layers.kept else " "
            print(
                f"  [{kept}] i={dec.index} M={dec.threshold:g} "
                f"B={dec.buy_cost:g} R={dec.rent_cost:g} core={len(dec.core)}"
            )


def run_corpus(directory: str, cfg: RunConfig) -> int:
    """Batch mode over *.graph files; per-file errors do not stop the batch."""
    files = sorted(Path(directory).glob("*.graph"))
    if not files:
        print(f"error: no *.graph files in {directory}", file=sys.stderr)
        return EXIT_INVALID
    rows: list[dict] = []
    invariant_failures = 0
    for path in files:
        row: dict = {"instance": path.name}
        try:
            res = _load_and_solve(path.read_text(), cfg)
        except (ParseError, InstanceError, ConfigError) as exc:
            row.update(status="error", detail=str(exc))
            rows.append(row)
            continue
        except InvariantError as exc:
            invariant_failures += 1
            row.update(status="invariant-violation", detail=str(exc))
            rows.append(row)
            continue
        row.update(
            status="oracle skipped" if res.oracle_skipped else "ok",
            n=res.instance.n,
            m=len(res.instance.edges),
            D=res.instance.total_demand,
            K=res.layers.top_index,
            layers=len(res.layers.kept),
            tree_length=res.result.tree.total_length,
            max_ratio=res.ratio.max_ratio if res.ratio else None,
            lambda_emp=res.lambda_emp,
            bounds_ok=res.bounds.all_ok,
        )
        rows.append(row)

    ratios = [r["max_ratio"] for r in rows if r.get("max_ratio") is not None]
    summary = {
        "corpus": str(directory),
        "instances": len(rows),
        "ok": sum(1 for r in rows if r["status"] == "ok"),
        "errors": sum(1 for r in rows if r["status"] == "error"),
        "oracle_skipped": sum(1 for r in rows if r["status"] == "oracle skipped"),
        "invariant_violations": invariant_failures,
        "aggregate_max_ratio": max(ratios) if ratios else None,
        "rows": rows,
    }
    if cfg.out_report:
        target = Path(cfg.out_report)
        _write(target, report_bytes(summary))
        _write(target.with_suffix(".csv"), _corpus_csv(rows).encode())
    print(
        f"{directory}: {summary['ok']}/{summary['instances']} ok, "
        f"aggregate max ratio "
        f"{summary['aggregate_max_ratio'] if ratios else 'n/a'}"
    )
    if cfg.verbose:
        for row in rows:
            print(f"  {row['instance']}: {row['status']}")
    return EXIT_INVARIANT if invariant_failures else EXIT_OK


_CSV_FIELDS = (
    "instance",
    "status",
    "n",
    "m",
    "D",
    "K",
    "layers",
    "tree_length",
    "max_ratio",
    "lambda_emp",
    "bounds_ok",
    "detail",
)


def _corpus_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in _CSV_FIELDS})
    return buffer.getvalue()


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onetree",
        description=(
            "Build one aggregation tree that approximates the optimum for "
            "every concave edge-cost function at once."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the pipeline on instance files or a corpus")
    run.add_argument("instances", nargs="*", help="instance files")
    run.add_argument("--corpus", metavar="DIR", help="run every *.graph file in DIR")
    run.add_argument("--eps", type=float, default=0.1, help="threshold grid ratio (default 0.1)")
    run.add_argument("--alpha", type=float, default=None, help="LAST stretch (> 1)")
    run.add_argument("--gamma", type=float, default=None, help="buy-cost drop factor (> 1)")
    run.add_argument("--delta", type=float, default=None, help="rent-cost growth factor (> alpha + 1)")
    run.add_argument(
        "--ssrob",
        choices=("exact", "sample-augment"),
        default="sample-augment",
        help="rent-or-buy solver (default sample-augment)",
    )
    run.add_argument("--trials", type=int, default=32, help="heuristic repeats (default 32)")
    run.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    run.add_argument(
        "--oracle",
        action="store_true",
        help="measure per-threshold ratios against the exact oracle",
    )
    run.add_argument("--out-tree", metavar="PATH", help="write the tree edge list (plus .dot)")
    run.add_argument("--out-report", metavar="PATH", help="write the JSON report (corpus: plus .csv)")
    run.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    cfg = RunConfig(
        instances=tuple(args.instances),
        corpus_dir=args.corpus,
        eps=args.eps,
        alpha=args.alpha,
        gamma=args.gamma,
        delta=args.delta,
        ssrob=args.ssrob,
        trials=args.trials,
        seed=args.seed,
        oracle=args.oracle,
        out_tree=args.out_tree,
        out_report=args.out_report,
        verbose=args.verbose,
    )
    try:
        if cfg.corpus_dir is not None:
            if cfg.instances:
                print("error: give either instance files or --corpus, not both", file=sys.stderr)
                return EXIT_INVALID
            return run_corpus(cfg.corpus_dir, cfg)
        return run_pipeline(cfg)
    except OneTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
