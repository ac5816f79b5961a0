"""Command-line front end.

``onetree run`` loads instance files (or a corpus directory), runs the
layer-and-stitch pipeline, and emits the tree, a layer trace, and a JSON
report. Exit codes: 0 success, 2 bad input or environment (an unreadable
file, out of memory), 3 internal invariant violation or any other
unexpected exception (a bug, named in the message, never a traceback).
The error hierarchy decides a file's outcome: an ``InvariantError`` is
exit 3 (a corpus ``invariant-violation`` row), any other ``OneTreeError``
exit 2 naming the file (an ``error`` row), and any other exception exit 3
(a ``crash`` row).
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import Counter
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Sequence

from .builder import (
    LayerBoundReport,
    Parameters,
    SimultaneousTree,
    build_tree,
    check_layer_bounds,
    optimal_parameters,
)
# ParseError and InstanceError are not caught here; callers that sort
# failures by class import them from this module
from .errors import (
    ConfigError,
    InstanceError,
    InvariantError,
    OneTreeError,
    OracleLimitError,
    ParseError,
)
from .evaluate import RatioReport, simultaneous_ratio
from .graph import INF, Instance, load_instance, tree_vertices
from .layers import LayerSet, compute_layers, verify_layerset
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
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's float words


class RunConfig(NamedTuple):
    """Everything one invocation needs. Each ``run`` flag stores into the
    field of its name and takes its default from here."""

    instances: Sequence[str] = ()
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


class PipelineResult(NamedTuple):
    """In-memory outcome of one pipeline run."""

    instance: Instance
    layers: LayerSet
    result: SimultaneousTree
    bounds: LayerBoundReport
    ratio: RatioReport | None = None
    lambda_emp: float | None = None
    oracle_skipped: bool = False

    @property
    def params(self) -> Parameters:
        """The run's parameters, as the layers carry them."""
        return self.layers.params


def make_parameters(cfg: RunConfig, lambda_mode: str) -> Parameters:
    """Closed-form defaults, with any of alpha/gamma/delta overridden.

    beta is never an input; ``Parameters`` derives it from alpha.
    """
    given = {"alpha": cfg.alpha, "gamma": cfg.gamma, "delta": cfg.delta}
    defaults = optimal_parameters(lambda_descriptor=lambda_mode, eps=cfg.eps)
    return replace(defaults, **{k: v for k, v in given.items() if v is not None})


def solve_instance(
    g: Instance,
    params: Parameters,
    solver,
    seed: int = 0,
    oracle=None,
    prune_zero_flow: bool = False,
) -> PipelineResult:
    """Layers, stitched tree, bound checks, and (optionally) oracle ratios.

    Raises ConfigError before any solve when branch_bound times total length
    times total demand is not finite, since every bound a report holds is at
    most that, and InvariantError if any structural property or cost bound
    fails. An oracle refusing an oversized instance is recorded, not raised.
    """
    if params.branch_bound * sum(e.length for e in g.edges) * g.total_demand >= INF:
        raise ConfigError("branch_bound times total length times total demand is not finite")
    layers = compute_layers(g, params, solver, seed=seed)
    verify_layerset(layers)
    result = build_tree(g, layers, prune_zero_flow=prune_zero_flow)
    bounds = check_layer_bounds(result, layers)
    if not bounds.all_ok:
        raise InvariantError(f"layer cost bound violated: {bounds.first_failure()}")

    ratio = None
    lambda_emp = None
    oracle_skipped = False
    if oracle is not None:
        try:
            ratio = simultaneous_ratio(result.tree, layers.thresholds, oracle, seed=seed)
        except OracleLimitError:
            oracle_skipped = True
        else:
            if solver.quality != "exact" and oracle.quality == "exact":
                lambda_emp = _measure_solver_quality(layers, ratio)
    return PipelineResult(
        instance=g,
        layers=layers,
        result=result,
        bounds=bounds,
        ratio=ratio,
        lambda_emp=lambda_emp,
        oracle_skipped=oracle_skipped,
    )


def _load_and_solve(text: str, cfg: RunConfig) -> PipelineResult:
    """Parse one instance file and run the configured pipeline on it. Running
    out of memory is a limit of the environment, not a bug: a ConfigError."""
    try:
        g = load_instance(text)
        solver = get_solver(cfg.ssrob, cfg.trials)
        params = make_parameters(cfg, solver.quality)
        oracle = ExactSolver() if cfg.oracle else None
        return solve_instance(
            g, params, solver, seed=cfg.seed, oracle=oracle, prune_zero_flow=cfg.prune_zero_flow
        )
    except MemoryError:
        raise ConfigError("out of memory: the instance needs more than is available") from None


def _measure_solver_quality(layers: LayerSet, ratio: RatioReport) -> float:
    """Worst per-threshold factor of the (monotonized) basis trees over the
    oracle optima."""
    worst = 1.0
    for cost, row in zip(layers.costs, ratio.rows):
        if row.optimal_cost > 0.0:
            worst = max(worst, cost / row.optimal_cost)
        elif cost > 1e-12:
            worst = float("inf")
    return worst


def build_report(name: str, res: PipelineResult) -> dict:
    """Full JSON-serializable report for one run, and the only writer of
    its schema.

    The ratio keys (eps, K, per_i, max_ratio, argmax_i, params, lambda_mode)
    sit at the top level, None without oracle ratios; layer trace, bound
    checks, and the tree ride along.
    """
    ratio = res.ratio  # None without oracle ratios, and so is each ratio key
    report = {
        "eps": res.params.eps,
        "K": res.layers.top_index,
        "per_i": ratio and [
            {
                "M": row.threshold,
                "cost_T": row.tree_cost,
                "cost_opt": row.optimal_cost,
                "ratio": row.ratio,
            }
            for row in ratio.rows
        ],
        "max_ratio": ratio and ratio.max_ratio,
        "argmax_i": ratio and ratio.argmax_index,
        "params": res.params.to_json_dict(),
        "lambda_mode": ratio and ratio.lambda_mode,
    }
    report["instance"] = name
    report["oracle_skipped"] = res.oracle_skipped
    report["lambda_emp"] = res.lambda_emp
    report["layers"] = {
        "L": list(res.layers.kept),
        "L_B": list(res.layers.kept_buy),
        "per_index": [
            {
                "i": i,
                "M": res.layers.thresholds[i],
                "B": dec.buy_cost,
                "R": dec.rent_cost,
                "core_size": len(dec.core),
            }
            for i, dec in enumerate(res.layers.decompositions)
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
    """``(json.dumps(report, sort_keys=True, indent=2) + "\\n").encode()``,
    byte for byte, but not by json's indented encoder, a Python generator."""
    return (_json_text(report, "\n") + "\n").encode()


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _json_text(value, indent: str) -> str:
    """``value`` as indented JSON at nesting ``indent``, a newline and its
    spaces. Raises TypeError where json.dumps does, and for non-str keys
    (encode_basestring_ascii refuses them). A list of same-keyed dicts whose
    every column is all float, all int or all bool goes through one row
    template, its keys encoded once and each column written by one ``map``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        ends, items = "[]", _table_rows(value, inner) or [_json_text(v, inner) for v in value]
    elif isinstance(value, dict):
        ends, items = "{}", [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                             for k, v in sorted(value.items())]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _table_rows(rows, indent: str) -> list[str] | None:
    """Each row's ``_json_text`` at ``indent`` by one row template, or None."""
    keys = rows and type(rows[0]) is dict and rows[0].keys()
    if not keys or any(type(r) is not dict or r.keys() != keys for r in rows):
        return None
    writers = {frozenset({float}): _float_text, frozenset({int}): int.__repr__,
               frozenset({bool}): {True: "true", False: "false"}.get}  # by a column's types
    texts = {k: writers.get(frozenset(map(type, map(itemgetter(k), rows)))) for k in sorted(keys)}
    if None in texts.values():
        return None
    inner = indent + "  "
    template = "{" + inner + ("," + inner).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in texts) + indent + "}"
    columns = (map(text, map(itemgetter(k), rows)) for k, text in texts.items())
    return list(map(template.__mod__, zip(*columns)))


def edge_list_text(res: PipelineResult) -> str:
    tree = res.result.tree
    lines = ["# eid u v length flow"]
    for e, flow in zip(tree.edges, tree.flows):
        length = int(e.length) if e.length == int(e.length) else e.length
        lines.append(f"{e.eid} {e.u} {e.v} {length} {flow}")
    return "\n".join(lines) + "\n"


def dot_text(res: PipelineResult) -> str:
    """Graphviz rendering: edges colored by the round that laid them;
    zero-flow edges are left out."""
    g = res.instance
    tree = res.result.tree
    round_of: dict[int, int] = {}
    for position, build_round in enumerate(res.result.rounds):
        for eid in build_round.added_edges:
            round_of[eid] = position
    lines = ["graph onetree {"]
    demands = g.demands
    for v in sorted(tree_vertices(g.root, tree.edges)):
        if v == g.root:
            lines.append(f'  {v} [shape=doublecircle, label="{v} (root)"];')
        elif v in demands:
            lines.append(f'  {v} [label="{v} (d={demands[v]})"];')
        else:
            lines.append(f'  {v} [color=gray, label="{v}"];')
    for e, flow in zip(tree.edges, tree.flows):
        if flow == 0:
            continue
        color = _ROUND_COLORS[round_of.get(e.eid, 0) % len(_ROUND_COLORS)]
        lines.append(f'  {e.u} -- {e.v} [label="x={flow}", color={color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _read(name: str) -> str:
    """Read an instance file; an unreadable or non-UTF-8 file is bad input."""
    try:
        return Path(name).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {name}: {exc}") from None


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
        text = _read(name)  # its error names the file; main reports it
        try:
            res = _load_and_solve(text, cfg)
        except InvariantError as exc:
            print(f"invariant violation: {name}: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        except OneTreeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return EXIT_INVALID

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
        for i, dec in enumerate(res.layers.decompositions):
            kept = "*" if i in res.layers.kept else " "
            print(
                f"  [{kept}] i={i} M={res.layers.thresholds[i]:g} "
                f"B={dec.buy_cost:g} R={dec.rent_cost:g} core={len(dec.core)}"
            )


def run_corpus(directory: str, cfg: RunConfig) -> int:
    """Batch mode over *.graph files; per-file errors do not stop the batch."""
    if cfg.out_tree:
        print("error: --out-tree needs a single instance, not --corpus", file=sys.stderr)
        return EXIT_INVALID
    files = sorted(Path(directory).glob("*.graph"))
    if not files:
        print(f"error: no *.graph files in {directory}", file=sys.stderr)
        return EXIT_INVALID
    rows: list[dict] = []
    for path in files:
        row: dict = {"instance": path.name}
        rows.append(row)
        try:
            res = _load_and_solve(_read(str(path)), cfg)
        except InvariantError as exc:
            row.update(status="invariant-violation", detail=str(exc))
        except OneTreeError as exc:
            row.update(status="error", detail=str(exc))
        except Exception as exc:
            row.update(status="crash", detail=_internal(exc))
        else:
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

    ratios = [r["max_ratio"] for r in rows if r.get("max_ratio") is not None]
    status = Counter(r["status"] for r in rows)
    summary = {
        "corpus": str(directory),
        "instances": len(rows),
        "ok": status["ok"],
        "errors": status["error"],
        "oracle_skipped": status["oracle skipped"],
        "invariant_violations": status["invariant-violation"],
        "crashes": status["crash"],
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
    return EXIT_INVARIANT if summary["invariant_violations"] or summary["crashes"] else EXIT_OK


def _internal(exc: Exception) -> str:
    """One line naming an exception the package did not raise on purpose (a
    bug); its traceback goes to the ``onetree`` logger at DEBUG, not stderr.
    ``logging`` is imported here, on the failure path, since importing it
    adds about 6 ms to every run's start-up."""
    import logging

    logging.getLogger("onetree").debug("internal error", exc_info=exc)
    return f"internal: {type(exc).__name__}: {exc}"


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
    import csv  # here: a single-instance run writes no CSV and never loads csv

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
    run.add_argument("--corpus", dest="corpus_dir", metavar="DIR", help="run every *.graph file in DIR")
    run.add_argument("--eps", type=float, help="threshold grid ratio (default %(default)s)")
    run.add_argument("--alpha", type=float, help="LAST stretch (> 1)")
    run.add_argument("--gamma", type=float, help="buy-cost drop factor (> 1)")
    run.add_argument("--delta", type=float, help="rent-cost growth factor (> alpha + 1)")
    run.add_argument(
        "--ssrob",
        choices=("exact", "sample-augment"),
        help="rent-or-buy solver (default %(default)s)",
    )
    run.add_argument("--trials", type=int, help="heuristic repeats (default %(default)s)")
    run.add_argument("--seed", type=int, help="random seed (default %(default)s)")
    run.add_argument(
        "--oracle",
        action="store_true",
        help="measure per-threshold ratios against the exact oracle",
    )
    run.add_argument("--out-tree", metavar="PATH", help="write the tree edge list (plus .dot)")
    run.add_argument("--out-report", metavar="PATH", help="write the JSON report (corpus: plus .csv)")
    run.add_argument("-v", "--verbose", action="count")
    run.set_defaults(**RunConfig()._asdict())
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_argparser().parse_args(argv))
    del args["command"]  # "run" is the only command
    cfg = RunConfig(**args)
    try:
        if cfg.corpus_dir is not None:
            if cfg.instances:
                print("error: give either instance files or --corpus, not both", file=sys.stderr)
                return EXIT_INVALID
            return run_corpus(cfg.corpus_dir, cfg)
        return run_pipeline(cfg)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OneTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        print(f"error: {_internal(exc)}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
