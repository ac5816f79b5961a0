"""One cold benchmark repeat: a fresh interpreter per call, so no cache of
the package (the oracle's enumerated-tree table, an instance's adjacency)
survives from one repeat to the next, as for a user of `onetree run`.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON holds ``src`` (the package source directory), ``dir`` (where the
instance files are), ``files``, ``workload``, ``setup_only`` and ``trace``.
Prints one JSON object with the timings, per-instance outcomes and checks,
and the host-speed factors for its set-up and pass times (reference.py). An
untraced pass times the reference loop before every solve; a traced pass
does not, and its times are left unscaled.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

from reference import PACE_DRAWS, SETUP_DRAWS, PacedSolver, host_scale, reference_seconds
from tracer import Tracer, TracedSolver, rebind, restore
from workloads import WORKLOADS


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    os.chdir(spec["dir"])

    setup_scale = host_scale(reference_seconds(SETUP_DRAWS), SETUP_DRAWS)
    start = time.perf_counter()
    from onetree import cli  # noqa: E402  (timed: import is part of set-up)

    texts = [Path(name).read_text() for name in spec["files"]]
    load_start = time.perf_counter()
    instances = [cli.load_instance(text) for text in texts]
    load_s = time.perf_counter() - load_start
    setup_s = time.perf_counter() - start
    out = {"setup_s": setup_s, "setup_scale": setup_scale, "load_s": load_s}
    if not spec["setup_only"]:
        out.update(run_pass(spec, cli, instances))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


def run_pass(spec: dict, cli, instances) -> dict:
    """Solve every instance the way `onetree run` does, then check the outputs."""
    import onetree

    w = WORKLOADS[spec["workload"]]
    cfg = cli.RunConfig(eps=w.eps, ssrob="sample-augment", trials=w.trials,
                        seed=0, oracle=w.oracle)
    tracer = Tracer() if spec["trace"] else None
    # Keep every LAST the stitching builds; the pipeline never checks their
    # (alpha, beta) bounds itself, so the benchmark does after the pass.
    lasts: list = []
    build_last = onetree.last.build_last

    def keep_last(*args, **kwargs):
        light = build_last(*args, **kwargs)
        lasts.append(light)
        return light

    undo = rebind("build_last", build_last, keep_last)

    def report(name, res):
        return cli.report_bytes(cli.build_report(name, res))

    solve = cli.solve_instance
    if tracer is not None:
        tracer.install()
        solve = tracer.wrap("cli.solve_instance", solve)
        report = tracer.wrap("cli.report", report)

    outcomes: list = []
    solvers: list = []
    loops: list[float] = []
    start = time.perf_counter()
    for name, g in zip(spec["files"], instances):
        first_last = len(lasts)
        try:
            solver = cli.get_solver(cfg.ssrob, cfg.trials)
            params = cli.make_parameters(cfg, solver.quality)
            oracle = cli.ExactSolver() if cfg.oracle else None
            if tracer is not None:
                solver = TracedSolver(solver, tracer, "ssrob.solve")
                solvers.append(solver)
                if oracle is not None:
                    oracle = TracedSolver(oracle, tracer, "ssrob.oracle_solve")
            else:
                solver = PacedSolver(solver, loops)
                if oracle is not None:
                    oracle = PacedSolver(oracle, loops)
            res = solve(g, params, solver, seed=cfg.seed, oracle=oracle,
                        prune_zero_flow=cfg.prune_zero_flow)
            data = report(name, res)
        except (cli.ParseError, cli.InstanceError, cli.ConfigError) as exc:
            outcomes.append({"name": name, "status": "exit 2", "detail": str(exc)})
        except cli.InvariantError as exc:
            outcomes.append({"name": name, "status": "exit 3", "detail": str(exc)})
        except Exception as exc:  # a crash is a counted failure, not an abort
            outcomes.append({"name": name, "status": "raised", "detail": repr(exc)})
        else:
            outcomes.append((name, res, data, lasts[first_last:]))
    run_s = time.perf_counter() - start - sum(loops)
    if tracer is not None:
        tracer.uninstall()
    restore(undo)

    solved = [o[1] for o in outcomes if isinstance(o, tuple)]
    out = {"run_s": run_s,
           "run_scale": host_scale(sum(loops), PACE_DRAWS * len(loops)) if loops else 1.0,
           "instances": [o if isinstance(o, dict) else check(*o) for o in outcomes]}
    if tracer is not None:
        out["trace"] = {
            "spans": tracer.spans,
            "counts": {**tracer.counts,
                       "trials": sum(s.trials_run for s in solvers),
                       "rounds": sum(len(r.result.rounds) for r in solved),
                       "K": sum(r.layers.top_index for r in solved),
                       "kept": sum(len(r.layers.kept) for r in solved)},
            "tree_counts": tracer.tree_counts,
        }
    return out


def check(name: str, res, data: bytes, lasts: list) -> dict:
    """Outcome and output checks for one solved instance."""
    from onetree import basis_cost, basis_threshold, verify_last

    params = res.params
    last_ok = all(verify_last(t, params.alpha, params.beta).passed for t in lasts)
    ratio_ok = True
    max_ratio = None
    if res.ratio is not None:
        max_ratio = res.ratio.max_ratio
        lam = res.lambda_emp if res.lambda_emp is not None else 1.0
        ratio_ok = max_ratio <= params.headline_ratio * lam * (1.0 + 1e-9)
    tree = res.result.tree
    log_costs = [math.log(basis_cost(tree, basis_threshold(i, params.eps)))
                 for i in range(res.layers.top_index + 1)]
    problems = [label for label, ok in (
        ("bounds.all_ok is false", res.bounds.all_ok),
        ("oracle skipped", not res.oracle_skipped),
        ("max_ratio above headline_ratio * lambda_emp", ratio_ok),
        ("a LAST fails its (alpha, beta) bounds", last_ok),
    ) if not ok]
    return {
        "name": name,
        "status": "ok" if not problems else "; ".join(problems),
        "report_sha256": hashlib.sha256(data).hexdigest(),
        "tree_sha256": hashlib.sha256(json.dumps(sorted(tree.edge_ids)).encode()).hexdigest(),
        "log_costs": log_costs,
        "max_ratio": max_ratio,
        "lambda_emp": res.lambda_emp,
        "headline_ratio": params.headline_ratio,
        "lasts": len(lasts),
    }


if __name__ == "__main__":
    main()
