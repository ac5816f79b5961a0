"""The onetree benchmark: seeded workloads run through the public pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload sa_mid --seed 1 --seconds 30 --trace 0

The workload's instances are generated from ``--seed`` (see workloads.py)
and solved the way `onetree run` solves them: ``load_instance`` ->
``solve_instance`` -> ``build_report`` / ``report_bytes``. Every repeat runs
in a fresh interpreter (worker.py), one at a time, with BLAS pinned to one
thread, so no cache carries over and repeats do not compete for the two
cores. Repeats go on until ``--seconds`` have passed.

Outputs are checked: ``bounds.all_ok`` and no oracle skip per instance,
``max_ratio <= headline_ratio * lambda_emp`` where the oracle runs, every
stitched LAST within its (alpha, beta) bounds, byte-identical report bytes
across cold repeats, and the first instance's report equal byte for byte to
the one `onetree run --out-report` writes. A failed check counts into
``failed`` and does not stop the run.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (import onetree and
parse the instance files; median over set-up probes and repeats), ``run_s``
(one pass over the instances; median over repeats) and ``peak_rss_mb``
(median peak resident memory of a repeat). The two times are wall times
scaled to a nominal host speed, which a fixed loop measures in the same
process just before set-up and before every solve (reference.py), so that
the swings in speed of a shared host do not read as a change in the
package; the unscaled samples and the factors are printed as well.
``--trace 1`` alternates untraced and traced repeats and prints per-layer
metrics: span times and self times per package module (tracer.py), the
operation counts behind them, and the tracing overhead (traced minus
untraced pass time). These are unscaled wall times.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYERS, span_self
from workloads import WORKLOADS, Workload, write_instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Cold set-up samples taken before the repeats (each is a fresh process).
SETUP_PROBES = 5
#: Repeats of each kind a run makes even when ``--seconds`` is shorter.
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2
#: No repeat starts once it and the `onetree run` check could end past this.
TIME_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 170.0
#: Spanning-tree counts for which the exact oracle builds its flow table
#: (the package's table limit is 2e5) and that are large enough to matter.
TABLE_RANGE = (20_000, 200_000)

COUNT_METRICS = {
    "graph.dijkstra_calls": lambda s, c: _calls(s, "graph.dijkstra"),
    "graph.dijkstra_settled": lambda s, c: c.get("dijkstra_settled", 0),
    "graph.contract_calls": lambda s, c: _calls(s, "graph.contract"),
    "ssrob.solve_calls": lambda s, c: _calls(s, "ssrob.solve"),
    "ssrob.trials": lambda s, c: c["trials"],
    "ssrob.spanning_trees": lambda s, c: c.get("spanning_trees", 0),
    "ssrob.count_trees_calls": lambda s, c: _calls(s, "ssrob.count_trees"),
    "routing.route_calls": lambda s, c: _calls(s, "routing.route"),
    "routing.basis_cost_calls": lambda s, c: _calls(s, "routing.basis_cost"),
    "layers.K": lambda s, c: c["K"],
    "layers.kept": lambda s, c: c["kept"],
    "layers.kept_frac": lambda s, c: c["kept"] / max(1, _calls(s, "ssrob.solve")),
    "last.build_calls": lambda s, c: _calls(s, "last.build"),
    "builder.rounds": lambda s, c: c["rounds"],
    "evaluate.oracle_solves": lambda s, c: _calls(s, "ssrob.oracle_solve"),
}
TIME_METRICS = {
    "graph.dijkstra_s": lambda s: _total(s, "graph.dijkstra"),
    "graph.contract_s": lambda s: _total(s, "graph.contract"),
    "ssrob.solve_s": lambda s: _total(s, "ssrob.solve"),
    "ssrob.solve_s_max": lambda s: s.get("ssrob.solve", [0, 0.0, 0.0, 0.0])[3],
    "ssrob.sa_self_s": lambda s: s.get("ssrob.solve", [0, 0.0, 0.0])[2],
    "ssrob.oracle_solve_s": lambda s: _total(s, "ssrob.oracle_solve"),
    "ssrob.table_s": lambda s: _total(s, "ssrob.table"),
    "routing.route_s": lambda s: _total(s, "routing.route"),
    "routing.basis_cost_s": lambda s: _total(s, "routing.basis_cost"),
    "routing.decompose_s": lambda s: _total(s, "routing.decompose"),
    "layers.compute_s": lambda s: _total(s, "layers.compute"),
    "layers.monotonize_s": lambda s: _total(s, "layers.monotonize"),
    "layers.prune_s": lambda s: _total(s, "layers.prune"),
    "layers.verify_s": lambda s: _total(s, "layers.verify"),
    "last.build_s": lambda s: _total(s, "last.build"),
    "builder.build_tree_s": lambda s: _total(s, "builder.build_tree"),
    "builder.check_bounds_s": lambda s: _total(s, "builder.check_bounds"),
    "evaluate.ratio_s": lambda s: _total(s, "evaluate.ratio"),
    "cli.report_s": lambda s: _total(s, "cli.report"),
    **{f"{layer}.self_s": (lambda s, layer=layer: span_self(s, layer)) for layer in LAYERS},
}


def _calls(spans: dict, name: str) -> int:
    return spans.get(name, [0])[0]


def _total(spans: dict, name: str) -> float:
    return spans.get(name, [0, 0.0])[1]


class Run:
    """Repeats of one workload, with the check tallies they feed."""

    def __init__(self, w: Workload, work: Path, files: list[str]):
        self.w = w
        self.work = work
        self.files = files
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: dict[str, str] = {}
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.probes: list[dict] = []
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def worker(self, setup_only: bool = False, trace: bool = False) -> dict | None:
        spec = {"src": str(SRC), "dir": str(self.work), "files": self.files,
                "workload": self.w.name, "setup_only": setup_only, "trace": trace}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                capture_output=True, text=True, env=self.env, timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            detail = "timed out" if proc is None else proc.stderr.strip()[-2000:]
            print(f"worker failed: {detail}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def repeat(self, trace: bool) -> float:
        """One cold pass; returns its wall time including process start."""
        start = time.perf_counter()
        out = self.worker(trace=trace)
        if out is None:
            self.attempted += len(self.files)
            self.fail("worker process failed")
            return time.perf_counter() - start
        for inst in out["instances"]:
            self.attempted += 1
            name = inst["name"]
            if inst["status"] != "ok":
                self.fail(f"{name}: {inst['status']} {inst.get('detail', '')}".strip())
            elif self.reports.setdefault(name, inst["report_sha256"]) != inst["report_sha256"]:
                self.fail(f"{name}: report bytes differ between cold repeats")
        (self.traced if trace else self.untraced).append(out)
        return time.perf_counter() - start

    def check_cli(self) -> None:
        """The first instance through `onetree run --out-report`, byte for byte."""
        name = self.files[0]
        target = self.work / "cli-report.json"
        command = [sys.executable, "-c",
                   "import sys; from onetree.cli import main; sys.exit(main(sys.argv[1:]))",
                   "run", name, *self.w.cli_flags(), "--out-report", target.name]
        self.attempted += 1
        try:
            proc = subprocess.run(command, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail("onetree run timed out")
            return
        if proc.returncode != 0:
            self.fail(f"onetree run exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        elif hashlib.sha256(target.read_bytes()).hexdigest() != self.reports.get(name):
            self.fail(f"{name}: onetree run --out-report differs from the library report")


def measure(w: Workload, work: Path, files: list[str], seconds: int, trace: bool) -> Run:
    run = Run(w, work, files)
    start = time.perf_counter()
    run.worker(setup_only=True)  # warm-up: writes bytecode caches; discarded
    if not trace:
        for _ in range(SETUP_PROBES):
            out = run.worker(setup_only=True)
            if out is not None:
                run.probes.append(out)
    longest = 0.0
    count = 0
    while True:
        traced = trace and count % 2 == 1
        longest = max(longest, run.repeat(traced))
        count += 1
        elapsed = time.perf_counter() - start
        enough = len(run.untraced) >= MIN_REPEATS and (
            not trace or len(run.traced) >= MIN_TRACED_REPEATS)
        if (elapsed >= seconds and enough) or elapsed + 2 * longest > TIME_LIMIT_S:
            break
    run.check_cli()
    if trace:
        counts = [count_metrics(out) for out in run.traced]
        run.attempted += 1
        if any(c != counts[0] for c in counts):
            run.fail("per-layer counts differ between traced repeats")
    return run


def count_metrics(out: dict) -> dict:
    spans, counts = out["trace"]["spans"], out["trace"]["counts"]
    return {name: fn(spans, counts) for name, fn in COUNT_METRICS.items()}


def quality_lines(run: Run) -> list[str]:
    """Tree fingerprints and output-quality figures of the first clean repeat."""
    outs = [o for o in run.untraced + run.traced
            if all(i["status"] == "ok" for i in o["instances"])]
    if not outs:
        return ["quality: no clean repeat"]
    insts = outs[0]["instances"]
    logs = [x for inst in insts for x in inst["log_costs"]]
    lines = [f"tree {i['name']} sha256={i['tree_sha256']} report_sha256={i['report_sha256']}"
             for i in insts]
    quality = (f"quality: tree_cost_gm={math.exp(sum(logs) / len(logs)):.6f} cost"
               f" lasts_verified={sum(i['lasts'] for i in insts)}")
    if run.w.oracle:
        quality += (f" max_ratio={max(i['max_ratio'] for i in insts):.6f} ratio"
                    f" lambda_emp={max(i['lambda_emp'] for i in insts):.6f} ratio"
                    f" headline_ratio={insts[0]['headline_ratio']:.6f} ratio")
    return lines + [quality]


def end_to_end(run: Run) -> dict:
    setups = [o["setup_s"] * o["setup_scale"] for o in run.probes + run.untraced]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median([o["run_s"] * o["run_scale"] for o in run.untraced]), "s"),
        "peak_rss_mb": (statistics.median([o["peak_rss_mb"] for o in run.untraced]), "MB"),
    }


def per_layer(run: Run) -> dict:
    spans = [o["trace"]["spans"] for o in run.traced]
    metrics = {name: (value, "frac" if name.endswith("_frac") else "count")
               for name, value in count_metrics(run.traced[0]).items()}
    for name, fn in TIME_METRICS.items():
        metrics[name] = (statistics.median([fn(s) for s in spans]), "s")
    metrics["cli.load_s"] = (statistics.median([o["load_s"] for o in run.traced]), "s")
    traced = statistics.median([o["run_s"] for o in run.traced])
    untraced = statistics.median([o["run_s"] for o in run.untraced])
    metrics["trace.run_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "frac")
    return metrics


def property_lines(run: Run) -> list[str]:
    """Whether the workload still has the property it was chosen for."""
    if not run.traced:
        return []
    out = run.traced[0]
    spans = out["trace"]["spans"]
    ranked = sorted(spans, key=lambda name: -spans[name][2])
    holds = ranked[0] == run.w.dominant_span
    detail = f"largest self time {ranked[0]}"
    if run.w.tree_range is not None:
        counts = out["trace"]["tree_counts"]
        lo, hi = TABLE_RANGE
        in_range = bool(counts) and all(lo <= c <= hi for c in counts)
        holds = holds and in_range
        detail += (f"; tree counts {min(counts, default=0)}..{max(counts, default=0)}"
                   f" in {lo}..{hi}: {in_range}")
    shares = " ".join(f"{name}={spans[name][2] / out['run_s']:.3f}" for name in ranked[:5])
    return [f"self-time share of run_s: {shares}",
            f"property {run.w.name}: expected {run.w.dominant_span}, {detail}, holds={holds}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the generated instances are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "onetree" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        files = write_instances(w, args.seed, work)
        run = measure(w, work, files, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    if not run.untraced or (args.trace and not run.traced):
        print("error: no repeat completed", file=sys.stderr)
        return 1
    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={metadata.version('numpy')} workload={w.name} seed={args.seed}")
    for label, outs, key in (("run_s, untraced", run.untraced, "run_s"),
                             ("run_s, traced", run.traced, "run_s"),
                             ("setup_s", run.probes + run.untraced, "setup_s")):
        if outs:
            walls = " ".join(f"{o[key]:.3f}" for o in outs)
            print(f"wall samples {label} ({len(outs)}): {walls}")
    for key, outs in (("run_scale", run.untraced), ("setup_scale", run.probes + run.untraced)):
        if outs:
            print(f"host speed factors {key}: " + " ".join(f"{o[key]:.3f}" for o in outs))
    for line in quality_lines(run) + property_lines(run):
        print(line)
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(f"failed_frac={run.failed / max(1, run.attempted):.6f} "
          f"({run.failed} of {run.attempted} attempted)")
    metrics = per_layer(run) if args.trace else end_to_end(run)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
