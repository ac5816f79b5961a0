"""Committed ``BENCH_*.json`` files at the repository root.

Each records a before/after pair of ``perfbench/run.py`` runs from one
machine: per workload and side (``parent``, ``change``) the median and
quartiles of the end-to-end metrics, the ``tree``/``report_sha256``
fingerprint lines and a few ``--trace 1`` operation counts. A speed claim
must not hide an output change: each workload's fingerprints are the same
on both sides, or the file says why in ``output_change_reason``.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
TRACE_COUNTS = ("routing.route_calls", "routing.basis_cost_calls", "graph.dijkstra_calls")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_schema_and_fingerprints(path):
    bench = json.loads(path.read_text())
    assert bench["command"] and bench["pairs"] >= 1
    assert bench["host"]
    assert bench["workloads"]
    reason = bench.get("output_change_reason", "")
    for name, workload in bench["workloads"].items():
        for side in ("parent", "change"):
            got = workload[side]
            for metric in END_TO_END:
                q1, median, q3 = (got[metric][k] for k in ("q1", "median", "q3"))
                assert q1 <= median <= q3, (name, side, metric)
            assert got["fingerprints"], (name, side)
            assert all(line.startswith("tree ") for line in got["fingerprints"])
            assert all(isinstance(got["trace"][count], int) for count in TRACE_COUNTS)
        same = workload["parent"]["fingerprints"] == workload["change"]["fingerprints"]
        assert same or reason.strip(), f"{name}: fingerprints changed and no reason given"
