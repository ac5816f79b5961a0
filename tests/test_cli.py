import hashlib
import json
import logging
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onetree
from onetree import (
    ExactSolver,
    SampleAugmentSolver,
    build_last,
    cli,
    make_instance,
    route,
    sample_and_augment,
    verify_last,
)
from onetree.cli import (
    EXIT_INVALID,
    EXIT_INVARIANT,
    EXIT_OK,
    RunConfig,
    build_report,
    dot_text,
    main,
    make_parameters,
    report_bytes,
    run_corpus,
    solve_instance,
)
from onetree.errors import ConfigError, InvariantError
from onetree.ssrob import MAX_TRIALS

from corpus import instance_text, random_instance, write_corpus

PATH3 = "3 2 0\n0 1 1\n1 2 1\nd 1 1\nd 2 1\n"
CYCLE4 = "4 4 0\n0 1 1\n1 2 1\n2 3 1\n3 0 1\nd 1 1\nd 2 1\nd 3 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_exact_oracle_path(tmp_path, capsys):
    instance = write(tmp_path, "path3.graph", PATH3)
    report_path = tmp_path / "report.json"
    code = main(
        ["run", instance, "--eps", "1", "--ssrob", "exact", "--oracle",
         "--out-report", str(report_path)]
    )
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["max_ratio"] == 1.0
    assert report["bound_checks"]["all_ok"] is True
    assert "max_ratio=1.000000" in capsys.readouterr().out


def test_run_cycle_within_headline_bound(tmp_path):
    instance = write(tmp_path, "cycle4.graph", CYCLE4)
    report_path = tmp_path / "report.json"
    code = main(
        ["run", instance, "--ssrob", "exact", "--oracle", "--out-report", str(report_path)]
    )
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["max_ratio"] <= (1 + report["eps"]) * 16.9442719100
    assert report["bound_checks"]["all_ok"] is True


def test_missing_demand_line_exits_2(tmp_path, capsys):
    instance = write(tmp_path, "bad.graph", "3 2 0\n0 1 1\n1 2 1\n")
    assert main(["run", instance]) == EXIT_INVALID
    assert "demand" in capsys.readouterr().err


@pytest.mark.parametrize(
    "length, message",
    [
        ("1e308", "total edge length times total demand is not finite"),
        ("inf", "line 2: non-finite length on edge 0-1"),
        ("nan", "line 2: non-finite length on edge 0-1"),
    ],
    ids=["overflow", "inf", "nan"],
)
def test_overflowing_lengths_exit_2(tmp_path, capsys, length, message):
    # 1e308 is finite, but three demand units over it overflow every cost
    instance = write(tmp_path, "bad.graph", f"2 1 0\n0 1 {length}\nd 1 3\n")
    assert main(["run", instance]) == EXIT_INVALID
    assert message in capsys.readouterr().err


def test_bad_parameters_exit_2(tmp_path, capsys):
    instance = write(tmp_path, "path3.graph", PATH3)
    assert main(["run", instance, "--alpha", "1.6", "--delta", "2.0"]) == EXIT_INVALID
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["eps", "alpha", "gamma", "delta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_parameters_exit_2(tmp_path, capsys, name, value):
    # NaN passes every ordering check, and inf overflows the derived constants
    instance = write(tmp_path, "path3.graph", PATH3)
    assert main(["run", instance, f"--{name}", value]) == EXIT_INVALID
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, constant",
    [
        (["--gamma", "1e308"], "buy_constant"),
        (["--delta", "1.7e308"], "rent_constant"),
        (["--alpha", "1e154", "--delta", "1e160"], "rent_constant"),
        # alpha·delta is finite here, and so is rent_constant, but not its product with delta
        (["--alpha", "9e153", "--delta", "1.8e154"], "branch_bound"),
        # the bounds are finite, but (1 + eps)·branch_bound is not, and the
        # report would hold "Infinity", which is no JSON number
        (["--eps", "1e308"], "headline_ratio"),
    ],
)
def test_overflowing_derived_constants_exit_2(tmp_path, capsys, flags, constant):
    # finite inputs whose derived constants overflow would give inf·0 = NaN
    # bounds, which the bound check then reports as a bug (exit 3)
    instance = write(tmp_path, "path3.graph", PATH3)
    assert main(["run", instance, *flags]) == EXIT_INVALID
    assert f"{constant} overflows" in capsys.readouterr().err


def test_large_finite_gamma_exits_0(tmp_path):
    instance = write(tmp_path, "path3.graph", PATH3)
    assert main(["run", instance, "--gamma", "1e300"]) == EXIT_OK


@pytest.mark.parametrize("solver", ["sample-augment", "exact"])
def test_sample_augment_demand_beyond_ssize_t_exits_0(tmp_path, solver):
    # marking draws once per demand vertex, so no amount is too large to mark
    instance = write(tmp_path, "huge.graph", f"3 2 0\n0 1 1\n1 2 1\nd 1 1\nd 2 {10**23}\n")
    assert main(["run", instance, "--ssrob", solver]) == EXIT_OK


def test_huge_demand_on_a_cycle_exits_0_quickly(tmp_path):
    # 10^12 demand units: marking must not take a draw per unit; the cycle
    # gives sample-augment a real choice, unlike a path
    instance = write(tmp_path, "triangle.graph", "3 3 0\n0 1 1\n1 2 1\n0 2 1\nd 2 1000000000000\n")
    start = time.perf_counter()
    assert main(["run", instance]) == EXIT_OK
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "eps, message",
    [("1e-300", "1 + eps rounds to 1"), ("1e-9", "the cap is K = 100000")],
    ids=["1e-300", "1e-9"],
)
def test_eps_too_fine_for_the_threshold_grid_exits_2(tmp_path, capsys, eps, message):
    # 1 + 1e-300 == 1.0, so the threshold grid never grows; 1e-9 asks for
    # about 7e8 solves on this instance
    instance = write(tmp_path, "path3.graph", PATH3)
    assert main(["run", instance, "--eps", eps]) == EXIT_INVALID
    assert message in capsys.readouterr().err


def test_trials_past_the_cap_exit_2_and_at_the_cap_exit_0(tmp_path, capsys):
    # each trial's seed memoizes its draws on the instance, so a trial count
    # with no cap ran until memory ran out; past MAX_TRIALS the first solve
    # refuses it, and a run at the cap itself finishes
    instance = write(tmp_path, "three.graph", "3 2 0\n0 1 1\n1 2 1\nd 1 1\nd 2 2\n")
    for trials in ("99999999999999999999", str(MAX_TRIALS + 1)):
        assert main(["run", instance, "--trials", trials]) == EXIT_INVALID
        assert f"trials must be between 1 and {MAX_TRIALS}" in capsys.readouterr().err
    start = time.perf_counter()
    assert main(["run", instance, "--trials", str(MAX_TRIALS)]) == EXIT_OK
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("eps, top", [("0.5", 1751), ("1", 1024), ("3", 512)])
def test_top_threshold_past_the_float_range_exits_0(tmp_path, eps, top):
    # (1 + eps) ** K must reach 1.7e308 units of demand, and (1 + eps) ** top
    # passes the float range, so the top threshold is the largest float,
    # where every cost is the cost at the total demand; the edge is short
    # enough that every cost times its bound's constant stays finite
    instance = write(tmp_path, "big.graph", f"2 1 0\n0 1 1e-10\nd 1 {int(1.7e308)}\n")
    report_path = tmp_path / "report.json"
    assert main(["run", instance, "--eps", eps, "--out-report", str(report_path)]) == EXIT_OK

    def no_constant(name):
        raise AssertionError(f"{name} is no JSON number")

    report = json.loads(report_path.read_text(), parse_constant=no_constant)
    per_index = report["layers"]["per_index"]
    assert len(per_index) == top + 1
    assert per_index[-2]["M"] < 1.7e308 <= per_index[-1]["M"] == sys.float_info.max
    assert report["bound_checks"]["all_ok"] is True


def test_report_bound_past_the_float_range_exits_2(tmp_path, capsys):
    # a demand of 10^308 on a unit edge: the report's rent bounds and caps,
    # constants times costs near 1e308, would overflow to Infinity, which is
    # no JSON number, so the run is refused before any solve
    instance = write(tmp_path, "big.graph", f"2 1 0\n0 1 1\nd 1 {10**308}\n")
    report_path = tmp_path / "report.json"
    assert main(["run", instance, "--eps", "0.5", "--out-report", str(report_path)]) == EXIT_INVALID
    assert "branch_bound times total length times total demand is not finite" in capsys.readouterr().err
    assert not report_path.exists()


def test_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.graph")]) == EXIT_INVALID


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"3 2 0\n0 1 1\n1 2 \xff\nd 1 1\n")
    assert main(["run", str(path)]) == EXIT_INVALID
    assert f"error: cannot read {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out-report", "--out-tree"])
def test_unwritable_output_exits_2(tmp_path, capsys, flag):
    instance = write(tmp_path, "path3.graph", PATH3)
    target = tmp_path / "missing" / "out.txt"
    assert main(["run", instance, flag, str(target)]) == EXIT_INVALID
    assert f"error: cannot write {target}: " in capsys.readouterr().err


def test_corpus_unwritable_report_exits_2(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    write_corpus(corpus_dir, 2, seed=3)
    target = tmp_path / "missing" / "summary.json"
    code = main(["run", "--corpus", str(corpus_dir), "--out-report", str(target)])
    assert code == EXIT_INVALID
    assert f"error: cannot write {target}: " in capsys.readouterr().err


def test_exact_solver_on_long_path_exits_0(tmp_path):
    # one spanning tree over 1499 edges: the oracle searches from its two
    # branch vertices, the root and the terminal, not from all 1500
    n = 1500
    g = make_instance(n, [(v, v + 1, 1) for v in range(n - 1)], 0, {n - 1: 1})
    instance = write(tmp_path, "path1500.graph", instance_text(g))
    assert main(["run", instance, "--ssrob", "exact"]) == EXIT_OK


@pytest.mark.parametrize(
    "text, delta",
    [("2 1 0\n0 1 1e-323\nd 1 2\n", "9"), ("3 2 0\n0 1 1e-300\n1 2 1e-300\nd 2 7\n", "1e300")],
    ids=["subnormal-length", "huge-delta"],
)
def test_rent_bound_underflow_keeps_index_0(tmp_path, text, delta):
    # the top layer's rent cost divided by delta rounds to 0.0, and index 0's
    # rent cost is exactly 0.0: pruning must still keep index 0
    instance = write(tmp_path, "tiny.graph", text)
    assert main(["run", instance, "--delta", delta]) == EXIT_OK


def test_exact_oracle_on_demand_beyond_int64_exits_0(tmp_path):
    # a flow wider than any fixed-width integer
    text = f"3 3 0\n0 1 1\n1 2 1\n0 2 1\nd 1 {10**20}\n"
    instance = write(tmp_path, "huge.graph", text)
    assert main(["run", instance, "--eps", "1", "--ssrob", "exact", "--oracle"]) == EXIT_OK


def test_tree_artifacts_written(tmp_path):
    instance = write(tmp_path, "path3.graph", PATH3)
    out_tree = tmp_path / "tree.txt"
    code = main(["run", instance, "--ssrob", "exact", "--out-tree", str(out_tree)])
    assert code == EXIT_OK
    lines = out_tree.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1:] == ["0 0 1 1 2", "1 1 2 1 1"]
    dot = out_tree.with_suffix(".txt.dot").read_text()
    assert "graph onetree" in dot
    assert "0 -- 1" in dot


def test_dot_leaves_out_zero_flow_edges():
    from types import SimpleNamespace

    g = make_instance(3, [(0, 1, 1), (0, 2, 1)], 0, {1: 1})
    tree = route(g, (0, 1))  # edge 1 hangs flowless off the root
    res = SimpleNamespace(instance=g, result=SimpleNamespace(tree=tree, rounds=()))
    text = dot_text(res)
    assert "0 -- 2" not in text
    assert '0 -- 1 [label="x=1"' in text
    assert "\n  1 [" in text and "\n  2 [" not in text  # nor its far end


def test_corpus_mode(tmp_path):
    corpus_dir = tmp_path / "corpus"
    write_corpus(corpus_dir, 8, seed=3)
    out = tmp_path / "summary.json"
    cfg = RunConfig(eps=0.5, ssrob="exact", oracle=True, out_report=str(out))
    assert run_corpus(str(corpus_dir), cfg) == EXIT_OK
    summary = json.loads(out.read_text())
    assert summary["instances"] == 8
    assert summary["ok"] == 8
    assert summary["aggregate_max_ratio"] >= 1.0
    csv_lines = out.with_suffix(".csv").read_text().splitlines()
    assert csv_lines[0].startswith("instance,status")
    assert len(csv_lines) == 9


def test_corpus_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run", "--corpus", str(empty)]) == EXIT_INVALID


def test_corpus_collects_per_file_errors(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "good.graph").write_text(PATH3)
    (corpus_dir / "bad.graph").write_text("3 2 0\n0 1 0\n1 2 1\nd 2 1\n")
    cfg = RunConfig(eps=0.5, ssrob="exact")
    assert run_corpus(str(corpus_dir), cfg) == EXIT_OK
    # the bad file is reported, the good one still processed


def test_corpus_unreadable_files_are_row_errors(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "good.graph").write_text(PATH3)
    (corpus_dir / "dir.graph").mkdir()
    (corpus_dir / "latin1.graph").write_bytes(b"3 2 0\n0 1 1\n1 2 1\nd 1 1 # \xe9\n")
    out = tmp_path / "summary.json"
    cfg = RunConfig(eps=0.5, ssrob="exact", out_report=str(out))
    assert run_corpus(str(corpus_dir), cfg) == EXIT_OK
    rows = {row["instance"]: row for row in json.loads(out.read_text())["rows"]}
    assert rows["good.graph"]["status"] == "ok"
    for name in ("dir.graph", "latin1.graph"):
        assert rows[name]["status"] == "error"
        assert rows[name]["detail"].startswith(f"cannot read {corpus_dir / name}: ")


def _crash(text, cfg):
    raise RuntimeError("boom")


def test_unexpected_exception_exits_3_without_traceback(tmp_path, monkeypatch, capsys, caplog):
    # stderr gets one line; the traceback goes to the onetree logger at DEBUG
    monkeypatch.setattr(cli, "_load_and_solve", _crash)
    caplog.set_level(logging.DEBUG, logger="onetree")
    instance = write(tmp_path, "p.graph", PATH3)
    assert main(["run", instance]) == EXIT_INVARIANT
    assert capsys.readouterr().err == "error: internal: RuntimeError: boom\n"
    (record,) = caplog.records
    assert isinstance(record.exc_info[1], RuntimeError)


def test_invariant_error_escaping_run_pipeline_exits_3(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise InvariantError("tree lost an edge")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    assert main(["run", write(tmp_path, "p.graph", PATH3)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant violation: tree lost an edge\n"


def test_corpus_crash_is_a_row_and_exits_3(tmp_path, monkeypatch):
    # the crash is recorded per row, counted, and the rest of the batch runs
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.graph").write_text(PATH3)
    (corpus_dir / "b.graph").write_text(CYCLE4)
    solve = cli._load_and_solve

    def crash_on_cycle(text, cfg):
        return _crash(text, cfg) if text == CYCLE4 else solve(text, cfg)

    monkeypatch.setattr(cli, "_load_and_solve", crash_on_cycle)
    out = tmp_path / "summary.json"
    code = main(["run", "--corpus", str(corpus_dir), "--out-report", str(out)])
    assert code == EXIT_INVARIANT
    summary = json.loads(out.read_text())
    assert (summary["ok"], summary["crashes"], summary["invariant_violations"]) == (1, 1, 0)
    rows = {row["instance"]: row for row in summary["rows"]}
    assert rows["b.graph"]["status"] == "crash"
    assert rows["b.graph"]["detail"] == "internal: RuntimeError: boom"


def _out_of_memory(*args, **kwargs):
    raise MemoryError()


@pytest.mark.parametrize("stage", ["load_instance", "solve_instance"])
def test_out_of_memory_exits_2_naming_memory(tmp_path, monkeypatch, capsys, stage):
    # an empty MemoryError, as the allocator raises it, is an environment
    # failure with a message of its own, not an internal error
    monkeypatch.setattr(cli, stage, _out_of_memory)
    instance = write(tmp_path, "p.graph", PATH3)
    assert main(["run", instance]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: {instance}: out of memory: the instance needs more than is available\n"
    )


def test_corpus_out_of_memory_is_an_error_row(tmp_path, monkeypatch):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.graph").write_text(PATH3)
    (corpus_dir / "b.graph").write_text(CYCLE4)
    load = cli.load_instance
    monkeypatch.setattr(cli, "load_instance", lambda t: _out_of_memory() if t == CYCLE4 else load(t))
    out = tmp_path / "summary.json"
    assert main(["run", "--corpus", str(corpus_dir), "--out-report", str(out)]) == EXIT_OK
    summary = json.loads(out.read_text())
    assert (summary["ok"], summary["errors"], summary["crashes"]) == (1, 1, 0)
    rows = {row["instance"]: row for row in summary["rows"]}
    assert rows["b.graph"]["status"] == "error"
    assert rows["b.graph"]["detail"].startswith("out of memory: ")


def test_corpus_oversized_instance_marked_skipped(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "small.graph").write_text(PATH3)
    (corpus_dir / "big.graph").write_text(_over_budget_text())
    out = tmp_path / "summary.json"
    cfg = RunConfig(eps=0.5, ssrob="sample-augment", trials=4, oracle=True, out_report=str(out))
    assert run_corpus(str(corpus_dir), cfg) == EXIT_OK
    summary = json.loads(out.read_text())
    by_name = {row["instance"]: row for row in summary["rows"]}
    assert by_name["big.graph"]["status"] == "oracle skipped"
    assert by_name["small.graph"]["status"] == "ok"


def _over_budget_text():
    # 20 demand vertices on a path of 21 take 3^20·21 cells, past the
    # oracle's budget: the exact solver refuses it
    path = [(v, v + 1, 1) for v in range(20)]
    return instance_text(make_instance(21, path, 0, {v: 1 for v in range(1, 21)}))


def test_corpus_exact_solver_refusal_is_an_error_row(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "big.graph").write_text(_over_budget_text())
    (corpus_dir / "small.graph").write_text(PATH3)
    out = tmp_path / "summary.json"
    code = main(["run", "--corpus", str(corpus_dir), "--ssrob", "exact", "--out-report", str(out)])
    assert code == EXIT_OK
    summary = json.loads(out.read_text())
    assert (summary["ok"], summary["errors"]) == (1, 1)
    rows = {row["instance"]: row for row in summary["rows"]}
    assert rows["big.graph"]["status"] == "error"
    assert rows["big.graph"]["detail"].startswith("instance too large for oracle")
    assert rows["small.graph"]["status"] == "ok"
    assert len(out.with_suffix(".csv").read_text().splitlines()) == 3


def test_exact_solver_refusal_exits_2_naming_the_file(tmp_path, capsys):
    instance = write(tmp_path, "big.graph", _over_budget_text())
    assert main(["run", instance, "--ssrob", "exact"]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: {instance}: instance too large for oracle")


def _report_sha256(text: str, **cfg) -> str:
    res = cli._load_and_solve(text, RunConfig(**cfg))
    return hashlib.sha256(report_bytes(build_report("pinned", res))).hexdigest()


def test_sample_augment_oracle_report_bytes_pinned():
    # a seeded sample-and-augment run with oracle ratios over K = 44
    # thresholds (lambda_emp above 1); a change to any report byte fails here
    g = random_instance(
        random.Random(12), n_min=10, n_max=12, max_extra_edges=10,
        max_demand_vertices=5, max_total_demand=120,
    )
    digest = _report_sha256(instance_text(g), eps=0.1, trials=2, seed=3, oracle=True)
    assert digest == "31901d8556efc41c8bde778e4a93e0b5e886e4dbecd9cd4b615f1d9e626f3cdb"


def test_exact_solver_report_bytes_pinned_on_parallel_edges():
    # vertex pairs 0-1 and 1-2 each have two edges
    text = (
        "5 8 0\n0 1 2\n0 1 3\n1 2 1\n1 2 1\n2 3 4\n3 0 5\n3 4 1\n2 4 2\n"
        "d 2 3\nd 3 1\nd 4 5\n"
    )
    digest = _report_sha256(text, eps=0.5, ssrob="exact")
    assert digest == "60139622c4c165a571b9f32944c107d3744d12244ee4d483c02d19a89c49d897"


_awkward_chars = st.sampled_from('"\\/\x00\x1f\x7f\n\té€😀')
_awkward_text = st.text(st.one_of(_awkward_chars, st.characters()), max_size=6)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 2**63]),
    _awkward_text,
)
# the report writer's row template takes a column whose cells are all one of
# these types; a bool inside an int column, and any other cell, sends the
# whole list through the recursive path
_column_cells = st.sampled_from([
    st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.one_of(st.integers(-(2**80), 2**80), st.booleans()),
])


@st.composite
def _json_tables(draw, inner):
    """A list of dicts with one key set, each key's insertion order drawn per
    row and its cells from one of ``_column_cells``; sometimes one cell is
    any ``inner`` value instead, such as None or a nested list."""
    keys = draw(st.lists(_awkward_text, min_size=1, max_size=4, unique=True))
    cells = {k: draw(_column_cells) for k in keys}
    rows = [{k: draw(cells[k]) for k in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from(keys))] = draw(inner)
    return rows


_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_awkward_text, inner, max_size=4),
        _json_tables(inner),
        _json_tables(inner).map(tuple),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_report_bytes_equal_json_dumps(value):
    assert report_bytes(value) == (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "value",
    [frozenset({1}), {"a": [frozenset()]}, {1: "a"}, {"a": {2: None}}, {"a": 1, 2: 3},
     [{1: 0.5}, {1: 2.0}], [{"a": True, 2: False}, {2: True, "a": False}], [{None: 1}, {None: 2}]],
    ids=["frozenset", "nested frozenset", "int key", "nested int key", "mixed keys",
         "int key in rows", "mixed keys in rows", "None key in rows"],
)
def test_report_bytes_refuses_what_is_not_a_report(value):
    with pytest.raises(TypeError):
        report_bytes(value)


def test_sample_augment_report_bytes_pinned_with_demand_on_the_root():
    # trial trees are memoized by marked set, so a set with the root and the
    # same set without it reach one tree under two keys; the report is the
    # one a memo keyed by terminal set (marked set plus root) gives
    g = random_instance(
        random.Random(0), n_min=8, n_max=10, max_extra_edges=8,
        max_demand_vertices=4, max_total_demand=60,
    )
    g = make_instance(g.n, [(e.u, e.v, e.length) for e in g.edges], g.root,
                      {**g.demands, g.root: 5})
    res = cli._load_and_solve(instance_text(g), RunConfig(eps=0.1, trials=4, seed=2, oracle=True))
    trees = res.instance.trial_trees
    twins = [m for m in trees if g.root in m and m - {g.root} in trees]
    assert twins and all(trees[m] == trees[m - {g.root}] for m in twins)
    digest = hashlib.sha256(report_bytes(build_report("pinned", res))).hexdigest()
    assert digest == "5f0a4521ad999d3383e3636e17aa7cda907aa34a0ab037dd6d1f4f8538ef3985"


def test_reports_byte_identical_for_same_seed(tmp_path):
    instance = write(tmp_path, "path3.graph", CYCLE4)
    blobs = set()
    for rep in range(3):
        out = tmp_path / f"rep{rep}.json"
        code = main(["run", instance, "--seed", "11", "--oracle", "--out-report", str(out)])
        assert code == EXIT_OK
        blobs.add(out.read_bytes())
    assert len(blobs) == 1


def test_invariant_violation_exits_3(tmp_path, monkeypatch, capsys):
    import onetree.cli as cli_module
    from onetree.errors import InvariantError

    def explode(*args, **kwargs):
        raise InvariantError("layer cost bound violated: synthetic")

    monkeypatch.setattr(cli_module, "solve_instance", explode)
    instance = write(tmp_path, "path3.graph", PATH3)
    assert main(["run", instance]) == 3
    assert "layer cost bound violated" in capsys.readouterr().err


def test_demand_at_root_degenerates_cleanly(tmp_path):
    instance = write(tmp_path, "rootonly.graph", "2 1 0\n0 1 1\nd 0 3\n")
    report_path = tmp_path / "r.json"
    code = main(["run", instance, "--ssrob", "exact", "--oracle", "--out-report", str(report_path)])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["tree"]["edges"] == []
    assert report["max_ratio"] == 1.0


def test_conflicting_inputs_rejected(tmp_path, capsys):
    instance = write(tmp_path, "path3.graph", PATH3)
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    assert main(["run", instance, "--corpus", str(corpus_dir)]) == EXIT_INVALID
    assert main(["run"]) == EXIT_INVALID
    # a corpus has a tree per file, and --out-tree names one file
    write(corpus_dir, "path3.graph", PATH3)
    out_tree = tmp_path / "tree.txt"
    assert main(["run", "--corpus", str(corpus_dir), "--out-tree", str(out_tree)]) == EXIT_INVALID
    assert "--out-tree needs a single instance" in capsys.readouterr().err
    assert not out_tree.exists() and not out_tree.with_suffix(".txt.dot").exists()


def _no_solve(*args, **kwargs):
    raise AssertionError("a clash must be refused before any solve")


def test_corpus_report_clashing_with_its_csv_exits_2(tmp_path, monkeypatch, capsys):
    # the CSV companion of summary.csv is summary.csv itself
    write_corpus(tmp_path / "corpus", 2, seed=3)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_load_and_solve", _no_solve)
    assert main(["run", "--corpus", "corpus", "--out-report", "summary.csv"]) == EXIT_INVALID
    assert "error: output summary.csv would overwrite output summary.csv" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize(
    "tree, report, clash",
    [("x", "x", "x"), ("x", "x.dot", "x.dot"), ("x.dot", "sub/../x.dot", "x.dot")],
    ids=["same", "dot", "resolved"],
)
def test_tree_and_report_on_one_file_exit_2(tmp_path, monkeypatch, capsys, tree, report, clash):
    # the edge list, its .dot companion and the report each need a file
    write(tmp_path, "path3.graph", PATH3)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_load_and_solve", _no_solve)
    code = main(["run", "path3.graph", "--out-tree", tree, "--out-report", report])
    assert code == EXIT_INVALID
    # the report is checked first, so the tree file is named as the clash
    assert f"error: output {clash} would overwrite output {report}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["path3.graph", "sub"]


@pytest.mark.parametrize(
    "args, output",
    [
        (["a.graph", "--out-report", "a.graph"], "a.graph"),
        (["a.dot", "--out-tree", "a"], "a.dot"),
        (["--corpus", "c", "--out-report", "c/b.graph"], "c/b.graph"),
    ],
    ids=["report", "tree-dot", "corpus"],
)
def test_output_on_an_input_exits_2(tmp_path, monkeypatch, capsys, args, output):
    for name in ("a.graph", "a.dot", "c/a.graph", "c/b.graph"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        write(tmp_path, name, PATH3)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_load_and_solve", _no_solve)
    assert main(["run", *args]) == EXIT_INVALID
    assert f"error: output {output} would overwrite input {output}" in capsys.readouterr().err
    assert (tmp_path / output).read_text() == PATH3
    assert not (tmp_path / "a").exists()


def test_distinct_outputs_still_run(tmp_path, monkeypatch):
    # an output beside the inputs, or named like one but not read, is fine
    write(tmp_path, "a.graph", PATH3)
    write_corpus(tmp_path / "c", 2, seed=3)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "a.graph", "--out-tree", "a", "--out-report", "a.json"]) == EXIT_OK
    assert all((tmp_path / name).stat().st_size for name in ("a", "a.dot", "a.json"))
    assert (tmp_path / "a").read_text().startswith("# eid u v length flow")
    assert main(["run", "a.graph", "--out-tree", "b.dot"]) == EXIT_OK  # the .dot alone
    assert (tmp_path / "b.dot").read_text().startswith("graph onetree")
    assert not (tmp_path / "b").exists() and not (tmp_path / "b.dot.dot").exists()
    assert main(["run", "--corpus", "c", "--out-report", "c/summary.graph.json"]) == EXIT_OK
    assert json.loads((tmp_path / "c/summary.graph.json").read_text())["instances"] == 2
    assert (tmp_path / "c/summary.graph.csv").read_text().startswith("instance,status")


def test_make_parameters_overrides():
    cfg = RunConfig(eps=0.5, alpha=2.0)
    p = make_parameters(cfg, "exact")
    assert p.alpha == 2.0
    assert p.beta == pytest.approx(3.0)
    assert p.gamma == 2.0  # default retained
    with pytest.raises(ConfigError):
        make_parameters(RunConfig(eps=0.5, alpha=0.5), "exact")
    g = make_instance(3, [(0, 1, 1), (1, 2, 1)], 0, {1: 1, 2: 1})
    res = solve_instance(g, p, ExactSolver())
    assert res.params is res.layers.params is p


class _InstantSolver:
    """Returns a precomputed tree; isolates pipeline time from solver time."""

    name = "fixed"
    quality = "heuristic(fixed)"

    def __init__(self, tree):
        self._tree = tree

    def solve(self, g, threshold, seed=0):
        return self._tree


def _pipeline_seconds(g, params, solver, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        solve_instance(g, params, solver)
        best = min(best, time.perf_counter() - start)
    return best


def test_pipeline_time_scales_gently_with_demand():
    # doubling total demand at fixed n, m grows the threshold grid by an
    # additive log factor, so the pipeline outside the solver stays well
    # under 2x
    rng = random.Random(2718)
    n = 60
    edges = [(rng.randrange(v), v, rng.randint(1, 9)) for v in range(1, n)]
    edges += [
        (u, v, rng.randint(1, 9))
        for u, v in ((rng.randrange(n), rng.randrange(n)) for _ in range(2 * n))
        if u != v
    ]

    def run_with_demand(demand):
        g = make_instance(n, edges, 0, {n - 1: demand})
        params = make_parameters(RunConfig(eps=0.5), "heuristic(fixed)")
        tree = sample_and_augment(g, g.total_demand)
        return _pipeline_seconds(g, params, _InstantSolver(tree))

    small = run_with_demand(2**12)
    large = run_with_demand(2**13)
    assert large <= 2.0 * small + 0.002, (small, large)


def test_importing_the_cli_does_not_load_csv():
    # only the corpus CSV writer imports csv, so a single-instance run skips it
    code = "import onetree.cli, sys; print('csv' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(onetree.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]


def test_importing_the_cli_loads_every_package_module():
    # a module the CLI never loads is code the pipeline does not use, and
    # belongs with the tests that do
    package = Path(onetree.__file__).parent
    code = "import onetree.cli, sys; print(*sorted(m for m in sys.modules if m.startswith('onetree')))"
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = {f"onetree.{p.stem}" for p in package.glob("*.py")} - {"onetree.__init__"}
    assert set(proc.stdout.split()) == {"onetree", *modules}


@pytest.fixture(scope="module")
def solved_corpus_instance():
    """One corpus instance through the pipeline with oracle ratios."""
    g = random_instance(random.Random(3))
    params = make_parameters(RunConfig(eps=0.5), "exact")
    return solve_instance(g, params, ExactSolver(), oracle=ExactSolver())


def _last(res):
    return build_last(res.instance, res.params.alpha)


@pytest.mark.parametrize(
    "get, field",
    [
        pytest.param(lambda res: res, "ratio", id="PipelineResult"),
        pytest.param(lambda res: res.instance, "root", id="Instance"),
        pytest.param(lambda res: res.instance.edges[0], "length", id="Edge"),
        pytest.param(lambda res: res.params, "eps", id="Parameters"),
        pytest.param(lambda res: res.layers, "kept", id="LayerSet"),
        pytest.param(lambda res: res.layers.trees[0], "flows", id="RoutedTree"),
        pytest.param(lambda res: res.layers.decompositions[0], "core", id="RentBuyDecomposition"),
        pytest.param(lambda res: res.result, "rounds", id="SimultaneousTree"),
        pytest.param(lambda res: res.result.rounds[0], "index", id="BuildRound"),
        pytest.param(lambda res: res.bounds, "all_ok", id="LayerBoundReport"),
        pytest.param(lambda res: res.bounds.rows[0], "buy_ok", id="LayerBoundRow"),
        pytest.param(lambda res: res.bounds.structure_rows[0], "ok", id="StructureRow"),
        pytest.param(lambda res: res.ratio, "max_ratio", id="RatioReport"),
        pytest.param(lambda res: res.ratio.rows[0], "ratio", id="RatioRow"),
        pytest.param(_last, "edge_ids", id="LastTree"),
        pytest.param(
            lambda res: verify_last(_last(res), res.params.alpha, res.params.beta),
            "stretch_ok",
            id="LastReport",
        ),
        pytest.param(lambda res: ExactSolver(), "quality", id="ExactSolver"),
        pytest.param(lambda res: SampleAugmentSolver(), "trials", id="SampleAugmentSolver"),
    ],
)
def test_records_are_truthy_and_refuse_assignment(solved_corpus_instance, get, field):
    # a NamedTuple with no fields is an empty tuple, so it would be falsy;
    # frozen dataclasses raise FrozenInstanceError, a subclass of AttributeError
    record = get(solved_corpus_instance)
    assert record
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
