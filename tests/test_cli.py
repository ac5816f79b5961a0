import json
import random
import time

import pytest

from onetree import make_instance, route
from onetree.cli import (
    EXIT_INVALID,
    EXIT_OK,
    RunConfig,
    dot_text,
    main,
    make_parameters,
    run_corpus,
    solve_instance,
)
from onetree.corpus import instance_text, write_corpus
from onetree.errors import ConfigError

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


def test_sample_augment_demand_beyond_ssize_t_exits_2(tmp_path, capsys):
    # one draw per demand unit cannot even be counted; exact still solves it
    instance = write(tmp_path, "huge.graph", f"3 2 0\n0 1 1\n1 2 1\nd 1 1\nd 2 {10**23}\n")
    assert main(["run", instance]) == EXIT_INVALID
    assert "draws one random number per demand unit" in capsys.readouterr().err
    assert main(["run", instance, "--ssrob", "exact"]) == EXIT_OK


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
    # one spanning tree, but 1499 edges: the enumerator must not recurse per edge
    n = 1500
    g = make_instance(n, [(v, v + 1, 1) for v in range(n - 1)], 0, {n - 1: 1})
    instance = write(tmp_path, "path1500.graph", instance_text(g))
    assert main(["run", instance, "--ssrob", "exact"]) == EXIT_OK


def test_exact_oracle_on_demand_beyond_int64_exits_0(tmp_path):
    # flows wider than any fixed-width integer the flow table can hold
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


def test_dot_marks_zero_flow_dashed():
    from types import SimpleNamespace

    g = make_instance(3, [(0, 1, 1), (0, 2, 1)], 0, {1: 1})
    tree = route(g, (0, 1))  # edge 1 hangs flowless off the root
    res = SimpleNamespace(instance=g, result=SimpleNamespace(tree=tree, rounds=()))
    text = dot_text(res, include_zero_flow=True)
    assert "style=dashed" in text
    assert "style=dashed" not in dot_text(res)


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


def test_corpus_oversized_instance_marked_skipped(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "small.graph").write_text(PATH3)
    n = 12
    edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
    big = make_instance(n, edges, 0, {1: 1})
    (corpus_dir / "big.graph").write_text(instance_text(big))
    out = tmp_path / "summary.json"
    cfg = RunConfig(eps=0.5, ssrob="sample-augment", trials=4, oracle=True, out_report=str(out))
    assert run_corpus(str(corpus_dir), cfg) == EXIT_OK
    summary = json.loads(out.read_text())
    by_name = {row["instance"]: row for row in summary["rows"]}
    assert by_name["big.graph"]["status"] == "oracle skipped"
    assert by_name["small.graph"]["status"] == "ok"


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


def test_conflicting_inputs_rejected(tmp_path):
    instance = write(tmp_path, "path3.graph", PATH3)
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    assert main(["run", instance, "--corpus", str(corpus_dir)]) == EXIT_INVALID
    assert main(["run"]) == EXIT_INVALID


def test_make_parameters_overrides():
    cfg = RunConfig(eps=0.5, alpha=2.0)
    p = make_parameters(cfg, "exact")
    assert p.alpha == 2.0
    assert p.beta == pytest.approx(3.0)
    assert p.gamma == 2.0  # default retained
    with pytest.raises(ConfigError):
        make_parameters(RunConfig(eps=0.5, alpha=0.5), "exact")


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
        from onetree.ssrob import _spt_demand_paths

        tree = route(g, _spt_demand_paths(g))
        return _pipeline_seconds(g, params, _InstantSolver(tree))

    small = run_with_demand(2**12)
    large = run_with_demand(2**13)
    assert large <= 2.0 * small + 0.002, (small, large)
