from __future__ import annotations

import json

import pytest

from heursched import __version__, load_dataset, load_schedule
from heursched.cli import dispatch, run_crossval
from heursched import InputError, load_sim_config

from conftest import COVERAGE_CFG, PLANTED_CFG, WORKED_CSV


@pytest.fixture
def worked_csv(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text(WORKED_CSV, encoding="utf-8")
    return path


def test_build_writes_schedule_and_manifest(tmp_path, worked_csv, capsys):
    out = tmp_path / "g.csv"
    status = dispatch(["build", "--data", str(worked_csv), "--alpha", "0.9",
                       "--out", str(out)])
    assert status == 0
    printed = capsys.readouterr().out
    assert "objective: 9" in printed
    assert "coverage target 0.9: met" in printed
    schedule = load_schedule(out.read_text(encoding="utf-8"))
    assert schedule.entries == (("h1", 1), ("h2", 3))
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "build"
    assert manifest["version"] == __version__
    assert str(out) in manifest["outputs"]


def test_eval_prints_feasibility(tmp_path, worked_csv, capsys):
    out = tmp_path / "g.csv"
    dispatch(["build", "--data", str(worked_csv), "--alpha", "0.9", "--out", str(out)])
    capsys.readouterr()
    status = dispatch(["eval", "--data", str(worked_csv), "--schedule", str(out),
                       "--alpha", "0.9"])
    assert status == 0
    printed = capsys.readouterr().out
    assert "objective: 9" in printed
    assert "success rate: 1" in printed
    assert "FEASIBLE" in printed


def test_exact_subcommand(tmp_path, worked_csv, capsys):
    status = dispatch(["exact", "--data", str(worked_csv), "--alpha", "0.9"])
    assert status == 0
    printed = capsys.readouterr().out
    assert "optimal objective: 9" in printed
    assert "1. h1 up to 1 iterations" in printed


def test_export_miqp_subcommand(tmp_path, worked_csv, capsys):
    out = tmp_path / "model.txt"
    status = dispatch(["export-miqp", "--data", str(worked_csv), "--alpha", "0.5",
                       "--out", str(out)])
    assert status == 0
    text = out.read_text(encoding="utf-8")
    for section in ("VARIABLES", "OBJECTIVE", "LINEAR", "QUADRATIC", "COMMENTS"):
        assert section in text
    assert (tmp_path / "model.txt.manifest.json").exists()


def test_metrics_subcommand(tmp_path, capsys):
    timeline = tmp_path / "empty.csv"
    timeline.write_text("time_seconds,objective_value\n", encoding="utf-8")
    status = dispatch(["metrics", "--timeline", str(timeline), "--best-known", "0",
                       "--sense", "min", "--time-limit", "100"])
    assert status == 0
    printed = capsys.readouterr().out
    assert "primal integral: 100" in printed
    assert "final gap: 1" in printed


def test_simulate_run_compare_pipeline(tmp_path, capsys):
    cfg_path = tmp_path / "planted.cfg"
    cfg_path.write_text(PLANTED_CFG, encoding="utf-8")
    data_path = tmp_path / "shadow.csv"
    status = dispatch(["simulate", "--config", str(cfg_path), "--seed", "11",
                       "--out", str(data_path)])
    assert status == 0
    dataset = load_dataset(data_path.read_text(encoding="utf-8"))
    cfg = load_sim_config(PLANTED_CFG)
    assert set(dataset.heuristics) == set(cfg.heuristic_ids())

    schedule_path = tmp_path / "sched.csv"
    status = dispatch(["build", "--data", str(data_path), "--normalize",
                       "--out", str(schedule_path)])
    assert status == 0

    timeline_path = tmp_path / "timeline.csv"
    status = dispatch(["run", "--config", str(cfg_path), "--schedule", str(schedule_path),
                       "--seed", "101", "--time-limit", "400",
                       "--out", str(timeline_path)])
    assert status == 0
    assert "primal integral:" in capsys.readouterr().out

    compare_out = tmp_path / "cmp.csv"
    status = dispatch(["compare", "--config", str(cfg_path),
                       "--schedule", str(schedule_path), "--seeds", "5",
                       "--time-limit", "400", "--out", str(compare_out)])
    assert status == 0
    printed = capsys.readouterr().out
    assert "relative primal integral" in printed
    assert compare_out.read_text(encoding="utf-8").startswith("seed,")


def test_compare_accepts_seed_lists(tmp_path, capsys):
    cfg_path = tmp_path / "planted.cfg"
    cfg_path.write_text(PLANTED_CFG, encoding="utf-8")
    schedule_path = tmp_path / "base.csv"
    schedule_path.write_text(
        "position,heuristic,max_iterations\n1,quick,20\n", encoding="utf-8")
    status = dispatch(["compare", "--config", str(cfg_path),
                       "--schedule", str(schedule_path), "--seeds", "3,5,9",
                       "--time-limit", "300"])
    assert status == 0
    table = capsys.readouterr().out
    assert all(str(seed) in table for seed in (3, 5, 9))


def test_crossval_matrix_shape(tmp_path, capsys):
    small = tmp_path / "small.cfg"
    small.write_text(COVERAGE_CFG.replace("name = coverage", "name = small"),
                     encoding="utf-8")
    large = tmp_path / "large.cfg"
    large.write_text(
        COVERAGE_CFG.replace("name = coverage", "name = large")
        .replace("nodes_min = 25", "nodes_min = 40")
        .replace("nodes_max = 35", "nodes_max = 50"),
        encoding="utf-8")
    status = dispatch(["crossval", "--configs", f"{small},{large}", "--folds", "2",
                       "--seed", "1", "--time-limit", "120"])
    assert status == 0
    table = capsys.readouterr().out
    lines = [line for line in table.splitlines() if line and not line.startswith("-")]
    # header + one row per train family + the baseline row
    assert len(lines) == 1 + 2 + 1
    assert "small" in table and "large" in table and "baseline" in table


def test_crossval_planted_structure_direction():
    small = load_sim_config(PLANTED_CFG.replace("name = planted", "name = small"))
    large = load_sim_config(PLANTED_CFG.replace("name = planted", "name = large")
                            .replace("nodes_min = 8", "nodes_min = 20")
                            .replace("nodes_max = 12", "nodes_max = 28"))
    report = run_crossval([small, large], folds=2, seed=3)
    # training on a family with a planted cheap winner beats the cap baseline
    # on its own family, and schedules trained on the smaller instances keep
    # working on the larger ones
    assert report.cells[(0, 0)][0] < 1.0
    assert report.cells[(1, 1)][0] < 1.0
    assert report.cells[(0, 1)][0] < 1.0


def test_crossval_rejects_excess_folds():
    configs = [load_sim_config(COVERAGE_CFG), load_sim_config(COVERAGE_CFG)]
    with pytest.raises(InputError, match="fold count"):
        run_crossval(configs, folds=9, seed=0)
    with pytest.raises(InputError, match="at least two"):
        run_crossval(configs[:1], folds=1, seed=0)


def test_exit_codes(tmp_path, monkeypatch, capsys):
    assert dispatch(["--version"]) == 0
    assert dispatch(["nonsense"]) == 1
    assert dispatch(["build", "--no-such-flag"]) == 1
    assert dispatch(["build", "--data", str(tmp_path / "missing.csv")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,dataset\n", encoding="utf-8")
    assert dispatch(["build", "--data", str(bad)]) == 1

    import heursched.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("internal")

    monkeypatch.setattr(cli_module, "build_schedule", boom)
    worked = tmp_path / "worked.csv"
    worked.write_text(WORKED_CSV, encoding="utf-8")
    assert dispatch(["build", "--data", str(worked)]) == 2
    capsys.readouterr()


def test_non_finite_time_limit_exits_cleanly(tmp_path, capsys):
    timeline = tmp_path / "timeline.csv"
    timeline.write_text("time_seconds,objective_value\n1.0,5.0\n", encoding="utf-8")
    assert dispatch(["metrics", "--timeline", str(timeline), "--best-known", "1",
                     "--time-limit", "nan"]) == 1
    captured = capsys.readouterr()
    assert "time limit must be finite" in captured.err
    assert "Traceback" not in captured.err
    assert "primal integral" not in captured.out


def test_non_finite_duration_exits_cleanly(tmp_path, capsys):
    data = tmp_path / "nan.csv"
    data.write_text("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
                    "h,n,1,1,nan\n", encoding="utf-8")
    assert dispatch(["build", "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert "line 2: duration_seconds must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("row, column", [
    ("2.0,nan", "objective_value"), ("2.0,inf", "objective_value"),
    ("nan,3.0", "time_seconds"), ("inf,3.0", "time_seconds"),
])
def test_non_finite_timeline_row_names_its_line(tmp_path, capsys, row, column):
    timeline = tmp_path / "timeline.csv"
    timeline.write_text(f"time_seconds,objective_value\n1.0,5.0\n{row}\n", encoding="utf-8")
    assert dispatch(["metrics", "--timeline", str(timeline), "--best-known", "1",
                     "--time-limit", "10"]) == 1
    err = capsys.readouterr().err
    assert f"line 3: {column} must be finite" in err
    assert "Traceback" not in err
