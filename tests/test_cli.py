from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heursched
import heursched.cli as cli
import heursched.simulator as simulator
import heursched.workers as workers
from heursched import Schedule, __version__, load_dataset, load_schedule
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


def _compare_inputs(tmp_path):
    cfg_path = tmp_path / "planted.cfg"
    cfg_path.write_text(PLANTED_CFG, encoding="utf-8")
    schedule_path = tmp_path / "sched.csv"
    schedule_path.write_text("position,heuristic,max_iterations\n1,quick,20\n2,slow_b,6\n",
                             encoding="utf-8")
    return cfg_path, schedule_path


def _outputs_per_worker_count(monkeypatch, capsys, argv, out) -> list:
    """stdout, output and manifest bytes of ``argv`` with 1 and with 3 workers."""
    manifest = out.with_name(out.name + ".manifest.json")
    outputs = []
    for count in (1, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)
        assert dispatch(argv) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes(), manifest.read_bytes()))
    return outputs


@pytest.mark.parametrize("seeds", ["2", "1,1,2", "4,0,7,3,9"])
def test_compare_bytes_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch, seeds):
    cfg_path, schedule_path = _compare_inputs(tmp_path)
    out = tmp_path / "cmp.csv"
    serial, forked = _outputs_per_worker_count(
        monkeypatch, capsys, ["compare", "--config", str(cfg_path), "--schedule",
                              str(schedule_path), "--seeds", seeds, "--time-limit", "300",
                              "--out", str(out)], out)
    assert serial == forked
    rows = len(seeds.split(",")) if "," in seeds else int(seeds)
    assert serial[1].decode().count("\n") == 1 + rows


def test_crossval_bytes_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch):
    paths = []
    for name, nodes in (("small", 25), ("large", 40)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(COVERAGE_CFG.replace("name = coverage", f"name = {name}")
                        .replace("nodes_min = 25", f"nodes_min = {nodes}")
                        .replace("nodes_max = 35", f"nodes_max = {nodes + 10}"),
                        encoding="utf-8")
        paths.append(str(path))
    out = tmp_path / "matrix.csv"
    serial, forked = _outputs_per_worker_count(
        monkeypatch, capsys, ["crossval", "--configs", ",".join(paths), "--folds", "2",
                              "--seed", "1", "--out", str(out)], out)
    assert serial == forked


@pytest.mark.parametrize("instances", ["1", "2", "5"])
def test_simulate_bytes_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch,
                                                          instances):
    cfg_path, _ = _compare_inputs(tmp_path)
    out = tmp_path / "shadow.csv"
    serial, forked = _outputs_per_worker_count(
        monkeypatch, capsys, ["simulate", "--config", str(cfg_path), "--seed", "4",
                              "--instances", instances, "--out", str(out)], out)
    assert serial == forked
    assert f"instances: {instances}\n" in serial[0]


def test_simulate_overflowing_duration_exits_cleanly(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "overflow.cfg"
    cfg_path.write_text(PLANTED_CFG.replace("slow_a.seconds_per_iteration = 1.0",
                                            "slow_a.seconds_per_iteration = 1e308"),
                        encoding="utf-8")
    out = tmp_path / "shadow.csv"
    for count in (1, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)
        status = dispatch(["simulate", "--config", str(cfg_path), "--instances", "5",
                           "--out", str(out)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.err == ("heursched: error: duration_seconds must be finite and "
                                "nonnegative, got inf\n")
        assert captured.out == ""
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_simulate_rejects_a_rate_whose_complement_rounds_to_one(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(PLANTED_CFG.replace("quick.iteration_success_rate = 0.5",
                                            "quick.iteration_success_rate = 1e-17"),
                        encoding="utf-8")
    out = tmp_path / "shadow.csv"
    assert dispatch(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("heursched: error: iteration_success_rate is too small: "
                            "1 - rate rounds to 1, got 1e-17\n")
    assert not out.exists()


def test_compare_failing_seeds_exit_cleanly_with_the_first_error(tmp_path, capsys, monkeypatch):
    cfg_path, schedule_path = _compare_inputs(tmp_path)
    replay = simulator._replay  # the replay kernel that compare runs per schedule

    def refusing(inst, s, limit):
        if inst.seed in (9, 5):
            raise InputError(f"seed {inst.seed} refused")
        return replay(inst, s, limit)

    monkeypatch.setattr(simulator, "_replay", refusing)
    monkeypatch.setattr(workers, "_worker_count", lambda: 3)
    out = tmp_path / "cmp.csv"
    # seed 9 is a worker's, seed 5 the caller's second
    status = dispatch(["compare", "--config", str(cfg_path), "--schedule", str(schedule_path),
                       "--seeds", "2,9,4,5", "--out", str(out)])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == "heursched: error: seed 9 refused\n"
    assert captured.out == ""
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_crossval_rejects_labels_the_csv_cannot_carry(tmp_path, capsys):
    plain = load_sim_config(COVERAGE_CFG)
    comma = load_sim_config(COVERAGE_CFG.replace("name = coverage", "name = a,b"))
    with pytest.raises(InputError, match="invalid configuration identifier 'a,b'"):
        run_crossval([plain, comma], folds=1, seed=0)
    first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
    first.write_text(COVERAGE_CFG, encoding="utf-8")
    second.write_text(COVERAGE_CFG.replace("name = coverage", "name = a,b"), encoding="utf-8")
    out = tmp_path / "cv.csv"
    assert dispatch(["crossval", "--configs", f"{first},{second}", "--folds", "1",
                     "--out", str(out)]) == 1
    assert "invalid configuration identifier 'a,b'" in capsys.readouterr().err
    assert not out.exists()


def test_crossval_rejects_repeated_labels(tmp_path, capsys):
    cfg = load_sim_config(COVERAGE_CFG)
    with pytest.raises(InputError, match="configuration label 'coverage' is used more than once"):
        run_crossval([cfg, cfg], folds=1, seed=0)
    # unnamed configurations take their file stem as the label
    unnamed = COVERAGE_CFG.replace("name = coverage\n", "")
    paths = [tmp_path / "a" / "family.cfg", tmp_path / "b" / "family.cfg"]
    for path in paths:
        path.parent.mkdir()
        path.write_text(unnamed, encoding="utf-8")
    assert dispatch(["crossval", "--configs", ",".join(map(str, paths)), "--folds", "1"]) == 1
    assert "'family' is used more than once" in capsys.readouterr().err


@pytest.mark.parametrize("given", [False, True], ids=["caps", "given"])
def test_crossval_rejects_the_baseline_rows_label(given):
    label = "baseline (given)" if given else "baseline (caps)"
    baseline = Schedule((("dive_a", 10),)) if given else None
    clash = load_sim_config(COVERAGE_CFG.replace("name = coverage", f"name = {label}"))
    with pytest.raises(InputError, match=re.escape(
            f"configuration label '{label}' is reserved for the baseline row")):
        run_crossval([load_sim_config(COVERAGE_CFG), clash], folds=1, seed=0,
                     baseline=baseline)
    # the other baseline's label is an ordinary configuration name
    other = "baseline (caps)" if given else "baseline (given)"
    run_crossval([load_sim_config(COVERAGE_CFG),
                  load_sim_config(COVERAGE_CFG.replace("name = coverage", f"name = {other}"))],
                 folds=1, seed=0, baseline=baseline)


def test_crossval_cli_rejects_the_baseline_rows_label(tmp_path, capsys):
    first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
    first.write_text(COVERAGE_CFG, encoding="utf-8")
    second.write_text(COVERAGE_CFG.replace("name = coverage", "name = baseline (caps)"),
                      encoding="utf-8")
    out = tmp_path / "cv.csv"
    assert dispatch(["crossval", "--configs", f"{first},{second}", "--folds", "1",
                     "--out", str(out)]) == 1
    assert ("configuration label 'baseline (caps)' is reserved for the baseline row"
            in capsys.readouterr().err)
    assert not out.exists()


def test_simulate_counts_the_rows_it_writes(tmp_path, capsys):
    cfg_path = tmp_path / "coverage.cfg"
    cfg_path.write_text(COVERAGE_CFG, encoding="utf-8")
    data_path = tmp_path / "shadow.csv"
    assert dispatch(["simulate", "--config", str(cfg_path), "--seed", "4",
                     "--instances", "3", "--out", str(data_path)]) == 0
    printed = capsys.readouterr().out
    rows = data_path.read_text(encoding="utf-8").splitlines()[1:]
    assert f"observations: {len(rows)}\n" in printed
    assert "instances: 3\n" in printed and len(rows) > 3


def test_exit_codes(tmp_path, monkeypatch, capsys):
    assert dispatch(["--version"]) == 0
    assert dispatch(["nonsense"]) == 1
    assert dispatch(["build", "--no-such-flag"]) == 1
    assert dispatch(["build", "--data", str(tmp_path / "missing.csv")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,dataset\n", encoding="utf-8")
    assert dispatch(["build", "--data", str(bad)]) == 1

    import heursched.greedy as greedy

    def boom(*args, **kwargs):
        raise RuntimeError("internal")

    monkeypatch.setattr(greedy, "build_schedule", boom)
    worked = tmp_path / "worked.csv"
    worked.write_text(WORKED_CSV, encoding="utf-8")
    assert dispatch(["build", "--data", str(worked)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, status, out, err", [
    (["exact", "--data", "{data}", "--alpha", "1"], 0, "INFEASIBLE (alpha = 1)\n", ""),
    (["simulate", "--config", "{config}", "--instances", "0"], 1, "",
     "heursched: error: instance count must be positive, got 0\n"),
], ids=["exact infeasible", "simulate no instances"])
def test_commands_that_write_no_output(tmp_path, capsys, argv, status, out, err):
    data = tmp_path / "unsolved.csv"  # no heuristic solves N2
    data.write_text("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
                    "h1,N1,1,1,\nh1,N2,inf,10,\n", encoding="utf-8")
    config = tmp_path / "planted.cfg"
    config.write_text(PLANTED_CFG, encoding="utf-8")
    target = tmp_path / "out.csv"
    argv = [arg.format(data=data, config=config) for arg in argv] + ["--out", str(target)]
    assert dispatch(argv) == status
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["planted.cfg", "unsolved.csv"]


def test_non_finite_time_limit_exits_cleanly(tmp_path, capsys):
    timeline = tmp_path / "timeline.csv"
    timeline.write_text("time_seconds,objective_value\n1.0,5.0\n", encoding="utf-8")
    assert dispatch(["metrics", "--timeline", str(timeline), "--best-known", "1",
                     "--time-limit", "nan"]) == 1
    captured = capsys.readouterr()
    assert "time limit must be finite" in captured.err
    assert "Traceback" not in captured.err
    assert "primal integral" not in captured.out


@pytest.mark.parametrize("argv", [
    ["build", "--data", "big.csv", "--normalize"],
    ["exact", "--data", "big.csv", "--normalize"],
    ["export-miqp", "--data", "big.csv", "--out", "model.miqp"],
])
def test_iteration_counts_beyond_2_53_exit_cleanly(tmp_path, capsys, monkeypatch, argv):
    # 10**400 iterations used to overflow float conversion with a traceback,
    # and export-miqp left a truncated model file behind
    monkeypatch.chdir(tmp_path)
    Path("big.csv").write_text(
        "heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
        f"h,n,1,1,\nh,m,{10 ** 400},{10 ** 400},\n", encoding="utf-8")
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("heursched: error: line 3: iterations_executed must be at most "
                            "2**53 = 9007199254740992\n")
    assert captured.out == ""
    assert not Path("model.miqp").exists()


@pytest.mark.parametrize("budget, status", [(2 ** 53, 0), (2 ** 53 + 1, 1), (10 ** 400, 1)],
                         ids=["2**53", "2**53+1", "10**400"])
def test_eval_bounds_schedule_budgets_at_2_53(tmp_path, worked_csv, capsys, budget, status):
    # a 401-digit max_iterations used to end in an OverflowError traceback
    schedule = tmp_path / "big.csv"
    schedule.write_text(f"position,heuristic,max_iterations\n1,h1,{budget}\n", encoding="utf-8")
    assert dispatch(["eval", "--data", str(worked_csv), "--schedule", str(schedule)]) == status
    captured = capsys.readouterr()
    if status:
        assert captured.err == ("heursched: error: line 2: budget for 'h1' must be at most "
                                "2**53 = 9007199254740992\n")
        assert captured.out == ""
    else:
        assert "objective:" in captured.out


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_max_iterations_beyond_2_53_exits_cleanly(tmp_path, capsys, command):
    cfg_path, schedule_path = _compare_inputs(tmp_path)
    cfg_path.write_text(PLANTED_CFG.replace("quick.max_iterations = 20",
                                            f"quick.max_iterations = {10 ** 400}"),
                        encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = {"simulate": ["simulate", "--config", str(cfg_path)],
            "compare": ["compare", "--config", str(cfg_path), "--schedule", str(schedule_path),
                        "--seeds", "2"]}[command]
    assert dispatch(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("heursched: error: max_iterations must be at most "
                            "2**53 = 9007199254740992\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_nodes_max_beyond_the_simulator_limit_exits_cleanly(tmp_path, capsys, command):
    # without --time-limit, 10**400 nodes used to end in an OverflowError
    # traceback from the default time limit
    cfg_path, schedule_path = _compare_inputs(tmp_path)
    cfg_path.write_text(PLANTED_CFG.replace("nodes_max = 12", f"nodes_max = {10 ** 400}"),
                        encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(cfg_path), "--schedule", str(schedule_path),
            "--out", str(out)] + (["--seeds", "2"] if command == "compare" else [])
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "heursched: error: nodes_max must be at most 1000000\n"
    assert not out.exists()


@pytest.mark.parametrize("count", [str(10 ** 30), "9" * 5000], ids=["31 digits", "5000 digits"])
def test_seed_count_beyond_the_simulator_limit_exits_cleanly(tmp_path, capsys, count):
    # a 31-digit count used to end in an OverflowError traceback from range(),
    # and a count too long for int() in an error that repeated it
    cfg_path, schedule_path = _compare_inputs(tmp_path)
    assert dispatch(["compare", "--config", str(cfg_path), "--schedule", str(schedule_path),
                     "--seeds", count]) == 1
    captured = capsys.readouterr()
    assert captured.err == "heursched: error: seed count must be at most 1000000\n"
    assert captured.out == ""


def test_instance_count_beyond_the_simulator_limit_draws_nothing(tmp_path, capsys,
                                                                 monkeypatch):
    # an instance count of 10**30 used to start drawing with no bound
    cfg_path, _ = _compare_inputs(tmp_path)

    def refuse(cfg, seeds):
        raise AssertionError(f"{len(seeds)} instances drawn")

    monkeypatch.setattr(simulator, "simulate_shadow_dataset", refuse)
    out = tmp_path / "shadow.csv"
    assert dispatch(["simulate", "--config", str(cfg_path), "--instances", "1000001",
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "heursched: error: instance count must be at most 1000000\n"
    assert not out.exists()


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


@pytest.mark.parametrize("data, alpha", [
    (WORKED_CSV.replace("N1", "N[1]"), "0.5"),  # brackets are reserved in model names
    (WORKED_CSV, "1.5"),
])
def test_rejected_export_writes_no_files(tmp_path, capsys, data, alpha):
    path = tmp_path / "data.csv"
    path.write_text(data, encoding="utf-8")
    out = tmp_path / "model.txt"
    assert dispatch(["export-miqp", "--data", str(path), "--alpha", alpha, "--out", str(out)]) == 1
    assert not out.exists()
    assert not (tmp_path / "model.txt.manifest.json").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_export_into_missing_directory_exits_cleanly(tmp_path, worked_csv, capsys):
    out = tmp_path / "missing" / "model.txt"
    assert dispatch(["export-miqp", "--data", str(worked_csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("heursched: error:")
    assert "Traceback" not in err


def _checkout_env() -> dict:
    """The environment with this checkout's sources first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part))


@pytest.mark.parametrize("module", ["heursched", "heursched.cli"])
def test_module_runs_from_a_source_checkout(tmp_path, worked_csv, module):
    env = _checkout_env()

    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, encoding="utf-8", timeout=60)

    done = run("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: heursched")
    done = run("export-miqp", "--data", str(worked_csv), "--alpha", "1.5",
               "--out", str(tmp_path / "model.txt"))
    assert done.returncode == 1
    assert "alpha must lie in [0, 1]" in done.stderr
    assert not (tmp_path / "model.txt").exists()


def _fresh_interpreter(code: str, cwd) -> str:
    """Run ``code`` in a new interpreter on this checkout's sources; return its stdout."""
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=_checkout_env(),
                          capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_loads_no_module(tmp_path):
    loaded = _fresh_interpreter(
        "import sys, heursched; print(sorted(m for m in sys.modules if m.startswith('heursched')))",
        tmp_path)
    assert loaded == "['heursched']\n"


@pytest.mark.parametrize("argv", [["build", "--alpha", "0.9"],
                                  ["eval", "--schedule", "sched.csv", "--alpha", "0.9"]],
                         ids=["build", "eval"])
def test_commands_import_only_what_they_run(tmp_path, worked_csv, argv):
    (tmp_path / "sched.csv").write_text("position,heuristic,max_iterations\n1,h1,1\n2,h2,3\n",
                                        encoding="utf-8")
    argv = [*argv, "--data", str(worked_csv)]
    loaded = _fresh_interpreter(
        "import sys; from heursched.cli import dispatch\n"
        f"status = dispatch({argv!r})\n"
        "print(status, sorted(m for m in sys.modules if m.startswith('heursched.')))", tmp_path)
    status, modules = loaded.splitlines()[-1].split(" ", 1)
    assert status == "0"
    for module in ("simulator", "workers", "exact", "metrics"):
        assert f"'heursched.{module}'" not in modules


def test_exported_names_are_their_modules_objects(tmp_path):
    # in a fresh interpreter, so the first access is the one checked
    checked = _fresh_interpreter(
        "import sys, heursched\n"
        "for name in heursched.__all__:\n"
        "    value = getattr(heursched, name)\n"
        "    if name != '__version__':\n"
        "        assert value is getattr(sys.modules[value.__module__], name), name\n"
        "namespace = {}\n"
        "exec('from heursched import *', namespace)\n"
        "assert all(namespace[name] is getattr(heursched, name) for name in heursched.__all__)\n"
        "assert set(heursched.__all__) <= set(dir(heursched))\n"
        "print(len(heursched.__all__))", tmp_path)
    assert checked == f"{len(heursched.__all__)}\n"


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        heursched.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


# SHA-256 of the simulate, compare and run outputs below on the planted
# configuration, recorded with the dict-based simulator (Python 3.11); every
# supported Python must write the same bytes
GOLDEN_DIGESTS = {
    "data.csv": "c4fc22a1df239479487ab678e6ba7d8ddfa2bf4f314b89a73d5a01d6e27ce4c3",
    "cmp.csv": "a94a6cf59a25e9c0b073d3e7acb558532b058223c9a77feb9c72c1d66f9c10fc",
    "run.timeline": "fbe7dd5553cf8815e1803d54372a5a34164e56448a79ed3ff592d5d29c23c821",
}


def test_simulator_outputs_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _compare_inputs(tmp_path)
    for argv in (["simulate", "--config", "planted.cfg", "--seed", "3", "--instances", "6",
                  "--out", "data.csv"],
                 ["compare", "--config", "planted.cfg", "--schedule", "sched.csv", "--seeds", "7",
                  "--time-limit", "300", "--out", "cmp.csv"],
                 ["run", "--config", "planted.cfg", "--schedule", "sched.csv", "--seed", "0",
                  "--time-limit", "60", "--out", "run.timeline"]):
        assert dispatch(argv) == 0
    capsys.readouterr()
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
            for name in GOLDEN_DIGESTS} == GOLDEN_DIGESTS


def _overflowing_default_limit(tmp_path):
    cfg_path, schedule_path = _compare_inputs(tmp_path)
    cfg_path.write_text(PLANTED_CFG.replace("quick.max_iterations = 20",
                                            f"quick.max_iterations = {2 ** 53}")
                        .replace("quick.seconds_per_iteration = 0.05",
                                 "quick.seconds_per_iteration = 1e300"), encoding="utf-8")
    return cfg_path, schedule_path


@pytest.mark.parametrize("command", ["run", "compare"])
def test_overflowing_default_time_limit_is_named(tmp_path, capsys, command):
    # the worst-case default limit overflows to inf; it used to be reported as
    # "time limit must be finite, got inf", a limit nobody gave
    cfg_path, schedule_path = _overflowing_default_limit(tmp_path)
    argv = [command, "--config", str(cfg_path), "--schedule", str(schedule_path)] + (
        ["--seeds", "2"] if command == "compare" else [])
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("heursched: error: the default time limit (every node running "
                            "every heuristic to its cap) overflows; set time_limit_seconds or "
                            "pass --time-limit\n")
    assert captured.out == ""
    assert dispatch(argv + ["--time-limit", "60"]) == 0
    assert "primal integral" in capsys.readouterr().out


LONG_TEXTS = ["9" * 5000, "9" * 4999 + "x"]


@pytest.mark.parametrize("text", LONG_TEXTS, ids=["5000 digits", "4999 digits and a letter"])
@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--config", "planted.cfg", "--out", "d.csv", "--instances"], "--instances"),
    (["simulate", "--config", "planted.cfg", "--out", "d.csv", "--seed"], "--seed"),
    (["run", "--config", "planted.cfg", "--schedule", "sched.csv", "--seed"], "--seed"),
    (["crossval", "--configs", "planted.cfg,planted.cfg", "--folds"], "--folds"),
    (["crossval", "--configs", "planted.cfg,planted.cfg", "--folds", "1", "--seed"], "--seed"),
    (["exact", "--data", "worked.csv", "--max-heuristics"], "--max-heuristics"),
    (["exact", "--data", "worked.csv", "--max-breakpoints"], "--max-breakpoints"),
    (["exact", "--data", "worked.csv", "--enumeration-budget"], "--enumeration-budget"),
], ids=["simulate instances", "simulate seed", "run seed", "crossval folds", "crossval seed",
        "max-heuristics", "max-breakpoints", "enumeration-budget"])
def test_integer_flags_quote_long_texts_briefly(tmp_path, monkeypatch, capsys, argv, flag, text):
    # int() refuses these texts; the whole text used to be repeated in the error
    monkeypatch.chdir(tmp_path)
    _compare_inputs(tmp_path)
    assert dispatch(argv + [text]) == 1
    err = capsys.readouterr().err
    first = err.splitlines()[0]
    assert first == (f"heursched: error: argument {flag}: invalid int value: "
                     f"{text[:20]!r}... (5000 characters)")
    assert len(err) < 1000


def test_seed_lists_quote_long_entries_briefly_and_keep_exact_seeds(tmp_path, capsys):
    cfg_path, schedule_path = _compare_inputs(tmp_path)
    argv = ["compare", "--config", str(cfg_path), "--schedule", str(schedule_path), "--seeds"]
    for text in LONG_TEXTS:
        seeds = f"1,2,{text}"
        assert dispatch(argv + [seeds]) == 1
        assert capsys.readouterr().err == (f"heursched: error: cannot parse seeds from "
                                           f"{seeds[:20]!r}... (5004 characters): expected a "
                                           "count or a comma-separated list\n")
    # short texts keep their messages; a large seed is used as given
    assert dispatch(argv + ["1,x"]) == 1
    assert capsys.readouterr().err == ("heursched: error: cannot parse seeds from '1,x': "
                                       "expected a count or a comma-separated list\n")
    assert dispatch(["run", "--config", str(cfg_path), "--schedule", str(schedule_path),
                     "--seed", "x1"]) == 1
    assert capsys.readouterr().err.splitlines()[0] == ("heursched: error: argument --seed: "
                                                       "invalid int value: 'x1'")
    out = tmp_path / "cmp.csv"
    assert dispatch(argv + [f"5,{10 ** 30}", "--time-limit", "100", "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text(encoding="utf-8").splitlines()[1:]] == [
        "5", str(10 ** 30)]


def test_repeated_dispatch_leaves_no_cyclic_garbage(tmp_path, monkeypatch, capsys):
    # an argparse parser is a web of reference cycles; building one per call
    # left garbage that waits for a full collection, which a run that makes
    # few container objects seldom triggers, so memory crept up call by call
    # (manifests are not written here: json's indented encoder makes cycles too)
    monkeypatch.chdir(tmp_path)
    _compare_inputs(tmp_path)
    Path("run.timeline").write_text("time_seconds,objective_value\n1.0,105.0\n",
                                    encoding="utf-8")
    argv = [["compare", "--config", "planted.cfg", "--schedule", "sched.csv", "--seeds", "3",
             "--time-limit", "60"],
            ["run", "--config", "planted.cfg", "--schedule", "sched.csv", "--time-limit", "60"],
            ["metrics", "--timeline", "run.timeline", "--best-known", "100", "--time-limit", "60"]]
    for args in argv:
        assert dispatch(args) == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for args in argv:
                assert dispatch(args) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
