"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s`` to see them alongside the test results).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path

from heursched import (GreedyOptions, IncumbentTimeline, Schedule, best_action,
                       breakpoints, build_miqp, build_schedule, check_assignment,
                       check_linearized, collect_shadow_dataset, compare_policies,
                       default_baseline, evaluate, gap_function, generate_instance,
                       load_dataset, load_sim_config, primal_integral,
                       schedule_assignment, solve_exact)
from heursched.cli import dispatch

from conftest import COVERAGE_CFG, PLANTED_CFG, WORKED_CSV, pathological_csv, random_dataset


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_worked_example_reproduction():
    started = time.perf_counter()
    d = load_dataset(WORKED_CSV)
    expected = (("h1", 1), ("h2", 3))
    problems = []

    schedule, _, ev = build_schedule(d, GreedyOptions(alpha_report=0.5))
    if schedule.entries != expected:
        problems.append(f"greedy returned {schedule.entries}")
    if ev.objective != 9 or ev.solved_nodes != 3:
        problems.append(f"evaluation gave objective {ev.objective}, "
                        f"{ev.solved_nodes}/3 solved")

    # at a coverage requirement of one half the optimum leaves N2 unsolved
    # and runs the cheap pair (h1, h3): 1 + (1+2+1) + (1+2) = 8, against
    # 1 + (1+3) + (1+3) = 9 for the greedy full-coverage schedule, which is
    # optimal only above 2/3
    optimum = (("h1", 1), ("h3", 2))
    arithmetic = "1 + (1+2+1) + (1+2) = 8 with N2 unsolved, 2/3 >= 0.5 solved"
    exact = solve_exact(d, 0.5)
    if exact is None or exact[0].entries != optimum or exact[1] != 8:
        got = None if exact is None else (exact[0].entries, exact[1])
        problems.append(f"exact optimum at alpha=0.5 is {got}, "
                        f"expected ({optimum}, 8): {arithmetic}")
    if exact is not None and exact[1] > ev.objective:
        problems.append(f"exact objective {exact[1]} exceeds greedy {ev.objective}")

    # the expected optimum stands on replay and both model checkers alone
    partial = Schedule(optimum)
    partial_ev = evaluate(partial, d, 0.5)
    if not partial_ev.feasible or partial_ev.objective != 8 or partial_ev.solved_nodes != 2:
        problems.append(f"replay of {optimum} gave objective {partial_ev.objective}, "
                        f"{partial_ev.solved_nodes}/3 solved, feasible "
                        f"{partial_ev.feasible}; expected {arithmetic}")
    model = build_miqp(d, 0.5)
    assignment = schedule_assignment(model, partial)
    for form, result in (("original", check_assignment(model, assignment)),
                         ("linearized", check_linearized(model, assignment))):
        if not result.feasible or result.objective != 8:
            problems.append(f"{form} model check of {optimum} gave objective "
                            f"{result.objective}, violations {result.violations}")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    _verdict("1 worked-example reproduction", not problems, "; ".join(problems))


def test_criterion_2_pathological_example_reproduction():
    started = time.perf_counter()
    d = load_dataset(pathological_csv())
    problems = []

    modified, _, _ = build_schedule(d, GreedyOptions(allow_extension=True))
    if modified.entries != (("h", 100),):
        problems.append(f"modified greedy returned {modified.entries}")

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        unmodified, _, ev = build_schedule(
            d, GreedyOptions(allow_extension=False, alpha_report=0.02))
    if unmodified.entries != (("h", 1),):
        problems.append(f"unmodified greedy returned {unmodified.entries}")
    if ev.feasible or ev.success_rate != 0.01:
        problems.append(f"expected infeasible at alpha=0.02, got rate {ev.success_rate}")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    _verdict("2 pathological-example reproduction", not problems, "; ".join(problems))


def test_criterion_3_oracle_sandwich():
    started = time.perf_counter()
    rng = random.Random(101)
    datasets = 0
    comparisons = 0
    violations = []
    while datasets < 200:
        d = random_dataset(rng, max_heuristics=4, max_nodes=8, max_breakpoints=4)
        datasets += 1
        greedy_schedule, _, greedy_ev = build_schedule(d, GreedyOptions())
        for alpha in (0.0, 0.5, 1.0):
            exact = solve_exact(d, alpha)
            if greedy_ev.success_rate >= alpha:
                comparisons += 1
                if exact is None:
                    violations.append(f"oracle infeasible but greedy covers "
                                      f"{greedy_ev.success_rate} at alpha={alpha}")
                elif exact[1] > greedy_ev.objective:
                    violations.append(f"exact {exact[1]} > greedy {greedy_ev.objective} "
                                      f"at alpha={alpha}")
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 60.0
    _verdict("3 oracle sandwich", ok,
             f"{datasets} datasets, {comparisons} comparisons, "
             f"{len(violations)} violations, {elapsed:.1f}s")


def _grid(lo: int, hi: int, points: int = 1000) -> list[float]:
    if hi == lo:
        return [float(lo)]
    return [lo + i * (hi - lo) / (points - 1) for i in range(points)]


def test_criterion_4_breakpoint_dominance():
    rng = random.Random(103)
    states_checked = 0
    worst_excess = 0.0
    while states_checked < 100:
        d = random_dataset(rng, max_heuristics=3, max_nodes=8, max_breakpoints=4)
        all_bps = sorted({b for h in d.heuristics for b in breakpoints(d, h)})
        if not all_bps:
            continue
        lo, hi = all_bps[0], all_bps[-1]
        taus = {h: d.tau_column(h) for h in d.heuristics}

        # walk the greedy trajectory; every intermediate state is consistent
        unsolved = set(d.nodes)
        entries: list[tuple[str, int]] = []
        while unsolved:
            last = entries[-1] if entries else None
            scheduled = {h for h, _ in entries}
            states_checked += 1
            for h in d.heuristics:
                is_last = last is not None and h == last[0]
                if h in scheduled and not is_last:
                    continue
                candidates = [b for b in breakpoints(d, h) if not is_last or b > last[1]]
                floor = last[1] if is_last else 0

                def ratio(budget: float) -> float:
                    covered = sum(1 for n in unsolved
                                  if n in taus[h] and taus[h][n] <= budget)
                    cost = budget - floor
                    return covered / cost if cost > 0 else 0.0

                discrete_best = max((ratio(b) for b in candidates), default=0.0)
                grid_best = max((ratio(t) for t in _grid(lo, hi) if t > floor),
                                default=0.0)
                worst_excess = max(worst_excess, grid_best - discrete_best)
            step = best_action(d, unsolved, scheduled=scheduled, last_entry=last)
            if step is None:
                break
            if step.extends_last:
                entries[-1] = (step.heuristic, step.budget)
            else:
                entries.append((step.heuristic, step.budget))
            unsolved -= {n for n in unsolved
                         if n in taus[step.heuristic] and taus[step.heuristic][n] <= step.budget}
    ok = worst_excess <= 1e-12
    _verdict("4 breakpoint dominance", ok,
             f"{states_checked} states, worst grid excess {worst_excess:.2e}")


def test_criterion_5_miqp_consistency():
    rng = random.Random(107)
    certified = 0
    problems = []
    while certified < 50:
        d = random_dataset(rng, max_heuristics=3, max_nodes=6, max_breakpoints=3)
        alpha = rng.choice([0.0, 0.5])
        result = solve_exact(d, alpha)
        if result is None:
            continue
        schedule, objective = result
        model = build_miqp(d, alpha)
        assignment = schedule_assignment(model, schedule)
        original = check_assignment(model, assignment)
        linearized = check_linearized(model, assignment)
        if not original.feasible:
            problems.append(f"original-form violations {original.violations}")
        if original.objective != objective:
            problems.append(f"objective {original.objective} != enumeration {objective}")
        if not linearized.feasible:
            problems.append(f"linearized violations {linearized.violations}")
        if linearized.objective != objective:
            problems.append(f"linearized objective {linearized.objective} != {objective}")
        certified += 1
    _verdict("5 MIQP consistency", not problems,
             f"{certified} optima certified; " + ("; ".join(problems) or "0 mismatches"))


def _random_timeline(rng: random.Random) -> IncumbentTimeline:
    best = rng.uniform(-50.0, 200.0)
    count = rng.randint(0, 8)
    times = sorted(rng.uniform(0.0, 90.0) for _ in range(count))
    times = [t for i, t in enumerate(times) if i == 0 or t > times[i - 1]]
    values = sorted((best + abs(rng.gauss(10.0, 30.0)) for _ in times), reverse=True)
    values = [v for i, v in enumerate(values) if i == 0 or v < values[i - 1]]
    return IncumbentTimeline(tuple(zip(times, values)), best_known=best)


def test_criterion_6_metric_identities():
    rng = random.Random(109)
    checked = 0
    problems = []
    while checked < 1000:
        tl = _random_timeline(rng)
        horizon = rng.uniform(1.0, 120.0)
        checked += 1
        for _, value in tl.events:
            gap = tl.gap_of(value)
            if not 0.0 <= gap <= 1.0:
                problems.append(f"gap {gap} outside [0,1]")
        integral = primal_integral(tl, horizon)
        if not -1e-12 <= integral <= horizon + 1e-12:
            problems.append(f"P={integral} outside [0,{horizon}]")
        if not tl.events and integral != horizon:
            problems.append("no-incumbent case must equal the horizon")
        if primal_integral(tl, horizon + rng.uniform(0.01, 40.0)) < integral - 1e-12:
            problems.append("P not monotone in the horizon")
        area = gap_function(tl).area(horizon)
        if abs(area - integral) > 1e-12 * max(1.0, abs(integral)):
            problems.append(f"segment area {area} != step sum {integral}")
        if tl.events and tl.events[0][0] > 0.5:
            first_time, first_value = tl.events[0]
            extra = (first_time / 2, first_value + abs(rng.gauss(5.0, 5.0)) + 1e-3)
            augmented = IncumbentTimeline((extra,) + tl.events, best_known=tl.best_known)
            if primal_integral(augmented, horizon) > integral + 1e-9:
                problems.append("inserting an incumbent increased the integral")
        if problems:
            break
    _verdict("6 metric identities", not problems,
             f"{checked} timelines; " + ("; ".join(problems[:2]) or "all identities hold"))


def test_criterion_7_simulator_direction():
    cfg = load_sim_config(PLANTED_CFG)
    train = [generate_instance(cfg, 1000 + i) for i in range(cfg.instances)]
    dataset = collect_shadow_dataset(train)
    schedule, _, _ = build_schedule(dataset, GreedyOptions(normalize_costs=True))
    comparison = compare_policies(cfg, range(25), schedule, default_baseline(cfg))
    ok = comparison.mean_ratio < 0.9
    _verdict("7 simulator direction", ok,
             f"trained {schedule.entries}; mean relative primal integral "
             f"{comparison.mean_ratio:.3f} over {len(comparison.rows)} seeds (< 0.9 required)")


def test_criterion_8_coverage_report_parity():
    cfg = load_sim_config(COVERAGE_CFG)
    asserted = 0
    low = []
    for batch in range(8):
        instances = [generate_instance(cfg, 5000 + batch * 10 + i)
                     for i in range(cfg.instances)]
        d = collect_shadow_dataset(instances)
        solvable = {o.node for o in d.observations if o.succeeded}
        if set(d.nodes) - solvable:
            continue  # full coverage not attainable; not asserted
        _, _, ev = build_schedule(d, GreedyOptions(normalize_costs=True))
        asserted += 1
        if ev.success_rate < 0.98:
            low.append(ev.success_rate)
    ok = asserted > 0 and not low
    _verdict("8 coverage report parity", ok,
             f"{asserted} fully coverable datasets, "
             + (f"rates below 0.98: {low}" if low else "all rates >= 0.98"))


def _run_cli(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = dispatch(argv)
    return status, buffer.getvalue()


def test_criterion_9_manifest_determinism(tmp_path):
    worked = tmp_path / "worked.csv"
    worked.write_text(WORKED_CSV, encoding="utf-8")
    planted = tmp_path / "planted.cfg"
    planted.write_text(PLANTED_CFG, encoding="utf-8")
    small = tmp_path / "small.cfg"
    small.write_text(COVERAGE_CFG.replace("name = coverage", "name = small"),
                     encoding="utf-8")
    large = tmp_path / "large.cfg"
    large.write_text(COVERAGE_CFG.replace("name = coverage", "name = large")
                     .replace("nodes_min = 25", "nodes_min = 40")
                     .replace("nodes_max = 35", "nodes_max = 50"), encoding="utf-8")
    timeline = tmp_path / "tl.csv"
    timeline.write_text("time_seconds,objective_value\n2.0,120.0\n5.0,101.0\n",
                        encoding="utf-8")

    planted_schedule = tmp_path / "planted_schedule.csv"
    planted_schedule.write_text(
        "position,heuristic,max_iterations\n1,quick,20\n2,slow_b,10\n", encoding="utf-8")

    g = tmp_path / "g.csv"
    shadow = tmp_path / "shadow.csv"
    exact_out = tmp_path / "exact.csv"
    model_out = tmp_path / "model.txt"
    run_out = tmp_path / "run.csv"
    cmp_out = tmp_path / "cmp.csv"
    cv_out = tmp_path / "cv.csv"

    commands = [
        ("build", ["build", "--data", str(worked), "--alpha", "0.9", "--out", str(g)]),
        ("eval", ["eval", "--data", str(worked), "--schedule", str(g), "--alpha", "0.9"]),
        ("exact", ["exact", "--data", str(worked), "--alpha", "0.9",
                   "--out", str(exact_out)]),
        ("export-miqp", ["export-miqp", "--data", str(worked), "--alpha", "0.5",
                         "--out", str(model_out)]),
        ("simulate", ["simulate", "--config", str(planted), "--instances", "2",
                      "--seed", "7", "--out", str(shadow)]),
        ("run", ["run", "--config", str(planted), "--schedule", str(planted_schedule),
                 "--seed", "3", "--time-limit", "300", "--out", str(run_out)]),
        ("compare", ["compare", "--config", str(planted),
                     "--schedule", str(planted_schedule), "--seeds", "4",
                     "--time-limit", "300", "--out", str(cmp_out)]),
        ("metrics", ["metrics", "--timeline", str(timeline), "--best-known", "100",
                     "--sense", "min", "--time-limit", "50"]),
        ("crossval", ["crossval", "--configs", f"{small},{large}", "--folds", "2",
                      "--seed", "1", "--time-limit", "120", "--out", str(cv_out)]),
    ]

    problems = []
    for name, argv in commands:
        status, stdout_first = _run_cli(argv)
        if status != 0:
            problems.append(f"{name} exited {status}")
            continue
        outputs = {}
        manifest_argv = argv
        if "--out" in argv:
            out_path = Path(argv[argv.index("--out") + 1])
            manifest_path = out_path.with_name(out_path.name + ".manifest.json")
            if not manifest_path.exists():
                problems.append(f"{name} wrote no manifest")
                continue
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            manifest_argv = manifest["argv"]
            for recorded in manifest["outputs"]:
                outputs[recorded] = Path(recorded).read_bytes()
        status, stdout_second = _run_cli(manifest_argv)
        if status != 0:
            problems.append(f"{name} rerun exited {status}")
        if stdout_second != stdout_first:
            problems.append(f"{name} stdout changed between runs")
        for recorded, before in outputs.items():
            if Path(recorded).read_bytes() != before:
                problems.append(f"{name} output {recorded} changed between runs")
    _verdict("9 manifest determinism", not problems,
             "; ".join(problems) or f"{len(commands)} subcommands byte-identical")
