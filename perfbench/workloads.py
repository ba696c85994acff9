"""The benchmark's workloads: generated inputs, command sequences and checks.

Every workload derives its simulator configuration from the benchmark seed
and hands the program nothing but the generated files.  Heuristic
parameters follow the ROADMAP ranges (success probability U(0.1, 0.9),
iteration success rate U(0.01, 0.3), seconds per iteration U(0.01, 1),
quality mean U(1, 8) with spread 1; interarrival 0.5, optimum 100), drawn
as a Latin hypercube: each range is cut into one stratum per heuristic and
the strata of the four parameters are paired by a fixed scramble.  The seed
picks the point inside each stratum and which heuristic id gets which
stratum.  Independent draws let one seed's family be all fast-converging
heuristics and the next all slow ones, which moved the greedy and exact work
by up to 2x between seeds; stratified draws keep the work per pass close to
constant so that a change in the program, not the seed, moves the figures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from heursched import dataset, miqp, schedule

_RANGES = (("success_probability", 0.1, 0.9), ("iteration_success_rate", 0.01, 0.3),
           ("seconds_per_iteration", 0.01, 1.0), ("quality_mean", 1.0, 8.0))
OPTIMUM = 100
TRAIN_SEED = 100_000  # training instances 100000.. never overlap test seeds 0..N-1
RUN_TIME_LIMIT = 60  # cuts the replayed stream: arrivals alone take 0.5 s x 200 nodes


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    heuristics: int = 12
    nodes: int = 200
    cap: int = 200
    learn_instances: int = 10
    export_instances: int = 4
    train_instances: int = 4
    test_seeds: int = 75
    oracle_heuristics: int = 5
    oracle_nodes: int = 60   # fewer nodes often leave a budget unobserved, shrinking the search
    oracle_cap: int = 3


FULL = Scale()
TINY = Scale(heuristics=5, nodes=20, cap=20, learn_instances=2, export_instances=2,
             train_instances=2, test_seeds=3, oracle_nodes=20, oracle_cap=2)


def family_config(seed: int, heuristics: int, instances: int, nodes: int, cap: int) -> str:
    """Simulator configuration text for one stratified heuristic family.

    Heuristic ``k`` of the shuffled order takes stratum ``m * k mod n`` of each
    parameter, with a different multiplier ``m`` coprime to ``n`` per
    parameter, so each parameter visits every stratum exactly once.
    """
    multipliers = [m for m in range(1, heuristics) if math.gcd(m, heuristics) == 1]
    if len(multipliers) < len(_RANGES):
        raise ValueError(f"{heuristics} heuristics leave too few coprime strata multipliers")
    rng = random.Random(seed)
    stratum = list(range(heuristics))
    rng.shuffle(stratum)
    ids = [f"h{i:02d}" for i in range(heuristics)]
    lines = [f"instances = {instances}", f"nodes_min = {nodes}", f"nodes_max = {nodes}",
             "interarrival_seconds = 0.5", f"optimum_value = {OPTIMUM}",
             "heuristics = " + ",".join(ids)]
    for hid, k in zip(ids, stratum):
        lines += [f"{hid}.class = {'DIVING' if k % 2 == 0 else 'LNS'}",
                  f"{hid}.max_iterations = {cap}", f"{hid}.quality_spread = 1"]
        for (key, lo, hi), m in zip(_RANGES, multipliers):
            value = lo + (hi - lo) * ((m * k) % heuristics + rng.random()) / heuristics
            lines.append(f"{hid}.{key} = {value!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Step:
    """One operation of a pass: a CLI argv, or a library call returning text."""

    name: str
    metric: str | None
    argv: tuple = ()
    call: object = None
    outputs: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: Scale
    shape: dict
    setup: object    # (seed, run_cli) -> None; writes inputs into the cwd
    steps: tuple
    check: object    # ({step name: stdout}) -> [(step name, message)]
    data: str        # dataset file the scale report reads


def _written(path: str) -> tuple:
    return (path, path + ".manifest.json")


def _field(text: str, label: str) -> str:
    """Value after ``label: `` on the first line that starts with it."""
    for line in text.splitlines():
        if line.startswith(label + ": "):
            return line[len(label) + 2:].split(" ")[0]
    raise ValueError(f"no {label!r} line in output")


def verify_schedule(data: str, schedule_path: str, alpha: float) -> str:
    """Audit a schedule through both MIQP checkers and plain replay.

    Module attributes are looked up at call time so that the traced run sees
    each call.
    """
    d = dataset.load_dataset(Path(data).read_text(encoding="utf-8"))
    model = miqp.build_miqp(d, alpha)
    s = schedule.load_schedule(Path(schedule_path).read_text(encoding="utf-8"))
    assignment = miqp.schedule_assignment(model, s)
    original = miqp.check_assignment(model, assignment)
    linear = miqp.check_linearized(model, assignment)
    replay = schedule.evaluate(s, d, alpha)
    return (f"schedule: {schedule_path}\n"
            f"original: {original.feasible} {original.objective!r} {len(original.violations)}\n"
            f"linearized: {linear.feasible} {linear.objective!r} {len(linear.violations)}\n"
            f"evaluate: {replay.success_rate >= alpha} {replay.objective!r}\n")


def _checkers_agree(stdout: dict, step: str) -> list:
    lines = dict(line.split(": ", 1) for line in stdout[step].splitlines())
    original, linear, replay = (lines[key].split() for key in ("original", "linearized",
                                                                "evaluate"))
    failures = []
    if original[0] != linear[0]:
        failures.append((step, f"checkers disagree on feasibility: {original[0]} vs {linear[0]}"))
    if not float(original[1]) == float(linear[1]) == float(replay[1]):
        failures.append((step, f"objectives differ: original {original[1]}, "
                               f"linearized {linear[1]}, evaluate {replay[1]}"))
    return failures


def _learn_check(stdout) -> list:
    built, evaluated = _field(stdout["build"], "objective"), _field(stdout["eval"], "objective")
    if built != evaluated:
        return [("eval", f"eval objective {evaluated} differs from build objective {built}")]
    return []


def _oracle_verify() -> str:
    chosen = "exact.sched" if Path("exact.sched").exists() else "greedy.sched"
    return verify_schedule("data.csv", chosen, 0.9)


def _oracle_check(stdout) -> list:
    failures = _checkers_agree(stdout, "verify")
    greedy_met = _field(stdout["build"], "coverage target 0.9") == "met"
    if stdout["exact"].startswith("INFEASIBLE"):
        if greedy_met:
            failures.append(("exact", "exact reports infeasible but greedy meets alpha"))
    elif greedy_met:
        exact_obj = float(_field(stdout["exact"], "optimal objective"))
        greedy_obj = float(_field(stdout["build"], "objective"))
        if exact_obj > greedy_obj:
            failures.append(("exact", f"exact objective {exact_obj} exceeds greedy {greedy_obj}"))
    return failures


def _replay_check(stdout) -> list:
    ran, measured = (_field(stdout[step], "primal integral") for step in ("run", "metrics"))
    if ran != measured:
        return [("metrics", f"metrics integral {measured} differs from run integral {ran}")]
    return []


def set_up(name: str, seed: int, scale_fields: dict) -> None:
    """Write one workload's inputs into the working directory.

    Entry point of the set-up child process, which imports the program
    afresh so that the measured set-up includes the imports.
    """
    from heursched import cli

    def run_cli(argv):
        rc = cli.dispatch(list(argv))
        if rc != 0:
            raise SystemExit(f"set-up command {' '.join(argv)} exited with {rc}")

    workloads(Scale(**scale_fields))[name].setup(seed, run_cli)


def workloads(scale: Scale = FULL) -> dict:
    """The four workloads at the given input sizes, by name."""
    def write_family(seed, heuristics, instances, nodes, cap):
        Path("family.cfg").write_text(family_config(seed, heuristics, instances, nodes, cap),
                                      encoding="utf-8")

    def learn_setup(seed, run_cli):
        write_family(seed, scale.heuristics, scale.learn_instances, scale.nodes, scale.cap)

    def oracle_setup(seed, run_cli):
        write_family(seed, scale.oracle_heuristics, 1, scale.oracle_nodes, scale.oracle_cap)
        run_cli(("simulate", "--config", "family.cfg", "--out", "data.csv"))

    def export_setup(seed, run_cli):
        write_family(seed, scale.heuristics, scale.export_instances, scale.nodes, scale.cap)
        run_cli(("simulate", "--config", "family.cfg", "--out", "data.csv"))
        run_cli(("build", "--data", "data.csv", "--alpha", "0.85", "--out", "greedy.sched"))

    def replay_setup(seed, run_cli):
        write_family(seed, scale.heuristics, scale.train_instances, scale.nodes, scale.cap)
        run_cli(("simulate", "--config", "family.cfg", "--seed", str(TRAIN_SEED),
                 "--out", "train.csv"))
        run_cli(("build", "--data", "train.csv", "--normalize", "--out", "greedy.sched"))

    family = {"heuristics": scale.heuristics, "nodes_per_instance": scale.nodes,
              "iteration_cap": scale.cap}
    learn = Workload(
        name="learn",
        scale=scale,
        why="shadow collection, CSV parsing and the greedy recount dominate; "
            "exact and miqp never run",
        shape={**family, "instances": scale.learn_instances},
        setup=learn_setup,
        steps=(
            Step("simulate", "simulate_s", ("simulate", "--config", "family.cfg",
                                            "--out", "data.csv"), outputs=_written("data.csv")),
            Step("build", "build_s", ("build", "--data", "data.csv", "--alpha", "0.9",
                                      "--normalize", "--out", "greedy.sched"),
                 outputs=_written("greedy.sched")),
            Step("eval", "eval_s", ("eval", "--data", "data.csv", "--schedule", "greedy.sched",
                                    "--alpha", "0.9", "--normalize")),
        ),
        check=_learn_check,
        data="data.csv",
    )
    oracle = Workload(
        name="oracle",
        scale=scale,
        why="exhaustive exact search is nearly all the work; "
            "control for dataset, greedy and miqp changes",
        shape={"heuristics": scale.oracle_heuristics, "instances": 1,
               "nodes_per_instance": scale.oracle_nodes, "iteration_cap": scale.oracle_cap},
        setup=oracle_setup,
        steps=(
            Step("build", "build_s", ("build", "--data", "data.csv", "--alpha", "0.9",
                                      "--out", "greedy.sched"), outputs=_written("greedy.sched")),
            Step("exact", "exact_s", ("exact", "--data", "data.csv", "--alpha", "0.9",
                                      "--out", "exact.sched"), outputs=_written("exact.sched")),
            Step("exact_norm", "exact_norm_s", ("exact", "--data", "data.csv", "--alpha", "0.9",
                                                "--normalize")),
            Step("export", "export_s", ("export-miqp", "--data", "data.csv", "--alpha", "0.9",
                                        "--out", "model.miqp"), outputs=_written("model.miqp")),
            Step("verify", "verify_s", call=_oracle_verify),
        ),
        check=_oracle_check,
        data="data.csv",
    )
    export = Workload(
        name="export",
        scale=scale,
        why="MIQP build, render and both checkers dominate while writing a large model file",
        shape={**family, "instances": scale.export_instances},
        setup=export_setup,
        steps=(
            Step("export", "export_s", ("export-miqp", "--data", "data.csv", "--alpha", "0.85",
                                        "--out", "model.miqp"), outputs=_written("model.miqp")),
            Step("verify", "verify_s",
                 call=lambda: verify_schedule("data.csv", "greedy.sched", 0.85)),
        ),
        check=lambda stdout: _checkers_agree(stdout, "verify"),
        data="data.csv",
    )
    replay = Workload(
        name="replay",
        scale=scale,
        why="instance generation, loop-semantics replay and primal integrals; "
            "no learning code runs",
        shape={**family, "train_instances": scale.train_instances,
               "test_seeds": scale.test_seeds},
        setup=replay_setup,
        steps=(
            Step("compare", "compare_s", ("compare", "--config", "family.cfg", "--schedule",
                                          "greedy.sched", "--seeds", str(scale.test_seeds),
                                          "--out", "compare.csv"),
                 outputs=_written("compare.csv")),
            Step("run", None, ("run", "--config", "family.cfg", "--schedule", "greedy.sched",
                               "--seed", "0", "--time-limit", str(RUN_TIME_LIMIT),
                               "--out", "run.timeline"), outputs=_written("run.timeline")),
            Step("metrics", None, ("metrics", "--timeline", "run.timeline", "--best-known",
                                   str(OPTIMUM), "--time-limit", str(RUN_TIME_LIMIT))),
        ),
        check=_replay_check,
        data="train.csv",
    )
    return {w.name: w for w in (learn, oracle, export, replay)}
