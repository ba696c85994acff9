"""Layered benchmark of the heursched command-line pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload learn --seed 7 --seconds 25 --trace 0

One process runs one workload as a closed loop: a single caller, no threads,
each command starting when the previous one returns.  Set-up runs
``SETUP_REPEATS`` times, each in a fresh interpreter so that imports count;
the median is reported.  Then passes of the workload's command sequence run
back to back for ``--seconds`` seconds in a fresh work directory, with
relative paths so that manifests are byte-stable.  Times are rescaled to a
reference host speed measured around every operation (see ``calibrate``);
``--trace 1`` reports the raw wall-clock medians next to them.  After
every pass, untimed, the SHA-256 of every output file and of every command's
stdout is compared with the digests in ``perfbench/digests.json``, and the
workload's invariants are checked; any miss fails that operation.

The digests were recorded for input seeds 0 to ``RECORDED_SEEDS - 1``, so
``--seed N`` generates the inputs of seed ``N mod RECORDED_SEEDS``: every run
is checked against a recorded reference.  Adding seeds means recording their
digests from a commit whose outputs are known to be right, in a reviewed
change of ``digests.json``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes: the untraced ones give the per-command
timings, the traced ones the per-layer metrics (see ``tracing.py``), and the
difference between the two is the tracing overhead.  The last line of stdout
is one JSON object; a fuller record with quartiles and sample counts goes to
``.perfbench-run/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
OUT = ROOT / ".perfbench-run"
RECORDED_SEEDS = 16  # digests.json holds input seeds 0..15 of every workload
SETUP_REPEATS = 5
CALIBRATION_LOOPS = 1500
REFERENCE_CALIBRATION_S = 0.028  # calibrate() on a quiet 2.1 GHz Xeon under CPython 3.11
SETUP_TIMEOUT_S = 120
MIN_PASSES = 3
WORKLOAD_NAMES = ("learn", "oracle", "export", "replay")
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
COMMAND_METRICS = ("simulate_s", "build_s", "eval_s", "exact_s", "exact_norm_s", "export_s",
                   "verify_s", "compare_s")


@dataclass
class Outcome:
    rc: int
    stdout: str
    seconds: float
    warnings: list = field(default_factory=list)
    error: str = ""


@dataclass
class PassResult:
    traced: bool
    pass_s: float      # at reference host speed (see calibrate)
    wall_s: float      # as the clock read it
    step_s: dict       # command metric -> seconds at reference host speed
    failed: dict       # step name -> reason
    bytes_out: int


def run_cli(cli, argv) -> Outcome:
    """One CLI invocation through ``cli.dispatch``, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.dispatch(list(argv))
    seconds = time.perf_counter() - start
    return Outcome(rc, out.getvalue(), seconds, [str(w.message) for w in caught], err.getvalue())


def run_call(call) -> Outcome:
    start = time.perf_counter()
    try:
        text = call()
    except Exception:  # a failed library call is a failed operation, not a crash
        return Outcome(2, "", time.perf_counter() - start, error=traceback.format_exc())
    return Outcome(0, text, time.perf_counter() - start)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_digests(workload, outcomes) -> dict:
    """``{step: {artifact: sha256}}``; a missing output reads ``missing``."""
    digests = {}
    for step in workload.steps:
        entry = {"stdout": hashlib.sha256(outcomes[step.name].stdout.encode()).hexdigest()}
        for path in step.outputs:
            entry[path] = sha256_file(path) if os.path.exists(path) else "missing"
        digests[step.name] = entry
    return digests


def calibrate() -> float:
    """Seconds a fixed pure-Python workload takes right now.

    The host this benchmark runs on is shared: the speed at which it executes
    the same code drifts by 20% and more over tens of seconds, which no number
    of passes averages out.  Every timed operation is bracketed by
    calibrations and rescaled to the speed at which this workload takes
    ``REFERENCE_CALIBRATION_S``.  Like the program, it splits its time between
    seeding ``random.Random`` from strings and interpreting dict and tuple
    code; a loop of either kind alone tracked the slowdowns of only some
    workloads.  It does not touch the program, so a change to the program
    moves the rescaled times in full.
    """
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_LOOPS):
        x = random.Random(f"{i}|calibration").random()
        for j in range(25):
            key = (j, i % 89)
            table[key] = table.get(key, 0.0) + x
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_CALIBRATION_S / ((before + after) / 2)


def run_pass(cli, workload, traced: bool) -> tuple[PassResult, dict]:
    for step in workload.steps:
        for path in step.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    outcomes, scaled = {}, {}
    before = calibrate()
    for step in workload.steps:
        outcome = run_cli(cli, step.argv) if step.call is None else run_call(step.call)
        after = calibrate()
        outcomes[step.name] = outcome
        scaled[step.name] = at_reference_speed(outcome.seconds, before, after)
        before = after
    failed = {name: f"exit code {o.rc}: {o.error.strip()[-300:]}"
              for name, o in outcomes.items() if o.rc != 0}
    bytes_out = sum(len(outcomes[step.name].stdout.encode())
                    + sum(os.path.getsize(p) for p in step.outputs if os.path.exists(p))
                    for step in workload.steps if step.call is None)
    step_s = {step.metric: scaled[step.name] for step in workload.steps if step.metric}
    wall_s = sum(outcome.seconds for outcome in outcomes.values())
    return PassResult(traced, sum(scaled.values()), wall_s, step_s, failed, bytes_out), outcomes


def check_pass(workload, outcomes, digests, reference, result: PassResult) -> None:
    """Record digest mismatches and failed invariants in ``result.failed``."""
    for step, artifacts in digests.items():
        for artifact, value in artifacts.items():
            expected = reference.get(step, {}).get(artifact)
            if expected != value and step not in result.failed:
                result.failed[step] = f"digest of {artifact} is {value[:12]}, " \
                                      f"expected {str(expected)[:12]}"
    try:
        problems = workload.check({name: o.stdout for name, o in outcomes.items()})
    except (ValueError, KeyError) as exc:
        problems = [(workload.steps[-1].name, f"output could not be checked: {exc!r}")]
    for step, message in problems:
        result.failed.setdefault(step, message)


def summary(values) -> dict:
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("s_per_step"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes") or name.endswith("bytes_out"):
        return "B"
    return "count"


def scale_report(hs, workload, outcomes) -> dict:
    """Base counts of the workload's inputs and outputs, for every ratio."""
    d = hs.dataset.load_dataset(Path(workload.data).read_text(encoding="utf-8"))
    report = {"heuristics": len(d.heuristics), "nodes": len(d.nodes),
              "rows": len(d.observations),
              "breakpoints": sum(len(hs.dataset.breakpoints(d, h)) for h in d.heuristics)}
    if any(step.argv[:1] == ("exact",) for step in workload.steps):
        report["candidates"] = hs.exact.candidate_count(d)
    for step in workload.steps:
        if step.argv[:1] == ("export-miqp",):
            lines = dict(line.split(": ", 1) for line in outcomes[step.name].stdout.splitlines())
            report["model_variables"] = int(lines["variables"])
            report["model_linear_rows"] = int(lines["linear constraints"])
            report["model_bytes"] = os.path.getsize(step.outputs[0])
    return report


def load_reference(workload, seed: int) -> dict:
    """Recorded digests of ``workload`` (full or tiny scale) at input ``seed``."""
    from workloads import FULL, TINY
    scale = {FULL: "full", TINY: "tiny"}[workload.scale]
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    try:
        return table[scale][workload.name][str(seed)]
    except KeyError:
        raise KeyError(f"no digests recorded for {scale} {workload.name} seed {seed}") from None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heursched").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def import_program():
    """Import heursched from this checkout's ``src``; None when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import heursched
        from heursched import cli, dataset, exact, greedy, metrics, miqp, schedule, simulator
    except ImportError as exc:
        print(f"perfbench: cannot import heursched from {src}: {exc}", file=sys.stderr)
        return None
    if src.resolve() not in Path(heursched.__file__).resolve().parents:
        print(f"perfbench: heursched was imported from {heursched.__file__}, not {src}",
              file=sys.stderr)
        return None
    return argparse.Namespace(package=heursched, cli=cli, dataset=dataset, exact=exact,
                              greedy=greedy, metrics=metrics, miqp=miqp, schedule=schedule,
                              simulator=simulator)


def setup(workload, seed: int, work: Path) -> tuple[list, Path]:
    """Set the workload up ``SETUP_REPEATS`` times, each in a fresh interpreter.

    Each time covers interpreter start, imports and the input files a user
    would have to produce before the first command.  Returns ``(rescaled,
    wall)`` seconds per set-up and the last copy's directory, which is kept
    for the passes.
    """
    child = (f"import sys; sys.path[:0] = {[str(ROOT / 'src'), str(BENCH)]!r}; "
             f"import workloads; workloads.set_up({workload.name!r}, {seed}, "
             f"{dataclasses.asdict(workload.scale)!r})")
    times = []
    before = calibrate()
    for repeat in range(SETUP_REPEATS):
        directory = work / f"setup{repeat}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", child], cwd=directory,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up of {workload.name} failed:\n{done.stderr}")
        after = calibrate()
        times.append((at_reference_speed(seconds, before, after), seconds))
        before = after
        if repeat < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    return times, directory


def measure(hs, workload, seconds: float, traced: bool, reference: dict, recorder):
    """Passes until the time is up.

    Returns the passes, the first pass's digests, the warnings seen and the
    last pass's outcomes.
    """
    passes, warned = [], set()
    first_digests = None
    minimum = 2 * MIN_PASSES - 2 if traced else MIN_PASSES
    start = time.perf_counter()
    while True:
        trace_this = traced and len(passes) % 2 == 1
        patched = []
        if trace_this:
            recorder.pass_id = len(passes)
            patched = tracing.install(recorder, hs)
        try:
            result, outcomes = run_pass(hs.cli, workload, trace_this)
        finally:
            tracing.uninstall(patched)
        digests = artifact_digests(workload, outcomes)
        if first_digests is None:
            first_digests = digests
        check_pass(workload, outcomes, digests, reference, result)
        for outcome in outcomes.values():
            warned.update(outcome.warnings)
        passes.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= minimum and elapsed + typical > seconds:
            return passes, first_digests, sorted(warned), outcomes


def bench(hs, workload, seed: int, seconds: float, trace: bool, reference: dict,
          work: Path) -> dict:
    """Set up, measure and check one workload at input ``seed``.

    ``reference`` holds the expected digests (see ``load_reference``).
    Returns the run's record; ``record["result"]`` is the object the last
    output line carries.
    """
    recorder = tracing.Recorder()
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, pass_dir = setup(workload, seed, work)
        os.chdir(pass_dir)
        passes, first_digests, warned, outcomes = measure(
            hs, workload, seconds, trace, reference, recorder)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scale = scale_report(hs, workload, outcomes)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = len(passes) * len(workload.steps)
    failed = sum(len(p.failed) for p in passes)
    stats = {"setup_s": summary(s for s, _ in setup_times),
             "setup_wall_s": summary(wall for _, wall in setup_times),
             "pass_s": summary(p.pass_s for p in untraced),
             "pass_wall_s": summary(p.wall_s for p in untraced)}
    for metric in COMMAND_METRICS:
        if metric in untraced[0].step_s:
            stats[metric] = summary(p.step_s[metric] for p in untraced)
    stats["peak_rss_mb"] = summary([peak_rss_mb])
    stats["fail_ratio"] = summary([failed / attempted])
    record = {
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "first_pass_digests": first_digests,
        "shape": workload.shape, "scale": scale, "stats": stats,
        "expected_warnings": warned, "attempted": attempted, "failed": failed,
        "failures": [f"pass {i}: {step}: {why}" for i, p in enumerate(passes)
                     for step, why in p.failed.items()],
        "spans": recorder.spans,
    }
    if trace:
        layers = tracing.layer_metrics(recorder, {i: p.wall_s for i, p in enumerate(passes)
                                                  if p.traced})
        layers["cli.bytes_out"] = statistics.median(p.bytes_out for p in traced)
        layers["bench.trace_overhead_s"] = (statistics.median(p.pass_s for p in traced)
                                            - stats["pass_s"]["median"])
        layers["bench.pass_wall_s"] = stats["pass_wall_s"]["median"]
        layers["bench.setup_wall_s"] = stats["setup_wall_s"]["median"]
        for metric in COMMAND_METRICS:
            layers[metric] = stats[metric]["median"] if metric in stats else 0.0
        layers["fail_ratio"] = failed / attempted
        record["layers"] = reported = layers
    else:
        reported = {name: stats[name]["median"] for name in END_TO_END}
    record["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                        "metrics": {name: {"value": value, "unit": unit_of(name)}
                                    for name, value in reported.items()}}
    return record


def write_record(workload, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans")
    if record["trace"]:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as sink:
            for span in spans:
                sink.write(json.dumps(vars(span)) + "\n")
    full = {"workload": workload.name, "why": workload.why,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "source_sha256": source_digest(), **record}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")


def report(workload, record: dict) -> None:
    print(f"workload {workload.name} input seed {record['seed']}: "
          f"{record['stats']['pass_s']['n']} untraced passes")
    print("scale " + " ".join(f"{k}={v}" for k, v in {**workload.shape,
                                                        **record['scale']}.items()))
    for name, s in record["stats"].items():
        print(f"  {name:<14} median {s['median']:.6g} {unit_of(name)}"
              f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    for name, value in record.get("layers", {}).items():
        if name not in record["stats"]:
            print(f"  {name:<28} {value:.6g} {unit_of(name)}")
    for message in record["expected_warnings"]:
        print(f"expected warning: {message}")
    for line in record["failures"][:10]:
        print(f"FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hs = import_program()
    if hs is None:
        return 2
    from workloads import workloads
    workload = workloads()[args.workload]
    seed = args.seed % RECORDED_SEEDS
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    record = bench(hs, workload, seed, args.seconds, bool(args.trace),
                   load_reference(workload, seed), work)
    report(workload, record)
    write_record(workload, record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
