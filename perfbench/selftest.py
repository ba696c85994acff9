"""Self-tests of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 perfbench/selftest.py

(The file is named so that the repository's pytest run does not collect it.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest

import run
import tracing

HS = run.import_program()
from workloads import TINY, family_config, workloads  # noqa: E402  (needs the program on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_bench(name: str, trace: bool) -> dict:
    workload = workloads(TINY)[name]
    return run.bench(HS, workload, 7, 0, trace, run.load_reference(workload, 7),
                     run.OUT / f"selftest-{name}")


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [tracing.Span("cli.dispatch", 0.0, 10.0, None, 0),
                 tracing.Span("dataset.load_dataset", 1.0, 3.0, 0, 0),
                 tracing.Span("greedy.build_schedule", 2.0, 5.0, 0, 0),
                 tracing.Span("dataset.breakpoints", 2.5, 4.5, 2, 0),
                 tracing.Span("schedule.evaluate", 7.0, 8.0, 0, 0)]
        # children of the root cover [1, 5] and [7, 8]; the grandchild is not the root's
        self.assertEqual(tracing.self_times(spans), [5.0, 2.0, 1.0, 2.0, 1.0])

    def test_union_of_intervals(self):
        self.assertEqual(tracing.covered([]), 0.0)
        self.assertEqual(tracing.covered([(3.0, 4.0), (0.0, 2.0), (1.0, 2.5)]), 3.5)

    def test_counting_stays_out_of_parent_self_time(self):
        recorder = tracing.Recorder()
        slow_count = lambda args, kwargs, result: time.sleep(0.05) or {}  # noqa: E731
        inner = recorder.wrap("dataset.load_dataset", lambda: None, slow_count)
        recorder.wrap("cli.dispatch", inner)()
        selfs = tracing.self_times(recorder.spans)
        self.assertEqual([span.name for span in recorder.spans],
                         ["cli.dispatch", "dataset.load_dataset", "bench.count"])
        self.assertLess(selfs[0], 0.01)
        self.assertEqual(tracing.pass_metrics(recorder.spans, selfs, 1.0)["bench.spans"], 2)


class Smoke(unittest.TestCase):
    def test_every_workload_traced(self):
        per_layer = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                result = tiny_bench(name, True)["result"]
                self.assertEqual((result["correct"], result["failed"]), (True, 0))
                self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, per_layer)

    def test_end_to_end_metrics(self):
        result = tiny_bench("replay", False)["result"]
        self.assertTrue(result["correct"])
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_same_seed_same_inputs(self):
        self.assertEqual(family_config(3, 5, 2, 20, 20), family_config(3, 5, 2, 20, 20))
        self.assertNotEqual(family_config(3, 5, 2, 20, 20), family_config(4, 5, 2, 20, 20))

    def test_every_input_seed_has_digests(self):
        for workload in workloads().values():
            for seed in range(run.RECORDED_SEEDS):
                self.assertIn("stdout", next(iter(run.load_reference(workload, seed).values())))
            with self.assertRaises(KeyError):
                run.load_reference(workload, run.RECORDED_SEEDS)


class AlteredOutput(unittest.TestCase):
    def test_mutated_schedule_counts_as_failure(self):
        original = HS.cli.dump_schedule

        def mutated(schedule):
            header, *rows = original(schedule).splitlines()
            position, heuristic, budget = rows[-1].split(",")
            rows[-1] = f"{position},{heuristic},{int(budget) + 1}"
            return "\n".join([header, *rows]) + "\n"

        HS.cli.dump_schedule = mutated
        try:
            record = tiny_bench("learn", False)
        finally:
            HS.cli.dump_schedule = original
        self.assertFalse(record["result"]["correct"])
        self.assertGreater(record["stats"]["fail_ratio"]["median"], 0)
        self.assertTrue(any("build: digest of greedy.sched" in line
                            for line in record["failures"]))


class WithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_source(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "learn", "--seed", "7",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
