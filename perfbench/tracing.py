"""Span recording for the traced benchmark run.

The program is not edited: ``install`` replaces the public functions of each
``heursched`` module, at every module attribute the program calls them
through, with wrappers that record one span per call.  A span keeps its
name (``<layer>.<function>``), start and end, the span that was open when it
began and the pass it belongs to, plus a few counts read from the call's
arguments and return value.  Spans stay in memory; the caller writes them out
when the run ends.  Layer times are the clock's seconds within traced passes,
not rescaled to a reference host speed: they split a pass's time between
layers, so their shares are what counts.  Computing a span's counts is the
benchmark's work, not the program's: it is recorded as a ``bench.count``
child of the enclosing span, so that it stays out of that span's self time.

Hot scalar helpers (``replay_node``, ``primal_gap``, identifier validation)
are deliberately left unwrapped: they run millions of times per pass and a
span each would measure the recorder, not the program.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "dataset", "schedule", "greedy", "exact", "miqp", "simulator", "metrics")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans; ``pass_id`` is set by the caller before each pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.pass_id)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                counted = time.perf_counter()
                span.counts = count(args, kwargs, result)
                if span.parent is not None:
                    self.spans.append(Span("bench.count", counted, time.perf_counter(),
                                           span.parent, self.pass_id))
            return result
        return traced


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.end - span.start - covered(children.get(index, ()))
            for index, span in enumerate(spans)]


def _run_counts(args, kwargs, trace) -> dict:
    inst, schedule = args[0], args[1]
    calls = sum(len(record.calls) for record in trace.nodes)
    hits = sum(1 for record in trace.nodes if record.success_position is not None)
    last = trace.nodes[-1] if trace.nodes else None
    cut = len(trace.nodes) < len(inst.nodes) or (
        last is not None and last.success_position is None
        and len(last.calls) < len(schedule.entries))
    return {"calls": calls, "hits": hits, "timeouts": int(cut)}


def _targets(hs):
    """(owner, attribute, count) for every wrapped public function."""
    return (
        (hs.cli, "dispatch", lambda a, k, rc: {"failed": int(rc != 0)}),
        (hs.dataset, "load_dataset", lambda a, k, d: {"rows": len(d.observations)}),
        (hs.dataset, "dump_dataset", None),
        (hs.dataset, "breakpoints", lambda a, k, r: {"breakpoints": (a[1], len(r))}),
        (hs.dataset, "avg_iteration_cost", None),
        (hs.schedule, "replay_tables", None),
        (hs.schedule, "evaluate", lambda a, k, r: {"nodes": len(r.per_node)}),
        (hs.schedule, "load_schedule", None),
        (hs.schedule, "dump_schedule", None),
        (hs.greedy, "build_schedule", lambda a, k, r: {"steps": len(r[1].steps)}),
        (hs.exact, "solve_exact", lambda a, k, r: {"normalize": bool(k.get("normalize"))}),
        (hs.exact, "candidate_count", lambda a, k, r: {"candidates": r}),
        (hs.miqp, "build_miqp", lambda a, k, m: {"variables": len(m.variables),
                                                  "linear_rows": len(m.linear)}),
        (hs.miqp.MiqpModel, "render", lambda a, k, text: {"bytes": len(text.encode())}),
        (hs.miqp, "schedule_assignment", None),
        (hs.miqp, "check_assignment", None),
        (hs.miqp, "check_linearized", None),
        (hs.simulator, "load_sim_config", None),
        (hs.simulator, "generate_instance", lambda a, k, inst: {"pairs": len(inst.outcomes)}),
        (hs.simulator, "collect_shadow_dataset", None),
        (hs.simulator, "run_with_schedule", _run_counts),
        (hs.simulator, "compare_policies", None),
        (hs.simulator, "default_baseline", None),
        (hs.metrics, "primal_integral", lambda a, k, r: {"events": len(a[0].events)}),
        (hs.metrics, "gap_function", None),
        (hs.metrics, "load_timeline", None),
        (hs.metrics, "dump_timeline", None),
    )


def install(recorder: Recorder, hs) -> list:
    """Wrap every target wherever a ``heursched`` module refers to it.

    ``hs`` is a namespace holding the imported package modules.  Returns the
    ``(owner, attribute, original)`` triples needed to undo the patch.
    """
    wrappers = {}
    owners = {}
    for owner, attr, count in _targets(hs):
        fn = getattr(owner, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        wrappers[id(fn)] = (fn, recorder.wrap(f"{layer}.{attr}", fn, count))
        if isinstance(owner, type):
            owners[id(owner)] = owner
    modules = [hs.package] + [getattr(hs, layer) for layer in LAYERS]
    patched = []
    for owner in modules + list(owners.values()):
        for attr, value in list(vars(owner).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[1])
                patched.append((owner, attr, value))
    return patched


def uninstall(patched) -> None:
    for owner, attr, original in patched:
        setattr(owner, attr, original)


def pass_metrics(spans, selfs, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass (spans of that pass only)."""
    def total(*names, when=lambda span: True):
        return sum(t for span, t in zip(spans, selfs) if span.name in names and when(span))

    def count(name, key):
        return sum(span.counts.get(key, 0) for span in spans if span.name == name)

    def largest(name, key):
        return max((span.counts.get(key, 0) for span in spans if span.name == name), default=0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, t in zip(spans, selfs):
        if span.layer in layer_self:
            layer_self[span.layer] += t
    per_heuristic = {}
    for span in spans:
        if span.name == "dataset.breakpoints":
            heuristic, size = span.counts["breakpoints"]
            per_heuristic[heuristic] = size
    load_s = total("dataset.load_dataset")
    rows = count("dataset.load_dataset", "rows")
    build_s = total("greedy.build_schedule")
    steps = count("greedy.build_schedule", "steps")
    calls = count("simulator.run_with_schedule", "calls")
    return {
        "cli.self_s": layer_self["cli"],
        "cli.calls": sum(1 for span in spans if span.name == "cli.dispatch"),
        "cli.failed": count("cli.dispatch", "failed"),
        "dataset.load_s": load_s,
        "dataset.load_calls": sum(1 for span in spans if span.name == "dataset.load_dataset"),
        "dataset.rows": rows,
        "dataset.rows_per_s": rows / load_s if load_s > 0 else 0.0,
        "dataset.dump_s": total("dataset.dump_dataset"),
        "dataset.breakpoints_s": total("dataset.breakpoints"),
        "dataset.breakpoints": sum(per_heuristic.values()),
        "dataset.avg_cost_s": total("dataset.avg_iteration_cost"),
        "schedule.tables_s": total("schedule.replay_tables"),
        "schedule.evaluate_s": total("schedule.evaluate"),
        "schedule.io_s": total("schedule.load_schedule", "schedule.dump_schedule"),
        "schedule.nodes_replayed": count("schedule.evaluate", "nodes"),
        "greedy.build_s": build_s,
        "greedy.steps": steps,
        "greedy.s_per_step": build_s / steps if steps else 0.0,
        "exact.solve_s": total("exact.solve_exact", when=lambda s: not s.counts["normalize"]),
        "exact.norm_solve_s": total("exact.solve_exact", when=lambda s: s.counts["normalize"]),
        "exact.candidates": largest("exact.candidate_count", "candidates"),
        "miqp.build_s": total("miqp.build_miqp"),
        "miqp.render_s": total("miqp.render"),
        "miqp.assign_s": total("miqp.schedule_assignment"),
        "miqp.check_s": total("miqp.check_assignment"),
        "miqp.check_linearized_s": total("miqp.check_linearized"),
        "miqp.variables": largest("miqp.build_miqp", "variables"),
        "miqp.linear_rows": largest("miqp.build_miqp", "linear_rows"),
        "miqp.bytes": largest("miqp.render", "bytes"),
        "simulator.config_s": total("simulator.load_sim_config"),
        "simulator.generate_s": total("simulator.generate_instance"),
        "simulator.pairs": count("simulator.generate_instance", "pairs"),
        "simulator.collect_s": total("simulator.collect_shadow_dataset"),
        "simulator.replay_s": total("simulator.run_with_schedule"),
        "simulator.calls": calls,
        "simulator.hit_ratio": count("simulator.run_with_schedule", "hits") / calls
        if calls else 0.0,
        "simulator.timeouts": count("simulator.run_with_schedule", "timeouts"),
        "metrics.integral_s": total("metrics.primal_integral"),
        "metrics.timeline_io_s": total("metrics.load_timeline", "metrics.dump_timeline"),
        "metrics.events": count("metrics.primal_integral", "events"),
        "bench.spans": sum(1 for span in spans if span.layer in layer_self),
        "bench.unattributed_s": pass_s - sum(layer_self.values()),
    }


def layer_metrics(recorder: Recorder, traced_pass_s: dict) -> dict:
    """Median over traced passes of each per-layer metric.

    ``traced_pass_s`` maps pass id to that pass's wall time.
    """
    by_pass: dict[int, tuple[list, list]] = {}
    for span, t in zip(recorder.spans, self_times(recorder.spans)):
        spans, selfs = by_pass.setdefault(span.pass_id, ([], []))
        spans.append(span)
        selfs.append(t)
    rows = [pass_metrics(*by_pass.get(pass_id, ([], [])), pass_s)
            for pass_id, pass_s in traced_pass_s.items()]
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}
