"""Synthetic branch-and-bound environment.

Stands in for an instrumented solver in two roles:

* **shadow-mode collection** — every heuristic is run at every node of a
  simulated search, and its outcome recorded, without any interaction
  between calls; this produces unbiased training datasets.
* **schedule replay** — a schedule is executed node by node with the real
  heuristic-loop semantics (first *improving* success ends the loop at a
  node) to produce an incumbent timeline for primal-integral evaluation.

Nodes arrive as a linear stream: the surrogate training objective ignores
tree shape on purpose, so the simulator does too.  Each (node, heuristic)
pair has a latent outcome — does the heuristic succeed there, after how
many iterations, with what solution quality — drawn once per instance
from the configuration's distributions.  The draw for a pair is seeded by
(instance seed, node id, heuristic id), so regeneration is bit-identical
and outcomes do not depend on the order heuristics are registered in.

Latent iteration counts follow a geometric law truncated at the
heuristic's iteration cap, which gives the familiar monotone
success-versus-effort tradeoff with a single parameter; failed calls
execute the full cap.  Solution qualities are optimum plus a nonnegative
noise offset (minimization convention).
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

from .dataset import Dataset, Observation, validate_identifier
from .errors import InputError, require_finite
from .metrics import IncumbentTimeline, primal_integral, require_time_limit
from .schedule import Schedule

HEURISTIC_CLASSES = ("DIVING", "LNS")

_CONFIG_KEYS = ("name", "instances", "nodes_min", "nodes_max", "interarrival_seconds",
                "optimum_value", "time_limit_seconds", "heuristics")
# per-heuristic configuration keys and their types, in HeuristicSpec field order
_HEURISTIC_KEYS = (("class", str), ("success_probability", float),
                   ("iteration_success_rate", float), ("max_iterations", int),
                   ("seconds_per_iteration", float), ("quality_mean", float),
                   ("quality_spread", float))


@dataclass(frozen=True)
class HeuristicSpec:
    """Latent behavior of one simulated heuristic."""

    id: str
    klass: str
    success_probability: float
    iteration_success_rate: float
    max_iterations: int
    seconds_per_iteration: float
    quality_mean: float
    quality_spread: float

    def __post_init__(self) -> None:
        validate_identifier(self.id, "heuristic")
        # the range checks below already reject NaN and infinities in the two rates
        for name in ("seconds_per_iteration", "quality_mean", "quality_spread"):
            require_finite(getattr(self, name), name)
        if self.klass not in HEURISTIC_CLASSES:
            raise InputError(f"heuristic class must be one of {HEURISTIC_CLASSES}, "
                             f"got {self.klass!r}")
        if not 0.0 <= self.success_probability <= 1.0:
            raise InputError(f"success_probability must lie in [0, 1], "
                             f"got {self.success_probability!r}")
        if not 0.0 < self.iteration_success_rate <= 1.0:
            raise InputError(f"iteration_success_rate must lie in (0, 1], "
                             f"got {self.iteration_success_rate!r}")
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise InputError(f"max_iterations must be a positive integer, "
                             f"got {self.max_iterations!r}")
        if self.seconds_per_iteration <= 0:
            raise InputError(f"seconds_per_iteration must be positive, "
                             f"got {self.seconds_per_iteration!r}")
        if self.quality_spread < 0:
            raise InputError(f"quality_spread must be nonnegative, "
                             f"got {self.quality_spread!r}")


@dataclass(frozen=True)
class SimConfig:
    """Full description of a simulated instance family."""

    heuristics: tuple[HeuristicSpec, ...]
    instances: int
    nodes_min: int
    nodes_max: int
    interarrival_seconds: float
    optimum_value: float = 0.0
    time_limit_seconds: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.heuristics:
            raise InputError("configuration needs at least one heuristic")
        ids = [spec.id for spec in self.heuristics]
        if len(set(ids)) != len(ids):
            raise InputError("heuristic ids must be unique")
        for name in ("instances", "nodes_min", "nodes_max"):
            count = getattr(self, name)
            if not isinstance(count, int):
                raise InputError(f"{name} must be an integer, got {count!r}")
        if self.instances < 1:
            raise InputError(f"instances must be positive, got {self.instances!r}")
        if not 1 <= self.nodes_min <= self.nodes_max:
            raise InputError(f"node count range [{self.nodes_min}, {self.nodes_max}] is invalid")
        require_finite(self.interarrival_seconds, "interarrival_seconds")
        require_finite(self.optimum_value, "optimum_value")
        if self.time_limit_seconds is not None:
            require_finite(self.time_limit_seconds, "time_limit_seconds")
        if self.interarrival_seconds <= 0:
            raise InputError("interarrival_seconds must be positive")
        if self.time_limit_seconds is not None and self.time_limit_seconds <= 0:
            raise InputError("time_limit_seconds must be positive")

    def heuristic_ids(self) -> tuple[str, ...]:
        return tuple(spec.id for spec in self.heuristics)

    def default_time_limit(self) -> float:
        """Time for the worst case: every node runs every heuristic to its cap."""
        per_node = self.interarrival_seconds + sum(
            spec.max_iterations * spec.seconds_per_iteration for spec in self.heuristics)
        return self.nodes_max * per_node + self.interarrival_seconds

    def effective_time_limit(self) -> float:
        return self.time_limit_seconds if self.time_limit_seconds is not None \
            else self.default_time_limit()


@dataclass(frozen=True)
class LatentOutcome:
    """What one heuristic would do at one node.

    ``iterations`` is the count to the first solution on success, and the
    heuristic's cap (the iterations it burns before giving up) on failure.
    """

    succeeds: bool
    iterations: int
    quality: float | None


@dataclass(frozen=True)
class SimInstance:
    """One simulated search; a pure function of (configuration, seed)."""

    seed: int
    heuristics: tuple[HeuristicSpec, ...]
    nodes: tuple[str, ...]
    outcomes: dict
    interarrival_seconds: float
    optimum_value: float

    def outcome(self, node: str, heuristic: str) -> LatentOutcome:
        try:
            return self.outcomes[(node, heuristic)]
        except KeyError:
            raise InputError(f"no latent outcome for ({node!r}, {heuristic!r})") from None


@dataclass(frozen=True)
class NodeRecord:
    """Replay record at one node: calls made and where the loop stopped."""

    node: str
    calls: tuple[tuple[str, int], ...]
    success_position: int | None


@dataclass(frozen=True)
class RunTrace:
    """Full replay of a schedule on one instance."""

    nodes: tuple[NodeRecord, ...]
    timeline: IncumbentTimeline


def _truncated_geometric(rng: random.Random, rate: float, cap: int) -> int:
    """Sample from a geometric law on {1..cap}, conditioned on <= cap."""
    if rate >= 1.0 or cap == 1:
        return 1
    q = 1.0 - rate
    mass = 1.0 - q ** cap
    u = rng.random() * mass
    k = math.ceil(math.log1p(-u) / math.log(q))
    return min(max(k, 1), cap)


def generate_instance(cfg: SimConfig, seed: int) -> SimInstance:
    """Draw the latent outcomes of one instance.

    Deterministic in (cfg, seed); the per-pair draws are keyed by node and
    heuristic id, so permuting the heuristic order in the configuration
    permutes nothing but the registration order.
    """
    shape_rng = random.Random(f"{seed}|shape")
    node_count = shape_rng.randint(cfg.nodes_min, cfg.nodes_max)
    nodes = tuple(f"s{seed}n{i:03d}" for i in range(node_count))
    outcomes: dict[tuple[str, str], LatentOutcome] = {}
    for node in nodes:
        for spec in cfg.heuristics:
            rng = random.Random(f"{seed}|{node}|{spec.id}")
            if rng.random() < spec.success_probability:
                iterations = _truncated_geometric(
                    rng, spec.iteration_success_rate, spec.max_iterations)
                offset = max(0.0, rng.gauss(spec.quality_mean, spec.quality_spread))
                outcome = LatentOutcome(True, iterations, cfg.optimum_value + offset)
            else:
                outcome = LatentOutcome(False, spec.max_iterations, None)
            outcomes[(node, spec.id)] = outcome
    return SimInstance(
        seed=seed,
        heuristics=cfg.heuristics,
        nodes=nodes,
        outcomes=outcomes,
        interarrival_seconds=cfg.interarrival_seconds,
        optimum_value=cfg.optimum_value,
    )


def collect_shadow_dataset(instances) -> Dataset:
    """Record every heuristic at every node of every instance.

    No call influences any other: there is no loop termination and nothing
    is reported back, only observed.  Durations are iterations times the
    heuristic's seconds per iteration.
    """
    instances = list(instances)
    if not instances:
        raise InputError("at least one instance is required")
    reference = instances[0].heuristics
    for inst in instances[1:]:
        if inst.heuristics != reference:
            raise InputError("instances do not share a heuristic universe")
    seen_nodes: set[str] = set()
    observations: list[Observation] = []
    for inst in instances:
        for node in inst.nodes:
            if node in seen_nodes:
                raise InputError(f"duplicate node id {node!r} across instances")
            seen_nodes.add(node)
            for spec in inst.heuristics:
                outcome = inst.outcome(node, spec.id)
                observations.append(Observation(
                    heuristic=spec.id,
                    node=node,
                    iterations_to_solution=outcome.iterations if outcome.succeeds else None,
                    iterations_executed=outcome.iterations,
                    duration_seconds=outcome.iterations * spec.seconds_per_iteration,
                ))
    heuristic_ids = tuple(spec.id for spec in reference)
    nodes = tuple(node for inst in instances for node in inst.nodes)
    return Dataset(heuristic_ids, nodes, tuple(observations))


def run_with_schedule(inst: SimInstance, s: Schedule, time_limit: float) -> RunTrace:
    """Replay a schedule with heuristic-loop semantics.

    The clock advances by the node interarrival time plus iterations
    actually spent times seconds per iteration.  A call that misses (the
    latent outcome needs more iterations than the entry's budget, or never
    succeeds) consumes the entry's full budget.  The first success that
    improves the incumbent ends the node's loop and is recorded as an
    event; non-improving successes cost their iterations but the loop goes
    on.  The run stops once the clock reaches the time limit.
    """
    require_time_limit(time_limit)
    spec_of = {spec.id: spec for spec in inst.heuristics}
    for heuristic in s.heuristics:
        if heuristic not in spec_of:
            raise InputError(f"schedule heuristic {heuristic!r} is unknown to the instance")

    clock = 0.0
    incumbent: float | None = None
    events: list[tuple[float, float]] = []
    records: list[NodeRecord] = []
    timed_out = False
    for node in inst.nodes:
        clock += inst.interarrival_seconds
        if clock >= time_limit:
            timed_out = True
            break
        calls: list[tuple[str, int]] = []
        success_position: int | None = None
        for position, (heuristic, budget) in enumerate(s.entries, start=1):
            outcome = inst.outcome(node, heuristic)
            spec = spec_of[heuristic]
            hit = outcome.succeeds and outcome.iterations <= budget
            spent = outcome.iterations if hit else budget
            clock += spent * spec.seconds_per_iteration
            calls.append((heuristic, spent))
            if clock >= time_limit:
                timed_out = True
                break
            if hit:
                improving = incumbent is None or outcome.quality < incumbent
                if improving:
                    incumbent = outcome.quality
                    events.append((clock, outcome.quality))
                    success_position = position
                    break
        records.append(NodeRecord(node, tuple(calls), success_position))
        if timed_out:
            break
    timeline = IncumbentTimeline(tuple(events), best_known=inst.optimum_value, sense="min")
    return RunTrace(tuple(records), timeline)


@dataclass(frozen=True)
class SeedComparison:
    seed: int
    schedule_integral: float
    baseline_integral: float
    ratio: float


@dataclass(frozen=True)
class PolicyComparison:
    """Relative primal integrals of a schedule against a baseline."""

    rows: tuple[SeedComparison, ...]
    time_limit: float
    mean_ratio: float
    std_ratio: float

    def summary_cell(self) -> str:
        return f"{self.mean_ratio:.2f} ± {self.std_ratio:.2f}"

    def to_csv(self) -> str:
        lines = ["seed,schedule_integral,baseline_integral,ratio"]
        for row in self.rows:
            lines.append(f"{row.seed},{repr(row.schedule_integral)},"
                         f"{repr(row.baseline_integral)},{repr(row.ratio)}")
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        header = f"{'seed':>8}  {'schedule':>14}  {'baseline':>14}  {'ratio':>8}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(f"{row.seed:>8}  {row.schedule_integral:>14.6g}  "
                         f"{row.baseline_integral:>14.6g}  {row.ratio:>8.4f}")
        lines.append("-" * len(header))
        lines.append(f"relative primal integral (mean ± std): {self.summary_cell()}")
        return "\n".join(lines)


def compare_policies(cfg: SimConfig, seeds, s: Schedule, baseline: Schedule,
                     time_limit: float | None = None) -> PolicyComparison:
    """Per-seed primal integrals of two schedules and their ratio."""
    seeds = list(seeds)
    if not seeds:
        raise InputError("at least one seed is required")
    limit = time_limit if time_limit is not None else cfg.effective_time_limit()
    rows: list[SeedComparison] = []
    for seed in seeds:
        inst = generate_instance(cfg, seed)
        schedule_integral = primal_integral(run_with_schedule(inst, s, limit).timeline, limit)
        baseline_integral = primal_integral(run_with_schedule(inst, baseline, limit).timeline,
                                            limit)
        rows.append(SeedComparison(seed, schedule_integral, baseline_integral,
                                   schedule_integral / baseline_integral))
    ratios = [row.ratio for row in rows]
    mean = statistics.fmean(ratios)
    std = statistics.stdev(ratios) if len(ratios) > 1 else 0.0
    return PolicyComparison(tuple(rows), limit, mean, std)


def default_baseline(cfg: SimConfig) -> Schedule:
    """Registration-order schedule with every heuristic at its iteration cap.

    Stands in for a solver's built-in priority order when no baseline
    schedule file is given.
    """
    return Schedule(tuple((spec.id, spec.max_iterations) for spec in cfg.heuristics))


def _parse_scalar(key: str, text: str, kind):
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InputError(f"configuration key {key!r} must be {noun}, got {text!r}") from None


def load_sim_config(source: str) -> SimConfig:
    """Parse the flat ``key = value`` configuration format.

    Top-level keys: ``instances``, ``nodes_min``, ``nodes_max``,
    ``interarrival_seconds``, ``optimum_value`` (default 0),
    ``time_limit_seconds`` (optional), ``name`` (optional) and
    ``heuristics``, a comma-separated id list.  Every listed heuristic
    needs the dotted keys ``<id>.class`` (DIVING or LNS),
    ``<id>.success_probability``, ``<id>.iteration_success_rate``,
    ``<id>.max_iterations``, ``<id>.seconds_per_iteration``,
    ``<id>.quality_mean`` and ``<id>.quality_spread``.  Lines starting
    with ``#`` are comments.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise InputError(f"line {lineno}: empty key")
        if key in entries:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    for required in ("instances", "nodes_min", "nodes_max", "interarrival_seconds",
                     "heuristics"):
        if required not in entries:
            raise InputError(f"configuration is missing required key {required!r}")

    ids = [part.strip() for part in entries["heuristics"].split(",") if part.strip()]
    if not ids:
        raise InputError("configuration key 'heuristics' lists no heuristic ids")

    allowed = set(_CONFIG_KEYS)
    for hid in ids:
        for sub, _ in _HEURISTIC_KEYS:
            allowed.add(f"{hid}.{sub}")
    unknown = sorted(set(entries) - allowed)
    if unknown:
        raise InputError(f"unknown configuration keys: {', '.join(unknown)}")

    specs: list[HeuristicSpec] = []
    for hid in ids:
        keys = [(f"{hid}.{sub}", kind) for sub, kind in _HEURISTIC_KEYS]
        for key, _ in keys:
            if key not in entries:
                raise InputError(f"configuration is missing key {key!r}")
        specs.append(HeuristicSpec(hid, *(_parse_scalar(key, entries[key], kind)
                                          for key, kind in keys)))

    time_limit = None
    if "time_limit_seconds" in entries:
        time_limit = _parse_scalar("time_limit_seconds", entries["time_limit_seconds"], float)
    return SimConfig(
        heuristics=tuple(specs),
        instances=_parse_scalar("instances", entries["instances"], int),
        nodes_min=_parse_scalar("nodes_min", entries["nodes_min"], int),
        nodes_max=_parse_scalar("nodes_max", entries["nodes_max"], int),
        interarrival_seconds=_parse_scalar("interarrival_seconds",
                                           entries["interarrival_seconds"], float),
        optimum_value=_parse_scalar("optimum_value", entries.get("optimum_value", "0"), float),
        time_limit_seconds=time_limit,
        name=entries.get("name", ""),
    )
