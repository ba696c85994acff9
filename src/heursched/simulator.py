"""Synthetic branch-and-bound environment.

Stands in for an instrumented solver in two roles:

* **shadow-mode collection** — every heuristic is run at every node of a
  simulated search, and its outcome recorded, without any interaction
  between calls; this produces unbiased training datasets.  Training
  collection (``simulate_shadow_dataset``, behind the ``simulate`` command
  and cross-validation's training folds) draws each instance and builds
  its dataset columns in one forked job; the dataset is byte-identical to a
  serial ``collect_shadow_dataset`` run.
* **schedule replay** — a schedule is executed node by node with the real
  heuristic-loop semantics (first *improving* success ends the loop at a
  node) to produce an incumbent timeline for primal-integral evaluation.
* **policy comparison and cross-validation** — ``compare_policies`` and
  ``run_crossval`` share one per-seed loop: each test instance is generated
  once, every schedule replays on it, then the baseline does, once.
  Cross-validation trains one greedy schedule per (family, fold) and
  reports the train-by-test matrix of primal-integral ratios.

Nodes arrive as a linear stream: the surrogate training objective ignores
tree shape on purpose, so the simulator does too.  Each (node, heuristic)
pair has a latent outcome — does the heuristic succeed there, after how
many iterations, with what solution quality — drawn once per instance
from the configuration's distributions.  The draw for a pair is seeded by
(instance seed, node id, heuristic id), so regeneration is bit-identical
and outcomes do not depend on the order heuristics are registered in.
They are stored as columns, per heuristic an iterations list and a quality
list (None on failure) indexed by node number; ``SimInstance.outcomes`` is
a read-only mapping view over them, and one replay kernel reads them.

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
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import chain
from random import _sha512  # what Random.seed hashes a str with; hashlib would load OpenSSL

from .dataset import (Dataset, _clear_ids, _rows_clear, check_count, check_row, content_lines,
                      parse_int, validate_identifier)
from .errors import InputError, require_finite, require_fraction
from .greedy import GreedyOptions, build_schedule
from .metrics import IncumbentTimeline, primal_integral, require_time_limit
from .schedule import Schedule
from .workers import map_jobs

HEURISTIC_CLASSES = ("DIVING", "LNS")
# the most instances or seeds one command may draw, and the most (node,
# heuristic) pairs one instance may draw (nodes_max times the heuristic count)
MAX_SIM_SIZE = 10 ** 6

# numeric top-level configuration keys and their types, in parsing order
_NUMBER_KEYS = (("time_limit_seconds", float), ("instances", int), ("nodes_min", int),
                ("nodes_max", int), ("interarrival_seconds", float), ("optimum_value", float))
# per-heuristic configuration keys and their types, in HeuristicSpec field order
_HEURISTIC_KEYS = (("class", str), ("success_probability", float),
                   ("iteration_success_rate", float), ("max_iterations", int),
                   ("seconds_per_iteration", float), ("quality_mean", float),
                   ("quality_spread", float))


def check_sim_size(value: int, what: str) -> None:
    if value > MAX_SIM_SIZE:  # not printed: it may have more digits than str() allows
        raise InputError(f"{what} must be at most {MAX_SIM_SIZE}")


@dataclass(frozen=True)
class HeuristicSpec:
    """Latent behavior of one simulated heuristic.  ``klass`` (DIVING or LNS)
    is a validated label that nothing reads: every class joins one schedule."""

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
        require_fraction(self.success_probability, "success_probability")
        if not 0.0 < self.iteration_success_rate <= 1.0:
            raise InputError(f"iteration_success_rate must lie in (0, 1], "
                             f"got {self.iteration_success_rate!r}")
        if 1.0 - self.iteration_success_rate == 1.0:  # log(1 - rate) would be 0
            raise InputError(f"iteration_success_rate is too small: 1 - rate rounds to 1, "
                             f"got {self.iteration_success_rate!r}")
        check_count(self.max_iterations, "max_iterations")
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
            if not isinstance(count, int) or isinstance(count, bool):
                raise InputError(f"{name} must be an integer, got {count!r}")
            check_sim_size(count, name)
        if self.instances < 1:
            raise InputError(f"instances must be positive, got {self.instances!r}")
        if not 1 <= self.nodes_min <= self.nodes_max:
            raise InputError(f"node count range [{self.nodes_min}, {self.nodes_max}] is invalid")
        check_sim_size(self.nodes_max * len(self.heuristics), "nodes_max times the heuristic count")
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
        limit = self.time_limit_seconds if self.time_limit_seconds is not None \
            else self.default_time_limit()
        if limit == math.inf:  # only the default can be: its terms are finite and positive
            raise InputError("the default time limit (every node running every heuristic to "
                             "its cap) overflows; set time_limit_seconds or pass --time-limit")
        return limit


@dataclass(frozen=True)
class LatentOutcome:
    """What one heuristic would do at one node.

    ``iterations`` is the count to the first solution on success, and the
    heuristic's cap (the iterations it burns before giving up) on failure.
    """

    succeeds: bool
    iterations: int
    quality: float | None

    def __post_init__(self) -> None:
        if self.succeeds != (self.quality is not None):
            raise InputError("a latent outcome has a quality exactly when it succeeds")


class OutcomeColumns(Mapping):
    """Read-only ``(node, heuristic) -> LatentOutcome`` view, node-major, of the lists
    ``iterations[h]`` and ``qualities[h]`` indexed by node number (``numbers[node]``);
    a quality of None marks a failure and an iteration count of None a missing pair."""

    __slots__ = ("numbers", "iterations", "qualities")

    def __init__(self, nodes, iterations: dict, qualities: dict) -> None:
        self.numbers = {node: number for number, node in enumerate(nodes)}
        self.iterations, self.qualities = iterations, qualities

    def __getitem__(self, pair) -> LatentOutcome:
        number = self.numbers[pair[0]]
        iterations, quality = self.iterations[pair[1]][number], self.qualities[pair[1]][number]
        if iterations is None:
            raise KeyError(pair)
        return LatentOutcome(quality is not None, iterations, quality)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return ((node, heuristic) for node, number in self.numbers.items()
                for heuristic, column in self.iterations.items() if column[number] is not None)

    def __len__(self) -> int:
        return sum(1 for _ in self)


@dataclass(frozen=True)
class SimInstance:
    """One simulated search; a pure function of (configuration, seed).  Any other
    mapping given as ``outcomes`` is converted once to ``OutcomeColumns``."""

    seed: int
    heuristics: tuple[HeuristicSpec, ...]
    nodes: tuple[str, ...]
    outcomes: Mapping
    interarrival_seconds: float
    optimum_value: float

    def __post_init__(self) -> None:
        if not isinstance(self.outcomes, OutcomeColumns):
            found = {spec.id: [self.outcomes.get((node, spec.id)) for node in self.nodes]
                     for spec in self.heuristics}
            iterations = {h: [o and o.iterations for o in found[h]] for h in found}
            qualities = {h: [o and o.quality for o in found[h]] for h in found}
            columns = OutcomeColumns(self.nodes, iterations, qualities)
            if len(columns) != len(self.outcomes):
                raise InputError("latent outcomes name a node or heuristic the instance lacks")
            object.__setattr__(self, "outcomes", columns)

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


def generate_instance(cfg: SimConfig, seed: int) -> SimInstance:
    """Draw the latent outcomes of one instance.

    Deterministic in (cfg, seed); the per-pair draws are keyed by node and
    heuristic id, so permuting the heuristic order in the configuration
    permutes nothing but the registration order.  Each pair's draws come
    from ``random.Random(f"{seed}|{node}|{id}")``: success, then the
    iteration count by the inverse CDF of the truncated geometric law (no
    draw where it is always 1), then the quality offset.
    """
    shape_rng = random.Random(f"{seed}|shape")
    node_count = shape_rng.randint(cfg.nodes_min, cfg.nodes_max)
    nodes = tuple(f"s{seed}n{i:03d}" for i in range(node_count))
    prefixes = [f"{seed}|{node}|".encode() for node in nodes]
    rng = random.Random()
    # the generator's own seed: gauss_next, which Random.seed also resets, is never read
    reseed, draw = super(random.Random, rng).seed, rng.random
    iterations, qualities = {}, {}
    for spec in cfg.heuristics:
        hid, cap, q = spec.id.encode(), spec.max_iterations, 1.0 - spec.iteration_success_rate
        # (1 - q**cap, log q) of the geometric law on {1..cap}; None where it is always 1
        geometric = None if q == 0.0 or cap == 1 else (1.0 - q ** cap, math.log(q))
        needs = iterations[spec.id] = [cap] * node_count
        values = qualities[spec.id] = [None] * node_count
        for number, prefix in enumerate(prefixes):
            key = prefix + hid
            # the integer that random.Random(key.decode()) seeds its generator with
            reseed(int.from_bytes(key + _sha512(key).digest(), "big"))
            if draw() < spec.success_probability:
                needs[number] = 1 if geometric is None else min(max(math.ceil(
                    math.log1p(-(draw() * geometric[0])) / geometric[1]), 1), cap)
                # the first value of rng.gauss(quality_mean, quality_spread) after seeding
                x2pi = draw() * math.tau
                z = math.cos(x2pi) * math.sqrt(-2.0 * math.log(1.0 - draw()))
                offset = max(0.0, spec.quality_mean + z * spec.quality_spread)
                values[number] = cfg.optimum_value + offset
    return SimInstance(seed, cfg.heuristics, nodes, OutcomeColumns(nodes, iterations, qualities),
                       cfg.interarrival_seconds, cfg.optimum_value)


def _shadow_columns(inst: SimInstance) -> tuple:
    """``(nodes, taus, executed, durations)`` of one instance: its node ids and, per
    heuristic, its checked tau, executed and duration lists by node number."""
    specs = inst.heuristics
    executed = [inst.outcomes.iterations[spec.id] for spec in specs]
    qualities = [inst.outcomes.qualities[spec.id] for spec in specs]
    # the checks of the loop below over whole columns (a tau is None or its count):
    # the counts, then per heuristic the duration of each distinct count; on any
    # doubt the loop runs and raises the first error in node order
    if (_clear_ids(inst.nodes) and all(len(needs) == len(values) == len(inst.nodes)
                                       for needs, values in zip(executed, qualities))
            and _rows_clear((), list(chain.from_iterable(executed)), ())):
        seconds = [{count: count * spec.seconds_per_iteration for count in set(needs)}
                   for spec, needs in zip(specs, executed)]
        if _rows_clear((), (), [cost for costs in seconds for cost in costs.values()]):
            taus = [[iterations if value is not None else None
                     for iterations, value in zip(needs, values)]
                    for needs, values in zip(executed, qualities)]
            durations = [list(map(costs.__getitem__, needs))
                         for costs, needs in zip(seconds, executed)]
            return inst.nodes, taus, executed, durations
    taus, durations = ([[None] * len(inst.nodes) for _ in specs] for _ in range(2))
    columns = list(zip(specs, executed, qualities, taus, durations))
    for number, node in enumerate(inst.nodes):
        validate_identifier(node, "node")
        for spec, needs, values, tau_cells, duration_cells in columns:
            iterations = needs[number]
            if iterations is None:
                inst.outcome(node, spec.id)  # raises: the pair has no outcome
            tau = tau_cells[number] = iterations if values[number] is not None else None
            check_row(spec.id, node, tau, iterations, None)  # before the count is multiplied
            duration = duration_cells[number] = iterations * spec.seconds_per_iteration
            check_row(spec.id, node, tau, iterations, duration)
    return inst.nodes, taus, executed, durations


def _shadow_dataset(heuristic_ids, parts) -> Dataset:
    """One dataset of per-instance ``_shadow_columns`` parts, in order; no node id
    may appear twice among them."""
    node_parts, *column_parts = zip(*parts)
    nodes = tuple(chain.from_iterable(node_parts))
    if len(set(nodes)) < len(nodes):
        seen: set[str] = set()
        node = next(node for node in nodes if node in seen or seen.add(node))
        raise InputError(f"duplicate node id {node!r} across instances")
    # each heuristic's lists of every part, joined in part order
    taus, executed, durations = ([list(chain.from_iterable(lists)) for lists in zip(*part)]
                                 for part in column_parts)
    return Dataset._from_columns(heuristic_ids, nodes, taus, executed, durations,
                                 range(len(nodes) * len(heuristic_ids)))


def collect_shadow_dataset(instances) -> Dataset:
    """Record every heuristic at every node of every instance.

    No call influences any other: there is no loop termination and nothing
    is reported back, only observed.  Durations are iterations times the
    heuristic's seconds per iteration.  A node id shared between instances
    is refused once the pairs of every instance have passed their checks.
    """
    instances = list(instances)
    if not instances:
        raise InputError("at least one instance is required")
    reference = instances[0].heuristics
    for inst in instances[1:]:
        if inst.heuristics != reference:
            raise InputError("instances do not share a heuristic universe")
    return _shadow_dataset(tuple(spec.id for spec in reference),
                           [_shadow_columns(inst) for inst in instances])


def simulate_shadow_dataset(cfg: SimConfig, seeds) -> Dataset:
    """``collect_shadow_dataset(generate_instance(cfg, s) for s in seeds)``.

    Each instance is drawn and turned into its columns in its own job, run in
    forked workers (see ``workers``), so no process holds more than one
    instance's latent outcomes at a time.  The first failing instance in
    seed order raises its error; node ids shared between instances (only a
    repeated seed gives them) are refused after that.
    """
    seeds = list(seeds)
    if not seeds:
        raise InputError("at least one instance is required")

    def collect(index):
        return _shadow_columns(generate_instance(cfg, seeds[index]))

    return _shadow_dataset(cfg.heuristic_ids(), map_jobs(collect, len(seeds)))


def _replay(inst: SimInstance, s: Schedule, time_limit: float, spent: list | None = None):
    """The replay kernel of ``run_with_schedule``: its incumbent timeline and, per
    node reached, ``(calls made, success position or None)``; ``spent``, if
    given, receives the iterations of every call in order."""
    require_time_limit(time_limit)
    spec_of = {spec.id: spec for spec in inst.heuristics}
    for heuristic, _ in s.entries:  # see run_with_schedule on tuple free lists
        if heuristic not in spec_of:
            raise InputError(f"schedule heuristic {heuristic!r} is unknown to the instance")
    entries = [(position, heuristic, budget, inst.outcomes.iterations[heuristic],
                inst.outcomes.qualities[heuristic], spec_of[heuristic].seconds_per_iteration)
               for position, (heuristic, budget) in enumerate(s.entries, start=1)]
    clock, incumbent = 0.0, None
    events, reached = [], []
    for number in range(len(inst.nodes)):
        clock += inst.interarrival_seconds
        if clock >= time_limit:
            break
        position, success_position = 0, None
        for position, heuristic, budget, needs, values, seconds in entries:
            iterations, quality = needs[number], values[number]
            hit = quality is not None and iterations <= budget
            if not hit:  # a miss spends the whole budget
                if iterations is None:
                    inst.outcome(inst.nodes[number], heuristic)  # raises: the pair has no outcome
                iterations = budget
            clock += iterations * seconds
            if spent is not None:
                spent.append(iterations)
            if clock >= time_limit:
                break
            if hit and (incumbent is None or quality < incumbent):
                incumbent = quality
                events.append((clock, quality))
                success_position = position
                break
        reached.append((position, success_position))
        if clock >= time_limit:  # only a call that reached the limit leaves it there
            break
    return IncumbentTimeline(tuple(events), best_known=inst.optimum_value, sense="min"), reached


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
    spent: list[int] = []
    timeline, reached = _replay(inst, s, time_limit, spent)
    # calls come from lists: tuple() of an iterator is resized, and CPython's free
    # list for the final length keeps each one, so repeated replays raise peak memory
    heuristics = [heuristic for heuristic, _ in s.entries]
    records, start = [], 0
    for node, (made, success_position) in zip(inst.nodes, reached):
        calls = list(zip(heuristics, spent[start:start + made]))
        records.append(NodeRecord(node, tuple(calls), success_position))
        start += made
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
        return _summary_cell(self.mean_ratio, self.std_ratio)

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


def _mean_std(ratios) -> tuple[float, float]:
    """Mean and sample standard deviation of the ratios (0 for a single one)."""
    return statistics.fmean(ratios), statistics.stdev(ratios) if len(ratios) > 1 else 0.0


def _summary_cell(mean: float, std: float) -> str:
    return f"{mean:.2f} ± {std:.2f}"


def _replay_integrals(cfg: SimConfig, seeds, schedules, baseline: Schedule, limit: float):
    """``(seed, schedule integrals, baseline integral)`` per seed, in seed order.

    Each instance is generated once; the schedules replay on it before the
    baseline.  The seeds run in forked worker processes (see ``workers``).
    """
    seeds = list(seeds)

    def replay(index):
        inst = generate_instance(cfg, seeds[index])
        integrals = [primal_integral(_replay(inst, s, limit)[0], limit)
                     for s in (*schedules, baseline)]
        return integrals[:-1], integrals[-1]

    return [(seed, *replayed) for seed, replayed in zip(seeds, map_jobs(replay, len(seeds)))]


def compare_policies(cfg: SimConfig, seeds, s: Schedule, baseline: Schedule,
                     time_limit: float | None = None) -> PolicyComparison:
    """Per-seed primal integrals of two schedules and their ratio."""
    seeds = list(seeds)
    if not seeds:
        raise InputError("at least one seed is required")
    limit = time_limit if time_limit is not None else cfg.effective_time_limit()
    rows = tuple(SeedComparison(seed, integral, baseline_integral, integral / baseline_integral)
                 for seed, (integral,), baseline_integral
                 in _replay_integrals(cfg, seeds, (s,), baseline, limit))
    return PolicyComparison(rows, limit, *_mean_std([row.ratio for row in rows]))


def default_baseline(cfg: SimConfig) -> Schedule:
    """Registration-order schedule with every heuristic at its iteration cap.

    Stands in for a solver's built-in priority order when no baseline
    schedule file is given.
    """
    return Schedule(tuple((spec.id, spec.max_iterations) for spec in cfg.heuristics))


@dataclass(frozen=True)
class CrossvalReport:
    """Train-by-test matrix: ``cells[(i, j)]`` is the (mean, std) ratio on
    family ``labels[j]`` of the schedules trained on family ``labels[i]``."""

    labels: tuple[str, ...]
    cells: dict
    baseline_label: str

    def format_table(self) -> str:
        width = max(14, *(len(label) + 2 for label in self.labels + (self.baseline_label,)))
        header = "train\\test".ljust(width) + "".join(label.rjust(width) for label in self.labels)
        lines = [header, "-" * len(header)]
        for i, train in enumerate(self.labels):
            lines.append(train.ljust(width) + "".join(
                _summary_cell(*self.cells[(i, j)]).rjust(width) for j in range(len(self.labels))))
        lines.append("-" * len(header))
        lines.append(self.baseline_label.ljust(width)
                     + _summary_cell(1.0, 0.0).rjust(width) * len(self.labels))
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["train,test,mean_ratio,std_ratio"]
        for i, train in enumerate(self.labels):
            for j, test in enumerate(self.labels):
                mean, std = self.cells[(i, j)]
                lines.append(f"{train},{test},{repr(mean)},{repr(std)}")
        for test in self.labels:
            lines.append(f"{self.baseline_label},{test},{repr(1.0)},{repr(0.0)}")
        return "\n".join(lines) + "\n"


def run_crossval(configs, folds: int, seed: int, time_limit: float | None = None,
                 baseline: Schedule | None = None) -> CrossvalReport:
    """Train greedy schedules per configuration fold, test on every family.

    Each configuration's instances are split into ``folds`` groups; every
    group yields one shadow-mode dataset and one normalized greedy
    schedule.  Each test seed of every configuration is then generated once,
    and all schedules and the baseline (the test configuration's
    registration-order cap schedule unless one is supplied) replay on it.
    Cells aggregate the ratios over folds, then test seeds.  Configuration
    labels (the name, else ``cfg<k>``) must be valid identifiers, unique and
    unlike the baseline row's label.
    """
    configs = list(configs)
    if len(configs) < 2:
        raise InputError("cross-validation needs at least two configurations")
    if folds < 1:
        raise InputError(f"fold count must be positive, got {folds}")
    universe = configs[0].heuristic_ids()
    for cfg in configs[1:]:
        if cfg.heuristic_ids() != universe:
            raise InputError("configurations must share one heuristic universe")
    baseline_label = "baseline (given)" if baseline is not None else "baseline (caps)"
    labels: list[str] = []
    for index, cfg in enumerate(configs):
        label = cfg.name if cfg.name else f"cfg{index + 1}"
        validate_identifier(label, "configuration")
        if label in labels:
            raise InputError(f"configuration label {label!r} is used more than once")
        if label == baseline_label:
            raise InputError(f"configuration label {label!r} is reserved for the baseline row")
        if folds > cfg.instances:
            raise InputError(f"fold count {folds} exceeds instance count "
                             f"{cfg.instances} of configuration {label!r}")
        labels.append(label)

    base = seed * 100_000_000
    schedules: list[Schedule] = []  # configuration-major, then fold
    for i, cfg in enumerate(configs):
        train_seeds = [base + i * 1_000_000 + k for k in range(cfg.instances)]
        chunk_size, remainder = divmod(len(train_seeds), folds)
        start = 0
        for fold in range(folds):
            size = chunk_size + (1 if fold < remainder else 0)
            fold_dataset = simulate_shadow_dataset(cfg, train_seeds[start:start + size])
            start += size
            schedule, _, _ = build_schedule(
                fold_dataset, GreedyOptions(normalize_costs=True, alpha_report=0.0))
            schedules.append(schedule)

    cells: dict[tuple[int, int], tuple[float, float]] = {}
    for j, test_cfg in enumerate(configs):
        test_seeds = [base + j * 1_000_000 + 500_000 + k for k in range(test_cfg.instances)]
        test_baseline = baseline if baseline is not None else default_baseline(test_cfg)
        limit = time_limit if time_limit is not None else test_cfg.effective_time_limit()
        per_seed = [[integral / baseline_integral for integral in integrals]
                    for _, integrals, baseline_integral
                    in _replay_integrals(test_cfg, test_seeds, schedules, test_baseline, limit)]
        for i in range(len(configs)):
            cells[(i, j)] = _mean_std([ratios[i * folds + fold]
                                       for fold in range(folds) for ratios in per_seed])
    return CrossvalReport(tuple(labels), cells, baseline_label)


def _parse_scalar(key: str, text: str, kind):
    try:
        return parse_int(text) if kind is int else kind(text)
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
    for lineno, line in content_lines(source):
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
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

    allowed = {"name", "heuristics", *(key for key, _ in _NUMBER_KEYS),
               *(f"{hid}.{sub}" for hid in ids for sub, _ in _HEURISTIC_KEYS)}
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

    numbers = {key: _parse_scalar(key, entries[key], kind)
               for key, kind in _NUMBER_KEYS if key in entries}
    return SimConfig(heuristics=tuple(specs), name=entries.get("name", ""), **numbers)
