"""Schedules and their deterministic replay against a dataset.

A schedule is an ordered list of (heuristic, iteration budget) entries,
each heuristic appearing at most once.  Replaying a schedule at a node
walks the entries in order and stops at the first entry whose budget
covers the node's recorded iterations-to-solution.  Entries before the
stop charge their full budget, the successful entry charges only the
iterations it needed, and a node no entry solves charges the whole
schedule plus a penalty of one cost unit.  Costs are counted in raw
iterations, or, when normalization is requested, in seconds: iterations
times the heuristic's average seconds per iteration, so the penalty is one
second.  Rescaling every duration can therefore change the exact optimum,
but never the greedy schedule, whose ratio has no penalty term.  The
averages always come from the durations of the dataset being replayed
(``avg_iteration_cost``); no other scale can be supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dataset import (Dataset, avg_iteration_cost, breakpoints, check_count, parse_int,
                      read_rows, validate_identifier)
from .errors import InputError, require_fraction

SCHEDULE_HEADER = "position,heuristic,max_iterations"


def _check_entry(heuristic: str, budget: int, seen: set[str]) -> None:
    """Reject a bad id, a bad budget or a repeat of a heuristic in ``seen``; add it."""
    validate_identifier(heuristic, "heuristic")
    check_count(budget, f"budget for {heuristic!r}")
    if heuristic in seen:
        raise InputError(f"heuristic {heuristic!r} appears more than once in the schedule")
    seen.add(heuristic)


@dataclass(frozen=True)
class Schedule:
    """Ordered (heuristic, budget) entries; possibly empty."""

    entries: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            if len(entry) != 2:
                raise InputError(f"schedule entry must be (heuristic, budget), got {entry!r}")
            _check_entry(*entry, seen)

    @property
    def heuristics(self) -> tuple[str, ...]:
        return tuple(h for h, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class NodeOutcome:
    """Replay result at one node.

    ``first_success_position`` is the 1-based index of the entry that
    solved the node, or None; in the latter case the cost equals the
    full-schedule cost plus one.
    """

    node: str
    first_success_position: int | None
    cost: float


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Aggregate replay over every node of a dataset.

    ``evaluate`` leaves ``per_node`` unset and keeps what its replay read;
    the outcomes are replayed again on the first read of ``per_node``.
    """

    objective: float
    solved_nodes: int
    success_rate: float
    alpha: float
    feasible: bool
    per_node: tuple[NodeOutcome, ...]
    _replay_inputs: tuple = field(init=False, repr=False, compare=False, default=None)

    def __getattr__(self, name: str):
        # reached only while unset: the outcomes of an evaluation that _evaluate made
        if name != "per_node" or self._replay_inputs is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        steps, nodes = self._replay_inputs
        per_node = tuple(NodeOutcome(node, *_replay(steps, number))
                         for number, node in enumerate(nodes))
        object.__setattr__(self, "per_node", per_node)
        return per_node


def replay_tables(d: Dataset, *, normalize: bool = False) -> dict:
    """Replay weights: the cost of one iteration, per heuristic.

    1 unless normalization is requested; then the heuristic's average seconds
    per iteration, always taken from the dataset's own durations
    (``avg_iteration_cost``).
    """
    if normalize:
        return avg_iteration_cost(d).seconds_per_iteration
    return dict.fromkeys(d.heuristics, 1)


def _tie_masks(d: Dataset, heuristic: str) -> list:
    """``(budget, mask)`` per breakpoint, ascending; bit ``i`` of ``mask`` is
    set when node number ``i`` takes exactly ``budget`` iterations."""
    buffers = {budget: bytearray(len(d.nodes) // 8 + 1) for budget in breakpoints(d, heuristic)}
    for number, tau in enumerate(d.tau_column(heuristic).taus):
        if tau is not None:  # set bits in byte buffers: ORing 1 << i into an int is quadratic
            buffers[tau][number >> 3] |= 1 << (number & 7)
    return [(budget, int.from_bytes(bits, "little")) for budget, bits in buffers.items()]


def _steps(entries, taus_of: dict, weights: dict) -> list:
    """``(tau list, weight, budget)`` of each entry, in order."""
    return [(taus_of[h], weights[h], budget) for h, budget in entries]


def _replay(steps, number: int):
    """Replay entries at the node with that number, ``steps`` from ``_steps``.

    Returns ``(position, cost)``: the 1-based index of the solving entry or
    None, and the node's cost.
    """
    total = 0
    for position, (taus, weight, budget) in enumerate(steps, start=1):
        tau = taus[number]
        if tau is not None and tau <= budget:
            return position, total + weight * tau
        total += weight * budget
    return None, total + 1


def _total(steps, count: int) -> tuple:
    """``(objective, solved)`` of nodes 0 to ``count - 1``, costs summed in node order."""
    objective = 0
    solved = 0
    for number in range(count):
        position, cost = _replay(steps, number)
        objective += cost
        if position is not None:
            solved += 1
    return objective, solved


def _tau_lists(s: Schedule, d: Dataset) -> dict:
    """The tau list of each heuristic in the schedule; unknown ones raise."""
    return {h: d.tau_column(h).taus for h in s.heuristics}


def node_cost(s: Schedule, d: Dataset, node: str, *, normalize: bool = False) -> NodeOutcome:
    """Cost the schedule incurs at a single node (see module docstring)."""
    taus_of = _tau_lists(s, d)
    d._require_node(node)
    # every column shares the dataset's node numbers; no entry, no number needed
    number = d.tau_column(s.entries[0][0]).numbers[node] if s.entries else 0
    steps = _steps(s.entries, taus_of, replay_tables(d, normalize=normalize))
    return NodeOutcome(node, *_replay(steps, number))


def evaluate(s: Schedule, d: Dataset, alpha: float, *,
             normalize: bool = False) -> ScheduleEvaluation:
    """Replay the schedule at every node and aggregate.

    ``alpha`` is the minimum fraction of nodes the schedule should solve;
    it only sets the feasibility flag, nothing is enforced.
    """
    return _evaluate(s, d, alpha, replay_tables(d, normalize=normalize))


def _evaluate(s: Schedule, d: Dataset, alpha: float, weights: dict) -> ScheduleEvaluation:
    """``evaluate`` with the replay weights given."""
    require_fraction(alpha, "alpha")
    steps = _steps(s.entries, _tau_lists(s, d), weights)
    objective, solved = _total(steps, len(d.nodes))
    if not math.isfinite(objective):
        raise InputError("schedule objective overflows the float range: "
                         "the iteration costs are too large")
    total = len(d.nodes)
    rate = solved / total if total else 1.0
    evaluation = object.__new__(ScheduleEvaluation)  # per_node stays unset until read
    for name, value in (("objective", objective), ("solved_nodes", solved),
                        ("success_rate", rate), ("alpha", alpha), ("feasible", rate >= alpha),
                        ("_replay_inputs", (steps, d.nodes))):
        object.__setattr__(evaluation, name, value)
    return evaluation


def load_schedule(source: str) -> Schedule:
    """Parse schedule CSV text (header ``position,heuristic,max_iterations``).

    Positions must be exactly 1..k, in any row order; row errors name their line.
    """
    rows: dict[int, tuple[str, int]] = {}
    seen: set[str] = set()
    for lineno, (position_text, heuristic, budget_text) in read_rows(
            source, SCHEDULE_HEADER, "schedule"):
        try:
            position = int(position_text)
            budget = parse_int(budget_text)
        except ValueError:
            raise InputError(f"line {lineno}: position and max_iterations must be integers") from None
        if position in rows:
            raise InputError(f"line {lineno}: duplicate position {position}")
        try:
            _check_entry(heuristic, budget, seen)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        rows[position] = (heuristic, budget)
    if sorted(rows) != list(range(1, len(rows) + 1)):
        raise InputError(f"schedule positions must be contiguous from 1, got {sorted(rows)}")
    entries = tuple(rows[p] for p in range(1, len(rows) + 1))
    return Schedule(entries)


def dump_schedule(s: Schedule) -> str:
    lines = [SCHEDULE_HEADER]
    for position, (heuristic, budget) in enumerate(s.entries, start=1):
        lines.append(f"{position},{heuristic},{budget}")
    return "\n".join(lines) + "\n"
