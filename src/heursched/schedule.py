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
but never the greedy schedule, whose ratio has no penalty term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import (Dataset, IterationCostProfile, avg_iteration_cost, check_count,
                      parse_int, read_rows, validate_identifier)
from .errors import InputError

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
    """Aggregate replay over every node of a dataset."""

    objective: float
    solved_nodes: int
    success_rate: float
    alpha: float
    feasible: bool
    per_node: tuple[NodeOutcome, ...]


@dataclass(frozen=True)
class ReplayTables:
    """Precomputed lookup tables shared by the replay primitives."""

    weight_of: dict
    tau_of: dict


def replay_tables(d: Dataset, costs: IterationCostProfile | None = None,
                  normalize: bool = False) -> ReplayTables:
    """Build lookup tables for fast repeated replays against one dataset.

    ``tau_of[h]`` is the dataset's read-only ``tau_column(h)``: node id to
    the finite iterations-to-solution of heuristic ``h`` (failed and
    unobserved pairs are absent), a view over its tau list ``taus``.  Weights
    are 1 per iteration unless normalization is requested, in which case they
    come from ``costs`` (computed from the dataset when not supplied).
    """
    if normalize:
        if costs is None:
            costs = avg_iteration_cost(d)
        weight_of = {h: costs[h] for h in d.heuristics}
    else:
        weight_of = {h: 1 for h in d.heuristics}
    return ReplayTables(weight_of, {h: d.tau_column(h) for h in d.heuristics})


def _steps(entries, tables: ReplayTables) -> list:
    """``(tau list, weight, budget)`` of each entry, in order."""
    return [(tables.tau_of[h].taus, tables.weight_of[h], budget) for h, budget in entries]


def _replay(steps, number: int):
    """``replay_node`` at the node with that number, ``steps`` from ``_steps``."""
    total = 0
    for position, (taus, weight, budget) in enumerate(steps, start=1):
        tau = taus[number]
        if tau is not None and tau <= budget:
            return position, total + weight * tau
        total += weight * budget
    return None, total + 1


def replay_node(entries, tables: ReplayTables, node: str):
    """Replay schedule entries at one node.

    Returns ``(position, cost)`` where position is the 1-based index of
    the solving entry or None.  Low-level primitive: ids are assumed
    valid.
    """
    # every column shares the dataset's node numbers; no entry, no number needed
    number = tables.tau_of[entries[0][0]].numbers[node] if entries else 0
    return _replay(_steps(entries, tables), number)


def _check_schedule_against(s: Schedule, d: Dataset) -> None:
    for heuristic in s.heuristics:
        d._require_heuristic(heuristic)


def node_cost(s: Schedule, d: Dataset, node: str,
              costs: IterationCostProfile | None = None,
              normalize: bool = False) -> NodeOutcome:
    """Cost the schedule incurs at a single node (see module docstring)."""
    _check_schedule_against(s, d)
    d._require_node(node)
    tables = replay_tables(d, costs, normalize)
    position, cost = replay_node(s.entries, tables, node)
    return NodeOutcome(node, position, cost)


def evaluate(s: Schedule, d: Dataset, alpha: float,
             costs: IterationCostProfile | None = None,
             normalize: bool = False) -> ScheduleEvaluation:
    """Replay the schedule at every node and aggregate.

    ``alpha`` is the minimum fraction of nodes the schedule should solve;
    it only sets the feasibility flag, nothing is enforced.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha!r}")
    _check_schedule_against(s, d)
    steps = _steps(s.entries, replay_tables(d, costs, normalize))
    outcomes = []
    objective = 0
    solved = 0
    for number, node in enumerate(d.nodes):
        position, cost = _replay(steps, number)
        outcomes.append(NodeOutcome(node, position, cost))
        objective += cost
        if position is not None:
            solved += 1
    total = len(d.nodes)
    rate = solved / total if total else 1.0
    return ScheduleEvaluation(
        objective=objective,
        solved_nodes=solved,
        success_rate=rate,
        alpha=alpha,
        feasible=rate >= alpha,
        per_node=tuple(outcomes),
    )


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
