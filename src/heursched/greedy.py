"""Greedy schedule construction.

Builds a schedule step by step.  Each step scores candidate actions — a
heuristic together with an iteration budget — by the number of still
unsolved nodes the action would newly solve divided by its marginal cost,
and applies the best one.  Candidate budgets are exactly the iteration
counts observed in the data: coverage is a step function that only jumps
at observed values while cost grows strictly in between, so no in-between
budget can ever score a better ratio.

Gains are counted once per heuristic per step: the taus of the heuristic's
still unsolved nodes are sorted into one hit list, and the number of nodes
a budget newly solves is a bisection into that list.  A step thus costs
O(H·N log N) rather than a rescan of every tau for every candidate budget.

Two refinements on top of the plain ratio rule:

* instead of adding a new heuristic, the most recently added one may be
  granted a larger budget.  The marginal cost is then only the budget
  increase, and the existing entry is rewritten so that each heuristic
  still appears at most once.  This lets a single heuristic deepen its
  coverage when rerunning it from scratch would be wasteful.
* marginal cost may be normalized by each heuristic's average seconds per
  iteration, so that heuristics whose "iterations" are priced differently
  (e.g. probing depth vs. sub-problem nodes) compete on equal footing.

The loop stops when no action solves a new node.  A minimum coverage
fraction can be requested for reporting: it is checked and warned about,
never enforced — use the exhaustive oracle when a hard guarantee is
needed.

Ties in the ratio are broken deterministically: smaller marginal cost
first, then earlier heuristic registration, then smaller budget.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass

from .dataset import Dataset, IterationCostProfile, avg_iteration_cost, breakpoints
from .errors import InputError
from .schedule import ReplayTables, Schedule, evaluate, replay_tables


@dataclass(frozen=True)
class GreedyOptions:
    """Knobs for the greedy builder.

    ``alpha_report`` is the coverage fraction to check (warning only).
    """

    allow_extension: bool = True
    normalize_costs: bool = False
    alpha_report: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha_report <= 1.0:
            raise InputError(f"alpha_report must lie in [0, 1], got {self.alpha_report!r}")


@dataclass(frozen=True)
class GreedyStep:
    """One applied action: what was chosen and why it won."""

    heuristic: str
    budget: int
    newly_solved: int
    marginal_cost: float
    ratio: float
    extends_last: bool


@dataclass(frozen=True)
class GreedyTrace:
    """The per-step record of a greedy build."""

    steps: tuple[GreedyStep, ...]

    def render(self) -> str:
        lines = []
        for index, step in enumerate(self.steps, start=1):
            note = " (raises previous budget)" if step.extends_last else ""
            lines.append(
                f"step {index}: {step.heuristic} up to {step.budget} iterations{note} "
                f"-> +{step.newly_solved} nodes, cost {step.marginal_cost:.6g}, "
                f"ratio {step.ratio:.6g}")
        return "\n".join(lines)


def _is_better(candidate: GreedyStep, incumbent: GreedyStep | None, d: Dataset) -> bool:
    if incumbent is None:
        return True
    if candidate.ratio != incumbent.ratio:
        return candidate.ratio > incumbent.ratio
    if candidate.marginal_cost != incumbent.marginal_cost:
        return candidate.marginal_cost < incumbent.marginal_cost
    rank = d.registration_index(candidate.heuristic)
    incumbent_rank = d.registration_index(incumbent.heuristic)
    if rank != incumbent_rank:
        return rank < incumbent_rank
    return candidate.budget < incumbent.budget


def _best_action(d: Dataset, unsolved, scheduled, last_entry, tables: ReplayTables,
                 breakpoints_of: dict) -> GreedyStep | None:
    best: GreedyStep | None = None
    for heuristic in d.heuristics:
        is_last = last_entry is not None and heuristic == last_entry[0]
        if heuristic in scheduled and not is_last:
            continue  # mid-schedule heuristics can be neither rerun nor extended
        budgets = breakpoints_of[heuristic]
        if is_last:
            budgets = [b for b in budgets if b > last_entry[1]]
        weight = tables.weight_of[heuristic]
        hits = sorted(tau for node, tau in tables.tau_of[heuristic].items() if node in unsolved)
        for budget in budgets:
            newly = bisect_right(hits, budget)
            if newly == 0:
                continue
            cost = weight * (budget - last_entry[1]) if is_last else weight * budget
            candidate = GreedyStep(heuristic, budget, newly, cost, newly / cost, is_last)
            if _is_better(candidate, best, d):
                best = candidate
    return best


def best_action(d: Dataset, unsolved, *, scheduled=(), last_entry=None,
                costs: IterationCostProfile | None = None,
                normalize: bool = False) -> GreedyStep | None:
    """Best next action for a partially built schedule, or None.

    ``unsolved`` is the set of node ids not yet covered, ``scheduled`` the
    heuristics already placed and ``last_entry`` the schedule's final
    (heuristic, budget) pair — pass it only when budget extension is
    allowed.  None means no candidate solves any unsolved node.
    """
    tables = replay_tables(d, costs, normalize)
    breakpoints_of = {h: breakpoints(d, h) for h in d.heuristics}
    return _best_action(d, set(unsolved), set(scheduled), last_entry, tables, breakpoints_of)


def build_schedule(d: Dataset, opts: GreedyOptions = GreedyOptions()):
    """Run the greedy loop on a dataset.

    Returns ``(schedule, trace, evaluation)``.  The evaluation uses the
    same cost normalization as the build and records whether the coverage
    reached ``opts.alpha_report``.
    """
    if not d.nodes or not d.heuristics:
        raise InputError("dataset must contain at least one node and one heuristic")
    costs = avg_iteration_cost(d) if opts.normalize_costs else None
    tables = replay_tables(d, costs, opts.normalize_costs)
    breakpoints_of = {h: breakpoints(d, h) for h in d.heuristics}

    unsolved = set(d.nodes)
    entries: list[tuple[str, int]] = []
    steps: list[GreedyStep] = []
    while unsolved:
        last_entry = entries[-1] if (entries and opts.allow_extension) else None
        scheduled = {h for h, _ in entries}
        step = _best_action(d, unsolved, scheduled, last_entry, tables, breakpoints_of)
        if step is None:
            break
        if step.extends_last:
            entries[-1] = (step.heuristic, step.budget)
        else:
            entries.append((step.heuristic, step.budget))
        taus = tables.tau_of[step.heuristic]
        unsolved -= {node for node in unsolved if node in taus and taus[node] <= step.budget}
        steps.append(step)

    schedule = Schedule(tuple(entries))
    evaluation = evaluate(schedule, d, opts.alpha_report,
                          costs=costs, normalize=opts.normalize_costs)
    if evaluation.success_rate < opts.alpha_report:
        warnings.warn(
            f"greedy schedule covers {evaluation.success_rate:.4g} of nodes, below the "
            f"requested fraction {opts.alpha_report:.4g}")
    return schedule, GreedyTrace(tuple(steps)), evaluation
