"""Greedy schedule construction.

Builds a schedule step by step.  Each step scores candidate actions — a
heuristic together with an iteration budget — by the number of still
unsolved nodes the action would newly solve divided by its marginal cost,
and applies the best one.  Candidate budgets are exactly the iteration
counts observed in the data: coverage is a step function that only jumps
at observed values while cost grows strictly in between, so no in-between
budget can ever score a better ratio.

Coverage is counted on the node bitmasks the exact search reads too: per
heuristic, one mask per breakpoint marks the nodes that take exactly that
many iterations.  A budget's newly solved count is the running sum of the
set bits its heuristic's masks share with the unsolved mask, and a step
clears those masks up to its budget: O(B·N/64) word operations, never a sort.

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
from dataclasses import dataclass

from .dataset import Dataset, check_count
from .errors import InputError, require_fraction
from .schedule import Schedule, _evaluate, _tie_masks, replay_tables


@dataclass(frozen=True)
class GreedyOptions:
    """Knobs for the greedy builder.

    ``alpha_report`` is the coverage fraction to check (warning only).
    """

    allow_extension: bool = True
    normalize_costs: bool = False
    alpha_report: float = 0.0

    def __post_init__(self) -> None:
        require_fraction(self.alpha_report, "alpha_report")


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


def _best_action(unsolved: int, scheduled, last_entry, weights: dict,
                 masks_of: dict) -> GreedyStep | None:
    best_key = best = None  # masks_of is in registration order
    for rank, (heuristic, masks) in enumerate(masks_of.items()):
        is_last = last_entry is not None and heuristic == last_entry[0]
        if heuristic in scheduled and not is_last:
            continue  # mid-schedule heuristics can be neither rerun nor extended
        weight = weights[heuristic]
        newly = 0
        for budget, mask in masks:
            newly += (unsolved & mask).bit_count()
            if newly == 0 or (is_last and budget <= last_entry[1]):
                continue
            cost = weight * (budget - last_entry[1]) if is_last else weight * budget
            ratio = newly / cost
            key = (-ratio, cost, rank, budget)  # the tie-break the module docstring documents
            if best_key is None or key < best_key:
                best_key, best = key, (heuristic, budget, newly, cost, ratio, is_last)
    return None if best is None else GreedyStep(*best)


def best_action(d: Dataset, unsolved, *, scheduled=(), last_entry=None,
                normalize: bool = False) -> GreedyStep | None:
    """Best next action for a partially built schedule, or None.

    ``unsolved`` is the set of node ids not yet covered, ``scheduled`` the
    heuristics already placed and ``last_entry`` the schedule's final
    (heuristic, budget) pair — pass it only when budget extension is
    allowed.  None means no candidate solves any unsolved node.  Unknown
    ids, a budget that is not a positive integer, a ``last_entry`` heuristic
    missing from ``scheduled`` and an unsolved node that ``last_entry``
    already solves raise ``InputError``.
    """
    unsolved, scheduled = set(unsolved), set(scheduled)
    for node in unsolved:
        d._require_node(node)
    for heuristic in scheduled | ({last_entry[0]} if last_entry is not None else set()):
        d._require_heuristic(heuristic)
    if last_entry is not None:
        heuristic, budget = last_entry
        check_count(budget, f"budget for {heuristic!r}")
        if heuristic not in scheduled:
            raise InputError(f"last_entry heuristic {heuristic!r} is not in scheduled")
        for node, tau in zip(d.nodes, d.tau_column(heuristic).taus):
            if tau is not None and tau <= budget and node in unsolved:
                raise InputError(f"unsolved node {node!r} is solved by last_entry "
                                 f"({heuristic!r}, {budget})")
    weights = replay_tables(d, normalize=normalize)
    mask = int("0" + "".join("01"[node in unsolved] for node in reversed(d.nodes)), 2)
    masks_of = {h: _tie_masks(d, h) for h in d.heuristics}
    return _best_action(mask, scheduled, last_entry, weights, masks_of)


def build_schedule(d: Dataset, opts: GreedyOptions = GreedyOptions()):
    """Run the greedy loop on a dataset.

    Returns ``(schedule, trace, evaluation)``.  The evaluation uses the
    same cost normalization as the build and records whether the coverage
    reached ``opts.alpha_report``.
    """
    if not d.nodes or not d.heuristics:
        raise InputError("dataset must contain at least one node and one heuristic")
    weights = replay_tables(d, normalize=opts.normalize_costs)
    masks_of = {h: _tie_masks(d, h) for h in d.heuristics}

    unsolved = (1 << len(d.nodes)) - 1
    entries: list[tuple[str, int]] = []
    steps: list[GreedyStep] = []
    while unsolved:
        last_entry = entries[-1] if (entries and opts.allow_extension) else None
        step = _best_action(unsolved, {h for h, _ in entries}, last_entry, weights, masks_of)
        if step is None:
            break
        if step.extends_last:
            entries[-1] = (step.heuristic, step.budget)
        else:
            entries.append((step.heuristic, step.budget))
        # the masks are disjoint, so their sum is the set of nodes the step solves
        unsolved &= ~sum(mask for budget, mask in masks_of[step.heuristic] if budget <= step.budget)
        steps.append(step)

    schedule = Schedule(tuple(entries))
    evaluation = _evaluate(schedule, d, opts.alpha_report, weights)
    if evaluation.success_rate < opts.alpha_report:
        warnings.warn(
            f"greedy schedule covers {evaluation.success_rate:.4g} of nodes, below the "
            f"requested fraction {opts.alpha_report:.4g}")
    return schedule, GreedyTrace(tuple(steps)), evaluation
