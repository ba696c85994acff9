"""Exact search for an optimal schedule at small scale.

A candidate schedule is an ordered selection of heuristics, each with one
of its observed iteration budgets; the empty schedule is a candidate too.
The search walks candidates depth-first as prefixes: a prefix carries the
final cost of every node it solves, the nodes it leaves unsolved, and its
total cost so far, so extending it by one entry touches only the unsolved
nodes.  Every prefix is itself a candidate.  Three prunes skip subtrees
that cannot hold the optimum:

- an entry that solves no unsolved node only adds cost and length;
- a lower bound on every cost in the subtree already exceeds the best
  feasible objective found so far;
- even the nodes that some unused heuristic could still solve cannot lift
  coverage to the requirement.

The scheduling problem generalizes pipelined set cover and is NP-hard, so
this is strictly a desk-scale ground truth: hard limits guard the
factorially growing candidate space, counted before pruning.

Ties on the objective are broken deterministically: fewer entries first,
then heuristic registration order, then smaller budgets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .dataset import Dataset, IterationCostProfile, breakpoints
from .errors import InputError
from .schedule import Schedule, replay_tables


@dataclass(frozen=True)
class ExactLimits:
    """Bounds on the search space; exceeding any of them is an error."""

    max_heuristics: int = 6
    max_breakpoints_per_heuristic: int = 8
    enumeration_budget: int = 2_000_000

    def __post_init__(self) -> None:
        for name in ("max_heuristics", "max_breakpoints_per_heuristic", "enumeration_budget"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")


def candidate_count(d: Dataset) -> int:
    """Number of candidate schedules before pruning: the search's worst case."""
    sizes = [len(breakpoints(d, h)) for h in d.heuristics]
    sizes = [s for s in sizes if s > 0]
    total = 1  # the empty schedule
    for k in range(1, len(sizes) + 1):
        for combo in itertools.combinations(sizes, k):
            total += math.factorial(k) * math.prod(combo)
    return total


def solve_exact(d: Dataset, alpha: float,
                costs: IterationCostProfile | None = None,
                normalize: bool = False,
                limits: ExactLimits = ExactLimits()):
    """Optimal schedule by pruned prefix search, or None when no schedule reaches alpha.

    Heuristics that never succeed are skipped: they can only add cost.
    Costs use the same units as schedule evaluation (normalization
    optional) and are summed in the same order, so objectives equal
    ``evaluate`` bit for bit and greedy and exact are directly comparable.
    ``limits.enumeration_budget`` caps the unpruned candidate count
    (``candidate_count``), a guard on the worst case whatever the prunes
    save.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha!r}")
    if len(d.heuristics) > limits.max_heuristics:
        raise InputError(f"heuristic count {len(d.heuristics)} exceeds "
                         f"max_heuristics={limits.max_heuristics}")
    budgets_of = {h: breakpoints(d, h) for h in d.heuristics}
    for heuristic, budgets in budgets_of.items():
        if len(budgets) > limits.max_breakpoints_per_heuristic:
            raise InputError(
                f"heuristic {heuristic!r} has {len(budgets)} observed budgets, exceeding "
                f"max_breakpoints_per_heuristic={limits.max_breakpoints_per_heuristic}")
    count = candidate_count(d)
    if count > limits.enumeration_budget:
        raise InputError(f"candidate schedule count {count} exceeds "
                         f"enumeration_budget={limits.enumeration_budget}")

    usable = [h for h in d.heuristics if budgets_of[h]]
    tables = replay_tables(d, costs, normalize)
    nodes = d.nodes
    total_nodes = len(nodes)
    tau_at = {h: [tables.tau_of[h].get(node) for node in nodes] for h in usable}
    # bit g of solvers[i]: usable[g] solves node i at its largest budget
    solvers = [sum(1 << g for g, h in enumerate(usable) if tau_at[h][i] is not None)
               for i in range(total_nodes)]
    # final cost of each node the current prefix solves; None while unsolved
    final = [None] * total_nodes

    best_key = None
    best_entries = None
    best_objective = None

    def consider(entries, objective, solved) -> None:
        nonlocal best_key, best_entries, best_objective
        rate = solved / total_nodes if total_nodes else 1.0
        if rate < alpha:
            return
        key = (objective, len(entries),
               tuple(d.registration_index(h) for h, _ in entries),
               tuple(b for _, b in entries))
        if best_key is None or key < best_key:
            best_key = key
            best_entries = entries
            best_objective = objective

    def extend(entries, unsolved, total, unused) -> None:
        for g, heuristic in enumerate(usable):
            if not unused >> g & 1:
                continue
            rest = unused & ~(1 << g)
            weight = tables.weight_of[heuristic]
            taus = tau_at[heuristic]
            for budget in budgets_of[heuristic]:
                newly = [i for i in unsolved if taus[i] is not None and taus[i] <= budget]
                if not newly:
                    # (a) the extension and every continuation of it cost at
                    # least as much as the prefix without it, and are longer
                    continue
                remaining = [i for i in unsolved if taus[i] is None or taus[i] > budget]
                solved = total_nodes - len(remaining)
                reachable = sum(1 for i in remaining if solvers[i] & rest)
                if (solved + reachable) / total_nodes < alpha:
                    continue  # (c) coverage cannot reach alpha below here
                for i in newly:
                    final[i] = total + weight * taus[i]
                new_total = total + weight * budget
                # every continuation charges an unsolved node at least
                # new_total; summing in node order keeps the bound below the
                # rounded objective of each of them
                bound = objective = 0
                for cost in final:
                    if cost is None:
                        bound += new_total
                        objective += new_total + 1
                    else:
                        bound += cost
                        objective += cost
                # (b) prune only above the incumbent: equal costs may still
                # win the tie-break
                if best_key is None or bound <= best_objective:
                    child = entries + ((heuristic, budget),)
                    consider(child, objective, solved)
                    if remaining and rest:
                        extend(child, remaining, new_total, rest)
                for i in newly:
                    final[i] = None

    consider((), total_nodes, 0)  # the empty schedule charges 0 + 1 per node
    extend((), list(range(total_nodes)), 0, (1 << len(usable)) - 1)

    if best_entries is None:
        return None
    return Schedule(best_entries), best_objective
