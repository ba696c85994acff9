"""Exact search for an optimal schedule at small scale.

A candidate schedule is an ordered selection of heuristics, each with one
of its observed iteration budgets; the empty schedule is a candidate too.
The search walks candidates depth-first as prefixes.  A prefix is held as
bitmasks over node numbers (Python ints): the nodes it leaves unsolved,
plus its total cost so far and the sum of the final costs of the nodes it
solves.  Per heuristic, one mask per observed budget marks the nodes whose
iterations-to-solution equal that budget, so extending a prefix finds the
newly solved nodes, the coverage and the newly solved cost with ``&`` and
set-bit counts, never a walk over the nodes.  Every prefix is itself a
candidate.  Three prunes skip subtrees that cannot hold the optimum:

- an entry that solves no unsolved node only adds cost and length;
- even the nodes that some unused heuristic could still solve cannot lift
  coverage to the requirement;
- a lower bound on every cost in the subtree already exceeds the best
  feasible objective found so far.

The cost prune runs in two stages.  The running-sum bound (solved-cost sum
plus the unsolved count times the prefix total) rejects a prefix only when
it exceeds the incumbent by more than a relative slack that covers any
difference floating-point summation order can make.  Where the running
sums cannot decide, because a prefix lies within that slack of the
incumbent or is a feasible candidate that might replace it, the prefix's
costs are summed in node order, as ``evaluate`` sums them; so every prune
and tie-break is decided on the same numbers as a per-node walk.  With
integer weights (raw iterations) every sum is exact in any order, and the
running sums always decide.

The scheduling problem generalizes pipelined set cover and is NP-hard, so
this is strictly a desk-scale ground truth: hard limits guard the
factorially growing candidate space, counted before pruning.

Ties on the objective are broken deterministically: fewer entries first,
then heuristic registration order, then smaller budgets.
"""

from __future__ import annotations

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
            value = getattr(self, name)
            # a NaN would pass every comparison below and switch its guard off
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise InputError(f"{name} must be positive")


def candidate_count(d: Dataset) -> int:
    """Number of candidate schedules before pruning: the search's worst case."""
    # sum over k of k! e_k(sizes): e_k, the elementary symmetric sum of the
    # breakpoint counts, totals the budget choices of every k-subset, and k!
    # orders each; building e_k one heuristic at a time takes O(G^2) steps
    sums = [1]  # e_0
    for size in (len(breakpoints(d, h)) for h in d.heuristics):
        sums = [a + size * b for a, b in zip([*sums, 0], [0, *sums])]
    return sum(math.factorial(k) * e_k for k, e_k in enumerate(sums))


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
    total_nodes = len(d.nodes)
    weights = [tables.weight_of[h] for h in usable]
    tau_at = [tables.tau_of[h].taus for h in usable]
    # bit i of ties[g][k]: node i takes exactly budgets_of[usable[g]][k] iterations
    ties = []
    for taus, heuristic in zip(tau_at, usable):
        bit_of = {budget: 0 for budget in budgets_of[heuristic]}
        for i, tau in enumerate(taus):
            if tau is not None:
                bit_of[tau] |= 1 << i
        ties.append(list(bit_of.items()))
    # reach[s]: the nodes some heuristic in the subset s solves at its largest budget
    solvable = [sum(mask for _, mask in pairs) for pairs in ties]
    reach = [0] * (1 << len(usable))
    for subset in range(1, len(reach)):
        low = subset & -subset
        reach[subset] = reach[subset ^ low] | solvable[low.bit_length() - 1]
    # The running sums add the same nonnegative terms as a node-order walk,
    # grouped and ordered differently.  With integer weights both are exact
    # and the band below shrinks to the incumbent itself.  Otherwise each lies within (total_nodes + len(usable) + 8) units of
    # 2**-53 of the exact sum of those terms, plus as many subnormal steps;
    # the band [floor, cutoff] around the incumbent reaches eight times that
    # on each side (twice for the two sums, four times over as margin), so a
    # running sum outside it is on the same side of the incumbent as the
    # node-order sum.
    exact_sums = all(isinstance(w, int) for w in weights)
    steps = 8 * (total_nodes + len(usable) + 8)
    slack, tiny = (0, 0) if exact_sums else (steps * 2.0 ** -53, steps * math.ulp(0.0))
    # (newly solved nodes, prefix total, weight, taus) of every entry on the path
    groups = []

    best_key = None
    best_entries = None
    best_objective = None
    floor = cutoff = math.inf

    def consider(entries, objective, solved) -> None:
        nonlocal best_key, best_entries, best_objective, floor, cutoff
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
            floor = objective * (1 - slack) - tiny
            cutoff = objective * (1 + slack) + tiny

    def node_order_sums(new_total):
        """The path's bound and objective, summed in node order as ``evaluate`` sums."""
        final = [None] * total_nodes
        for newly, total, weight, taus in groups:
            for i in range(total_nodes):
                if newly >> i & 1:
                    final[i] = total + weight * taus[i]
        # every continuation charges an unsolved node at least new_total;
        # summing in node order keeps the bound below the rounded objective
        # of each of them
        bound = objective = 0
        for cost in final:
            if cost is None:
                bound += new_total
                objective += new_total + 1
            else:
                bound += cost
                objective += cost
        return bound, objective

    def extend(entries, unsolved, total, solved_sum, unused) -> None:
        unsolved_count = unsolved.bit_count()
        for g, heuristic in enumerate(usable):
            if not unused >> g & 1:
                continue
            rest = unused & ~(1 << g)
            reach_rest = reach[rest]
            weight = weights[g]
            newly = newly_count = tau_sum = 0
            for budget, tie in ties[g]:
                hit = unsolved & tie
                if hit:
                    newly |= hit
                    hits = hit.bit_count()
                    newly_count += hits
                    tau_sum += budget * hits
                elif not newly:
                    # (a) the extension and every continuation of it cost at
                    # least as much as the prefix without it, and are longer
                    continue
                remaining = unsolved ^ newly
                remaining_count = unsolved_count - newly_count
                solved = total_nodes - remaining_count
                reachable = (remaining & reach_rest).bit_count()
                if (solved + reachable) / total_nodes < alpha:
                    continue  # (c) coverage cannot reach alpha below here
                new_total = total + weight * budget
                new_solved_sum = solved_sum + (newly_count * total + weight * tau_sum)
                bound = new_solved_sum + remaining_count * new_total
                # (b) prune only above the incumbent: equal costs may still
                # win the tie-break
                if bound > cutoff:
                    continue
                objective = new_solved_sum + remaining_count * (new_total + 1)
                groups.append((newly, total, weight, tau_at[g]))
                # node-order sums settle a bound inside the band and a feasible
                # candidate that might replace the incumbent; elsewhere the
                # running sums decide the prune and consider keeps nothing
                if not exact_sums and (bound >= floor or (
                        solved / total_nodes >= alpha and objective <= cutoff)):
                    bound, objective = node_order_sums(new_total)
                if best_key is None or bound <= best_objective:
                    child = entries + ((heuristic, budget),)
                    consider(child, objective, solved)
                    if remaining and rest:
                        extend(child, remaining, new_total, new_solved_sum, rest)
                groups.pop()

    consider((), total_nodes, 0)  # the empty schedule charges 0 + 1 per node
    extend((), (1 << total_nodes) - 1, 0, 0, (1 << len(usable)) - 1)

    if best_entries is None:
        return None
    return Schedule(best_entries), best_objective
