"""Exact search for an optimal schedule at small scale.

A candidate schedule is an ordered selection of heuristics, each with one
of its observed iteration budgets; the empty schedule is a candidate too.
The search walks candidates depth-first as prefixes.  A prefix is held as
bitmasks over node numbers (Python ints): the nodes it leaves unsolved,
plus its total cost so far and the sum of the final costs of the nodes it
solves.  Per heuristic, one mask per observed budget (``schedule._tie_masks``,
greedy's index too) marks the nodes whose iterations-to-solution equal that
budget, so extending a prefix finds the newly solved nodes, the coverage and
the newly solved cost with ``&`` and set-bit counts.  Every prefix is itself
a candidate.  Three prunes skip subtrees that cannot hold the optimum:

- an entry that solves no unsolved node only adds cost and length;
- even the nodes that some unused heuristic could still solve cannot lift
  coverage to the requirement;
- a lower bound on every cost in the subtree already exceeds the best
  feasible objective found so far.

The cost prune compares the running-sum bound (solved-cost sum plus the
unsolved count times the prefix total) with one cutoff, which lies above
the incumbent by a relative slack that covers any difference
floating-point summation order can make.  A feasible candidate whose
running objective is within the cutoff is priced again by
``schedule._total``, the node-order sum ``evaluate`` itself makes; so the
incumbent and every tie-break are decided on the numbers ``evaluate``
reports.  With integer weights (raw iterations) every sum is
exact in any order, the cutoff is the incumbent and nothing is repriced.
Otherwise the search refuses to start when the largest objective any
candidate could reach, with that slack, is not a finite float.

The scheduling problem generalizes pipelined set cover and is NP-hard, so
this is strictly a desk-scale ground truth: hard limits guard the
factorially growing candidate space, counted before pruning.

Ties on the objective are broken deterministically: fewer entries first,
then heuristic registration order, then smaller budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataset import Dataset, breakpoints
from .errors import InputError, require_fraction
from .schedule import Schedule, _steps, _tie_masks, _total, replay_tables


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


def solve_exact(d: Dataset, alpha: float, *, normalize: bool = False,
                limits: ExactLimits = ExactLimits()):
    """Optimal schedule by pruned prefix search, or None when no schedule reaches alpha.

    Heuristics that never succeed are skipped: they can only add cost.
    Costs use the same units as schedule evaluation (normalization
    optional), and objectives are summed by ``evaluate``'s own node-order
    total, so they equal ``evaluate`` bit for bit and greedy and exact are
    directly comparable.
    ``limits.enumeration_budget`` caps the unpruned candidate count
    (``candidate_count``), a guard on the worst case whatever the prunes
    save.
    """
    require_fraction(alpha, "alpha")
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
    weight_of = replay_tables(d, normalize=normalize)
    total_nodes = len(d.nodes)
    weights = [weight_of[h] for h in usable]
    taus_of = {h: d.tau_column(h).taus for h in usable}
    ties = [_tie_masks(d, h) for h in usable]
    # reach[s]: the nodes some heuristic in the subset s solves at its largest budget
    solvable = [sum(mask for _, mask in pairs) for pairs in ties]
    reach = [0] * (1 << len(usable))
    for subset in range(1, len(reach)):
        low = subset & -subset
        reach[subset] = reach[subset ^ low] | solvable[low.bit_length() - 1]
    # The running sums add the same nonnegative terms as ``evaluate``'s walk
    # in node order, grouped and ordered differently.  With integer weights
    # both are exact and the cutoff is the incumbent itself.  Otherwise each
    # lies within (total_nodes + len(usable) + 8) units of 2**-53 of the exact
    # sum of those terms, plus as many subnormal steps; the cutoff lies eight
    # times that above the incumbent (twice for the two sums, four times over
    # as margin), so a running sum above it has a node-order sum above the
    # incumbent too.
    exact_sums = all(isinstance(w, int) for w in weights)
    steps = 8 * (total_nodes + len(usable) + 8)
    slack, tiny = (0, 0) if exact_sums else (steps * 2.0 ** -53, steps * math.ulp(0.0))
    # no node costs more than every usable heuristic at its largest budget plus
    # the penalty; past the float range, inf and then nan would decide the search
    if not exact_sums:
        most = total_nodes * (sum(w * budgets_of[h][-1] for w, h in zip(weights, usable)) + 1)
        if not math.isfinite(most * (1 + slack) + tiny):
            raise InputError("objective bound overflows the float range: "
                             "the iteration costs are too large")

    best_key = None
    best_entries = None
    cutoff = math.inf

    def consider(entries, objective, solved) -> None:
        nonlocal best_key, best_entries, cutoff
        rate = solved / total_nodes if total_nodes else 1.0
        if rate < alpha:
            return
        key = (objective, len(entries),
               tuple(d.registration_index(h) for h, _ in entries),
               tuple(b for _, b in entries))
        if best_key is None or key < best_key:
            best_key = key
            best_entries = entries
            cutoff = objective * (1 + slack) + tiny

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
                # (b) every continuation charges an unsolved node at least
                # new_total; prune only above the cutoff, as equal costs may
                # still win the tie-break
                if new_solved_sum + remaining_count * new_total > cutoff:
                    continue
                objective = new_solved_sum + remaining_count * (new_total + 1)
                child = entries + ((heuristic, budget),)
                # only a feasible child within the cutoff can win in node order
                if not exact_sums and solved / total_nodes >= alpha and objective <= cutoff:
                    objective = _total(_steps(child, taus_of, weight_of), total_nodes)[0]
                consider(child, objective, solved)
                if remaining and rest:
                    extend(child, remaining, new_total, new_solved_sum, rest)

    consider((), total_nodes, 0)  # the empty schedule charges 0 + 1 per node
    extend((), (1 << total_nodes) - 1, 0, 0, (1 << len(usable)) - 1)

    if best_entries is None:
        return None
    return Schedule(best_entries), best_key[0]
