from __future__ import annotations

import itertools
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heursched import (Dataset, ExactLimits, GreedyOptions, HeuristicSpec, InputError,
                       Observation, Schedule, SimConfig, breakpoints, build_schedule,
                       candidate_count, collect_shadow_dataset, evaluate, generate_instance,
                       load_dataset, solve_exact)
from heursched.schedule import _tie_masks, replay_tables

from conftest import random_dataset


def enumerate_exact(d, alpha, normalize=False):
    """Reference oracle: replay every candidate schedule from scratch.

    Same candidates, objective summation and tie-break key as
    ``solve_exact``, without any pruning.
    """
    budgets_of = {h: breakpoints(d, h) for h in d.heuristics}
    usable = [h for h in d.heuristics if budgets_of[h]]
    registration = {h: i for i, h in enumerate(d.heuristics)}
    weights = replay_tables(d, normalize=normalize)
    best_key = best = None
    candidates = [()]
    for k in range(1, len(usable) + 1):
        for combo in itertools.combinations(usable, k):
            for perm in itertools.permutations(combo):
                for budgets in itertools.product(*(budgets_of[h] for h in perm)):
                    candidates.append(tuple(zip(perm, budgets)))
    for entries in candidates:
        objective = 0
        solved = 0
        for node in d.nodes:
            total, cost = 0, None
            for h, budget in entries:
                tau = d.iterations_to_solution(h, node)
                if tau is not None and tau <= budget:
                    cost = total + weights[h] * tau
                    solved += 1
                    break
                total += weights[h] * budget
            objective += total + 1 if cost is None else cost
        rate = solved / len(d.nodes) if d.nodes else 1.0
        if rate < alpha:
            continue
        key = (objective, len(entries),
               tuple(registration[h] for h, _ in entries),
               tuple(b for _, b in entries))
        if best_key is None or key < best_key:
            best_key = key
            best = (entries, objective)
    return best


def list_based_exact(d, alpha, normalize=False):
    """Reference oracle: the prefix search over node lists, every bound and
    objective summed over all nodes in node order (limits not checked)."""
    budgets_of = {h: breakpoints(d, h) for h in d.heuristics}
    usable = [h for h in d.heuristics if budgets_of[h]]
    weights = replay_tables(d, normalize=normalize)
    total_nodes = len(d.nodes)
    tau_at = {h: [d.tau_column(h).get(node) for node in d.nodes] for h in usable}
    solvers = [sum(1 << g for g, h in enumerate(usable) if tau_at[h][i] is not None)
               for i in range(total_nodes)]
    final = [None] * total_nodes
    best = {}

    def consider(entries, objective, solved):
        if (solved / total_nodes if total_nodes else 1.0) < alpha:
            return
        key = (objective, len(entries), tuple(d.registration_index(h) for h, _ in entries),
               tuple(b for _, b in entries))
        if not best or key < best["key"]:
            best.update(key=key, entries=entries, objective=objective)

    def extend(entries, unsolved, total, unused):
        for g, heuristic in enumerate(usable):
            if not unused >> g & 1:
                continue
            rest = unused & ~(1 << g)
            weight = weights[heuristic]
            taus = tau_at[heuristic]
            for budget in budgets_of[heuristic]:
                newly = [i for i in unsolved if taus[i] is not None and taus[i] <= budget]
                if not newly:
                    continue
                remaining = [i for i in unsolved if taus[i] is None or taus[i] > budget]
                solved = total_nodes - len(remaining)
                reachable = sum(1 for i in remaining if solvers[i] & rest)
                if (solved + reachable) / total_nodes < alpha:
                    continue
                for i in newly:
                    final[i] = total + weight * taus[i]
                new_total = total + weight * budget
                bound = objective = 0
                for cost in final:
                    if cost is None:
                        bound += new_total
                        objective += new_total + 1
                    else:
                        bound += cost
                        objective += cost
                if not best or bound <= best["objective"]:
                    child = entries + ((heuristic, budget),)
                    consider(child, objective, solved)
                    if remaining and rest:
                        extend(child, remaining, new_total, rest)
                for i in newly:
                    final[i] = None

    consider((), total_nodes, 0)
    extend((), list(range(total_nodes)), 0, (1 << len(usable)) - 1)
    return (best["entries"], best["objective"]) if best else None


@st.composite
def small_datasets(draw):
    """Up to 4 heuristics x 6 nodes; each pair unobserved, failed or solved."""
    n_heuristics = draw(st.integers(1, 4))
    n_nodes = draw(st.integers(1, 6))
    timed = draw(st.booleans())
    observations = []
    for h in range(n_heuristics):
        # round rates make cost ties likely, arbitrary ones exercise rounding
        rate = draw(st.sampled_from((0.25, 0.5, 1.0, 3.0)) | st.floats(0.01, 10.0))
        for n in range(n_nodes):
            outcome = draw(st.sampled_from(("unobserved", "failed", "solved", "solved")))
            if outcome == "unobserved":
                continue
            tau = None if outcome == "failed" else draw(st.integers(1, 3))
            executed = tau if tau is not None else draw(st.integers(1, 5))
            duration = executed * rate if timed else None
            observations.append(Observation(f"h{h}", f"n{n}", tau, executed, duration))
    heuristics = tuple(f"h{h}" for h in range(n_heuristics))
    nodes = tuple(f"n{n}" for n in range(n_nodes))
    return Dataset(heuristics, nodes, tuple(observations))


@settings(max_examples=200)
@given(d=small_datasets(), normalize=st.booleans())
def test_pruned_search_matches_enumeration(d, normalize):
    for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
        expected = enumerate_exact(d, alpha, normalize)
        result = solve_exact(d, alpha, normalize=normalize)
        if expected is None:
            assert result is None
            continue
        assert result is not None
        schedule, objective = result
        assert schedule.entries == expected[0]
        assert repr(objective) == repr(expected[1])


def test_worked_example_full_coverage_optimum(worked):
    schedule, objective = solve_exact(worked, 0.9)
    assert schedule.entries == (("h1", 1), ("h2", 3))
    assert objective == 9
    assert solve_exact(worked, 1.0) == (schedule, 9)


def test_worked_example_partial_coverage_beats_full(worked):
    # at a coverage requirement of one half, leaving one node unsolved and
    # running the cheap pair (h1, h3) is strictly better than covering all
    # three nodes: 1 + (1+2+1) + (1+2) = 8 < 9
    schedule, objective = solve_exact(worked, 0.5)
    assert schedule.entries == (("h1", 1), ("h3", 2))
    assert objective == 8
    ev = evaluate(schedule, worked, 0.5)
    assert ev.feasible and ev.objective == 8 and ev.solved_nodes == 2


def test_worked_example_relaxed_constraint(worked):
    schedule, objective = solve_exact(worked, 0.0)
    assert objective <= 9
    assert schedule.entries == ()  # doing nothing costs 1 per node = 3
    assert objective == 3


def test_all_failures_is_infeasible():
    d = Dataset.from_observations([
        Observation("h1", "N1", None, 5),
        Observation("h1", "N2", None, 5),
    ])
    assert solve_exact(d, 0.5) is None
    assert solve_exact(d, 0.0) == (Schedule(), 2)


def test_limits_are_enforced_by_name(worked):
    with pytest.raises(InputError, match="max_heuristics"):
        solve_exact(worked, 0.5, limits=ExactLimits(max_heuristics=2))
    with pytest.raises(InputError, match="max_breakpoints_per_heuristic"):
        solve_exact(worked, 0.5,
                    limits=ExactLimits(max_breakpoints_per_heuristic=1))
    with pytest.raises(InputError, match="enumeration_budget"):
        solve_exact(worked, 0.5, limits=ExactLimits(enumeration_budget=3))


def test_candidate_count_worked_example(worked):
    # breakpoint set sizes 1, 2, 2: 1 + (1+2+2) + 2*(1*2 + 1*2 + 2*2)
    #   + 6*(1*2*2) = 1 + 5 + 16 + 24 = 46
    assert candidate_count(worked) == 46


def dataset_with_breakpoints(sizes):
    """Heuristic ``h{j}`` solves ``sizes[j]`` nodes, each at a distinct iteration count."""
    nodes = max(sizes, default=0) + 1
    return Dataset.from_observations(
        Observation(f"h{j}", f"N{i}", i + 1 if i < size else None, nodes)
        for j, size in enumerate(sizes) for i in range(nodes))


def test_candidate_count_matches_the_combinations_formula():
    rng = random.Random(11)
    for heuristics in range(11):
        for _ in range(3):
            sizes = [rng.randint(0, 4) for _ in range(heuristics)]
            d = dataset_with_breakpoints(sizes)
            assert [len(breakpoints(d, h)) for h in d.heuristics] == sizes
            expected = 1 + sum(math.factorial(k) * math.prod(combo)
                               for k in range(1, heuristics + 1)
                               for combo in itertools.combinations(sizes, k))
            assert candidate_count(d) == expected


def test_candidate_count_returns_at_forty_heuristics():
    # a subset walk would visit 2**40 subsets; every size is 2, so the count
    # is the sum over k of 40!/(40-k)! * 2**k
    d = dataset_with_breakpoints([2] * 40)
    assert candidate_count(d) == sum(math.perm(40, k) * 2 ** k for k in range(41))


def test_oracle_never_beaten_by_greedy():
    rng = random.Random(71)
    for _ in range(40):
        d = random_dataset(rng)
        greedy_schedule, _, greedy_ev = build_schedule(d, GreedyOptions())
        for alpha in (0.0, 0.5, 1.0):
            exact = solve_exact(d, alpha)
            if greedy_ev.success_rate >= alpha:
                assert exact is not None
                assert exact[1] <= greedy_ev.objective
            if exact is not None:
                ev = evaluate(exact[0], d, alpha)
                assert ev.feasible
                assert ev.objective == exact[1]


@settings(max_examples=150)
@given(rng=st.randoms(use_true_random=False), alpha=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
       normalize=st.booleans())
def test_greedy_meeting_alpha_never_beats_the_exact_optimum(rng, alpha, normalize):
    d = random_dataset(rng, with_durations=normalize)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # coverage below alpha and duration fallbacks warn
        _, _, greedy = build_schedule(d, GreedyOptions(normalize_costs=normalize,
                                                       alpha_report=alpha))
        exact = solve_exact(d, alpha, normalize=normalize)
    if greedy.success_rate >= alpha:
        assert exact is not None
        assert greedy.objective >= exact[1]


def test_relabeling_invariance():
    rng = random.Random(73)
    for _ in range(10):
        d = random_dataset(rng, max_heuristics=3, max_nodes=5)
        h_map = {h: f"H_{h}" for h in d.heuristics}
        n_map = {n: f"N_{n}" for n in d.nodes}
        relabeled = Dataset(
            tuple(h_map[h] for h in d.heuristics),
            tuple(n_map[n] for n in d.nodes),
            tuple(Observation(h_map[o.heuristic], n_map[o.node], o.iterations_to_solution,
                              o.iterations_executed, o.duration_seconds)
                  for o in d.observations))
        for alpha in (0.0, 0.5):
            first = solve_exact(d, alpha)
            second = solve_exact(relabeled, alpha)
            if first is None:
                assert second is None
                continue
            assert second is not None
            assert first[1] == second[1]
            assert tuple((h_map[h], b) for h, b in first[0].entries) == second[0].entries


def test_equal_cost_extension_after_full_coverage_loses():
    # (h1, 1) solves both nodes; appending (h0, 1) afterwards is never
    # reached, so it costs nothing extra, but the longer schedule must lose
    d = load_dataset("""heuristic,node,iterations_to_solution,iterations_executed,duration_seconds
h0,A,1,1,
h0,B,inf,5,
h1,A,1,1,
h1,B,1,1,
""")
    longer = Schedule((("h1", 1), ("h0", 1)))
    assert evaluate(longer, d, 1.0).objective == 2
    assert solve_exact(d, 1.0) == (Schedule((("h1", 1),)), 2)


def test_full_coverage_required_at_alpha_one(worked):
    # the cheaper partial schedule (h1, 1), (h3, 2) of objective 8 is not
    # feasible once every node must be solved
    schedule, objective = solve_exact(worked, 1.0)
    ev = evaluate(schedule, worked, 1.0)
    assert ev.solved_nodes == len(worked.nodes)
    assert (schedule.entries, objective) == enumerate_exact(worked, 1.0)
    assert objective == 9


def test_never_successful_heuristic_is_never_scheduled():
    d = load_dataset("""heuristic,node,iterations_to_solution,iterations_executed,duration_seconds
h0,A,inf,1,
h0,B,inf,1,
h1,A,2,2,
h1,B,3,3,
""")
    assert candidate_count(d) == 1 + 2
    for alpha in (0.0, 0.5, 1.0):
        for normalize in (False, True):
            schedule, _ = solve_exact(d, alpha, normalize=normalize)
            assert "h0" not in schedule.heuristics


def test_unreachable_alpha_is_infeasible():
    # no heuristic ever solves C: coverage tops out at 2/3
    d = load_dataset("""heuristic,node,iterations_to_solution,iterations_executed,duration_seconds
h0,A,1,1,
h0,C,inf,4,
h1,B,2,2,
h1,C,inf,4,
""")
    assert solve_exact(d, 0.9) is None
    assert solve_exact(d, 1.0) is None
    schedule, objective = solve_exact(d, 2 / 3)
    assert schedule.entries == (("h0", 1), ("h1", 2))
    assert objective == 1 + (1 + 2) + (1 + 2 + 1)


def test_cost_bound_keeps_ties_alive():
    # (h0, 1), (h1, 1) is found first with objective 3; the shorter (h1, 2)
    # found later has the same objective and a lower bound equal to it, so
    # only a strict bound comparison lets it win the tie-break
    d = load_dataset("""heuristic,node,iterations_to_solution,iterations_executed,duration_seconds
h0,A,1,1,
h0,B,inf,5,
h1,A,2,2,
h1,B,1,1,
""")
    assert evaluate(Schedule((("h0", 1), ("h1", 1))), d, 1.0).objective == 3
    assert solve_exact(d, 1.0) == (Schedule((("h1", 2),)), 3)


def test_cost_bound_charges_no_penalty_to_unsolved_nodes():
    # with 0.25 s per iteration, (h1, 1) alone costs 0.25 + 1.25 = 1.5,
    # above the incumbent (h0, 2), (h1, 1) of 1.25, yet its continuation
    # (h1, 1), (h0, 2) costs 0.75 + 0.25 = 1.0: the bound may charge an
    # unsolved node only the prefix total, not the unsolved penalty
    d = load_dataset("""heuristic,node,iterations_to_solution,iterations_executed,duration_seconds
h0,n0,2,2,0.5
h1,n1,1,1,0.25
""")
    assert solve_exact(d, 0.0, normalize=True) == (Schedule((("h1", 1), ("h0", 2))), 1.0)


@st.composite
def simulator_families(draw):
    """Shadow datasets of 5-8 simulated heuristics on 60-150 nodes, caps 2-3."""
    cap = draw(st.integers(2, 3))
    unit = st.floats(0.0, 1.0)
    specs = tuple(
        HeuristicSpec(f"h{k}", "DIVING", 0.1 + 0.8 * draw(unit), 0.01 + 0.49 * draw(unit),
                      cap, 0.01 + 0.99 * draw(unit), 5.0, 1.0)
        for k in range(draw(st.integers(5, 8))))
    nodes = draw(st.integers(60, 150))
    cfg = SimConfig(specs, 1, nodes, nodes, 0.5)
    return collect_shadow_dataset([generate_instance(cfg, draw(st.integers(0, 10**6)))])


@settings(max_examples=12)
@given(d=simulator_families())
def test_mask_search_matches_list_search_past_enumeration_reach(d):
    # masks wider than one machine word, normalized and raw costs
    for h in d.heuristics:
        # the tie masks partition the nodes h solves by their tau
        taus = d.tau_column(h).taus
        masks = _tie_masks(d, h)
        assert [budget for budget, _ in masks] == breakpoints(d, h)
        union = 0
        for budget, mask in masks:
            assert union & mask == 0
            union |= mask
            assert [mask >> i & 1 for i in range(len(taus))] == [tau == budget for tau in taus]
        assert union == sum(1 << i for i, tau in enumerate(taus) if tau is not None)
    limits = ExactLimits(max_heuristics=8, enumeration_budget=10**12)
    for alpha in (0.0, 0.5, 0.9, 1.0):
        for normalize in (False, True):
            expected = list_based_exact(d, alpha, normalize)
            result = solve_exact(d, alpha, normalize=normalize, limits=limits)
            if expected is None:
                assert result is None
                continue
            assert result is not None
            assert result[0].entries == expected[0]
            assert repr(result[1]) == repr(expected[1])


def test_float_near_tie_is_decided_in_node_order():
    # at 0.1 s per iteration, (h1, 1), (h0, 2) is found first and costs
    # 0.2 + 0.30000000000000004 + 0.1 = 0.6 in node order; (h1, 3) costs
    # 0.30000000000000004 + 0.2 + 0.1 = 0.6 too and wins the tie as the
    # shorter schedule, but its running sum 0.1 * 6 = 0.6000000000000001 lies
    # above the incumbent: only the slack keeps it from the first prune stage
    # (nine iterations per heuristic; one row bumped by an ulp makes each
    # average exactly 0.1, 0.1 and 0.2 s per iteration)
    up = math.nextafter(0.3, 1.0), math.nextafter(0.6, 1.0)
    d = Dataset(("h0", "h1", "h2"), ("n0", "n1", "n2"), (
        Observation("h0", "n0", 1, 3, 0.3), Observation("h0", "n1", 2, 3, 0.3),
        Observation("h0", "n2", 3, 3, up[0]), Observation("h1", "n0", 3, 3, 0.3),
        Observation("h1", "n1", 2, 3, 0.3), Observation("h1", "n2", 1, 3, up[0]),
        Observation("h2", "n0", 3, 3, 0.6), Observation("h2", "n1", 1, 3, 0.6),
        Observation("h2", "n2", 3, 3, up[1])))
    assert replay_tables(d, normalize=True) == {"h0": 0.1, "h1": 0.1, "h2": 0.2}
    tie = Schedule((("h1", 1), ("h0", 2)))
    for alpha in (0.0, 0.5, 1.0):
        schedule, objective = solve_exact(d, alpha, normalize=True)
        assert schedule.entries == (("h1", 3),)
        assert repr(objective) == "0.6"
        for s in (schedule, tie):
            assert evaluate(s, d, alpha, normalize=True).objective == objective


@pytest.mark.parametrize("duration, allowed", [(1e307, True), (1e308, False)])
def test_normalized_search_refuses_an_overflowing_bound(duration, allowed):
    # two nodes, one heuristic each: a schedule of both charges N2 twice the
    # duration, and the bound two nodes times (both weights + 1)
    d = Dataset(("h1", "h2"), ("N1", "N2"), (Observation("h1", "N1", 1, 1, duration),
                                             Observation("h2", "N2", 1, 1, duration)))
    both = Schedule((("h1", 1), ("h2", 1)))
    assert solve_exact(d, 1.0) == (both, 3)
    for alpha in (0.0, 1.0):
        if allowed:
            schedule, objective = solve_exact(d, alpha, normalize=True)
            assert objective == evaluate(schedule, d, alpha, normalize=True).objective
        else:
            with pytest.raises(InputError) as excinfo:
                solve_exact(d, alpha, normalize=True)
            assert str(excinfo.value) == ("objective bound overflows the float range: "
                                          "the iteration costs are too large")


@pytest.mark.parametrize("field", ["max_heuristics", "max_breakpoints_per_heuristic",
                                   "enumeration_budget"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.0, "3", True, None])
def test_limits_reject_non_integers(field, value):
    with pytest.raises(InputError, match=f"{field} must be an integer"):
        ExactLimits(**{field: value})


@pytest.mark.parametrize("value", [0, -1])
def test_limits_reject_non_positive(value):
    with pytest.raises(InputError, match="enumeration_budget must be positive"):
        ExactLimits(enumeration_budget=value)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), True])
def test_alpha_outside_the_unit_interval_rejected(worked, alpha):
    with pytest.raises(InputError) as excinfo:
        solve_exact(worked, alpha)
    assert str(excinfo.value) == f"alpha must lie in [0, 1], got {alpha!r}"
