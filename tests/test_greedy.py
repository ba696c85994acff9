from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heursched import (Dataset, GreedyOptions, GreedyStep, InputError, Observation,
                       Schedule, best_action, breakpoints, build_schedule, evaluate)
from heursched.schedule import replay_tables

from conftest import random_dataset


def test_best_action_first_step_worked_example(worked):
    step = best_action(worked, set(worked.nodes))
    assert (step.heuristic, step.budget) == ("h1", 1)
    assert step.ratio == pytest.approx(1.0)
    assert step.newly_solved == 1


def test_best_action_second_step_worked_example(worked):
    step = best_action(worked, {"N2", "N3"}, scheduled={"h1"}, last_entry=("h1", 1))
    assert (step.heuristic, step.budget) == ("h2", 3)
    assert step.ratio == pytest.approx(2 / 3)
    assert step.newly_solved == 2


def test_best_action_none_when_nothing_solvable():
    d = Dataset.from_observations([
        Observation("h1", "N1", None, 5),
        Observation("h2", "N1", None, 5),
    ])
    assert best_action(d, {"N1"}) is None


@pytest.mark.parametrize("kwargs, message", [
    ({"unsolved": {"N1", "ZZ"}}, "unknown node 'ZZ'"),
    ({"scheduled": {"nope"}}, "unknown heuristic 'nope'"),
    ({"last_entry": ("nope", 5)}, "unknown heuristic 'nope'"),
    ({"last_entry": ("h1", -5)}, "budget for 'h1' must be a positive integer, got -5"),
    ({"last_entry": ("h1", 0)}, "budget for 'h1' must be a positive integer, got 0"),
    ({"last_entry": ("h1", 1.5)}, "budget for 'h1' must be a positive integer, got 1.5"),
    ({"last_entry": ("h1", True)}, "budget for 'h1' must be a positive integer, got True"),
    ({"last_entry": ("h2", 3)}, "last_entry heuristic 'h2' is not in scheduled"),
    ({"scheduled": {"h1", "h2"}, "last_entry": ("h2", 3)},
     "unsolved node 'N2' is solved by last_entry ('h2', 3)"),
], ids=["unknown node", "unknown scheduled", "unknown last entry", "negative budget",
        "zero budget", "fractional budget", "bool budget", "last entry not scheduled",
        "node solved by the last entry"])
def test_best_action_rejects_bad_arguments(worked, kwargs, message):
    kwargs = {"unsolved": set(worked.nodes), **kwargs}
    with pytest.raises(InputError) as excinfo:
        best_action(worked, kwargs.pop("unsolved"), **kwargs)
    assert str(excinfo.value) == message


def test_best_action_counts_only_nodes_the_extension_solves():
    # N2 is solved by the last entry already; it used to count as newly solved
    d = Dataset.from_observations([Observation("h1", "N1", 2, 3), Observation("h2", "N1", None, 4),
                                   Observation("h1", "N2", 1, 1)])
    with pytest.raises(InputError) as excinfo:
        best_action(d, {"N1", "N2"}, scheduled={"h1"}, last_entry=("h1", 1))
    assert str(excinfo.value) == "unsolved node 'N2' is solved by last_entry ('h1', 1)"
    step = best_action(d, {"N1"}, scheduled={"h1"}, last_entry=("h1", 1))
    assert (step.heuristic, step.budget, step.newly_solved, step.ratio) == ("h1", 2, 1, 1.0)


def test_build_schedule_worked_example(worked):
    schedule, trace, ev = build_schedule(worked, GreedyOptions(alpha_report=0.9))
    assert schedule.entries == (("h1", 1), ("h2", 3))
    assert ev.objective == 9
    assert ev.solved_nodes == 3
    assert [s.extends_last for s in trace.steps] == [False, False]


def test_build_schedule_pathological_with_extension(pathological):
    schedule, trace, ev = build_schedule(pathological, GreedyOptions(allow_extension=True))
    assert schedule.entries == (("h", 100),)
    assert ev.solved_nodes == 100
    # the second step raised the first entry's budget instead of re-adding h
    assert [s.extends_last for s in trace.steps] == [False, True]
    assert trace.steps[1].marginal_cost == 99


def test_build_schedule_pathological_without_extension(pathological):
    with pytest.warns(UserWarning, match="below the requested"):
        schedule, _, ev = build_schedule(
            pathological, GreedyOptions(allow_extension=False, alpha_report=0.02))
    assert schedule.entries == (("h", 1),)
    assert ev.success_rate == pytest.approx(0.01)
    assert not ev.feasible


def test_build_schedule_rejects_empty_dataset():
    with pytest.raises(InputError):
        build_schedule(Dataset((), (), ()))


def test_normalization_changes_the_winner():
    # pricey solves two nodes but at 10 s/iteration; cheap solves one at 0.1
    d = Dataset.from_observations([
        Observation("pricey", "N1", 2, 2, 20.0),
        Observation("pricey", "N2", 2, 2, 20.0),
        Observation("cheap", "N1", 2, 2, 0.2),
        Observation("cheap", "N3", None, 4, 0.4),
    ])
    plain = best_action(d, {"N1", "N2", "N3"})
    assert plain.heuristic == "pricey"  # 2/2 beats 1/2 on raw iterations
    weighted = best_action(d, {"N1", "N2", "N3"}, normalize=True)
    assert weighted.heuristic == "cheap"  # 1/0.2 beats 2/40


def test_each_heuristic_appears_at_most_once_and_coverage_grows():
    rng = random.Random(43)
    for _ in range(60):
        d = random_dataset(rng)
        schedule, trace, ev = build_schedule(d)
        names = [h for h, _ in schedule.entries]
        assert len(names) == len(set(names))
        assert all(step.newly_solved >= 1 for step in trace.steps)
        assert all(step.ratio > 0 for step in trace.steps)
        assert len(trace.steps) <= len(d.nodes)
        # nothing further to gain when the loop stops
        solved = {o.node for o in ev.per_node if o.first_success_position is not None}
        leftovers = set(d.nodes) - solved
        if leftovers:
            last = schedule.entries[-1] if schedule.entries else None
            assert best_action(d, leftovers, scheduled=set(names), last_entry=last) is None


def test_single_heuristic_extension_is_undominated_at_a_breakpoint():
    rng = random.Random(47)
    for _ in range(30):
        d = random_dataset(rng, max_heuristics=1)
        h = d.heuristics[0]
        bps = breakpoints(d, h)
        if not bps:
            continue
        schedule, _, ev = build_schedule(d, GreedyOptions(allow_extension=True))
        assert schedule.entries[0][1] in bps
        # enumeration over single-entry schedules: the greedy result reaches
        # the maximum coverage, and nothing beats its objective without
        # giving up coverage (the extension buys coverage, not objective)
        singles = [evaluate(Schedule(((h, b),)), d, 0.0) for b in bps]
        assert ev.solved_nodes == max(e.solved_nodes for e in singles)
        for other in singles:
            assert not (other.objective < ev.objective
                        and other.solved_nodes >= ev.solved_nodes)


@pytest.mark.parametrize("factor", [2.0, 0.5, 10.0])
def test_uniform_duration_scaling_keeps_schedule(factor):
    rng = random.Random(53)
    for _ in range(20):
        d = random_dataset(rng, with_durations=True)
        scaled = Dataset(d.heuristics, d.nodes, tuple(
            Observation(o.heuristic, o.node, o.iterations_to_solution,
                        o.iterations_executed,
                        None if o.duration_seconds is None else o.duration_seconds * factor)
            for o in d.observations))
        original, _, _ = build_schedule(d, GreedyOptions(normalize_costs=True))
        rescaled, _, _ = build_schedule(scaled, GreedyOptions(normalize_costs=True))
        assert original == rescaled


@pytest.mark.parametrize("normalize", [False, True])
def test_build_evaluation_is_evaluate(normalize):
    # the builder prices its schedule with the weights it built with; the
    # result must be evaluate's, bit for bit
    rng = random.Random(59)
    for i in range(60):
        d = random_dataset(rng, with_durations=i % 2 == 1)
        schedule, _, evaluation = build_schedule(d, GreedyOptions(normalize_costs=normalize))
        assert repr(evaluation) == repr(evaluate(schedule, d, 0.0, normalize=normalize))


def test_trace_rendering_one_line_per_step(worked):
    _, trace, _ = build_schedule(worked)
    text = trace.render()
    assert len(text.splitlines()) == len(trace.steps)
    assert "h1" in text and "ratio" in text


def recount_best_action(d, unsolved, scheduled, last_entry, weights):
    """Reference scorer: recount every tau for every (heuristic, budget)."""
    registration = {h: i for i, h in enumerate(d.heuristics)}
    best, best_key = None, None
    for heuristic in d.heuristics:
        is_last = last_entry is not None and heuristic == last_entry[0]
        if heuristic in scheduled and not is_last:
            continue
        weight = weights[heuristic]
        taus = d.tau_column(heuristic)
        for budget in breakpoints(d, heuristic):
            if is_last and budget <= last_entry[1]:
                continue
            newly = sum(1 for node, tau in taus.items() if tau <= budget and node in unsolved)
            if newly == 0:
                continue
            cost = weight * (budget - last_entry[1]) if is_last else weight * budget
            key = (-(newly / cost), cost, registration[heuristic], budget)
            if best_key is None or key < best_key:
                best_key = key
                best = GreedyStep(heuristic, budget, newly, cost, newly / cost, is_last)
    return best


def recount_greedy(d, opts):
    """Reference greedy loop driven by ``recount_best_action``."""
    weights = replay_tables(d, normalize=opts.normalize_costs)
    unsolved = set(d.nodes)
    entries, steps = [], []
    while unsolved:
        last_entry = entries[-1] if (entries and opts.allow_extension) else None
        step = recount_best_action(d, unsolved, {h for h, _ in entries}, last_entry, weights)
        if step is None:
            break
        if step.extends_last:
            entries[-1] = (step.heuristic, step.budget)
        else:
            entries.append((step.heuristic, step.budget))
        taus = d.tau_column(step.heuristic)
        unsolved = {n for n in unsolved if not (n in taus and taus[n] <= step.budget)}
        steps.append(step)
    schedule = Schedule(tuple(entries))
    evaluation = evaluate(schedule, d, opts.alpha_report, normalize=opts.normalize_costs)
    return schedule, tuple(steps), evaluation


@st.composite
def tied_datasets(draw):
    """Up to 5 heuristics x 8 nodes with few distinct taus, so ratios tie often."""
    n_heuristics = draw(st.integers(1, 5))
    n_nodes = draw(st.integers(1, 8))
    observations = []
    for h in range(n_heuristics):
        rate = draw(st.sampled_from((0.5, 1.0, 2.0)) | st.floats(0.01, 10.0))
        for n in range(n_nodes):
            outcome = draw(st.sampled_from(("unobserved", "failed", "solved", "solved")))
            if outcome == "unobserved":
                continue
            tau = None if outcome == "failed" else draw(st.integers(1, 4))
            executed = tau if tau is not None else draw(st.integers(1, 6))
            duration = draw(st.none() | st.just(executed * rate))
            observations.append(Observation(f"h{h}", f"n{n}", tau, executed, duration))
    heuristics = tuple(f"h{h}" for h in range(n_heuristics))
    nodes = tuple(f"n{n}" for n in range(n_nodes))
    return Dataset(heuristics, nodes, tuple(observations))


@settings(max_examples=200)
@given(d=tied_datasets(), allow_extension=st.booleans(), normalize=st.booleans(),
       data=st.data())
def test_sorted_sweep_matches_recount(d, allow_extension, normalize, data):
    opts = GreedyOptions(allow_extension=allow_extension, normalize_costs=normalize)
    schedule, trace, evaluation = build_schedule(d, opts)
    expected = recount_greedy(d, opts)
    assert schedule == expected[0]
    assert repr(trace.steps) == repr(expected[1])
    assert repr(evaluation) == repr(expected[2])
    # one step from any state: counts built from a partial unsolved set
    unsolved = data.draw(st.sets(st.sampled_from(d.nodes)))
    scheduled = data.draw(st.sets(st.sampled_from(d.heuristics)))
    last_entry = data.draw(st.none() | st.tuples(st.sampled_from(d.heuristics), st.integers(1, 5)))
    weights = replay_tables(d, normalize=normalize)
    refusal = None
    if last_entry is not None:
        heuristic, budget = last_entry
        taus = d.tau_column(heuristic)
        solved = [n for n in d.nodes if n in unsolved and n in taus and taus[n] <= budget]
        if heuristic not in scheduled:
            refusal = f"last_entry heuristic {heuristic!r} is not in scheduled"
        elif solved:
            refusal = f"unsolved node {solved[0]!r} is solved by last_entry {last_entry!r}"
    if refusal is None:
        step = best_action(d, unsolved, scheduled=scheduled, last_entry=last_entry,
                           normalize=normalize)
        assert repr(step) == repr(recount_best_action(d, unsolved, scheduled, last_entry, weights))
    else:
        with pytest.raises(InputError) as excinfo:
            best_action(d, unsolved, scheduled=scheduled, last_entry=last_entry,
                        normalize=normalize)
        assert str(excinfo.value) == refusal
        # the same state made valid: the last entry scheduled and its nodes solved
        scheduled, unsolved = scheduled | {heuristic}, unsolved - set(solved)
        step = best_action(d, unsolved, scheduled=scheduled, last_entry=last_entry,
                           normalize=normalize)
        assert repr(step) == repr(recount_best_action(d, unsolved, scheduled, last_entry, weights))


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), True, False])
def test_alpha_report_outside_the_unit_interval_rejected(alpha):
    with pytest.raises(InputError) as excinfo:
        GreedyOptions(alpha_report=alpha)
    assert str(excinfo.value) == f"alpha_report must lie in [0, 1], got {alpha!r}"
