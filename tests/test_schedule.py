from __future__ import annotations

import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heursched import (Dataset, InputError, Schedule, ScheduleEvaluation, best_action,
                       dump_schedule, evaluate, load_schedule, node_cost, solve_exact)
from heursched.schedule import replay_tables

from conftest import pathological_csv, random_dataset
from heursched import load_dataset


def test_schedule_validation():
    Schedule()  # empty is fine
    with pytest.raises(InputError, match="more than once"):
        Schedule((("h1", 1), ("h1", 2)))
    with pytest.raises(InputError, match="positive integer"):
        Schedule((("h1", 0),))
    # a bool is an int, and dump_schedule would write True, which load_schedule refuses
    with pytest.raises(InputError) as excinfo:
        Schedule((("h1", True),))
    assert str(excinfo.value) == "budget for 'h1' must be a positive integer, got True"


def test_budgets_are_bounded_by_2_53():
    assert Schedule((("h1", 2 ** 53),)).entries == (("h1", 2 ** 53),)
    with pytest.raises(InputError) as excinfo:
        Schedule((("h1", 2 ** 53 + 1),))
    assert str(excinfo.value) == "budget for 'h1' must be at most 2**53 = 9007199254740992"
    text = "position,heuristic,max_iterations\n1,h1,{}\n"
    assert load_schedule(text.format(2 ** 53)).entries == (("h1", 2 ** 53),)
    with pytest.raises(InputError) as excinfo:
        load_schedule(text.format(2 ** 53 + 1))
    assert str(excinfo.value) == ("line 2: budget for 'h1' must be at most "
                                  "2**53 = 9007199254740992")


def test_budget_text_too_long_for_int_reads_as_too_large():
    # int() refuses more than 4,300 digits; such a budget used to be reported
    # as "position and max_iterations must be integers"
    with pytest.raises(InputError) as excinfo:
        load_schedule(f"position,heuristic,max_iterations\n1,h1,{'9' * 5000}\n")
    assert str(excinfo.value) == ("line 2: budget for 'h1' must be at most "
                                  "2**53 = 9007199254740992")


def test_schedule_csv_round_trip():
    s = Schedule((("h1", 1), ("h2", 3)))
    text = dump_schedule(s)
    assert text.splitlines()[0] == "position,heuristic,max_iterations"
    assert load_schedule(text) == s


def test_schedule_csv_rows_may_be_unordered():
    text = "position,heuristic,max_iterations\n2,h2,3\n1,h1,1\n"
    assert load_schedule(text).entries == (("h1", 1), ("h2", 3))


def test_schedule_csv_contiguity_and_duplicates():
    with pytest.raises(InputError, match="contiguous"):
        load_schedule("position,heuristic,max_iterations\n1,h1,1\n3,h2,3\n")
    with pytest.raises(InputError, match="duplicate position"):
        load_schedule("position,heuristic,max_iterations\n1,h1,1\n1,h2,3\n")


@pytest.mark.parametrize("rows,fragment", [
    ("1,h1,0\n", "budget for 'h1' must be a positive integer, got 0"),
    ("1,h1,2\n2,h1,3\n", "heuristic 'h1' appears more than once"),
    ("1,#h,2\n", "invalid heuristic identifier '#h'"),
    ("2,h2,1\n1,h1,-4\n", "budget for 'h1' must be a positive integer, got -4"),
])
def test_schedule_csv_errors_name_their_line(rows, fragment):
    text = "position,heuristic,max_iterations\n" + rows
    bad_line = len(text.splitlines())
    with pytest.raises(InputError) as excinfo:
        load_schedule(text)
    assert str(excinfo.value).startswith(f"line {bad_line}: {fragment}")


def test_schedule_csv_first_bad_line_wins():
    text = "position,heuristic,max_iterations\n1,h1,0\n2,h1,1\n3,,1\n"
    with pytest.raises(InputError, match=r"^line 2: budget for 'h1'"):
        load_schedule(text)


@settings(max_examples=200)
@given(entries=st.lists(st.tuples(st.sampled_from([f"h{i}" for i in range(8)] + ["a b", "x#"]),
                                  st.integers(1, 10**6)),
                        max_size=8, unique_by=lambda entry: entry[0]))
def test_schedule_dump_load_round_trip(entries):
    s = Schedule(tuple(entries))
    text = dump_schedule(s)
    again = load_schedule(text)
    assert again == s
    assert dump_schedule(again) == text


def test_node_cost_worked_example(worked):
    s = Schedule((("h1", 1), ("h2", 3)))
    n1 = node_cost(s, worked, "N1")
    assert (n1.first_success_position, n1.cost) == (1, 1)
    n2 = node_cost(s, worked, "N2")
    assert (n2.first_success_position, n2.cost) == (2, 4)


def test_node_cost_empty_schedule(worked):
    outcome = node_cost(Schedule(), worked, "N3")
    assert outcome.first_success_position is None
    assert outcome.cost == 1


def test_node_cost_unknown_ids(worked):
    with pytest.raises(InputError, match="unknown node"):
        node_cost(Schedule(), worked, "N9")
    with pytest.raises(InputError, match="unknown heuristic"):
        node_cost(Schedule((("h9", 1),)), worked, "N1")


def test_evaluate_worked_example(worked):
    s = Schedule((("h1", 1), ("h2", 3)))
    for alpha in (0.0, 0.5, 1.0):
        ev = evaluate(s, worked, alpha)
        assert ev.objective == 9
        assert ev.solved_nodes == 3
        assert ev.success_rate == 1.0
        assert ev.feasible


def test_evaluate_pathological_single_budget():
    d = load_dataset(pathological_csv())
    ev = evaluate(Schedule((("h", 1),)), d, 0.02)
    assert ev.solved_nodes == 1
    assert ev.success_rate == pytest.approx(0.01)
    assert not ev.feasible
    assert evaluate(Schedule((("h", 1),)), d, 0.01).feasible


def test_evaluate_empty_schedule_costs_one_per_node(worked):
    ev = evaluate(Schedule(), worked, 0.0)
    assert ev.objective == len(worked.nodes)
    assert ev.solved_nodes == 0


def test_evaluate_rejects_bad_alpha(worked):
    for alpha in (-0.1, 1.1):
        with pytest.raises(InputError, match="alpha"):
            evaluate(Schedule(), worked, alpha)


def _random_schedule(rng, d):
    heuristics = list(d.heuristics)
    rng.shuffle(heuristics)
    picked = heuristics[:rng.randint(0, len(heuristics))]
    return Schedule(tuple((h, rng.randint(1, 12)) for h in picked))


def test_appending_entries_never_loses_coverage():
    rng = random.Random(23)
    for _ in range(40):
        d = random_dataset(rng)
        s = _random_schedule(rng, d)
        solved = evaluate(s, d, 0.0).solved_nodes
        for h in d.heuristics:
            if h in s.heuristics:
                continue
            extended = Schedule(s.entries + ((h, rng.randint(1, 12)),))
            assert evaluate(extended, d, 0.0).solved_nodes >= solved


def test_cost_bounded_by_full_schedule_plus_one():
    rng = random.Random(29)
    for _ in range(40):
        d = random_dataset(rng)
        s = _random_schedule(rng, d)
        full = sum(b for _, b in s.entries)
        for outcome in evaluate(s, d, 0.0).per_node:
            assert outcome.cost <= full + 1
            assert (outcome.cost == full + 1) == (outcome.first_success_position is None)


def test_normalization_with_unit_costs_matches_plain():
    rng = random.Random(31)
    for _ in range(20):
        d = random_dataset(rng)
        s = _random_schedule(rng, d)
        # one second per iteration: every normalized weight is exactly 1.0
        timed = Dataset(d.heuristics, d.nodes, tuple(
            replace(o, duration_seconds=float(o.iterations_executed)) for o in d.observations))
        plain = evaluate(s, d, 0.0)
        normalized = evaluate(s, timed, 0.0, normalize=True)
        assert normalized.objective == plain.objective
        assert normalized.solved_nodes == plain.solved_nodes


def test_entries_after_first_success_cost_nothing():
    rng = random.Random(37)
    for _ in range(40):
        d = random_dataset(rng)
        s = _random_schedule(rng, d)
        if len(s) < 2:
            continue
        baseline = {o.node: o for o in evaluate(s, d, 0.0).per_node}
        for node, outcome in baseline.items():
            position = outcome.first_success_position
            if position is None or position == len(s):
                continue
            entries = list(s.entries)
            for i in range(position, len(entries)):
                entries[i] = (entries[i][0], entries[i][1] + 5)
            mutated = node_cost(Schedule(tuple(entries)), d, node)
            assert mutated == outcome


def test_evaluation_objective_is_sum_of_node_costs():
    rng = random.Random(41)
    d = random_dataset(rng)
    s = _random_schedule(rng, d)
    ev = evaluate(s, d, 0.0)
    assert ev.objective == sum(o.cost for o in ev.per_node)
    assert ev.success_rate == ev.solved_nodes / len(d.nodes)


def test_per_node_is_built_on_first_read_and_reads_as_a_field():
    # evaluate replays each node once for the totals and builds no NodeOutcome;
    # per_node replays again on first read, and the evaluation then equals and
    # reads like one given its outcomes
    d = load_dataset(pathological_csv())
    s = Schedule((("h", 50),))
    for normalize in (False, True):
        ev = evaluate(s, d, 0.5, normalize=normalize)
        assert "per_node" not in vars(ev)
        eager = ScheduleEvaluation(ev.objective, ev.solved_nodes, ev.success_rate, ev.alpha,
                                   ev.feasible, tuple(node_cost(s, d, n, normalize=normalize)
                                                      for n in d.nodes))
        assert ev == eager and eager == ev
        assert repr(ev) == repr(eager)
        assert hash(ev) == hash(eager)
        assert vars(ev)["per_node"] is ev.per_node == eager.per_node
        assert [o.first_success_position for o in ev.per_node[:2]] == [1, None]
    assert replace(ev, alpha=0.25).per_node == ev.per_node
    assert [field.name for field in fields(ScheduleEvaluation) if field.init] == [
        "objective", "solved_nodes", "success_rate", "alpha", "feasible", "per_node"]
    with pytest.raises(AttributeError):
        ev.outcomes


def test_overflowing_normalized_objective_rejected():
    # 1e308 s per iteration each: N2 costs 2e308 s under both entries
    d = load_dataset("heuristic,node,iterations_to_solution,iterations_executed,"
                     "duration_seconds\nh1,N1,1,1,1e308\nh2,N2,1,1,1e308\n")
    s = Schedule((("h1", 1), ("h2", 1)))
    assert evaluate(s, d, 1.0).objective == 3
    with pytest.raises(InputError) as excinfo:
        evaluate(s, d, 1.0, normalize=True)
    assert str(excinfo.value) == ("schedule objective overflows the float range: "
                                  "the iteration costs are too large")


def test_normalize_is_keyword_only(worked):
    # a stale positional argument where the cost profile used to go is refused,
    # never read as ``normalize``
    s = Schedule((("h1", 1),))
    for call in (lambda: replay_tables(worked, True),
                 lambda: node_cost(s, worked, "N1", True),
                 lambda: evaluate(s, worked, 0.0, True),
                 lambda: best_action(worked, {"N1"}, True),
                 lambda: solve_exact(worked, 0.0, True)):
        with pytest.raises(TypeError, match="positional argument"):
            call()


@pytest.mark.parametrize("make, message", [
    (lambda: Schedule((("h",),)), "schedule entry must be (heuristic, budget), got ('h',)"),
    (lambda: load_schedule("position,heuristic,max_iterations\nfirst,h,1\n"),
     "line 2: position and max_iterations must be integers"),
], ids=["one-item entry", "non-integer position"])
def test_schedule_rejections(make, message):
    with pytest.raises(InputError) as excinfo:
        make()
    assert str(excinfo.value) == message
