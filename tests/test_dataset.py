from __future__ import annotations

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heursched import (Dataset, InputError, IterationCostProfile, Observation,
                       avg_iteration_cost, breakpoints, dump_dataset, load_dataset)
from heursched.schedule import replay_tables

from conftest import WORKED_CSV, random_dataset


def test_load_small_dataset():
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "h1,N1,1,1,0.5\n"
            "h1,N2,inf,5,2.0\n"
            "h2,N1,4,4,4.0\n")
    d = load_dataset(text)
    assert d.heuristics == ("h1", "h2")
    assert d.nodes == ("N1", "N2")
    assert len(d.observations) == 3
    assert d.iterations_to_solution("h1", "N1") == 1
    assert d.iterations_to_solution("h1", "N2") is None


def test_load_worked_example():
    d = load_dataset(WORKED_CSV)
    assert len(d.heuristics) == 3
    assert len(d.nodes) == 3
    assert len(d.observations) == 9
    taus = [d.iterations_to_solution(h, n) for h in d.heuristics for n in d.nodes]
    assert taus == [1, None, None, 4, 3, 3, None, 4, 2]


def test_solution_iterations_cannot_exceed_executed():
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "h1,N1,3,2,1.0\n")
    with pytest.raises(InputError, match="exceeds"):
        load_dataset(text)


def test_duplicate_pair_names_the_pair():
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "h1,N1,1,1,\n"
            "h1,N1,2,2,\n")
    with pytest.raises(InputError, match=r"\(h1, N1\)"):
        load_dataset(text)


@pytest.mark.parametrize("bad_row,fragment", [
    ("h1,N1,x,2,", "integer"),
    ("h1,N1,1,zero,", "integer"),
    ("h1,N1,1,1,-2.0", "nonnegative"),
    ("h,n,1,1,nan", "finite"),
    ("h,n,1,1,inf", "finite"),
    ("h1,N1,0,1,", "positive"),
    ("h1,N1,1,0,", "positive"),
    ("h1,N1,1,1", "5 fields"),
])
def test_bad_rows_report_line_number(bad_row, fragment):
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            f"{bad_row}\n")
    with pytest.raises(InputError, match="line 2") as excinfo:
        load_dataset(text)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), 0.0, -1.0])
def test_iteration_cost_must_be_finite_and_positive(cost):
    with pytest.raises(InputError, match="finite and positive"):
        IterationCostProfile({"h": cost})


def test_registration_follows_first_appearance():
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "h2,N3,1,1,\n"
            "h1,N1,inf,2,\n"
            "h2,N1,2,2,\n"
            "h1,N3,inf,2,\n"
            "h3,N2,1,1,\n")
    d = load_dataset(text)
    assert d.heuristics == ("h2", "h1", "h3")
    assert d.nodes == ("N3", "N1", "N2")
    rebuilt = Dataset.from_observations(iter(d.observations))
    assert (rebuilt.heuristics, rebuilt.nodes) == (d.heuristics, d.nodes)
    assert rebuilt.observations == d.observations


def test_header_required_and_comments_ignored():
    with pytest.raises(InputError, match="header"):
        load_dataset("h1,N1,1,1,\n")
    text = ("# a comment\n"
            "\n"
            "heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            "# another\n"
            "h1,N1,1,1,\n")
    assert len(load_dataset(text).observations) == 1


@pytest.mark.parametrize("encoding", ["", "inf", "INF", "Inf"])
def test_failure_wire_encodings(encoding):
    text = ("heuristic,node,iterations_to_solution,iterations_executed,duration_seconds\n"
            f"h1,N1,{encoding},7,\n")
    d = load_dataset(text)
    assert d.iterations_to_solution("h1", "N1") is None
    assert d.observation("h1", "N1").iterations_executed == 7


def test_round_trip_preserves_observations():
    rng = random.Random(7)
    for _ in range(25):
        d = random_dataset(rng, with_durations=True)
        again = load_dataset(dump_dataset(d))
        assert sorted(again.observations, key=lambda o: (o.heuristic, o.node)) == \
            sorted(d.observations, key=lambda o: (o.heuristic, o.node))


def test_avg_iteration_cost_ratio():
    d = Dataset.from_observations([
        Observation("h", "N1", 10, 10, 5.0),
        Observation("h", "N2", None, 30, 7.0),
    ])
    assert avg_iteration_cost(d)["h"] == pytest.approx(12 / 40)


def test_avg_iteration_cost_fallback_without_durations():
    d = Dataset.from_observations([Observation("h", "N1", 2, 2, None)])
    assert avg_iteration_cost(d)["h"] == 1.0


def test_avg_iteration_cost_warns_on_zero_durations():
    d = Dataset.from_observations([Observation("h", "N1", 2, 2, 0.0)])
    with pytest.warns(UserWarning, match="falling back"):
        assert avg_iteration_cost(d)["h"] == 1.0


def test_avg_iteration_cost_preserves_asymmetry():
    d = Dataset.from_observations([
        Observation("cheap", "N1", 10, 10, 1.0),   # 0.1 s/iteration
        Observation("pricey", "N1", 10, 10, 20.0),  # 2.0 s/iteration
    ])
    profile = avg_iteration_cost(d)
    assert profile["pricey"] / profile["cheap"] == pytest.approx(20.0)


def test_avg_iteration_cost_invariant_under_reordering():
    rng = random.Random(11)
    for _ in range(10):
        d = random_dataset(rng, with_durations=True)
        shuffled = list(d.observations)
        rng.shuffle(shuffled)
        d2 = Dataset(d.heuristics, d.nodes, tuple(shuffled))
        assert avg_iteration_cost(d).seconds_per_iteration == \
            avg_iteration_cost(d2).seconds_per_iteration


def test_breakpoints_worked_example(worked):
    assert breakpoints(worked, "h1") == [1]
    assert breakpoints(worked, "h2") == [3, 4]
    assert breakpoints(worked, "h3") == [2, 4]


def test_breakpoints_all_failures_empty():
    d = Dataset.from_observations([Observation("h", "N1", None, 5, None)])
    assert breakpoints(d, "h") == []


def test_breakpoints_unknown_heuristic(worked):
    with pytest.raises(InputError, match="unknown heuristic"):
        breakpoints(worked, "nope")


def test_breakpoints_subset_and_increasing():
    rng = random.Random(13)
    for _ in range(20):
        d = random_dataset(rng)
        for h in d.heuristics:
            bps = breakpoints(d, h)
            observed = {o.iterations_to_solution for o in d.observations
                        if o.heuristic == h and o.succeeded}
            assert set(bps) <= observed
            assert all(a < b for a, b in zip(bps, bps[1:]))


def test_dataset_rejects_unregistered_references():
    with pytest.raises(InputError, match="unregistered"):
        Dataset(("h",), ("N1",), (Observation("h", "N2", 1, 1),))


@st.composite
def shuffled_datasets(draw):
    """Up to 5 heuristics x 8 nodes; pairs unobserved, failed or solved.

    Durations may be missing or zero, and registration order, node order
    and row order are independent permutations.
    """
    n_heuristics = draw(st.integers(1, 5))
    n_nodes = draw(st.integers(1, 8))
    observations = []
    for h in range(n_heuristics):
        for n in range(n_nodes):
            outcome = draw(st.sampled_from(("unobserved", "failed", "solved")))
            if outcome == "unobserved":
                continue
            executed = draw(st.integers(1, 6))
            tau = None if outcome == "failed" else draw(st.integers(1, executed))
            duration = draw(st.none() | st.just(0.0) | st.floats(0.001, 100.0))
            observations.append(Observation(f"h{h}", f"n{n}", tau, executed, duration))
    heuristics = draw(st.permutations([f"h{h}" for h in range(n_heuristics)]))
    nodes = draw(st.permutations([f"n{n}" for n in range(n_nodes)]))
    return Dataset(tuple(heuristics), tuple(nodes), tuple(draw(st.permutations(observations))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=shuffled_datasets())
def test_indexed_columns_match_a_scan_of_the_observations(d):
    tables = replay_tables(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero durations warn and fall back
        costs = avg_iteration_cost(d).seconds_per_iteration
    for h in d.heuristics:
        rows = [o for o in d.observations if o.heuristic == h]
        solved = {o.node: o.iterations_to_solution for o in rows if o.succeeded}
        assert breakpoints(d, h) == sorted(set(solved.values()))
        assert dict(tables.tau_of[h]) == solved
        with pytest.raises(TypeError):
            tables.tau_of[h]["new"] = 1
        assert [d.iterations_to_solution(h, n) for n in d.nodes] == \
            [solved.get(n) for n in d.nodes]
        assert d.registration_index(h) == d.heuristics.index(h)
        timed = [o for o in rows if o.duration_seconds is not None]
        seconds = math.fsum(o.duration_seconds for o in timed)
        expected = seconds / sum(o.iterations_executed for o in timed) if seconds > 0 else 1.0
        assert costs[h] == expected
