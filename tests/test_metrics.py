from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heursched import (GapFunction, IncumbentTimeline, InputError, dump_timeline,
                       gap_function, load_timeline, primal_gap, primal_integral)


def test_primal_gap_reference_cases():
    assert primal_gap(2382.03, 2382.03) == 0.0
    assert primal_gap(-1.0, 1.0) == 1.0
    assert primal_gap(50.0, 100.0) == pytest.approx(0.5)
    assert primal_gap(0.0, 0.0) == 0.0
    assert primal_gap(0.0, 5.0) == 1.0  # zero against nonzero: whole magnitude away


def test_timeline_validation():
    IncumbentTimeline(((1.0, 5.0), (2.0, 3.0)), best_known=1.0)
    with pytest.raises(InputError, match="strictly increasing"):
        IncumbentTimeline(((2.0, 5.0), (2.0, 3.0)), best_known=1.0)
    with pytest.raises(InputError, match="strictly improve"):
        IncumbentTimeline(((1.0, 5.0), (2.0, 5.0)), best_known=1.0)
    with pytest.raises(InputError, match="strictly improve"):
        IncumbentTimeline(((1.0, 5.0), (2.0, 3.0)), best_known=9.0, sense="max")
    IncumbentTimeline(((1.0, 3.0), (2.0, 5.0)), best_known=9.0, sense="max")
    with pytest.raises(InputError, match="sense"):
        IncumbentTimeline((), best_known=0.0, sense="MIN")


def test_primal_integral_no_events_equals_horizon():
    tl = IncumbentTimeline((), best_known=0.0)
    assert primal_integral(tl, 100.0) == 100.0


def test_primal_integral_single_optimal_event():
    tl = IncumbentTimeline(((10.0, 7.0),), best_known=7.0)
    assert primal_integral(tl, 100.0) == pytest.approx(10.0)


def test_primal_integral_two_events_step_sum():
    # values chosen so the first event's gap is exactly 0.5
    tl = IncumbentTimeline(((2.0, 100.0), (4.0, 50.0)), best_known=50.0)
    assert primal_integral(tl, 8.0) == pytest.approx(1.0 * 2 + 0.5 * 2 + 0.0 * 4)


def test_primal_integral_rejects_bad_horizon():
    tl = IncumbentTimeline((), best_known=0.0)
    for horizon in (0.0, -1.0):
        with pytest.raises(InputError, match="positive"):
            primal_integral(tl, horizon)


# ints beyond the float range too: the second has more digits than str() prints
NON_FINITE = [float("nan"), float("inf"), float("-inf"), pytest.param(10 ** 400, id="10**400"),
              pytest.param(10 ** 5000, id="10**5000")]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("boundary", [
    lambda x: IncumbentTimeline(((x, 5.0),), best_known=1.0),
    lambda x: IncumbentTimeline(((1.0, x),), best_known=1.0),
    lambda x: IncumbentTimeline((), best_known=x),
    lambda x: primal_integral(IncumbentTimeline((), best_known=0.0), x),
    lambda x: gap_function(IncumbentTimeline((), best_known=0.0)).area(x),
    lambda x: GapFunction(((0.0, 1.0), (x, 0.5))),
    lambda x: gap_function(IncumbentTimeline((), best_known=0.0)).value_at(x),
    lambda x: primal_gap(x, 1.0),
    lambda x: primal_gap(1.0, x),
    lambda x: IncumbentTimeline((), best_known=1.0).gap_of(x),
], ids=["event_time", "event_value", "best_known", "integral_horizon", "area_horizon",
        "gap_breakpoint_time", "value_at", "gap_value", "gap_reference", "gap_of"])
def test_non_finite_numbers_rejected(boundary, bad):
    with pytest.raises(InputError, match="must be finite"):
        boundary(bad)


def test_events_at_or_after_horizon_are_ignored():
    tl = IncumbentTimeline(((2.0, 100.0), (4.0, 50.0)), best_known=50.0)
    assert primal_integral(tl, 4.0) == pytest.approx(1.0 * 2 + 0.5 * 2)
    assert primal_integral(tl, 3.0) == pytest.approx(1.0 * 2 + 0.5 * 1)


def test_gap_function_segments():
    tl = IncumbentTimeline(((2.0, 100.0), (4.0, 50.0)), best_known=50.0)
    gf = gap_function(tl)
    assert gf.breakpoints == ((0.0, 1.0), (2.0, 0.5), (4.0, 0.0))
    assert gf.value_at(0.0) == 1.0
    assert gf.value_at(2.0) == 0.5  # right-continuous at event times
    assert gf.value_at(3.999) == 0.5
    assert gf.value_at(100.0) == 0.0


def test_gap_function_empty_timeline():
    gf = gap_function(IncumbentTimeline((), best_known=0.0))
    assert gf.breakpoints == ((0.0, 1.0),)


def test_gap_function_event_at_time_zero():
    gf = gap_function(IncumbentTimeline(((0.0, 5.0),), best_known=5.0))
    assert gf.breakpoints == ((0.0, 0.0),)


def test_gap_function_final_segment_zero_when_best_reached():
    tl = IncumbentTimeline(((1.0, 80.0), (2.0, 60.0)), best_known=60.0)
    assert gap_function(tl).breakpoints[-1][1] == 0.0


def test_gap_function_trusts_the_timeline_as_checked(monkeypatch):
    events = [[1.0, 80.0], [2.0, 60.0]]
    tl = IncumbentTimeline(events, best_known=60.0)
    events[0][0] = 3.0
    events.append([0.5, 70.0])
    assert tl.events == ((1.0, 80.0), (2.0, 60.0))

    def refuse(self):
        raise AssertionError("the breakpoints were checked again")

    monkeypatch.setattr(GapFunction, "__post_init__", refuse)
    gf = gap_function(tl)
    monkeypatch.undo()
    assert gf == GapFunction(((0.0, 1.0), (1.0, 0.25), (2.0, 0.0)))


def test_max_sense_mirrors_min():
    tl_min = IncumbentTimeline(((1.0, 80.0), (2.0, 60.0)), best_known=60.0, sense="min")
    tl_max = IncumbentTimeline(((1.0, -80.0), (2.0, -60.0)), best_known=-60.0, sense="max")
    assert primal_integral(tl_min, 10.0) == pytest.approx(primal_integral(tl_max, 10.0))


def _random_timeline(rng: random.Random) -> IncumbentTimeline:
    best = rng.uniform(-50.0, 200.0)
    count = rng.randint(0, 8)
    times = sorted(rng.uniform(0.0, 90.0) for _ in range(count))
    times = [round(t, 6) for t in times]
    times = [t for i, t in enumerate(times) if i == 0 or t > times[i - 1]]
    values = sorted((best + abs(rng.gauss(10.0, 30.0)) for _ in times), reverse=True)
    values = [v for i, v in enumerate(values) if i == 0 or v < values[i - 1]]
    return IncumbentTimeline(tuple(zip(times[:len(values)], values[:len(times)])),
                             best_known=best)


def _step_sum(tl: IncumbentTimeline, horizon: float) -> float:
    """The integral summed event by event, as gap times the time since the
    previous event, independently of ``gap_function``."""
    total = 0.0
    previous_time = 0.0
    previous_gap = 1.0
    for time, value in tl.events:
        if time >= horizon:
            break
        total += previous_gap * (time - previous_time)
        previous_time = time
        previous_gap = tl.gap_of(value)
    total += previous_gap * (horizon - previous_time)
    return total


@pytest.mark.parametrize("sense", ["min", "max"])
def test_integral_equals_the_step_sum_at_the_edges(sense):
    # events at 0, at and after the limit, subnormal times and limits
    sign = 1.0 if sense == "min" else -1.0
    edges = [0.0, 5e-324, 1e-300, 1e-9, 1.0, 2.0, 3.0]
    rng = random.Random(73)
    for _ in range(3000):
        times = sorted({rng.choice([*edges, rng.uniform(0.0, 4.0)])
                        for _ in range(rng.randint(0, 5))})
        best = rng.uniform(-50.0, 50.0)
        values = sorted({best + rng.choice([0.0, rng.uniform(0.0, 100.0)]) for _ in times},
                        reverse=True)
        tl = IncumbentTimeline(tuple((t, sign * v) for t, v in zip(times, values)),
                               best_known=sign * best, sense=sense)
        horizon = rng.choice([*edges[1:], *times, rng.uniform(1e-12, 5.0)] if times
                             else edges[1:])
        if horizon <= 0.0:
            continue
        assert primal_integral(tl, horizon) == _step_sum(tl, horizon)


def test_metric_identities_random_sweep():
    rng = random.Random(61)
    for _ in range(300):
        tl = _random_timeline(rng)
        horizon = rng.uniform(1.0, 120.0)
        integral = primal_integral(tl, horizon)
        assert 0.0 <= integral <= horizon + 1e-12
        for _, value in tl.events:
            assert 0.0 <= tl.gap_of(value) <= 1.0
        # two-path consistency: the gap function's area is the step sum, bit for bit
        assert integral == _step_sum(tl, horizon)
        # monotone in the horizon
        assert primal_integral(tl, horizon + rng.uniform(0.1, 30.0)) >= integral - 1e-12


def test_inserting_an_event_never_increases_the_integral():
    rng = random.Random(67)
    checked = 0
    while checked < 100:
        tl = _random_timeline(rng)
        if not tl.events:
            continue
        horizon = 120.0
        base = primal_integral(tl, horizon)
        # insert a new first event strictly before and strictly worse-or-split
        first_time, first_value = tl.events[0]
        if first_time <= 0.5:
            continue
        new_event = (first_time / 2, first_value + abs(rng.gauss(5.0, 5.0)) + 0.001)
        augmented = IncumbentTimeline((new_event,) + tl.events, best_known=tl.best_known)
        assert primal_integral(augmented, horizon) <= base + 1e-9
        checked += 1


def test_timeline_csv_round_trip():
    tl = IncumbentTimeline(((1.5, 80.0), (2.25, 60.0)), best_known=60.0)
    text = dump_timeline(tl)
    again = load_timeline(text, best_known=60.0)
    assert again == tl
    with pytest.raises(InputError, match="header"):
        load_timeline("1.5,80\n", best_known=0.0)


@settings(max_examples=200)
@given(times=st.lists(st.floats(0.0, 1e12), max_size=8, unique=True),
       values=st.lists(st.floats(-1e12, 1e12), min_size=8, max_size=8, unique=True),
       best_known=st.floats(-1e12, 1e12), sense=st.sampled_from(("min", "max")))
def test_timeline_dump_load_round_trip(times, values, best_known, sense):
    improving = sorted(values, reverse=sense == "min")[:len(times)]
    tl = IncumbentTimeline(tuple(zip(sorted(times), improving)), best_known=best_known,
                           sense=sense)
    text = dump_timeline(tl)
    again = load_timeline(text, best_known=best_known, sense=sense)
    assert again == tl
    assert dump_timeline(again) == text


@pytest.mark.parametrize("make, message", [
    (lambda: IncumbentTimeline(((-1.0, 5.0),), best_known=0.0),
     "event times must be nonnegative, got -1.0"),
    (lambda: GapFunction(((1.0, 1.0),)), "gap function must start at time 0"),
    (lambda: GapFunction(((0.0, 1.0), (0.0, 0.5))),
     "gap breakpoints must be strictly increasing in time"),
    (lambda: GapFunction(((0.0, 1.5),)), "gap values must lie in [0, 1], got 1.5"),
    (lambda: GapFunction(((0.0, True),)), "gap values must lie in [0, 1], got True"),
    (lambda: GapFunction(((0.0, 1.0),)).value_at(-1), "time must be nonnegative, got -1"),
    (lambda: load_timeline("time_seconds,objective_value\n1.0,soon\n", best_known=0.0),
     "line 2: times and values must be numbers"),
], ids=["negative event time", "late start", "repeated time", "gap above 1", "gap True",
        "negative time", "non-numeric line"])
def test_metrics_rejections(make, message):
    with pytest.raises(InputError) as excinfo:
        make()
    assert str(excinfo.value) == message
