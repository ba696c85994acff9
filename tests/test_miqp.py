from __future__ import annotations

import gc
import hashlib
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heursched import (Dataset, InputError, Observation, Schedule, breakpoints,
                       build_miqp, check_assignment, check_linearized, evaluate,
                       export_miqp, schedule_assignment, solve_exact)
from heursched.miqp import _coerce_assignment

from conftest import random_dataset


def test_variable_family_counts(worked):
    model = build_miqp(worked, 0.5)
    assert model.family_size("x") == 3 * (3 + 1) == 12
    assert model.family_size("t") == 3
    assert model.family_size("s") == 9
    assert model.family_size("z") == 9
    assert model.family_size("f") == 9
    assert model.family_size("s_node") == 3
    assert model.family_size("p_min") == 3
    assert model.family_size("t_node") == 3


def test_node_time_upper_bound_single_pair():
    d = Dataset.from_observations([Observation("h", "N1", 1, 1)])
    model = build_miqp(d, 0.0)
    variable = model.variable("tN[N1]")
    assert (variable.lower, variable.upper) == (1, 2)  # 1 plus the total horizon


def test_empty_heuristic_set_rejected():
    with pytest.raises(InputError, match="heuristics"):
        build_miqp(Dataset((), ("N1",), ()), 0.5)


def test_never_successful_heuristic_is_forced_out(worked):
    d = Dataset.from_observations([
        Observation("good", "N1", 2, 2),
        Observation("dud", "N1", None, 9),
    ])
    model = build_miqp(d, 1.0)
    assert model.horizon["dud"] == 0
    assert model.variable("t[dud]").upper == 0
    a = schedule_assignment(model, Schedule((("good", 2),)))
    assert check_assignment(model, a).feasible


def test_worked_example_optimum_assignment(worked):
    model = build_miqp(worked, 0.5)
    a = schedule_assignment(model, Schedule((("h1", 1), ("h2", 3))))
    result = check_assignment(model, a)
    assert result.feasible
    assert result.objective == 9
    assert result.violations == ()


def test_flipping_the_solved_flag_is_caught(worked):
    model = build_miqp(worked, 0.5)
    a = schedule_assignment(model, Schedule((("h1", 1), ("h2", 3))))
    a["sN[N1]"] = 0
    result = check_assignment(model, a)
    assert not result.feasible
    assert "node_solved[N1]" in result.violations


def test_all_zero_assignment_violates_placement(worked):
    model = build_miqp(worked, 0.5)
    zeros = {v.name: 0 for v in model.variables}
    result = check_assignment(model, zeros)
    assert not result.feasible
    assert any(v.startswith("placement[") for v in result.violations)
    assert "coverage" in result.violations


def test_missing_variable_rejected(worked):
    model = build_miqp(worked, 0.5)
    a = schedule_assignment(model, Schedule((("h1", 1),)))
    del a["t[h1]"]
    with pytest.raises(InputError, match="missing"):
        check_assignment(model, a)


@pytest.mark.parametrize("checker", [check_assignment, check_linearized])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_assignment_value_rejected(worked, checker, bad):
    model = build_miqp(worked, 0.5)
    a = schedule_assignment(model, Schedule((("h1", 1),)))
    a["t[h1]"] = bad
    with pytest.raises(InputError, match=r"value of t\[h1\] must be finite"):
        checker(model, a)


def test_budget_above_horizon_rejected(worked):
    model = build_miqp(worked, 0.5)
    with pytest.raises(InputError, match="horizon"):
        schedule_assignment(model, Schedule((("h1", 5),)))
    with pytest.raises(InputError, match="not part of the model"):
        schedule_assignment(model, Schedule((("h9", 1),)))


def test_domain_violations_reported(worked):
    model = build_miqp(worked, 0.5)
    a = schedule_assignment(model, Schedule((("h1", 1), ("h2", 3))))
    a["t[h1]"] = -1
    result = check_assignment(model, a)
    assert any(v.startswith("domain[") for v in result.violations)
    a["t[h1]"] = 0.5
    result = check_assignment(model, a)
    assert any(v.startswith("integrality[") for v in result.violations)


def test_render_sections_and_export(tmp_path, worked):
    model = build_miqp(worked, 0.5)
    text = model.render()
    order = [text.index(section) for section in
             ("VARIABLES", "OBJECTIVE", "LINEAR", "QUADRATIC", "COMMENTS")]
    assert order == sorted(order)
    assert "minimize:" in text
    assert "x[h1][0] binary" in text
    assert "node_time[N1]:" in text
    assert "coverage fraction: 0.5" in text

    path = tmp_path / "model.txt"
    returned = export_miqp(worked, 0.5, path)
    assert path.read_text(encoding="utf-8") == text
    buffer = io.StringIO()
    export_miqp(worked, 0.5, buffer)
    assert buffer.getvalue() == text
    assert returned.alpha == 0.5


def test_every_feasible_schedule_checks_out_both_ways(worked):
    model = build_miqp(worked, 0.5)
    candidates = [
        Schedule(),
        Schedule((("h1", 1),)),
        Schedule((("h1", 1), ("h3", 2))),
        Schedule((("h1", 1), ("h2", 3))),
        Schedule((("h3", 4), ("h2", 4), ("h1", 1))),
    ]
    for schedule in candidates:
        a = schedule_assignment(model, schedule)
        ev = evaluate(schedule, worked, 0.5)
        original = check_assignment(model, a)
        linearized = check_linearized(model, a)
        assert original.objective == ev.objective
        assert linearized.objective == ev.objective
        # coverage is the only constraint a canonical encoding can violate
        expected = () if ev.feasible else ("coverage",)
        assert original.violations == expected
        assert linearized.violations == expected


def test_linearization_never_admits_an_invalid_assignment():
    # perturb canonical assignments arbitrarily: whenever the linearized
    # model accepts, the original nonlinear constraints must accept too
    # (the converse can fail benignly: the original form does not look at
    # the auxiliary linearization variables)
    rng = random.Random(83)
    for _ in range(10):
        d = random_dataset(rng, max_heuristics=3, max_nodes=5, max_breakpoints=3)
        model = build_miqp(d, 0.5)
        usable = [h for h in d.heuristics if breakpoints(d, h)]
        entries = tuple((h, breakpoints(d, h)[-1]) for h in usable[:2])
        base = schedule_assignment(model, Schedule(entries))
        names = [v.name for v in model.variables]
        for _ in range(30):
            assignment = dict(base)
            for _ in range(rng.randint(1, 3)):
                variable = model.variable(rng.choice(names))
                assignment[variable.name] = rng.randint(variable.lower, variable.upper)
            if check_linearized(model, assignment).feasible:
                assert check_assignment(model, assignment).feasible


def test_random_optima_certified_by_both_checkers():
    rng = random.Random(79)
    checked = 0
    while checked < 25:
        d = random_dataset(rng, max_heuristics=3, max_nodes=6)
        alpha = rng.choice([0.0, 0.5])
        result = solve_exact(d, alpha)
        if result is None:
            continue
        schedule, objective = result
        model = build_miqp(d, alpha)
        a = schedule_assignment(model, schedule)
        original = check_assignment(model, a)
        linearized = check_linearized(model, a)
        assert original.feasible and linearized.feasible
        assert original.objective == objective
        assert linearized.objective == objective
        checked += 1


# SHA-256 of the rendered model text, recorded from an earlier implementation
# of the model; any change to a byte of the export fails.
RENDER_DIGESTS = {
    "worked": "c542fb09ca37cebfebb622ac374740080891528ee212f1e891cf83af2d68b93f",
    0: "a775c510e24e9f96d3b04c8ac389f16158477b97064b523e18158d4948660e05",
    5: "4aadeaf702619bbed443c45c316cb8301e94d238d029086e61b7419155701b7b",
    30: "97c12ad9cc97daf5e421996ef93be11aead491ea2d633da8274e04ecf5b83101",
}


@pytest.mark.parametrize("case, alpha", [("worked", 0.5), (0, 0.85), (5, 0.5), (30, 0.3)])
def test_rendered_bytes_are_pinned(worked, case, alpha):
    d = worked if case == "worked" else random_dataset(random.Random(case))
    if case == 30:  # h2 never succeeds, so its rows are pinned by solve_never
        assert not d.tau_column("h2")
    text = build_miqp(d, alpha).render()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RENDER_DIGESTS[case]


def test_export_streams_chunks_that_join_to_the_rendering():
    def tau(i, j):
        return (i * (j + 1)) % 9 + 1 if (i + j) % 4 else None

    d = Dataset.from_observations(Observation(f"h{j}", f"N{i}", tau(i, j), 10)
                                  for j in range(12) for i in range(200))

    class CountingStream:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

    stream = CountingStream()
    model = export_miqp(d, 0.5, stream)
    text = model.render()
    assert len(stream.writes) > 1
    assert max(len(chunk) for chunk in stream.writes) < len(text) / 4  # no whole section
    assert "".join(stream.writes) == text


@st.composite
def datasets_with_schedules(draw):
    """A small random dataset and a schedule whose budgets fit each horizon."""
    d = random_dataset(draw(st.randoms(use_true_random=False)), max_heuristics=4, max_nodes=6)
    horizon = {h: max(d.tau_column(h).values(), default=0) for h in d.heuristics}
    order = draw(st.permutations([h for h in d.heuristics if horizon[h] > 0]))
    chosen = order[:draw(st.integers(0, len(order)))]
    return d, Schedule(tuple((h, draw(st.integers(1, horizon[h]))) for h in chosen))


@settings(max_examples=200)
@given(case=datasets_with_schedules(), alpha=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
def test_schedule_assignments_pass_both_checkers(case, alpha):
    d, schedule = case
    model = build_miqp(d, alpha)
    assignment = schedule_assignment(model, schedule)
    replay = evaluate(schedule, d, alpha)
    expected = () if replay.feasible else ("coverage",)
    for result in (check_assignment(model, assignment), check_linearized(model, assignment)):
        assert result.objective == replay.objective
        assert result.violations == expected


def test_built_model_rows_are_left_to_reference_counting(worked):
    # Exact tuples of strings and numbers drop out of the cyclic collector
    # once it has seen them; named tuples never do, and hundreds of thousands
    # of them made every collection rescan the whole model.  A full collection
    # reaches a row before the terms tuple it holds, so the terms drop out in
    # the first one and the rows holding them in the second.
    model = build_miqp(worked, 0.5)
    gc.collect()
    gc.collect()
    records = (*model.variables.rows, *model.linear, *model.quadratic)
    assert len(records) == len(model.variables) + len(model.linear) + len(model.quadratic)
    assert [r for r in records if gc.is_tracked(r)] == []
    assert model.variable("t[h1]").upper == model.horizon["h1"]


# _coerce_assignment as it was before exact ints took a fast path: kept as the
# reference that the fast path must match, violation order included.
def reference_coerce_assignment(model, assignment):
    violations = []
    values = {}
    for variable in model.variables:
        name = variable.name
        if name not in assignment:
            raise InputError(f"assignment is missing variable {name!r}")
        raw = assignment[name]
        if not math.isfinite(raw):
            raise InputError(f"value of {name} must be finite, got {raw!r}")
        rounded = round(raw)
        if abs(raw - rounded) > 1e-9:
            violations.append(f"integrality[{name}]")
            rounded = int(rounded)
        if not variable.lower <= rounded <= variable.upper:
            violations.append(f"domain[{name}]")
        values[name] = int(rounded)
    return values, violations


_MISSING = object()
_ODD_VALUES = (0, 1, 2, -1, 7, True, False, 1.0, 0.0, 0.5, -0.5, 2.0000000001, 10**20,
               float("nan"), _MISSING)


@settings(max_examples=200)
@given(case=datasets_with_schedules(),
       changes=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_ODD_VALUES)),
                        max_size=6))
def test_coercion_matches_the_reference(case, changes):
    d, schedule = case
    model = build_miqp(d, 0.5)
    assignment = schedule_assignment(model, schedule)
    names = [v.name for v in model.variables]
    for index, value in changes:
        name = names[index % len(names)]
        if value is _MISSING:
            assignment.pop(name, None)
        else:
            assignment[name] = value
    try:
        expected = reference_coerce_assignment(model, assignment)
    except InputError as exc:
        with pytest.raises(InputError) as excinfo:
            _coerce_assignment(model, assignment)
        assert str(excinfo.value) == str(exc)
        return
    values, violations = _coerce_assignment(model, assignment)
    assert (values, violations) == expected
    assert [type(v) for v in values.values()] == [int] * len(names)
