from __future__ import annotations

import bisect
import dataclasses
import gc
import hashlib
import io
import math
import os
import random
import tracemalloc
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heursched
import heursched.miqp_columns as miqp_columns
import heursched.workers as workers
from heursched import (CheckResult, Dataset, InputError, MiqpModel, Observation, Schedule,
                       breakpoints, build_miqp, check_assignment, check_linearized, evaluate,
                       export_miqp, schedule_assignment, solve_exact)
from heursched.miqp import _coerce_assignment
from heursched.miqp_columns import CHUNK_ROWS, part_bounds

from conftest import counted_forks, random_dataset


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


def test_two_heuristics_at_one_position_break_its_capacity(worked):
    model = build_miqp(worked, 0.5)
    assignment = schedule_assignment(model, Schedule((("h1", 1), ("h2", 3))))
    assignment.update({"x[h2][1]": 1, "x[h2][2]": 0, "p[h2]": 1})
    for checker, reference in ((check_assignment, reference_check_assignment),
                               (check_linearized, reference_check_linearized)):
        result = checker(model, assignment)
        assert "position_capacity[1]" in result.violations
        assert result == reference(model, assignment)


@pytest.mark.parametrize("make, message", [
    (lambda d: build_miqp(Dataset(d.heuristics, (), ()), 0.5),
     "cannot build a scheduling model without nodes"),
    (lambda d: build_miqp(d, 0.5).variable("x[h9][0]"), "model has no variable named 'x[h9][0]'"),
    (lambda d: build_miqp(d, float("nan")), "alpha must lie in [0, 1], got nan"),
    (lambda d: build_miqp(d, 2.0), "alpha must lie in [0, 1], got 2.0"),
    (lambda d: build_miqp(d, True), "alpha must lie in [0, 1], got True"),
], ids=["no nodes", "unknown variable", "alpha nan", "alpha 2.0", "alpha True"])
def test_miqp_rejections(worked, make, message):
    with pytest.raises(InputError) as excinfo:
        make(worked)
    assert str(excinfo.value) == message


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


def twelve_by_two_hundred():
    """12 heuristics by 200 nodes, a model of 45,449 linear rows."""
    def tau(i, j):
        return (i * (j + 1)) % 9 + 1 if (i + j) % 4 else None

    return Dataset.from_observations(Observation(f"h{j}", f"N{i}", tau(i, j), 10)
                                     for j in range(12) for i in range(200))


def test_export_streams_chunks_that_join_to_the_rendering():
    d = twelve_by_two_hundred()

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
    # 45,449 linear rows: many chunk boundaries, pinned from an earlier renderer
    assert (len(model.linear), len(text)) == (45449, 3851424)
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
            == "4763e17cb8460ea79ae5dda944adba63ce93571f1153732ab4f8b3cf69b28a5d")


def test_built_model_holds_under_200_bytes_per_row():
    # Rows stored column by column held about 163 bytes per linear row here on
    # CPython 3.11.  Rows made from the formulas when read hold none: the about
    # 34 bytes per linear row left are the variables' names and records; 60
    # leaves room for other versions' object sizes.
    d = twelve_by_two_hundred()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = build_miqp(d, 0.5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(model.linear)
    assert rows == 45449
    assert held / rows <= 60


def test_integers_above_2_53_render_exactly(tmp_path):
    # integers used to be rendered through float, so 2**53 + 1 came out as 2**53
    big = 2 ** 53
    d = Dataset.from_observations([Observation("h1", "N1", big, big),
                                   Observation("h1", "N2", 1, 1)])
    path = tmp_path / "model.miqp"
    export_miqp(d, 0.5, path)
    text = path.read_text(encoding="utf-8")
    assert "budget_link[h1]: 1 t[h1] + 9007199254740992 x[h1][0] <= 9007199254740992\n" in text
    assert "solve_ub[N1,h1]: 1 t[h1] - 9007199254740993 s[N1][h1] <= 9007199254740991\n" in text
    assert "tN[N1] integer in [1, 9007199254740993]\n" in text


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
    # every row opens with a positive linear term, so the renderer need not handle rows
    # without one
    for rows in (model.linear, model.quadratic):
        assert all(row[1] and row[1][0] > 0 for row in rows)


def test_model_storage_is_a_fixed_set_of_flat_lists():
    # Hundreds of thousands of row or variable containers made every garbage
    # collection rescan the whole model, and stored rows were most of its memory.
    # A model holds a fixed set of containers whatever its size: flat lists of
    # numbers and strings, a few shared variable records, and what its rows are
    # made from; no container per row, per variable or per node.
    def held(model):
        """Every object the model holds, apart from code, classes and modules."""
        seen, stack = {}, [model]
        while stack:
            obj = stack.pop()
            if id(obj) not in seen and not isinstance(obj, (type, types.ModuleType,
                                                            types.FunctionType,
                                                            types.BuiltinFunctionType)):
                seen[id(obj)] = obj
                stack += gc.get_referents(obj)
        return seen.values()

    def model(nodes):
        return build_miqp(Dataset.from_observations(
            Observation(f"h{j}", f"N{i}", (i + j) % 5 + 1 if (i + j) % 3 else None, 9)
            for j in range(5) for i in range(nodes)), 0.5)

    small, large = model(40), model(80)
    gc.collect()  # which untracks the tuples that hold only untracked items
    tracked = [[obj for obj in held(m) if gc.is_tracked(obj)] for m in (small, large)]
    # twice the nodes, the same tracked objects: every list item and record field is
    # an untracked number or string
    assert Counter(map(type, tracked[0])) == Counter(map(type, tracked[1]))
    for m, objects in zip((small, large), tracked):
        names, attributes = m.variables.names, m.variables.attributes
        # apart from the variables' names and records, far fewer items than rows
        items = sum(len(obj) for obj in objects if isinstance(obj, (list, tuple, dict))
                    and obj is not names and obj is not attributes)
        assert items < len(m.linear) / 8
        # each variable's (kind, lower, upper, family) is one of a few shared records:
        # one per family, with one per distinct horizon in place of t's
        records = {id(record): record for record in attributes}.values()
        assert len(records) <= 13 + len(m.heuristics)
        assert not any(gc.is_tracked(item) for column in (names, m.tau.taus, records)
                       for item in column)
    assert small.variable("t[h1]").upper == small.horizon["h1"]


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
                        max_size=6),
       budgets=st.lists(st.tuples(st.integers(0, 10**6), st.booleans(), st.integers(-2, 2)),
                        min_size=1, max_size=3))
def test_coercion_matches_the_reference(case, changes, budgets):
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
    # t's bounds are per heuristic: every example sets some t[h] near 0 or near its
    # horizon, below or above its domain at times
    for index, from_horizon, offset in budgets:
        t = model.variable(f"t[{d.heuristics[index % len(d.heuristics)]}]")
        assignment[t.name] = t.upper + offset if from_horizon else offset
    try:
        expected = reference_coerce_assignment(model, assignment)
    except InputError as exc:
        with pytest.raises(InputError) as excinfo:
            _coerce_assignment(model, assignment)
        assert str(excinfo.value) == str(exc)
        return
    values, violations = _coerce_assignment(model, assignment)
    assert (dict(zip(names, values)), violations) == expected
    assert [type(v) for v in values] == [int] * len(names)


# check_assignment and check_linearized as they were when rows held variable
# names and values sat in a dict keyed by name: kept as the reference the
# index-based checkers must match, violation order and objective included.
def _name1(family, index):
    return f"{family}[{index}]"


def _name2(family, first, second):
    return f"{family}[{first}][{second}]"


def reference_check_assignment(model, assignment):
    values, violations = reference_coerce_assignment(model, assignment)
    heuristics = model.heuristics
    nodes = model.nodes
    count = len(heuristics)

    for p in range(1, count + 1):
        if sum(values[_name2("x", h, p)] for h in heuristics) > 1:
            violations.append(f"position_capacity[{p}]")
    for h in heuristics:
        if sum(values[_name2("x", h, p)] for p in range(count + 1)) != 1:
            violations.append(f"placement[{h}]")
        if values[_name1("p", h)] != sum(p * values[_name2("x", h, p)] for p in range(count + 1)):
            violations.append(f"position_link[{h}]")
        if model.horizon[h] * (1 - values[_name2("x", h, 0)]) < values[_name1("t", h)]:
            violations.append(f"budget_link[{h}]")

    for n in nodes:
        for h in heuristics:
            t_req = model.tau[(n, h)]
            expected = 0 if t_req is None else max(0, min(1, values[_name1("t", h)] - t_req + 1))
            if values[_name2("s", n, h)] != expected:
                violations.append(f"solve_indicator[{n},{h}]")

    for n in nodes:
        if values[_name1("sN", n)] != min(1, sum(values[_name2("s", n, h)] for h in heuristics)):
            violations.append(f"node_solved[{n}]")

    coverage = sum(values[_name1("sN", n)] for n in nodes) / len(nodes)
    if coverage < model.alpha:
        violations.append("coverage")

    for n in nodes:
        first = min(values[_name1("p", h)] * values[_name2("s", n, h)]
                    + (1 - values[_name2("s", n, h)]) * count
                    for h in heuristics)
        if values[_name1("pmin", n)] != first:
            violations.append(f"first_position[{n}]")
        for h in heuristics:
            position, first_position = values[_name1("p", h)], values[_name1("pmin", n)]
            if values[_name2("z", n, h)] != (1 if position < first_position else 0):
                violations.append(f"before_first[{n},{h}]")
            if values[_name2("f", n, h)] != (1 if position == first_position else 0):
                violations.append(f"first_solver[{n},{h}]")

    for n in nodes:
        if values[_name1("sN", n)] == 1:
            expected = sum(values[_name2("z", n, h)] * values[_name1("t", h)] for h in heuristics)
            solver_time = math.inf
            for h in heuristics:
                if values[_name2("f", n, h)] == 1:
                    t_req = model.tau[(n, h)]
                    solver_time = t_req if t_req is not None else math.inf
            expected = expected + solver_time
        else:
            expected = 1 + sum(values[_name2("x", h, p)] * values[_name1("t", h)]
                               for h in heuristics for p in range(count + 1))
        if values[_name1("tN", n)] != expected:
            violations.append(f"node_time[{n}]")

    objective = sum(values[_name1("tN", n)] for n in nodes)
    return CheckResult(not violations, objective, tuple(violations))


def reference_check_linearized(model, assignment):
    values, violations = reference_coerce_assignment(model, assignment)

    def holds(lhs, op, rhs):
        if op == "<=":
            return lhs <= rhs + 1e-9
        if op == ">=":
            return lhs >= rhs - 1e-9
        return abs(lhs - rhs) <= 1e-9

    def dot(terms):
        total = 0
        items = iter(terms)
        for coef, name in zip(items, items):
            total += coef * values[name]
        return total

    for cid, terms, op, rhs in model.linear:
        if not holds(dot(terms), op, rhs):
            violations.append(cid)
    for cid, lin_terms, quad_terms, op, rhs in model.quadratic:
        items = iter(quad_terms)
        product = sum(coef * values[a] * values[b] for coef, a, b in zip(items, items, items))
        if not holds(dot(lin_terms) + product, op, rhs):
            violations.append(cid)
    return CheckResult(not violations, dot(model.objective), tuple(violations))


@settings(max_examples=150, derandomize=True)
@given(case=datasets_with_schedules(), alpha=st.sampled_from((0.0, 0.5, 0.85, 1.0)),
       changes=st.lists(st.tuples(st.integers(0, 10**6),
                                  st.one_of(st.integers(-1, 9),
                                            st.sampled_from((0.5, 1.0, 2.0000000001)))),
                        max_size=6))
def test_index_checkers_match_the_name_keyed_reference(case, alpha, changes):
    d, schedule = case
    model = build_miqp(d, alpha)
    assignment = schedule_assignment(model, schedule)
    names = [v.name for v in model.variables]
    for index, value in changes:
        assignment[names[index % len(names)]] = value
    for checker, reference in ((check_assignment, reference_check_assignment),
                               (check_linearized, reference_check_linearized)):
        result, expected = checker(model, assignment), reference(model, assignment)
        assert result.violations == expected.violations
        assert result.feasible == expected.feasible
        assert repr(result.objective) == repr(expected.objective)


def model_fields(model):
    return {field.name: getattr(model, field.name) for field in dataclasses.fields(model)}


def test_rows_read_back_with_names(worked):
    model = build_miqp(worked, 0.5)
    assert model.linear[0] == ("position_capacity[1]", (1, "x[h1][1]", 1, "x[h2][1]", 1, "x[h3][1]"),
                               "<=", 1)
    assert model.linear[-1] == model.linear[len(model.linear) - 1] == model.linear[-2:][1]
    assert model.quadratic[0][:2] == ("node_time[N1]", (1, "tN[N1]", 1, "sN[N1]", -1, "t[h1]",
                                                        -1, "v[N1][h1]", -1, "t[h2]",
                                                        -4, "v[N1][h2]", -1, "t[h3]"))
    assert model.quadratic[0][2][:6] == (-1, "u[N1][h1]", "t[h1]", 1, "sN[N1]", "t[h1]")
    assert tuple(model.objective) == (1.0, "tN[N1]", 1.0, "tN[N2]", 1.0, "tN[N3]")
    # models compare by what they read back: another build of the same input is equal
    assert build_miqp(worked, 0.5) == model != build_miqp(worked, 0.4)
    assert model.tau == {(n, h): worked.iterations_to_solution(h, n)
                         for n in worked.nodes for h in worked.heuristics}
    with pytest.raises(KeyError):
        model.tau[("N9", "h1")]


def test_rows_across_chunk_boundaries():
    # rows are made in segments of about CHUNK_ROWS rows, cut to the rows read
    d = Dataset.from_observations(Observation(f"h{j}", f"N{i}", (i + j) % 4 + 1, 9)
                                  for j in range(3) for i in range(12))
    model = build_miqp(d, 0.0)
    rows = list(model.linear)
    assert len(rows) > 2 * CHUNK_ROWS
    for k in (255, 256, 257, -1):
        assert model.linear[k] == rows[k]
    # a variable whose rows lie in the second and third chunks, flipped
    assignment = schedule_assignment(model, Schedule((("h0", 1), ("h1", 2))))
    assert check_linearized(model, assignment).violations == ()
    assert [k for k, row in enumerate(rows) if "z[N11][h0]" in row[1]] == [490, 491, 494, 704, 705]
    assignment["z[N11][h0]"] = 1 - assignment["z[N11][h0]"]
    result = check_linearized(model, assignment)
    assert result.violations == ("before_first_ub[N11,h0]", "first_solver_def[N11,h0]",
                                 "solved_and_before_ub2[N11,h0]")
    assert result == reference_check_linearized(model, assignment)


def three_by_thirty():
    """3 heuristics by 30 nodes: 1,765 linear rows."""
    return Dataset.from_observations(Observation(f"h{j}", f"N{i}", (i + 2 * j) % 5 or None, 9)
                                     for j in range(3) for i in range(30))


def test_export_text_does_not_depend_on_the_part_count(tmp_path, monkeypatch):
    # a range of CHUNK_ROWS rows is enough to split: 3 parts of 588, 588 and 589 rows
    monkeypatch.setattr(miqp_columns, "PART_ROWS", CHUNK_ROWS)
    d = three_by_thirty()
    forks = counted_forks(monkeypatch)
    texts = []
    for count in (1, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)
        path, stream = tmp_path / f"model{count}.miqp", io.StringIO()
        model = export_miqp(d, 0.5, path)
        export_miqp(d, 0.5, stream)
        assert path.read_bytes() == stream.getvalue().encode("utf-8")
        texts.append(stream.getvalue())
        assert part_bounds(model.linear) == ([0, 1765] if count == 1 else [0, 588, 1176, 1765])
        assert len(forks) == (0 if count == 1 else 4)  # two workers per export
    assert len(model.linear) == 1765
    assert texts[0] == texts[1] == model.render()


def test_linearized_check_lists_ids_in_row_order_whatever_the_part_count(monkeypatch):
    monkeypatch.setattr(miqp_columns, "PART_ROWS", CHUNK_ROWS)
    d = three_by_thirty()
    model = build_miqp(d, 0.5)
    assignment = schedule_assignment(model, Schedule((("h1", 2), ("h2", 4))))
    for name in ("s[N5][h1]", "z[N14][h1]", "z[N27][h2]", "u[N28][h2]"):
        assignment[name] = 1 - assignment[name]
    results = []
    for count in (1, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)
        results.append(check_linearized(model, assignment))
    bounds = part_bounds(model.linear)
    assert len(bounds) == 4
    assert results[0] == results[1] == reference_check_linearized(model, assignment)
    rows = {row[0]: k for k, row in enumerate(model.linear)}
    found = [rows[cid] for cid in results[0].violations if cid in rows]
    assert found == sorted(found)
    # violated rows in each of the 3 ranges, and a quadratic one
    assert {bisect.bisect_right(bounds, k) - 1 for k in found} == {0, 1, 2}
    assert results[0].violations[-1] == "node_time[N28]"


def test_models_below_the_split_threshold_never_fork(tmp_path, monkeypatch, worked):
    def refuse():
        raise AssertionError("forked for a model below the split threshold")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(workers, "_worker_count", lambda: 3)
    for small in (worked, three_by_thirty()):
        model = export_miqp(small, 0.5, tmp_path / "model.miqp")
        assert part_bounds(model.linear) == [0, len(model.linear)]
        export_miqp(small, 0.5, io.StringIO())
        check_linearized(model, schedule_assignment(model, Schedule((("h1", 1),))))


def test_models_come_only_from_build_miqp(worked):
    # The checkers read values by their place in build_miqp's variable order, so
    # a model given by hand, or a built one with other fields, would be misread.
    model = build_miqp(worked, 0.5)
    for make in (lambda: MiqpModel(**model_fields(model)),
                 lambda: dataclasses.replace(model, alpha=0.4),
                 lambda: dataclasses.replace(model, nodes=model.nodes[:-1])):
        with pytest.raises(InputError, match="build_miqp"):
            make()


def test_public_names_are_unchanged():
    assert heursched.__all__ == [
        "Dataset", "IterationCostProfile", "Observation", "avg_iteration_cost",
        "breakpoints", "dump_dataset", "load_dataset",
        "InputError",
        "ExactLimits", "candidate_count", "solve_exact",
        "GreedyOptions", "GreedyStep", "GreedyTrace", "best_action", "build_schedule",
        "GapFunction", "IncumbentTimeline", "dump_timeline", "gap_function",
        "load_timeline", "primal_gap", "primal_integral",
        "CheckResult", "MiqpModel", "build_miqp", "check_assignment",
        "check_linearized", "export_miqp", "schedule_assignment",
        "NodeOutcome", "Schedule", "ScheduleEvaluation", "dump_schedule",
        "evaluate", "load_schedule", "node_cost",
        "HeuristicSpec", "LatentOutcome", "PolicyComparison", "RunTrace",
        "SimConfig", "SimInstance", "collect_shadow_dataset", "compare_policies",
        "default_baseline", "generate_instance", "load_sim_config", "run_with_schedule",
        "__version__",
    ]
