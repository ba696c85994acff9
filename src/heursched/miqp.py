"""Mixed-integer quadratic model of the scheduling problem.

The model decides, for every heuristic, whether it is in the schedule, at
which position, and with which iteration budget; per-node indicator
variables then express which heuristic solves each node first and how
many iterations the schedule spends there.  The objective minimizes the
total iterations over all nodes, with one penalty unit per unsolved node,
subject to a minimum fraction of solved nodes.

There is no embedded solver.  The module exists so that the model can be
exported as a self-contained line-oriented text program for external
solvers, and so that candidate assignments can be validated two
independent ways:

* ``check_assignment`` re-evaluates every constraint in its original
  nonlinear form (min/max/indicator expressions evaluated directly);
* ``check_linearized`` substitutes into the exported big-M linearization.

Variable families (position ``0`` means "not in the schedule"):

==============  ======================================================
``x[h][p]``     binary, heuristic ``h`` sits at position ``p``
``t[h]``        integer budget granted to ``h`` (0 if not scheduled)
``p[h]``        integer position of ``h``
``s[n][h]``     binary, ``h``'s budget covers node ``n``
``sN[n]``       binary, some scheduled heuristic covers ``n``
``pmin[n]``     integer position of the first covering heuristic
                (the heuristic count when ``n`` is unsolved)
``z[n][h]``     binary, ``h`` sits strictly before position ``pmin[n]``
``f[n][h]``     binary, ``h`` sits exactly at position ``pmin[n]``
``tN[n]``       integer iterations the schedule spends at ``n``
==============  ======================================================

Auxiliary families introduced by the linearization: ``m[n][h]`` (the
per-heuristic term inside the position minimum), ``y[n][h]`` (argmin
selector), ``w[n][h]`` (``h`` sits strictly after ``pmin[n]``),
``u[n][h]`` = ``sN[n] AND z[n][h]``, ``v[n][h]`` = ``sN[n] AND f[n][h]``.

Costs are raw iterations; they agree with normalized schedule evaluation
only when every heuristic's average seconds per iteration is 1.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import Dataset
from .errors import InputError, require_finite
from .schedule import Schedule

_INTEGRALITY_TOL = 1e-9
_NUMERIC_TOL = 1e-9


@dataclass(frozen=True)
class MiqpVariable:
    name: str
    kind: str  # "binary" | "integer"
    lower: int
    upper: int
    family: str


@dataclass(frozen=True)
class LinearConstraint:
    cid: str
    terms: tuple[tuple[float, str], ...]
    op: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class QuadraticConstraint:
    cid: str
    linear: tuple[tuple[float, str], ...]
    quadratic: tuple[tuple[float, str, str], ...]
    op: str
    rhs: float


@dataclass(frozen=True)
class CheckResult:
    feasible: bool
    objective: float
    violations: tuple[str, ...]


@dataclass(frozen=True)
class MiqpModel:
    """Built model plus the data needed to audit assignments against it."""

    heuristics: tuple[str, ...]
    nodes: tuple[str, ...]
    alpha: float
    tau: dict
    horizon: dict
    variables: tuple[MiqpVariable, ...]
    objective: tuple[tuple[float, str], ...]
    linear: tuple[LinearConstraint, ...]
    quadratic: tuple[QuadraticConstraint, ...]
    _by_name: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_name", {v.name: v for v in self.variables})

    def variable(self, name: str) -> MiqpVariable:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"model has no variable named {name!r}") from None

    def family_size(self, family: str) -> int:
        return sum(1 for v in self.variables if v.family == family)

    def render(self) -> str:
        return _render(self)


# Model variable names.  Exporting a large dataset builds about a million of
# them, and an f-string is several times faster than str.format or str.join.
def _name1(family: str, index) -> str:
    return f"{family}[{index}]"


def _name2(family: str, first, second) -> str:
    return f"{family}[{first}][{second}]"


def _check_model_identifier(value: str, what: str) -> None:
    if "[" in value or "]" in value or any(c.isspace() for c in value):
        raise InputError(f"{what} identifier {value!r} cannot be used in model variable "
                         "names: brackets and whitespace are reserved")


def build_miqp(d: Dataset, alpha: float) -> MiqpModel:
    """Construct the model for a dataset and coverage fraction."""
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha!r}")
    if not d.heuristics:
        raise InputError("cannot build a scheduling model without heuristics")
    if not d.nodes:
        raise InputError("cannot build a scheduling model without nodes")
    for h in d.heuristics:
        _check_model_identifier(h, "heuristic")
    for n in d.nodes:
        _check_model_identifier(n, "node")

    heuristics = d.heuristics
    nodes = d.nodes
    count = len(heuristics)
    columns = {h: d.tau_column(h) for h in heuristics}
    tau = {(n, h): columns[h].get(n) for n in nodes for h in heuristics}
    horizon = {h: max(columns[h].values(), default=0) for h in heuristics}
    total_horizon = sum(horizon.values())

    variables: list[MiqpVariable] = []
    for h in heuristics:
        for p in range(count + 1):
            variables.append(MiqpVariable(_name2("x", h, p), "binary", 0, 1, "x"))
    for h in heuristics:
        variables.append(MiqpVariable(_name1("t", h), "integer", 0, horizon[h], "t"))
    for h in heuristics:
        variables.append(MiqpVariable(_name1("p", h), "integer", 0, count, "p"))
    for n in nodes:
        for h in heuristics:
            variables.append(MiqpVariable(_name2("s", n, h), "binary", 0, 1, "s"))
    for n in nodes:
        variables.append(MiqpVariable(_name1("sN", n), "binary", 0, 1, "s_node"))
    for n in nodes:
        variables.append(MiqpVariable(_name1("pmin", n), "integer", 1, count, "p_min"))
    for n in nodes:
        for h in heuristics:
            variables.append(MiqpVariable(_name2("z", n, h), "binary", 0, 1, "z"))
    for n in nodes:
        for h in heuristics:
            variables.append(MiqpVariable(_name2("f", n, h), "binary", 0, 1, "f"))
    for n in nodes:
        variables.append(MiqpVariable(_name1("tN", n), "integer", 1, 1 + total_horizon, "t_node"))
    for n in nodes:
        for h in heuristics:
            variables.append(MiqpVariable(_name2("m", n, h), "integer", 1, count, "aux_min_term"))
            variables.append(MiqpVariable(_name2("y", n, h), "binary", 0, 1, "aux_argmin"))
            variables.append(MiqpVariable(_name2("w", n, h), "binary", 0, 1, "aux_after_first"))
            variables.append(MiqpVariable(_name2("u", n, h), "binary", 0, 1,
                                          "aux_solved_and_before"))
            variables.append(MiqpVariable(_name2("v", n, h), "binary", 0, 1,
                                          "aux_solved_and_first"))

    linear: list[LinearConstraint] = []

    # each position holds at most one heuristic; each heuristic gets one position
    for p in range(1, count + 1):
        linear.append(LinearConstraint(
            f"position_capacity[{p}]",
            tuple((1, _name2("x", h, p)) for h in heuristics), "<=", 1))
    for h in heuristics:
        linear.append(LinearConstraint(
            f"placement[{h}]",
            tuple((1, _name2("x", h, p)) for p in range(count + 1)), "=", 1))
        linear.append(LinearConstraint(
            f"position_link[{h}]",
            ((1, _name1("p", h)),) + tuple((-p, _name2("x", h, p)) for p in range(1, count + 1)),
            "=", 0))
        # a heuristic outside the schedule gets budget zero
        linear.append(LinearConstraint(
            f"budget_link[{h}]",
            ((1, _name1("t", h)), (horizon[h], _name2("x", h, 0))), "<=", horizon[h]))

    # budget-coverage indicator per (node, heuristic); M = horizon + 1
    for n in nodes:
        for h in heuristics:
            t_req = tau[(n, h)]
            if t_req is None:
                linear.append(LinearConstraint(
                    f"solve_never[{n},{h}]", ((1, _name2("s", n, h)),), "=", 0))
            else:
                linear.append(LinearConstraint(
                    f"solve_lb[{n},{h}]",
                    ((1, _name1("t", h)), (-t_req, _name2("s", n, h))), ">=", 0))
                linear.append(LinearConstraint(
                    f"solve_ub[{n},{h}]",
                    ((1, _name1("t", h)), (-(horizon[h] + 1), _name2("s", n, h))), "<=", t_req - 1))

    # a node is solved exactly when some heuristic covers it
    for n in nodes:
        linear.append(LinearConstraint(
            f"node_solved_ub[{n}]",
            ((1, _name1("sN", n)),) + tuple((-1, _name2("s", n, h)) for h in heuristics), "<=", 0))
        for h in heuristics:
            linear.append(LinearConstraint(
                f"node_solved_lb[{n},{h}]",
                ((1, _name1("sN", n)), (-1, _name2("s", n, h))), ">=", 0))

    linear.append(LinearConstraint(
        "coverage",
        tuple((1, _name1("sN", n)) for n in nodes), ">=", alpha * len(nodes)))

    # position of the first covering heuristic: pmin = min over h of
    # (position if h covers the node else the heuristic count)
    for n in nodes:
        pmin = _name1("pmin", n)
        for h in heuristics:
            m, s, p = _name2("m", n, h), _name2("s", n, h), _name1("p", h)
            linear.append(LinearConstraint(
                f"min_term_cover_lb[{n},{h}]", ((1, m), (-1, p), (-count, s)), ">=", -count))
            linear.append(LinearConstraint(
                f"min_term_cover_ub[{n},{h}]", ((1, m), (-1, p), (count, s)), "<=", count))
            linear.append(LinearConstraint(
                f"min_term_miss_lb[{n},{h}]", ((1, m), (count, s)), ">=", count))
            linear.append(LinearConstraint(
                f"first_position_ub[{n},{h}]", ((1, pmin), (-1, m)), "<=", 0))
            linear.append(LinearConstraint(
                f"first_position_lb[{n},{h}]",
                ((1, pmin), (-1, m), (-count, _name2("y", n, h))), ">=", -count))
        linear.append(LinearConstraint(
            f"first_position_pick[{n}]",
            tuple((1, _name2("y", n, h)) for h in heuristics), "=", 1))

    # strict order indicators around pmin: z before, w after, f exactly at
    for n in nodes:
        pmin = _name1("pmin", n)
        for h in heuristics:
            p, z, w = _name1("p", h), _name2("z", n, h), _name2("w", n, h)
            linear.append(LinearConstraint(
                f"before_first_ub[{n},{h}]", ((1, pmin), (-1, p), (-count, z)), "<=", 0))
            linear.append(LinearConstraint(
                f"before_first_lb[{n},{h}]", ((1, pmin), (-1, p), (-count, z)), ">=", 1 - count))
            linear.append(LinearConstraint(
                f"after_first_ub[{n},{h}]", ((1, p), (-1, pmin), (-count, w)), "<=", 0))
            linear.append(LinearConstraint(
                f"after_first_lb[{n},{h}]", ((1, p), (-1, pmin), (-(count + 1), w)), ">=", -count))
            linear.append(LinearConstraint(
                f"first_solver_def[{n},{h}]", ((1, z), (1, w), (1, _name2("f", n, h))), "=", 1))

    # products with the node-solved flag, used by the node-time constraint
    for n in nodes:
        for h in heuristics:
            for aux, other, tag in ((_name2("u", n, h), _name2("z", n, h), "solved_and_before"),
                                    (_name2("v", n, h), _name2("f", n, h), "solved_and_first")):
                linear.append(LinearConstraint(
                    f"{tag}_ub1[{n},{h}]", ((1, aux), (-1, _name1("sN", n))), "<=", 0))
                linear.append(LinearConstraint(
                    f"{tag}_ub2[{n},{h}]", ((1, aux), (-1, other)), "<=", 0))
                linear.append(LinearConstraint(
                    f"{tag}_lb[{n},{h}]",
                    ((1, aux), (-1, _name1("sN", n)), (-1, other)), ">=", -1))

    quadratic: list[QuadraticConstraint] = []
    for n in nodes:
        lin_terms: list[tuple[float, str]] = [(1, _name1("tN", n)), (1, _name1("sN", n))]
        quad_terms: list[tuple[float, str, str]] = []
        for h in heuristics:
            lin_terms.append((-1, _name1("t", h)))
            t_req = tau[(n, h)]
            if t_req is not None:
                lin_terms.append((-t_req, _name2("v", n, h)))
            quad_terms.append((-1, _name2("u", n, h), _name1("t", h)))
            quad_terms.append((1, _name1("sN", n), _name1("t", h)))
        quadratic.append(QuadraticConstraint(
            f"node_time[{n}]", tuple(lin_terms), tuple(quad_terms), "=", 1))

    objective = tuple((1.0, _name1("tN", n)) for n in nodes)
    return MiqpModel(
        heuristics=heuristics,
        nodes=nodes,
        alpha=alpha,
        tau=tau,
        horizon=horizon,
        variables=tuple(variables),
        objective=objective,
        linear=tuple(linear),
        quadratic=tuple(quadratic),
    )


def export_miqp(d: Dataset, alpha: float, sink) -> MiqpModel:
    """Build the model and write its text rendering to ``sink``.

    ``sink`` may be a path or a writable text stream.
    """
    model = build_miqp(d, alpha)
    text = model.render()
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text, encoding="utf-8")
    return model


def _coerce_assignment(model: MiqpModel, assignment) -> tuple[dict, list[str]]:
    """Validate coverage, integrality and bounds; return integer values."""
    violations: list[str] = []
    values: dict[str, int] = {}
    for variable in model.variables:
        if variable.name not in assignment:
            raise InputError(f"assignment is missing variable {variable.name!r}")
        raw = assignment[variable.name]
        require_finite(raw, f"value of {variable.name}")
        rounded = round(raw)
        if abs(raw - rounded) > _INTEGRALITY_TOL:
            violations.append(f"integrality[{variable.name}]")
            rounded = int(rounded)
        if not variable.lower <= rounded <= variable.upper:
            violations.append(f"domain[{variable.name}]")
        values[variable.name] = int(rounded)
    return values, violations


def check_assignment(model: MiqpModel, assignment) -> CheckResult:
    """Audit an assignment against the original nonlinear constraints.

    Every constraint is re-evaluated in its min/max/indicator form rather
    than through the exported linearization, which makes this an
    independent feasibility check.  Returns the objective (total
    iterations over nodes) and the ids of violated constraints.
    """
    values, violations = _coerce_assignment(model, assignment)
    heuristics = model.heuristics
    nodes = model.nodes
    count = len(heuristics)

    def val(name: str) -> int:
        return values[name]

    for p in range(1, count + 1):
        if sum(val(_name2("x", h, p)) for h in heuristics) > 1:
            violations.append(f"position_capacity[{p}]")
    for h in heuristics:
        if sum(val(_name2("x", h, p)) for p in range(count + 1)) != 1:
            violations.append(f"placement[{h}]")
        if val(_name1("p", h)) != sum(p * val(_name2("x", h, p)) for p in range(count + 1)):
            violations.append(f"position_link[{h}]")
        if model.horizon[h] * (1 - val(_name2("x", h, 0))) < val(_name1("t", h)):
            violations.append(f"budget_link[{h}]")

    for n in nodes:
        for h in heuristics:
            t_req = model.tau[(n, h)]
            if t_req is None:
                expected = 0
            else:
                expected = max(0, min(1, val(_name1("t", h)) - t_req + 1))
            if val(_name2("s", n, h)) != expected:
                violations.append(f"solve_indicator[{n},{h}]")

    for n in nodes:
        if val(_name1("sN", n)) != min(1, sum(val(_name2("s", n, h)) for h in heuristics)):
            violations.append(f"node_solved[{n}]")

    coverage = sum(val(_name1("sN", n)) for n in nodes) / len(nodes)
    if coverage < model.alpha:
        violations.append("coverage")

    for n in nodes:
        first = min(val(_name1("p", h)) * val(_name2("s", n, h))
                    + (1 - val(_name2("s", n, h))) * count
                    for h in heuristics)
        if val(_name1("pmin", n)) != first:
            violations.append(f"first_position[{n}]")
        for h in heuristics:
            position, first_position = val(_name1("p", h)), val(_name1("pmin", n))
            if val(_name2("z", n, h)) != (1 if position < first_position else 0):
                violations.append(f"before_first[{n},{h}]")
            if val(_name2("f", n, h)) != (1 if position == first_position else 0):
                violations.append(f"first_solver[{n},{h}]")

    for n in nodes:
        if val(_name1("sN", n)) == 1:
            expected = sum(val(_name2("z", n, h)) * val(_name1("t", h)) for h in heuristics)
            solver_time = math.inf
            for h in heuristics:
                if val(_name2("f", n, h)) == 1:
                    t_req = model.tau[(n, h)]
                    solver_time = t_req if t_req is not None else math.inf
            expected = expected + solver_time
        else:
            expected = 1 + sum(val(_name2("x", h, p)) * val(_name1("t", h))
                               for h in heuristics for p in range(count + 1))
        if val(_name1("tN", n)) != expected:
            violations.append(f"node_time[{n}]")

    objective = sum(val(_name1("tN", n)) for n in nodes)
    return CheckResult(not violations, objective, tuple(violations))


def check_linearized(model: MiqpModel, assignment) -> CheckResult:
    """Audit an assignment against the exported linearized constraints."""
    values, violations = _coerce_assignment(model, assignment)

    def holds(lhs: float, op: str, rhs: float) -> bool:
        if op == "<=":
            return lhs <= rhs + _NUMERIC_TOL
        if op == ">=":
            return lhs >= rhs - _NUMERIC_TOL
        return abs(lhs - rhs) <= _NUMERIC_TOL

    for constraint in model.linear:
        lhs = sum(coef * values[name] for coef, name in constraint.terms)
        if not holds(lhs, constraint.op, constraint.rhs):
            violations.append(constraint.cid)
    for constraint in model.quadratic:
        lhs = sum(coef * values[name] for coef, name in constraint.linear)
        lhs += sum(coef * values[a] * values[b] for coef, a, b in constraint.quadratic)
        if not holds(lhs, constraint.op, constraint.rhs):
            violations.append(constraint.cid)

    objective = sum(coef * values[name] for coef, name in model.objective)
    return CheckResult(not violations, objective, tuple(violations))


def schedule_assignment(model: MiqpModel, schedule: Schedule) -> dict:
    """Canonical integer assignment encoding a schedule.

    Scheduled heuristics occupy positions 1..k in order; everything else
    sits at position 0 with budget 0.  Budgets above a heuristic's
    iteration horizon cannot be represented and are rejected.
    """
    heuristics = model.heuristics
    nodes = model.nodes
    count = len(heuristics)
    position = {h: 0 for h in heuristics}
    budget = {h: 0 for h in heuristics}
    for index, (heuristic, entry_budget) in enumerate(schedule.entries, start=1):
        if heuristic not in position:
            raise InputError(f"schedule heuristic {heuristic!r} is not part of the model")
        if entry_budget > model.horizon[heuristic]:
            raise InputError(
                f"budget {entry_budget} for {heuristic!r} exceeds the model's iteration "
                f"horizon {model.horizon[heuristic]}")
        position[heuristic] = index
        budget[heuristic] = entry_budget

    values: dict[str, int] = {}
    for h in heuristics:
        for p in range(count + 1):
            values[_name2("x", h, p)] = 1 if position[h] == p else 0
        values[_name1("t", h)] = budget[h]
        values[_name1("p", h)] = position[h]

    for n in nodes:
        covered = {}
        for h in heuristics:
            t_req = model.tau[(n, h)]
            covered[h] = 1 if (t_req is not None and budget[h] >= t_req) else 0
            values[_name2("s", n, h)] = covered[h]
        solved = 1 if any(covered.values()) else 0
        values[_name1("sN", n)] = solved
        first = min(position[h] if covered[h] else count for h in heuristics)
        values[_name1("pmin", n)] = first
        argmin_done = False
        for h in heuristics:
            term = position[h] if covered[h] else count
            pick = 1 if (term == first and not argmin_done) else 0
            if pick:
                argmin_done = True
            values[_name2("y", n, h)] = pick
            values[_name2("m", n, h)] = term
            values[_name2("z", n, h)] = 1 if position[h] < first else 0
            values[_name2("f", n, h)] = 1 if position[h] == first else 0
            values[_name2("w", n, h)] = 1 if position[h] > first else 0
            values[_name2("u", n, h)] = solved * values[_name2("z", n, h)]
            values[_name2("v", n, h)] = solved * values[_name2("f", n, h)]
        if solved:
            spent = sum(values[_name2("z", n, h)] * budget[h] for h in heuristics)
            solver = next(h for h in heuristics if covered[h] and position[h] == first)
            spent += model.tau[(n, solver)]
        else:
            spent = 1 + sum(budget[h] for h in heuristics)
        values[_name1("tN", n)] = spent
    return values


def _num(x: float) -> str:
    value = float(x)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _term_text(terms) -> str:
    parts: list[str] = []
    for term in terms:
        if len(term) == 2:
            coef, name = term
            body = f"{_num(abs(coef))} {name}"
        else:
            coef, a, b = term
            body = f"{_num(abs(coef))} {a}*{b}"
        if not parts:
            parts.append(body if coef >= 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if coef >= 0 else f"- {body}")
    return " ".join(parts)


def _render(model: MiqpModel) -> str:
    out = io.StringIO()
    write = out.write
    write("# minimum-cost heuristic scheduling model (mixed-integer, quadratic)\n")
    write("# sections: VARIABLES, OBJECTIVE, LINEAR, QUADRATIC, COMMENTS\n")
    write("VARIABLES\n")
    for v in model.variables:
        write(f"{v.name} {v.kind} in [{v.lower}, {v.upper}]\n")
    write("OBJECTIVE\n")
    write(f"minimize: {_term_text(model.objective)}\n")
    write("LINEAR\n")
    for c in model.linear:
        write(f"{c.cid}: {_term_text(c.terms)} {c.op} {_num(c.rhs)}\n")
    write("QUADRATIC\n")
    for c in model.quadratic:
        terms = _term_text(tuple(c.linear) + tuple(c.quadratic))
        write(f"{c.cid}: {terms} {c.op} {_num(c.rhs)}\n")
    write("COMMENTS\n")
    count = len(model.heuristics)
    write(f"heuristics: {count}; nodes: {len(model.nodes)}; "
          f"required coverage fraction: {_num(model.alpha)}\n")
    write("objective counts iterations spent per node, plus one penalty unit per"
          " unsolved node\n")
    write("units are raw iterations; comparable to seconds-normalized schedule"
          " costs only when every heuristic averages 1 second per iteration\n")
    write("x[h][p]=1 places heuristic h at position p (p=0: not scheduled);"
          " t[h] is its iteration budget; p[h] its position\n")
    write("s[n][h]=1 when t[h] reaches the iterations h needs at node n;"
          " sN[n]=1 when any heuristic does; pmin[n] is the position of the"
          " first one (the heuristic count if none)\n")
    write("linearizations used:\n")
    write("  budget-coverage indicator s[n][h]: big-M pair with M = horizon(h)+1"
          " (solve_lb/solve_ub); pairs the heuristic never solves are pinned to 0"
          " (solve_never)\n")
    write("  node-solved flag sN[n]: upper bound by the sum of s[n][h], lower"
          " bound by each (node_solved_ub/node_solved_lb)\n")
    write(f"  position minimum pmin[n]: per-heuristic terms m[n][h] equal p[h]"
          f" when s[n][h]=1 else {count}, linearized with M = {count}"
          " (min_term_*); pmin bounded above by every m and matched from below"
          " through the argmin selector y[n][h] (first_position_*)\n")
    write(f"  order indicators: z[n][h] (strictly before pmin) and w[n][h]"
          f" (strictly after) via big-M inequalities with M = {count} and"
          f" M = {count + 1}; f[n][h] closes the trichotomy z+w+f = 1"
          " (before_first_*/after_first_*/first_solver_def)\n")
    write("  products with the node-solved flag: u[n][h] = sN[n] AND z[n][h],"
          " v[n][h] = sN[n] AND f[n][h], standard three-inequality AND"
          " encodings\n")
    write("  node time tN[n]: quadratic equality; solved nodes pay the budgets"
          " of heuristics before pmin plus the solver's actual iterations"
          " (through u and v), unsolved nodes pay the whole schedule plus 1\n")
    write(f"node-time domain upper bound: 1 + total horizon ="
          f" {1 + sum(model.horizon.values())}\n")
    return out.getvalue()
