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

A few hundred nodes make hundreds of thousands of rows, so every row is a
plain tuple of strings and numbers, which the cyclic garbage collector
stops tracking: a linear row is ``(id, terms, operator, right-hand side)``,
a quadratic row ``(id, linear terms, quadratic terms, operator, right-hand
side)`` and a variable ``(name, kind, lower, upper, family)``.
``MiqpModel.variables`` holds the variable rows and hands out each as a
``MiqpVariable`` named tuple on access.  Terms are one flat tuple per row:
``(c1, name1, c2, name2, ...)`` for linear terms and the objective, ``(c1,
a1, b1, ...)`` for quadratic terms ``c * a * b``.  Every row using a
variable shares its one name string.  ``export_miqp`` streams the text into
its sink in chunks; ``MiqpModel.render`` joins them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, islice
from typing import NamedTuple

from .dataset import Dataset
from .errors import InputError, require_finite
from .schedule import Schedule

_INTEGRALITY_TOL = 1e-9
_NUMERIC_TOL = 1e-9
_CHUNK_ROWS = 256


class MiqpVariable(NamedTuple):
    name: str
    kind: str  # "binary" | "integer"
    lower: int
    upper: int
    family: str


class _VariableRows(Sequence):
    """Read-only sequence of plain variable rows, each read as a ``MiqpVariable``."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        self.rows = tuple(map(tuple, rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(MiqpVariable._make, self.rows[index]))
        return MiqpVariable._make(self.rows[index])

    def __iter__(self):
        return map(MiqpVariable._make, self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, _VariableRows) and self.rows == other.rows


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
    variables: Sequence[MiqpVariable]
    objective: tuple  # flat: coef, name, ...
    linear: tuple
    quadratic: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", _VariableRows(self.variables))

    @cached_property
    def _by_name(self) -> dict:
        return {row[0]: row for row in self.variables.rows}

    def variable(self, name: str) -> MiqpVariable:
        try:
            return MiqpVariable._make(self._by_name[name])
        except KeyError:
            raise InputError(f"model has no variable named {name!r}") from None

    def family_size(self, family: str) -> int:
        return sum(1 for row in self.variables.rows if row[4] == family)

    def render(self) -> str:
        return "".join(_chunks(self))


# Model variable names.  Exporting a large dataset builds about a million of
# them, and an f-string is several times faster than str.format or str.join.
def _name1(family: str, index) -> str:
    return f"{family}[{index}]"


def _name2(family: str, first, second) -> str:
    return f"{family}[{first}][{second}]"


def _same(coef, names) -> tuple:
    """Flat terms giving every name the coefficient ``coef``."""
    return tuple(chain.from_iterable((coef, name) for name in names))


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
    by_node = tuple(enumerate(nodes))
    by_heuristic = tuple(enumerate(heuristics))

    # Every variable name is made once, here, and shared by all rows using it:
    # x[j][p], t[j] and pos[j] per heuristic index j; sN[i], pmin[i] and tN[i]
    # per node index i; s[i][j] and the other pair families per (node, heuristic).
    x = [[_name2("x", h, p) for p in range(count + 1)] for h in heuristics]
    t = [_name1("t", h) for h in heuristics]
    pos = [_name1("p", h) for h in heuristics]
    sN, pmin, tN = ([_name1(family, n) for n in nodes] for family in ("sN", "pmin", "tN"))
    s, z, f, m, y, w, u, v = ([[_name2(family, n, h) for h in heuristics] for n in nodes]
                              for family in "szfmywuv")

    def declare(names, kind: str, lower: int, upper: int, label: str) -> list[tuple]:
        return [(name, kind, lower, upper, label) for name in names]

    flat = chain.from_iterable
    variables = declare(flat(x), "binary", 0, 1, "x")
    variables += [(t[j], "integer", 0, horizon[h], "t") for j, h in by_heuristic]
    variables += declare(pos, "integer", 0, count, "p")
    variables += declare(flat(s), "binary", 0, 1, "s")
    variables += declare(sN, "binary", 0, 1, "s_node")
    variables += declare(pmin, "integer", 1, count, "p_min")
    variables += declare(flat(z), "binary", 0, 1, "z")
    variables += declare(flat(f), "binary", 0, 1, "f")
    variables += declare(tN, "integer", 1, 1 + total_horizon, "t_node")
    for i, _ in by_node:
        for j, _ in by_heuristic:
            variables += ((m[i][j], "integer", 1, count, "aux_min_term"),
                          (y[i][j], "binary", 0, 1, "aux_argmin"),
                          (w[i][j], "binary", 0, 1, "aux_after_first"),
                          (u[i][j], "binary", 0, 1, "aux_solved_and_before"),
                          (v[i][j], "binary", 0, 1, "aux_solved_and_first"))

    linear: list[tuple] = []
    add = linear.append

    # each position holds at most one heuristic; each heuristic gets one position
    for p in range(1, count + 1):
        add((f"position_capacity[{p}]", _same(1, (x_h[p] for x_h in x)), "<=", 1))
    for j, h in by_heuristic:
        add((f"placement[{h}]", _same(1, x[j]), "=", 1))
        add((f"position_link[{h}]",
             (1, pos[j], *flat((-p, x[j][p]) for p in range(1, count + 1))), "=", 0))
        # a heuristic outside the schedule gets budget zero
        add((f"budget_link[{h}]", (1, t[j], horizon[h], x[j][0]), "<=", horizon[h]))

    # budget-coverage indicator per (node, heuristic); M = horizon + 1
    for i, n in by_node:
        for j, h in by_heuristic:
            t_req = tau[(n, h)]
            if t_req is None:
                add((f"solve_never[{n},{h}]", (1, s[i][j]), "=", 0))
            else:
                add((f"solve_lb[{n},{h}]", (1, t[j], -t_req, s[i][j]), ">=", 0))
                add((f"solve_ub[{n},{h}]", (1, t[j], -(horizon[h] + 1), s[i][j]), "<=", t_req - 1))

    # a node is solved exactly when some heuristic covers it
    for i, n in by_node:
        add((f"node_solved_ub[{n}]", (1, sN[i], *_same(-1, s[i])), "<=", 0))
        for j, h in by_heuristic:
            add((f"node_solved_lb[{n},{h}]", (1, sN[i], -1, s[i][j]), ">=", 0))

    add(("coverage", _same(1, sN), ">=", alpha * len(nodes)))

    # position of the first covering heuristic: pmin = min over h of
    # (position if h covers the node else the heuristic count)
    for i, n in by_node:
        for j, h in by_heuristic:
            m_ij, s_ij = m[i][j], s[i][j]
            add((f"min_term_cover_lb[{n},{h}]", (1, m_ij, -1, pos[j], -count, s_ij), ">=", -count))
            add((f"min_term_cover_ub[{n},{h}]", (1, m_ij, -1, pos[j], count, s_ij), "<=", count))
            add((f"min_term_miss_lb[{n},{h}]", (1, m_ij, count, s_ij), ">=", count))
            add((f"first_position_ub[{n},{h}]", (1, pmin[i], -1, m_ij), "<=", 0))
            add((f"first_position_lb[{n},{h}]", (1, pmin[i], -1, m_ij, -count, y[i][j]),
                 ">=", -count))
        add((f"first_position_pick[{n}]", _same(1, y[i]), "=", 1))

    # strict order indicators around pmin: z before, w after, f exactly at
    for i, n in by_node:
        for j, h in by_heuristic:
            p, z_ij, w_ij = pos[j], z[i][j], w[i][j]
            add((f"before_first_ub[{n},{h}]", (1, pmin[i], -1, p, -count, z_ij), "<=", 0))
            add((f"before_first_lb[{n},{h}]", (1, pmin[i], -1, p, -count, z_ij), ">=", 1 - count))
            add((f"after_first_ub[{n},{h}]", (1, p, -1, pmin[i], -count, w_ij), "<=", 0))
            add((f"after_first_lb[{n},{h}]", (1, p, -1, pmin[i], -(count + 1), w_ij), ">=", -count))
            add((f"first_solver_def[{n},{h}]", (1, z_ij, 1, w_ij, 1, f[i][j]), "=", 1))

    # products with the node-solved flag, used by the node-time constraint
    for i, n in by_node:
        for j, h in by_heuristic:
            for aux, other, tag in ((u[i][j], z[i][j], "solved_and_before"),
                                    (v[i][j], f[i][j], "solved_and_first")):
                add((f"{tag}_ub1[{n},{h}]", (1, aux, -1, sN[i]), "<=", 0))
                add((f"{tag}_ub2[{n},{h}]", (1, aux, -1, other), "<=", 0))
                add((f"{tag}_lb[{n},{h}]", (1, aux, -1, sN[i], -1, other), ">=", -1))

    quadratic: list[tuple] = []
    for i, n in by_node:
        lin_terms = [1, tN[i], 1, sN[i]]
        quad_terms = []
        for j, h in by_heuristic:
            lin_terms += (-1, t[j])
            t_req = tau[(n, h)]
            if t_req is not None:
                lin_terms += (-t_req, v[i][j])
            quad_terms += (-1, u[i][j], t[j], 1, sN[i], t[j])
        quadratic.append((f"node_time[{n}]", tuple(lin_terms), tuple(quad_terms), "=", 1))

    return MiqpModel(heuristics=heuristics, nodes=nodes, alpha=alpha, tau=tau, horizon=horizon,
                     variables=variables, objective=_same(1.0, tN), linear=tuple(linear),
                     quadratic=tuple(quadratic))


def export_miqp(d: Dataset, alpha: float, sink) -> MiqpModel:
    """Build the model and stream its text rendering into ``sink``.

    ``sink`` may be a path or a writable text stream.  A path is opened
    only once the model is built, so rejected input creates no file.
    """
    model = build_miqp(d, alpha)
    with nullcontext(sink) if hasattr(sink, "write") else open(sink, "w", encoding="utf-8") as out:
        for chunk in _chunks(model):
            out.write(chunk)
    return model


def _coerce_assignment(model: MiqpModel, assignment) -> tuple[dict, list[str]]:
    """Validate coverage, integrality and bounds; return integer values."""
    violations: list[str] = []
    values: dict[str, int] = {}
    for name, _, lower, upper, _ in model.variables.rows:
        if name not in assignment:
            raise InputError(f"assignment is missing variable {name!r}")
        value = assignment[name]
        if type(value) is not int:  # exact ints, as schedule_assignment yields, are integral
            require_finite(value, f"value of {name}")
            rounded = round(value)
            if abs(value - rounded) > _INTEGRALITY_TOL:
                violations.append(f"integrality[{name}]")
            value = int(rounded)
        if not lower <= value <= upper:
            violations.append(f"domain[{name}]")
        values[name] = value
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


def check_linearized(model: MiqpModel, assignment) -> CheckResult:
    """Audit an assignment against the exported linearized constraints."""
    values, violations = _coerce_assignment(model, assignment)

    def holds(lhs: float, op: str, rhs: float) -> bool:
        if op == "<=":
            return lhs <= rhs + _NUMERIC_TOL
        if op == ">=":
            return lhs >= rhs - _NUMERIC_TOL
        return abs(lhs - rhs) <= _NUMERIC_TOL

    def dot(terms) -> float:
        # from int 0 in term order, so integer rows stay exact
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


@lru_cache(maxsize=1024)
def _num(x: float) -> str:
    value = float(x)
    if value.is_integer():
        return str(int(value))
    return repr(value)


@lru_cache(maxsize=1024)
def _signed(coef) -> str:
    """A term's coefficient with its sign, such as ``+ 1`` or ``- 12``."""
    return f"{'+' if coef >= 0 else '-'} {_num(abs(coef))}"


def _term_text(terms: tuple, width: int = 2, lead: bool = True) -> str:
    """Flat terms of ``width`` items (a coefficient, then its factors) as text;
    ``lead`` drops the ``+`` of a first term that opens the expression."""
    items = iter(terms)
    if width == 2:
        text = " ".join([f"{_signed(coef)} {name}" for coef, name in zip(items, items)])
    else:
        text = " ".join([f"{_signed(coef)} {a}*{b}" for coef, a, b in zip(items, items, items)])
    return text[2:] if lead and text.startswith("+") else text


def _batched(lines):
    """Join consecutive lines into chunks of at most ``_CHUNK_ROWS`` lines."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, _CHUNK_ROWS)):
        yield chunk


def _chunks(model: MiqpModel):
    """The model's text rendering, section by section, in bounded chunks."""
    yield ("# minimum-cost heuristic scheduling model (mixed-integer, quadratic)\n"
           "# sections: VARIABLES, OBJECTIVE, LINEAR, QUADRATIC, COMMENTS\n"
           "VARIABLES\n")
    yield from _batched(f"{name} {kind} in [{lower}, {upper}]\n"
                        for name, kind, lower, upper, _ in model.variables.rows)
    yield f"OBJECTIVE\nminimize: {_term_text(model.objective)}\nLINEAR\n"
    yield from _batched(f"{cid}: {_term_text(terms)} {op} {_num(rhs)}\n"
                        for cid, terms, op, rhs in model.linear)
    yield "QUADRATIC\n"
    yield from _batched(f"{cid}: {_term_text(lin_terms)} {_term_text(quad_terms, 3, False)}"
                        f" {op} {_num(rhs)}\n"
                        for cid, lin_terms, quad_terms, op, rhs in model.quadratic)
    count = len(model.heuristics)
    yield ("COMMENTS\n"
           f"heuristics: {count}; nodes: {len(model.nodes)}; "
           f"required coverage fraction: {_num(model.alpha)}\n"
           "objective counts iterations spent per node, plus one penalty unit per"
           " unsolved node\n"
           "units are raw iterations; comparable to seconds-normalized schedule"
           " costs only when every heuristic averages 1 second per iteration\n"
           "x[h][p]=1 places heuristic h at position p (p=0: not scheduled);"
           " t[h] is its iteration budget; p[h] its position\n"
           "s[n][h]=1 when t[h] reaches the iterations h needs at node n;"
           " sN[n]=1 when any heuristic does; pmin[n] is the position of the"
           " first one (the heuristic count if none)\n"
           "linearizations used:\n"
           "  budget-coverage indicator s[n][h]: big-M pair with M = horizon(h)+1"
           " (solve_lb/solve_ub); pairs the heuristic never solves are pinned to 0"
           " (solve_never)\n"
           "  node-solved flag sN[n]: upper bound by the sum of s[n][h], lower"
           " bound by each (node_solved_ub/node_solved_lb)\n"
           f"  position minimum pmin[n]: per-heuristic terms m[n][h] equal p[h]"
           f" when s[n][h]=1 else {count}, linearized with M = {count}"
           " (min_term_*); pmin bounded above by every m and matched from below"
           " through the argmin selector y[n][h] (first_position_*)\n"
           f"  order indicators: z[n][h] (strictly before pmin) and w[n][h]"
           f" (strictly after) via big-M inequalities with M = {count} and"
           f" M = {count + 1}; f[n][h] closes the trichotomy z+w+f = 1"
           " (before_first_*/after_first_*/first_solver_def)\n"
           "  products with the node-solved flag: u[n][h] = sN[n] AND z[n][h],"
           " v[n][h] = sN[n] AND f[n][h], standard three-inequality AND"
           " encodings\n"
           "  node time tN[n]: quadratic equality; solved nodes pay the budgets"
           " of heuristics before pmin plus the solver's actual iterations"
           " (through u and v), unsolved nodes pay the whole schedule plus 1\n"
           f"node-time domain upper bound: 1 + total horizon ="
           f" {1 + sum(model.horizon.values())}\n")
