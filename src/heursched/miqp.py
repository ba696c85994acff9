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

The model's variables, rows and objective are stored by ``miqp_columns``
as flat columns in which rows name variables by index.  ``Layout`` there is
the one place that knows the variable order: the build, both checkers and
``schedule_assignment`` take each family's slice, and the per-heuristic,
per-node and per-pair runs within it, from its helpers.  A model comes
only from ``build_miqp``, so its variables always follow that order.  The
build fills the row columns one constraint family at a time, and both
checkers read one list of values in variable order.  ``export_miqp``
streams the text into its sink in chunks; ``MiqpModel.render`` joins them.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import add, itemgetter, mul

from .dataset import Dataset
from .errors import InputError, require_finite
from .miqp_columns import (CHUNK_ROWS, Families, Layout, MiqpVariable, Rows, Terms, VariableRows,
                           num, row_chunks, row_sums)
from .schedule import Schedule

_INTEGRALITY_TOL = 1e-9
_flat = chain.from_iterable


@dataclass(frozen=True)
class CheckResult:
    feasible: bool
    objective: float
    violations: tuple[str, ...]


@dataclass(frozen=True, init=False)
class MiqpModel:
    """A model that ``build_miqp`` built, plus the data needed to audit
    assignments against it.  It comes from ``build_miqp`` only: the checkers
    read values by their place in the variable order the build lays out, so
    ``MiqpModel(...)`` and ``dataclasses.replace`` refuse with ``InputError``."""

    heuristics: tuple[str, ...]
    nodes: tuple[str, ...]
    alpha: float
    tau: dict
    horizon: dict
    variables: VariableRows  # each reads as a MiqpVariable
    objective: Terms  # reads as flat (coef, name, ...)
    linear: Rows
    quadratic: Rows

    def __init__(self, *args, **kwargs) -> None:  # dataclasses.replace calls this too
        raise InputError("a MiqpModel comes only from build_miqp(dataset, alpha)")

    @classmethod
    def _built(cls, **fields) -> MiqpModel:
        model = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(model, name, value)
        return model

    @cached_property
    def _index(self) -> dict:
        return dict(zip(self.variables.names, range(len(self.variables))))

    def variable(self, name: str) -> MiqpVariable:
        try:
            return self.variables[self._index[name]]
        except KeyError:
            raise InputError(f"model has no variable named {name!r}") from None

    def family_size(self, family: str) -> int:
        return list(map(itemgetter(3), self.variables.attributes)).count(family)

    def render(self) -> str:
        return "".join(_chunks(self))


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
    columns = [d.tau_column(h).taus for h in heuristics]
    taus = [column[i] for i in range(len(nodes)) for column in columns]  # in pair order
    horizon = {h: max(filter(None, column), default=0) for h, column in zip(heuristics, columns)}
    variables = VariableRows.declare(heuristics, nodes, horizon)
    at = Layout(len(heuristics), len(nodes))
    family = at.split(list(range(len(variables))))  # variable indices, all from one list
    tau = dict(zip(at.pairs(nodes, heuristics), taus))
    return MiqpModel._built(
        heuristics=heuristics, nodes=nodes, alpha=alpha, tau=tau, horizon=horizon,
        variables=variables, objective=Terms(variables.names, [1.0] * len(nodes), family.tN),
        linear=_linear_rows(variables.names, at, family, d, taus, horizon, alpha),
        quadratic=_node_time_rows(variables.names, at, family, d, taus))


def _linear_rows(names: list, at: Layout, family: Families, d: Dataset, taus: list,
                 horizon: dict, alpha: float) -> Rows:
    """The linear rows, one block per constraint family; no Python call per row."""
    heuristics, nodes = d.heuristics, d.nodes
    H, N = len(heuristics), len(nodes)
    pairs = N * H
    X, T, P, S, SN, PMIN = family.x, family.t, family.p, family.s, family.sN, family.pmin
    Z, F, M, Y, W, U, V = family.z, family.f, family.m, family.y, family.w, family.u, family.v
    # per pair, the index of its heuristic's t and p and of its node's sN and pmin
    Tj, Pj = at.pair_heuristic(T), at.pair_heuristic(P)
    SNi, PMINi = at.pair_node(SN), at.pair_node(PMIN)
    XJ = at.x_rows(X)
    keys = [f"{n},{h}" for n, h in at.pairs(nodes, heuristics)]
    runs = list(at.by_node(keys))  # ids are made one list per node: transients stay small
    per_node = at.node_major

    linear = Rows(names)
    add = linear.add

    # each position holds at most one heuristic; each heuristic gets one position
    add((f"position_capacity[{p}]" for p in range(1, H + 1)), [H] * H, [1] * (H * H),
        _flat(at.x_columns(X)[1:]), ["<="] * H, [1] * H)
    # a heuristic outside the schedule gets budget zero
    tags = ("placement", "position_link", "budget_link")
    add((f"{tag}[{h}]" for h in heuristics for tag in tags), [H + 1, H + 1, 2] * H,
        _flat([*[1] * (H + 1), 1, *range(-1, -H - 1, -1), 1, horizon[h]] for h in heuristics),
        _flat([*XJ[j], P[j], *XJ[j][1:], T[j], XJ[j][0]] for j in range(H)),
        ["=", "=", "<="] * H, _flat((1, 0, horizon[h]) for h in heuristics))

    # budget-coverage indicator per (node, heuristic); M = horizon + 1
    bigs = [horizon[h] + 1 for h in heuristics] * N
    add((cid for key, t_req in zip(keys, taus) for cid in
         ((f"solve_never[{key}]",) if t_req is None else (f"solve_lb[{key}]", f"solve_ub[{key}]"))),
        [k for t_req in taus for k in ((1,) if t_req is None else (2, 2))],
        [c for t_req, big in zip(taus, bigs)
         for c in ((1,) if t_req is None else (1, -t_req, 1, -big))],
        [v for t_req, t, s in zip(taus, Tj, S) for v in ((s,) if t_req is None else (t, s, t, s))],
        [op for t_req in taus for op in (("=",) if t_req is None else (">=", "<="))],
        [r for t_req in taus for r in ((0,) if t_req is None else (0, t_req - 1))])

    # a node is solved exactly when some heuristic covers it
    add(_flat([f"node_solved_ub[{n}]", *[f"node_solved_lb[{key}]" for key in run]]
              for n, run in zip(nodes, runs)),
        ([H + 1] + [2] * H) * N, ([1] + [-1] * H + [1, -1] * H) * N,
        per_node(SN, S, list(_flat(zip(SNi, S)))),
        (["<="] + [">="] * H) * N, [0] * (N * (H + 1)))

    add(["coverage"], [N], [1] * N, SN, [">="], [alpha * N])

    # position of the first covering heuristic: pmin = min over h of
    # (position if h covers the node else the heuristic count)
    tags = ("min_term_cover_lb", "min_term_cover_ub", "min_term_miss_lb", "first_position_ub",
            "first_position_lb")
    add(_flat([*[f"{tag}[{key}]" for key in run for tag in tags], f"first_position_pick[{n}]"]
              for n, run in zip(nodes, runs)),
        ([3, 3, 2, 2, 3] * H + [H]) * N,
        ([1, -1, -H, 1, -1, H, 1, H, 1, -1, 1, -1, -H] * H + [1] * H) * N,
        per_node(list(_flat(zip(M, Pj, S, M, Pj, S, M, S, PMINi, M, PMINi, M, Y))), Y),
        ([">=", "<=", ">=", "<=", ">="] * H + ["="]) * N, ([-H, H, H, 0, -H] * H + [1]) * N)

    # strict order indicators around pmin: z before, w after, f exactly at
    tags = ("before_first_ub", "before_first_lb", "after_first_ub", "after_first_lb",
            "first_solver_def")
    add(_flat([f"{tag}[{key}]" for key in run for tag in tags] for run in runs), [3] * (5 * pairs),
        [1, -1, -H, 1, -1, -H, 1, -1, -H, 1, -1, -(H + 1), 1, 1, 1] * pairs,
        _flat(zip(PMINi, Pj, Z, PMINi, Pj, Z, Pj, PMINi, W, Pj, PMINi, W, Z, W, F)),
        ["<=", ">=", "<=", ">=", "="] * pairs, [0, 1 - H, 0, -H, 1] * pairs)

    # products with the node-solved flag, used by the node-time constraint
    tags = [f"{tag}_{bound}" for tag in ("solved_and_before", "solved_and_first")
            for bound in ("ub1", "ub2", "lb")]
    add(_flat([f"{tag}[{key}]" for key in run for tag in tags] for run in runs),
        [2, 2, 3, 2, 2, 3] * pairs,
        [1, -1, 1, -1, 1, -1, -1] * (2 * pairs),
        _flat(zip(U, SNi, U, Z, U, SNi, Z, V, SNi, V, F, V, SNi, F)),
        ["<=", "<=", ">="] * (2 * pairs), [0, 0, -1] * (2 * pairs))
    return linear


def _node_time_rows(names: list, at: Layout, family: Families, d: Dataset, taus: list) -> Rows:
    """Per node: tN + sN - sum over h of t[h] (and of tau * v[n][h] where h can
    solve n) - sum over h of u[n][h] * t[h] + sum over h of sN[n] * t[h] = 1."""
    H, N = len(d.heuristics), len(d.nodes)
    Tj, TN, SN, U, V = at.pair_heuristic(family.t), family.tN, family.sN, family.u, family.v
    pair_coefs = [c for t_req in taus for c in ((-1,) if t_req is None else (-1, -t_req))]
    pair_vars = [i for t_req, t, v in zip(taus, Tj, V) for i in ((t,) if t_req is None else (t, v))]
    lengths = [1 if t_req is None else 2 for t_req in taus]
    bounds = list(accumulate(map(sum, at.by_node(lengths)), initial=0))
    quadratic = Rows(names, quadratic=True)
    quadratic.add((f"node_time[{n}]" for n in d.nodes),
                  [2 + b - a for a, b in zip(bounds, bounds[1:])],
                  _flat(chain((1, 1), pair_coefs[a:b]) for a, b in zip(bounds, bounds[1:])),
                  _flat(chain((tn, sn), pair_vars[a:b])
                        for tn, sn, a, b in zip(TN, SN, bounds, bounds[1:])),
                  ["="] * N, [1] * N, [2 * H] * N, [-1, 1] * (N * H),
                  _flat(zip(U, Tj, at.pair_node(SN), Tj)))
    return quadratic


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


def _coerce_assignment(model: MiqpModel, assignment) -> tuple[list, list[str]]:
    """Validate coverage, integrality and bounds; return integer values in variable order."""
    names, records = model.variables.names, model.variables.attributes
    # all clear in a few passes in C (a missing name reads None), or the loop names each
    # problem; one shared record bounds each family's slice, but t's records are per heuristic
    values = list(map(assignment.get, names))
    if {*map(type, values)} <= {int}:
        at = Layout(len(model.heuristics), len(model.nodes))
        t = at.slices.t
        spans = [(records[where.start], values[where]) for where in at.slices if where != t]
        spans += zip(records[t], zip(values[t]))
        if all(lower <= min(part) and max(part) <= upper for (_, lower, upper, _), part in spans):
            return values, []
    violations: list[str] = []
    values = []
    append = values.append
    for name, (_, lower, upper, _) in zip(names, records):
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
        append(value)
    return values, violations


def check_assignment(model: MiqpModel, assignment) -> CheckResult:
    """Audit an assignment against the original nonlinear constraints.

    Every constraint is re-evaluated in its min/max/indicator form rather
    than through the exported linearization, which makes this an
    independent feasibility check.  Returns the objective (total
    iterations over nodes) and the ids of violated constraints.  Values are
    read by their place in ``build_miqp``'s variable order.
    """
    values, violations = _coerce_assignment(model, assignment)
    report = violations.append
    heuristics, nodes, tau = model.heuristics, model.nodes, model.tau
    count = len(heuristics)
    at = Layout(count, len(nodes))
    v = at.split(values)
    x, t, pos, s, sN, pmin, z, f, tN = v.x, v.t, v.p, v.s, v.sN, v.pmin, v.z, v.f, v.tN
    placements = at.x_rows(x)

    for p, column in enumerate(at.x_columns(x)[1:], start=1):
        if sum(column) > 1:
            report(f"position_capacity[{p}]")
    for h, placed, t_h, position in zip(heuristics, placements, t, pos):
        if sum(placed) != 1:
            report(f"placement[{h}]")
        if position != sum(map(mul, range(len(placed)), placed)):
            report(f"position_link[{h}]")
        if model.horizon[h] * (1 - placed[0]) < t_h:
            report(f"budget_link[{h}]")

    for n, s_n in zip(nodes, at.by_node(s)):
        for h, t_h, s_nh in zip(heuristics, t, s_n):
            t_req = tau[(n, h)]
            if s_nh != (0 if t_req is None else max(0, min(1, t_h - t_req + 1))):
                report(f"solve_indicator[{n},{h}]")

    for n, s_n, solved in zip(nodes, at.by_node(s), sN):
        if solved != min(1, sum(s_n)):
            report(f"node_solved[{n}]")

    if sum(sN) / len(nodes) < model.alpha:
        report("coverage")

    for n, s_n, z_n, f_n, first_position in zip(nodes, at.by_node(s), at.by_node(z),
                                                 at.by_node(f), pmin):
        if first_position != min(p * c + (1 - c) * count for p, c in zip(pos, s_n)):
            report(f"first_position[{n}]")
        for h, position, z_nh, f_nh in zip(heuristics, pos, z_n, f_n):
            if z_nh != (1 if position < first_position else 0):
                report(f"before_first[{n},{h}]")
            if f_nh != (1 if position == first_position else 0):
                report(f"first_solver[{n},{h}]")

    unsolved_time = 1 + sum(t_h * sum(placed) for t_h, placed in zip(t, placements))
    for n, z_n, f_n, solved, spent in zip(nodes, at.by_node(z), at.by_node(f), sN, tN):
        expected = unsolved_time
        if solved == 1:
            solver_time = math.inf
            for h, f_nh in zip(heuristics, f_n):
                if f_nh == 1:
                    t_req = tau[(n, h)]
                    solver_time = t_req if t_req is not None else math.inf
            expected = sum(map(mul, z_n, t)) + solver_time
        if spent != expected:
            report(f"node_time[{n}]")

    return CheckResult(not violations, sum(tN), tuple(violations))


def check_linearized(model: MiqpModel, assignment) -> CheckResult:
    """Audit an assignment against the exported linearized constraints."""
    values, violations = _coerce_assignment(model, assignment)
    violations += model.linear.violated(values) + model.quadratic.violated(values)
    terms = model.objective
    objective, = row_sums([len(terms.coefs)], terms.coefs, values, terms.vars)
    return CheckResult(not violations, objective, tuple(violations))


def schedule_assignment(model: MiqpModel, schedule: Schedule) -> dict:
    """Canonical integer assignment encoding a schedule.

    Scheduled heuristics occupy positions 1..k in order; everything else
    sits at position 0 with budget 0.  Budgets above a heuristic's
    iteration horizon cannot be represented and are rejected.  Values are
    named by their place in ``build_miqp``'s variable order.
    """
    heuristics = model.heuristics
    count = len(heuristics)
    column = {h: j for j, h in enumerate(heuristics)}
    position = [0] * count
    budget = [0] * count
    for index, (heuristic, entry_budget) in enumerate(schedule.entries, start=1):
        if heuristic not in column:
            raise InputError(f"schedule heuristic {heuristic!r} is not part of the model")
        if entry_budget > model.horizon[heuristic]:
            raise InputError(
                f"budget {entry_budget} for {heuristic!r} exceeds the model's iteration "
                f"horizon {model.horizon[heuristic]}")
        position[column[heuristic]] = index
        budget[column[heuristic]] = entry_budget

    # family by family, per pair or per node: no container per node is kept
    at = Layout(count, len(model.nodes))
    taus = list(map(model.tau.__getitem__, at.pairs(model.nodes, heuristics)))
    positions = at.pair_heuristic(position)
    covered = [1 if (t_req is not None and b >= t_req) else 0
               for t_req, b in zip(taus, at.pair_heuristic(budget))]
    solved = [1 if any(c_n) else 0 for c_n in at.by_node(covered)]
    terms = [p if c else count for p, c in zip(positions, covered)]
    first = [min(m_n) for m_n in at.by_node(terms)]
    # the argmin selector takes the first minimal term
    picks = at.pair_node([m_n.index(least) for m_n, least in zip(at.by_node(terms), first)])
    firsts, solveds = at.pair_node(first), at.pair_node(solved)
    before = [1 if p < least else 0 for p, least in zip(positions, firsts)]
    at_first = [1 if p == least else 0 for p, least in zip(positions, firsts)]
    unsolved_time = 1 + sum(budget)
    spent = []
    for solved_n, least, before_n, taus_n, covered_n in zip(
            solved, first, at.by_node(before), at.by_node(taus), at.by_node(covered)):
        if solved_n:  # the first covering heuristic at position pmin solves the node
            solver_tau = next(t_req for t_req, c, p in zip(taus_n, covered_n, position)
                              if c and p == least)
            spent.append(sum(map(mul, before_n, budget)) + solver_tau)
        else:
            spent.append(unsolved_time)
    values = at.join(Families(
        at.x_of(position), budget, position, covered, solved, first, before, at_first, spent,
        terms, [1 if j == pick else 0 for j, pick in zip(at.pair_heuristic(range(count)), picks)],
        [1 if p > least else 0 for p, least in zip(positions, firsts)],
        list(map(mul, solveds, before)), list(map(mul, solveds, at_first))))
    return dict(zip(model.variables.names, values))


def _chunks(model: MiqpModel):
    """The model's text rendering, section by section, in bounded chunks."""
    yield ("# minimum-cost heuristic scheduling model (mixed-integer, quadratic)\n"
           "# sections: VARIABLES, OBJECTIVE, LINEAR, QUADRATIC, COMMENTS\n"
           "VARIABLES\n")
    names, records = model.variables.names, model.variables.attributes
    texts = {record: f" {record[0]} in [{num(record[1])}, {num(record[2])}]\n"
             for record in set(records)}  # bounds as num writes them: equal records, equal text
    for first in range(0, len(names), CHUNK_ROWS):
        yield "".join(map(add, names[first:first + CHUNK_ROWS],
                          map(texts.__getitem__, records[first:first + CHUNK_ROWS])))
    yield f"OBJECTIVE\nminimize: {model.objective.text()}\nLINEAR\n"
    yield from row_chunks(model.linear)
    yield "QUADRATIC\n"
    yield from row_chunks(model.quadratic)
    count = len(model.heuristics)
    yield ("COMMENTS\n"
           f"heuristics: {count}; nodes: {len(model.nodes)}; "
           f"required coverage fraction: {num(model.alpha)}\n"
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
