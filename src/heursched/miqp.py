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

A model holds its variables and objective as ``miqp_columns`` flat columns,
and no row: ``_Formulas`` makes each constraint family's rows for any range
of nodes, in ``miqp_columns.Rows`` blocks.  ``Layout`` there is the one place
that knows the variable order, and a model comes only from ``build_miqp``.
``export_miqp`` streams the text in chunks, and ``check_linearized``
evaluates the rows, one ``workers.map_jobs`` job per range of linear rows,
which makes its rows: a large model runs in forked workers, a small one is
one range in the caller.  ``MiqpModel.render`` joins the chunks.
"""

from __future__ import annotations

import io
import math
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain
from operator import add, mul

from .dataset import Dataset
from .errors import InputError, require_finite, require_fraction
from .miqp_columns import (CHUNK_ROWS, Families, Layout, MiqpVariable, PairTaus, Rows, Terms,
                           VariableRows, num, part_bounds, row_chunks, row_sums)
from .schedule import Schedule

_INTEGRALITY_TOL = 1e-9
_BLOCK = 1 << 18  # bytes or characters per read when appending a worker's part
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
    tau: PairTaus  # reads as the (node, heuristic) -> tau dict
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
        at, records = Layout(len(self.heuristics), len(self.nodes)), self.variables.attributes
        return sum(len(where) for where in at.split(range(at.size))
                   if records[where.start][3] == family)

    def render(self) -> str:
        return "".join(_chunks(self, [0, len(self.linear)], 0))


def _check_model_identifier(value: str, what: str) -> None:
    if "[" in value or "]" in value or any(c.isspace() for c in value):
        raise InputError(f"{what} identifier {value!r} cannot be used in model variable "
                         "names: brackets and whitespace are reserved")


def build_miqp(d: Dataset, alpha: float) -> MiqpModel:
    """Construct the model for a dataset and coverage fraction."""
    require_fraction(alpha, "alpha")
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
    formulas = _Formulas(heuristics, nodes, taus, horizon, alpha)
    names, (linear, quadratic) = variables.names, formulas.blocks()
    return MiqpModel._built(
        heuristics=heuristics, nodes=nodes, alpha=alpha, tau=PairTaus(nodes, heuristics, taus),
        horizon=horizon, variables=variables,
        objective=Terms(names, [1.0] * len(nodes), formulas.at.span(0, len(nodes)).tN),
        linear=Rows(names, linear), quadratic=Rows(names, quadratic))


class _Formulas:
    """What the rows are made from: the layout, the per-pair taus, the horizons,
    alpha and each node's first solve row (one per pair with no tau, else two).
    Each block's method makes its rows of nodes ``lo`` to ``hi``, or all of them."""

    __slots__ = ("heuristics", "nodes", "taus", "horizon", "alpha", "at", "solve_starts")

    def __init__(self, heuristics: tuple, nodes: tuple, taus: list, horizon: dict, alpha: float):
        self.heuristics, self.nodes, self.taus, self.horizon, self.alpha = (
            heuristics, nodes, taus, horizon, alpha)
        self.at = at = Layout(len(heuristics), len(nodes))
        self.solve_starts = list(accumulate(
            (2 * at.heuristics - run.count(None) for run in at.by_node(taus)), initial=0))

    def blocks(self) -> tuple[list, list]:  # linear and quadratic, in row order
        H, N = self.at.heuristics, self.at.nodes
        per_node = lambda rows: range(0, (N + 1) * rows, rows)  # noqa: E731
        return ([((0, H), self.capacity), ((0, 3 * H), self.placement),
                 (self.solve_starts, self.solve), (per_node(H + 1), self.node_solved),
                 ((0, 1), self.coverage), (per_node(5 * H + 1), self.first_position),
                 (per_node(5 * H), self.order), (per_node(6 * H), self.products)],
                [(per_node(1), self.node_time)])

    def _part(self, lo: int, hi: int) -> tuple:  # nodes lo to hi: layout, indices, taus, keys
        H, pairs = self.at.heuristics, Layout.pairs(self.nodes[lo:hi], self.heuristics)
        return (Layout(H, hi - lo), self.at.span(lo, hi), self.taus[lo * H:hi * H],
                [f"{n},{h}" for n, h in pairs])

    # each position holds at most one heuristic
    def capacity(self, lo: int, hi: int) -> tuple:
        H = self.at.heuristics
        return ([f"position_capacity[{p}]" for p in range(1, H + 1)], [H] * H, [1] * (H * H),
                _flat(self.at.x_columns(self.at.span(0, 0).x)[1:]), ["<="] * H, [1] * H)

    # each heuristic gets one position; one outside the schedule gets budget zero
    def placement(self, lo: int, hi: int) -> tuple:
        H, heuristics, horizon, family = (self.at.heuristics, self.heuristics, self.horizon,
                                          self.at.span(0, 0))
        XJ, T, P = self.at.x_rows(family.x), family.t, family.p
        tags = ("placement", "position_link", "budget_link")
        return ([f"{tag}[{h}]" for h in heuristics for tag in tags], [H + 1, H + 1, 2] * H,
                _flat([*[1] * (H + 1), 1, *range(-1, -H - 1, -1), 1, horizon[h]]
                      for h in heuristics),
                _flat([*XJ[j], P[j], *XJ[j][1:], T[j], XJ[j][0]] for j in range(H)),
                ["=", "=", "<="] * H, _flat((1, 0, horizon[h]) for h in heuristics))

    # budget-coverage indicator per (node, heuristic); M = horizon + 1
    def solve(self, lo: int, hi: int) -> tuple:
        part, family, taus, keys = self._part(lo, hi)
        Tj = part.pair_heuristic(family.t)
        bigs = part.pair_heuristic([self.horizon[h] + 1 for h in self.heuristics])
        return ([cid for key, t_req in zip(keys, taus) for cid in (
                    (f"solve_never[{key}]",) if t_req is None
                    else (f"solve_lb[{key}]", f"solve_ub[{key}]"))],
                [k for t_req in taus for k in ((1,) if t_req is None else (2, 2))],
                [c for t_req, big in zip(taus, bigs)
                 for c in ((1,) if t_req is None else (1, -t_req, 1, -big))],
                [v for t_req, t, s in zip(taus, Tj, family.s)
                 for v in ((s,) if t_req is None else (t, s, t, s))],
                [op for t_req in taus for op in (("=",) if t_req is None else (">=", "<="))],
                [r for t_req in taus for r in ((0,) if t_req is None else (0, t_req - 1))])

    # a node is solved exactly when some heuristic covers it
    def node_solved(self, lo: int, hi: int) -> tuple:
        part, family, _, keys = self._part(lo, hi)
        H, count, SN, S = part.heuristics, part.nodes, family.sN, family.s
        return (_flat([f"node_solved_ub[{n}]", *[f"node_solved_lb[{key}]" for key in run]]
                      for n, run in zip(self.nodes[lo:hi], part.by_node(keys))),
                ([H + 1] + [2] * H) * count, ([1] + [-1] * H + [1, -1] * H) * count,
                part.node_major(SN, S, list(_flat(zip(part.pair_node(SN), S)))),
                (["<="] + [">="] * H) * count, [0] * (count * (H + 1)))

    def coverage(self, lo: int, hi: int) -> tuple:
        N = self.at.nodes
        return ["coverage"], [N], [1] * N, self.at.span(0, N).sN, [">="], [self.alpha * N]

    # position of the first covering heuristic: pmin = min over h of
    # (position if h covers the node else the heuristic count)
    def first_position(self, lo: int, hi: int) -> tuple:
        part, family, _, keys = self._part(lo, hi)
        H, count, M, S, Y = part.heuristics, part.nodes, family.m, family.s, family.y
        Pj, PMINi = part.pair_heuristic(family.p), part.pair_node(family.pmin)
        tags = ("min_term_cover_lb", "min_term_cover_ub", "min_term_miss_lb", "first_position_ub",
                "first_position_lb")
        return (_flat([*[f"{tag}[{key}]" for key in run for tag in tags],
                       f"first_position_pick[{n}]"]
                      for n, run in zip(self.nodes[lo:hi], part.by_node(keys))),
                ([3, 3, 2, 2, 3] * H + [H]) * count,
                ([1, -1, -H, 1, -1, H, 1, H, 1, -1, 1, -1, -H] * H + [1] * H) * count,
                part.node_major(list(_flat(zip(M, Pj, S, M, Pj, S, M, S, PMINi, M, PMINi, M, Y))),
                                Y),
                ([">=", "<=", ">=", "<=", ">="] * H + ["="]) * count,
                ([-H, H, H, 0, -H] * H + [1]) * count)

    # strict order indicators around pmin: z before, w after, f exactly at
    def order(self, lo: int, hi: int) -> tuple:
        part, family, _, keys = self._part(lo, hi)
        H, pairs, Z, W = part.heuristics, len(keys), family.z, family.w
        Pj, PMINi = part.pair_heuristic(family.p), part.pair_node(family.pmin)
        tags = ("before_first_ub", "before_first_lb", "after_first_ub", "after_first_lb",
                "first_solver_def")
        return ([f"{tag}[{key}]" for key in keys for tag in tags], [3] * (5 * pairs),
                [1, -1, -H, 1, -1, -H, 1, -1, -H, 1, -1, -(H + 1), 1, 1, 1] * pairs,
                _flat(zip(PMINi, Pj, Z, PMINi, Pj, Z, Pj, PMINi, W, Pj, PMINi, W, Z, W, family.f)),
                ["<=", ">=", "<=", ">=", "="] * pairs, [0, 1 - H, 0, -H, 1] * pairs)

    # products with the node-solved flag, used by the node-time constraint
    def products(self, lo: int, hi: int) -> tuple:
        part, family, _, keys = self._part(lo, hi)
        pairs, U, V, Z, F = len(keys), family.u, family.v, family.z, family.f
        SNi = part.pair_node(family.sN)
        tags = [f"{tag}_{bound}" for tag in ("solved_and_before", "solved_and_first")
                for bound in ("ub1", "ub2", "lb")]
        return ([f"{tag}[{key}]" for key in keys for tag in tags], [2, 2, 3, 2, 2, 3] * pairs,
                [1, -1, 1, -1, 1, -1, -1] * (2 * pairs),
                _flat(zip(U, SNi, U, Z, U, SNi, Z, V, SNi, V, F, V, SNi, F)),
                ["<=", "<=", ">="] * (2 * pairs), [0, 0, -1] * (2 * pairs))

    # per node: tN + sN - sum over h of t[h] (and of tau * v[n][h] where h can
    # solve n) - sum over h of u[n][h] * t[h] + sum over h of sN[n] * t[h] = 1
    def node_time(self, lo: int, hi: int) -> tuple:
        part, family, taus, _ = self._part(lo, hi)
        H, count, Tj = part.heuristics, part.nodes, part.pair_heuristic(family.t)
        pair_coefs = [c for t_req in taus for c in ((-1,) if t_req is None else (-1, -t_req))]
        pair_vars = [i for t_req, t, v in zip(taus, Tj, family.v)
                     for i in ((t,) if t_req is None else (t, v))]
        lengths = [1 if t_req is None else 2 for t_req in taus]
        bounds = list(accumulate(map(sum, part.by_node(lengths)), initial=0))
        return ([f"node_time[{n}]" for n in self.nodes[lo:hi]],
                [2 + b - a for a, b in zip(bounds, bounds[1:])],
                _flat(chain((1, 1), pair_coefs[a:b]) for a, b in zip(bounds, bounds[1:])),
                _flat(chain((tn, sn), pair_vars[a:b])
                      for tn, sn, a, b in zip(family.tN, family.sN, bounds, bounds[1:])),
                ["="] * count, [1] * count, [2 * H] * count, [-1, 1] * (count * H),
                _flat(zip(family.u, Tj, part.pair_node(family.sN), Tj)))


def export_miqp(d: Dataset, alpha: float, sink) -> MiqpModel:
    """Build the model and stream its text rendering into ``sink``.

    ``sink`` may be a path or a writable text stream.  A path is opened
    only once the model is built, so rejected input creates no file.

    Each range of linear rows that ``part_bounds`` gives is a
    ``workers.map_jobs`` job, which makes and renders its rows.  Part 0 (with
    the header, variables and objective) runs in the caller, straight into the
    sink; it is the only part below the split threshold.  The other parts
    render in workers, each into an anonymous temporary file (the last with
    the quadratic rows and comments), appended in order in bounded blocks:
    bytes into a path's file, text into a given stream.
    """
    from . import workers
    model = build_miqp(d, alpha)
    bounds = part_bounds(model.linear)

    def render(part: int) -> None:
        if part == 0:  # map_jobs runs index 0 in the caller
            for chunk in _chunks(model, bounds, 0):
                out.write(chunk)
            return
        file = files[part - 1]
        for chunk in _chunks(model, bounds, part):
            file.write(chunk.encode("utf-8"))
        file.flush()  # a worker leaves through os._exit, which flushes nothing

    given = hasattr(sink, "write")
    with ExitStack() as stack:
        out = stack.enter_context(
            nullcontext(sink) if given else open(sink, "w", encoding="utf-8"))
        files = []
        if len(bounds) > 2:
            import tempfile  # with shutil, which it loads: only for a model that splits
            files = [stack.enter_context(tempfile.TemporaryFile())  # opened before the fork
                     for _ in bounds[2:]]
        workers.map_jobs(render, len(bounds) - 1)
        if not given:  # a path's other parts go in as bytes, under its text layer
            out.flush()
        for file in files:
            file.seek(0)
            if not given:
                for block in iter(partial(file.read, _BLOCK), b""):
                    out.buffer.write(block)
            else:
                with io.TextIOWrapper(file, encoding="utf-8") as text:
                    for block in iter(partial(text.read, _BLOCK), ""):
                        out.write(block)
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
    heuristics, nodes, taus = model.heuristics, model.nodes, model.tau.taus
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

    for n, s_n, taus_n in zip(nodes, at.by_node(s), at.by_node(taus)):
        for h, t_h, s_nh, t_req in zip(heuristics, t, s_n, taus_n):
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
    for n, z_n, f_n, solved, spent, taus_n in zip(nodes, at.by_node(z), at.by_node(f), sN, tN,
                                                   at.by_node(taus)):
        expected = unsolved_time
        if solved == 1:
            solver_time = math.inf
            for f_nh, t_req in zip(f_n, taus_n):
                if f_nh == 1:
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
    taus = model.tau.taus
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


def _chunks(model: MiqpModel, bounds: list, part: int):
    """Part ``part`` of the model's text rendering, section by section, in
    bounded chunks: the linear rows ``bounds[part]`` to ``bounds[part + 1]``,
    after the header, variables and objective in part 0 and before the
    quadratic rows and comments in the last part.  With ``bounds``
    ``[0, len(model.linear)]``, part 0 is the whole rendering."""
    if part == 0:
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
    yield from row_chunks(model.linear, bounds[part], bounds[part + 1])
    if part < len(bounds) - 2:
        return
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
