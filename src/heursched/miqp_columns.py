"""Flat column storage of the MIQP model's variables, rows and objective.

A few hundred nodes make hundreds of thousands of rows, so ``miqp`` keeps
its model in a fixed set of flat lists, and rows name variables by index.
``Layout`` is the one place that knows the variable order: each family's
slice of it (``Families`` holds one item per family), and how per-heuristic,
per-node and per-pair lists line up with those slices.  ``VariableRows`` are
the columns ``names`` and ``attributes``, each variable's ``(kind, lower,
upper, family)`` record, one shared tuple for all variables of equal records.
``Rows`` are ``cids``, ``ends`` (cumulative term counts), ``coefs``, ``vars``,
``ops`` and ``rhs``; quadratic rows add ``qends``, ``qcoefs`` and ``qvars``
(two indices per term ``c * a * b``).  ``cids`` holds one newline-joined text
of ids per ``CHUNK_ROWS`` rows, joined as blocks of rows arrive, so a row id
must be a non-empty string free of whitespace; ``ends`` and ``qends`` are
``array("q")``.  A built model holds about 170 bytes per linear row (12
heuristics by 800 nodes), against about 255 with an id string and an end int per
row.  ``Terms``, the objective, are ``coefs`` and ``vars``.  Everything reads
back with names: a variable as a ``MiqpVariable``, a row as ``(id, (c1,
name1, ...), operator, right-hand side)`` (a quadratic row adds ``(c1, a1,
b1, ...)`` before the operator), the objective as ``(c1, name1, ...)``.
Only ``miqp.build_miqp`` fills these columns: ``VariableRows.declare`` lays
out the variables of a built model and ``variable_names`` their names, and
``Rows.violated`` evaluates rows on one list of values in variable order.

A block of at least ``2 * PART_ROWS`` rows splits into contiguous ranges of
whole chunks, at most one per worker (``part_bounds``); ``Rows.violated``
evaluates the ranges in ``workers.map_jobs`` jobs, and ``miqp.export_miqp``
renders them that way.  A smaller block is one range, one job, which
``map_jobs`` runs in the caller without forking.

``row_chunks`` renders a range of chunks straight from the columns, one
``"".join`` per ``CHUNK_ROWS`` rows.  A flat list holds two slots per term,
filled by slice assignment: the coefficient's cached spaced text, such as
`` + 3 ``, and the variable's name.  One f-string per row overwrites its
first coefficient slot with the previous row's `` <op> <rhs>\n``, the row's
id and the coefficient without ``+ ``; every row the build emits has a
linear term.  A quadratic row's products, one join per row, precede its
operator.  ``num`` writes integers without passing them through ``float``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, chain, count, islice, product
from numbers import Integral
from operator import add, mul
from typing import NamedTuple

CHUNK_ROWS = 256
PART_ROWS = 64 * CHUNK_ROWS  # the fewest rows a range of a split block holds
NUMERIC_TOL = 1e-9
_flat = chain.from_iterable


# One item per variable family, in variable order: the families of ``miqp``,
# then the linearization's auxiliaries.
Families = namedtuple("Families", "x t p s sN pmin z f tN m y w u v")


class Layout:
    """Where the variables of a model with ``heuristics`` (H) and ``nodes`` (N)
    sit in its variable order, and how lists per heuristic, per node and per
    pair line up with it.  Pairs are ``(node, heuristic)`` in ``pairs`` order;
    a pair list holds one item per pair, and a per-node list the same number
    of items for every node.  ``x`` holds ``H + 1`` positions per heuristic.
    The auxiliary families come last, one ``m, y, w, u, v`` group per pair."""

    def __init__(self, heuristics: int, nodes: int) -> None:
        H, N = self.heuristics, self.nodes = heuristics, nodes
        sizes = (H * (H + 1), H, H, N * H, N, N, N * H, N * H, N)
        starts = list(accumulate(sizes, initial=0))
        slices = [slice(start, start + size) for start, size in zip(starts, sizes)]
        aux, end = starts[-1], starts[-1] + 5 * N * H
        self.slices = Families(*slices, *(slice(aux + k, end, 5) for k in range(5)))
        self.size = end

    @staticmethod
    def pairs(nodes, heuristics):
        """The ``(node, heuristic)`` pairs in pair order, one at a time."""
        return product(nodes, heuristics)

    def positions(self, heuristics):
        """The ``(heuristic, position)`` of each ``x`` variable in order, one at a time."""
        return ((h, p) for h in heuristics for p in range(self.heuristics + 1))

    def split(self, values: list) -> Families:
        """Each family's values, out of a list in variable order."""
        return Families(*map(values.__getitem__, self.slices))

    def join(self, lists: Families) -> list:
        """One list in variable order, out of each family's values."""
        values = [None] * self.size
        for where, items in zip(self.slices, lists):
            values[where] = items
        return values

    def x_rows(self, x: list) -> list:
        """Per heuristic, its ``x`` at positions 0 to H."""
        width = self.heuristics + 1
        return [x[start:start + width] for start in range(0, len(x), width)]

    def x_columns(self, x: list) -> list:
        """Per position 0 to H, the ``x`` of every heuristic there."""
        width = self.heuristics + 1
        return [x[p::width] for p in range(width)]

    def x_of(self, positions: list) -> list:
        """The ``x`` values that put heuristic ``j`` at ``positions[j]``."""
        return [1 if at == p else 0 for at in positions for p in range(self.heuristics + 1)]

    def pair_heuristic(self, items: list) -> list:
        """Per pair, its heuristic's item of a per-heuristic list."""
        return list(items) * self.nodes

    def pair_node(self, items: list) -> list:
        """Per pair, its node's item of a list with one item per node."""
        return [item for item in items for _ in range(self.heuristics)]

    def by_node(self, items: list):
        """Per node, in turn, its run of a per-node list."""
        run = len(items) // (self.nodes or 1)
        return (items[i * run:(i + 1) * run] for i in range(self.nodes))

    def node_major(self, *lists: list):
        """Node by node, each list's run for that node, as one stream."""
        return _flat(_flat(zip(*map(self.by_node, lists))))


class MiqpVariable(NamedTuple):
    name: str
    kind: str  # "binary" | "integer"
    lower: int
    upper: int
    family: str


class _Columns(Sequence):
    """Read-only sequence held in the flat lists that ``columns`` names."""

    __slots__ = ()
    columns: tuple = ()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._item, range(len(self))[index]))
        return self._item(range(len(self))[index])

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, column) == getattr(other, column) for column in self.columns)


def variable_names(heuristics, nodes) -> list:
    """The name of every variable of the model, in variable order."""
    at = Layout(len(heuristics), len(nodes))
    pairs = [f"[{n}][{h}]" for n, h in at.pairs(nodes, heuristics)]
    return at.join(Families(
        [f"x[{h}][{p}]" for h, p in at.positions(heuristics)],
        *([f"{family}[{h}]" for h in heuristics] for family in "tp"),
        ["s" + pair for pair in pairs],
        *([f"{family}[{n}]" for n in nodes] for family in ("sN", "pmin")),
        *([family + pair for pair in pairs] for family in "zf"),
        [f"tN[{n}]" for n in nodes],
        *([family + pair for pair in pairs] for family in "mywuv")))


class VariableRows(_Columns):
    """Variables, each read as a ``MiqpVariable``."""

    columns = ("names", "attributes")
    __slots__ = columns

    def __init__(self, names: list, attributes: list) -> None:
        self.names, self.attributes = names, attributes

    @classmethod
    def declare(cls, heuristics: tuple, nodes: tuple, horizon: dict) -> VariableRows:
        """Every variable of the model, once, in variable order."""
        H, N = len(heuristics), len(nodes)
        at = Layout(H, N)
        budgets = {bound: ("integer", 0, bound, "t") for bound in horizon.values()}
        records = Families(("binary", 0, 1, "x"), None, ("integer", 0, H, "p"),  # t: below
                           ("binary", 0, 1, "s"), ("binary", 0, 1, "s_node"),
                           ("integer", 1, H, "p_min"), ("binary", 0, 1, "z"),
                           ("binary", 0, 1, "f"),
                           ("integer", 1, 1 + sum(horizon.values()), "t_node"),
                           ("integer", 1, H, "aux_min_term"), ("binary", 0, 1, "aux_argmin"),
                           ("binary", 0, 1, "aux_after_first"),
                           ("binary", 0, 1, "aux_solved_and_before"),
                           ("binary", 0, 1, "aux_solved_and_first"))
        sizes = map(len, at.split(range(at.size)))
        attributes = at.join(Families(*([record] * size for record, size in zip(records, sizes))))
        attributes[at.slices.t] = [budgets[horizon[h]] for h in heuristics]
        return cls(variable_names(heuristics, nodes), attributes)

    def __len__(self) -> int:
        return len(self.names)

    def _item(self, k: int) -> MiqpVariable:
        return MiqpVariable(self.names[k], *self.attributes[k])


def _extend_ends(ends, lengths) -> None:
    """Append to the array ``ends`` the cumulative term counts of rows of ``lengths``
    terms, ``CHUNK_ROWS`` at a time: ``fromlist`` sizes the array once per slice,
    where ``extend`` from an iterator appends item by item."""
    totals = islice(accumulate(lengths, initial=ends[-1] if ends else 0), 1, None)
    for part in iter(lambda: list(islice(totals, CHUNK_ROWS)), []):
        ends.fromlist(part)


def row_sums(ends, coefs, values: list, *factors, start: int = 0):
    """Each row's terms (coefficient times its variables' values) summed left to
    right from int 0, so integer rows stay exact; ``sum`` would compensate float
    sums on Python 3.12 and later.  Products are formed row by row, never all held.

    ``ends`` are the rows' cumulative term counts; ``coefs`` and each factor's
    variable indices are iterables that begin at the first row's first term,
    whose place in the columns is ``start``."""
    products = coefs
    for variables in factors:
        products = map(mul, products, map(values.__getitem__, variables))
    products = iter(products)
    for end in ends:
        total = 0
        for product in islice(products, end - start):
            total += product
        yield total
        start = end


@lru_cache(maxsize=2)  # reads of rows in turn split each chunk of ``Rows.cids`` once
def _ids(chunk: str) -> list:
    return chunk.split("\n")


class Rows(_Columns):
    """Constraint rows, each read as a tuple with names."""

    columns = ("names", "cids", "ends", "coefs", "vars", "ops", "rhs", "qends", "qcoefs", "qvars")
    __slots__ = columns

    def __init__(self, names: list, quadratic: bool = False) -> None:
        from array import array  # an extension module: mapped only by processes that build rows
        self.names = names
        self.cids, self.coefs, self.vars, self.ops, self.rhs = [], [], [], [], []
        self.ends = array("q")
        self.qends, self.qcoefs, self.qvars = (array("q"), [], []) if quadratic else (None,) * 3

    def add(self, cids, lengths, coefs, variables, ops, rhs, qlengths=(), qcoefs=(), qvars=()):
        """Append a block of rows column by column; ``lengths`` count each row's terms."""
        cids, partial = iter(cids), len(self) % CHUNK_ROWS
        if partial:
            self.cids[-1] = "\n".join(chain(self.cids[-1:], islice(cids, CHUNK_ROWS - partial)))
        self.cids += iter(lambda: "\n".join(islice(cids, CHUNK_ROWS)), "")
        _extend_ends(self.ends, lengths)
        self.coefs += coefs
        self.vars += variables
        self.ops += ops
        self.rhs += rhs
        if self.qends is not None:
            _extend_ends(self.qends, qlengths)
            self.qcoefs += qcoefs
            self.qvars += qvars

    def __len__(self) -> int:
        return len(self.ops)

    def violated(self, values: list) -> list[str]:
        """The ids of the rows that ``values``, one per variable, break, in row order.

        Each row range of ``part_bounds`` is evaluated in a ``workers.map_jobs``
        job, and the jobs' ids are joined in range order; a block below the split
        threshold is one range, which ``map_jobs`` evaluates in the caller
        without forking."""
        from . import workers
        bounds = part_bounds(self)
        rows = [min(chunk * CHUNK_ROWS, len(self)) for chunk in bounds]
        return list(_flat(workers.map_jobs(
            lambda part: self._violated(values, rows[part], rows[part + 1]), len(bounds) - 1)))

    def _violated(self, values: list, first: int, last: int) -> list[str]:
        """The ids of the rows ``first`` to ``last`` that ``values`` break; the
        columns are walked from the range's first term, never copied."""
        start = self.ends[first - 1] if first else 0
        sums = row_sums(islice(self.ends, first, last), islice(self.coefs, start, None), values,
                        islice(self.vars, start, None), start=start)
        if self.qends is not None:  # two variable indices per product term
            start = self.qends[first - 1] if first else 0
            sums = map(add, sums, row_sums(
                islice(self.qends, first, last), islice(self.qcoefs, start, None), values,
                islice(self.qvars, 2 * start, None, 2), islice(self.qvars, 2 * start + 1, None, 2),
                start=start))
        tol = NUMERIC_TOL
        return [self._cid(k) for k, lhs, op, rhs in zip(count(first), sums,
                                                        islice(self.ops, first, last),
                                                        islice(self.rhs, first, last))
                if not (lhs <= rhs + tol if op == "<=" else lhs >= rhs - tol if op == ">="
                        else -tol <= lhs - rhs <= tol)]

    def _cid(self, k: int) -> str:
        return _ids(self.cids[k // CHUNK_ROWS])[k % CHUNK_ROWS]

    def _terms(self, ends: Sequence, coefs: list, variables: list, k: int, arity: int) -> tuple:
        start, end = ends[k - 1] if k else 0, ends[k]
        names = map(self.names.__getitem__, variables[arity * start:arity * end])
        return tuple(_flat(zip(coefs[start:end], *[names] * arity)))

    def _item(self, k: int) -> tuple:
        row = (self._cid(k), self._terms(self.ends, self.coefs, self.vars, k, 1))
        if self.qends is not None:
            row += (self._terms(self.qends, self.qcoefs, self.qvars, k, 2),)
        return (*row, self.ops[k], self.rhs[k])


class Terms(_Columns):
    """The objective's flat terms ``(c1, name1, ...)``."""

    columns = ("names", "coefs", "vars")
    __slots__ = columns

    def __init__(self, names: list, coefs: list, variables: list) -> None:
        self.names, self.coefs, self.vars = names, coefs, variables

    def __len__(self) -> int:
        return 2 * len(self.coefs)

    def _item(self, k: int):
        term, part = divmod(k, 2)
        return self.names[self.vars[term]] if part else self.coefs[term]

    def text(self) -> str:
        """The terms as exported; the opening one drops its plus sign."""
        text = "".join(_pieces(self.coefs, map(self.names.__getitem__, self.vars)))
        return text[3:] if text[1:2] == "+" else text[1:]


@lru_cache(maxsize=1024)
def num(x) -> str:
    """A number as exported: integers (never through ``float``) and integral floats as ints."""
    value = int(x) if isinstance(x, Integral) else float(x)
    return repr(value) if isinstance(value, float) and not value.is_integer() else str(int(value))


@lru_cache(maxsize=1024)
def _spaced(coef) -> str:
    """A coefficient as it follows an earlier term, such as `` + 1 `` or `` - 12 ``."""
    return f" {'+' if coef >= 0 else '-'} {num(abs(coef))} "


@lru_cache(maxsize=1024)
def _lead(coef) -> str:
    """A coefficient as it opens a row, such as ``1 `` or ``- 12 ``."""
    return f"{'' if coef >= 0 else '- '}{num(abs(coef))} "


def _pieces(coefs: list, names) -> list:
    """Two slots per term, each coefficient's spaced text and then its variable's name."""
    pieces = [""] * (2 * len(coefs))
    pieces[::2] = map(_spaced, coefs)
    pieces[1::2] = names
    return pieces


def part_bounds(rows: Rows) -> list:
    """The chunk ranges that ``rows`` split into, as ``[0, ..., len(rows.cids)]``:
    ``min(workers, len(rows) // PART_ROWS)`` ranges of near-equal chunk counts, or
    one range, with nothing imported, below ``2 * PART_ROWS`` rows."""
    chunks, parts = len(rows.cids), len(rows) // PART_ROWS
    if parts > 1:
        from . import workers  # read through the module, where tests replace it
        parts = min(workers._worker_count(), parts)
    parts = max(parts, 1)
    return [chunks * part // parts for part in range(parts + 1)]


def row_chunks(rows: Rows, first_chunk: int = 0, end_chunk: int | None = None):
    """The rows of chunks ``first_chunk`` to ``end_chunk`` (by default all) as
    text lines, ``CHUNK_ROWS`` rows per chunk (see the module docstring)."""
    names, coefs, variables = rows.names, rows.coefs, rows.vars
    for first, ids in zip(range(first_chunk * CHUNK_ROWS, len(rows), CHUNK_ROWS),
                          islice(rows.cids, first_chunk, end_chunk)):
        last = min(first + CHUNK_ROWS, len(rows))
        bounds = rows.ends[first - 1:last] if first else [0, *rows.ends[:last]]
        start, stop = bounds[0], bounds[-1]
        pieces = _pieces(coefs[start:stop], map(names.__getitem__, variables[start:stop]))
        ops = rows.ops[first:last]
        if rows.qends is not None:  # one join per quadratic row, of which there is one per node
            qb = rows.qends[first - 1:last] if first else [0, *rows.qends[:last]]
            pairs = map(names.__getitem__, rows.qvars[2 * qb[0]:2 * qb[-1]])
            products = _pieces(rows.qcoefs[qb[0]:qb[-1]],
                               [f"{a}*{b}" for a, b in zip(pairs, pairs)])
            ops = [f"{''.join(products[2 * (a - qb[0]):2 * (b - qb[0])])[1:]} {op}"
                   for a, b, op in zip(qb, qb[1:], ops)]
            del products  # the largest transient of a chunk: freed before the chunk's join
        tail = ""  # the previous row's operator, right-hand side and newline
        for cid, at, op, rhs in zip(ids.split("\n"), bounds, ops,
                                    map(num, rows.rhs[first:last])):
            pieces[2 * (at - start)] = f"{tail}{cid}: {_lead(coefs[at])}"
            tail = f" {op} {rhs}\n"
        pieces.append(tail)
        yield "".join(pieces)
