"""Flat column storage of the MIQP model's variables and objective; rows made when read.

``Layout`` is the one place that knows the variable order: each family's
slice of it (``Families`` holds one item per family), and how per-heuristic,
per-node and per-pair lists line up with those slices.  ``VariableRows`` are
the columns ``names`` and ``attributes``, each variable's ``(kind, lower,
upper, family)`` record, one shared tuple for all variables of equal records.
``Terms``, the objective, are ``coefs`` and ``vars``.

No row is held.  ``Rows`` are blocks in row order, one per constraint family:
``(starts, make)``, where ``starts`` holds each unit's first row within the
block (a unit is a node, or the whole of a family of a few rows per
heuristic) and then the block's row count, and ``make(lo, hi)`` returns the
columns of units ``lo`` to ``hi``, a ``Segment``.  So a model holds about 35
bytes per linear row (12 heuristics by 200 nodes), all of it variable names
and records.  ``Rows.segments`` makes a row range in segments of about
``CHUNK_ROWS`` rows, found by bisection and cut to the range, and indexing,
iteration, ``Rows.violated`` and ``row_chunks`` read one segment at a time.
Rows name variables by index and read back with names, as ``(id, (c1, name1,
...), operator, right-hand side)``; a quadratic row adds ``(c1, a1, b1, ...)``
before the operator.  ``part_bounds`` splits at least ``2 * PART_ROWS`` rows
into ranges, at most one per worker: ``Rows.violated`` makes and evaluates,
and ``miqp.export_miqp`` makes and renders, each range in a
``workers.map_jobs`` job.  Fewer rows are one range, run in the caller.

``row_chunks`` renders one ``"".join`` per segment.  A flat list holds two
slots per term, filled by slice assignment: the coefficient's cached spaced
text, such as `` + 3 ``, and the variable's name.  One f-string per row
overwrites its first coefficient slot with the previous row's `` <op>
<rhs>\\n``, the row's id and the coefficient without ``+ ``; every row has a
linear term.  A quadratic row's products, one join per row, precede its
operator.  ``num`` writes integers without passing them through ``float``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, chain, islice, product
from numbers import Integral
from operator import add, eq, mul, sub
from typing import NamedTuple

CHUNK_ROWS = 256  # about the rows of one segment
PART_ROWS = 64 * CHUNK_ROWS  # the fewest rows a range of split rows holds
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

    def split(self, values: Sequence) -> Families:
        """Each family's values, out of a list in variable order."""
        return Families(*map(values.__getitem__, self.slices))

    def join(self, lists: Families) -> list:
        """One list in variable order, out of each family's values."""
        values = [None] * self.size
        for where, items in zip(self.slices, lists):
            values[where] = items
        return values

    def x_rows(self, x: Sequence) -> list:
        """Per heuristic, its ``x`` at positions 0 to H."""
        width = self.heuristics + 1
        return [x[start:start + width] for start in range(0, len(x), width)]

    def x_columns(self, x: Sequence) -> list:
        """Per position 0 to H, the ``x`` of every heuristic there."""
        width = self.heuristics + 1
        return [x[p::width] for p in range(width)]

    def x_of(self, positions: list) -> list:
        """The ``x`` values that put heuristic ``j`` at ``positions[j]``."""
        return [1 if at == p else 0 for at in positions for p in range(self.heuristics + 1)]

    def pair_heuristic(self, items: Sequence) -> list:
        """Per pair, its heuristic's item of a per-heuristic list."""
        return list(items) * self.nodes

    def pair_node(self, items: Sequence) -> list:
        """Per pair, its node's item of a list with one item per node."""
        return [item for item in items for _ in range(self.heuristics)]

    def by_node(self, items: Sequence):
        """Per node, in turn, its run of a per-node list."""
        run = len(items) // (self.nodes or 1)
        return (items[i * run:(i + 1) * run] for i in range(self.nodes))

    def node_major(self, *lists: Sequence):
        """Node by node, each list's run for that node, as one stream."""
        return _flat(_flat(zip(*map(self.by_node, lists))))


class MiqpVariable(NamedTuple):
    name: str
    kind: str  # "binary" | "integer"
    lower: int
    upper: int
    family: str


class _Columns(Sequence):
    """Read-only sequence, equal to one of its type with equal items."""

    __slots__ = ()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._item, range(len(self))[index]))
        return self._item(range(len(self))[index])

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and len(other) == len(self) and all(map(eq, self, other))


class VariableRows(_Columns):
    """Variables, each read as a ``MiqpVariable``."""

    __slots__ = ("names", "attributes")

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
        pairs = [f"[{n}][{h}]" for n, h in at.pairs(nodes, heuristics)]
        names = at.join(Families(
            [f"x[{h}][{p}]" for h in heuristics for p in range(H + 1)],
            *([f"{family}[{h}]" for h in heuristics] for family in "tp"),
            ["s" + pair for pair in pairs],
            *([f"{family}[{n}]" for n in nodes] for family in ("sN", "pmin")),
            *([family + pair for pair in pairs] for family in "zf"),
            [f"tN[{n}]" for n in nodes],
            *([family + pair for pair in pairs] for family in "mywuv")))
        return cls(names, attributes)

    def __len__(self) -> int:
        return len(self.names)

    def _item(self, k: int) -> MiqpVariable:
        return MiqpVariable(self.names[k], *self.attributes[k])


def row_sums(lengths, coefs, values: list, *factors) -> list:
    """Each row's terms (coefficient times its variables' values) summed, at C
    speed: the products' running total from int 0, differenced at the row ends.
    Every row term is an int, so each difference is exact; a single row is its
    total, summed left to right (``sum`` would compensate float sums on Python
    3.12 and later).  ``lengths`` count each row's terms."""
    products = coefs
    for variables in factors:
        products = map(mul, products, map(values.__getitem__, variables))
    totals, ends = list(accumulate(products, initial=0)), list(accumulate(lengths, initial=0))
    return list(map(sub, map(totals.__getitem__, ends[1:]), map(totals.__getitem__, ends)))


class Segment(NamedTuple):
    """Consecutive rows, column by column; linear rows leave the product columns None."""

    ids: list
    lengths: list  # terms per row
    coefs: list
    vars: list
    ops: list
    rhs: list
    qlengths: list | None = None  # products per row, two variable indices each in qvars
    qcoefs: list | None = None
    qvars: list | None = None

    def cut(self, first: int, last: int) -> Segment:
        """Rows ``first`` to ``last``; quadratic blocks make one row per unit, uncut."""
        if first == 0 and last == len(self.ops):
            return self
        ends = list(accumulate(self.lengths, initial=0))
        a, b = ends[first], ends[last]
        return Segment(self.ids[first:last], self.lengths[first:last], self.coefs[a:b],
                       self.vars[a:b], self.ops[first:last], self.rhs[first:last])


def _terms(names: list, lengths: list, coefs: list, variables: list, arity: int) -> list:
    """Per row, its flat ``(c1, name1, ...)`` terms, ``arity`` names per term."""
    named, coefs = map(names.__getitem__, variables), iter(coefs)
    return [tuple(_flat(islice(zip(coefs, *[named] * arity), length))) for length in lengths]


class Rows(_Columns):
    """Constraint rows made block by block (see the module docstring), each read
    as a tuple with names."""

    __slots__ = ("names", "blocks", "offsets")

    def __init__(self, names: list, blocks: list) -> None:
        self.names, self.blocks = names, blocks
        self.offsets = list(accumulate((starts[-1] for starts, _ in blocks), initial=0))

    def __len__(self) -> int:
        return self.offsets[-1]

    def segments(self, first: int = 0, last: int | None = None):
        """Rows ``first`` to ``last`` (by default all), one ``Segment`` at a time."""
        last = len(self) if last is None else last
        for (starts, make), offset in zip(self.blocks, self.offsets):
            a, b = max(first - offset, 0), min(last - offset, starts[-1])
            unit = bisect_right(starts, a) - 1
            while a < b:
                lo = starts[unit]
                end = bisect_left(starts, min(lo + CHUNK_ROWS, b))
                yield Segment(*map(list, make(unit, end))).cut(a - lo, min(b, starts[end]) - lo)
                a, unit = starts[end], end

    def violated(self, values: list) -> list[str]:
        """The ids of the rows that ``values``, one per variable, break, in row order:
        one ``workers.map_jobs`` job per range of ``part_bounds``, joined in order."""
        from . import workers
        bounds = part_bounds(self)
        return list(_flat(workers.map_jobs(
            lambda part: self._violated(values, bounds[part], bounds[part + 1]), len(bounds) - 1)))

    def _violated(self, values: list, first: int, last: int) -> list[str]:
        tol, found = NUMERIC_TOL, []
        for seg in self.segments(first, last):
            sums = row_sums(seg.lengths, seg.coefs, values, seg.vars)
            if seg.qlengths is not None:  # two variable indices per product term
                sums = map(add, sums, row_sums(seg.qlengths, seg.qcoefs, values,
                                               seg.qvars[::2], seg.qvars[1::2]))
            found += [cid for cid, lhs, op, rhs in zip(seg.ids, sums, seg.ops, seg.rhs)
                      if not (lhs <= rhs + tol if op == "<=" else lhs >= rhs - tol if op == ">="
                              else -tol <= lhs - rhs <= tol)]
        return found

    def _named(self, seg: Segment):  # the segment's rows with names
        columns = [seg.ids, _terms(self.names, seg.lengths, seg.coefs, seg.vars, 1)]
        if seg.qlengths is not None:
            columns.append(_terms(self.names, seg.qlengths, seg.qcoefs, seg.qvars, 2))
        return zip(*columns, seg.ops, seg.rhs)

    def __iter__(self):
        return _flat(map(self._named, self.segments()))

    def _item(self, k: int) -> tuple:
        return next(self._named(next(self.segments(k, k + 1))))


class Terms(_Columns):
    """The objective's flat terms ``(c1, name1, ...)``."""

    __slots__ = ("names", "coefs", "vars")

    def __init__(self, names: list, coefs: list, variables: Sequence) -> None:
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
    """The row ranges that ``rows`` split into, as ``[0, ..., len(rows)]``:
    ``min(workers, len(rows) // PART_ROWS)`` ranges of near-equal row counts, or
    one range, with nothing imported, below ``2 * PART_ROWS`` rows."""
    total = len(rows)
    parts = total // PART_ROWS
    if parts > 1:
        from . import workers  # read through the module, where tests replace it
        parts = min(workers._worker_count(), parts)
    parts = max(parts, 1)
    return [total * part // parts for part in range(parts + 1)]


def row_chunks(rows: Rows, first: int = 0, last: int | None = None):
    """The rows ``first`` to ``last`` (by default all) as text lines, one text
    per segment (see the module docstring)."""
    names = rows.names
    for seg in rows.segments(first, last):
        coefs, ops = seg.coefs, seg.ops
        pieces = _pieces(coefs, map(names.__getitem__, seg.vars))
        if seg.qlengths is not None:  # one join per quadratic row, of which there is one per node
            pairs = map(names.__getitem__, seg.qvars)
            products = _pieces(seg.qcoefs, [f"{a}*{b}" for a, b in zip(pairs, pairs)])
            ends = list(accumulate(seg.qlengths, initial=0))
            ops = [f"{''.join(products[2 * a:2 * b])[1:]} {op}"
                   for a, b, op in zip(ends, ends[1:], ops)]
            del products  # the largest transient of a segment: freed before its join
        tail = ""  # the previous row's operator, right-hand side and newline
        for cid, at, op, rhs in zip(seg.ids, accumulate(seg.lengths, initial=0), ops,
                                    map(num, seg.rhs)):
            pieces[2 * at] = f"{tail}{cid}: {_lead(coefs[at])}"
            tail = f" {op} {rhs}\n"
        pieces.append(tail)
        yield "".join(pieces)
