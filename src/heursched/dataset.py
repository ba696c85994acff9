"""Training data for schedule learning.

A dataset is a collection of observations, one per (heuristic, node) call:
how many iterations the heuristic needed before it found a feasible
solution at that node (or that it never did), how many iterations the call
actually executed, and optionally the wall-clock duration of the call.

Heuristic and node identifiers are registered in first-appearance order;
that order is reused for deterministic tie-breaking downstream.  Pairs
without an observation are treated as failed calls that executed zero
iterations, since a data collector may simply never have run that
heuristic at that node.

``load_dataset`` splits a text that passes an all-clear test (ASCII, the
header line first, a line feed last, no ``#``, no blank line and no
whitespace but line feeds) in line-aligned chunks of about ``CHUNK``
characters at C speed; it checks each chunk's field counts and ids as a whole
and its rows with ``_rows_clear``, the one batch form of ``check_row``.  On
any doubt it reads the text again from line 1 with the per-line reader, which
calls ``check_row`` on every row and names the line of the first error.
``dump_dataset`` takes no Python step per row either: each distinct value of
a column is printed once, and each field's texts are laid out by stride
slices, gathered through the wire order unless it is node-major, and joined.

A ``Dataset`` numbers its nodes 0..N-1 in registration order and holds
columns: per heuristic, a tau, an executed-count and a duration list by node
number (``None`` where no row exists; a tau also for a failed call), the
sorted breakpoints, and one wire-order index, the pair number
``node_number * H + heuristic_number`` of each row as it arrived: whichever
constructor built it, a ``range`` whenever it equals one, else a list.
``tau_column(h)`` is a read-only ``Mapping`` view of a tau list (node id to
tau, successful calls only); package code reads the list,
``tau_column(h).taus``.  Every constructor fills the same columns, and a
filled executed cell marks a repeated pair.  ``Dataset.observations`` is
built on first access only.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType

from .errors import InputError, finite, shown

DATASET_HEADER = "heuristic,node,iterations_to_solution,iterations_executed,duration_seconds"
# the largest iteration count accepted: costs and averages go through float,
# which holds every integer up to 2**53 exactly
MAX_COUNT = 2 ** 53
# the all-clear parse splits the rows in line-aligned chunks of about this many
# characters, so it never holds more than one chunk's field strings
CHUNK = 1 << 16
# a text holding any of these is read line by line: a comment, a blank line or
# ASCII whitespace other than the line feed, which the line reader strips
_UNCLEAR = ("#", "\n\n", " ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def validate_identifier(value: str, what: str) -> None:
    """Reject identifiers that would not survive the line-oriented wire formats.

    ``content_lines`` splits lines with ``str.splitlines`` and ``read_rows``
    strips every field, so an id may hold no line break of any kind and may
    not start or end with whitespace.
    """
    if not isinstance(value, str) or not value:
        raise InputError(f"{what} identifier must be a non-empty string, got {value!r}")
    if "," in value or "\n" in value or "\r" in value or value.startswith("#"):
        raise InputError(f"invalid {what} identifier {value!r}: "
                         "commas, newlines and a leading '#' are reserved")
    if value.splitlines() != [value]:
        raise InputError(f"invalid {what} identifier {value!r}: line breaks are reserved")
    if value.strip() != value:
        raise InputError(f"invalid {what} identifier {value!r}: "
                         "leading and trailing whitespace would be stripped")


def content_lines(source: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)``, stripped, for each line of a line-oriented text
    that is neither blank nor a comment (starting with ``#``)."""
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def read_rows(source: str, header: str, what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each data row of a headed CSV text.

    Of the ``content_lines``, the first must equal ``header``, and every one
    after it must have as many comma-separated fields as the header.  Fields
    are stripped, never unquoted.  ``what`` names the format in the
    missing-header error.
    """
    width = header.count(",") + 1
    lines = content_lines(source)
    lineno, line = next(lines, (0, None))
    if line is None:
        raise InputError(f"{what} is missing its header line")
    if line != header:
        raise InputError(f"line {lineno}: expected header {header!r}, got {line!r}")
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) != width:
            raise InputError(f"line {lineno}: expected {width} fields, got {len(fields)}")
        yield lineno, list(map(str.strip, fields))


def check_count(value: int, what: str) -> None:
    """Reject an iteration count that is not an integer from 1 to ``MAX_COUNT``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InputError(f"{what} must be a positive integer, got {value!r}")
    if value > MAX_COUNT:  # not printed: it may have more digits than str() allows
        raise InputError(f"{what} must be at most 2**53 = {MAX_COUNT}")


def parse_int(text: str) -> int:
    """``int(text)``, except that a decimal text with more digits than ``int()``
    converts reads as ``MAX_COUNT + 1``, above every count limit."""
    try:
        return int(text)
    except ValueError:
        if not text.isdecimal():
            raise
    return MAX_COUNT + 1


def check_row(heuristic: str, node: str, tau: int | None, executed: int,
              duration: float | None) -> None:
    """Reject a row's counts and duration; its ids are checked by the caller."""
    check_count(executed, "iterations_executed")
    if tau is not None:
        check_count(tau, "iterations_to_solution")
        if tau > executed:
            raise InputError(f"iterations_to_solution ({tau}) exceeds iterations_executed "
                             f"({executed}) for ({heuristic}, {node})")
    if duration is not None:
        check_duration(duration)


def check_duration(duration: float) -> None:
    """Reject a duration that is not a finite, nonnegative int or float."""
    if not isinstance(duration, (int, float)) or isinstance(duration, bool):
        raise InputError(f"duration_seconds must be a number, got {duration!r}")
    if not (finite(duration) and duration >= 0):
        raise InputError(f"duration_seconds must be finite and nonnegative, got {shown(duration)}")


def _rows_clear(taus, executed, durations) -> bool:
    """Whether ``check_row`` surely accepts each count of ``executed``, (tau, count)
    pair of ``zip(taus, executed)`` and duration of ``durations``, and so every row
    made of them, a tau of None or its count and a duration of None too; False
    when in doubt.  Types are tested value by value, the rest over distinct values
    or by sum and minimum.  A caller whose equal values share a type may pass those."""
    if not (set(map(type, executed)) <= {int} and set(map(type, taus)) <= {int, type(None)}
            and set(map(type, durations)) <= {int, float}):
        return False
    counts = set(executed)
    try:  # a sum is finite only when every term is; an int beyond floats overflows
        return (1 <= min(counts, default=1) and max(counts, default=1) <= MAX_COUNT
                and all(tau is None or 1 <= tau <= count for tau, count in set(zip(taus, executed)))
                and math.isfinite(sum(durations)) and min(durations, default=0.0) >= 0.0)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Observation:
    """One heuristic call at one node.

    ``iterations_to_solution`` is ``None`` when the call found no feasible
    solution; otherwise it counts the iterations up to the first solution
    and can never exceed ``iterations_executed``.
    """

    heuristic: str
    node: str
    iterations_to_solution: int | None
    iterations_executed: int
    duration_seconds: float | None = None

    def __post_init__(self) -> None:
        validate_identifier(self.heuristic, "heuristic")
        validate_identifier(self.node, "node")
        check_row(self.heuristic, self.node, self.iterations_to_solution,
                  self.iterations_executed, self.duration_seconds)

    @property
    def succeeded(self) -> bool:
        return self.iterations_to_solution is not None


def _require_observation(obs) -> None:
    if not isinstance(obs, Observation):
        raise InputError(f"observations must be Observation records, got {obs!r}")


class TauColumn(Mapping):
    """Read-only view of a tau list ``taus`` as node id to tau, successful calls only.

    ``numbers`` maps each node id to its number, the index into ``taus``.
    """

    __slots__ = ("taus", "numbers")

    def __init__(self, taus: tuple, numbers: Mapping) -> None:
        self.taus, self.numbers = taus, numbers

    def __getitem__(self, node: str) -> int:
        tau = self.taus[self.numbers[node]]
        if tau is None:
            raise KeyError(node)
        return tau

    def __iter__(self) -> Iterator[str]:
        return (node for node, tau in zip(self.numbers, self.taus) if tau is not None)

    def __len__(self) -> int:
        return len(self.taus) - self.taus.count(None)


@dataclass(frozen=True)
class Dataset:
    """Immutable training dataset with registered heuristic and node ids."""

    heuristics: tuple[str, ...]
    nodes: tuple[str, ...]
    observations: tuple[Observation, ...]
    _registration: dict = field(init=False, repr=False, compare=False, default=None)
    _numbers: dict = field(init=False, repr=False, compare=False, default=None)
    _taus: dict = field(init=False, repr=False, compare=False, default=None)
    _breakpoints: dict = field(init=False, repr=False, compare=False, default=None)
    _executed: list = field(init=False, repr=False, compare=False, default=None)
    _durations: list = field(init=False, repr=False, compare=False, default=None)
    _order: Sequence = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        for name in ("heuristics", "nodes", "observations"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for heuristic in self.heuristics:
            validate_identifier(heuristic, "heuristic")
        for node in self.nodes:
            validate_identifier(node, "node")
        self._index(self.heuristics, self.nodes)
        width = len(self.heuristics)
        taus, executed, durations = ([[None] * len(self.nodes) for _ in self.heuristics]
                                     for _ in range(3))
        order = []
        for obs in self.observations:
            _require_observation(obs)
            if obs.heuristic not in self._registration:
                raise InputError(f"observation references unregistered heuristic {obs.heuristic!r}")
            if obs.node not in self._numbers:
                raise InputError(f"observation references unregistered node {obs.node!r}")
            h, number = self._registration[obs.heuristic], self._numbers[obs.node]
            if executed[h][number] is not None:
                raise InputError(f"duplicate observation for pair ({obs.heuristic}, {obs.node})")
            taus[h][number] = obs.iterations_to_solution
            executed[h][number] = obs.iterations_executed
            durations[h][number] = obs.duration_seconds
            order.append(number * width + h)
        self._store(taus, executed, durations, order)

    @classmethod
    def _from_columns(cls, heuristics, nodes, taus, executed, durations, order) -> "Dataset":
        """Trusted constructor: the ids are valid and the columns (see ``_store``)
        hold rows that passed ``check_row``."""
        d = cls.__new__(cls)
        d._index(heuristics, nodes)
        d._store(taus, executed, durations, order)
        return d

    def _index(self, heuristics, nodes) -> None:
        """Register and number the ids."""
        registration = {h: i for i, h in enumerate(heuristics)}
        if len(registration) != len(heuristics):
            raise InputError("duplicate heuristic registration")
        numbers = {n: i for i, n in enumerate(nodes)}
        if len(numbers) != len(nodes):
            raise InputError("duplicate node registration")
        for name, value in (("heuristics", heuristics), ("nodes", nodes),
                            ("_registration", registration), ("_numbers", numbers)):
            object.__setattr__(self, name, value)

    def _store(self, taus, executed, durations, order) -> None:
        """Store the columns, one list per heuristic indexed by node number (None
        where the pair has no row), and ``order``, the pair number ``node_number
        * len(heuristics) + heuristic_number`` of each row in wire order, as a
        range whenever it equals one."""
        if isinstance(order, list) and order == list(range(len(order))):
            order = range(len(order))
        view = MappingProxyType(self._numbers)
        object.__setattr__(self, "_taus", {h: TauColumn(tuple(c), view)
                                           for h, c in zip(self.heuristics, taus)})
        object.__setattr__(self, "_breakpoints", {h: sorted(set(c).difference((None,)))
                                                  for h, c in zip(self.heuristics, taus)})
        for name, value in (("_executed", executed), ("_durations", durations), ("_order", order)):
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        # reached only while unset: the observations of a _from_columns dataset
        if name != "observations":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        width = len(self.heuristics)
        observations = tuple(self.observation(self.heuristics[pair % width],
                                              self.nodes[pair // width]) for pair in self._order)
        object.__setattr__(self, "observations", observations)
        return observations

    @classmethod
    def from_observations(cls, observations) -> "Dataset":
        """Build a dataset registering ids in first-appearance order."""
        observations = tuple(observations)
        for obs in observations:
            _require_observation(obs)
        heuristics = tuple(dict.fromkeys(obs.heuristic for obs in observations))
        nodes = tuple(dict.fromkeys(obs.node for obs in observations))
        return cls(heuristics, nodes, observations)

    def observation(self, heuristic: str, node: str) -> Observation | None:
        self._require_heuristic(heuristic)
        self._require_node(node)
        h, number = self._registration[heuristic], self._numbers[node]
        if self._executed[h][number] is None:
            return None
        return Observation(heuristic, node, self._taus[heuristic].taus[number],
                           self._executed[h][number], self._durations[h][number])

    def tau_column(self, heuristic: str) -> TauColumn:
        """Read-only map from node id to the heuristic's iterations-to-solution.

        Holds successful calls only: failed and unobserved nodes are absent.
        Its ``taus`` is the tau list by node number.
        """
        self._require_heuristic(heuristic)
        return self._taus[heuristic]

    def iterations_to_solution(self, heuristic: str, node: str) -> int | None:
        """Iterations the heuristic needed at the node; None means failure.

        Unobserved pairs count as failures (the call was never made).
        """
        column = self.tau_column(heuristic)
        self._require_node(node)
        return column.taus[self._numbers[node]]

    def registration_index(self, heuristic: str) -> int:
        self._require_heuristic(heuristic)
        return self._registration[heuristic]

    def _require_heuristic(self, heuristic: str) -> None:
        if heuristic not in self._registration:
            raise InputError(f"unknown heuristic {heuristic!r}")

    def _require_node(self, node: str) -> None:
        if node not in self._numbers:
            raise InputError(f"unknown node {node!r}")


@dataclass(frozen=True)
class IterationCostProfile:
    """Average seconds per iteration, per heuristic.  Strictly positive."""

    seconds_per_iteration: dict[str, float]

    def __post_init__(self) -> None:
        for heuristic, cost in self.seconds_per_iteration.items():
            if not (finite(cost) and cost > 0):
                raise InputError(f"iteration cost for {heuristic!r} must be finite and positive, "
                                 f"got {shown(cost)}")

    def __getitem__(self, heuristic: str) -> float:
        try:
            return self.seconds_per_iteration[heuristic]
        except KeyError:
            raise InputError(f"no iteration cost recorded for heuristic {heuristic!r}") from None


def _read_count(text: str, cache: dict, lineno: int, column: str) -> int | None:
    """Parse a count text (``inf``: None, a failed call, as a tau) and cache it;
    ``check_row`` rejects one above MAX_COUNT, after any bad id on its line."""
    if column == "iterations_to_solution" and text.lower() == "inf":
        value = None
    else:
        try:
            value = parse_int(text)
        except ValueError:
            raise InputError(f"line {lineno}: {column} must be an integer, got {text!r}") from None
        if value < 1:
            raise InputError(f"line {lineno}: {column} must be positive, got {value}")
    cache[text] = value
    return value


def load_dataset(source: str) -> Dataset:
    """Parse dataset CSV text.

    Expected header: ``heuristic,node,iterations_to_solution,iterations_executed,duration_seconds``.
    An empty or ``inf`` (any case) iterations_to_solution encodes a failed
    call; an empty duration means the duration was not tracked.  Lines
    starting with ``#`` are comments.  Fields are never quoted.

    A text that passes an all-clear test is split in chunks at C speed; any
    other, or any text in doubt, is read again line by line, so that every
    error names its line.
    """
    d = _load_chunks(source)
    return _load_lines(source) if d is None else d


def _load_chunks(source: str) -> Dataset | None:
    """The dataset of a text that passes the all-clear test, else None.

    The text must be ASCII, start with the header line, end with one line feed
    and hold none of ``_UNCLEAR``; each chunk must pass ``_read_chunk``, and no
    pair may repeat.
    """
    if not (_clear(source) and source.startswith(DATASET_HEADER + "\n")
            and source.endswith("\n")):
        return None
    registration: dict[str, int] = {}
    numbers: dict[str, int] = {}
    caches = ({"": None}, {})  # count text to value, per count column
    # per row, in file order: heuristic number, node number, tau, executed, duration
    rows: tuple[list, ...] = ([], [], [], [], [])
    start = len(DATASET_HEADER) + 1
    while start < len(source):
        end = source.find("\n", start + CHUNK) + 1 or len(source)
        try:
            parsed = _read_chunk(source[start:end], registration, numbers, caches)
        except ValueError:  # InputError included
            return None
        if parsed is None:
            return None
        for column, values in zip(rows, parsed):
            column.extend(values)
        start = end
    hs, ns, taus, counts, durations = rows
    width, height = len(registration), len(numbers)
    # complete and node-major, as simulated data is: row r is node r // width,
    # heuristic r % width, since each node's block holds one node and the
    # blocks meet the nodes in registration order
    if len(hs) == width * height and all(hs[h::width].count(h) == height
                                         and ns[h::width] == ns[::width] for h in range(width)):
        columns = [[column[h::width] for h in range(width)] for column in (taus, counts, durations)]
        order: Sequence = range(len(hs))
    else:
        columns = [[[None] * height for _ in range(width)] for _ in range(3)]
        tau_cells, executed_cells, duration_cells = columns
        order = []
        for h, number, tau, count, duration in zip(*rows):
            if executed_cells[h][number] is not None:
                return None  # a repeated pair
            tau_cells[h][number] = tau
            executed_cells[h][number] = count
            duration_cells[h][number] = duration
            order.append(number * width + h)
    return Dataset._from_columns(tuple(registration), tuple(numbers), *columns, order)


def _read_chunk(chunk: str, registration: dict, numbers: dict,
                caches: tuple[dict, dict]) -> tuple[list, ...] | None:
    """The heuristic numbers, node numbers, taus, executed counts and durations
    of a chunk's rows, registering the new ids.

    None if a line has other than five fields, an id is empty or ``_rows_clear``
    doubts the rows; ``ValueError`` on an invalid count or duration text.
    """
    lines = chunk.count("\n")
    # each line feed becomes a field of its own: every sixth when each line has five
    fields = chunk.replace("\n", ",\n,").split(",")
    if len(fields) != 6 * lines + 1 or fields[5::6].count("\n") != lines:
        return None
    heuristics, nodes, tau_texts, executed_texts, duration_texts = (fields[i:-1:6]
                                                                     for i in range(5))
    # an all-clear field holds no comma, line break, '#' or whitespace, so
    # validate_identifier refuses only an empty id
    if "" in heuristics or "" in nodes:
        return None
    values = []
    for texts, known in ((heuristics, registration), (nodes, numbers)):
        for text in dict.fromkeys(texts):
            if text not in known:
                known[text] = len(known)
        values.append(list(map(known.__getitem__, texts)))
    for texts, cache, column in zip((tau_texts, executed_texts), caches,
                                    ("iterations_to_solution", "iterations_executed")):
        # on an error the line loader names the line: 0 is never shown
        for text in set(texts).difference(cache):
            _read_count(text, cache, 0, column)
        values.append(list(map(cache.__getitem__, texts)))
    durations = {text: float(text) for text in set(duration_texts) if text}
    # parsed values: equal ones share a type, so the distinct ones stand for every row
    taus, counts = values[2:]
    if not _rows_clear(*zip(*set(zip(taus, counts))), durations.values()):
        return None
    durations[""] = None
    values.append(list(map(durations.__getitem__, duration_texts)))
    return tuple(values)


def _clear(text: str) -> bool:
    """Whether the text is ASCII and holds none of ``_UNCLEAR``."""
    return text.isascii() and not any(map(text.__contains__, _UNCLEAR))


def _load_lines(source: str) -> Dataset:
    """``load_dataset`` one line at a time, naming the line of the first error."""
    registration: dict[str, int] = {}
    numbers: dict[str, int] = {}
    # per heuristic number, its tau, executed and duration lists by node number
    # (None where no row was read yet); the node and heuristic number of each row
    taus, executed, durations, row_nodes, row_heuristics = [], [], [], [], []
    # each distinct count text is parsed and checked once per column
    tau_counts: dict[str, int | None] = {"": None}
    executed_counts: dict[str, int] = {}
    for lineno, fields in read_rows(source, DATASET_HEADER, "dataset"):
        heuristic, node, tau_text, executed_text, duration_text = fields
        tau = (tau_counts[tau_text] if tau_text in tau_counts
               else _read_count(tau_text, tau_counts, lineno, "iterations_to_solution"))
        count = executed_counts.get(executed_text) or _read_count(
            executed_text, executed_counts, lineno, "iterations_executed")
        try:
            duration = float(duration_text) if duration_text else None
        except ValueError:
            raise InputError(f"line {lineno}: duration_seconds must be a number, "
                             f"got {duration_text!r}") from None
        h = registration.get(heuristic)
        number = numbers.get(node)
        try:
            if h is None:
                validate_identifier(heuristic, "heuristic")
                h = registration[heuristic] = len(registration)
                for column in (taus, executed, durations):
                    column.append([None] * len(numbers))
            if number is None:
                validate_identifier(node, "node")
                number = numbers[node] = len(numbers)
                for cells in (*taus, *executed, *durations):
                    cells.append(None)
            check_row(heuristic, node, tau, count, duration)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        if executed[h][number] is not None:
            raise InputError(f"line {lineno}: duplicate row for pair ({heuristic}, {node})")
        taus[h][number] = tau
        executed[h][number] = count
        durations[h][number] = duration
        row_nodes.append(number)
        row_heuristics.append(h)
    order = [number * len(registration) + h for number, h in zip(row_nodes, row_heuristics)]
    return Dataset._from_columns(tuple(registration), tuple(numbers), taus, executed, durations,
                                 order)


def dump_dataset(d: Dataset) -> str:
    """Serialize a dataset back to its CSV wire format.

    One flat list holds the header and five texts per row, filled field by field
    and joined.  Each heuristic's texts of a field go by a stride slice to their
    node-major pair places: in that list itself when ``_order`` is the range of
    every pair, else in one list of the field, gathered through ``_order``.
    """
    width, order, nodes = len(d.heuristics), d._order, [node + "," for node in d.nodes]
    pairs = width * len(nodes)
    cells = [DATASET_HEADER + "\n"] + [""] * (5 * len(order))
    in_place = order == range(pairs)
    for field, columns in enumerate((
            ([heuristic + ","] * len(nodes) for heuristic in d.heuristics),
            repeat(nodes, width),
            (_texts(column.taus, _tau_text) for column in d._taus.values()),
            (_texts(column, "{},".format) for column in d._executed),
            (_texts(column, _duration_text) for column in d._durations))):
        texts, start, step = (cells, 1 + field, 5) if in_place else ([""] * pairs, 0, 1)
        for h, column in enumerate(columns):
            texts[start + step * h::step * width] = column
        if not in_place:
            cells[1 + field::5] = map(texts.__getitem__, order)
    return "".join(cells)


def _texts(column: list, text) -> Iterator[str]:
    """``map(text, column)``, calling ``text`` once per distinct value, except in a
    column holding a zero: 0.0 and -0.0 are one key but print apart."""
    texts = {value: text(value) for value in set(column)}
    return map(text if 0 in texts else texts.__getitem__, column)


def _tau_text(tau: int | None) -> str:
    return "inf," if tau is None else f"{tau},"


def _duration_text(duration: float | None) -> str:
    return "\n" if duration is None else f"{float(duration)!r}\n"


def avg_iteration_cost(d: Dataset) -> IterationCostProfile:
    """Average seconds per iteration for each heuristic.

    Computed as total recorded duration divided by total iterations
    executed, over the observations that carry a duration (failed calls
    included: their iterations cost real time too).  Heuristics without
    any usable duration data fall back to 1.0 second per iteration, i.e.
    pure-iteration costing.  A total duration that overflows, or an average
    that underflows to 0, is refused with ``InputError``.
    """
    costs: dict[str, float] = {}
    for heuristic, durations, counts in zip(d.heuristics, d._durations, d._executed):
        timed = [duration for duration in durations if duration is not None]
        # fsum: exactly rounded, so the average ignores row order
        try:
            total_seconds = math.fsum(timed)
        except OverflowError:
            raise InputError(f"total duration of heuristic {heuristic!r} overflows "
                             "the float range") from None
        if not timed:
            costs[heuristic] = 1.0
        elif total_seconds <= 0.0:
            warnings.warn(f"no usable duration data for heuristic {heuristic!r}; "
                          "falling back to 1.0 s/iteration")
            costs[heuristic] = 1.0
        else:
            executed = sum(count for count, duration in zip(counts, durations)
                           if duration is not None)
            costs[heuristic] = total_seconds / executed
            if costs[heuristic] == 0.0:
                raise InputError(f"durations of heuristic {heuristic!r} total {total_seconds!r} s "
                                 f"over {executed} iterations: the average seconds "
                                 "per iteration underflows to 0")
    return IterationCostProfile(costs)


def breakpoints(d: Dataset, heuristic: str) -> list[int]:
    """Sorted distinct finite iterations-to-solution values of a heuristic.

    These are the only iteration budgets worth considering: coverage only
    changes at observed values while cost keeps growing in between.
    """
    d._require_heuristic(heuristic)
    return list(d._breakpoints[heuristic])
