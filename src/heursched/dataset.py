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

A ``Dataset`` indexes its observations once, when it is constructed:
``registration_index(h)`` is a dict lookup, and ``tau_column(h)`` is a
read-only map from node id to the iterations heuristic ``h`` needed there,
holding its successful calls only.  Breakpoints, replay tables, the greedy
builder, the exact oracle and the MIQP model all read these columns
instead of rescanning the observations.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import InputError

DATASET_HEADER = "heuristic,node,iterations_to_solution,iterations_executed,duration_seconds"


def validate_identifier(value: str, what: str) -> None:
    """Reject identifiers that would break the line-oriented wire formats."""
    if not isinstance(value, str) or not value:
        raise InputError(f"{what} identifier must be a non-empty string, got {value!r}")
    if "," in value or "\n" in value or "\r" in value or value.startswith("#"):
        raise InputError(f"invalid {what} identifier {value!r}: "
                         "commas, newlines and a leading '#' are reserved")


def read_rows(source: str, header: str, what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each data row of a headed CSV text.

    Blank lines and lines starting with ``#`` are skipped, the first other
    line must equal ``header``, and every row after it must have as many
    comma-separated fields as the header.  Fields are stripped, never
    unquoted.  ``what`` names the format in the missing-header error.
    """
    width = header.count(",") + 1
    header_found = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_found:
            if line != header:
                raise InputError(f"line {lineno}: expected header {header!r}, got {line!r}")
            header_found = True
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != width:
            raise InputError(f"line {lineno}: expected {width} fields, got {len(fields)}")
        yield lineno, fields
    if not header_found:
        raise InputError(f"{what} is missing its header line")


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
        if not isinstance(self.iterations_executed, int) or self.iterations_executed < 1:
            raise InputError(
                f"iterations_executed must be a positive integer, got {self.iterations_executed!r}")
        tau = self.iterations_to_solution
        if tau is not None:
            if not isinstance(tau, int) or tau < 1:
                raise InputError(f"iterations_to_solution must be a positive integer, got {tau!r}")
            if tau > self.iterations_executed:
                raise InputError(
                    f"iterations_to_solution ({tau}) exceeds iterations_executed "
                    f"({self.iterations_executed}) for ({self.heuristic}, {self.node})")
        duration = self.duration_seconds
        if duration is not None and not (math.isfinite(duration) and duration >= 0):
            raise InputError(f"duration_seconds must be finite and nonnegative, got {duration!r}")

    @property
    def succeeded(self) -> bool:
        return self.iterations_to_solution is not None


@dataclass(frozen=True)
class Dataset:
    """Immutable training dataset with registered heuristic and node ids."""

    heuristics: tuple[str, ...]
    nodes: tuple[str, ...]
    observations: tuple[Observation, ...]
    _registration: dict = field(init=False, repr=False, compare=False, default=None)
    _node_set: frozenset = field(init=False, repr=False, compare=False, default=None)
    _observed: dict = field(init=False, repr=False, compare=False, default=None)
    _taus: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        registration = {h: i for i, h in enumerate(self.heuristics)}
        if len(registration) != len(self.heuristics):
            raise InputError("duplicate heuristic registration")
        node_set = frozenset(self.nodes)
        if len(node_set) != len(self.nodes):
            raise InputError("duplicate node registration")
        observed: dict[str, dict[str, Observation]] = {h: {} for h in self.heuristics}
        taus: dict[str, dict[str, int]] = {h: {} for h in self.heuristics}
        for obs in self.observations:
            by_node = observed.get(obs.heuristic)
            if by_node is None:
                raise InputError(f"observation references unregistered heuristic {obs.heuristic!r}")
            if obs.node not in node_set:
                raise InputError(f"observation references unregistered node {obs.node!r}")
            if obs.node in by_node:
                raise InputError(f"duplicate observation for pair ({obs.heuristic}, {obs.node})")
            by_node[obs.node] = obs
            if obs.iterations_to_solution is not None:
                taus[obs.heuristic][obs.node] = obs.iterations_to_solution
        object.__setattr__(self, "_registration", registration)
        object.__setattr__(self, "_node_set", node_set)
        object.__setattr__(self, "_observed", observed)
        object.__setattr__(self, "_taus",
                           {h: MappingProxyType(column) for h, column in taus.items()})

    @classmethod
    def from_observations(cls, observations) -> "Dataset":
        """Build a dataset registering ids in first-appearance order."""
        observations = tuple(observations)
        heuristics = tuple(dict.fromkeys(obs.heuristic for obs in observations))
        nodes = tuple(dict.fromkeys(obs.node for obs in observations))
        return cls(heuristics, nodes, observations)

    def observation(self, heuristic: str, node: str) -> Observation | None:
        self._require_heuristic(heuristic)
        self._require_node(node)
        return self._observed[heuristic].get(node)

    def tau_column(self, heuristic: str) -> Mapping[str, int]:
        """Read-only map from node id to the heuristic's iterations-to-solution.

        Holds successful calls only: failed and unobserved nodes are absent.
        """
        self._require_heuristic(heuristic)
        return self._taus[heuristic]

    def iterations_to_solution(self, heuristic: str, node: str) -> int | None:
        """Iterations the heuristic needed at the node; None means failure.

        Unobserved pairs count as failures (the call was never made).
        """
        column = self.tau_column(heuristic)
        self._require_node(node)
        return column.get(node)

    def registration_index(self, heuristic: str) -> int:
        self._require_heuristic(heuristic)
        return self._registration[heuristic]

    def _require_heuristic(self, heuristic: str) -> None:
        if heuristic not in self._registration:
            raise InputError(f"unknown heuristic {heuristic!r}")

    def _require_node(self, node: str) -> None:
        if node not in self._node_set:
            raise InputError(f"unknown node {node!r}")


@dataclass(frozen=True)
class IterationCostProfile:
    """Average seconds per iteration, per heuristic.  Strictly positive."""

    seconds_per_iteration: dict[str, float]

    def __post_init__(self) -> None:
        for heuristic, cost in self.seconds_per_iteration.items():
            if not (math.isfinite(cost) and cost > 0):
                raise InputError(
                    f"iteration cost for {heuristic!r} must be finite and positive, got {cost!r}")

    def __getitem__(self, heuristic: str) -> float:
        try:
            return self.seconds_per_iteration[heuristic]
        except KeyError:
            raise InputError(f"no iteration cost recorded for heuristic {heuristic!r}") from None

    def __contains__(self, heuristic: str) -> bool:
        return heuristic in self.seconds_per_iteration

    @classmethod
    def uniform(cls, heuristics, cost: float = 1.0) -> "IterationCostProfile":
        return cls({h: cost for h in heuristics})


def _parse_positive_int(text: str, lineno: int, column: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise InputError(f"line {lineno}: {column} must be an integer, got {text!r}") from None
    if value < 1:
        raise InputError(f"line {lineno}: {column} must be positive, got {value}")
    return value


def load_dataset(source: str) -> Dataset:
    """Parse dataset CSV text.

    Expected header: ``heuristic,node,iterations_to_solution,iterations_executed,duration_seconds``.
    An empty or ``inf`` (any case) iterations_to_solution encodes a failed
    call; an empty duration means the duration was not tracked.  Lines
    starting with ``#`` are comments.  Fields are never quoted.
    """
    observations: list[Observation] = []
    seen: set[tuple[str, str]] = set()
    for lineno, fields in read_rows(source, DATASET_HEADER, "dataset"):
        heuristic, node, tau_text, executed_text, duration_text = fields
        if tau_text == "" or tau_text.lower() == "inf":
            tau = None
        else:
            tau = _parse_positive_int(tau_text, lineno, "iterations_to_solution")
        executed = _parse_positive_int(executed_text, lineno, "iterations_executed")
        if duration_text == "":
            duration = None
        else:
            try:
                duration = float(duration_text)
            except ValueError:
                raise InputError(
                    f"line {lineno}: duration_seconds must be a number, got {duration_text!r}"
                ) from None
        try:
            obs = Observation(heuristic, node, tau, executed, duration)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        if (heuristic, node) in seen:
            raise InputError(f"line {lineno}: duplicate row for pair ({heuristic}, {node})")
        seen.add((heuristic, node))
        observations.append(obs)
    return Dataset.from_observations(observations)


def dump_dataset(d: Dataset) -> str:
    """Serialize a dataset back to its CSV wire format."""
    lines = [DATASET_HEADER]
    for obs in d.observations:
        tau = "inf" if obs.iterations_to_solution is None else str(obs.iterations_to_solution)
        duration = "" if obs.duration_seconds is None else repr(float(obs.duration_seconds))
        lines.append(f"{obs.heuristic},{obs.node},{tau},{obs.iterations_executed},{duration}")
    return "\n".join(lines) + "\n"


def avg_iteration_cost(d: Dataset) -> IterationCostProfile:
    """Average seconds per iteration for each heuristic.

    Computed as total recorded duration divided by total iterations
    executed, over the observations that carry a duration (failed calls
    included: their iterations cost real time too).  Heuristics without
    any usable duration data fall back to 1.0 second per iteration, i.e.
    pure-iteration costing.
    """
    costs: dict[str, float] = {}
    for heuristic in d.heuristics:
        timed = [o for o in d._observed[heuristic].values() if o.duration_seconds is not None]
        # fsum: exactly rounded, so the average ignores observation order
        total_seconds = math.fsum(o.duration_seconds for o in timed)
        if not timed:
            costs[heuristic] = 1.0
        elif total_seconds <= 0.0:
            warnings.warn(f"no usable duration data for heuristic {heuristic!r}; "
                          "falling back to 1.0 s/iteration")
            costs[heuristic] = 1.0
        else:
            costs[heuristic] = total_seconds / sum(o.iterations_executed for o in timed)
    return IterationCostProfile(costs)


def breakpoints(d: Dataset, heuristic: str) -> list[int]:
    """Sorted distinct finite iterations-to-solution values of a heuristic.

    These are the only iteration budgets worth considering: coverage only
    changes at observed values while cost keeps growing in between.
    """
    return sorted(set(d.tau_column(heuristic).values()))
