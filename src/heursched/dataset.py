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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import InputError

DATASET_HEADER = "heuristic,node,iterations_to_solution,iterations_executed,duration_seconds"


def validate_identifier(value: str, what: str) -> None:
    """Reject identifiers that would break the line-oriented wire formats."""
    if not isinstance(value, str) or not value:
        raise InputError(f"{what} identifier must be a non-empty string, got {value!r}")
    if "," in value or "\n" in value or "\r" in value or value.startswith("#"):
        raise InputError(f"invalid {what} identifier {value!r}: "
                         "commas, newlines and a leading '#' are reserved")


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
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if len(set(self.heuristics)) != len(self.heuristics):
            raise InputError("duplicate heuristic registration")
        if len(set(self.nodes)) != len(self.nodes):
            raise InputError("duplicate node registration")
        known_h = set(self.heuristics)
        known_n = set(self.nodes)
        index: dict[tuple[str, str], Observation] = {}
        for obs in self.observations:
            if obs.heuristic not in known_h:
                raise InputError(f"observation references unregistered heuristic {obs.heuristic!r}")
            if obs.node not in known_n:
                raise InputError(f"observation references unregistered node {obs.node!r}")
            key = (obs.heuristic, obs.node)
            if key in index:
                raise InputError(f"duplicate observation for pair ({obs.heuristic}, {obs.node})")
            index[key] = obs
        object.__setattr__(self, "_index", index)

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
        return self._index.get((heuristic, node))

    def iterations_to_solution(self, heuristic: str, node: str) -> int | None:
        """Iterations the heuristic needed at the node; None means failure.

        Unobserved pairs count as failures (the call was never made).
        """
        obs = self.observation(heuristic, node)
        return obs.iterations_to_solution if obs is not None else None

    def registration_index(self, heuristic: str) -> int:
        self._require_heuristic(heuristic)
        return self.heuristics.index(heuristic)

    def _require_heuristic(self, heuristic: str) -> None:
        if heuristic not in self._heuristic_set():
            raise InputError(f"unknown heuristic {heuristic!r}")

    def _require_node(self, node: str) -> None:
        if node not in self._node_set():
            raise InputError(f"unknown node {node!r}")

    def _heuristic_set(self) -> set:
        cached = self.__dict__.get("_hset")
        if cached is None:
            cached = set(self.heuristics)
            self.__dict__["_hset"] = cached
        return cached

    def _node_set(self) -> set:
        cached = self.__dict__.get("_nset")
        if cached is None:
            cached = set(self.nodes)
            self.__dict__["_nset"] = cached
        return cached


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
    header_found = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_found:
            if line != DATASET_HEADER:
                raise InputError(f"line {lineno}: expected header {DATASET_HEADER!r}, got {line!r}")
            header_found = True
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 5:
            raise InputError(f"line {lineno}: expected 5 fields, got {len(fields)}")
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
    if not header_found:
        raise InputError("dataset is missing its header line")
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
        timed = [o for o in d.observations
                 if o.heuristic == heuristic and o.duration_seconds is not None]
        # fsum: exactly rounded, so the average ignores observation order
        total_seconds = math.fsum(o.duration_seconds for o in timed)
        total_iterations = sum(o.iterations_executed for o in timed)
        if not timed:
            costs[heuristic] = 1.0
        elif total_iterations == 0 or total_seconds <= 0.0:
            warnings.warn(f"no usable duration data for heuristic {heuristic!r}; "
                          "falling back to 1.0 s/iteration")
            costs[heuristic] = 1.0
        else:
            costs[heuristic] = total_seconds / total_iterations
    return IterationCostProfile(costs)


def breakpoints(d: Dataset, heuristic: str) -> list[int]:
    """Sorted distinct finite iterations-to-solution values of a heuristic.

    These are the only iteration budgets worth considering: coverage only
    changes at observed values while cost keeps growing in between.
    """
    d._require_heuristic(heuristic)
    values = {o.iterations_to_solution for o in d.observations
              if o.heuristic == heuristic and o.succeeded}
    return sorted(values)
