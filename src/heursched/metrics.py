"""Primal-side performance metrics.

The primal gap compares a feasible objective value against the best known
value: 0 when the two agree, 1 when they have opposite signs, otherwise
the absolute difference divided by the larger magnitude — always a number
in [0, 1].  Tracking the gap of the incumbent over time gives a right
continuous step function that starts at 1 (no incumbent yet) and drops at
each improving solution; its area up to a time limit is the primal
integral.  Finding near-optimal incumbents earlier shrinks the area, so
smaller is better.

Maximization problems are handled by negating all objective values first,
which reduces them to the minimization convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataset import read_rows
from .errors import InputError, require_finite

TIMELINE_HEADER = "time_seconds,objective_value"

SENSES = ("min", "max")


def primal_gap(value: float, reference: float) -> float:
    """Gap in [0, 1] between an objective value and a reference value.

    Opposite signs give 1; magnitudes equal to within 1e-9 relative give 0
    (this also covers the all-zero case); otherwise the normalized
    absolute difference.
    """
    if (value < 0 < reference) or (reference < 0 < value):
        return 1.0
    if math.isclose(abs(value), abs(reference), rel_tol=1e-9, abs_tol=0.0):
        return 0.0
    return abs(value - reference) / max(abs(value), abs(reference))


def require_time_limit(horizon: float) -> None:
    """Reject a time limit that is not a finite positive number."""
    require_finite(horizon, "time limit")
    if horizon <= 0:
        raise InputError(f"time limit must be positive, got {horizon!r}")


@dataclass(frozen=True)
class IncumbentTimeline:
    """Time-stamped incumbent objective values from one run.

    Event times are strictly increasing and values strictly improve in
    the problem's sense; ``best_known`` is the reference objective used
    for gap computations.
    """

    events: tuple[tuple[float, float], ...]
    best_known: float
    sense: str = "min"

    def __post_init__(self) -> None:
        if self.sense not in SENSES:
            raise InputError(f"sense must be one of {SENSES}, got {self.sense!r}")
        require_finite(self.best_known, "best_known")
        previous_time = None
        previous_value = None
        for time, value in self.events:
            require_finite(time, "event time")
            require_finite(value, "incumbent value")
            if time < 0:
                raise InputError(f"event times must be nonnegative, got {time!r}")
            if previous_time is not None and time <= previous_time:
                raise InputError(f"event times must be strictly increasing, got {time!r} "
                                 f"after {previous_time!r}")
            if previous_value is not None:
                improved = value < previous_value if self.sense == "min" else value > previous_value
                if not improved:
                    raise InputError(f"incumbent values must strictly improve, got {value!r} "
                                     f"after {previous_value!r}")
            previous_time, previous_value = time, value

    def gap_of(self, value: float) -> float:
        if self.sense == "max":
            return primal_gap(-value, -self.best_known)
        return primal_gap(value, self.best_known)


@dataclass(frozen=True)
class GapFunction:
    """Right-open piecewise-constant gap-over-time function.

    ``breakpoints`` holds (start_time, gap) pairs; the first segment
    starts at time 0 with gap 1 unless an incumbent exists at time 0.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.breakpoints or self.breakpoints[0][0] != 0.0:
            raise InputError("gap function must start at time 0")
        previous = None
        for time, gap in self.breakpoints:
            require_finite(time, "gap breakpoint time")
            if previous is not None and time <= previous:
                raise InputError("gap breakpoints must be strictly increasing in time")
            if not 0.0 <= gap <= 1.0:
                raise InputError(f"gap values must lie in [0, 1], got {gap!r}")
            previous = time

    def value_at(self, time: float) -> float:
        if time < 0:
            raise InputError(f"time must be nonnegative, got {time!r}")
        current = self.breakpoints[0][1]
        for start, gap in self.breakpoints:
            if start <= time:
                current = gap
            else:
                break
        return current

    def area(self, horizon: float) -> float:
        """Area under the step function on [0, horizon]."""
        require_time_limit(horizon)
        total = 0.0
        for index, (start, gap) in enumerate(self.breakpoints):
            if start >= horizon:
                break
            next_start = self.breakpoints[index + 1][0] if index + 1 < len(self.breakpoints) \
                else horizon
            total += gap * (min(next_start, horizon) - start)
        return total


def gap_function(tl: IncumbentTimeline) -> GapFunction:
    """Step function of the incumbent gap over time."""
    points: list[tuple[float, float]] = []
    if not tl.events or tl.events[0][0] > 0.0:
        points.append((0.0, 1.0))
    for time, value in tl.events:
        points.append((time, tl.gap_of(value)))
    return GapFunction(tuple(points))


def primal_integral(tl: IncumbentTimeline, horizon: float) -> float:
    """Area under the incumbent gap up to the time limit.

    Events at or after the limit are ignored; with no events at all the
    result is the limit itself (the gap stays at 1 throughout).
    """
    require_time_limit(horizon)
    total = 0.0
    previous_time = 0.0
    previous_gap = 1.0
    for time, value in tl.events:
        if time >= horizon:
            break
        total += previous_gap * (time - previous_time)
        previous_time = time
        previous_gap = tl.gap_of(value)
    total += previous_gap * (horizon - previous_time)
    return total


def load_timeline(source: str, best_known: float, sense: str = "min") -> IncumbentTimeline:
    """Parse timeline CSV text (header ``time_seconds,objective_value``)."""
    events: list[tuple[float, float]] = []
    for lineno, (time_text, value_text) in read_rows(source, TIMELINE_HEADER, "timeline"):
        try:
            time, value = float(time_text), float(value_text)
        except ValueError:
            raise InputError(f"line {lineno}: times and values must be numbers") from None
        try:
            require_finite(time, "time_seconds")
            require_finite(value, "objective_value")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        events.append((time, value))
    return IncumbentTimeline(tuple(events), best_known=best_known, sense=sense)


def dump_timeline(tl: IncumbentTimeline) -> str:
    lines = [TIMELINE_HEADER]
    for time, value in tl.events:
        lines.append(f"{repr(float(time))},{repr(float(value))}")
    return "\n".join(lines) + "\n"
