"""Shared fixtures: reference datasets, random generators, planted configs."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from heursched import Dataset, Observation, load_dataset

# Every property test is deterministic and unhurried; each keeps its own
# max_examples in its @settings decorator.
settings.register_profile("heursched", deadline=None, derandomize=True)
settings.load_profile("heursched")

# Three heuristics, three nodes; h1 solves only N1 (fast), h2 solves all
# three (budget 3 catches two of them), h3 solves N2 and N3.
WORKED_CSV = """heuristic,node,iterations_to_solution,iterations_executed,duration_seconds
h1,N1,1,1,
h1,N2,inf,10,
h1,N3,inf,10,
h2,N1,4,4,
h2,N2,3,3,
h2,N3,3,3,
h3,N1,inf,10,
h3,N2,4,4,
h3,N3,2,2,
"""


def pathological_csv() -> str:
    """One heuristic; node N1 takes 1 iteration, N2..N100 take 100 each."""
    rows = ["heuristic,node,iterations_to_solution,iterations_executed,duration_seconds",
            "h,N1,1,1,"]
    rows.extend(f"h,N{i},100,100," for i in range(2, 101))
    return "\n".join(rows) + "\n"


def counted_forks(monkeypatch) -> list:
    """Patch ``os.fork`` to record each call in the returned list."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@pytest.fixture
def worked() -> Dataset:
    return load_dataset(WORKED_CSV)


@pytest.fixture
def pathological() -> Dataset:
    return load_dataset(pathological_csv())


def random_dataset(rng: random.Random, max_heuristics: int = 4, max_nodes: int = 8,
                   max_breakpoints: int = 4, with_durations: bool = False) -> Dataset:
    """Small random dataset with bounded per-heuristic breakpoint counts."""
    n_heuristics = rng.randint(1, max_heuristics)
    n_nodes = rng.randint(2, max_nodes)
    heuristics = tuple(f"h{i}" for i in range(n_heuristics))
    nodes = tuple(f"n{j}" for j in range(n_nodes))
    observations = []
    for h in heuristics:
        palette = rng.sample(range(1, 11), k=rng.randint(1, max_breakpoints))
        cost = rng.choice([0.05, 0.25, 1.0, 4.0])
        for n in nodes:
            draw = rng.random()
            if draw < 0.3:
                continue  # pair never called
            if draw < 0.55:
                executed = rng.randint(1, 12)
                duration = executed * cost * rng.uniform(0.5, 1.5) if with_durations else None
                observations.append(Observation(h, n, None, executed, duration))
            else:
                tau = rng.choice(palette)
                duration = tau * cost * rng.uniform(0.5, 1.5) if with_durations else None
                observations.append(Observation(h, n, tau, tau, duration))
    return Dataset(heuristics, nodes, tuple(observations))


# One cheap, reliable heuristic registered last: a registration-order
# baseline runs both expensive long-shot heuristics first at every node.
PLANTED_CFG = """name = planted
instances = 4
nodes_min = 8
nodes_max = 12
interarrival_seconds = 0.5
optimum_value = 100.0
heuristics = slow_a, slow_b, quick
slow_a.class = LNS
slow_a.success_probability = 0.15
slow_a.iteration_success_rate = 0.08
slow_a.max_iterations = 30
slow_a.seconds_per_iteration = 1.0
slow_a.quality_mean = 6.0
slow_a.quality_spread = 2.0
slow_b.class = LNS
slow_b.success_probability = 0.2
slow_b.iteration_success_rate = 0.1
slow_b.max_iterations = 30
slow_b.seconds_per_iteration = 0.8
slow_b.quality_mean = 5.0
slow_b.quality_spread = 2.0
quick.class = DIVING
quick.success_probability = 0.95
quick.iteration_success_rate = 0.5
quick.max_iterations = 20
quick.seconds_per_iteration = 0.05
quick.quality_mean = 4.0
quick.quality_spread = 2.0
"""

# Rich coverage: every heuristic succeeds often, so full coverage of the
# shadow dataset is usually attainable.
COVERAGE_CFG = """name = coverage
instances = 2
nodes_min = 25
nodes_max = 35
interarrival_seconds = 0.5
optimum_value = 100.0
heuristics = dive_a, dive_b, patch_lns
dive_a.class = DIVING
dive_a.success_probability = 0.9
dive_a.iteration_success_rate = 0.35
dive_a.max_iterations = 25
dive_a.seconds_per_iteration = 0.05
dive_a.quality_mean = 5.0
dive_a.quality_spread = 2.0
dive_b.class = DIVING
dive_b.success_probability = 0.8
dive_b.iteration_success_rate = 0.25
dive_b.max_iterations = 25
dive_b.seconds_per_iteration = 0.08
dive_b.quality_mean = 4.0
dive_b.quality_spread = 2.0
patch_lns.class = LNS
patch_lns.success_probability = 0.85
patch_lns.iteration_success_rate = 0.4
patch_lns.max_iterations = 15
patch_lns.seconds_per_iteration = 0.6
patch_lns.quality_mean = 3.0
patch_lns.quality_spread = 1.5
"""
