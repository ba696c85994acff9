"""Data-driven schedules of branch-and-bound primal heuristics.

Learns, from per-node heuristic performance data, an ordered list of
(heuristic, iteration budget) pairs that finds feasible solutions at many
search nodes at low cost; validates the result against an exhaustive
oracle and an exportable mixed-integer quadratic model; measures primal
performance through gap/integral metrics; and ships a synthetic
branch-and-bound simulator for shadow-mode data collection and replay.

Importing the package loads none of its modules: each exported name imports
its module on first use, so a program pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "dataset": ("Dataset", "IterationCostProfile", "Observation", "avg_iteration_cost",
                "breakpoints", "dump_dataset", "load_dataset"),
    "errors": ("InputError",),
    "exact": ("ExactLimits", "candidate_count", "solve_exact"),
    "greedy": ("GreedyOptions", "GreedyStep", "GreedyTrace", "best_action", "build_schedule"),
    "metrics": ("GapFunction", "IncumbentTimeline", "dump_timeline", "gap_function",
                "load_timeline", "primal_gap", "primal_integral"),
    "miqp": ("CheckResult", "MiqpModel", "build_miqp", "check_assignment",
             "check_linearized", "export_miqp", "schedule_assignment"),
    "schedule": ("NodeOutcome", "Schedule", "ScheduleEvaluation", "dump_schedule",
                 "evaluate", "load_schedule", "node_cost"),
    "simulator": ("HeuristicSpec", "LatentOutcome", "PolicyComparison", "RunTrace",
                  "SimConfig", "SimInstance", "collect_shadow_dataset", "compare_policies",
                  "default_baseline", "generate_instance", "load_sim_config",
                  "run_with_schedule"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
