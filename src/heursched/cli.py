"""Command-line interface.

Subcommands cover the full workflow: ingest a dataset and build a greedy
schedule, evaluate or exactly optimize schedules, export the scheduling
model, simulate shadow-mode data collection, replay schedules for
incumbent timelines, compute primal metrics, compare policies and run
train/test cross-validation.

Every run that writes files also writes a JSON manifest next to its first
output recording the exact argv, inputs, outputs, seeds and tool version;
re-running the recorded argv reproduces every output byte for byte.  All
printed numbers use 6 significant digits.  Exit codes: 0 success, 1
rejected input, 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .dataset import dump_dataset, load_dataset, parse_int
from .errors import InputError
from .schedule import dump_schedule, evaluate, load_schedule

# Each handler imports the rest of the package it calls when it runs, so a
# command loads only the modules it needs.  The modules above are the ones nearly
# every command reads with; perfbench's self-test patches ``cli.dump_schedule``.

_PROG = "heursched"


def __getattr__(name: str):
    if name == "run_crossval":  # the README documents importing it from here
        from .simulator import run_crossval
        return run_crossval
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(value) -> str:
    return format(value, ".6g")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as rejected input (exit 1)."""

    def error(self, message):
        raise InputError(f"{message}\n{self.format_usage()}")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_output(args, text: str, inputs, seeds=(), **flags) -> None:
    Path(args.out).write_text(text, encoding="utf-8")
    _write_manifest(args, inputs, seeds, **flags)


def _write_manifest(args, inputs, seeds=(), **flags) -> None:
    """Record the command's argv, inputs, output, seeds and flags next to ``args.out``."""
    import json
    manifest = {
        "command": args.command,
        "argv": list(args._argv),
        "version": __version__,
        "inputs": list(inputs),
        "outputs": [args.out],
        "seeds": list(seeds),
        "flags": flags,
    }
    manifest_path = Path(args.out).with_name(Path(args.out).name + ".manifest.json")
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _quoted(text: str) -> str:
    """``repr(text)``, cut to the first 20 characters and the length when longer."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def _integer(text: str) -> int:
    """The type of every integer flag and ``--seeds`` entry: ``int(text)``, with
    a refused text quoted as ``_quoted`` does."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


def _parse_seeds(text: str) -> list[int]:
    """Either a count N (seeds 0..N-1) or a comma-separated seed list."""
    try:
        if "," in text:
            return [_integer(part) for part in text.split(",") if part.strip() != ""]
        count = parse_int(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise InputError(f"cannot parse seeds from {_quoted(text)}: expected a count or a "
                         "comma-separated list") from None
    from .simulator import check_sim_size
    check_sim_size(count, "seed count")
    return list(range(count))


def _load_config(path: str):
    from .simulator import load_sim_config
    cfg = load_sim_config(_read(path))
    return cfg if cfg.name else replace(cfg, name=Path(path).stem)


def _cmd_build(args) -> int:
    from .greedy import GreedyOptions, build_schedule
    d = load_dataset(_read(args.data))
    opts = GreedyOptions(allow_extension=not args.no_extension,
                         normalize_costs=args.normalize,
                         alpha_report=args.alpha)
    schedule, trace, evaluation = build_schedule(d, opts)
    if trace.steps:
        print(trace.render())
    print(f"schedule length: {len(schedule)}")
    print(f"objective: {_fmt(evaluation.objective)}")
    print(f"success rate: {_fmt(evaluation.success_rate)} "
          f"({evaluation.solved_nodes}/{len(d.nodes)} nodes)")
    print(f"coverage target {_fmt(args.alpha)}: {'met' if evaluation.feasible else 'MISSED'}")
    if args.out:
        _write_output(args, dump_schedule(schedule), [args.data], alpha=args.alpha,
                      normalize=args.normalize, no_extension=args.no_extension)
    return 0


def _cmd_eval(args) -> int:
    d = load_dataset(_read(args.data))
    s = load_schedule(_read(args.schedule))
    evaluation = evaluate(s, d, args.alpha, normalize=args.normalize)
    print(f"objective: {_fmt(evaluation.objective)}")
    print(f"solved nodes: {evaluation.solved_nodes}/{len(d.nodes)}")
    print(f"success rate: {_fmt(evaluation.success_rate)}")
    print(f"{'FEASIBLE' if evaluation.feasible else 'INFEASIBLE'} "
          f"(alpha = {_fmt(args.alpha)})")
    return 0


def _cmd_exact(args) -> int:
    from .exact import ExactLimits, solve_exact
    d = load_dataset(_read(args.data))
    given = {"max_heuristics": args.max_heuristics,
             "max_breakpoints_per_heuristic": args.max_breakpoints,
             "enumeration_budget": args.enumeration_budget}
    limits = ExactLimits(**{field: value for field, value in given.items() if value is not None})
    result = solve_exact(d, args.alpha, normalize=args.normalize, limits=limits)
    if result is None:
        print(f"INFEASIBLE (alpha = {_fmt(args.alpha)})")
        return 0
    schedule, objective = result
    print(f"optimal objective: {_fmt(objective)}")
    print(f"schedule length: {len(schedule)}")
    for position, (heuristic, budget) in enumerate(schedule.entries, start=1):
        print(f"  {position}. {heuristic} up to {budget} iterations")
    if args.out:
        _write_output(args, dump_schedule(schedule), [args.data], alpha=args.alpha,
                      normalize=args.normalize, max_heuristics=limits.max_heuristics,
                      max_breakpoints=limits.max_breakpoints_per_heuristic)
    return 0


def _cmd_export_miqp(args) -> int:
    from .miqp import export_miqp
    d = load_dataset(_read(args.data))
    model = export_miqp(d, args.alpha, args.out)
    _write_manifest(args, [args.data], alpha=args.alpha)
    print(f"variables: {len(model.variables)}")
    print(f"linear constraints: {len(model.linear)}")
    print(f"quadratic constraints: {len(model.quadratic)}")
    return 0


def _cmd_simulate(args) -> int:
    from .simulator import check_sim_size, simulate_shadow_dataset
    cfg = _load_config(args.config)
    count = args.instances if args.instances is not None else cfg.instances
    if count < 1:
        raise InputError(f"instance count must be positive, got {count}")
    check_sim_size(count, "instance count")
    seeds = [args.seed + i for i in range(count)]
    d = simulate_shadow_dataset(cfg, seeds)
    _write_output(args, dump_dataset(d), [args.config], seeds, instances=count)
    print(f"instances: {count}")
    print(f"heuristics: {len(d.heuristics)}")
    print(f"nodes: {len(d.nodes)}")
    print(f"observations: {len(d.heuristics) * len(d.nodes)}")
    return 0


def _cmd_run(args) -> int:
    from .metrics import dump_timeline, primal_integral
    from .simulator import generate_instance, run_with_schedule
    cfg = _load_config(args.config)
    s = load_schedule(_read(args.schedule))
    limit = args.time_limit if args.time_limit is not None else cfg.effective_time_limit()
    inst = generate_instance(cfg, args.seed)
    trace = run_with_schedule(inst, s, limit)
    integral = primal_integral(trace.timeline, limit)
    print(f"nodes visited: {len(trace.nodes)}")
    print(f"incumbent events: {len(trace.timeline.events)}")
    if trace.timeline.events:
        final = trace.timeline.events[-1][1]
        print(f"final incumbent: {_fmt(final)} "
              f"(gap {_fmt(trace.timeline.gap_of(final))})")
    print(f"primal integral: {_fmt(integral)} (time limit {_fmt(limit)})")
    if args.out:
        _write_output(args, dump_timeline(trace.timeline), [args.config, args.schedule],
                      [args.seed], time_limit=limit)
    return 0


def _cmd_compare(args) -> int:
    from .simulator import compare_policies, default_baseline
    cfg = _load_config(args.config)
    s = load_schedule(_read(args.schedule))
    baseline = load_schedule(_read(args.baseline)) if args.baseline else default_baseline(cfg)
    seeds = _parse_seeds(args.seeds)
    comparison = compare_policies(cfg, seeds, s, baseline, args.time_limit)
    print(comparison.format_table())
    if args.out:
        inputs = [args.config, args.schedule] + ([args.baseline] if args.baseline else [])
        _write_output(args, comparison.to_csv(), inputs, seeds,
                      time_limit=comparison.time_limit)
    return 0


def _cmd_metrics(args) -> int:
    from .metrics import gap_function, load_timeline, primal_integral
    tl = load_timeline(_read(args.timeline), best_known=args.best_known, sense=args.sense)
    integral = primal_integral(tl, args.time_limit)
    gaps = gap_function(tl)
    print(f"incumbent events: {len(tl.events)}")
    print(f"final gap: {_fmt(gaps.breakpoints[-1][1])}")
    print(f"primal integral: {_fmt(integral)} (time limit {_fmt(args.time_limit)})")
    return 0


def _cmd_crossval(args) -> int:
    from .simulator import run_crossval
    paths = [part.strip() for part in args.configs.split(",") if part.strip()]
    configs = [_load_config(path) for path in paths]
    baseline = load_schedule(_read(args.baseline)) if args.baseline else None
    report = run_crossval(configs, args.folds, args.seed,
                          time_limit=args.time_limit, baseline=baseline)
    print(report.format_table())
    if args.out:
        inputs = paths + ([args.baseline] if args.baseline else [])
        _write_output(args, report.to_csv(), inputs, [args.seed], folds=args.folds)
    return 0


@functools.cache  # one parser per process: each is a web of cycles only a full collection frees
def build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{_PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("build", help="build a greedy schedule from a dataset")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="coverage fraction to report against (default 0)")
    p.add_argument("--normalize", action="store_true",
                   help="weight iteration costs by average seconds per iteration")
    p.add_argument("--no-extension", action="store_true",
                   help="never raise the budget of the last scheduled heuristic")
    p.add_argument("--out", help="write the schedule CSV here")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("eval", help="evaluate a schedule against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("exact", help="optimal schedule by pruned exact search")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--normalize", action="store_true")
    # unset limits take ExactLimits' defaults in _cmd_exact
    p.add_argument("--max-heuristics", type=_integer)
    p.add_argument("--max-breakpoints", type=_integer)
    p.add_argument("--enumeration-budget", type=_integer)
    p.add_argument("--out", help="write the optimal schedule CSV here")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("export-miqp", help="export the scheduling model as text")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_export_miqp)

    p = sub.add_parser("simulate", help="collect a shadow-mode dataset from the simulator")
    p.add_argument("--config", required=True, help="simulator configuration path")
    p.add_argument("--instances", type=_integer, default=None,
                   help="override the configuration's instance count")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--out", required=True, help="write the dataset CSV here")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("run", help="replay a schedule on one simulated instance")
    p.add_argument("--config", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--out", help="write the incumbent timeline CSV here")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("compare", help="relative primal integral of two schedules")
    p.add_argument("--config", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--baseline", help="baseline schedule CSV "
                                      "(default: registration order at iteration caps)")
    p.add_argument("--seeds", required=True,
                   help="seed count N (uses 0..N-1) or comma-separated seed list")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--out", help="write the per-seed comparison CSV here")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("metrics", help="primal metrics of an incumbent timeline")
    p.add_argument("--timeline", required=True)
    p.add_argument("--best-known", type=float, required=True)
    p.add_argument("--sense", choices=("min", "max"), default="min")
    p.add_argument("--time-limit", type=float, required=True)
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("crossval", help="train/test matrix over configuration families")
    p.add_argument("--configs", required=True, help="comma-separated configuration paths")
    p.add_argument("--folds", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--baseline", help="fixed baseline schedule CSV for every test family")
    p.add_argument("--out", help="write the matrix CSV here")
    p.set_defaults(handler=_cmd_crossval)
    return parser


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        args._argv = list(argv)
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --version/--help
        return 0 if exc.code in (0, None) else 1
    except Exception:
        import traceback
        traceback.print_exc()
        return 2


def main(argv=None) -> None:
    raise SystemExit(dispatch(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
