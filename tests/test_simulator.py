from __future__ import annotations

import ast
import dataclasses
import math
import os
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heursched.simulator as simulator
import heursched.workers as workers
from heursched import (GreedyOptions, HeuristicSpec, IncumbentTimeline, InputError,
                       LatentOutcome, Observation, RunTrace, Schedule, SimConfig, SimInstance,
                       breakpoints, build_schedule, collect_shadow_dataset, compare_policies,
                       default_baseline, dump_dataset, evaluate, generate_instance, load_dataset,
                       load_sim_config, node_cost, primal_integral, run_with_schedule)
from heursched.cli import dispatch
from heursched.simulator import (NodeRecord, OutcomeColumns, SeedComparison, run_crossval,
                                 simulate_shadow_dataset)

from conftest import COVERAGE_CFG, PLANTED_CFG


def _cfg(**overrides) -> SimConfig:
    base = dict(
        heuristics=(
            HeuristicSpec("alpha_dive", "DIVING", 0.8, 0.4, 20, 0.1, 5.0, 2.0),
            HeuristicSpec("beta_dive", "DIVING", 0.6, 0.3, 20, 0.1, 4.0, 2.0),
            HeuristicSpec("gamma_lns", "LNS", 0.5, 0.2, 10, 1.0, 3.0, 1.0),
        ),
        instances=2,
        nodes_min=5,
        nodes_max=5,
        interarrival_seconds=0.5,
        optimum_value=100.0,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_config_parsing_round_trip_fields():
    cfg = load_sim_config(PLANTED_CFG)
    assert cfg.name == "planted"
    assert cfg.heuristic_ids() == ("slow_a", "slow_b", "quick")
    assert cfg.instances == 4
    assert cfg.heuristics[2].seconds_per_iteration == 0.05
    assert cfg.optimum_value == 100.0


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(InputError, match="unknown configuration keys"):
        load_sim_config(PLANTED_CFG + "\nbogus_key = 1\n")
    with pytest.raises(InputError, match="missing"):
        load_sim_config("instances = 2\nnodes_min = 1\nnodes_max = 2\n"
                        "interarrival_seconds = 1\nheuristics = a\na.class = DIVING\n")
    with pytest.raises(InputError, match="duplicate key"):
        load_sim_config(PLANTED_CFG + "\ninstances = 9\n")


def test_generation_is_deterministic():
    cfg = _cfg()
    assert generate_instance(cfg, 3) == generate_instance(cfg, 3)
    assert generate_instance(cfg, 3) != generate_instance(cfg, 4)


def test_zero_success_probability_means_all_failures():
    cfg = _cfg(heuristics=(HeuristicSpec("never", "DIVING", 0.0, 0.5, 10, 0.1, 5.0, 1.0),))
    inst = generate_instance(cfg, 0)
    assert all(not outcome.succeeds for outcome in inst.outcomes.values())
    d = collect_shadow_dataset([inst])
    assert breakpoints(d, "never") == []


def test_unit_iteration_rate_solves_in_one_iteration():
    cfg = _cfg(heuristics=(HeuristicSpec("instant", "DIVING", 1.0, 1.0, 10, 0.1, 5.0, 1.0),))
    inst = generate_instance(cfg, 0)
    assert all(outcome.succeeds and outcome.iterations == 1
               for outcome in inst.outcomes.values())


def _reference_instance(cfg: SimConfig, seed: int):
    """Nodes and outcomes of ``generate_instance`` as first written: a fresh
    generator per pair, drawing success, iterations (none when always 1),
    then the quality offset."""
    shape = random.Random(f"{seed}|shape")
    nodes = tuple(f"s{seed}n{i:03d}" for i in range(shape.randint(cfg.nodes_min, cfg.nodes_max)))
    outcomes = {}
    for node in nodes:
        for spec in cfg.heuristics:
            rng = random.Random(f"{seed}|{node}|{spec.id}")
            if rng.random() < spec.success_probability:
                rate, cap = spec.iteration_success_rate, spec.max_iterations
                iterations = 1
                if rate < 1.0 and cap != 1:
                    q = 1.0 - rate
                    u = rng.random() * (1.0 - q ** cap)
                    iterations = min(max(math.ceil(math.log1p(-u) / math.log(q)), 1), cap)
                offset = max(0.0, rng.gauss(spec.quality_mean, spec.quality_spread))
                outcome = LatentOutcome(True, iterations, cfg.optimum_value + offset)
            else:
                outcome = LatentOutcome(False, spec.max_iterations, None)
            outcomes[(node, spec.id)] = outcome
    return nodes, outcomes


# (success probability, iteration success rate, max iterations, quality mean, spread)
_laws = st.tuples(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
                  st.just(1.0) | st.floats(1e-3, 1.0),
                  st.just(1) | st.integers(2, 60),
                  st.floats(-5.0, 10.0),
                  st.just(0.0) | st.floats(0.0, 5.0))


@settings(max_examples=60)
@given(laws=st.lists(_laws, min_size=1, max_size=4), seed=st.integers(0, 10**6),
       nodes_max=st.integers(1, 12), optimum=st.floats(-100.0, 100.0))
@example(laws=[(1.0, 1.0, 10, 5.0, 1.0), (1.0, 0.4, 1, 5.0, 1.0), (0.6, 0.3, 25, 2.0, 0.0)],
         seed=0, nodes_max=6, optimum=100.0)
def test_generation_matches_a_fresh_generator_per_pair(laws, seed, nodes_max, optimum):
    specs = tuple(HeuristicSpec(f"h{k}", "DIVING", p, rate, cap, 0.1, mean, spread)
                  for k, (p, rate, cap, mean, spread) in enumerate(laws))
    cfg = _cfg(heuristics=specs, nodes_min=1, nodes_max=nodes_max, optimum_value=optimum)
    inst = generate_instance(cfg, seed)
    nodes, outcomes = _reference_instance(cfg, seed)
    assert inst.nodes == nodes
    assert list(inst.outcomes.items()) == list(outcomes.items())


def test_shadow_dataset_counts_and_durations():
    cfg = _cfg()
    instances = [generate_instance(cfg, seed) for seed in (0, 1)]
    d = collect_shadow_dataset(instances)
    assert len(d.heuristics) == 3
    assert len(d.nodes) == 10
    assert len(d.observations) == 30  # every heuristic recorded at every node
    spi = {spec.id: spec.seconds_per_iteration for spec in cfg.heuristics}
    for obs in d.observations:
        assert obs.duration_seconds == pytest.approx(
            obs.iterations_executed * spi[obs.heuristic])
        if not obs.succeeded:
            cap = next(s.max_iterations for s in cfg.heuristics if s.id == obs.heuristic)
            assert obs.iterations_executed == cap


def test_shadow_dataset_rejects_duplicate_nodes():
    cfg = _cfg()
    inst = generate_instance(cfg, 0)
    with pytest.raises(InputError, match="duplicate node"):
        collect_shadow_dataset([inst, inst])


def _one_node_instance(spec: HeuristicSpec, node: str, outcome: LatentOutcome) -> SimInstance:
    return SimInstance(seed=0, heuristics=(spec,), nodes=(node,),
                       outcomes={(node, spec.id): outcome},
                       interarrival_seconds=0.5, optimum_value=0.0)


def test_shadow_dataset_checks_rows_before_repeated_nodes():
    # repeated node ids are refused once for all instances, after their rows:
    # this used to report "duplicate node id 'n' across instances"
    spec = HeuristicSpec("h", "DIVING", 0.5, 0.5, 2, 0.1, 1.0, 1.0)
    instances = [_one_node_instance(spec, "n", LatentOutcome(False, 2, None)),
                 _one_node_instance(spec, "n", LatentOutcome(True, 0, 1.0))]
    with pytest.raises(InputError, match="iterations_executed must be a positive integer, got 0"):
        collect_shadow_dataset(instances)
    with pytest.raises(InputError, match="duplicate node id 'n' across instances"):
        collect_shadow_dataset(instances[:1] * 2)


@pytest.mark.parametrize("spec,node,outcome,fragment", [
    (HeuristicSpec("h", "DIVING", 0.5, 0.5, 2, 0.1, 1.0, 1.0), "a,b",
     LatentOutcome(False, 2, None), "invalid node identifier 'a,b'"),
    (HeuristicSpec("h", "DIVING", 0.0, 0.5, 2, 1e308, 1.0, 1.0), "n",
     LatentOutcome(False, 2, None), "duration_seconds must be finite and nonnegative, got inf"),
    (HeuristicSpec("h", "DIVING", 0.5, 0.5, 2, 0.1, 1.0, 1.0), "n",
     LatentOutcome(True, 0, 1.0), "iterations_executed must be a positive integer, got 0"),
])
def test_shadow_dataset_rejects_bad_rows(spec, node, outcome, fragment):
    with pytest.raises(InputError, match=fragment):
        collect_shadow_dataset([_one_node_instance(spec, node, outcome)])


def test_simulate_build_eval_constructs_no_observation(tmp_path, monkeypatch):
    built = []
    checks = Observation.__post_init__

    def counting(self):
        built.append(self)
        checks(self)

    cfg_path, data, schedule = tmp_path / "planted.cfg", tmp_path / "d.csv", tmp_path / "s.csv"
    cfg_path.write_text(PLANTED_CFG, encoding="utf-8")
    monkeypatch.setattr(Observation, "__post_init__", counting)
    assert dispatch(["simulate", "--config", str(cfg_path), "--seed", "3",
                     "--instances", "2", "--out", str(data)]) == 0
    assert dispatch(["build", "--data", str(data), "--normalize", "--out", str(schedule)]) == 0
    assert dispatch(["eval", "--data", str(data), "--schedule", str(schedule),
                     "--normalize"]) == 0
    assert built == []

    cfg = load_sim_config(PLANTED_CFG)
    instances = [generate_instance(cfg, seed) for seed in (3, 4)]
    reference = tuple(
        Observation(spec.id, node, o.iterations if o.succeeds else None, o.iterations,
                    o.iterations * spec.seconds_per_iteration)
        for inst in instances for node in inst.nodes for spec in inst.heuristics
        for o in [inst.outcome(node, spec.id)])
    assert load_dataset(data.read_text(encoding="utf-8")).observations == reference
    assert collect_shadow_dataset(instances).observations == reference


def test_shadow_dataset_is_registration_order_invariant():
    cfg = _cfg()
    permuted = SimConfig(
        heuristics=tuple(reversed(cfg.heuristics)), instances=cfg.instances,
        nodes_min=cfg.nodes_min, nodes_max=cfg.nodes_max,
        interarrival_seconds=cfg.interarrival_seconds, optimum_value=cfg.optimum_value)
    d1 = collect_shadow_dataset([generate_instance(cfg, 5)])
    d2 = collect_shadow_dataset([generate_instance(permuted, 5)])
    assert d1.heuristics == tuple(reversed(d2.heuristics))
    by_pair_1 = {(o.heuristic, o.node): o for o in d1.observations}
    by_pair_2 = {(o.heuristic, o.node): o for o in d2.observations}
    assert by_pair_1 == by_pair_2


@settings(max_examples=40)
@given(data=st.data(), config=st.sampled_from((PLANTED_CFG, COVERAGE_CFG)),
       seed=st.integers(0, 10**6), instances=st.integers(1, 3))
def test_shadow_dataset_only_registers_in_another_order_when_permuted(data, config, seed,
                                                                       instances):
    cfg = load_sim_config(config)
    permuted = dataclasses.replace(cfg, heuristics=data.draw(st.permutations(cfg.heuristics)))
    d1, d2 = (collect_shadow_dataset(generate_instance(c, seed + i) for i in range(instances))
              for c in (cfg, permuted))
    assert d2.heuristics == permuted.heuristic_ids()
    assert sorted(d1.heuristics) == sorted(d2.heuristics)
    assert d1.nodes == d2.nodes
    assert len(d1.observations) == len(d2.observations)
    assert ({(o.heuristic, o.node): o for o in d1.observations}
            == {(o.heuristic, o.node): o for o in d2.observations})
    for h in d1.heuristics:
        assert dict(d1.tau_column(h)) == dict(d2.tau_column(h))


def test_empty_schedule_never_finds_anything():
    cfg = _cfg()
    inst = generate_instance(cfg, 2)
    trace = run_with_schedule(inst, Schedule(), 50.0)
    assert trace.timeline.events == ()
    assert primal_integral(trace.timeline, 50.0) == 50.0


def test_first_event_clock_arithmetic():
    spec = HeuristicSpec("instant", "DIVING", 1.0, 1.0, 10, 0.25, 5.0, 0.0)
    cfg = _cfg(heuristics=(spec,), nodes_min=3, nodes_max=3, interarrival_seconds=2.0)
    inst = generate_instance(cfg, 0)
    trace = run_with_schedule(inst, Schedule((("instant", 10),)), 1000.0)
    assert trace.timeline.events[0][0] == pytest.approx(2.0 + 1 * 0.25)


def test_budgets_below_needs_cost_full_schedule():
    spec_a = HeuristicSpec("a", "DIVING", 1.0, 0.5, 10, 1.0, 5.0, 1.0)
    spec_b = HeuristicSpec("b", "LNS", 1.0, 0.5, 10, 1.0, 5.0, 1.0)
    outcomes = {(node, heuristic): LatentOutcome(True, 4, 50.0)
                for node in ("n0", "n1") for heuristic in ("a", "b")}
    inst = SimInstance(seed=0, heuristics=(spec_a, spec_b), nodes=("n0", "n1"),
                       outcomes=outcomes, interarrival_seconds=1.0, optimum_value=0.0)
    schedule = Schedule((("a", 3), ("b", 2)))  # every need is 4, above both budgets
    trace = run_with_schedule(inst, schedule, 10_000.0)
    assert trace.timeline.events == ()
    for record in trace.nodes:
        assert record.calls == (("a", 3), ("b", 2))
        assert record.success_position is None


def test_replay_agrees_with_schedule_costing():
    # handcrafted instance: qualities strictly improve across nodes, so every
    # success is an incumbent and the loop semantics of replay and dataset
    # costing coincide; one second per iteration everywhere.
    spec_a = HeuristicSpec("a", "DIVING", 1.0, 0.5, 10, 1.0, 5.0, 1.0)
    spec_b = HeuristicSpec("b", "LNS", 1.0, 0.5, 10, 1.0, 5.0, 1.0)
    outcomes = {
        ("n0", "a"): LatentOutcome(True, 2, 90.0),
        ("n0", "b"): LatentOutcome(True, 1, 85.0),
        ("n1", "a"): LatentOutcome(False, 10, None),
        ("n1", "b"): LatentOutcome(True, 3, 80.0),
        ("n2", "a"): LatentOutcome(False, 10, None),
        ("n2", "b"): LatentOutcome(False, 10, None),
    }
    inst = SimInstance(seed=0, heuristics=(spec_a, spec_b), nodes=("n0", "n1", "n2"),
                       outcomes=outcomes, interarrival_seconds=1.0, optimum_value=0.0)
    d = collect_shadow_dataset([inst])
    schedule = Schedule((("a", 4), ("b", 3)))
    trace = run_with_schedule(inst, schedule, 10_000.0)
    for record in trace.nodes:
        outcome = node_cost(schedule, d, record.node)
        spent = sum(iterations for _, iterations in record.calls)
        penalty = 0 if outcome.first_success_position is not None else 1
        assert spent == outcome.cost - penalty
        assert record.success_position == outcome.first_success_position


@st.composite
def improving_instances(draw):
    """A hand-built instance whose successes improve strictly from node to node,
    so every success is an incumbent, plus a schedule over its heuristics."""
    ids = [f"h{i}" for i in range(draw(st.integers(1, 4)))]
    specs = tuple(HeuristicSpec(h, "DIVING", 0.5, 0.5, draw(st.integers(1, 8)),
                                draw(st.sampled_from((0.05, 0.5, 2.0))), 1.0, 1.0)
                  for h in ids)
    nodes = tuple(f"n{k}" for k in range(draw(st.integers(1, 6))))
    outcomes = {}
    for k, node in enumerate(nodes):
        for spec in specs:
            if draw(st.booleans()):
                quality = 1000.0 - 10.0 * k - draw(st.floats(0.0, 9.0))
                outcomes[(node, spec.id)] = LatentOutcome(
                    True, draw(st.integers(1, spec.max_iterations)), quality)
            else:
                outcomes[(node, spec.id)] = LatentOutcome(False, spec.max_iterations, None)
    inst = SimInstance(seed=0, heuristics=specs, nodes=nodes, outcomes=outcomes,
                       interarrival_seconds=draw(st.sampled_from((0.1, 1.0))),
                       optimum_value=0.0)
    order = draw(st.permutations(specs))[:draw(st.integers(0, len(specs)))]
    schedule = Schedule(tuple((spec.id, draw(st.integers(1, spec.max_iterations + 2)))
                              for spec in order))
    return inst, schedule


@settings(max_examples=300)
@given(case=improving_instances())
def test_replay_agrees_with_evaluate_when_every_success_improves(case):
    inst, schedule = case
    evaluation = evaluate(schedule, collect_shadow_dataset([inst]), 0.0)
    trace = run_with_schedule(inst, schedule, 1e9)
    assert len(trace.nodes) == len(evaluation.per_node) == len(inst.nodes)
    for record, outcome in zip(trace.nodes, evaluation.per_node):
        assert record.node == outcome.node
        penalty = 0 if outcome.first_success_position is not None else 1
        assert sum(iterations for _, iterations in record.calls) == outcome.cost - penalty
        assert record.success_position == outcome.first_success_position
    assert len(trace.timeline.events) == evaluation.solved_nodes


def test_non_improving_success_does_not_stop_the_loop():
    spec_a = HeuristicSpec("a", "DIVING", 1.0, 0.5, 10, 1.0, 5.0, 1.0)
    spec_b = HeuristicSpec("b", "LNS", 1.0, 0.5, 10, 1.0, 5.0, 1.0)
    outcomes = {
        ("n0", "a"): LatentOutcome(True, 1, 50.0),
        ("n0", "b"): LatentOutcome(True, 1, 60.0),
        ("n1", "a"): LatentOutcome(True, 2, 55.0),   # worse than incumbent 50
        ("n1", "b"): LatentOutcome(True, 2, 40.0),   # improves
    }
    inst = SimInstance(seed=0, heuristics=(spec_a, spec_b), nodes=("n0", "n1"),
                       outcomes=outcomes, interarrival_seconds=1.0, optimum_value=0.0)
    trace = run_with_schedule(inst, Schedule((("a", 5), ("b", 5))), 10_000.0)
    assert [record.success_position for record in trace.nodes] == [1, 2]
    assert [value for _, value in trace.timeline.events] == [50.0, 40.0]
    # node n1 paid for the non-improving call of a before b could improve
    assert trace.nodes[1].calls == (("a", 2), ("b", 2))


def test_time_limit_truncates_the_run():
    cfg = _cfg()
    inst = generate_instance(cfg, 6)
    full = run_with_schedule(inst, default_baseline(cfg), 10_000.0)
    truncated = run_with_schedule(inst, default_baseline(cfg), 1.0)
    assert len(truncated.nodes) <= len(full.nodes)
    assert all(t <= 1.0 for t, _ in truncated.timeline.events)
    with pytest.raises(InputError, match="positive"):
        run_with_schedule(inst, Schedule(), 0.0)


def _spec(**overrides) -> HeuristicSpec:
    fields = dict(id="a", klass="DIVING", success_probability=0.5, iteration_success_rate=0.5,
                  max_iterations=3, seconds_per_iteration=0.1, quality_mean=1.0,
                  quality_spread=1.0)
    fields.update(overrides)
    return HeuristicSpec(**fields)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("boundary", [
    lambda x: _spec(seconds_per_iteration=x),
    lambda x: _spec(quality_mean=x),
    lambda x: _spec(quality_spread=x),
    lambda x: _cfg(interarrival_seconds=x),
    lambda x: _cfg(optimum_value=x),
    lambda x: _cfg(time_limit_seconds=x),
    lambda x: run_with_schedule(generate_instance(_cfg(), 0), Schedule(), x),
], ids=["seconds_per_iteration", "quality_mean", "quality_spread", "interarrival_seconds",
        "optimum_value", "time_limit_seconds", "run_time_limit"])
def test_non_finite_numbers_rejected(boundary, bad):
    with pytest.raises(InputError, match="must be finite"):
        boundary(bad)


@pytest.mark.parametrize("rate", [1e-17, 2.0 ** -54, 5e-324])
def test_iteration_success_rate_whose_complement_rounds_to_one_rejected(rate):
    with pytest.raises(InputError, match="iteration_success_rate is too small: "
                                         "1 - rate rounds to 1, got "):
        _spec(iteration_success_rate=rate)
    with pytest.raises(InputError, match="1 - rate rounds to 1"):
        load_sim_config(PLANTED_CFG.replace("quick.iteration_success_rate = 0.5",
                                            f"quick.iteration_success_rate = {rate!r}"))


def test_smallest_accepted_iteration_success_rate_draws_within_the_cap():
    # 1 - 2**-53 is the float just below 1, so log(1 - rate) is negative
    spec = _spec(success_probability=1.0, iteration_success_rate=2.0 ** -53)
    inst = generate_instance(_cfg(heuristics=(spec,)), 0)
    assert all(1 <= outcome.iterations <= spec.max_iterations
               for outcome in inst.outcomes.values())


def test_compare_identity_is_exactly_one():
    cfg = load_sim_config(PLANTED_CFG)
    baseline = default_baseline(cfg)
    comparison = compare_policies(cfg, range(5), baseline, baseline, 200.0)
    assert all(row.ratio == 1.0 for row in comparison.rows)
    assert comparison.mean_ratio == 1.0
    assert comparison.std_ratio == 0.0


def test_compare_empty_baseline_loses():
    cfg = load_sim_config(COVERAGE_CFG)
    schedule = default_baseline(cfg)
    comparison = compare_policies(cfg, range(5), schedule, Schedule(), 100.0)
    assert comparison.mean_ratio < 1.0


def test_compare_requires_seeds():
    cfg = load_sim_config(PLANTED_CFG)
    with pytest.raises(InputError, match="seed"):
        compare_policies(cfg, [], default_baseline(cfg), Schedule())


def test_unknown_schedule_heuristic_rejected():
    cfg = _cfg()
    inst = generate_instance(cfg, 0)
    with pytest.raises(InputError, match="unknown to the instance"):
        run_with_schedule(inst, Schedule((("mystery", 3),)), 10.0)


def test_comparison_report_formats():
    cfg = load_sim_config(PLANTED_CFG)
    baseline = default_baseline(cfg)
    comparison = compare_policies(cfg, range(3), baseline, baseline, 150.0)
    table = comparison.format_table()
    assert "ratio" in table and "1.00 ± 0.00" in table
    csv_text = comparison.to_csv()
    assert csv_text.splitlines()[0] == "seed,schedule_integral,baseline_integral,ratio"
    assert len(csv_text.splitlines()) == 4


def reference_crossval(configs, folds, seed, time_limit=None, baseline=None):
    """Reference cross-validation: one ``compare_policies`` call per trained
    schedule and test family, so every test instance is regenerated and the
    baseline replayed once per schedule.  Returns the report's CSV and table
    and, per cell, its ratios in summation order: fold-major, then by seed."""
    labels = [cfg.name if cfg.name else f"cfg{index + 1}" for index, cfg in enumerate(configs)]
    base = seed * 100_000_000
    schedules_per_config = []
    for i, cfg in enumerate(configs):
        train_seeds = [base + i * 1_000_000 + k for k in range(cfg.instances)]
        chunk_size, remainder = divmod(len(train_seeds), folds)
        schedules, start = [], 0
        for fold in range(folds):
            size = chunk_size + (1 if fold < remainder else 0)
            instances = [generate_instance(cfg, s) for s in train_seeds[start:start + size]]
            start += size
            schedule, _, _ = build_schedule(collect_shadow_dataset(instances),
                                            GreedyOptions(normalize_costs=True, alpha_report=0.0))
            schedules.append(schedule)
        schedules_per_config.append(schedules)
    cells, cell_ratios = {}, []
    for j, test_cfg in enumerate(configs):
        test_seeds = [base + j * 1_000_000 + 500_000 + k for k in range(test_cfg.instances)]
        test_baseline = baseline if baseline is not None else default_baseline(test_cfg)
        limit = time_limit if time_limit is not None else test_cfg.effective_time_limit()
        for i in range(len(configs)):
            ratios = []
            for schedule in schedules_per_config[i]:
                comparison = compare_policies(test_cfg, test_seeds, schedule, test_baseline, limit)
                ratios.extend(row.ratio for row in comparison.rows)
            cell_ratios.append(ratios)
            cells[(i, j)] = (statistics.fmean(ratios),
                             statistics.stdev(ratios) if len(ratios) > 1 else 0.0)
    baseline_label = "baseline (given)" if baseline is not None else "baseline (caps)"

    csv_lines = ["train,test,mean_ratio,std_ratio"]
    for i, train in enumerate(labels):
        for j, test in enumerate(labels):
            mean, std = cells[(i, j)]
            csv_lines.append(f"{train},{test},{repr(mean)},{repr(std)}")
    csv_lines.extend(f"{baseline_label},{test},{repr(1.0)},{repr(0.0)}" for test in labels)

    width = max(14, *(len(label) + 2 for label in labels + [baseline_label]))
    header = "train\\test".ljust(width) + "".join(label.rjust(width) for label in labels)
    table = [header, "-" * len(header)]
    for i, train in enumerate(labels):
        row = train.ljust(width)
        for j in range(len(labels)):
            mean, std = cells[(i, j)]
            row += f"{mean:.2f} ± {std:.2f}".rjust(width)
        table.append(row)
    table.append("-" * len(header))
    table.append(baseline_label.ljust(width) + f"{1.0:.2f} ± {0.0:.2f}".rjust(width) * len(labels))
    return "\n".join(csv_lines) + "\n", "\n".join(table), cell_ratios


def _two_families(config: str) -> list[SimConfig]:
    """A family and a larger sibling over the same heuristics, five instances each."""
    cfg = load_sim_config(config)
    small = dataclasses.replace(cfg, name="small", instances=5)
    large = dataclasses.replace(cfg, name="large-family", instances=5,
                                nodes_min=cfg.nodes_min + 10, nodes_max=cfg.nodes_max + 14)
    return [small, large]


@pytest.mark.parametrize("config", [COVERAGE_CFG, PLANTED_CFG], ids=["coverage", "planted"])
@pytest.mark.parametrize("folds", [1, 2, 3])
@pytest.mark.parametrize("given_baseline", [False, True])
@pytest.mark.parametrize("time_limit", [None, 12.5])
def test_crossval_matches_reference(config, folds, given_baseline, time_limit, monkeypatch):
    configs = _two_families(config)
    # the last-registered heuristic alone, at half its cap
    spec = configs[0].heuristics[-1]
    baseline = Schedule(((spec.id, max(1, spec.max_iterations // 2)),)) if given_baseline \
        else None
    expected_csv, expected_table, expected_ratios = reference_crossval(
        configs, folds, 2, time_limit, baseline)
    summed = []
    mean_std = simulator._mean_std
    monkeypatch.setattr(simulator, "_mean_std",
                        lambda ratios: summed.append(list(ratios)) or mean_std(ratios))
    report = run_crossval(configs, folds, seed=2, time_limit=time_limit, baseline=baseline)
    assert report.to_csv() == expected_csv
    assert report.format_table() == expected_table
    assert summed == expected_ratios


def _appender(path):
    """Record calls as lines of a file, so that forked replay workers count too."""
    def record(*item):
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(repr(item) + "\n")
    return record


def _recorded(path) -> list:
    return [ast.literal_eval(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_crossval_draws_each_instance_once(monkeypatch, tmp_path):
    configs = _two_families(PLANTED_CFG)
    configs[1] = dataclasses.replace(configs[1], instances=4)
    log = tmp_path / "calls.txt"
    record = _appender(log)
    generate, replay = simulator.generate_instance, simulator._replay

    def counting_generate(cfg, seed):
        record("draw", seed)
        return generate(cfg, seed)

    def counting_replay(inst, s, limit):
        record("replay", inst.seed, s.entries)
        return replay(inst, s, limit)

    monkeypatch.setattr(simulator, "generate_instance", counting_generate)
    monkeypatch.setattr(simulator, "_replay", counting_replay)
    folds = 2
    for count in (1, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)
        log.write_text("", encoding="utf-8")
        run_crossval(configs, folds, seed=1)
        calls = _recorded(log)
        drawn = [call[1] for call in calls if call[0] == "draw"]
        training = sum(cfg.instances for cfg in configs)
        test_seeds = sum(cfg.instances for cfg in configs)
        assert len(drawn) == training + test_seeds == len(set(drawn))
        # per test seed: every trained schedule, then the baseline, once
        per_seed = {}
        for _, seed, entries in (call for call in calls if call[0] == "replay"):
            per_seed.setdefault(seed, []).append(entries)
        assert len(per_seed) == test_seeds
        for replayed in per_seed.values():
            assert len(replayed) == len(configs) * folds + 1
            assert replayed[-1] == default_baseline(configs[0]).entries


@pytest.mark.parametrize("seeds", [[3], [4, 0], [1, 1, 2], [9, 2, 5, 0, 7, 3, 1]],
                         ids=["one", "fewer-than-workers", "repeated", "seven"])
def test_worker_count_changes_no_result(seeds, monkeypatch, tmp_path):
    cfg = load_sim_config(PLANTED_CFG)
    schedule = Schedule((("quick", 20), ("slow_a", 5)))
    families = _two_families(COVERAGE_CFG)
    log = tmp_path / "pids.txt"
    record = _appender(log)
    generate = simulator.generate_instance

    def generate_recording_pid(cfg, seed):
        record(os.getpid())
        return generate(cfg, seed)

    monkeypatch.setattr(simulator, "generate_instance", generate_recording_pid)
    results = {}
    for count in (1, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)
        log.write_text("", encoding="utf-8")
        comparison = compare_policies(cfg, seeds, schedule, default_baseline(cfg), 300.0)
        processes = {pid for pid, in _recorded(log)}
        assert len(processes) == min(count, len(seeds))
        results[count] = comparison, run_crossval(families, 2, seed=len(seeds))
    assert results[1] == results[3]
    assert [row.seed for row in results[3][0].rows] == seeds


def _refusing_replay(monkeypatch, refused):
    replay = simulator._replay  # the replay kernel that compare runs per schedule

    def refusing(inst, s, limit):
        if inst.seed in refused:
            raise InputError(f"seed {inst.seed} refused")
        return replay(inst, s, limit)

    monkeypatch.setattr(simulator, "_replay", refusing)


# with 3 workers the caller replays indexes 0, 3, ...; the workers 1, 4, ... and 2, 5, ...
@pytest.mark.parametrize("seeds,refused,first", [
    ([4, 7, 2, 9], {7, 9}, 7),          # a worker's seed before the caller's
    ([9, 2, 5, 7], {9, 7}, 9),          # the caller's seed before its own later one
    ([2, 5, 7, 1, 3, 9], {9, 7}, 7),    # both in one worker
    ([2, 5, 1, 3, 9, 4], {4, 5}, 5),    # in two workers
])
def test_first_failing_seed_in_order_raises(seeds, refused, first, monkeypatch):
    cfg = load_sim_config(PLANTED_CFG)
    _refusing_replay(monkeypatch, refused)
    for count in (1, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)
        with pytest.raises(InputError, match=f"^seed {first} refused$"):
            compare_policies(cfg, seeds, default_baseline(cfg), Schedule(), 300.0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("field", ["instances", "nodes_min", "nodes_max"])
def test_non_integer_counts_rejected(field):
    with pytest.raises(InputError, match=f"{field} must be an integer, got 1.5"):
        _cfg(**{field: 1.5})


@pytest.mark.parametrize("old, new, message", [
    ("instances = 4", "instances = 1000001", "instances must be at most 1000000"),
    ("instances = 4", f"instances = {'9' * 5000}", "instances must be at most 1000000"),
    ("nodes_max = 12", "nodes_max = 333334",
     "nodes_max times the heuristic count must be at most 1000000"),
    ("quick.max_iterations = 20", f"quick.max_iterations = {'9' * 5000}",
     "max_iterations must be at most 2**53 = 9007199254740992"),
], ids=["instances", "instances 5000 digits", "pairs", "max_iterations 5000 digits"])
def test_config_sizes_beyond_the_limits_rejected(old, new, message):
    # the configuration is refused before anything is drawn; larger instance
    # and pair counts used to be accepted, and texts too long for int()
    # reported as non-integers, repeating the whole text
    with pytest.raises(InputError) as excinfo:
        load_sim_config(PLANTED_CFG.replace(old, new))
    assert str(excinfo.value) == message
    boundary = (PLANTED_CFG.replace("instances = 4", "instances = 1000000")
                .replace("nodes_max = 12", "nodes_max = 333333"))
    assert load_sim_config(boundary).instances == 1000000


_SPEC = HeuristicSpec("h", "DIVING", 0.5, 0.5, 2, 0.1, 1.0, 1.0)
_CFG_KEYS = "instances = 2\nnodes_min = 1\nnodes_max = 2\ninterarrival_seconds = 1\n"


@pytest.mark.parametrize("make, message", [
    (lambda: dataclasses.replace(_SPEC, klass="GREEDY"),
     "heuristic class must be one of ('DIVING', 'LNS'), got 'GREEDY'"),
    (lambda: dataclasses.replace(_SPEC, success_probability=1.5),
     "success_probability must lie in [0, 1], got 1.5"),
    (lambda: dataclasses.replace(_SPEC, iteration_success_rate=0.0),
     "iteration_success_rate must lie in (0, 1], got 0.0"),
    (lambda: dataclasses.replace(_SPEC, seconds_per_iteration=0.0),
     "seconds_per_iteration must be positive, got 0.0"),
    (lambda: dataclasses.replace(_SPEC, quality_spread=-1.0),
     "quality_spread must be nonnegative, got -1.0"),
    (lambda: dataclasses.replace(_SPEC, max_iterations=True),
     "max_iterations must be a positive integer, got True"),
    (lambda: _cfg(heuristics=()), "configuration needs at least one heuristic"),
    (lambda: _cfg(heuristics=(_SPEC, _SPEC)), "heuristic ids must be unique"),
    (lambda: _cfg(instances=0), "instances must be positive, got 0"),
    (lambda: _cfg(instances=True), "instances must be an integer, got True"),
    (lambda: _cfg(nodes_min=True), "nodes_min must be an integer, got True"),
    (lambda: _cfg(nodes_max=True), "nodes_max must be an integer, got True"),
    (lambda: dataclasses.replace(_SPEC, success_probability=True),
     "success_probability must lie in [0, 1], got True"),
    (lambda: _cfg(nodes_min=6, nodes_max=5), "node count range [6, 5] is invalid"),
    (lambda: _cfg(interarrival_seconds=0.0), "interarrival_seconds must be positive"),
    (lambda: _cfg(time_limit_seconds=0.0), "time_limit_seconds must be positive"),
    (lambda: load_sim_config("# a comment\ninstances 2\n"),
     "line 2: expected 'key = value', got 'instances 2'"),
    (lambda: load_sim_config(" = 2\n"), "line 1: empty key"),
    (lambda: load_sim_config("instances = 2\n"),
     "configuration is missing required key 'nodes_min'"),
    (lambda: load_sim_config(_CFG_KEYS + "heuristics = , \n"),
     "configuration key 'heuristics' lists no heuristic ids"),
    (lambda: collect_shadow_dataset([]), "at least one instance is required"),
    (lambda: collect_shadow_dataset([generate_instance(_cfg(), 0),
                                     generate_instance(_cfg(heuristics=(_SPEC,)), 0)]),
     "instances do not share a heuristic universe"),
    (lambda: run_crossval([_cfg(), _cfg(name="other")], 0, seed=1),
     "fold count must be positive, got 0"),
    (lambda: run_crossval([_cfg(), _cfg(heuristics=(_SPEC,))], 1, seed=1),
     "configurations must share one heuristic universe"),
], ids=["class", "success_probability", "iteration_success_rate", "seconds_per_iteration",
        "quality_spread", "bool max_iterations", "no heuristics", "repeated ids", "no instances",
        "bool instances", "bool nodes_min", "bool nodes_max", "bool success_probability",
        "node range", "interarrival", "time limit", "no equals sign", "empty key", "missing key",
        "empty heuristic list", "no instances to collect", "two universes collected",
        "no folds", "two universes crossvalidated"])
def test_simulator_rejections(make, message):
    with pytest.raises(InputError) as excinfo:
        make()
    assert str(excinfo.value) == message


def test_config_type_errors_name_the_expected_kind():
    integer_key = PLANTED_CFG.replace("slow_a.max_iterations = 30", "slow_a.max_iterations = 1.5")
    with pytest.raises(InputError,
                       match=r"key 'slow_a.max_iterations' must be an integer, got '1.5'"):
        load_sim_config(integer_key)
    number_key = PLANTED_CFG.replace("interarrival_seconds = 0.5", "interarrival_seconds = soon")
    with pytest.raises(InputError,
                       match=r"key 'interarrival_seconds' must be a number, got 'soon'"):
        load_sim_config(number_key)


def _recording_generation(monkeypatch, log):
    """Record ``(pid, seed)`` of every instance drawn, in whichever process draws it."""
    record = _appender(log)
    generate = simulator.generate_instance

    def generate_recording_pid(cfg, seed):
        record(os.getpid(), seed)
        return generate(cfg, seed)

    monkeypatch.setattr(simulator, "generate_instance", generate_recording_pid)


@pytest.mark.parametrize("seeds", [[6], [2, 9], [8, 3, 0, 5, 1]], ids=["one", "two", "five"])
def test_forked_collection_equals_the_serial_one(seeds, monkeypatch, tmp_path):
    cfg = load_sim_config(PLANTED_CFG)
    expected = collect_shadow_dataset([generate_instance(cfg, seed) for seed in seeds])
    log = tmp_path / "draws.txt"
    _recording_generation(monkeypatch, log)
    for count in (1, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)
        log.write_text("", encoding="utf-8")
        d = simulate_shadow_dataset(cfg, seeds)
        assert d == expected
        for got in (d, expected):
            assert got._order == range(len(got.nodes) * len(got.heuristics))
        assert ((d.heuristics, d.nodes, d._executed, d._durations)
                == (expected.heuristics, expected.nodes, expected._executed, expected._durations))
        assert ([d.tau_column(h).taus for h in d.heuristics]
                == [expected.tau_column(h).taus for h in d.heuristics])
        assert dump_dataset(d) == dump_dataset(expected)
        draws = _recorded(log)
        assert sorted(seed for _, seed in draws) == sorted(seeds)
        assert len({pid for pid, _ in draws}) == min(count, len(seeds))


def test_forked_collection_refuses_a_repeated_seed_as_a_duplicate_node():
    cfg = load_sim_config(PLANTED_CFG)
    with pytest.raises(InputError, match="duplicate node id 's4n000' across instances"):
        simulate_shadow_dataset(cfg, [4, 2, 4])
    with pytest.raises(InputError, match="at least one instance is required"):
        simulate_shadow_dataset(cfg, [])


def test_crossval_training_folds_draw_in_forked_workers(monkeypatch, tmp_path):
    configs = _two_families(PLANTED_CFG)  # five instances each: folds of 3 and 2
    log = tmp_path / "draws.txt"
    _recording_generation(monkeypatch, log)
    monkeypatch.setattr(workers, "_worker_count", lambda: 3)
    run_crossval(configs, 2, seed=1)
    base = 100_000_000
    training = {seed: pid for pid, seed in _recorded(log) if seed % 1_000_000 < 500_000}
    assert sorted(training) == [base + i * 1_000_000 + k for i in range(2) for k in range(5)]
    # the caller draws the first seed of each fold, its workers the others
    caller = os.getpid()
    assert sorted(seed for seed, pid in training.items() if pid == caller) == [
        base + i * 1_000_000 + k for i in range(2) for k in (0, 3)]


def _refusing_generation(monkeypatch, refused):
    generate = simulator.generate_instance

    def refusing(cfg, seed):
        if seed in refused:
            raise InputError(f"seed {seed} refused")
        return generate(cfg, seed)

    monkeypatch.setattr(simulator, "generate_instance", refusing)


# with 3 workers the caller draws indexes 0, 3, ...; the workers 1, 4, ... and 2, 5, ...
@pytest.mark.parametrize("seeds,refused,first", [
    ([4, 7, 2, 9], {7, 9}, 7),          # a worker's seed before the caller's
    ([9, 2, 5, 7], {9, 7}, 9),          # the caller's seed before its own later one
    ([2, 5, 7, 1, 3, 9], {9, 7}, 7),    # both in one worker
    ([2, 5, 1, 3, 9, 4], {4, 5}, 5),    # in two workers
    ([4, 2, 4, 7], {7}, 7),             # every instance is drawn before repeated nodes count
])
def test_first_refused_instance_in_seed_order_raises(seeds, refused, first, monkeypatch):
    cfg = load_sim_config(PLANTED_CFG)
    _refusing_generation(monkeypatch, refused)
    with pytest.raises(InputError, match=f"^seed {first} refused$"):
        collect_shadow_dataset(simulator.generate_instance(cfg, seed) for seed in seeds)
    for count in (1, 3):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)
        with pytest.raises(InputError, match=f"^seed {first} refused$"):
            simulate_shadow_dataset(cfg, seeds)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _reference_run(inst: SimInstance, outcomes: dict, s: Schedule, time_limit: float,
                   checkpoints: list | None = None) -> RunTrace:
    """``run_with_schedule`` as it was before the columns: one loop over the nodes
    that reads a ``(node, heuristic) -> LatentOutcome`` dict.  ``checkpoints``
    collects every clock value compared with the time limit."""
    simulator.require_time_limit(time_limit)
    spec_of = {spec.id: spec for spec in inst.heuristics}
    for heuristic in s.heuristics:
        if heuristic not in spec_of:
            raise InputError(f"schedule heuristic {heuristic!r} is unknown to the instance")
    checkpoints = [] if checkpoints is None else checkpoints
    clock, incumbent, events, records, timed_out = 0.0, None, [], [], False
    for node in inst.nodes:
        clock += inst.interarrival_seconds
        checkpoints.append(clock)
        if clock >= time_limit:
            break
        calls, success_position = [], None
        for position, (heuristic, budget) in enumerate(s.entries, start=1):
            try:
                outcome = outcomes[(node, heuristic)]
            except KeyError:
                raise InputError(f"no latent outcome for ({node!r}, {heuristic!r})") from None
            hit = outcome.succeeds and outcome.iterations <= budget
            spent = outcome.iterations if hit else budget
            clock += spent * spec_of[heuristic].seconds_per_iteration
            checkpoints.append(clock)
            calls.append((heuristic, spent))
            if clock >= time_limit:
                timed_out = True
                break
            if hit and (incumbent is None or outcome.quality < incumbent):
                incumbent = outcome.quality
                events.append((clock, outcome.quality))
                success_position = position
                break
        records.append(NodeRecord(node, tuple(calls), success_position))
        if timed_out:
            break
    timeline = IncumbentTimeline(tuple(events), best_known=inst.optimum_value, sense="min")
    return RunTrace(tuple(records), timeline)


def _run_or_error(run, *args):
    try:
        return run(*args)
    except InputError as exc:
        return f"InputError: {exc}"


@st.composite
def replay_cases(draw):
    """A hand-built instance, the dict it was built from and a schedule.  Few
    quality levels give equal and non-improving successes; some pairs may be
    missing; the limit is none, a clock value the replay compares it with
    (an arrival or a call) or any time up to the end of the run."""
    ids = [f"h{i}" for i in range(draw(st.integers(1, 4)))]
    specs = tuple(HeuristicSpec(h, "DIVING", 0.5, 0.5, draw(st.integers(1, 6)),
                                draw(st.sampled_from((0.05, 0.5, 2.0))), 1.0, 1.0)
                  for h in ids)
    nodes = tuple(f"n{k}" for k in range(draw(st.integers(0, 6))))
    missing = draw(st.sampled_from((0.0, 0.0, 0.1)))
    outcomes = {}
    for node in nodes:
        for spec in specs:
            kind = draw(st.sampled_from(("success", "success", "failure", "missing")))
            if kind == "missing" and missing:
                continue
            if kind == "success":
                outcomes[(node, spec.id)] = LatentOutcome(
                    True, draw(st.integers(1, spec.max_iterations)),
                    draw(st.sampled_from((70.0, 80.0, 80.0, 90.0))))
            else:
                outcomes[(node, spec.id)] = LatentOutcome(False, spec.max_iterations, None)
    inst = SimInstance(seed=0, heuristics=specs, nodes=nodes, outcomes=outcomes,
                       interarrival_seconds=draw(st.sampled_from((0.1, 0.5, 1.0))),
                       optimum_value=60.0)
    order = draw(st.permutations(specs))[:draw(st.integers(0, len(specs)))]
    schedule = Schedule(tuple((spec.id, draw(st.integers(1, spec.max_iterations + 2)))
                              for spec in order))
    checkpoints = []
    _run_or_error(_reference_run, inst, outcomes, schedule, 1e9, checkpoints)
    end = checkpoints[-1] if checkpoints else 1.0
    limit = draw(st.just(1e9) | st.sampled_from(checkpoints or [1.0])
                 | st.floats(end / 1000, end))
    return inst, outcomes, schedule, limit


@settings(max_examples=400)
@given(case=replay_cases())
def test_replay_equals_the_dict_based_loop(case):
    inst, outcomes, schedule, limit = case
    assert (_run_or_error(run_with_schedule, inst, schedule, limit)
            == _run_or_error(_reference_run, inst, outcomes, schedule, limit))


def _two_node_case(outcome_b1):
    """Nodes n0, n1 and heuristics a, b (one second per iteration, arrivals 1 s
    apart); a finds 80 at n0, then n1 sees a at 80 again and b as given."""
    spec_a = HeuristicSpec("a", "DIVING", 1.0, 0.5, 5, 1.0, 5.0, 1.0)
    spec_b = HeuristicSpec("b", "LNS", 1.0, 0.5, 5, 1.0, 5.0, 1.0)
    outcomes = {("n0", "a"): LatentOutcome(True, 2, 80.0),
                ("n0", "b"): LatentOutcome(False, 5, None),
                ("n1", "a"): LatentOutcome(True, 1, 80.0)}
    if outcome_b1 is not None:
        outcomes[("n1", "b")] = outcome_b1
    inst = SimInstance(seed=0, heuristics=(spec_a, spec_b), nodes=("n0", "n1"), outcomes=outcomes,
                       interarrival_seconds=1.0, optimum_value=60.0)
    return inst, outcomes


# clock: n0 arrives at 1, a finds 80 at 3; n1 arrives at 4, a (equal, not
# improving) ends at 5, b at 5 + its iterations
@pytest.mark.parametrize("outcome_b1, entries, limit, expected", [
    (LatentOutcome(True, 2, 70.0), (("a", 3), ("b", 3)), 1e9,
     ((("a", 2),), 1, (("a", 1), ("b", 2)), 2, ((3.0, 80.0), (7.0, 70.0)))),
    (LatentOutcome(True, 2, 70.0), (("a", 3), ("b", 3)), 4.0,
     ((("a", 2),), 1, None, None, ((3.0, 80.0),))),
    (LatentOutcome(True, 2, 70.0), (("a", 3), ("b", 3)), 6.0,
     ((("a", 2),), 1, (("a", 1), ("b", 2)), None, ((3.0, 80.0),))),
    (LatentOutcome(True, 2, 80.0), (("a", 3), ("b", 3)), 1e9,
     ((("a", 2),), 1, (("a", 1), ("b", 2)), None, ((3.0, 80.0),))),
    (None, (("a", 3), ("b", 3)), 1e9, "InputError: no latent outcome for ('n1', 'b')"),
    (None, (("a", 3), ("b", 3)), 4.0, ((("a", 2),), 1, None, None, ((3.0, 80.0),))),
    (None, (), 1e9, ((), None, (), None, ())),
], ids=["improving", "cut at an arrival", "cut mid-node", "equal quality", "missing pair",
        "missing pair beyond the limit", "empty schedule"])
def test_replay_paths_match_the_dict_based_loop(outcome_b1, entries, limit, expected):
    inst, outcomes = _two_node_case(outcome_b1)
    schedule = Schedule(entries)
    result = _run_or_error(run_with_schedule, inst, schedule, limit)
    assert result == _run_or_error(_reference_run, inst, outcomes, schedule, limit)
    if isinstance(expected, str):
        assert result == expected
        return
    calls0, success0, calls1, success1, events = expected
    assert result.timeline.events == events
    assert [(record.calls, record.success_position) for record in result.nodes] == (
        [(calls0, success0)] + ([(calls1, success1)] if calls1 is not None else []))


@settings(max_examples=15)
@given(laws=st.lists(_laws, min_size=1, max_size=3), nodes_max=st.integers(1, 12),
       seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=3), data=st.data())
def test_compare_rows_match_the_dict_based_loop(laws, nodes_max, seeds, data):
    specs = tuple(HeuristicSpec(f"h{k}", "DIVING", p, rate, cap, 0.1, mean, spread)
                  for k, (p, rate, cap, mean, spread) in enumerate(laws))
    cfg = _cfg(heuristics=specs, nodes_min=1, nodes_max=nodes_max)
    order = data.draw(st.permutations(specs))[:data.draw(st.integers(0, len(specs)))]
    schedule = Schedule(tuple((spec.id, data.draw(st.integers(1, spec.max_iterations)))
                              for spec in order))
    baseline = default_baseline(cfg)
    comparison = compare_policies(cfg, seeds, schedule, baseline,
                                  data.draw(st.none() | st.floats(0.5, 50.0)))
    limit = comparison.time_limit
    expected = []
    for seed in seeds:
        nodes, outcomes = _reference_instance(cfg, seed)
        inst = SimInstance(seed, specs, nodes, outcomes, cfg.interarrival_seconds,
                           cfg.optimum_value)
        integral, baseline_integral = (
            primal_integral(_reference_run(inst, outcomes, s, limit).timeline, limit)
            for s in (schedule, baseline))
        expected.append(SeedComparison(seed, integral, baseline_integral,
                                       integral / baseline_integral))
    assert comparison.rows == tuple(expected)


@settings(max_examples=30)
@given(config=st.sampled_from((PLANTED_CFG, COVERAGE_CFG)), seed=st.integers(0, 10**6))
def test_outcomes_view_reads_like_the_dict(config, seed):
    cfg = load_sim_config(config)
    inst = generate_instance(cfg, seed)
    nodes, outcomes = _reference_instance(cfg, seed)
    assert isinstance(inst.outcomes, OutcomeColumns)
    assert list(inst.outcomes) == list(outcomes)
    assert dict(inst.outcomes) == outcomes
    assert list(inst.outcomes.items()) == list(outcomes.items())
    assert len(inst.outcomes) == len(outcomes)
    built = SimInstance(seed, cfg.heuristics, nodes, outcomes, cfg.interarrival_seconds,
                        cfg.optimum_value)
    assert isinstance(built.outcomes, OutcomeColumns)
    assert (built.outcomes.iterations, built.outcomes.qualities) == (
        inst.outcomes.iterations, inst.outcomes.qualities)
    assert built == inst and inst == built
    assert inst.outcomes == outcomes and outcomes == inst.outcomes


def test_outcome_errors_and_conversion_checks():
    inst, outcomes = _two_node_case(None)  # ("n1", "b") is missing
    assert ("n1", "b") not in inst.outcomes and ("n1", "a") in inst.outcomes
    assert len(inst.outcomes) == 3
    assert list(inst.outcomes) == [("n0", "a"), ("n0", "b"), ("n1", "a")]
    for node, heuristic in [("n1", "b"), ("n9", "a"), ("n0", "zz")]:
        with pytest.raises(InputError) as excinfo:
            inst.outcome(node, heuristic)
        assert str(excinfo.value) == f"no latent outcome for ({node!r}, {heuristic!r})"
    with pytest.raises(InputError, match=r"^no latent outcome for \('n1', 'b'\)$"):
        collect_shadow_dataset([inst])
    with pytest.raises(TypeError):
        inst.outcomes[("n1", "b")] = LatentOutcome(False, 5, None)
    extra = {**outcomes, ("n9", "a"): LatentOutcome(False, 5, None)}
    with pytest.raises(InputError, match="^latent outcomes name a node or heuristic "
                                         "the instance lacks$"):
        dataclasses.replace(inst, outcomes=extra)
    for succeeds, quality in [(True, None), (False, 80.0)]:
        with pytest.raises(InputError, match="^a latent outcome has a quality exactly "
                                             "when it succeeds$"):
            LatentOutcome(succeeds, 2, quality)


def test_default_time_limit_overflow_is_named():
    # 2**53 iterations of 1e300 seconds overflow the worst-case default to inf
    cfg = _cfg(heuristics=(_spec(max_iterations=2 ** 53, seconds_per_iteration=1e300),))
    with pytest.raises(InputError) as excinfo:
        cfg.effective_time_limit()
    assert str(excinfo.value) == ("the default time limit (every node running every heuristic "
                                  "to its cap) overflows; set time_limit_seconds or pass "
                                  "--time-limit")
    assert dataclasses.replace(cfg, time_limit_seconds=60.0).effective_time_limit() == 60.0
    assert compare_policies(cfg, [0], default_baseline(cfg), Schedule(), 60.0).time_limit == 60.0
