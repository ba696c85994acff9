from __future__ import annotations

import pytest

from heursched import (HeuristicSpec, InputError, LatentOutcome, Schedule, SimConfig,
                       SimInstance, breakpoints, collect_shadow_dataset,
                       compare_policies, default_baseline, generate_instance,
                       load_sim_config, node_cost, primal_integral,
                       run_with_schedule)

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


@pytest.mark.parametrize("field", ["instances", "nodes_min", "nodes_max"])
def test_non_integer_counts_rejected(field):
    with pytest.raises(InputError, match=f"{field} must be an integer, got 1.5"):
        _cfg(**{field: 1.5})


def test_config_type_errors_name_the_expected_kind():
    integer_key = PLANTED_CFG.replace("slow_a.max_iterations = 30", "slow_a.max_iterations = 1.5")
    with pytest.raises(InputError,
                       match=r"key 'slow_a.max_iterations' must be an integer, got '1.5'"):
        load_sim_config(integer_key)
    number_key = PLANTED_CFG.replace("interarrival_seconds = 0.5", "interarrival_seconds = soon")
    with pytest.raises(InputError,
                       match=r"key 'interarrival_seconds' must be a number, got 'soon'"):
        load_sim_config(number_key)
