"""Simulation engine: scheduling, periodic traffic, trace output,
determinism, validation, and reporting."""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from caplora import Metrics, ScenarioConfig, Simulator, run_scenario
from caplora.clock import NS_PER_S
from caplora.energy import harvester_conductance, load_conductance
from caplora.engine import (
    RESULTS_HEADER,
    results_row,
    success_probability,
    validate_scenario,
)
from caplora.lorawan import DeviceState


def test_periodic_generation_count():
    config = ScenarioConfig(
        capacitance_f=0.1,
        power_w=0.01,
        packet_period_s=60.0,
        first_packet_s=0.0,
        duration_s=6 * 3600.0,
    )
    metrics = run_scenario(config)
    # One packet per minute for six hours, the first at t = 0; the one due
    # exactly at the end is outside the run.
    assert metrics.generated == 360


def test_first_packet_drawn_from_seeded_rng():
    base = ScenarioConfig(
        capacitance_f=0.1,
        power_w=0.01,
        packet_period_s=300.0,
        duration_s=900.0,
        trace=True,
    )
    first_times = []
    for seed in (1, 1, 2):
        metrics = run_scenario(replace(base, seed=seed))
        tx = [r.time_s for r in metrics.trace.records if r.state == "Tx"]
        first_times.append(tx[0])
    assert first_times[0] == first_times[1]
    assert first_times[0] != first_times[2]
    assert 0.0 <= first_times[0] <= 300.0


def test_identical_seeds_reproduce_random_harvest_runs():
    config = ScenarioConfig(
        capacitance_f=0.005,
        harvester="random",
        distribution="uniform",
        low_w=0.0,
        high_w=0.002,
        packet_period_s=30.0,
        duration_s=1800.0,
        seed=42,
        trace=True,
    )
    a, b = run_scenario(config), run_scenario(config)
    assert results_row(config, a) == results_row(config, b)
    assert a.trace.records == b.trace.records
    different = run_scenario(replace(config, seed=43))
    assert a.trace.records != different.trace.records


def test_update_interval_does_not_change_the_physics():
    base = ScenarioConfig(
        capacitance_f=0.004,
        power_w=0.001,
        packet_period_s=45.0,
        first_packet_s=10.0,
        duration_s=600.0,
    )
    coarse = run_scenario(replace(base, update_interval_s=1.0))
    fine = run_scenario(replace(base, update_interval_s=0.01))
    assert coarse.generated == fine.generated
    assert coarse.delivered_ul == fine.delivered_ul
    assert coarse.depletion_events == fine.depletion_events
    assert coarse.final_voltage_v == pytest.approx(fine.final_voltage_v, rel=1e-9)


def test_stored_energy_balances_load_energy_without_harvest():
    config = ScenarioConfig(
        capacitance_f=0.05,
        power_w=0.0,
        initial_voltage_v=3.3,
        packet_period_s=20.0,
        first_packet_s=0.0,
        duration_s=120.0,
        guard_enabled=False,
    )
    sim = Simulator(config)
    metrics = sim.run()
    assert metrics.generated > 0
    v_end = metrics.final_voltage_v
    stored_drop = 0.5 * config.capacitance_f * (3.3**2 - v_end**2)
    assert sim.cap.load_energy_j == pytest.approx(stored_drop, rel=1e-12)


def test_trace_sampling_grid():
    config = ScenarioConfig(
        capacitance_f=0.1,
        power_w=0.001,
        update_interval_s=10.0,
        first_packet_s=1000.0,  # no packet inside the run
        packet_period_s=1000.0,
        duration_s=80.0,
        trace=True,
    )
    metrics = run_scenario(config)
    records = metrics.trace.records
    assert [r.time_s for r in records] == [float(t) for t in range(0, 81, 10)]
    assert all(r.state == "Sleep" for r in records)
    voltages = [r.voltage_v for r in records]
    assert voltages == sorted(voltages, reverse=True)  # slow sleep discharge


def test_depletion_instant_matches_closed_form():
    from caplora.energy import crossing_time, load_conductance
    from caplora.engine import capacitor_params

    config = ScenarioConfig(
        capacitance_f=0.002,
        power_w=0.0,
        initial_voltage_v=3.3,
        first_packet_s=1e6,
        packet_period_s=1e6,
        duration_s=3000.0,
        update_interval_s=100.0,
        trace=True,
    )
    metrics = run_scenario(config)
    params = capacitor_params(config)
    g_sleep = load_conductance(config.sleep_a, config.rail_voltage_v)
    t_star = crossing_time(3.3, 1.8, g_sleep, 0.0, params)
    off = [r for r in metrics.trace.records if r.state == "Off"]
    assert off, "the sleeping device should eventually power down"
    # The wake-up event lands on the analytic crossing to clock resolution,
    # far finer than the 100 s sampling grid.
    assert off[0].time_s == pytest.approx(t_star, abs=1e-6)
    assert off[0].voltage_v == pytest.approx(1.8, abs=1e-9)
    assert metrics.depletion_events == 1


def test_aborted_run_is_flagged_invalid(tmp_path):
    trace = tmp_path / "short.csv"
    trace.write_text("0,0.001\n50,0.002\n")
    config = ScenarioConfig(
        capacitance_f=0.1,
        harvester="trace",
        trace_file=str(trace),
        packet_period_s=20.0,
        first_packet_s=0.0,
        duration_s=200.0,
    )
    metrics = run_scenario(config)
    assert metrics.valid is False


def _write_trace(path, rows):
    path.write_text("".join(f"{t},{p}\n" for t, p in rows))
    return str(path)


def test_repeated_trace_samples_change_nothing(tmp_path):
    # 1 s samples in long runs of equal power, against a trace that holds
    # only the change points plus the last sample.
    runs = [(300, 0.004), (500, 0.0), (400, 0.002), (700, 0.0005)]
    dense, sparse, t = [], [], 0
    for span, power in runs:
        sparse.append((t, power))
        for _ in range(span):
            dense.append((t, power))
            t += 1
    sparse.append(dense[-1])
    base = ScenarioConfig(
        capacitance_f=0.004,
        harvester="trace",
        packet_period_s=30.0,
        duration_s=1800.0,
        confirmed=True,
        guard_enabled=False,
        trace=True,
    )
    outcomes = []
    for name, rows in (("dense.csv", dense), ("sparse.csv", sparse)):
        config = replace(base, trace_file=_write_trace(tmp_path / name, rows))
        sim = Simulator(config)
        metrics = sim.run()
        assert metrics.valid
        assert metrics.depletion_events > 0  # the harvest really matters
        outcomes.append((metrics.trace.records, results_row(config, metrics), sim._seq))
    assert outcomes[0] == outcomes[1]


def test_trace_changes_within_one_tick_take_the_next_tick(tmp_path):
    # 1.0 s and 1.0000000004 s round to the same clock tick: scheduled
    # there, the second change would come back to that tick forever.
    rows = [(0, 0.001), (1.0, 0.002), (1.0000000004, 0.003), (5, 0.001)]
    config = ScenarioConfig(
        harvester="trace", trace_file=_write_trace(tmp_path / "close.csv", rows), duration_s=4.0
    )
    sim = Simulator(config)
    queried = []
    power_at = sim.harvester.power_at
    sim.harvester.power_at = lambda time_s: queried.append(time_s) or power_at(time_s)
    assert sim.run().valid
    assert queried == [0.0, 1.0, 1.000000001, 4.0]
    assert sim.g_harv == harvester_conductance(0.003, config.rail_voltage_v)


def test_exhausted_trace_aborts_at_its_last_sample(tmp_path):
    # The power changes once, at 150 s; the trace goes on unchanged to 399 s.
    rows = [(t, 0.001 if t < 150 else 0.003) for t in range(400)]
    config = ScenarioConfig(
        capacitance_f=0.1,
        harvester="trace",
        trace_file=_write_trace(tmp_path / "short.csv", rows),
        packet_period_s=20.0,
        first_packet_s=0.0,
        duration_s=1000.0,
        trace=True,
    )
    metrics = run_scenario(config)
    assert metrics.valid is False
    assert metrics.trace.records[-1].time_s == 399.0
    assert metrics.generated == 20  # packets at 0, 20, ..., 380


def test_results_row_matches_header():
    config = ScenarioConfig(
        capacitance_f=0.047,
        power_w=0.001,
        data_rate=2,
        packet_period_s=120.0,
        confirmed=True,
    )
    metrics = Metrics(generated=10, delivered_ul=9, acked=7)
    row = results_row(config, metrics)
    fields = row.split(",")
    assert len(fields) == len(RESULTS_HEADER.split(","))
    assert fields[0] == "0.047"
    assert fields[2] == "2"
    assert fields[4] == "1"
    assert fields[5:8] == ["10", "9", "7"]
    assert fields[8] == "0.900000"
    assert fields[9] == "0.700000"
    empty = results_row(config, Metrics())
    assert empty.endswith(",0,0,0,0.000000,0.000000")


def test_success_probability_kinds():
    metrics = Metrics(generated=8, delivered_ul=6, acked=2)
    assert success_probability(metrics, "UL") == pytest.approx(0.75)
    assert success_probability(metrics, "UL+DL") == pytest.approx(0.25)
    with pytest.raises(ValueError):
        success_probability(metrics, "DL")
    with pytest.raises(ValueError):
        success_probability(Metrics(), "UL")


def test_validation_reports_all_problems_together():
    config = ScenarioConfig(
        harvester="solar",
        packet_period_s=0.0,
        duration_s=-5.0,
        guard_horizon="week",
        tx_a=-1.0,
        v_th_low_v=3.1,
        v_th_high_v=3.0,
    )
    problems = validate_scenario(config)
    text = "; ".join(problems)
    assert "harvester" in text
    assert "packet_period_s" in text
    assert "duration_s" in text
    assert "guard_horizon" in text
    assert "tx_a" in text
    assert "v_th_high_v must be > v_th_low_v" in text
    assert len(problems) >= 6
    with pytest.raises(ValueError):
        Simulator(config)


def test_thresholds_pass_through_in_volts():
    from caplora.engine import capacitor_params

    config = ScenarioConfig(
        max_voltage_v=3.23, v_th_low_v=0.95, v_th_high_v=3.0, initial_voltage_v=3.2
    )
    params = capacitor_params(config)
    # Exactly the configured levels, not a round trip through max_voltage_v.
    assert params.v_th_low_v == 0.95
    assert params.v_th_high_v == 3.0


def test_valid_default_scenario_has_no_problems():
    assert validate_scenario(ScenarioConfig()) == []


def test_idle_time_schedules_no_events():
    base = ScenarioConfig(
        capacitance_f=0.005,
        power_w=0.001,
        packet_period_s=60.0,
        duration_s=6 * 3600.0,
    )
    pushes = set()
    # A traced run at 0.01 s would hold 2.16 million samples; 0.25 s
    # already puts 86,400 grid instants between the 360 packets.
    for update_interval_s, trace in ((1.0, False), (0.01, False), (1.0, True), (0.25, True)):
        sim = Simulator(replace(base, update_interval_s=update_interval_s, trace=trace))
        metrics = sim.run()
        assert metrics.generated == 360
        # Events follow packets and radio states, not the seconds that pass.
        assert sim._seq < 20 * metrics.generated
        pushes.add(sim._seq)
    assert len(pushes) == 1


def test_a_cycle_is_the_same_whenever_it_runs():
    # The voltage rests at the cap until the packet, so a confirmed cycle
    # starts from the same state at 1 h and at 23 h. On the integer-ns
    # clock only time differences enter the physics and the budgets.
    base = ScenarioConfig(
        max_voltage_v=3.2, initial_voltage_v=3.2, power_w=0.002, confirmed=True, trace=True
    )
    runs = []
    for start_s in (3600.0, 23 * 3600.0):
        sim = Simulator(replace(base, first_packet_s=start_s, duration_s=start_s + 30.0))
        metrics = sim.run()
        start_ns = round(start_s * NS_PER_S)
        cycle = [
            (round(r.time_s * NS_PER_S) - start_ns, r.voltage_v, r.state)
            for r in metrics.trace.records
            if r.time_s >= start_s
        ]
        # An unused budget's block lies in the past: an offset of 0.
        budgets = [
            max(0, budget.blocked_until_ns - start_ns)
            for budget in (sim.device.ul_budget, sim.gateway.rx1_budget, sim.gateway.rx2_budget)
        ]
        runs.append((cycle, budgets, sim.cap.voltage_v))
    assert runs[0][0][0][1] == 3.2
    assert {state for _, _, state in runs[0][0]} >= {"Tx", "Idle", "Rx", "Sleep"}
    assert runs[0] == runs[1]


def test_brownout_cost_is_linear_in_simulated_time():
    base = ScenarioConfig(
        capacitance_f=0.3e-3,
        power_w=0.5e-3,
        confirmed=True,
        guard_enabled=False,
    )
    pushes, depletions = [], []
    for duration_s in (1800.0, 3600.0):
        sim = Simulator(replace(base, duration_s=duration_s))
        depletions.append(sim.run().depletion_events)
        pushes.append(sim._seq)
    assert depletions[0] > 50  # the device really browns out, repeatedly
    assert depletions[1] <= 2.1 * depletions[0]
    # Stale crossing events no longer pile up between brownouts.
    assert pushes[1] <= 2.1 * pushes[0]


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"capacitance_f": 0.3e-3, "power_w": 0.5e-3, "confirmed": True, "guard_enabled": False},
        {
            "capacitance_f": 0.006,
            "harvester": "random",
            "distribution": "exponential",
            "mean_w": 0.0003,
            "harvest_update_period_s": 7.0,
            "guard_enabled": False,
        },
        {"update_interval_s": 0.37, "capacitance_f": 0.006, "power_w": 0.0002, "guard_enabled": False},
    ],
    ids=["default", "brownout", "random-exponential", "odd-interval"],
)
def test_tracing_is_observation_only(overrides):
    # All but the default scenario brown out and recover several times.
    config = replace(ScenarioConfig(), **overrides)
    plain = run_scenario(config)
    traced = run_scenario(replace(config, trace=True))
    assert traced.trace.records
    assert results_row(config, traced) == results_row(config, plain)
    assert traced.final_voltage_v == plain.final_voltage_v
    assert traced.depletion_events == plain.depletion_events


@pytest.mark.parametrize("duration_s", [600.0, 6 * 3600.0])
def test_run_converts_each_load_current_once(monkeypatch, duration_s):
    calls = []

    def counting(current_a, rail_voltage_v):
        calls.append(current_a)
        return load_conductance(current_a, rail_voltage_v)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "load_conductance", None)
        if name.split(".")[0] == "caplora" and bound is load_conductance:
            monkeypatch.setattr(module, "load_conductance", counting)
    config = ScenarioConfig(
        capacitance_f=0.005, confirmed=True, duration_s=duration_s, trace=True
    )
    metrics = run_scenario(config)
    assert metrics.generated > 0 and metrics.trace.records
    assert len(calls) == len(DeviceState)
