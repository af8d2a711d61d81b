"""Simulation engine: scheduling, periodic traffic, trace output,
determinism, validation, and reporting."""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import caplora.engine
from caplora import ConfigError, Metrics, ScenarioConfig, Simulator, run_scenario
from caplora.clock import NS_PER_S
from caplora.device import CycleOutcome, CycleRecord
from caplora.energy import (
    TraceRecorder,
    crossing_tick,
    harvester_conductance,
    load_conductance,
    propagate_voltage,
)
from caplora.engine import (
    RESULTS_HEADER,
    capacitor_params,
    check_scenarios,
    results_row,
    success_probability,
    validate_scenario,
)
from caplora.lorawan import DeviceState

from conftest import (
    assert_same_run,
    empty_stores,
    run_both_ways,
    shortcuts_off,
    traced_load_energy,
)


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
        trace=True,
    )
    sim = Simulator(config)
    metrics = sim.run()
    assert metrics.generated > 0
    v_end = metrics.final_voltage_v
    stored_drop = 0.5 * config.capacitance_f * (3.3**2 - v_end**2)
    assert traced_load_energy(sim) == pytest.approx(stored_drop, rel=1e-12)


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


def test_trace_state_column_is_each_state_s_text():
    # Powered down at the start, the device turns on, then sends confirmed
    # uplinks whose replies it receives: a run through every state.
    config = ScenarioConfig(
        initial_voltage_v=1.0,
        power_w=0.005,
        confirmed=True,
        dl_payload_bytes=10,
        duration_s=600.0,
        trace=True,
    )
    metrics = run_scenario(config)
    column = {record.state for record in metrics.trace.records}
    assert column == {str(state) for state in DeviceState}
    assert column == {state.value for state in DeviceState}
    assert all(type(text) is str for text in column)


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


class _EventRecorder(TraceRecorder):
    """A trace recorder that notes which records the events made: those
    recorded on the tick the capacitor was last updated at. A row at a
    cancelled entry, which leaves the capacitor behind, is not one."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__()
        self.sim = sim
        self.event_rows: list[int] = []

    def record(self, time_s: float, voltage_v: float, state: str) -> None:
        if self.sim.cap.last_update_ns == round(time_s * NS_PER_S):
            self.event_rows.append(len(self))
        super().record(time_s, voltage_v, state)


def test_grid_samples_equal_propagate_voltage_exactly(tmp_path):
    # Power changes every few minutes, with dark spells that brown out.
    powers = [0.004, 0.0, 0.0015, 0.0, 0.006, 0.0005, 0.0, 0.003]
    rows = [(t, powers[(t // 240) % len(powers)]) for t in range(0, 2000, 10)]
    config = ScenarioConfig(
        capacitance_f=0.004,
        harvester="trace",
        trace_file=_write_trace(tmp_path / "steps.csv", rows),
        packet_period_s=45.0,
        confirmed=True,
        duration_s=1900.0,
        update_interval_s=0.7,
        trace=True,
    )
    sim = Simulator(config)
    recorder = sim.metrics.trace = _EventRecorder(sim)
    metrics = sim.run()
    assert metrics.valid
    assert metrics.depletion_events > 0
    params = sim.cap.params
    events = set(recorder.event_rows)
    last_event = None
    samples = 0
    for index, rec in enumerate(recorder.records):
        if index in events:
            last_event = rec
            continue
        assert last_event is not None
        t0_ns = round(last_event.time_s * NS_PER_S)
        t_ns = round(rec.time_s * NS_PER_S)
        assert rec.time_s == t_ns / NS_PER_S
        g_load = sim.g_load[DeviceState(last_event.state)]
        power = sim.harvester.power_at(last_event.time_s)
        g_harv = harvester_conductance(power, config.rail_voltage_v)
        elapsed = (t_ns - t0_ns) / NS_PER_S
        expected = propagate_voltage(last_event.voltage_v, elapsed, g_load, g_harv, params)
        assert rec.voltage_v == expected
        assert rec.state == last_event.state
        samples += 1
    assert samples > 1000
    assert {rec.state for rec in recorder.records} >= {"Off", "Sleep", "Tx", "Rx"}


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


@pytest.mark.parametrize("period_s, generated", [(100.0, 6), (30.0, 20)])
def test_a_run_aborted_while_powered_down_ends_before_its_last_tick(tmp_path, period_s, generated):
    # The harvest changes every 50 s, too little to power the device up, and
    # the trace ends at 600 s, before the run. Like a run that ends on time,
    # it counts the packets due before that tick, not one due on it, whether
    # the packet period is longer than the trace's step or shorter.
    rows = [(t, t // 50 % 2 * 1e-6) for t in range(0, 601, 50)]
    config = ScenarioConfig(
        harvester="trace",
        trace_file=_write_trace(tmp_path / "dim.csv", rows),
        initial_voltage_v=1.0,
        packet_period_s=period_s,
        first_packet_s=0.0,
        duration_s=900.0,
    )
    metrics = run_scenario(config)
    assert metrics.valid is False
    assert metrics.generated == generated
    last_ns = round((600.0 - period_s) * NS_PER_S)
    assert metrics.cycles[-1] == (generated, "UL", last_ns, last_ns, CycleOutcome.FAILED_ENERGY)


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


# ------------------------------------------------------------ the event heap


def test_events_at_one_instant_run_in_scheduling_order():
    sim = Simulator(ScenarioConfig(duration_s=60.0, first_packet_s=30.0))
    at_ns = 10 * NS_PER_S
    order = []

    def first():
        order.append(("first", sim.now_ns))
        # Scheduled at the same instant, it runs after those already there.
        sim.schedule_at_ns(sim.now_ns, lambda: order.append(("late", sim.now_ns)))

    sim.schedule_at_ns(at_ns, first)
    for k in range(4):
        sim.schedule_at_ns(at_ns, lambda k=k: order.append((k, sim.now_ns)))
    sim.run()
    assert order == [("first", at_ns), *((k, at_ns) for k in range(4)), ("late", at_ns)]


def test_a_cancelled_entry_moves_the_clock_but_never_runs():
    config = ScenarioConfig(duration_s=60.0, first_packet_s=30.0, trace=True)
    at_ns = 12_345_678_901  # off the 1 s trace grid, and no other event's time
    records = []
    for cancel in (False, True):
        sim = Simulator(config)
        ran = []
        if cancel:
            sim.cancel(sim.schedule_at_ns(at_ns, lambda: ran.append(sim.now_ns)))
        metrics = sim.run()
        assert ran == []
        records.append(metrics.trace.records)
    # It leaves the capacitor alone, but a traced run still records a row at
    # its time, propagated in closed form, and only that row.
    without, with_entry = records
    rows = [r for r in with_entry if r.time_s == at_ns / NS_PER_S]
    assert [r.state for r in rows] == ["Sleep"]
    assert [r for r in with_entry if r not in rows] == without
    t0 = max(r.time_s for r in without if r.time_s < rows[0].time_s)
    v0 = next(r.voltage_v for r in without if r.time_s == t0)
    g_sleep = config.load_conductances()[DeviceState.SLEEP]
    g_harv = harvester_conductance(config.power_w, config.rail_voltage_v)
    params = capacitor_params(config)
    expected = propagate_voltage(v0, rows[0].time_s - t0, g_sleep, g_harv, params)
    assert rows[0].voltage_v == pytest.approx(expected, abs=1e-12)


def test_a_cancelled_entry_leaves_the_capacitor_alone():
    # Brought up to the entry's time, the capacitor would split its
    # trajectory's closed-form step there, and the run would end an ulp off.
    config = ScenarioConfig(duration_s=60.0, first_packet_s=30.0)
    at_ns = 12_345_678_901
    voltages = []
    for cancel in (False, True):
        sim = Simulator(config)
        if cancel:
            sim.cancel(sim.schedule_at_ns(at_ns, lambda: None))
        voltages.append(sim.run().final_voltage_v)
    assert voltages[1] == voltages[0]


def test_an_entry_cancelled_by_its_own_update_never_runs():
    # A sleeping load drains the capacitor past the cutoff at about 2 s.
    # With no crossing wake-up armed, the update that brings the capacitor
    # to the entry's time finds the depletion, whose device callback cancels
    # the entry, as the device cancels its pending event.
    config = ScenarioConfig(
        power_w=0.0, sleep_a=0.01, guard_enabled=False, first_packet_s=30.0, duration_s=60.0
    )
    sim = Simulator(config)
    sim.cap.next_crossing_ns = lambda g_load, g_harv: None
    ran = []
    entry = sim.schedule_at_ns(10 * NS_PER_S, lambda: ran.append(sim.now_ns))
    device_depleted = sim.device.on_depleted

    def on_depleted(when_ns):
        sim.cancel(entry)
        device_depleted(when_ns)

    sim.device.on_depleted = on_depleted
    metrics = sim.run()
    assert metrics.depletion_events == 1
    assert entry.cancelled
    assert ran == []


def _crossing_from_start(config: ScenarioConfig, state: DeviceState) -> int:
    """The tick at which ``config``'s capacitor, from its initial voltage at
    t = 0 under ``state``'s load and the constant harvest, crosses the
    threshold it starts watching."""
    sim = Simulator(config)
    cap = sim.cap
    g_harv = harvester_conductance(config.power_w, config.rail_voltage_v)
    segment = cap.segment(sim.g_load[state], g_harv)
    return crossing_tick(cap.voltage_v, 0, cap.depleted, segment, cap.params)


def _ending_at(config: ScenarioConfig, tick: int, **overrides) -> Simulator:
    sim = Simulator(replace(config, duration_s=tick / NS_PER_S, **overrides))
    assert sim._duration_ns == tick
    return sim


def test_a_depletion_only_the_last_update_reaches_ends_the_open_cycle():
    # The first packet's uplink drains 1 mF past the cutoff within its
    # airtime. The run ends on that tick, where the crossing wake-up and
    # the next packet generation both fall: the loop pops one of them and
    # stops, and only the final update reaches the depletion.
    config = ScenarioConfig(capacitance_f=0.001, power_w=0.0, guard_enabled=False, first_packet_s=0.0)
    tick = _crossing_from_start(config, DeviceState.TX)
    sim = _ending_at(config, tick, packet_period_s=tick / NS_PER_S)
    assert tick < sim.device._ul_ticks
    metrics = sim.run()
    assert sim._generation.time_ns == tick
    assert metrics.depletion_events == 1
    assert metrics.cycles == [CycleRecord(1, "UL", 0, tick, CycleOutcome.FAILED_ENERGY)]
    # The packet due on the last tick falls past the end: none is held.
    assert metrics.generated == 1
    assert sim._missed_from_ns is None
    assert sim.device.state is DeviceState.OFF


def test_a_recharge_on_the_last_tick_closes_the_off_time_there():
    config = ScenarioConfig(initial_voltage_v=1.0, power_w=0.005, first_packet_s=0.0)
    tick = _crossing_from_start(config, DeviceState.OFF)
    sim = _ending_at(config, tick)
    metrics = sim.run()
    assert sim.device.state is DeviceState.TURN_ON
    assert metrics.off_time_ns == tick
    assert metrics.depletion_events == 0
    # The packet held from t = 0 fails at its own tick.
    assert metrics.cycles == [CycleRecord(1, "UL", 0, 0, CycleOutcome.FAILED_ENERGY)]


def test_a_run_that_starts_depleted_holds_its_first_packet_from_its_own_tick():
    # Charging from 1 V to the 3 V turn-on threshold takes about 44 s; the
    # packets due from 5 s on, up to the turn-on's end, fail at their ticks.
    config = ScenarioConfig(
        initial_voltage_v=1.0, power_w=0.005, first_packet_s=5.0, packet_period_s=10.0, duration_s=120.0
    )
    recharge = _crossing_from_start(config, DeviceState.OFF)
    awake = recharge + round(config.turn_on_s * NS_PER_S)
    held = range(5 * NS_PER_S, awake + 1, 10 * NS_PER_S)
    assert len(held) == 5
    metrics = run_scenario(config)
    assert metrics.cycles[: len(held)] == [
        CycleRecord(packet_id, "UL", t_ns, t_ns, CycleOutcome.FAILED_ENERGY)
        for packet_id, t_ns in enumerate(held, 1)
    ]
    assert metrics.cycles[len(held)].start_ns == held[-1] + 10 * NS_PER_S


def test_a_scheduled_entry_reads_back_its_time_and_cancellation():
    sim = Simulator(ScenarioConfig())
    sim.now_ns = 5_000

    def action():
        pass

    entry = sim.schedule_at_ns(7_500, action)
    assert (entry.time_ns, entry[2], entry.cancelled) == (7_500, action, False)
    sim.cancel(entry)
    assert (entry.time_ns, entry[2], entry.cancelled) == (7_500, action, True)
    # A time already past is scheduled now.
    assert sim.schedule_at_ns(1_000, action).time_ns == 5_000


def test_idle_time_schedules_no_events():
    # A traced run takes no shortcut: compare the four with every shortcut
    # off, so that only the trace grid could add events.
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
        with shortcuts_off():
            metrics = sim.run()
        assert metrics.generated == 360
        # Events follow packets and radio states, not the seconds that pass.
        assert sim._seq < 20 * metrics.generated
        pushes.add(sim._seq)
    assert len(pushes) == 1


@pytest.mark.parametrize("harvester", ["constant", "trace"])
def test_a_powered_down_device_costs_no_events(tmp_path, harvester):
    # No harvest and a start below the cutoff: the device never powers up.
    # A trace harvester takes no shortcut, so the saving is not one.
    month_s = 30 * 86_400.0
    base = ScenarioConfig(power_w=0.0, initial_voltage_v=1.0, duration_s=month_s)
    if harvester == "trace":
        dark = _write_trace(tmp_path / "dark.csv", [(0, 0.0), (month_s, 0.0)])
        base = replace(base, harvester="trace", trace_file=dark)
    sim = Simulator(replace(base, packet_period_s=60.0))
    metrics = sim.run()
    assert metrics.valid
    assert metrics.generated == 43_200
    first_ns, period_ns = metrics.cycles[0].start_ns, sim.packet_period_ns
    assert metrics.cycles == [
        (k + 1, "UL", first_ns + k * period_ns, first_ns + k * period_ns, CycleOutcome.FAILED_ENERGY)
        for k in range(43_200)
    ]
    assert sim._seq < 10
    # 259 million packets fall due, and none is counted or costs an event.
    muted = Simulator(replace(base, packet_period_s=0.01, generate_while_off=False))
    assert muted.run().generated == 0
    assert muted._seq < 10


@pytest.mark.parametrize(
    "overrides, states",
    [
        ({}, {"Tx", "Idle", "Rx", "Sleep"}),
        # Too small a capacitor for the cycle: it browns out and recovers.
        ({"capacitance_f": 0.001, "guard_enabled": False}, {"Tx", "Off", "TurnOn"}),
    ],
    ids=["acked", "brownout"],
)
def test_a_cycle_is_the_same_whenever_it_runs(overrides, states):
    # The voltage rests at the cap until the packet, so a confirmed cycle
    # starts from the same state at 1 h and at 23 h. On the integer-ns
    # clock only time differences enter the physics and the budgets, and
    # every recorded time is a clock time.
    base = ScenarioConfig(
        max_voltage_v=3.2, initial_voltage_v=3.2, power_w=0.002, confirmed=True, trace=True
    )
    base = replace(base, **overrides)
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
        records = [
            (r.start_ns - start_ns, r.end_ns - r.start_ns, r.outcome) for r in metrics.cycles
        ]
        runs.append((cycle, budgets, sim.cap.voltage_v, records, metrics.off_time_ns))
    assert runs[0][0][0][1] == 3.2
    assert {state for _, _, state in runs[0][0]} >= states
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


# IDLE drawing STANDBY's current: a step between the two leaves the
# capacitor's trajectory, and so its crossing tick, as it was.
_EQUAL_LOADS = {
    "idle_a": 0.0105055,
    "standby_a": 0.0105055,
    "capacitance_f": 0.003,
    "power_w": 0.5e-3,
    "guard_enabled": False,
}


def test_states_of_equal_load_keep_their_one_wake_up(monkeypatch):
    armed: dict[Simulator, list[int]] = {}
    schedule = Simulator.schedule_at_ns

    def spy(self, time_ns, action):
        if action is caplora.engine._noop:
            armed.setdefault(self, []).append(time_ns)
        return schedule(self, time_ns, action)

    monkeypatch.setattr(Simulator, "schedule_at_ns", spy)
    fast, slow = run_both_ways(replace(ScenarioConfig(), **_EQUAL_LOADS))
    assert_same_run(fast, slow)
    assert fast.metrics.depletion_events > 0
    # No wake-up is cancelled and armed again on the same tick.
    for ticks in armed.values():
        assert len(ticks) == len(set(ticks))


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
        _EQUAL_LOADS,
    ],
    ids=["default", "brownout", "random-exponential", "odd-interval", "equal-loads"],
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


def test_an_untraced_run_calls_no_trace_helper(monkeypatch):
    # Neither the run loop nor a state change calls a trace helper when no
    # trace is kept; the same scenario traced calls both.
    calls = dict.fromkeys(("_sample_trace", "_record_trace"), 0)
    for name in calls:

        def counted(self, *args, _name=name, _helper=getattr(Simulator, name)):
            calls[_name] += 1
            return _helper(self, *args)

        monkeypatch.setattr(Simulator, name, counted)
    config = ScenarioConfig(
        capacitance_f=0.00055,
        power_w=0.0005,
        confirmed=True,
        guard_enabled=False,
        duration_s=600.0,
    )
    assert run_scenario(config).depletion_events > 0
    assert calls == {"_sample_trace": 0, "_record_trace": 0}
    run_scenario(replace(config, trace=True))
    assert calls["_sample_trace"] > 0 and calls["_record_trace"] > 0


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


def test_a_valid_scenario_is_validated_once_and_a_bad_one_every_time(monkeypatch):
    calls = []
    build = caplora.engine._build_parts

    def counting(config):
        calls.append(config)
        return build(config)

    monkeypatch.setattr(caplora.engine, "_build_parts", counting)
    empty_stores(monkeypatch)
    good = ScenarioConfig(capacitance_f=1)
    check_scenarios([good])
    Simulator(good)
    Simulator(replace(good))
    assert calls == [good]
    # Equal, but with a field of another type: validated afresh.
    Simulator(ScenarioConfig(capacitance_f=1.0))
    assert len(calls) == 2
    bad = ScenarioConfig(capacitance_f=-1.0, duration_s=0.0)
    for _ in range(2):
        with pytest.raises(ConfigError) as excinfo:
            Simulator(bad)
        assert excinfo.value.problems == validate_scenario(bad)
        assert len(excinfo.value.problems) == 2
    assert len(calls) == 6


def test_runs_of_an_equal_scenario_share_its_parts(monkeypatch):
    empty_stores(monkeypatch)
    config = ScenarioConfig(capacitance_f=0.004, confirmed=True)
    a, b = Simulator(config), Simulator(replace(config))
    assert a.cap.params is b.cap.params
    assert a.device.params is b.device.params
    assert a.device._post_tx is b.device._post_tx
    assert caplora.engine._parts_of(config) is caplora.engine._parts_of(replace(config))
    assert len(caplora.engine._scenario_parts) == 1
    # Any other field keeps the scenarios apart.
    other = Simulator(replace(config, seed=3))
    assert other.device.params == a.device.params and other.device.params is not a.device.params
    # An equal value of another type is kept apart, and keeps its type.
    c = Simulator(replace(config, max_transmissions=True))
    assert c.device.params == a.device.params and c.device.params is not a.device.params
    assert c.device.params.max_transmissions is True
    assert len(caplora.engine._scenario_parts) == 3


class _UnhashableFloat(float):
    __hash__ = None  # type: ignore[assignment]


def test_a_field_value_that_cannot_be_hashed_is_never_kept(monkeypatch):
    empty_stores(monkeypatch)
    config = ScenarioConfig(capacitance_f=0.004, sleep_a=_UnhashableFloat(2e-6), duration_s=3600.0)
    first, second = run_scenario(config), run_scenario(config)
    assert caplora.engine._scenario_parts == {}
    assert first == second == run_scenario(replace(config, sleep_a=2e-6))
    assert len(caplora.engine._scenario_parts) == 1


def test_the_first_packet_tick_is_drawn_once_per_scenario(monkeypatch):
    empty_stores(monkeypatch)
    config = ScenarioConfig(packet_period_s=60.0, duration_s=600.0)
    runs = [Simulator(replace(config, capacitance_f=c, seed=seed)) for seed in (1, 2) for c in (0.004, 0.01)]
    starts = [sim.run().cycles[0].start_ns for sim in runs]
    drawn = [round(random.Random(seed).uniform(0.0, 60.0) * NS_PER_S) for seed in (1, 2)]
    assert starts == [drawn[0], drawn[0], drawn[1], drawn[1]]
    # A run of a scenario seen before draws nothing; one of a new scenario draws.
    draws = []
    counted = SimpleNamespace(Random=lambda seed: draws.append(seed) or random.Random(seed))
    monkeypatch.setattr(caplora.engine, "random", counted)
    assert Simulator(replace(config, capacitance_f=0.004, seed=1)).run().cycles[0].start_ns == drawn[0]
    assert draws == []
    assert Simulator(replace(config, capacitance_f=0.02, seed=1)).run().cycles[0].start_ns == drawn[0]
    assert draws == [1]
