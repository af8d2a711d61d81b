"""End-device behaviour: receive-window sequencing, the pre-transmission
energy guard, the replying gateway, and full transmission cycles."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import caplora
from caplora import ScenarioConfig, Simulator, run_scenario
from caplora.clock import NS_PER_S
from caplora.device import (
    GUARD_HORIZON_REPLIES,
    CycleOutcome,
    DlReply,
    Gateway,
    LorawanDevice,
    cycle_states,
    post_tx_sequence,
)
from caplora.energy import harvester_conductance
from caplora.engine import capacitor_params, lorawan_params
from caplora.lorawan import DeviceState, LorawanParams

from conftest import empty_stores, guard_holds


PARAMS = LorawanParams(data_rate=3, ul_payload_bytes=10, dl_payload_bytes=0)


# --------------------------------------------------------- window sequences


def test_sequence_with_no_downlink_listens_through_both_windows():
    seq = post_tx_sequence(PARAMS, DlReply.NONE)
    states = [state for state, _ in seq]
    assert states == [
        DeviceState.STANDBY,
        DeviceState.IDLE,
        DeviceState.STANDBY,
        DeviceState.IDLE,
        DeviceState.STANDBY,
        DeviceState.STANDBY,
    ]
    durations = [duration for _, duration in seq]
    assert durations[0] == pytest.approx(0.01)
    assert durations[1] == pytest.approx(0.99)  # idle until window 1 opens
    assert durations[2] == pytest.approx(0.032768)  # empty window 1 at SF9
    assert durations[3] == pytest.approx(1.0 - 0.032768)
    assert durations[4] == pytest.approx(0.262144)  # empty window 2 at SF12
    assert durations[5] == pytest.approx(0.01)
    # Total span: the two-second wait to window 2 (the opening brief standby
    # eats into it), the empty window, one more brief standby before sleep.
    assert sum(durations) == pytest.approx(2.0 + 0.262144 + 0.01)


def test_sequence_with_downlink_in_first_window_skips_the_second():
    seq = post_tx_sequence(PARAMS, DlReply.IN_RX1)
    states = [state for state, _ in seq]
    assert states == [
        DeviceState.STANDBY,
        DeviceState.IDLE,
        DeviceState.RX,
        DeviceState.STANDBY,
    ]
    rx = [duration for state, duration in seq if state is DeviceState.RX]
    assert rx == [pytest.approx(0.164864)]  # 13-byte frame at SF9


def test_sequence_with_downlink_in_second_window():
    seq = post_tx_sequence(PARAMS, DlReply.IN_RX2)
    states = [state for state, _ in seq]
    assert states == [
        DeviceState.STANDBY,
        DeviceState.IDLE,
        DeviceState.STANDBY,
        DeviceState.IDLE,
        DeviceState.RX,
        DeviceState.STANDBY,
    ]
    rx = [duration for state, duration in seq if state is DeviceState.RX]
    assert rx == [pytest.approx(1.155072)]  # 13-byte frame at SF12


@settings(max_examples=300)
@given(
    data_rate=st.integers(0, 5),
    payload=st.integers(0, 200),
    dl_payload=st.integers(0, 60),
    mac_overhead=st.integers(0, 20),
    rx_window_symbols=st.integers(1, 16),
)
def test_cycle_states_depend_on_the_payload_only_through_its_airtime(
    data_rate, payload, dl_payload, mac_overhead, rx_window_symbols
):
    # The key mincap sizes each cycle under: a payload within a LoRa symbol
    # block of another has the same airtime, and then plays the same cycle.
    radio = LorawanParams(
        data_rate=data_rate, ul_payload_bytes=payload, dl_payload_bytes=dl_payload,
        mac_overhead_bytes=mac_overhead, rx_window_symbols=rx_window_symbols,
    )
    airtime = radio.ul_time_on_air()
    near = (radio._replace(ul_payload_bytes=p) for p in range(max(0, payload - 8), payload + 9))
    alike = [other for other in near if other.ul_time_on_air() == airtime]
    assert radio in alike
    for reply in (None, *DlReply):
        states = cycle_states(radio, reply)
        assert all(cycle_states(other, reply) == states for other in alike)


# ------------------------------------------------------------------- guard


def test_cycle_states():
    # The uplink alone: the guard's ``tx`` horizon and mincap's ``UL``.
    assert cycle_states(PARAMS, None) == [(DeviceState.TX, pytest.approx(0.205824))]
    # Through the close of an empty window 2, the guard's ``cycle`` horizon,
    # but not the trailing standby before sleep.
    cycle = cycle_states(PARAMS, DlReply.NONE)
    assert cycle[0] == (DeviceState.TX, pytest.approx(0.205824))
    assert cycle[1:] == post_tx_sequence(PARAMS, DlReply.NONE)[:-1]
    # Through the reception of a reply in window 1, mincap's ``UL+DL``.
    uldl = cycle_states(PARAMS, DlReply.IN_RX1)
    assert [s for s, _ in uldl] == [
        DeviceState.TX,
        DeviceState.STANDBY,
        DeviceState.IDLE,
        DeviceState.RX,
    ]


def test_guard_blocks_only_when_prediction_dips_below_cutoff():
    config = ScenarioConfig(power_w=0.001)
    cap = capacitor_params(config)
    g_load = config.load_conductances()
    g_harv = harvester_conductance(0.001, 3.3)
    devices = []
    for reply in (None, DlReply.NONE):
        horizon = next(name for name, r in GUARD_HORIZON_REPLIES.items() if r is reply)
        sim = Simulator(replace(config, guard_horizon=horizon))
        sim.g_harv = g_harv
        segments = [(duration, g_load[state]) for state, duration in cycle_states(PARAMS, reply)]
        # The device answers as the guard's rule does over its horizon.
        for v in (1.81, 1.9, 2.0, 2.2, 2.6, 3.0, 3.3):
            assert sim.device.guard_allows(v) is guard_holds(v, segments, g_harv, cap)
        devices.append(sim.device)
    tx, cycle = devices
    # Plenty of charge: allowed. Barely above the cutoff: vetoed.
    assert tx.guard_allows(3.3)
    assert not tx.guard_allows(1.81)
    # The cycle horizon is strictly more cautious than the uplink alone.
    for v in (1.9, 2.0, 2.2, 2.6, 3.0, 3.3):
        assert tx.guard_allows(v) or not cycle.guard_allows(v)


def test_guard_skips_are_counted_and_recorded():
    config = ScenarioConfig(
        capacitance_f=2e-4,  # far too small to survive one frame
        power_w=0.001,
        initial_voltage_v=2.0,
        first_packet_s=0.0,
        packet_period_s=30.0,
        duration_s=100.0,
        guard_enabled=True,
    )
    metrics = run_scenario(config)
    assert metrics.generated == 4
    assert metrics.skipped_by_guard == 4
    assert metrics.delivered_ul == 0
    assert all(c.outcome is CycleOutcome.SKIPPED_GUARD for c in metrics.cycles)


@pytest.mark.parametrize("horizon", GUARD_HORIZON_REPLIES)
def test_the_guard_plays_its_horizon_once_per_harvest_step(tmp_path, monkeypatch, horizon):
    # On a trace that steps between five harvest levels, two of them dark,
    # every guard answer is the guard rule's at the harvest of its moment,
    # and the horizon is played again only when that harvest changed.
    levels = (0.004, 0.0, 0.0008, 0.0, 0.002, 0.0003)
    trace = tmp_path / "steps.csv"
    trace.write_text(
        "time_s,power_w\n" + "".join(f"{t},{levels[t // 300 % 6]}\n" for t in range(0, 3601, 300))
    )
    config = ScenarioConfig(
        harvester="trace",
        trace_file=str(trace),
        capacitance_f=0.01,
        packet_period_s=20.0,
        confirmed=True,
        guard_horizon=horizon,
        duration_s=3600.0,
    )
    answers = []
    allows = LorawanDevice.guard_allows

    def spy(device, voltage_v):
        answer = allows(device, voltage_v)
        answers.append((voltage_v, device.sim.g_harv, answer))
        return answer

    plays = []
    play = caplora.device.played_segments
    monkeypatch.setattr(caplora.device, "played_segments", lambda *args: plays.append(args[1]) or play(*args))
    monkeypatch.setattr(LorawanDevice, "guard_allows", spy)
    metrics = run_scenario(config)
    played_at = plays[:]
    assert {answer for *_, answer in answers} == {True, False}
    assert metrics.skipped_by_guard == sum(not answer for *_, answer in answers)
    steps = [g for i, (_, g, _) in enumerate(answers) if i == 0 or g != answers[i - 1][1]]
    assert played_at == steps and len(set(steps)) == 5
    g_load = config.load_conductances()
    segments = [
        (duration, g_load[state])
        for state, duration in cycle_states(lorawan_params(config), GUARD_HORIZON_REPLIES[horizon])
    ]
    cap = capacitor_params(config)
    for voltage_v, g_harv, answer in answers:
        assert answer is guard_holds(voltage_v, segments, g_harv, cap)


# ----------------------------------------------------------------- gateway


def test_gateway_prefers_window_one_and_falls_back():
    gw = Gateway()
    confirmed = LorawanParams(data_rate=3, confirmed=True, dl_payload_bytes=0)
    # First reply goes in window 1 and blocks that band far beyond the next
    # request, which then falls back to window 2; the third finds both busy.
    airtimes = confirmed.dl_airtimes_s()
    assert gw.plan_reply(0, confirmed, airtimes) is DlReply.IN_RX1
    assert gw.plan_reply(500_000_000, confirmed, airtimes) is DlReply.IN_RX2
    assert gw.plan_reply(1_000_000_000, confirmed, airtimes) is DlReply.NONE
    assert gw.rx1_budget.airtime_total_ns / NS_PER_S == pytest.approx(0.164864)
    assert gw.rx2_budget.airtime_total_ns / NS_PER_S == pytest.approx(1.155072)


def test_gateway_ignores_unconfirmed_uplinks():
    gw = Gateway()
    assert gw.plan_reply(0, PARAMS, PARAMS.dl_airtimes_s()) is DlReply.NONE
    assert gw.rx1_budget.airtime_total_ns == 0
    assert gw.rx2_budget.airtime_total_ns == 0


# ------------------------------------------------------- whole device cycles


def _base_config(**overrides) -> ScenarioConfig:
    kwargs = dict(
        capacitance_f=0.1,
        power_w=0.005,
        first_packet_s=5.0,
        packet_period_s=120.0,
        duration_s=60.0,
        trace=True,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def test_unconfirmed_cycle_is_delivered():
    metrics = run_scenario(_base_config())
    assert metrics.generated == 1
    assert metrics.delivered_ul == 1
    assert metrics.acked == 0
    assert [c.outcome for c in metrics.cycles] == [CycleOutcome.DELIVERED]
    states = [r.state for r in metrics.trace.records]
    assert "Tx" in states and "Standby" in states and "Idle" in states
    assert "Rx" not in states  # nothing to receive


def test_confirmed_cycle_is_acked_at_reception_end():
    metrics = run_scenario(_base_config(confirmed=True))
    assert metrics.generated == 1
    assert metrics.delivered_ul == 1
    assert metrics.acked == 1
    assert [c.outcome for c in metrics.cycles] == [CycleOutcome.ACKED]
    cycle = metrics.cycles[0]
    assert cycle.kind == "UL+DL"
    # Uplink ToA + window-1 delay + downlink ToA after the 5 s start.
    assert cycle.end_ns / NS_PER_S == pytest.approx(5.0 + 0.205824 + 1.0 + 0.164864, abs=1e-6)
    states = [r.state for r in metrics.trace.records]
    assert "Rx" in states


def test_confirmed_uplinks_compute_no_airtime(monkeypatch):
    # The airtimes are fixed per run: a longer run, with more confirmed
    # uplinks, makes no more time_on_air calls than a short one. Each run is
    # of a scenario not run before, so it builds its device's tables afresh.
    empty_stores(monkeypatch)
    calls = Counter()
    time_on_air = caplora.lorawan.time_on_air

    def counted(*args, **kwargs):
        calls["time_on_air"] += 1
        return time_on_air(*args, **kwargs)

    monkeypatch.setattr(caplora.lorawan, "time_on_air", counted)
    counts = []
    for duration_s in (300.0, 3000.0):
        calls.clear()
        config = _base_config(confirmed=True, duration_s=duration_s, trace=False)
        metrics = Simulator(config).run()
        counts.append((calls["time_on_air"], metrics.acked))
    assert counts[0][0] == counts[1][0]
    assert 0 < counts[0][1] < counts[1][1]


def test_confirmed_cycle_retries_when_no_reply_arrives():
    # Two confirmed devices cannot be modelled, but a starved gateway can:
    # an earlier downlink blocks both bands, so the reply never comes and
    # the device retransmits up to its limit.
    config = _base_config(confirmed=True, max_transmissions=2, duration_s=90.0)
    sim = Simulator(config)
    sim.gateway.rx1_budget.register(0, 10.0)  # blocked for ~1000 s
    sim.gateway.rx2_budget.register(0, 100.0)  # blocked for ~1000 s
    metrics = sim.run()
    assert metrics.generated == 1
    assert metrics.acked == 0
    assert metrics.delivered_ul == 1  # counted once despite two attempts
    assert [c.outcome for c in metrics.cycles] == [CycleOutcome.DELIVERED]
    tx_starts = [
        r.time_s
        for prev, r in zip(metrics.trace.records, metrics.trace.records[1:])
        if r.state == "Tx" and prev.state != "Tx"
    ]
    assert len(tx_starts) == 2
    # The retry waits out the uplink band: a frame at 1% duty occupies a slot
    # of one hundred times its own airtime.
    gap = tx_starts[1] - tx_starts[0]
    assert gap == pytest.approx(100.0 * 0.205824, abs=1e-6)


def test_confirmed_cycle_is_acked_in_window_two_when_window_one_is_busy():
    # An earlier downlink blocks only the window-1 band, so the reply comes
    # in window 2 and the cycle closes when its reception ends.
    config = _base_config(confirmed=True)
    sim = Simulator(config)
    sim.gateway.rx1_budget.register(0, 10.0)  # blocked for ~1000 s
    metrics = sim.run()
    assert metrics.acked == 1
    assert [c.outcome for c in metrics.cycles] == [CycleOutcome.ACKED]
    cycle = metrics.cycles[0]
    assert cycle.start_ns == 5 * NS_PER_S
    # Uplink, brief standby, idle, empty window 1, idle, window-2 reception,
    # each on the clock to its nearest tick.
    states = cycle_states(lorawan_params(config), DlReply.IN_RX2)
    assert [s for s, _ in states] == [
        DeviceState.TX,
        DeviceState.STANDBY,
        DeviceState.IDLE,
        DeviceState.STANDBY,
        DeviceState.IDLE,
        DeviceState.RX,
    ]
    assert cycle.end_ns == cycle.start_ns + sum(round(d * NS_PER_S) for _, d in states)
    assert sim.gateway.rx2_budget.airtime_total_ns == round(states[-1][1] * NS_PER_S)


def test_depletion_aborts_cycle_and_recharge_restores_sleep():
    config = ScenarioConfig(
        capacitance_f=0.004,
        power_w=0.002,
        initial_voltage_v=2.1,
        first_packet_s=1.0,
        packet_period_s=600.0,
        duration_s=400.0,
        guard_enabled=False,
        confirmed=True,
        trace=True,
    )
    metrics = run_scenario(config)
    assert metrics.generated == 1
    assert metrics.depletion_events >= 1
    assert metrics.cycles[0].outcome is CycleOutcome.FAILED_ENERGY
    assert metrics.off_time_ns > 0
    records = metrics.trace.records
    transitions = [
        (prev.state, cur.state, cur.time_s, cur.voltage_v)
        for prev, cur in zip(records, records[1:])
        if prev.state != cur.state
    ]
    offs = [t for t in transitions if t[1] == "Off"]
    turn_ons = [t for t in transitions if t[0] == "Off" and t[1] == "TurnOn"]
    sleeps = [t for t in transitions if t[0] == "TurnOn" and t[1] == "Sleep"]
    assert offs and turn_ons and sleeps
    # Crossing events land on the nanosecond grid, so the recorded voltage can
    # sit a few nV past the threshold under a steep discharge slope.
    assert offs[0][3] == pytest.approx(1.8, abs=1e-7)
    assert turn_ons[0][3] == pytest.approx(3.0, abs=1e-7)
    # Start-up takes the configured settling time before sleep resumes.
    assert sleeps[0][2] - turn_ons[0][2] == pytest.approx(0.3, abs=1e-6)


def test_packet_during_active_cycle_is_dropped_as_busy():
    config = ScenarioConfig(
        capacitance_f=0.1,
        power_w=0.005,
        data_rate=0,  # ~1.5 s frames; windows stretch the cycle past 3.5 s
        first_packet_s=0.0,
        packet_period_s=2.0,
        duration_s=7.0,
        confirmed=False,
    )
    metrics = run_scenario(config)
    outcomes = Counter(c.outcome for c in metrics.cycles)
    assert outcomes[CycleOutcome.FAILED_BUSY] >= 1
    assert outcomes[CycleOutcome.DELIVERED] >= 1
    assert metrics.generated == 4


def test_packet_during_trailing_standby_of_acked_cycle_is_busy():
    # The ack closes the cycle while its trailing standby still runs. A packet
    # generated then used to start a second cycle over the still-walking
    # segments, whose end later retransmitted for the new cycle.
    config = ScenarioConfig(
        confirmed=True,
        max_transmissions=3,
        rx_window_symbols=1,
        ul_duty_cycle=1.0,
        tx_a=0.0,
        packet_period_s=0.01,
        duration_s=60.0,
    )
    sim = Simulator(config)
    metrics = sim.run()
    assert metrics.generated == 6000
    open_cycle = 0 if sim.device.cycle is None else 1
    assert len(metrics.cycles) + open_cycle == metrics.generated
    outcomes = Counter(c.outcome for c in metrics.cycles)
    assert outcomes[CycleOutcome.ACKED] == metrics.acked >= 1
    assert outcomes[CycleOutcome.FAILED_BUSY] >= 1


def test_duty_cycle_defers_then_expires_stale_packets():
    # At DR0 one frame blocks the band for ~147 s, far past the next packet
    # slot, so every packet after the first expires as stale.
    config = ScenarioConfig(
        capacitance_f=0.1,
        power_w=0.01,
        data_rate=0,
        first_packet_s=0.0,
        packet_period_s=10.0,
        duration_s=120.0,
        confirmed=False,
    )
    metrics = run_scenario(config)
    outcomes = Counter(c.outcome for c in metrics.cycles)
    assert outcomes[CycleOutcome.DELIVERED] == 1
    assert outcomes[CycleOutcome.FAILED_DUTY_CYCLE] == metrics.generated - 1 - outcomes[CycleOutcome.FAILED_BUSY]


def test_duty_cycle_deferral_waits_out_the_block():
    # The second packet arrives while the band is still blocked but its slot
    # ends after the block lifts, so it defers and starts exactly then.
    config = ScenarioConfig(
        capacitance_f=0.1,
        power_w=0.01,
        data_rate=0,
        first_packet_s=0.0,
        packet_period_s=100.0,
        duration_s=250.0,
        confirmed=False,
        trace=True,
    )
    metrics = run_scenario(config)
    assert metrics.generated == 3
    assert metrics.delivered_ul == 2  # the third is still deferred at the end
    tx_starts = [
        cur.time_s
        for prev, cur in zip(metrics.trace.records, metrics.trace.records[1:])
        if cur.state == "Tx" and prev.state != "Tx"
    ]
    toa = 1.482752
    assert tx_starts[0] == pytest.approx(0.0, abs=1e-9)
    assert tx_starts[1] == pytest.approx(100.0 * toa, abs=1e-6)


def test_generation_while_powered_down_can_be_counted_or_muted():
    base = dict(
        capacitance_f=0.01,
        power_w=0.0,
        initial_voltage_v=1.0,  # below the cutoff: device starts powered off
        first_packet_s=0.0,
        packet_period_s=10.0,
        duration_s=35.0,
    )
    counted = run_scenario(ScenarioConfig(**base, generate_while_off=True))
    assert counted.generated == 4
    assert all(c.outcome is CycleOutcome.FAILED_ENERGY for c in counted.cycles)
    muted = run_scenario(ScenarioConfig(**base, generate_while_off=False))
    assert muted.generated == 0
    assert muted.cycles == []


def test_devices_of_equal_params_share_their_tables(monkeypatch):
    # A device's cycle tables are built once per scenario and shared,
    # read-only, by every device of an equal scenario.
    empty_stores(monkeypatch)
    a, b = (Simulator(ScenarioConfig(confirmed=True)) for _ in range(2))
    assert a.device.params is b.device.params and a.device is not b.device
    assert a.device._post_tx is b.device._post_tx
    assert a.device._guard_horizon == b.device._guard_horizon
    with pytest.raises(TypeError):
        a.device._post_tx[DlReply.NONE] = ()
    # A run with other params in between leaves them as they were.
    config_a = ScenarioConfig(capacitance_f=0.005, power_w=0.002, confirmed=True, duration_s=7200.0)
    config_b = replace(config_a, data_rate=0, dl_payload_bytes=40, guard_horizon="cycle")
    first = run_scenario(config_a)
    other = run_scenario(config_b)
    again = run_scenario(config_a)
    assert first == again
    assert other != first
    assert first.cycles and first.acked > 0
