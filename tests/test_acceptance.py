"""End-to-end acceptance checks, one test per guarantee the package makes.

Each test states its target tolerance inline and is independent of the
others; run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per guarantee.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplora import ScenarioConfig, Simulator, run_scenario
from caplora.analysis import (
    DEFAULT_C_HI_F,
    DEFAULT_DL_PAYLOAD_BYTES,
    INFEASIBLE_MARKER,
    engine_cycle_feasible,
    min_capacitance,
    min_capacitance_for_target,
    mincap_csv,
    peak_success_capacitance,
    success_curve,
)
from caplora.cli import main
from caplora.clock import NS_PER_S
from caplora.device import CycleOutcome
from caplora.energy import load_conductance, propagate_voltage
from caplora.lorawan import DEFAULT_CURRENTS_A

from conftest import make_params, rk4_voltage, traced_load_energy


# Reference scenario: a weak constant harvest behind a 4.0 V source feeding a
# 3.3 V-capped capacitor, reports every 80 s starting at 80 s, wide second
# receive window. The capacitance is calibrated so the first transmission
# ends near 2.44 V; it is pinned here and documented in the README.
CALIBRATED_CAPACITANCE_F = 4.756e-3


def _reference_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        capacitance_f=CALIBRATED_CAPACITANCE_F,
        rail_voltage_v=4.0,
        max_voltage_v=3.3,
        v_th_low_v=1.8,
        v_th_high_v=3.0,
        initial_voltage_v=3.3,
        power_w=0.001,
        data_rate=3,
        packet_period_s=80.0,
        first_packet_s=80.0,
        duration_s=300.0,
        rx2_window_symbols=16,
        confirmed=False,
        guard_enabled=False,
        trace=True,
    )


def _random_harvest_scenario() -> ScenarioConfig:
    return ScenarioConfig(
        capacitance_f=0.003,
        harvester="random",
        distribution="uniform",
        low_w=0.0,
        high_w=0.004,
        packet_period_s=30.0,
        duration_s=7200.0,
        confirmed=True,
        seed=7,
        trace=True,
    )


def _transitions_into(records, state):
    return [
        cur
        for prev, cur in zip(records, records[1:])
        if prev.state != state and cur.state == state
    ]


def test_01_closed_form_voltage_matches_ode_oracle():
    # 1000 random constant-load segments against 4th-order Runge-Kutta
    # integration of C dv/dt = g_h (E - v) - g_l v: <= 1e-6 relative,
    # under 10 s of wall time.
    rng = random.Random(42)
    currents = list(DEFAULT_CURRENTS_A.values())
    started = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        params = make_params(capacitance_f=10 ** rng.uniform(-6, 0))
        g_load = load_conductance(rng.choice(currents), params.rail_voltage_v)
        # Harvest open a quarter of the time, else 100 ohm .. 1 Mohm.
        g_harv = 0.0 if rng.random() < 0.25 else 10 ** -rng.uniform(2, 6)
        v0 = rng.uniform(0.0, params.max_voltage_v)
        duration = 10 ** rng.uniform(-3, 2.778)  # 1 ms .. ~600 s
        got = propagate_voltage(v0, duration, g_load, g_harv, params)
        ref = rk4_voltage(v0, duration, g_load, g_harv, params)
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
    elapsed = time.monotonic() - started
    print(f"worst relative error {worst:.3e} over 1000 segments in {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=1000),
    current_a=st.sampled_from(sorted(DEFAULT_CURRENTS_A.values())),
    g_harv=st.sampled_from([0.0, 1 / 100.0, 1 / 5445.0, 1e-6]),
    v0=st.floats(min_value=0.0, max_value=3.3),
    total_s=st.floats(min_value=1e-3, max_value=600.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_02_propagation_is_segmentation_invariant(
    k, current_a, g_harv, v0, total_s, seed
):
    # Splitting one segment into k <= 1000 pieces moves the final voltage by
    # < 1e-9 relative.
    params = make_params()
    g_load = load_conductance(current_a, params.rail_voltage_v)
    one_shot = propagate_voltage(v0, total_s, g_load, g_harv, params)
    cuts = random.Random(seed)
    weights = [cuts.random() + 1e-9 for _ in range(k)]
    scale = total_s / sum(weights)
    v = v0
    for w in weights:
        v = propagate_voltage(v, w * scale, g_load, g_harv, params)
    # The floor only guards the exactly-zero trajectory (0/0 otherwise).
    assert abs(v - one_shot) <= 1e-9 * max(abs(one_shot), 1e-12)


def test_03_energy_balance_with_no_harvest():
    # With zero harvest the capacitor's stored-energy drop over a full run
    # must equal the summed per-segment load energy within 1e-6 relative.
    config = ScenarioConfig(
        capacitance_f=0.01,
        power_w=0.0,
        first_packet_s=0.0,
        packet_period_s=30.0,
        duration_s=600.0,
        guard_enabled=False,
        trace=True,
    )
    sim = Simulator(config)
    metrics = sim.run()
    assert metrics.generated == 20
    assert metrics.depletion_events >= 1  # the run drains through cutoff
    v0, v_end = config.initial_voltage_v, sim.cap.voltage_v
    stored_drop = 0.5 * config.capacitance_f * (v0 * v0 - v_end * v_end)
    consumed = traced_load_energy(sim)
    rel = abs(stored_drop - consumed) / stored_drop
    print(f"stored drop {stored_drop:.9f} J vs consumed {consumed:.9f} J, rel {rel:.2e}")
    assert rel <= 1e-6


def test_04_reference_scenario_trace_landmarks():
    # The calibrated reference run shows: a transmission dip at 80 s ending
    # near 2.44 V, a second dip at 160 s that crosses the 1.8 V cutoff inside
    # the second receive window (device goes Off), recovery through 3.0 V
    # (TurnOn then Sleep), and a successful transmission at 240 s.
    config = _reference_scenario()
    sim = Simulator(config)
    metrics = sim.run()
    records = metrics.trace.records

    tx_entries = _transitions_into(records, "Tx")
    assert [r.time_s for r in tx_entries] == pytest.approx([80.0, 160.0, 240.0])

    tx_end_s = 80.0 + 0.205824  # 23-byte frame at SF9/125 kHz
    post_tx = [r for r in records if abs(r.time_s - tx_end_s) < 1e-6 and r.state != "Tx"]
    assert post_tx, "no trace record at the end of the first transmission"
    print(f"voltage after first transmission: {post_tx[0].voltage_v:.4f} V")
    assert post_tx[0].voltage_v == pytest.approx(2.44, abs=0.05)

    offs = _transitions_into(records, "Off")
    assert offs, "no depletion episode recorded"
    rx2_open_s = 160.0 + 0.205824 + 2.0
    rx2_close_s = rx2_open_s + 0.524288  # 16 symbols at SF12/125 kHz
    assert rx2_open_s <= offs[0].time_s <= rx2_close_s
    assert offs[0].voltage_v == pytest.approx(1.8, abs=1e-6)

    turn_ons = [
        cur
        for prev, cur in zip(records, records[1:])
        if prev.state == "Off" and cur.state == "TurnOn"
    ]
    assert turn_ons and offs[0].time_s < turn_ons[0].time_s < 240.0
    assert turn_ons[0].voltage_v == pytest.approx(3.0, abs=1e-6)
    sleeps = [
        cur
        for prev, cur in zip(records, records[1:])
        if prev.state == "TurnOn" and cur.state == "Sleep"
    ]
    assert sleeps[0].time_s == pytest.approx(turn_ons[0].time_s + 0.3)

    assert metrics.generated == 3
    assert metrics.delivered_ul == 3  # the 240 s uplink reaches the gateway
    assert metrics.depletion_events == 2
    assert [c.outcome for c in metrics.cycles] == [
        CycleOutcome.DELIVERED,
        CycleOutcome.FAILED_ENERGY,
        CycleOutcome.FAILED_ENERGY,
    ]


def test_05_min_capacitance_grid_trends_agree_with_engine():
    # Across 6 data rates x 5 payloads x 3 harvest powers x 2 cycle kinds the
    # analytic minimum capacitance must fall as the data rate or harvest
    # grows, rise with payload, and never be smaller for uplink+downlink than
    # for uplink alone; the engine must agree with every returned value.
    # Each CSV cell is its row's min_capacitance answer, printed to 6 digits;
    # the engine runs at that answer's full float, since a rounded cell can
    # fall just below the true boundary.
    base = ScenarioConfig()
    started = time.monotonic()
    lines = mincap_csv(base).splitlines()[1:]
    assert len(lines) == 180
    rows = {}
    for line in lines:
        dr, payload, power, kind, text = line.split(",")
        cfg = replace(
            base,
            data_rate=int(dr),
            ul_payload_bytes=int(payload),
            dl_payload_bytes=DEFAULT_DL_PAYLOAD_BYTES,
        )
        answer = min_capacitance(cfg, kind, float(power))
        assert text == (INFEASIBLE_MARKER if answer is None else f"{answer:.6g}")
        rows[int(dr), int(payload), float(power), kind] = (cfg, answer)
    cell = {
        key: float("inf") if answer is None else answer for key, (_, answer) in rows.items()
    }
    data_rates = sorted({dr for dr, *_ in rows})
    payloads = sorted({payload for _, payload, *_ in rows})
    powers = sorted({power for *_, power, _ in rows})
    kinds = sorted({kind for *_, kind in rows})
    for kind in kinds:
        for payload in payloads:
            for power in powers:
                series = [cell[dr, payload, power, kind] for dr in data_rates]
                assert series == sorted(series, reverse=True), (
                    f"not non-increasing in data rate: {kind} {payload}B {power}W"
                )
        for dr in data_rates:
            for power in powers:
                series = [cell[dr, payload, power, kind] for payload in payloads]
                assert series == sorted(series), (
                    f"not non-decreasing in payload: {kind} DR{dr} {power}W"
                )
            for payload in payloads:
                series = [cell[dr, payload, power, kind] for power in powers]
                assert series == sorted(series, reverse=True), (
                    f"not non-increasing in harvest power: {kind} DR{dr} {payload}B"
                )
    for dr in data_rates:
        for payload in payloads:
            for power in powers:
                assert cell[dr, payload, power, "UL+DL"] >= cell[dr, payload, power, "UL"]

    for (_, _, power, kind), (cfg, answer) in rows.items():
        if answer is None:
            assert not engine_cycle_feasible(cfg, kind, DEFAULT_C_HI_F, power)
            continue
        assert engine_cycle_feasible(cfg, kind, answer, power)
        # Just below the solver's bracket the cycle must fail, confirming the
        # returned value is tight and not merely sufficient.
        assert not engine_cycle_feasible(cfg, kind, 0.97 * answer, power)
    elapsed = time.monotonic() - started
    print(f"180 grid points checked in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_06_success_scaling_between_reporting_periods():
    # Over 6-hour runs, packet success is non-decreasing in capacitance, and
    # reporting every 300 s instead of every 60 s cuts the capacitance needed
    # for 99% success roughly in half (factor 2x +/- 25%).
    base = ScenarioConfig(
        power_w=0.001,
        data_rate=3,
        first_packet_s=0.0,
        duration_s=21600.0,
        guard_horizon="cycle",
    )
    caps = [0.002 * 1.5**k for k in range(8)]
    c99 = {}
    for period in (60.0, 300.0):
        started = time.monotonic()
        cfg = replace(base, packet_period_s=period)
        curve = success_curve(cfg, caps, "UL")
        probs = [p for _, p in curve]
        assert all(b >= a - 1e-9 for a, b in zip(probs, probs[1:])), (
            f"success not non-decreasing in capacitance at period {period}: {probs}"
        )
        c99[period] = min_capacitance_for_target(cfg, "UL")
        elapsed = time.monotonic() - started
        assert elapsed < 300.0
        print(f"period {period}s: C99 = {c99[period]:.6f} F ({elapsed:.1f}s)")
    assert c99[60.0] is not None and c99[300.0] is not None
    ratio = c99[60.0] / c99[300.0]
    print(f"C99 ratio 60s/300s = {ratio:.2f}")
    assert 1.5 <= ratio <= 2.5


def test_07_confirmed_ack_lowers_peak_success_capacitance():
    # At the weakest workable harvest, a zero-payload acknowledgment closes
    # the second receive window early, so the capacitance that maximizes
    # success with confirmed traffic is no larger than without it.
    base = ScenarioConfig(
        power_w=0.001,
        data_rate=3,
        packet_period_s=60.0,
        first_packet_s=0.0,
        duration_s=21600.0,
        dl_payload_bytes=0,
    )
    caps = [0.002 * 1.25**k for k in range(14)]
    cap_confirmed, p_confirmed = peak_success_capacitance(base, caps, "UL+DL")
    cap_plain, p_plain = peak_success_capacitance(base, caps, "UL")
    print(
        f"peak success: confirmed {p_confirmed:.3f} at {cap_confirmed:.6f} F, "
        f"unconfirmed {p_plain:.3f} at {cap_plain:.6f} F"
    )
    assert p_confirmed >= 0.99 and p_plain >= 0.99
    assert cap_confirmed <= cap_plain


def test_08_thresholds_hold_across_full_traces():
    # In full voltage traces no transmission may start below the 1.8 V
    # cutoff, and every Off -> TurnOn transition happens at or above 3.0 V
    # (within one nanovolt-scale rounding step).
    for config in (_reference_scenario(), _random_harvest_scenario()):
        metrics = run_scenario(config)
        records = metrics.trace.records
        tx_entries = _transitions_into(records, "Tx")
        assert tx_entries, "scenario produced no transmissions"
        for record in tx_entries:
            assert record.voltage_v >= 1.8 - 1e-9, (
                f"transmission started at {record.voltage_v} V at t={record.time_s}"
            )
        turn_ons = [
            cur
            for prev, cur in zip(records, records[1:])
            if prev.state == "Off" and cur.state == "TurnOn"
        ]
        if config.harvester == "random":
            assert turn_ons, "random-harvest scenario never recovered from Off"
        for record in turn_ons:
            assert record.voltage_v >= 3.0 - 1e-9, (
                f"woke at {record.voltage_v} V at t={record.time_s}"
            )


# A traced hour on a random uniform 0-4 mW harvest, which returns to
# earlier harvest conductances: 3 mF, confirmed packets every 30 s.
_TRACED_RANDOM_RUN = [
    "trace",
    "--set", "harvester.kind=random",
    "--set", "distribution=uniform",
    "--set", "low_w=0",
    "--set", "high_w=0.004",
    "--set", "capacitor.capacitance_f=0.003",
    "--set", "packet_period_s=30",
    "--set", "confirmed=true",
    "--set", "duration_s=3600",
    "--set", "sim.seed=7",
]


def test_09_equal_seeds_give_byte_identical_outputs(tmp_path):
    # The same seed must reproduce every output file byte for byte, through
    # the command line interface.
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*_TRACED_RANDOM_RUN, "--out", str(a)]) == 0
    assert main([*_TRACED_RANDOM_RUN, "--out", str(b)]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "voltage_trace.csv").read_bytes() == (b / "voltage_trace.csv").read_bytes()

    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(
        "[traffic]\npacket_period_s = 30\nfirst_packet_s = 0\n\n"
        "[sim]\nduration_s = 600\nseed = 3\n\n"
        "[sweep]\ncapacitance_f = 0.004, 0.008\npower_w = 0.001, 0.002\n"
    )
    sweep_args = ["sweep", "--config", str(sweep_ini)]
    assert main([*sweep_args, "--out", str(a)]) == 0
    assert main([*sweep_args, "--out", str(b)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_09_a_traced_random_harvest_run_is_pinned(tmp_path):
    # test_09's traced run, byte for byte: a change in how the capacitor
    # steps or solves its crossings must leave every row as it was.
    assert main([*_TRACED_RANDOM_RUN, "--out", str(tmp_path)]) == 0
    pinned = {
        "results.csv": "5119edb56967eb06e08126082117d0e732131e0752b87d0eebf27e63924c1d32",
        "voltage_trace.csv": "14d221c67d2fe1a66c38e485a17ce61595f2ca3699f6769895405435eddfdcc8",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _on_off_trace(path, seed: int, end_s: int):
    """A harvest trace of 1 s samples up to ``end_s``: on spells of 2-6 mW
    and dark spells, each of a seeded length."""
    rng = random.Random(seed)
    lines = ["time_s,power_w"]
    t, on = 0, True
    while t <= end_s:
        span = rng.randint(120, 900) if on else rng.randint(60, 600)
        power = f"{rng.uniform(0.002, 0.006):.4g}" if on else "0"
        for t in range(t, min(t + span, end_s + 1)):
            lines.append(f"{t},{power}")
        t += 1
        on = not on
    path.write_text("\n".join(lines) + "\n")
    return path


def test_09_a_traced_trace_harvest_run_is_pinned(tmp_path):
    # A traced 2 h run on an on/off harvest trace, byte for byte: its grid
    # samples span harvest changes, brownouts and guarded cycles.
    trace = _on_off_trace(tmp_path / "harvest.csv", seed=11, end_s=7260)
    args = [
        "trace",
        "--set", "harvester.kind=trace",
        "--set", f"harvester.trace_file={trace}",
        "--set", "capacitor.capacitance_f=0.01",
        "--set", "confirmed=true",
        "--set", "guard_horizon=cycle",
        "--set", "duration_s=7200",
        "--set", "sim.seed=5",
    ]
    assert main([*args, "--out", str(tmp_path)]) == 0
    pinned = {
        "results.csv": "92f41eb238f7c2f1a0d386d7fdbfc14ae6c0a321420547d04039432444d41b91",
        "voltage_trace.csv": "3d3c8559c311332c849c6060336ed4f388703d1175b21832562e93db4d6666ab",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_10_airtime_stays_within_duty_budgets():
    # Under heavy load (5 s reporting period, slowest data rate, retries) the
    # uplink band may carry at most 1% of the run duration plus one frame,
    # and the downlink windows at most 1%/10% likewise.
    config = ScenarioConfig(
        capacitance_f=1.0,
        power_w=0.05,
        data_rate=0,
        packet_period_s=5.0,
        first_packet_s=0.0,
        duration_s=7200.0,
        confirmed=True,
        max_transmissions=3,
    )
    sim = Simulator(config)
    metrics = sim.run()
    duration = config.duration_s

    assert metrics.ul_airtime_s <= 0.01 * duration + metrics.max_ul_airtime_s
    # The scenario must actually saturate the budget for the bound to bite.
    assert metrics.ul_airtime_s >= 0.5 * 0.01 * duration
    assert any(c.outcome is CycleOutcome.FAILED_DUTY_CYCLE for c in metrics.cycles)

    rx1 = sim.gateway.rx1_budget
    rx2 = sim.gateway.rx2_budget
    rx1_s = rx1.airtime_total_ns / NS_PER_S
    rx2_s = rx2.airtime_total_ns / NS_PER_S
    assert rx1_s <= 0.01 * duration + rx1.max_airtime_s
    assert rx2_s <= 0.10 * duration + rx2.max_airtime_s
    print(
        f"uplink airtime {metrics.ul_airtime_s:.1f}s of {0.01 * duration:.0f}s budget; "
        f"gateway {rx1_s:.1f}s / {rx2_s:.1f}s"
    )
