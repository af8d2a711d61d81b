"""Circuit model: conductances, voltage propagation, crossing times, energy
accounting, and the hysteresis state machine."""

from __future__ import annotations

import io
import math
import random

import pytest
from hypothesis import given, strategies as st

import caplora
from caplora.clock import NS_PER_S
from caplora.energy import (
    Capacitor,
    CapacitorParams,
    TraceRecorder,
    crossing_time,
    harvester_conductance,
    load_conductance,
    load_energy_joules,
    min_voltage_over_segments,
    propagate_voltage,
    steady_state_voltage,
)
from conftest import make_params, rk4_voltage, simpson_load_energy


# ---------------------------------------------------------------- public names


def test_every_exported_name_resolves():
    for name in caplora.__all__:
        assert hasattr(caplora, name), name
    for removed in ("OPEN_CIRCUIT", "equivalent_resistance", "LoadProfile", "CycleSpec"):
        assert removed not in caplora.__all__
        assert not hasattr(caplora, removed)
    assert caplora.analysis.CycleSpec is not None  # still importable from its module


# ---------------------------------------------------------------- conductances


def test_harvester_conductance_values():
    assert harvester_conductance(0.001, 3.3) == pytest.approx(1 / 10890.0)
    assert harvester_conductance(0.01, 3.3) == pytest.approx(1 / 1089.0)
    assert harvester_conductance(0.0, 3.3) == 0.0


@pytest.mark.parametrize("power_w", [math.nan, math.inf, -math.inf])
def test_harvester_conductance_rejects_non_finite_power(power_w):
    with pytest.raises(ValueError, match="finite"):
        harvester_conductance(power_w, 3.3)


def test_load_conductance_values():
    assert load_conductance(28.011e-3, 3.3) == pytest.approx(1 / 117.81086001927812)
    assert load_conductance(5.5e-6, 3.3) == pytest.approx(1 / 600000.0)
    assert load_conductance(0.0, 3.3) == 0.0


def test_conductances_reject_bad_inputs():
    with pytest.raises(ValueError):
        harvester_conductance(-1.0, 3.3)
    with pytest.raises(ValueError):
        harvester_conductance(0.001, 0.0)
    with pytest.raises(ValueError):
        load_conductance(-1e-3, 3.3)


def test_parallel_conductances_set_the_time_constant(params):
    # The voltage covers 1 - 1/e of its way to the asymptote in one time
    # constant, C times the parallel resistance of the two sides.
    def one_tau(g_load, g_harv):
        v0 = 2.0
        v_inf = steady_state_voltage(g_load, g_harv, params)
        target = v_inf + (v0 - v_inf) * math.exp(-1.0)
        return crossing_time(v0, target, g_load, g_harv, params) / params.capacitance_f

    g_tx = load_conductance(28.011e-3, 3.3)
    g_harv = harvester_conductance(0.001, 3.3)
    assert one_tau(g_tx, g_harv) == pytest.approx(116.54999181260388)
    assert one_tau(0.0, g_harv) == pytest.approx(10890.0)
    assert one_tau(g_tx, 0.0) == pytest.approx(1 / g_tx)
    # Both open: nothing moves, so no level is ever crossed.
    assert crossing_time(2.0, 1.0, 0.0, 0.0, params) is None


def test_steady_state_voltage_limits(params):
    g_harv = harvester_conductance(0.001, 3.3)
    # No load at all: the capacitor charges the whole way to the rail.
    assert steady_state_voltage(0.0, g_harv, params) == pytest.approx(3.3)
    # No harvest: everything drains to zero.
    assert steady_state_voltage(1 / 117.8, 0.0, params) == 0.0
    # Both open: the voltage holds, there is no asymptote.
    with pytest.raises(ValueError):
        steady_state_voltage(0.0, 0.0, params)
    # Equal source and load conductances divide the rail in half.
    g_load = 1 / 10890.0
    assert steady_state_voltage(g_load, g_harv, params) == pytest.approx(3.3 / 2)


# ------------------------------------------------------------- propagation


def test_discharge_value_after_one_second(params):
    g_tx = load_conductance(28.011e-3, 3.3)
    v = propagate_voltage(3.3, 1.0, g_tx, 0.0, params)
    assert v == pytest.approx(1.4121371790506803, rel=1e-12)


def test_propagation_edge_cases(params):
    g = 1 / 1000.0
    assert propagate_voltage(2.5, 0.0, g, 0.0, params) == 2.5
    # Open on both sides: the voltage holds indefinitely.
    assert propagate_voltage(2.5, 1e6, 0.0, 0.0, params) == 2.5
    # Charging saturates at the configured maximum.
    g_harv = harvester_conductance(0.1, 3.3)
    assert propagate_voltage(3.2, 1e6, 0.0, g_harv, params) == 3.3
    with pytest.raises(ValueError):
        propagate_voltage(2.5, -1.0, g, 0.0, params)
    with pytest.raises(ValueError):
        propagate_voltage(-0.1, 1.0, g, 0.0, params)


def test_propagation_matches_ode_oracle():
    rng = random.Random(7)
    currents = (5.5e-6, 15e-3, 5.6e-6, 28.011e-3, 7e-6, 10.5055e-3, 11.011e-3)
    worst = 0.0
    for _ in range(60):
        params = make_params(
            capacitance_f=10 ** rng.uniform(-6, 0),
        )
        g_load = load_conductance(rng.choice(currents), params.rail_voltage_v)
        g_harv = (
            0.0 if rng.random() < 0.25 else 10 ** -rng.uniform(2, 6)
        )
        v0 = rng.uniform(0.0, params.max_voltage_v)
        t = 10 ** rng.uniform(-3, math.log10(600.0))
        got = propagate_voltage(v0, t, g_load, g_harv, params)
        want = rk4_voltage(v0, t, g_load, g_harv, params)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    assert worst < 1e-6


@given(
    v0=st.floats(0.1, 3.3),
    tau_scale=st.floats(0.01, 20.0),
)
def test_trajectory_is_monotone_toward_asymptote(v0, tau_scale):
    params = make_params()
    g_load = 1 / 500.0
    g_harv = 1 / 2000.0
    v_inf = steady_state_voltage(g_load, g_harv, params)
    tau = params.capacitance_f / (g_load + g_harv)
    v_half = propagate_voltage(v0, tau * tau_scale / 2, g_load, g_harv, params)
    v_full = propagate_voltage(v0, tau * tau_scale, g_load, g_harv, params)
    if v0 >= v_inf:
        assert v0 >= v_half >= v_full >= v_inf - 1e-12
    else:
        assert v0 <= v_half <= v_full <= v_inf + 1e-12


# ------------------------------------------------------------ crossing times


def test_crossing_time_inverts_propagation(params):
    g_load = load_conductance(28.011e-3, 3.3)
    t = crossing_time(3.3, 1.8, g_load, 0.0, params)
    assert t is not None and t > 0
    assert propagate_voltage(3.3, t, g_load, 0.0, params) == pytest.approx(
        1.8, rel=1e-12
    )


@given(
    v0=st.floats(0.2, 3.3),
    target=st.floats(0.1, 3.3),
    r_load=st.floats(50.0, 1e5),
    charge=st.booleans(),
)
def test_crossing_time_consistency(v0, target, r_load, charge):
    params = make_params(capacitance_f=0.047)
    g_load = 1 / r_load
    g_harv = 1 / 300.0 if charge else 0.0
    t = crossing_time(v0, target, g_load, g_harv, params)
    if t is None:
        return
    assert t >= 0.0
    v = propagate_voltage(v0, t, g_load, g_harv, params)
    assert v == pytest.approx(min(target, params.max_voltage_v), rel=1e-9, abs=1e-9)


def test_crossing_time_unreachable_targets(params):
    g_load = 1 / 1000.0
    # Discharging: can never rise.
    assert crossing_time(2.0, 2.5, g_load, 0.0, params) is None
    # Asymptote short of the target.
    g_harv = harvester_conductance(0.0001, 3.3)
    v_inf = steady_state_voltage(g_load, g_harv, params)
    assert v_inf < 1.0
    assert crossing_time(0.9, 1.5, g_load, g_harv, params) is None
    # No dynamics at all.
    assert crossing_time(2.0, 1.0, 0.0, 0.0, params) is None


# ----------------------------------------------------------------- energy


def test_load_energy_matches_quadrature(params):
    cases = [
        (3.3, 28.011e-3, 0.25, 0.0),
        (3.0, 10.5055e-3, 1.0, harvester_conductance(0.001, 3.3)),
        (2.2, 5.6e-6, 300.0, harvester_conductance(0.0005, 3.3)),
        (1.0, 11.011e-3, 0.05, 1 / 500.0),
    ]
    for v0, amps, dt, g_harv in cases:
        g_load = load_conductance(amps, params.rail_voltage_v)
        got = load_energy_joules(v0, dt, g_load, g_harv, params)
        want = simpson_load_energy(v0, dt, g_load, g_harv, params)
        assert got == pytest.approx(want, rel=1e-9)


def test_zero_harvest_energy_equals_stored_drop(params):
    v0 = 3.3
    dt = 0.7
    g_load = load_conductance(28.011e-3, params.rail_voltage_v)
    v1 = propagate_voltage(v0, dt, g_load, 0.0, params)
    drop = 0.5 * params.capacitance_f * (v0 * v0 - v1 * v1)
    energy = load_energy_joules(v0, dt, g_load, 0.0, params)
    assert energy == pytest.approx(drop, rel=1e-12)


def test_energy_splits_at_the_voltage_cap():
    params = make_params(max_voltage_v=3.0, initial_voltage_v=2.8)
    g_load = load_conductance(5.6e-6, params.rail_voltage_v)
    g_harv = harvester_conductance(0.005, params.rail_voltage_v)
    t_sat = crossing_time(2.8, 3.0, g_load, g_harv, params)
    assert t_sat is not None
    dt = 3.0 * t_sat
    head = simpson_load_energy(2.8, t_sat, g_load, g_harv, params)
    tail = 3.0 * 3.0 * g_load * (dt - t_sat)
    got = load_energy_joules(2.8, dt, g_load, g_harv, params)
    assert got == pytest.approx(head + tail, rel=1e-9)


def test_energy_while_pinned_at_the_cap():
    params = make_params(max_voltage_v=3.0, initial_voltage_v=3.0)
    g_load = load_conductance(5.6e-6, params.rail_voltage_v)
    g_harv = harvester_conductance(0.005, params.rail_voltage_v)
    # Strong harvest holds the voltage at the cap; the load sees it constant.
    got = load_energy_joules(3.0, 10.0, g_load, g_harv, params)
    assert got == pytest.approx(3.0 * 3.0 * g_load * 10.0, rel=1e-12)


def test_energy_trivial_cases(params):
    g_load = load_conductance(1e-3, 3.3)
    assert load_energy_joules(3.3, 10.0, 0.0, 0.0, params) == 0.0
    assert load_energy_joules(3.3, 0.0, g_load, 0.0, params) == 0.0
    with pytest.raises(ValueError):
        load_energy_joules(3.3, -1.0, g_load, 0.0, params)


# ----------------------------------------------------- sequences of segments


def test_min_voltage_over_segments_hits_segment_boundary(params):
    g_tx = load_conductance(28.011e-3, 3.3)
    g_sleep = load_conductance(5.6e-6, 3.3)
    g_harv = harvester_conductance(0.002, 3.3)
    segments = [(0.3, g_tx), (5.0, g_sleep), (0.2, g_tx)]
    v_min = min_voltage_over_segments(3.3, segments, g_harv, params)
    # Brute force along a fine time grid.
    v = 3.3
    brute = v
    for duration, g_load in segments:
        for _ in range(500):
            v = propagate_voltage(v, duration / 500, g_load, g_harv, params)
            brute = min(brute, v)
    assert v_min == pytest.approx(brute, rel=1e-9)
    assert v_min < 3.3


def test_min_voltage_with_no_segments(params):
    assert min_voltage_over_segments(2.5, [], 0.0, params) == 2.5


# ------------------------------------------------------------ the capacitor


def test_params_validation_lists_every_problem():
    with pytest.raises(ValueError) as err:
        CapacitorParams(
            capacitance_f=-1.0,
            rail_voltage_v=0.0,
            max_voltage_v=3.3,
            v_th_low_v=2.97,
            v_th_high_v=1.65,
            initial_voltage_v=5.0,
        )
    message = str(err.value)
    assert "capacitance_f" in message
    assert "rail_voltage_v" in message
    assert "v_th_high_v must be > v_th_low_v" in message
    assert "initial_voltage_v" in message


def _ns(time_s: float) -> int:
    return round(time_s * NS_PER_S)


def test_threshold_properties():
    params = make_params()
    assert params.v_th_low_v == pytest.approx(1.8)
    assert params.v_th_high_v == pytest.approx(3.0)


def test_capacitor_depletion_notification_uses_crossing_instant(params):
    cap = Capacitor(params)
    heavy = load_conductance(28.011e-3, params.rail_voltage_v)
    t_star = crossing_time(3.3, params.v_th_low_v, heavy, 0.0, params)
    events = []
    cap.on_depleted = events.append
    cap.update(_ns(2.0), heavy, 0.0)  # well past the crossing
    assert cap.depleted
    assert events == [pytest.approx(t_star, rel=1e-12)]


def test_capacitor_recharge_notification(params):
    cap = Capacitor(make_params(initial_voltage_v=1.0))
    assert cap.depleted
    idle = load_conductance(7e-6, 3.3)
    g_harv = harvester_conductance(0.01, 3.3)
    t_star = crossing_time(1.0, params.v_th_high_v, idle, g_harv, params)
    events = []
    cap.on_recharged = events.append
    cap.update(_ns(t_star * 3), idle, g_harv)
    assert not cap.depleted
    assert events == [pytest.approx(t_star, rel=1e-12)]


def test_voltage_snaps_onto_threshold_at_crossing(params):
    cap = Capacitor(params)
    # Under the receive load the voltage moves less than the snap tolerance
    # in one clock tick.
    rx = load_conductance(11.011e-3, params.rail_voltage_v)
    t_star = crossing_time(3.3, params.v_th_low_v, rx, 0.0, params)
    # Update at the first tick of the analytic crossing: the stored voltage
    # must equal the threshold, not sit a floating-point hair away from it.
    cap.update(math.ceil(t_star * NS_PER_S), rx, 0.0)
    assert cap.depleted
    assert cap.voltage_v == params.v_th_low_v


def test_no_flip_without_reaching_threshold(params):
    cap = Capacitor(params)
    light = load_conductance(5.6e-6, params.rail_voltage_v)
    cap.update(_ns(10.0), light, 0.0)
    assert not cap.depleted
    assert 1.8 < cap.voltage_v < 3.3


def test_update_going_backwards_is_rejected(params):
    cap = Capacitor(params)
    light = load_conductance(5.6e-6, params.rail_voltage_v)
    cap.update(_ns(5.0), light, 0.0)
    with pytest.raises(ValueError):
        cap.update(_ns(4.0), light, 0.0)
    v = cap.voltage_v
    cap.update(_ns(5.0), light, 0.0)  # same instant: a no-op
    assert cap.voltage_v == v


def test_capacitor_accumulates_load_energy(params):
    cap = Capacitor(params)
    heavy = load_conductance(28.011e-3, params.rail_voltage_v)
    cap.update(_ns(0.4), heavy, 0.0)
    cap.update(_ns(0.7), heavy, 0.0)
    drop = 0.5 * params.capacitance_f * (3.3**2 - cap.voltage_v**2)
    assert cap.load_energy_j == pytest.approx(drop, rel=1e-12)


# ------------------------------------------------------------- trace output


def test_trace_recorder_csv_format():
    recorder = TraceRecorder()
    recorder.record(0.0, 3.3, "Sleep")
    recorder.record(1.5, 2.87654321999, "Tx")
    out = io.StringIO()
    recorder.write_csv(out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "time_s,voltage_V,state"
    assert lines[1] == "0.000000000,3.300000000,Sleep"
    assert lines[2] == "1.500000000,2.876543220,Tx"
