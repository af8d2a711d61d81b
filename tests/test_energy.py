"""Circuit model: conductances, voltage propagation, crossing times, energy
accounting, and the hysteresis state machine."""

from __future__ import annotations

import csv
import io
import math
import random

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

import caplora
from caplora import ScenarioConfig
from caplora.analysis import CycleSpec, _bisect, min_voltage_over_cycle
from caplora.clock import NS_PER_S
from caplora.lorawan import DeviceState
from caplora.energy import (
    Capacitor,
    CapacitorParams,
    _CSV_CHUNK_ROWS,
    _CSV_ROW,
    TraceRecord,
    TraceRecorder,
    _ticks_until,
    crossing_tick,
    crossing_time,
    harvester_conductance,
    load_conductance,
    load_energy_joules,
    min_capacitance_over_played,
    min_voltage_over_played,
    played_segments,
    propagate_voltage,
    steady_state_voltage,
    step_coefficients,
)
from caplora.engine import _crossing_margin
from conftest import make_params, rk4_voltage, simpson_load_energy, stepwise_min_voltage


# ---------------------------------------------------------------- public names


def test_every_exported_name_resolves():
    for name in caplora.__all__:
        assert hasattr(caplora, name), name
    for removed in ("OPEN_CIRCUIT", "equivalent_resistance", "LoadProfile", "CycleSpec"):
        assert removed not in caplora.__all__
        assert not hasattr(caplora, removed)
    assert caplora.analysis.CycleSpec is not None  # still importable from its module
    for module, removed in (
        (caplora.device, "smart_tx_guard"),
        (caplora.analysis, "mincap_table"),
        (caplora.analysis, "MinCapacitanceRow"),
    ):
        assert not hasattr(module, removed), removed


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
    with pytest.raises(ValueError):
        load_conductance(1e-3, 0.0)


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
    # A negative start voltage is refused, even where no energy flows.
    for duration_s in (0.0, 1.0):
        with pytest.raises(ValueError, match="voltage must be >= 0"):
            load_energy_joules(-1.0, duration_s, g_load, 0.0, params)


# ----------------------------------------------------- sequences of segments


def _played_min_voltage(v0, segments, g_harv, params):
    """Minimum voltage over ``(duration, g_load)`` segments, as the energy
    guard plays them."""
    played = played_segments(segments, g_harv, params.rail_voltage_v)
    return min_voltage_over_played(v0, played, params.capacitance_f, params.max_voltage_v)


def test_min_voltage_over_played_hits_segment_boundary(params):
    g_tx = load_conductance(28.011e-3, 3.3)
    g_sleep = load_conductance(5.6e-6, 3.3)
    g_harv = harvester_conductance(0.002, 3.3)
    segments = [(0.3, g_tx), (5.0, g_sleep), (0.2, g_tx)]
    v_min = _played_min_voltage(3.3, segments, g_harv, params)
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
    assert _played_min_voltage(2.5, [], 0.0, params) == 2.5


def test_played_kernels_reject_bad_inputs(params):
    g_load = load_conductance(1e-3, 3.3)
    with pytest.raises(ValueError, match="elapsed time must be >= 0"):
        played_segments([(1.0, g_load), (-1.0, g_load)], 0.0, 3.3)
    played = played_segments([(1.0, g_load)], 0.0, 3.3)
    for capacitance_f in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="capacitance must be > 0"):
            min_voltage_over_played(3.0, played, capacitance_f, 3.3)
    # A negative start voltage is refused, as propagate_voltage refuses it,
    # not clamped to 0.
    with pytest.raises(ValueError, match="voltage must be >= 0"):
        min_voltage_over_played(-1.0, played, 0.01, 3.3)
    with pytest.raises(ValueError, match="voltage must be >= 0"):
        min_capacitance_over_played(-1.0, played, 3.3, 1.8, 1e-3, 1.0, 1e-3)


_TX_G = load_conductance(28.011e-3, 3.3)
_SLEEP_G = load_conductance(5.6e-6, 3.3)


@settings(derandomize=True, max_examples=300)
@given(
    v0=st.floats(min_value=0.0, max_value=4.0),
    segments=st.lists(
        st.tuples(
            st.sampled_from([0.0, math.inf]) | st.floats(min_value=0.0, max_value=600.0),
            st.sampled_from([0.0, _SLEEP_G, _TX_G]),
        ),
        max_size=6,
    ),
    g_harv=st.sampled_from([0.0, harvester_conductance(1e-4, 3.3), 1.0]),
    capacitance_f=st.floats(min_value=1e-6, max_value=10.0),
    max_voltage_v=st.sampled_from([2.5, 3.3]),
)
# An empty cycle, and a start above the maximum.
@example(v0=4.0, segments=[], g_harv=0.0, capacitance_f=0.01, max_voltage_v=3.3)
# Zero durations and a segment with both sides open hold the voltage.
@example(
    v0=3.0,
    segments=[(0.0, _TX_G), (5.0, 0.0), (0.2, _TX_G), (0.0, 0.0)],
    g_harv=0.0,
    capacitance_f=0.01,
    max_voltage_v=3.3,
)
# A strong harvest toward the 3.3 V rail clamps at a 2.5 V maximum.
@example(
    v0=1.0,
    segments=[(0.5, _TX_G), (10.0, _SLEEP_G), (0.5, _TX_G)],
    g_harv=1.0,
    capacitance_f=0.01,
    max_voltage_v=2.5,
)
def test_segment_kernel_equals_stepwise_propagation(
    v0, segments, g_harv, capacitance_f, max_voltage_v
):
    params = make_params(
        capacitance_f=capacitance_f,
        max_voltage_v=max_voltage_v,
        v_th_high_v=min(3.0, max_voltage_v),
        initial_voltage_v=max_voltage_v,
    )
    expected = stepwise_min_voltage(v0, segments, g_harv, params)
    assert _played_min_voltage(v0, segments, g_harv, params) == expected
    spec = CycleSpec("UL", v0, tuple(segments), g_harv, params.rail_voltage_v)
    config = ScenarioConfig(capacitance_f=capacitance_f, max_voltage_v=max_voltage_v)
    assert min_voltage_over_cycle(capacitance_f, spec, config) == expected


def _sized_by_bisect(v0, played, max_voltage_v, v_cutoff_v, c_lo, c_hi, tol_rel):
    """Reference sizing: ``_bisect`` over whole ``min_voltage_over_played``
    probes, each compared with the cutoff."""

    def fits(c):
        return min_voltage_over_played(v0, played, c, max_voltage_v) >= v_cutoff_v

    v_hi = min_voltage_over_played(v0, played, c_hi, max_voltage_v)
    v_lo = min_voltage_over_played(v0, played, c_lo, max_voltage_v)
    if v_hi < v_lo:
        raise RuntimeError("minimum cycle voltage is not monotone in capacitance")
    if not fits(c_hi):
        return None
    if fits(c_lo):
        return c_lo
    return _bisect(c_lo, c_hi, fits, tol_rel)


def _outcome(size, **case):
    try:
        return size(**case)
    except RuntimeError as exc:
        return str(exc)


_SIZING_CASES = {
    # From a start above the maximum, the midpoints that survive the first
    # uplink charge toward a 3.3 V asymptote and clamp at the 2.5 V maximum.
    "inside": dict(
        v0=4.0,
        played=((0.5, _TX_G, 0.0), (10.0, 1.0, 3.3), (0.5, _TX_G, 0.0)),
        max_voltage_v=2.5,
        v_cutoff_v=1.8,
        c_lo=1e-6,
        c_hi=10.0,
        tol_rel=0.01,
    ),
    "floor": dict(
        v0=3.3,
        played=((1e-3, 1e-6, 0.0),),
        max_voltage_v=3.3,
        v_cutoff_v=1.8,
        c_lo=1e-6,
        c_hi=10.0,
        tol_rel=0.01,
    ),
    "infeasible": dict(
        v0=1.0,
        played=((1.0, _TX_G, 0.0),),
        max_voltage_v=3.3,
        v_cutoff_v=1.8,
        c_lo=1e-6,
        c_hi=10.0,
        tol_rel=0.01,
    ),
    # The first midpoint's minimum lands exactly on the cutoff, so it fits.
    # Here d * G / C would round that voltage one ulp lower.
    "on the cutoff": dict(
        v0=3.3,
        played=((0.02, _TX_G, 0.0),),
        max_voltage_v=3.3,
        v_cutoff_v=min_voltage_over_played(
            3.3, ((0.02, _TX_G, 0.0),), math.sqrt(1e-6 * 10.0), 3.3
        ),
        c_lo=1e-6,
        c_hi=10.0,
        tol_rel=0.01,
    ),
}


def test_sizing_cases_cover_every_answer():
    inside = min_capacitance_over_played(**_SIZING_CASES["inside"])
    assert 1e-6 < inside < 10.0
    assert min_capacitance_over_played(**_SIZING_CASES["floor"]) == 1e-6
    assert min_capacitance_over_played(**_SIZING_CASES["infeasible"]) is None
    assert min_capacitance_over_played(**_SIZING_CASES["on the cutoff"]) <= math.sqrt(
        1e-6 * 10.0
    )


@settings(derandomize=True, max_examples=200)
@given(
    v0=st.floats(min_value=1.0, max_value=4.0),
    played=st.lists(
        st.tuples(
            st.floats(min_value=1e-4, max_value=600.0),
            st.floats(min_value=1e-7, max_value=1.0),
            # Asymptotes above either maximum voltage clamp.
            st.floats(min_value=0.0, max_value=4.0),
        ),
        max_size=4,
    ).map(tuple),
    max_voltage_v=st.sampled_from([2.5, 3.3]),
    v_cutoff_v=st.floats(min_value=0.5, max_value=2.4),
    c_lo=st.floats(min_value=1e-7, max_value=1e-2),
    span=st.floats(min_value=1.001, max_value=1e8),
    tol_rel=st.floats(min_value=1e-4, max_value=1.0),
)
@example(span=1e7, **{k: v for k, v in _SIZING_CASES["inside"].items() if k != "c_hi"})
@example(span=1e7, **{k: v for k, v in _SIZING_CASES["floor"].items() if k != "c_hi"})
@example(span=1e7, **{k: v for k, v in _SIZING_CASES["infeasible"].items() if k != "c_hi"})
@example(span=1e7, **{k: v for k, v in _SIZING_CASES["on the cutoff"].items() if k != "c_hi"})
def test_inline_sizing_equals_bisection_over_whole_probes(
    v0, played, max_voltage_v, v_cutoff_v, c_lo, span, tol_rel
):
    case = dict(
        v0=v0,
        played=played,
        max_voltage_v=max_voltage_v,
        v_cutoff_v=v_cutoff_v,
        c_lo=c_lo,
        c_hi=c_lo * span,
        tol_rel=tol_rel,
    )
    assert _outcome(min_capacitance_over_played, **case) == _outcome(
        _sized_by_bisect, **case
    )


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
    events = [cap.update(_ns(2.0), heavy, 0.0)]  # well past the crossing
    assert cap.depleted
    assert events == [_ns(t_star)]


def test_capacitor_recharge_notification(params):
    cap = Capacitor(make_params(initial_voltage_v=1.0))
    assert cap.depleted
    idle = load_conductance(7e-6, 3.3)
    g_harv = harvester_conductance(0.01, 3.3)
    t_star = crossing_time(1.0, params.v_th_high_v, idle, g_harv, params)
    events = [cap.update(_ns(t_star * 3), idle, g_harv)]
    assert not cap.depleted
    assert events == [_ns(t_star)]


@pytest.mark.parametrize("current_a", [11.011e-3, 28.011e-3], ids=["rx", "tx"])
def test_voltage_snaps_onto_threshold_at_crossing(params, current_a):
    cap = Capacitor(params)
    # At 10 mF the voltage moves about 0.6 nV in one clock tick under the
    # receive load, and about 1.5 nV under the transmit load.
    load = load_conductance(current_a, params.rail_voltage_v)
    t_star = crossing_time(3.3, params.v_th_low_v, load, 0.0, params)
    # Update at the first tick of the analytic crossing: the stored voltage
    # must equal the threshold, not sit a floating-point hair away from it.
    cap.update(math.ceil(t_star * NS_PER_S), load, 0.0)
    assert cap.depleted
    assert cap.voltage_v == params.v_th_low_v


def test_no_flip_without_reaching_threshold(params):
    cap = Capacitor(params)
    light = load_conductance(5.6e-6, params.rail_voltage_v)
    cap.update(_ns(10.0), light, 0.0)
    assert not cap.depleted
    assert 1.8 < cap.voltage_v < 3.3


def _crossing_tick(cap, g_load, g_harv):
    """The tick at which a trajectory ``(g_load, g_harv)`` starting at
    ``cap``'s last update crosses its active threshold, by ``crossing_time``;
    None when it never does, or when it leaves the threshold it sits on."""
    params = cap.params
    target = params.v_th_high_v if cap.depleted else params.v_th_low_v
    t_cross = crossing_time(cap.voltage_v, target, g_load, g_harv, params)
    if t_cross is None:
        return None
    if t_cross == 0.0 and (steady_state_voltage(g_load, g_harv, params) > target) != cap.depleted:
        return None
    ticks = _ticks_until(t_cross)
    return None if ticks is None else cap.last_update_ns + ticks


def _check_step(cap, t_ns, g_load, g_harv, v_expected, trajectory=None):
    """Update ``cap`` to ``t_ns`` and check it against the public kernels.

    ``trajectory`` is ``(g_load, g_harv, crossing tick)`` of the trajectory
    the capacitor is on, or None; the one it is on after the step is
    returned. A crossing's tick is solved where its trajectory starts."""
    params = cap.params
    depleted = cap.depleted
    target = params.v_th_high_v if depleted else params.v_th_low_v
    if trajectory is None or trajectory[:2] != (g_load, g_harv):
        trajectory = (g_load, g_harv, _crossing_tick(cap, g_load, g_harv))
    cap.update(t_ns, g_load, g_harv)
    if cap.depleted == depleted:
        assert cap.voltage_v == v_expected
    else:  # a crossing snaps the voltage onto the threshold, or keeps it
        assert cap.voltage_v in (v_expected, target)
        trajectory = (g_load, g_harv, _crossing_tick(cap, g_load, g_harv))
    tick = trajectory[2]
    expected_ns = None if tick is None else tick - cap.last_update_ns
    assert cap.next_crossing_ns(g_load, g_harv) == expected_ns
    return trajectory


_STRONG_G = harvester_conductance(0.05, 3.3)


@settings(derandomize=True, max_examples=300)
@given(
    v0=st.floats(min_value=0.0, max_value=3.3),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=600 * NS_PER_S),
            st.sampled_from([0.0, _SLEEP_G, _TX_G]),
            st.sampled_from([0.0, harvester_conductance(1e-4, 3.3), _STRONG_G]),
        ),
        max_size=12,
    ),
    capacitance_f=st.floats(min_value=1e-4, max_value=1.0),
    max_voltage_v=st.sampled_from([3.1, 3.3]),
)
# Open harvest, open load, both sides open, and a strong harvest clamped at a
# 3.1 V maximum below the 3.3 V rail.
@example(
    v0=3.1,
    steps=[
        (NS_PER_S, _TX_G, 0.0),
        (5 * NS_PER_S, 0.0, _STRONG_G),
        (7 * NS_PER_S, 0.0, 0.0),
        (60 * NS_PER_S, _SLEEP_G, _STRONG_G),
        (3 * NS_PER_S, _TX_G, 0.0),
    ],
    capacitance_f=0.01,
    max_voltage_v=3.1,
)
# Resting on the cutoff, not yet depleted: the crossing is due now, and is
# still armed one tick ahead.
@example(v0=1.8, steps=[(0, _TX_G, 0.0)], capacitance_f=0.01, max_voltage_v=3.3)
def test_capacitor_steps_are_the_public_kernels_chained(v0, steps, capacitance_f, max_voltage_v):
    params = make_params(
        capacitance_f=capacitance_f,
        max_voltage_v=max_voltage_v,
        v_th_high_v=3.0,
        initial_voltage_v=min(v0, max_voltage_v),
    )
    cap = Capacitor(params)
    t_ns = 0
    trajectory = None
    for dt_ns, g_load, g_harv in steps:
        v_expected = propagate_voltage(cap.voltage_v, dt_ns / NS_PER_S, g_load, g_harv, params)
        t_ns += dt_ns
        trajectory = _check_step(cap, t_ns, g_load, g_harv, v_expected, trajectory)


@settings(derandomize=True, max_examples=150)
@given(
    v0=st.floats(min_value=0.0, max_value=3.3),
    steps=st.lists(st.integers(min_value=1, max_value=60 * NS_PER_S), min_size=1, max_size=10),
    capacitance_f=st.floats(min_value=1e-4, max_value=1.0),
    g_load=st.sampled_from([0.0, _SLEEP_G, _TX_G]),
    g_harv=st.sampled_from([harvester_conductance(1e-4, 3.3), _STRONG_G]),
)
# One 39 ns step: solved again from the voltage it left, this crossing would
# move from 173,087,457,111,240 ns to the tick after.
@example(
    v0=1.0,
    steps=[39],
    capacitance_f=0.7803184274586411,
    g_load=0.0,
    g_harv=9.18273645546373e-06,
)
def test_an_update_along_a_trajectory_keeps_its_crossing(v0, steps, capacitance_f, g_load, g_harv):
    cap = Capacitor(make_params(capacitance_f=capacitance_f, initial_voltage_v=v0))
    first = cap.next_crossing_ns(g_load, g_harv)
    assert first == _crossing_tick(cap, g_load, g_harv)
    t_ns = 0
    for dt_ns in steps:
        t_ns += dt_ns
        if first is not None and t_ns >= first:
            break
        assert cap.update(t_ns, g_load, g_harv) is None
        assert cap.next_crossing_ns(g_load, g_harv) == (None if first is None else first - t_ns)
    if first is not None:
        # Reached at its tick, or past it.
        assert cap.update(max(t_ns, first), g_load, g_harv) == first


def test_a_voltage_leaving_the_threshold_it_sits_on_never_crosses_it():
    # Not yet depleted at the cutoff, and charging: no crossing, and no flip.
    cap = Capacitor(make_params(initial_voltage_v=1.8))
    assert not cap.depleted
    assert cap.next_crossing_ns(0.0, _STRONG_G) is None
    cap.update(1, 0.0, _STRONG_G)
    assert not cap.depleted


def test_capacitor_steps_stay_exact_as_the_harvest_changes():
    # A random harvest meets a new conductance per slot, and may meet an
    # earlier one again; each change starts a trajectory, solved afresh.
    params = make_params(initial_voltage_v=2.5)
    cap = Capacitor(params)
    for k in range(1, 300):
        g_harv = harvester_conductance((k % 7) * 1e-6, params.rail_voltage_v)
        g_load = (_SLEEP_G, _TX_G)[k % 2]
        v_expected = propagate_voltage(cap.voltage_v, 0.5, g_load, g_harv, params)
        _check_step(cap, k * NS_PER_S // 2, g_load, g_harv, v_expected)


def test_a_capacitor_solves_once_per_trajectory_known_by_its_loads(monkeypatch):
    solves = []
    solve = caplora.energy.crossing_tick

    def spy(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(caplora.energy, "crossing_tick", spy)
    # 1 F: a second of TX moves the voltage by about 1%.
    cap = Capacitor(make_params(capacitance_f=1.0, initial_voltage_v=2.5))
    weak, strong = harvester_conductance(1e-4, 3.3), harvester_conductance(2e-4, 3.3)

    def updates(*steps) -> list[int]:
        """The solves made by each update, ``(seconds on, g_load, g_harv)``."""
        made = []
        for dt_s, g_load, g_harv in steps:
            before = len(solves)
            cap.update(cap.last_update_ns + dt_s * NS_PER_S, g_load, g_harv)
            made.append(len(solves) - before)
        return made

    # Two updates under one load, and a crossing asked for under it.
    assert updates((1, _SLEEP_G, weak), (1, _SLEEP_G, weak)) == [1, 0]
    assert cap.next_crossing_ns(_SLEEP_G, weak) is None and len(solves) == 1
    # Each move to another load, and the move back.
    assert updates((1, _TX_G, weak), (1, _TX_G, weak), (1, _SLEEP_G, weak)) == [1, 0, 1]
    # Each harvest change, the return to an earlier harvest too.
    assert updates((1, _SLEEP_G, strong), (1, _SLEEP_G, weak), (1, _SLEEP_G, weak)) == [1, 1, 0]
    # A flip: the first update after it solves under the same loads.
    assert updates((100, _TX_G, weak)) == [1]
    assert cap.depleted
    assert updates((1, _TX_G, weak), (1, _TX_G, weak)) == [1, 0]
    # Two device states of equal currents are one trajectory.
    g_load = ScenarioConfig(idle_a=5.6e-6).load_conductances()
    assert g_load[DeviceState.IDLE] == g_load[DeviceState.SLEEP]
    assert updates((1, g_load[DeviceState.SLEEP], weak), (1, g_load[DeviceState.IDLE], weak)) == [1, 0]


def test_update_going_backwards_is_rejected(params):
    cap = Capacitor(params)
    light = load_conductance(5.6e-6, params.rail_voltage_v)
    cap.update(_ns(5.0), light, 0.0)
    with pytest.raises(ValueError):
        cap.update(_ns(4.0), light, 0.0)
    v = cap.voltage_v
    cap.update(_ns(5.0), light, 0.0)  # same instant: a no-op
    assert cap.voltage_v == v


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


def test_trace_csv_matches_the_csv_module_byte_for_byte():
    rng = random.Random(5)
    states = [state.value for state in DeviceState]
    recorder = TraceRecorder()
    # More rows than one write chunk, in every state, with voltages that sit
    # on the rounding edge of the 9th decimal.
    for i in range(10_000):
        edge = round(rng.uniform(0.0, 3.3), 9) + rng.choice([5e-10, -5e-10, 4.9e-10, 0.0])
        recorder.record(i * 0.37 + rng.random() * 1e-9, max(edge, 0.0), states[i % len(states)])
    recorder.record(1e5, 3.3, "Tx")
    out = io.StringIO()
    recorder.write_csv(out)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["time_s", "voltage_V", "state"])
    for rec in recorder.records:
        writer.writerow([f"{rec.time_s:.9f}", f"{rec.voltage_v:.9f}", rec.state])
    got, want = out.getvalue(), expected.getvalue()
    # The first differing row, not a diff of two 10,000-row strings.
    mismatch = [(a, b) for a, b in zip(got.splitlines(), want.splitlines()) if a != b][:1]
    assert mismatch == []
    assert got == want
    assert got.count("\n") == 10_002


# Trajectories of a sample span with max_voltage_v = 3.3: a held voltage, a
# charge that is clamped at the top and a discharge.
_SPAN_SEGMENTS = (None, (4.0, 0.05), (0.2, 0.8))
_STATES = tuple(state.value for state in DeviceState)


@st.composite
def _spans(draw, rows=st.integers(1, 40)):
    t0_ns = draw(st.integers(0, 10**12))
    start = t0_ns + draw(st.integers(0, 10**9))
    count = draw(st.just(1) | rows)
    step = draw(st.just(1) | st.integers(1, 10**9))
    times = range(start, start + count * step, step)
    v0 = draw(st.floats(0.0, 3.6))
    return times, t0_ns, v0, draw(st.sampled_from(_SPAN_SEGMENTS)), 3.3, draw(st.sampled_from(_STATES))


_ROWS = st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 3.3), st.sampled_from(_STATES))


# Seconds a grid span starts at: early in a run, and around 2^23 s and
# 2^24 s, where ``%.9f`` of a time in seconds no longer always shows its
# nanoseconds.
_GRID_SECONDS = st.integers(0, 10**4) | st.integers(2**23 - 2500, 2**23 + 50) | st.integers(2**24, 2**24 + 10**4)


@st.composite
def _grid_spans(draw, rows=st.integers(1, 40)):
    # Whole-second steps, which print through one template, and sub-second ones.
    step = draw(st.sampled_from((NS_PER_S, 60 * NS_PER_S)) | st.integers(1, NS_PER_S - 1))
    frac = draw(st.just(0) | st.integers(1, NS_PER_S - 1))
    start = draw(_GRID_SECONDS) * NS_PER_S + frac
    times = range(start, start + draw(rows) * step, step)
    t0_ns = start - draw(st.integers(0, 10**10))
    v0 = draw(st.floats(0.0, 3.6))
    return times, t0_ns, v0, draw(st.sampled_from(_SPAN_SEGMENTS)), 3.3, draw(st.sampled_from(_STATES))


_LONG_ROWS = st.integers(_CSV_CHUNK_ROWS + 1, _CSV_CHUNK_ROWS + 300)


# Not shrunk: shrinking a failing span of thousands of rows takes minutes,
# and the first differing row already tells what broke.
@settings(derandomize=True, max_examples=120, deadline=None, phases=set(Phase) - {Phase.shrink})
@given(
    pieces=st.lists(_ROWS | _spans() | _grid_spans(), max_size=8),
    long_span=_spans(_LONG_ROWS) | _grid_spans(_LONG_ROWS),
    long_at=st.integers(0, 8),
)
def test_written_rows_are_the_recorded_rows(pieces, long_span, long_at):
    # Rows and sample spans interleaved, one span longer than a write chunk:
    # the file is the rows read back, each formatted once, in order. A span
    # on whole-second steps prints its times from their seconds where that
    # is exact, whether it starts on a whole second or not, or reaches past
    # 2^23 s.
    pieces.insert(long_at, long_span)
    recorder = TraceRecorder()
    for piece in pieces:
        if len(piece) == 3:
            recorder.record(*piece)
        else:
            recorder.record_samples(*piece)
    out = io.StringIO()
    recorder.write_csv(out)
    records = recorder.records
    # Compared as lists of rows, so a failure names the first differing row.
    written = out.getvalue().splitlines(keepends=True)
    assert written == ["time_s,voltage_V,state\n", *(_CSV_ROW % r for r in records)]
    assert len(recorder) == len(records)
    assert max(rec.voltage_v for rec in records) <= 3.3


@pytest.mark.parametrize(
    "start_ns",
    [
        1_234_567_891,  # a start off the whole second prints its nanoseconds
        (2**23 - 5) * NS_PER_S + 700_000_000,  # reaches past 2^23 s
        2**24 * NS_PER_S + 123_456_789,
        2**24 * NS_PER_S,  # whole seconds print exactly up to 2^53 s ...
        (2**53 - 200) * NS_PER_S,  # ... and not past it
    ],
)
def test_grid_times_print_as_their_float_seconds(start_ns):
    # Past 2^23 s a time in seconds may round to another nanosecond as a
    # float, and past 2^53 s a whole second may round too: the file prints
    # what ``%.9f`` of that float prints, as it always did.
    times = range(start_ns, start_ns + 400 * NS_PER_S, NS_PER_S)
    recorder = TraceRecorder()
    recorder.record_samples(times, start_ns, 2.5, None, 3.3, "Sleep")
    out = io.StringIO()
    recorder.write_csv(out)
    lines = out.getvalue().splitlines()[1:]
    assert lines == [f"{t_ns / NS_PER_S:.9f},2.500000000,Sleep" for t_ns in times]


@pytest.mark.parametrize(
    "g_load, power_w, v0",
    [
        (0.004, 0.0, 3.3),  # discharging, no harvest
        (0.0, 0.01, 2.0),  # charging towards the rail: clamped at max_voltage_v
        (0.00334, 0.002, 1.9),  # towards an asymptote between the thresholds
        (0.0, 0.0, 2.5),  # both sides open: the voltage holds
        (0.0, 0.0, 3.6),  # ... clamped to max_voltage_v
    ],
)
def test_sampled_voltages_are_propagate_voltage_exactly(g_load, power_w, v0):
    # A cap below the rail, so that a full charge is clamped.
    params = make_params(max_voltage_v=3.1, initial_voltage_v=3.1)
    g_harv = harvester_conductance(power_w, params.rail_voltage_v)
    t0_ns = 7_123_456_789
    times = range(t0_ns, t0_ns + 400 * NS_PER_S, 999_999_937)
    recorder = TraceRecorder()
    segment = Capacitor(params).segment(g_load, g_harv)
    recorder.record_samples(times, t0_ns, v0, segment, params.max_voltage_v, "Idle")
    records = recorder.records
    assert len(records) == len(times)
    assert all(type(rec) is TraceRecord for rec in records)
    for rec, t_ns in zip(records, times):
        elapsed = (t_ns - t0_ns) / NS_PER_S
        assert rec == (t_ns / NS_PER_S, propagate_voltage(v0, elapsed, g_load, g_harv, params), "Idle")
    voltages = [rec.voltage_v for rec in records]
    assert max(voltages) <= params.max_voltage_v
    if power_w == 0.01:
        assert voltages[-1] == params.max_voltage_v
        assert voltages[0] < params.max_voltage_v


@given(
    v0=st.floats(0.0, 3.1),
    elapsed_ns=st.integers(1, 10**13),
    current_a=st.sampled_from((0.0, 5.6e-6, 0.0105055, 0.028011)),
    power_w=st.sampled_from((0.0, 1e-4, 1e-3, 2e-2)),
)
def test_a_step_from_its_coefficients_is_an_update_bit_for_bit(v0, elapsed_ns, current_a, power_w):
    # A replay steps a + v * b from ``step_coefficients``; the capacitor
    # computes the same products inline. A cap below the rail clamps.
    params = make_params(max_voltage_v=3.1, initial_voltage_v=v0, v_th_low_v=1e-6, v_th_high_v=3.1)
    g_load = load_conductance(current_a, params.rail_voltage_v)
    g_harv = harvester_conductance(power_w, params.rail_voltage_v)
    cap = Capacitor(params)
    depleted = cap.depleted
    cap.update(elapsed_ns, g_load, g_harv)
    assume(cap.depleted == depleted)
    a, b = step_coefficients(elapsed_ns, cap.segment(g_load, g_harv))
    assert cap.voltage_v == min(max(a + v0 * b, 0.0), params.max_voltage_v)


@settings(derandomize=True, max_examples=200)
@given(
    v0=st.floats(0.0, 3.3),
    steps=st.lists(
        st.tuples(st.integers(0, 10**18), st.just(0.0) | st.floats(0.0, 1e3)),
        min_size=1,
        max_size=3,
    ),
    g_harv=st.just(0.0) | st.floats(0.0, 1e3),
    capacitance_f=st.floats(1e-6, 10.0),
)
@example(v0=0.0, steps=[(1, 0.0)], g_harv=2.2250738585072014e-308, capacitance_f=1e-6)
def test_no_step_falls_below_zero(v0, steps, g_harv, capacitance_f):
    # A step is a + v * b with a >= 0 and 0 <= b <= 1, so from a voltage at
    # or above 0 it never falls below 0: the steps clamp only at the top.
    params = make_params(capacitance_f=capacitance_f, initial_voltage_v=v0)
    cap = Capacitor(params)
    t_ns = 0
    for elapsed_ns, g_load in steps:
        a, b = step_coefficients(elapsed_ns, cap.segment(g_load, g_harv))
        assert a >= 0.0 and 0.0 <= b <= 1.0
        recorder = TraceRecorder()
        times = range(t_ns + elapsed_ns, t_ns + elapsed_ns + 1)
        segment = cap.segment(g_load, g_harv)
        recorder.record_samples(times, t_ns, cap.voltage_v, segment, params.max_voltage_v, "Idle")
        assert recorder.records[0].voltage_v >= 0.0
        t_ns += elapsed_ns
        cap.update(t_ns, g_load, g_harv)
        assert cap.voltage_v >= 0.0
    played = played_segments(
        [(elapsed_ns / NS_PER_S, g_load) for elapsed_ns, g_load in steps],
        g_harv,
        params.rail_voltage_v,
    )
    assert min_voltage_over_played(v0, played, capacitance_f, params.max_voltage_v) >= 0.0


def test_a_crossing_more_ticks_ahead_than_a_float_counts_never_comes():
    # Recharging from 0 V at the smallest normal harvest conductance reaches
    # 3.0 V about 1e306 s ahead: no tick of any run, whose ticks a float
    # counts. A 1-tick step under no load then finds no crossing.
    g_harv = 2.2250738585072014e-308
    cap = Capacitor(make_params(capacitance_f=1e-6, initial_voltage_v=0.0))
    assert cap.next_crossing_ns(0.0, g_harv) is None
    assert cap.update(1, 0.0, g_harv) is None
    assert cap.depleted and cap.voltage_v >= 0.0
    assert crossing_tick(0.0, 0, True, cap.segment(0.0, g_harv), cap.params) is None
    assert _ticks_until(math.inf) is None and _ticks_until(math.nan) is None
    assert _ticks_until(1e290) == round(1e290 * NS_PER_S)


@st.composite
def _discharges(draw) -> tuple[float, float, float]:
    """A cutoff, an asymptote at or below it and a start voltage above it."""
    v_low = draw(st.floats(min_value=0.5, max_value=2.9))
    v_inf = draw(st.floats(min_value=0.0, max_value=v_low))
    v0 = draw(st.floats(min_value=v_low, max_value=3.3, exclude_min=True))
    return v_low, v_inf, v0


@settings(derandomize=True, max_examples=200)
@given(
    discharge=_discharges(),
    tau_s=st.floats(min_value=1e-6, max_value=1e4),
    lead_ticks=st.integers(-3, 3) | st.integers(-(10**13), 10**13),
    pieces=st.integers(1, 3),
)
# TX at 3 mW on 10 mF from 2.19 V: the crossing instant, 236,170,449.23 ns
# on, rounds onto the tick before it, where the voltage is still 3.5e-10 V
# above the cutoff.
@example(
    discharge=(1.8, 0.10373411374917091, 2.1900528483517383),
    tau_s=1.14107525124088,
    lead_ticks=0,
    pieces=1,
)
def test_a_discharge_past_its_margin_has_not_crossed(discharge, tau_s, lead_ticks, pieces):
    # A replay solves the crossing of a discharge that ends inside a copy
    # only where the voltage at its last step T is within the margin of the
    # cutoff: beyond it, the crossing tick solved from the start must fall
    # after T. T is reached in a few steps, as a replay takes them.
    v_low, v_inf, v0 = discharge
    params = make_params(v_th_low_v=v_low)
    segment = (v_inf, tau_s)
    cross = crossing_tick(v0, 0, False, segment, params)
    assume(cross is not None)
    end = max(1, cross + lead_ticks)
    v, t = v0, 0
    for k in range(1, pieces + 1):
        a, b = step_coefficients(end * k // pieces - t, segment)
        v = min(max(a + v * b, 0.0), params.max_voltage_v)
        t = end * k // pieces
    if v - v_low > _crossing_margin(segment, params.max_voltage_v):
        assert cross > end


def test_sampling_refuses_a_time_before_the_start_or_a_negative_voltage():
    params = make_params()
    g_load = load_conductance(5.5e-6, params.rail_voltage_v)
    segment = Capacitor(params).segment(g_load, 0.0)
    vmax = params.max_voltage_v
    # A span is checked when it is recorded, so writing it never raises.
    recorder = TraceRecorder()
    with pytest.raises(ValueError, match="before"):
        recorder.record_samples(range(999, 5000, 1000), 1000, 2.0, segment, vmax, "Idle")
    with pytest.raises(ValueError, match=">= 0"):
        recorder.record_samples(range(1000, 5000, 1000), 1000, -0.1, segment, vmax, "Idle")
    recorder.record_samples(range(1000, 1000, 1000), 2000, 2.0, segment, vmax, "Idle")
    assert recorder.records == []
    assert len(recorder) == 0
