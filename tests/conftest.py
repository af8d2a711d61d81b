"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the closed-form solutions under test: the
voltage oracle integrates the circuit ODE step by step, and the energy oracle
integrates the instantaneous load power by quadrature.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import settings

import caplora.engine
from caplora.device import CycleOutcome
from caplora.energy import CapacitorParams, load_energy_joules
from caplora.engine import Simulator

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def make_params(**overrides) -> CapacitorParams:
    """A 3.3 V / 10 mF storage setup with the usual 1.8/3.0 V window."""
    kwargs = dict(
        capacitance_f=0.01,
        rail_voltage_v=3.3,
        max_voltage_v=3.3,
        v_th_low_v=1.8,
        v_th_high_v=3.0,
        initial_voltage_v=3.3,
    )
    kwargs.update(overrides)
    return CapacitorParams(**kwargs)


def rk4_voltage(
    v0: float,
    duration_s: float,
    g_load: float,
    g_harv: float,
    params: CapacitorParams,
    steps: int = 2000,
) -> float:
    """Runge-Kutta integration of ``C dv/dt = g_h (E - v) - g_l v``.

    A zero conductance is an open side and drops its term. The trajectory is
    a single exponential, so once it has run for many time constants it sits
    on its asymptote to machine precision; integration stops there to keep
    the fixed step inside the method's stability region. The result is
    clamped to the maximum voltage exactly like the model clamps a monotone
    approach to it.
    """
    if g_load == 0.0 and g_harv == 0.0:
        return _clamp(v0, params)

    c = params.capacitance_f
    e = params.rail_voltage_v

    def dv_dt(v: float) -> float:
        return (g_harv * (e - v) - g_load * v) / c

    tau = c / (g_harv + g_load)
    t_end = min(duration_s, 45.0 * tau)
    h = t_end / steps
    v = v0
    for _ in range(steps):
        k1 = dv_dt(v)
        k2 = dv_dt(v + 0.5 * h * k1)
        k3 = dv_dt(v + 0.5 * h * k2)
        k4 = dv_dt(v + h * k3)
        v += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _clamp(v, params)


def simpson_load_energy(
    v0: float,
    duration_s: float,
    g_load: float,
    g_harv: float,
    params: CapacitorParams,
    n: int = 4096,
) -> float:
    """Composite-Simpson integral of ``v(t)^2 g_l`` over the segment.

    Valid for trajectories that never hit the voltage cap (the integrand is
    then smooth). The voltage samples come from the closed form, which the
    ODE oracle validates separately.
    """
    from caplora.energy import propagate_voltage

    if g_load == 0.0 or duration_s == 0.0:
        return 0.0
    h = duration_s / n

    def power(t: float) -> float:
        v = propagate_voltage(v0, t, g_load, g_harv, params)
        return v * v * g_load

    total = power(0.0) + power(duration_s)
    total += 4.0 * sum(power((2 * k + 1) * h) for k in range(n // 2))
    total += 2.0 * sum(power(2 * k * h) for k in range(1, n // 2))
    return total * h / 3.0


def stepwise_min_voltage(
    v0: float,
    segments: list[tuple[float, float]],
    g_harv: float,
    params: CapacitorParams,
) -> float:
    """Lowest voltage at any boundary of ``(duration, g_load)`` segments,
    chaining one ``propagate_voltage`` call per segment.

    The reference for the segment kernel: it shares none of the kernel's
    precomputation, only the single closed-form step that the ODE oracle
    checks.
    """
    from caplora.energy import propagate_voltage

    v = propagate_voltage(v0, 0.0, 0.0, 0.0, params)  # clamped at the maximum
    v_min = v
    for duration_s, g_load in segments:
        v = propagate_voltage(v, duration_s, g_load, g_harv, params)
        v_min = min(v_min, v)
    return v_min


def traced_load_energy(sim) -> float:
    """Load energy of a traced, finished run, summed in closed form over the
    intervals between consecutive trace records.

    Each interval runs under the state of the record that opens it, from
    that record's voltage, at the run's constant harvest.
    """
    g_load = {state.value: g for state, g in sim.g_load.items()}
    records = sim.metrics.trace.records
    return sum(
        load_energy_joules(
            r.voltage_v, nxt.time_s - r.time_s, g_load[r.state], sim.g_harv, sim.cap.params
        )
        for r, nxt in zip(records, records[1:])
    )


@contextmanager
def shortcuts_off():
    """Turn off the engine's exact shortcut while the block runs: no packet
    generation or recharge is an anchor, so no stretch is replayed. A run
    then simulates every event."""
    with mock.patch.object(Simulator, "_anchor", lambda self: None):
        yield


def run_both_ways(config) -> tuple[Simulator, Simulator]:
    """``config`` run as it is, then with every shortcut off; each run's
    outcome counts match its records."""
    fast = Simulator(config)
    fast.run()
    slow = Simulator(config)
    with shortcuts_off():
        slow.run()
    assert_outcome_counts(fast.metrics)
    assert_outcome_counts(slow.metrics)
    return fast, slow


def assert_outcome_counts(metrics) -> None:
    """A run's outcome counts, kept without reading its records, are the
    tally of those records. The counts are read first: reading them must
    not need the records."""
    counts = dict(metrics.outcomes)
    tally = Counter(record.outcome for record in metrics.cycles)
    assert counts == {outcome: tally[outcome] for outcome in CycleOutcome}


def empty_stores(monkeypatch) -> None:
    """Give the engine an empty store of valid scenarios' run parts, so that
    no run reuses what an earlier one left."""
    monkeypatch.setattr(caplora.engine, "_scenario_parts", {})


def assert_same_run(fast: Simulator, slow: Simulator) -> None:
    """Two finished runs of one scenario ended in the same place."""
    assert fast.metrics == slow.metrics
    assert fast.cap.voltage_v == slow.cap.voltage_v
    assert fast.device.state == slow.device.state
    assert fast.device.cycle == slow.device.cycle


def _clamp(v: float, params: CapacitorParams) -> float:
    return min(max(v, 0.0), params.max_voltage_v)


@pytest.fixture
def params() -> CapacitorParams:
    return make_params()
