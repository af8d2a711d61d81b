"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the closed-form solutions under test: the
voltage oracle integrates the circuit ODE step by step, and the energy oracle
integrates the instantaneous load power by quadrature.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import settings

from caplora.energy import CapacitorParams

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


def _clamp(v: float, params: CapacitorParams) -> float:
    return min(max(v, 0.0), params.max_voltage_v)


@pytest.fixture
def params() -> CapacitorParams:
    return make_params()
