"""Supercapacitor energy model: an ideal source behind a series conductance
feeds a capacitor in parallel with a conductive load.

Between events the voltage follows ``C dv/dt = G_h (E - v) - G_L v``, where
``E`` is the rail voltage, ``G_h`` the harvester's conductance and ``G_L``
the load's. An open side (no harvest, or no load) is simply ``G = 0``, so one
asymptote ``v_inf = E G_h / (G_h + G_L)`` and one time constant
``tau = C / (G_h + G_L)`` cover every case; only when both sides are open
does the voltage hold.

``Capacitor`` and every function here take the load as a conductance; a
scenario converts each device state's current ``I`` to ``G_L = I / E`` once
per run (``load_conductance``).

All voltages are volts, conductances siemens, capacitances farads, times
seconds, except the capacitor's clock times, which are integer nanoseconds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, IO, Iterable, NamedTuple

from .clock import NS_PER_S
from .errors import ConfigError


@dataclass(frozen=True)
class CapacitorParams:
    """Static parameters of the storage capacitor and its voltage windows.

    The device turns off below ``v_th_low_v`` and back on once ``v_th_high_v``
    is reached again (hysteresis).
    """

    capacitance_f: float
    rail_voltage_v: float
    max_voltage_v: float
    v_th_low_v: float
    v_th_high_v: float
    initial_voltage_v: float

    def __post_init__(self) -> None:
        problems = []
        if self.capacitance_f <= 0.0:
            problems.append(f"capacitance_f must be > 0, got {self.capacitance_f}")
        if self.rail_voltage_v <= 0.0:
            problems.append(f"rail_voltage_v must be > 0, got {self.rail_voltage_v}")
        if self.max_voltage_v <= 0.0:
            problems.append(f"max_voltage_v must be > 0, got {self.max_voltage_v}")
        if not 0.0 < self.v_th_low_v < self.max_voltage_v:
            problems.append(
                f"v_th_low_v must be in (0, max_voltage_v), got {self.v_th_low_v}"
            )
        if not 0.0 < self.v_th_high_v <= self.max_voltage_v:
            problems.append(
                f"v_th_high_v must be in (0, max_voltage_v], got {self.v_th_high_v}"
            )
        if self.v_th_high_v <= self.v_th_low_v:
            problems.append("v_th_high_v must be > v_th_low_v")
        if not 0.0 <= self.initial_voltage_v <= self.max_voltage_v:
            problems.append(
                f"initial_voltage_v must be in [0, max_voltage_v], got {self.initial_voltage_v}"
            )
        if problems:
            raise ConfigError(problems)


def harvester_conductance(power_w: float, rail_voltage_v: float) -> float:
    """Series conductance ``P / E^2`` of a harvester delivering ``power_w`` at
    the rail voltage; zero power is an open harvest path."""
    if not 0.0 <= power_w < math.inf:
        raise ValueError(f"harvested power must be finite and >= 0, got {power_w}")
    if rail_voltage_v <= 0.0:
        raise ValueError(f"rail voltage must be > 0, got {rail_voltage_v}")
    return power_w / (rail_voltage_v * rail_voltage_v)


def load_conductance(current_a: float, rail_voltage_v: float) -> float:
    """Conductance ``I / E`` of a load absorbing ``current_a`` at the rail
    voltage; zero current is an open load."""
    if current_a < 0.0:
        raise ValueError(f"load current must be >= 0, got {current_a}")
    if rail_voltage_v <= 0.0:
        raise ValueError(f"rail voltage must be > 0, got {rail_voltage_v}")
    return current_a / rail_voltage_v


def _segment(
    g_load: float, g_harv: float, params: CapacitorParams
) -> tuple[float, float] | None:
    """Asymptote and time constant ``(v_inf, tau)`` of a fixed load and harvest.

    ``None`` when both sides are open: the voltage then simply holds.
    """
    g = g_harv + g_load
    if g == 0.0:
        return None
    return params.rail_voltage_v * g_harv / g, params.capacitance_f / g


def steady_state_voltage(
    g_load: float, g_harv: float, params: CapacitorParams
) -> float:
    """Asymptotic capacitor voltage ``E G_h / (G_h + G_L)``, before the cap.

    Raises ``ValueError`` when both sides are open, since the voltage then
    holds wherever it is and has no asymptote.
    """
    segment = _segment(g_load, g_harv, params)
    if segment is None:
        raise ValueError("both sides are open: the voltage holds, with no asymptote")
    return segment[0]


def propagate_voltage(
    v0: float,
    elapsed_s: float,
    g_load: float,
    g_harv: float,
    params: CapacitorParams,
) -> float:
    """Capacitor voltage after ``elapsed_s`` under a fixed load and harvest.

    Closed-form solution of ``C dv/dt = G_h (E - v) - G_L v``. Charging
    saturates at ``max_voltage_v``; an infinite ``elapsed_s`` gives the
    settled level.
    """
    if elapsed_s < 0.0:
        raise ValueError(f"elapsed time must be >= 0, got {elapsed_s}")
    if v0 < 0.0:
        raise ValueError(f"voltage must be >= 0, got {v0}")
    segment = _segment(g_load, g_harv, params)
    if segment is None or elapsed_s == 0.0:
        return _clamp(v0, params.max_voltage_v)
    v_inf, tau = segment
    # Convex combination of v0 and v_inf: with both terms non-negative there
    # is no cancellation, so composing many short steps stays accurate even
    # when the voltage is far smaller than the asymptote.
    decay = math.exp(-elapsed_s / tau)
    v = v_inf * -math.expm1(-elapsed_s / tau) + v0 * decay
    return _clamp(v, params.max_voltage_v)


def crossing_time(
    v0: float,
    target_v: float,
    g_load: float,
    g_harv: float,
    params: CapacitorParams,
) -> float | None:
    """Time until the voltage trajectory from ``v0`` reaches ``target_v``.

    Returns ``None`` when the target is never reached (wrong side of the
    trajectory, or an asymptote at or short of the target). The result is
    exact, obtained by inverting the charge equation.
    """
    segment = _segment(g_load, g_harv, params)
    if segment is None:
        return None
    v_inf, tau = segment
    if v0 == v_inf:
        return None
    target_v = min(target_v, params.max_voltage_v)
    ratio = (target_v - v_inf) / (v0 - v_inf)
    if ratio <= 0.0 or ratio > 1.0:
        return None
    return -tau * math.log(ratio)


def load_energy_joules(
    v0: float,
    duration_s: float,
    g_load: float,
    g_harv: float,
    params: CapacitorParams,
) -> float:
    """Energy absorbed by the load ``g_load`` over ``duration_s``, in closed form.

    The load's instantaneous power is ``v(t)^2 G_L``. Integrating that keeps
    the accounting consistent with the capacitor's stored energy: with no
    harvest, the energy delivered equals the drop in ``C v^2 / 2`` exactly.
    """
    if duration_s < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration_s}")
    if g_load == 0.0 or duration_s == 0.0:
        return 0.0
    v0 = _clamp(v0, params.max_voltage_v)
    # When the free trajectory would exceed the cap, split at the saturation
    # instant: past it the voltage holds at the maximum, not the exponential.
    vmax = params.max_voltage_v
    if steady_state_voltage(g_load, g_harv, params) > vmax:
        t_sat = crossing_time(v0, vmax, g_load, g_harv, params)
        if t_sat is not None and t_sat < duration_s:
            head = _exact_energy(v0, t_sat, g_load, g_harv, params)
            tail = vmax * vmax * g_load * (duration_s - t_sat)
            return head + tail
    return _exact_energy(v0, duration_s, g_load, g_harv, params)


def _exact_energy(
    v0: float,
    duration_s: float,
    g_load: float,
    g_harv: float,
    params: CapacitorParams,
) -> float:
    """Integral of v(t)^2 G_L for an unsaturated exponential segment, G_L > 0."""
    segment = _segment(g_load, g_harv, params)
    assert segment is not None
    b, tau = segment
    m = v0 - b
    e1 = -math.expm1(-duration_s / tau)
    e2 = -math.expm1(-2.0 * duration_s / tau)
    integral = b * b * duration_s + 2.0 * b * m * tau * e1 + m * m * (tau / 2.0) * e2
    return integral * g_load


def min_voltage_over_segments(
    v0: float,
    segments: Iterable[tuple[float, float]],
    g_harv: float,
    params: CapacitorParams,
) -> float:
    """Minimum voltage reached while playing ``(duration, g_load)`` segments.

    Within one segment the trajectory is monotone toward its asymptote, so the
    minimum over the whole sequence is attained at a segment boundary.
    """
    v = _clamp(v0, params.max_voltage_v)
    v_min = v
    for duration_s, g_load in segments:
        v = propagate_voltage(v, duration_s, g_load, g_harv, params)
        if v < v_min:
            v_min = v
    return v_min


# Voltages closer to a threshold than this are snapped onto it when the
# hysteresis flag flips, so crossings land exactly on the configured level.
_SNAP_TOLERANCE_V = 1e-9


def _ignore_crossing(when_s: float) -> None:
    pass


class Capacitor:
    """Capacitor state machine with hysteresis and crossing callbacks.

    ``update`` propagates the voltage under the load and harvest conductances
    that were active since the previous update. Clock times are integer
    nanoseconds, so the elapsed time of a step depends on its length only,
    not on when it happens. A threshold crossing inside the elapsed interval
    flips ``depleted`` and calls ``on_depleted`` or ``on_recharged`` with the
    analytically solved crossing time in seconds, not the update time.
    """

    def __init__(self, params: CapacitorParams) -> None:
        self.params = params
        self.voltage_v = min(params.initial_voltage_v, params.max_voltage_v)
        self.last_update_ns = 0
        self.depleted = self.voltage_v < params.v_th_low_v
        self.load_energy_j = 0.0
        # When a list, every ``load_energy_j`` increment is appended to it.
        self.energy_log: list[float] | None = None
        self.on_depleted: Callable[[float], None] = _ignore_crossing
        self.on_recharged: Callable[[float], None] = _ignore_crossing

    def update(self, now_ns: int, g_load: float, g_harv: float) -> None:
        """Advance to ``now_ns`` under ``g_load``, calling back on a crossing."""
        last_ns = self.last_update_ns
        if now_ns < last_ns:
            raise ValueError(f"update at {now_ns} ns precedes last update at {last_ns} ns")
        if now_ns == last_ns:
            return
        params = self.params
        elapsed = (now_ns - last_ns) / NS_PER_S
        v_prev = self.voltage_v
        energy = load_energy_joules(v_prev, elapsed, g_load, g_harv, params)
        self.load_energy_j += energy
        if self.energy_log is not None:
            self.energy_log.append(energy)
        v_new = propagate_voltage(v_prev, elapsed, g_load, g_harv, params)
        self.voltage_v = v_new
        self.last_update_ns = now_ns
        # The active threshold is crossed by a move onto or past it, toward it.
        if self.depleted:
            target = params.v_th_high_v
            crossed = v_prev <= v_new >= target
        else:
            target = params.v_th_low_v
            crossed = v_prev >= v_new <= target
        if not crossed:
            return
        t_cross = crossing_time(v_prev, target, g_load, g_harv, params)
        when = (last_ns / NS_PER_S + t_cross) if t_cross is not None else now_ns / NS_PER_S
        if abs(v_new - target) <= _SNAP_TOLERANCE_V:
            self.voltage_v = target
        self.depleted = not self.depleted
        (self.on_depleted if self.depleted else self.on_recharged)(when)

    def next_crossing(self, g_load: float, g_harv: float) -> float | None:
        """Seconds from the last update until the active threshold is crossed."""
        params = self.params
        target = params.v_th_high_v if self.depleted else params.v_th_low_v
        return crossing_time(self.voltage_v, target, g_load, g_harv, params)


class TraceRecord(NamedTuple):
    time_s: float
    voltage_v: float
    state: str


@dataclass
class TraceRecorder:
    """Collects timestamped voltage samples and writes them as CSV."""

    records: list[TraceRecord] = field(default_factory=list)

    def record(self, time_s: float, voltage_v: float, state: str) -> None:
        self.records.append(TraceRecord(time_s, voltage_v, state))

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["time_s", "voltage_V", "state"])
        for rec in self.records:
            writer.writerow([f"{rec.time_s:.9f}", f"{rec.voltage_v:.9f}", rec.state])


def _clamp(v: float, max_voltage_v: float) -> float:
    if v < 0.0:
        return 0.0
    if v > max_voltage_v:
        return max_voltage_v
    return v

