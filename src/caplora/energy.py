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

Under a fixed load and harvest the voltage follows one trajectory, and
``Capacitor`` knows a trajectory by those two conductances: it solves the
crossing tick of its active threshold where a trajectory starts, and again
only when the load or the harvest differs or a crossing flips it.

A step mixes the voltage with ``v_inf``, both non-negative, so it is
clamped only at ``max_voltage_v`` (see ``step_coefficients``).

All voltages are volts, conductances siemens, capacitances farads, times
seconds, except clock and crossing times, which are integer nanoseconds.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import IO, Iterable, NamedTuple

from .clock import NS_PER_S, TICK_S, number_problems
from .errors import ConfigError, shown


class _CapacitorFields(NamedTuple):
    capacitance_f: float
    rail_voltage_v: float
    max_voltage_v: float
    v_th_low_v: float
    v_th_high_v: float
    initial_voltage_v: float


class CapacitorParams(_CapacitorFields):
    """Static parameters of the storage capacitor and its voltage windows.

    The device turns off below ``v_th_low_v`` and back on once ``v_th_high_v``
    is reached again (hysteresis).

    An immutable named tuple; ``_replace`` derives a changed copy, checked
    as a new one is.
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> CapacitorParams:
        self = super().__new__(cls, *args, **kwargs)
        problems = []
        if self.capacitance_f <= 0.0:
            problems.append(f"capacitance_f must be > 0, got {shown(self.capacitance_f)}")
        if self.rail_voltage_v <= 0.0:
            problems.append(f"rail_voltage_v must be > 0, got {shown(self.rail_voltage_v)}")
        if self.max_voltage_v <= 0.0:
            problems.append(f"max_voltage_v must be > 0, got {shown(self.max_voltage_v)}")
        if not 0.0 < self.v_th_low_v < self.max_voltage_v:
            problems.append(
                f"v_th_low_v must be in (0, max_voltage_v), got {shown(self.v_th_low_v)}"
            )
        if not 0.0 < self.v_th_high_v <= self.max_voltage_v:
            problems.append(
                f"v_th_high_v must be in (0, max_voltage_v], got {shown(self.v_th_high_v)}"
            )
        if self.v_th_high_v <= self.v_th_low_v:
            problems.append("v_th_high_v must be > v_th_low_v")
        if not 0.0 <= self.initial_voltage_v <= self.max_voltage_v:
            problems.append(
                f"initial_voltage_v must be in [0, max_voltage_v], got {shown(self.initial_voltage_v)}"
            )
        for name, value in zip(self._fields, self):
            problems.extend(number_problems(name, value))
        if problems:
            raise ConfigError(problems)
        return self

    # ``_replace`` builds its copy through ``_make``: checked here, by ``__new__``.
    _make = classmethod(lambda cls, values: cls(*values))


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
    g_load: float, g_harv: float, rail_voltage_v: float, capacitance_f: float
) -> tuple[float, float] | None:
    """Asymptote and time constant ``(v_inf, tau)`` of a fixed load and harvest.

    ``None`` when both sides are open: the voltage then simply holds.
    """
    g = g_harv + g_load
    if g == 0.0:
        return None
    return rail_voltage_v * g_harv / g, capacitance_f / g


def steady_state_voltage(
    g_load: float, g_harv: float, params: CapacitorParams
) -> float:
    """Asymptotic capacitor voltage ``E G_h / (G_h + G_L)``, before the cap.

    Raises ``ValueError`` when both sides are open, since the voltage then
    holds wherever it is and has no asymptote.
    """
    segment = _segment(g_load, g_harv, params.rail_voltage_v, params.capacitance_f)
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
    segment = _segment(g_load, g_harv, params.rail_voltage_v, params.capacitance_f)
    if segment is None or elapsed_s == 0.0:
        return _clamp(v0, params.max_voltage_v)
    v_inf, tau = segment
    # Convex combination of v0 and v_inf: with both terms non-negative there
    # is no cancellation, so composing many short steps stays accurate even
    # when the voltage is far smaller than the asymptote.
    x = -elapsed_s / tau
    v = v_inf * -math.expm1(x) + v0 * math.exp(x)
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
    segment = _segment(g_load, g_harv, params.rail_voltage_v, params.capacitance_f)
    if segment is None:
        return None
    return _crossing_s(v0, target_v, segment[0], segment[1], params.max_voltage_v)


def _crossing_s(
    v0: float, target_v: float, v_inf: float, tau: float, max_voltage_v: float
) -> float | None:
    """``crossing_time`` on the trajectory ``(v_inf, tau)``."""
    if v0 == v_inf:
        return None
    target_v = min(target_v, max_voltage_v)
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
    Raises ``ValueError``, as ``propagate_voltage`` does, for a negative
    ``v0``.
    """
    if duration_s < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration_s}")
    if v0 < 0.0:
        raise ValueError(f"voltage must be >= 0, got {v0}")
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
    segment = _segment(g_load, g_harv, params.rail_voltage_v, params.capacitance_f)
    assert segment is not None
    b, tau = segment
    m = v0 - b
    e1 = -math.expm1(-duration_s / tau)
    e2 = -math.expm1(-2.0 * duration_s / tau)
    integral = b * b * duration_s + 2.0 * b * m * tau * e1 + m * m * (tau / 2.0) * e2
    return integral * g_load


def played_segments(
    segments: Iterable[tuple[float, float]], g_harv: float, rail_voltage_v: float
) -> tuple[tuple[float, float, float], ...]:
    """The capacitance-free part of playing ``(duration, g_load)`` segments.

    One ``(duration, G, v_inf)`` per segment along which the voltage moves,
    with ``G = G_h + G_L`` and ``v_inf = E G_h / G``; a segment of zero
    duration, or with both sides open, holds the voltage and is left out.
    """
    played = []
    for duration_s, g_load in segments:
        if duration_s < 0.0:
            raise ValueError(f"elapsed time must be >= 0, got {duration_s}")
        g = g_harv + g_load
        if g != 0.0 and duration_s != 0.0:
            played.append((duration_s, g, rail_voltage_v * g_harv / g))
    return tuple(played)


def min_voltage_over_played(
    v0: float,
    played: Iterable[tuple[float, float, float]],
    capacitance_f: float,
    max_voltage_v: float,
) -> float:
    """Minimum voltage reached while playing ``played_segments`` output on a
    capacitor of ``capacitance_f``.

    Within one segment the trajectory is monotone toward its asymptote, so
    the minimum over the whole sequence is attained at a segment boundary.
    Each step is ``propagate_voltage``'s, bit for bit: the same time constant
    ``C / G``, the same convex combination and the same clamp. Raises
    ``ValueError``, as ``propagate_voltage`` does, for a negative ``v0``.
    """
    if not capacitance_f > 0.0:
        raise ValueError(f"capacitance must be > 0, got {capacitance_f}")
    if v0 < 0.0:
        raise ValueError(f"voltage must be >= 0, got {v0}")
    v = _clamp(v0, max_voltage_v)
    v_min = v
    for duration_s, g, v_inf in played:
        # -d / tau with tau kept as its own division: d * G / C rounds
        # differently.
        x = -duration_s / (capacitance_f / g)
        v = v_inf * -math.expm1(x) + v * math.exp(x)
        if v > max_voltage_v:
            v = max_voltage_v
        if v < v_min:
            v_min = v
    return v_min


def min_capacitance_over_played(
    v0: float,
    played: Iterable[tuple[float, float, float]],
    max_voltage_v: float,
    v_cutoff_v: float,
    c_lo: float,
    c_hi: float,
    tol_rel: float,
) -> float | None:
    """Smallest capacitance of the geometric bracket ``[c_lo, c_hi]`` whose
    minimum voltage over ``played`` stays at or above ``v_cutoff_v``, to
    within ``tol_rel``.

    ``None`` when even ``c_hi`` dips below the cutoff, ``c_lo`` when it
    fits already; otherwise the answer is on the fitting side of the final
    bracket. Raises ``RuntimeError`` when ``c_hi`` sags lower than ``c_lo``.
    The caller checks ``0 < c_lo < c_hi``, both finite, and a finite
    ``tol_rel > 0``: bisection never narrows any other bracket.

    The bracket ends are probed by ``min_voltage_over_played``, which
    rejects a negative ``v0``. Every
    midpoint then plays the cycle with that function's step, bit for bit,
    and stops at the first voltage below the cutoff. That is the same
    decision as comparing the minimum: once ``c_hi`` fits, the clamped
    start voltage is at or above the cutoff, so only a step can fall short.
    """
    v_hi = min_voltage_over_played(v0, played, c_hi, max_voltage_v)
    v_lo = min_voltage_over_played(v0, played, c_lo, max_voltage_v)
    # Larger capacitors sag less; check that on the bracket before trusting
    # bisection with it.
    if v_hi < v_lo:
        raise RuntimeError("minimum cycle voltage is not monotone in capacitance")
    if v_hi < v_cutoff_v:
        return None
    if v_lo >= v_cutoff_v:
        return c_lo
    v_start = _clamp(v0, max_voltage_v)
    exp, expm1 = math.exp, math.expm1
    lo, hi = c_lo, c_hi
    while hi / lo > 1.0 + tol_rel:
        mid = math.sqrt(lo * hi)
        v = v_start
        for duration_s, g, v_inf in played:
            x = -duration_s / (mid / g)
            v = v_inf * -expm1(x) + v * exp(x)
            if v > max_voltage_v:
                v = max_voltage_v
            if v < v_cutoff_v:
                lo = mid
                break
        else:
            hi = mid
    return hi


# A crossing voltage closer to its threshold than one clock tick's move, and
# never closer than this, is snapped onto it when the hysteresis flag flips,
# so crossings land exactly on the configured level.
_SNAP_TOLERANCE_V = 1e-9


def _ticks_until(t_cross_s: float) -> int | None:
    """Clock ticks to a crossing ``t_cross_s`` ahead: the nearest, at least 1.

    None when the count is not a finite float. Such a crossing lies past the
    end of any run, whose ticks a float counts; a NaN comes from an infinite
    time constant, a trajectory that holds.
    """
    ticks = t_cross_s * NS_PER_S
    return max(1, round(ticks)) if ticks < math.inf else None


def step_coefficients(
    elapsed_ns: int, segment: tuple[float, float] | None
) -> tuple[float, float]:
    """``(a, b)`` of a ``Capacitor.update`` step of ``elapsed_ns`` along the
    trajectory ``segment``: a voltage ``v`` steps to ``a + v * b``, then is
    clamped at ``max_voltage_v``. A held voltage, ``segment`` None, is
    ``(0.0, 1.0)``.

    ``a = v_inf * -expm1(x)`` is ``>= 0`` (``v_inf >= 0``, ``x <= 0``) and
    ``b = exp(x)`` is in ``[0, 1]``, so a step from a voltage ``>= 0``, as
    every voltage is, never falls below 0: no step clamps at the bottom.

    The step is ``propagate_voltage``'s, bit for bit: CPython fuses no
    multiply-add, and the sum's two terms commute exactly.
    """
    if segment is None:
        return 0.0, 1.0
    x = -(elapsed_ns / NS_PER_S) / segment[1]
    return segment[0] * -math.expm1(x), math.exp(x)


def crossing_tick(
    v: float,
    t0_ns: int,
    depleted: bool,
    segment: tuple[float, float] | None,
    params: CapacitorParams,
) -> int | None:
    """The clock tick at which the trajectory ``segment``, from ``v`` at
    ``t0_ns``, reaches the threshold a capacitor ``depleted`` or not watches,
    rounded to the nearest tick and at least one tick on; None when it never
    does. A held voltage, or one moving away from the threshold, never does.
    """
    if segment is None:
        return None
    v_inf, tau = segment
    target = params.v_th_high_v if depleted else params.v_th_low_v
    if (v_inf > target) != depleted:
        return None
    t_cross = _crossing_s(v, target, v_inf, tau, params.max_voltage_v)
    ticks = None if t_cross is None else _ticks_until(t_cross)
    return None if ticks is None else t0_ns + ticks


def crossing_voltage(
    v: float, segment: tuple[float, float], target: float
) -> float:
    """The voltage an update that reaches its crossing tick along ``segment``
    keeps: ``v``, or the threshold ``target`` when ``v`` lies within one
    tick's move of it there, and never closer than ``_SNAP_TOLERANCE_V``."""
    v_inf, tau = segment
    if abs(v - target) <= max(abs(v_inf - target) / tau * TICK_S, _SNAP_TOLERANCE_V):
        return target
    return v


class Capacitor:
    """Capacitor state machine with hysteresis.

    ``update`` propagates the voltage under the load and harvest conductances
    that were active since the previous update. Clock times are integer
    nanoseconds, so the elapsed time of a step depends on its length only,
    not on when it happens.

    A trajectory is known by its loads. A crossing's tick is solved once per
    trajectory: at the first ``update`` or ``next_crossing_ns`` under a load
    or harvest other than the one it was solved under, or the first after a
    flip, the active threshold's crossing time is solved from the voltage at
    the last update and rounded to the nearest clock tick. The update that
    reaches that tick flips ``depleted`` and returns the tick, not the
    update time; every other update returns None. Updates in between move
    the voltage but not the tick, so a crossing does not depend on how many
    events fell on the way.

    A step is ``step_coefficients``' along the trajectory's ``segment``, the
    one a replay takes, and a crossing ``crossing_time``'s.
    """

    def __init__(self, params: CapacitorParams) -> None:
        self.params = params
        # Read on every update and solve: faster from here than from the tuple.
        self._max_voltage_v = params.max_voltage_v
        self._rail_voltage_v = params.rail_voltage_v
        self._capacitance_f = params.capacitance_f
        self.voltage_v = min(params.initial_voltage_v, params.max_voltage_v)
        self.last_update_ns = 0
        self.depleted = self.voltage_v < params.v_th_low_v
        # The loads the crossing tick ``_cross_ns`` was solved under, None
        # before the first solve and after a flip; their ``_segment``; and
        # that tick, None when the threshold is never reached.
        self._g_load: float | None = None
        self._g_harv: float | None = None
        self._trajectory: tuple[float, float] | None = None
        self._cross_ns: int | None = None

    def _solve(self, g_load: float, g_harv: float) -> None:
        """Fix the crossing tick of the trajectory under ``g_load`` and
        ``g_harv``, which starts at the last update. A held voltage, or one
        moving away from the active threshold, never crosses it."""
        self._g_load = g_load
        self._g_harv = g_harv
        self._trajectory = segment = _segment(g_load, g_harv, self._rail_voltage_v, self._capacitance_f)
        self._cross_ns = crossing_tick(
            self.voltage_v, self.last_update_ns, self.depleted, segment, self.params
        )

    def update(self, now_ns: int, g_load: float, g_harv: float) -> int | None:
        """Advance to ``now_ns`` under ``g_load``; the crossing tick reached, or None."""
        last_ns = self.last_update_ns
        if now_ns <= last_ns:
            if now_ns < last_ns:
                raise ValueError(f"update at {now_ns} ns precedes last update at {last_ns} ns")
            return None
        if g_load != self._g_load or g_harv != self._g_harv:
            self._solve(g_load, g_harv)
        segment = self._trajectory
        a, b = step_coefficients(now_ns - last_ns, segment)
        v_new = a + self.voltage_v * b
        vmax = self._max_voltage_v
        if v_new > vmax:
            v_new = vmax
        self.voltage_v = v_new
        self.last_update_ns = now_ns
        cross_ns = self._cross_ns
        if cross_ns is None or now_ns < cross_ns:
            return None
        assert segment is not None
        target = self.params.v_th_high_v if self.depleted else self.params.v_th_low_v
        self.voltage_v = crossing_voltage(v_new, segment, target)
        self.depleted = not self.depleted
        self._g_load = None
        return cross_ns

    def next_crossing_ns(self, g_load: float, g_harv: float) -> int | None:
        """Clock ticks from the last update until the active threshold is
        crossed, at least one."""
        if g_load != self._g_load or g_harv != self._g_harv:
            self._solve(g_load, g_harv)
        cross_ns = self._cross_ns
        return None if cross_ns is None else cross_ns - self.last_update_ns

    def segment(self, g_load: float, g_harv: float) -> tuple[float, float] | None:
        """The ``_segment`` of the trajectory under ``g_load`` and ``g_harv``:
        the asymptote and time constant ``update`` steps along."""
        return _segment(g_load, g_harv, self._rail_voltage_v, self._capacitance_f)

    def shift(self, shift_ns: int) -> None:
        """Move the capacitor's clock, and its crossing tick, by ``shift_ns``."""
        self.last_update_ns += shift_ns
        if self._cross_ns is not None:
            self._cross_ns += shift_ns

    def replayed(self, voltage_v: float, cross_ns: int | None) -> None:
        """Take the voltage at the last update, and the crossing tick of the
        trajectory under way, that a replay reached by taking ``update``'s
        steps and its solves with ``crossing_tick``."""
        self.voltage_v = voltage_v
        self._cross_ns = cross_ns


class TraceRecord(NamedTuple):
    time_s: float
    voltage_v: float
    state: str


# One CSV row of a TraceRecord, and the rows formatted per write: a long
# trace is written in chunks of bounded size.
_CSV_ROW = "%.9f,%.9f,%s\n"
_CSV_CHUNK_ROWS = 4096

# ``"%.9f" % (t_ns / NS_PER_S)`` prints ``"%d.%09d" % divmod(t_ns, NS_PER_S)``
# for every clock time below _EXACT_NS: there half a float's spacing is below
# half a nanosecond, so the nearest nanosecond is ``t_ns``'s own. A whole
# second prints so while it is a float, below _EXACT_WHOLE_NS.
_EXACT_NS = 2**23 * NS_PER_S
_EXACT_WHOLE_NS = 2**53 * NS_PER_S


def _span_voltages(
    times_ns: range,
    t0_ns: int,
    v0: float,
    segment: tuple[float, float] | None,
    max_voltage_v: float,
) -> list[float]:
    """The voltage at each clock time in ``times_ns`` along the trajectory
    ``segment`` from ``v0`` at ``t0_ns``.

    Each voltage is ``propagate_voltage``'s, bit for bit: the same asymptote
    and time constant, the same combination and the same clamp.
    """
    if segment is None:
        return [_clamp(v0, max_voltage_v)] * len(times_ns)
    v_inf, tau = segment
    exp, expm1 = math.exp, math.expm1
    voltages = []
    append = voltages.append
    for t_ns in times_ns:
        x = -((t_ns - t0_ns) / NS_PER_S) / tau
        v = v_inf * -expm1(x) + v0 * exp(x)
        append(max_voltage_v if v > max_voltage_v else v)
    return voltages


def _span_text(times_ns: range, voltages: list[float], state: str) -> str:
    """The CSV rows, each ``_CSV_ROW``'s text, of a span's clock times with
    their voltages, formatted in one call.

    On whole-second steps every time has the same nanoseconds ``frac``, so
    where that text is its seconds and ``frac`` (see _EXACT_NS), the rows
    print from their seconds through one template.
    """
    start_s, frac = divmod(times_ns.start, NS_PER_S)
    step_s, step_frac = divmod(times_ns.step, NS_PER_S)
    last_ns = times_ns[-1]
    rows = len(times_ns)
    if step_frac == 0 and 0 <= times_ns.start and (
        last_ns < _EXACT_NS or frac == 0 and last_ns < _EXACT_WHOLE_NS
    ):
        template = f"%d.{frac:09d},%.9f,{state.replace('%', '%%')}\n"
        values: list = [None] * (2 * rows)
        values[::2] = range(start_s, last_ns // NS_PER_S + 1, step_s)
        values[1::2] = voltages
    else:
        template = _CSV_ROW
        values = [state] * (3 * rows)
        values[::3] = [t_ns / NS_PER_S for t_ns in times_ns]
        values[1::3] = voltages
    return (template * rows) % tuple(values)


class TraceRecorder:
    """Collects timestamped voltage samples and writes them as CSV.

    Rows are kept in order as pieces: a row from ``record``, or a span of
    grid samples along one trajectory from ``record_samples``, whose rows
    are computed only when they are read or written.
    """

    def __init__(self) -> None:
        self._pieces: list[tuple] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def record(self, time_s: float, voltage_v: float, state: str) -> None:
        self._pieces.append((time_s, voltage_v, state))
        self._count += 1

    def record_samples(
        self,
        times_ns: range,
        t0_ns: int,
        v0: float,
        segment: tuple[float, float] | None,
        max_voltage_v: float,
        state: str,
    ) -> None:
        """Record a row in ``state`` at each clock time in ``times_ns``: the
        voltage along the trajectory ``segment``, a ``Capacitor.segment``,
        from ``v0`` at ``t0_ns``, as ``propagate_voltage`` computes it.

        Raises ``ValueError``, as ``propagate_voltage`` does, for a time
        before ``t0_ns`` or a negative ``v0``; the times ascend, so one
        check covers all.
        """
        if times_ns and times_ns.start < t0_ns:
            raise ValueError(f"sample time {times_ns.start} ns is before {t0_ns} ns")
        if v0 < 0.0:
            raise ValueError(f"voltage must be >= 0, got {v0}")
        if times_ns:
            self._pieces.append((times_ns, t0_ns, v0, segment, max_voltage_v, state))
            self._count += len(times_ns)

    @property
    def records(self) -> list[TraceRecord]:
        """Every row, in order, as a new list of ``TraceRecord``."""
        records: list[TraceRecord] = []
        for piece in self._pieces:
            if len(piece) == 3:
                records.append(TraceRecord._make(piece))
            else:
                times_ns, *trajectory, state = piece
                times_s = [t_ns / NS_PER_S for t_ns in times_ns]
                voltages = _span_voltages(times_ns, *trajectory)
                records += map(TraceRecord, times_s, voltages, repeat(state))
        return records

    def write_csv(self, stream: IO[str]) -> None:
        """Write the header and every row, in order, in chunks of about
        ``_CSV_CHUNK_ROWS`` rows: a long span is computed a chunk at a time."""
        write = stream.write
        write("time_s,voltage_V,state\n")
        texts: list[str] = []
        rows = 0
        for piece in self._pieces:
            if len(piece) == 3:
                texts.append(_CSV_ROW % piece)
                rows += 1
            else:
                times_ns, *trajectory, state = piece
                for at in range(0, len(times_ns), _CSV_CHUNK_ROWS):
                    part = times_ns[at:at + _CSV_CHUNK_ROWS]
                    texts.append(_span_text(part, _span_voltages(part, *trajectory), state))
                    rows += len(part)
                    if rows >= _CSV_CHUNK_ROWS:
                        write("".join(texts))
                        texts, rows = [], 0
            if rows >= _CSV_CHUNK_ROWS:
                write("".join(texts))
                texts, rows = [], 0
        write("".join(texts))


# Every voltage is >= 0 (see step_coefficients), so only the top clamps.
def _clamp(v: float, max_voltage_v: float) -> float:
    if v > max_voltage_v:
        return max_voltage_v
    return v
