"""Derived studies on top of the engine: analytic minimum-capacitance
solving for a single transmission cycle, grid tables, and seeded
success-probability sweeps with resumable CSV output."""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .device import DlReply, cycle_states
from .energy import (
    CapacitorParams,
    harvester_conductance,
    min_capacitance_over_played,
    min_voltage_over_played,
    played_segments,
    propagate_voltage,
)
from .engine import (
    RESULTS_HEADER,
    Metrics,
    ScenarioConfig,
    capacitor_params,
    check_scenarios,
    lorawan_params,
    results_key,
    results_row,
    # Called by this module global's name: bench/workloads.py's
    # SizingBrownout.first_pass replaces it to count the engine's probes.
    run_scenario,
    success_probability,
)
from .errors import ConfigError
from .harvester import TraceExhaustedError
from .lorawan import DeviceState, LorawanParams, time_on_air

# The cycle each kind sizes: ``UL`` the uplink alone, ``UL+DL`` on through
# the reply received in the first window, until its reception completes.
_KIND_REPLIES = {"UL": None, "UL+DL": DlReply.IN_RX1}
CYCLE_KINDS = tuple(_KIND_REPLIES)

DEFAULT_DATA_RATES = (0, 1, 2, 3, 4, 5)
DEFAULT_PAYLOADS_BYTES = (10, 20, 30, 40, 50)
DEFAULT_POWERS_W = (0.0001, 0.001, 0.01)

# Bisection defaults: the bracket spans microfarads to whole farads.
DEFAULT_C_LO_F = 1e-6
DEFAULT_C_HI_F = 10.0
DEFAULT_TOL_REL = 0.01
# Application payload of the downlink in a mincap UL+DL cycle.
DEFAULT_DL_PAYLOAD_BYTES = 39


class _CycleSpecFields(NamedTuple):
    kind: str
    initial_voltage_v: float
    segments: tuple[tuple[float, float], ...]
    g_harv: float
    rail_voltage_v: float
    played: tuple[tuple[float, float, float], ...]


class CycleSpec(_CycleSpecFields):
    """One transmission cycle reduced to (duration, load conductance) segments.

    The starting voltage is the steady level the capacitor settles at under
    the Off-state load, clamped at the maximum voltage, i.e. the best the
    device can have banked before it wakes up to transmit. ``played`` holds
    the segments' capacitance-free coefficients (``played_segments``), so a
    probe at one capacitance only runs the closed-form loop.

    An immutable named tuple built from its first five fields: ``played`` is
    derived from them, again by ``_replace``.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        initial_voltage_v: float,
        segments: tuple[tuple[float, float], ...],
        g_harv: float,
        rail_voltage_v: float,
    ) -> CycleSpec:
        played = played_segments(segments, g_harv, rail_voltage_v)
        return super().__new__(cls, kind, initial_voltage_v, segments, g_harv, rail_voltage_v, played)

    # ``_replace`` builds its copy through ``_make``, which plays it again;
    # ``copy`` and ``pickle`` call ``__new__`` with ``__getnewargs__``.
    _make = classmethod(lambda cls, values: cls(*tuple(values)[:-1]))

    def __getnewargs__(self) -> tuple:
        return self[:-1]


def _cycle_shape(
    radio: LorawanParams, g_load: dict[DeviceState, float], kind: str
) -> tuple[tuple[float, float], ...]:
    """The power-independent part of a cycle: its (duration, G_L) segments,
    the uplink's first."""
    if kind not in _KIND_REPLIES:
        raise ValueError(f"unknown cycle kind {kind!r}")
    states = cycle_states(radio, _KIND_REPLIES[kind])
    return tuple((duration, g_load[state]) for state, duration in states)


def _banked(
    config: ScenarioConfig, power_w: float, params: CapacitorParams, g_off: float
) -> tuple[float, float]:
    """Harvester conductance at ``power_w`` and the voltage banked under it
    with the Off-state load ``g_off``."""
    g_harv = harvester_conductance(power_w, config.rail_voltage_v)
    # Settled after unbounded time; with both sides open the voltage holds.
    v0 = propagate_voltage(config.initial_voltage_v, math.inf, g_off, g_harv, params)
    return g_harv, v0


def _require_constant(config: ScenarioConfig, what: str) -> None:
    """Raise ``ConfigError`` unless ``config``'s harvester is constant, the
    only one that harvests its ``power_w``, at which ``what`` sizes or runs."""
    if config.harvester != "constant":
        raise ConfigError([f"{what} needs harvester kind constant, got {config.harvester}"])


# bench/workloads.py's MincapGrid.check also calls this, with
# min_voltage_over_cycle, on every row of its first, checked pass.
def cycle_spec(
    config: ScenarioConfig, kind: str, power_w: float | None = None
) -> CycleSpec:
    """Build the analytic cycle description for ``kind`` at ``power_w``, or
    at the scenario's own, which needs a constant harvester (``ConfigError``)."""
    if power_w is None:
        _require_constant(config, "sizing at the scenario's power_w")
        power_w = config.power_w
    g_load = config.load_conductances()
    g_harv, v0 = _banked(
        config, power_w, capacitor_params(config), g_load[DeviceState.OFF]
    )
    shape = _cycle_shape(lorawan_params(config), g_load, kind)
    return CycleSpec(kind, v0, shape, g_harv, config.rail_voltage_v)


# No caplora path calls this; bench/workloads.py's MincapGrid.check does.
def min_voltage_over_cycle(
    capacitance_f: float, spec: CycleSpec, config: ScenarioConfig
) -> float:
    """Lowest voltage reached while playing the cycle with this capacitor."""
    return min_voltage_over_played(
        spec.initial_voltage_v, spec.played, capacitance_f, config.max_voltage_v
    )


def min_capacitance(
    config: ScenarioConfig, kind: str, power_w: float | None = None
) -> float | None:
    """Smallest capacitance that completes one cycle without depleting,
    sized as ``mincap_csv`` sizes a row: bisected between ``DEFAULT_C_LO_F``
    and ``DEFAULT_C_HI_F`` to within ``DEFAULT_TOL_REL``, on the feasible side
    of the final bracket. Sized at ``cycle_spec``'s power.

    Returns ``None`` when even ``DEFAULT_C_HI_F`` cannot keep the voltage
    above the cutoff (typically: the harvest is too weak to bank a workable
    starting voltage). Raises ``RuntimeError`` when ``DEFAULT_C_HI_F`` sags
    lower than ``DEFAULT_C_LO_F``.
    """
    spec = cycle_spec(config, kind, power_w)
    return min_capacitance_over_played(
        spec.initial_voltage_v,
        spec.played,
        config.max_voltage_v,
        config.v_th_low_v,
        DEFAULT_C_LO_F,
        DEFAULT_C_HI_F,
        DEFAULT_TOL_REL,
    )


def _check_bracket(c_lo: float, c_hi: float, tol_rel: float) -> None:
    """Reject a bracket that bisection could never narrow to ``tol_rel``."""
    if not (0.0 < c_lo < c_hi < math.inf and 0.0 < tol_rel < math.inf):
        raise ValueError(
            "bisection needs 0 < c_lo < c_hi, both finite, and a finite"
            f" tol_rel > 0; got c_lo={c_lo}, c_hi={c_hi}, tol_rel={tol_rel}"
        )


def _bisect(
    lo: float, hi: float, fits: Callable[[float], bool], tol_rel: float
) -> float:
    """Smallest fitting value of a geometric bracket, to within ``tol_rel``.

    ``fits(lo)`` is false and ``fits(hi)`` true; only midpoints are probed.
    The answer is on the fitting side of the final bracket, which
    ``_check_bracket`` must have accepted.
    """
    while hi / lo > 1.0 + tol_rel:
        mid = math.sqrt(lo * hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def engine_cycle_feasible(
    config: ScenarioConfig,
    kind: str,
    capacitance_f: float,
    power_w: float | None = None,
) -> bool:
    """Check a single cycle by brute force: simulate it and see if it completes.

    The run mirrors the analytic setting: constant harvest, the Off steady
    state as the starting voltage, the packet at t = 0, no energy guard, at
    ``cycle_spec``'s power.
    """
    spec = cycle_spec(config, kind, power_w)
    duration = sum(duration for duration, _ in spec.segments) + config.rx2_delay_s + 3.0
    power = config.power_w if power_w is None else power_w
    cfg = config._replace(
        capacitance_f=capacitance_f,
        harvester="constant",
        power_w=power,
        confirmed=kind == "UL+DL",
        initial_voltage_v=spec.initial_voltage_v,
        first_packet_s=0.0,
        packet_period_s=duration + 60.0,
        duration_s=duration,
        guard_enabled=False,
        generate_while_off=True,
        trace=False,
    )
    metrics = run_scenario(cfg)
    if kind == "UL+DL":
        return metrics.acked >= 1
    return metrics.delivered_ul >= 1


MINCAP_HEADER = "dr,payload_bytes,P_harvest_W,kind,min_C_farads"

INFEASIBLE_MARKER = "infeasible"


def mincap_csv(
    config: ScenarioConfig,
    *,
    data_rates: Sequence[int] = DEFAULT_DATA_RATES,
    payloads_bytes: Sequence[int] = DEFAULT_PAYLOADS_BYTES,
    powers_w: Sequence[float] = DEFAULT_POWERS_W,
    kinds: Sequence[str] = CYCLE_KINDS,
) -> str:
    """The text of ``min_capacitance.csv``: the ``MINCAP_HEADER`` line, then
    a ``dr,payload,power,kind,cell`` line per row of the grid, in order, the
    power printed ``.9g`` and the cell ``min_capacitance``'s answer for the
    row, with a ``DEFAULT_DL_PAYLOAD_BYTES`` downlink, printed ``.6g`` or
    ``INFEASIBLE_MARKER``. Rows are sized at a constant harvest, which the
    base scenario must use; every row's scenario is checked before any is
    sized, and a problem raises ``ConfigError``."""
    _require_constant(config, "mincap")
    if any(kind not in _KIND_REPLIES for kind in kinds):
        raise ConfigError([f"mincap kinds must be among {CYCLE_KINDS}"])
    base = config._replace(dl_payload_bytes=DEFAULT_DL_PAYLOAD_BYTES)
    # A row's scenario is the base with its data rate, payload and power set,
    # and no check couples two of these axes: checking each axis value on the
    # base checks every row, without building the whole grid.
    check_scenarios(
        [base._replace(data_rate=dr) for dr in data_rates]
        + [base._replace(ul_payload_bytes=payload) for payload in payloads_bytes]
        + [base._replace(power_w=power) for power in powers_w]
    )
    # Every row shares the capacitor, and the voltage banked at a power is
    # the same for every row at that power; the cycle's shape depends on the
    # data rate, payload and kind only.
    params = capacitor_params(base)
    g_load = base.load_conductances()
    banked = [
        _banked(base, power, params, g_load[DeviceState.OFF]) for power in powers_w
    ]
    radio = lorawan_params(base)
    rail = base.rail_voltage_v
    g_tx = g_load[DeviceState.TX]
    bracket = (base.max_voltage_v, base.v_th_low_v, DEFAULT_C_LO_F, DEFAULT_C_HI_F, DEFAULT_TOL_REL)
    power_texts = [f"{power:.9g}" for power in powers_w]
    lines = [MINCAP_HEADER]
    for dr in data_rates:
        dr_radio = radio._replace(data_rate=dr)
        # A cycle is its uplink, then a tail that depends on the data rate
        # and kind only: each tail is built once and played once per power,
        # and joined to a row's played uplink it is the whole cycle played,
        # as played_segments plays each segment on its own.
        tails = []
        for kind in kinds:
            shape = _cycle_shape(dr_radio, g_load, kind)[1:]
            tails.append([played_segments(shape, g, rail) for g, _ in banked])
        # LoRa codes a payload in blocks of symbols, so payloads a few bytes
        # apart have one uplink airtime, and a cycle depends on the payload
        # only through that airtime: each distinct airtime's cycles are
        # sized once, at every power, and their cells formatted once, then
        # joined to each payload's ``dr,payload,`` prefix.
        blocks: dict[float, list[str]] = {}
        for payload in payloads_bytes:
            ul_s = time_on_air(
                payload + dr_radio.mac_overhead_bytes, dr_radio.sf, dr_radio.bandwidth_hz
            )
            block = blocks.get(ul_s)
            if block is None:
                heads = [played_segments(((ul_s, g_tx),), g, rail) for g, _ in banked]
                answers = [
                    [
                        min_capacitance_over_played(v0, head + tail, *bracket)
                        for (_, v0), head, tail in zip(banked, heads, kind_tails)
                    ]
                    for kind_tails in tails
                ]
                block = blocks[ul_s] = [
                    f"{text},{kind},{INFEASIBLE_MARKER if c_mins[i] is None else f'{c_mins[i]:.6g}'}"
                    for i, text in enumerate(power_texts)
                    for kind, c_mins in zip(kinds, answers)
                ]
            if block:
                prefix = f"{dr},{payload},"
                lines.append(prefix + ("\n" + prefix).join(block))
    lines.append("")
    return "\n".join(lines)


class _SweepAxes(NamedTuple):
    capacitances_f: tuple[float, ...] = ()
    powers_w: tuple[float, ...] = ()
    data_rates: tuple[int, ...] = ()
    payloads_bytes: tuple[int, ...] = ()
    periods_s: tuple[float, ...] = ()
    kinds: tuple[str, ...] = ()


class SweepGrid(_SweepAxes):
    """Axis values for a sweep; an empty axis keeps the base scenario's value.

    An immutable named tuple; ``_replace`` derives a changed copy, checked
    as a new one is.
    """

    __slots__ = ()

    def __new__(cls, *args: tuple, **kwargs: tuple) -> SweepGrid:
        self = super().__new__(cls, *args, **kwargs)
        problems = []
        if any(c <= 0 for c in self.capacitances_f):
            problems.append("sweep capacitances must be positive")
        if any(p < 0 for p in self.powers_w):
            problems.append("sweep powers must be non-negative")
        if any(t <= 0 for t in self.periods_s):
            problems.append("sweep periods must be positive")
        if any(k not in CYCLE_KINDS for k in self.kinds):
            problems.append(f"sweep kinds must be among {CYCLE_KINDS}")
        # A repeated value would run, or size, one grid point twice.
        axes = {
            "capacitances": self.capacitances_f,
            "powers": self.powers_w,
            "data rates": self.data_rates,
            "payloads": self.payloads_bytes,
            "periods": self.periods_s,
            "kinds": self.kinds,
        }
        for label, values in axes.items():
            repeated = dict.fromkeys(v for v in values if values.count(v) > 1)
            if repeated:
                problems.append(
                    f"sweep {label} repeat a value: {', '.join(map(str, repeated))}"
                )
        # Rows and results keys print these axes with .9g: two distinct
        # values that print alike would share one key. A non-finite value is
        # reported with the scenario's problems.
        for label in ("capacitances", "powers", "periods"):
            printed = [f"{v:.9g}" for v in set(axes[label]) if math.isfinite(v)]
            alike = sorted({p for p in printed if printed.count(p) > 1})
            if alike:
                problems.append(
                    f"sweep {label} hold distinct values that print alike: {', '.join(alike)}"
                )
        if problems:
            raise ConfigError(problems)
        return self

    # ``_replace`` builds its copy through ``_make``: checked here, by ``__new__``.
    _make = classmethod(lambda cls, values: cls(*values))


def expand_grid(grid: SweepGrid, base: ScenarioConfig) -> list[ScenarioConfig]:
    """One ScenarioConfig per grid point, the base's other fields kept.

    Every point keeps the base harvester, so a ``powers_w`` axis needs the
    constant one: it is the only harvester that ``power_w`` drives.
    """
    if grid.powers_w:
        _require_constant(base, "sweep.power_w")
    kinds = grid.kinds or (("UL+DL",) if base.confirmed else ("UL",))
    configs = []
    for kind in kinds:
        for dr in grid.data_rates or (base.data_rate,):
            for payload in grid.payloads_bytes or (base.ul_payload_bytes,):
                for power in grid.powers_w or (base.power_w,):
                    for period in grid.periods_s or (base.packet_period_s,):
                        for cap in grid.capacitances_f or (base.capacitance_f,):
                            configs.append(
                                base._replace(
                                    capacitance_f=cap,
                                    power_w=power,
                                    data_rate=dr,
                                    ul_payload_bytes=payload,
                                    packet_period_s=period,
                                    confirmed=kind == "UL+DL",
                                )
                            )
    return configs


def _run_complete(config: ScenarioConfig) -> Metrics:
    """Run one scenario; a run its harvest trace cut short raises."""
    metrics = run_scenario(config)
    if not metrics.valid:
        raise TraceExhaustedError("harvest trace exhausted before duration_s")
    return metrics


def run_sweep(
    configs: Iterable[ScenarioConfig],
    path: str | Path,
    *,
    resume: bool = True,
    on_error: Callable[[str, Exception], None] | None = None,
) -> list[str]:
    """Run every config and append its results row to ``path``.

    With ``resume`` the rows already present (matched by grid coordinates)
    are kept and their runs skipped, so an interrupted sweep can pick up
    where it stopped. Only a newline-terminated row with the full field
    count counts as done; an unterminated last row, cut off mid-write, is
    removed so its point runs again. Failed runs are reported through
    ``on_error`` and do not write a row, leaving them eligible for a later
    resume; a run that its harvest trace cut short counts as failed.
    """
    path = Path(path)
    n_fields = RESULTS_HEADER.count(",") + 1
    n_key_fields = results_key(ScenarioConfig()).count(",") + 1
    done: dict[str, str] = {}
    data = path.read_bytes() if resume and path.exists() else b""
    complete = data[: data.rfind(b"\n") + 1]
    if not complete:
        path.write_text(RESULTS_HEADER + "\n")
    elif len(complete) < len(data):
        os.truncate(path, len(complete))
    for line in complete.decode().splitlines():
        if line != RESULTS_HEADER and line.count(",") + 1 == n_fields:
            done[",".join(line.split(",")[:n_key_fields])] = line
    rows = []
    with path.open("a") as out:
        for config in configs:
            key = results_key(config)
            if key in done:
                rows.append(done[key])
                continue
            try:
                metrics = _run_complete(config)
            except Exception as exc:  # noqa: BLE001 - sweep must keep going
                if on_error is not None:
                    on_error(key, exc)
                continue
            row = results_row(config, metrics)
            out.write(row + "\n")
            out.flush()
            done[key] = row
            rows.append(row)
    return rows


def success_curve(
    base: ScenarioConfig, capacitances_f: Sequence[float], kind: str
) -> list[tuple[float, float]]:
    """Success probability at each capacitance, ascending.

    Raises ``TraceExhaustedError`` when a harvest trace cuts a run short.
    """
    curve = []
    for cap in sorted(capacitances_f):
        cfg = base._replace(capacitance_f=cap, confirmed=kind == "UL+DL")
        metrics = _run_complete(cfg)
        curve.append((cap, success_probability(metrics, kind)))
    return curve


def min_capacitance_for_target(
    base: ScenarioConfig,
    kind: str,
    *,
    target: float = 0.99,
    c_lo: float = 1e-4,
    c_hi: float = 1.0,
    tol_rel: float = 0.02,
) -> float | None:
    """Smallest capacitance whose simulated success reaches ``target``.

    Engine-driven bisection between ``c_lo`` and ``c_hi``; ``None`` when even
    ``c_hi`` falls short. Raises ``TraceExhaustedError`` when a harvest trace
    cuts a run short, and ``ValueError`` unless ``0 < c_lo < c_hi``, both
    finite, and ``tol_rel`` is finite and positive.
    """
    _check_bracket(c_lo, c_hi, tol_rel)

    def success(cap: float) -> float:
        cfg = base._replace(capacitance_f=cap, confirmed=kind == "UL+DL")
        return success_probability(_run_complete(cfg), kind)

    if success(c_hi) < target:
        return None
    if success(c_lo) >= target:
        return c_lo
    return _bisect(c_lo, c_hi, lambda c: success(c) >= target, tol_rel)


def peak_success_capacitance(
    base: ScenarioConfig, capacitances_f: Sequence[float], kind: str
) -> tuple[float, float]:
    """Smallest capacitance attaining the best success seen on the grid,
    which must not be empty (``ValueError``)."""
    if not capacitances_f:
        raise ValueError("the capacitance grid is empty")
    best_cap = best_p = -1.0
    for cap, p in success_curve(base, capacitances_f, kind):
        if p > best_p + 1e-12:
            best_cap, best_p = cap, p
    return best_cap, best_p
