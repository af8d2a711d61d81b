"""Derived studies on top of the engine: analytic minimum-capacitance
solving for a single transmission cycle, grid tables, and seeded
success-probability sweeps with resumable CSV output."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .device import DlReply, post_tx_sequence
from .energy import (
    CapacitorParams,
    harvester_conductance,
    min_voltage_over_segments,
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
    run_scenario,
    success_probability,
)
from .errors import ConfigError
from .harvester import TraceExhaustedError
from .lorawan import DeviceState

CYCLE_KINDS = ("UL", "UL+DL")

DEFAULT_DATA_RATES = (0, 1, 2, 3, 4, 5)
DEFAULT_PAYLOADS_BYTES = (10, 20, 30, 40, 50)
DEFAULT_POWERS_W = (0.0001, 0.001, 0.01)

# Bisection defaults: the bracket spans microfarads to whole farads.
DEFAULT_C_LO_F = 1e-6
DEFAULT_C_HI_F = 10.0
DEFAULT_TOL_REL = 0.01


@dataclass(frozen=True)
class CycleSpec:
    """One transmission cycle reduced to (duration, load conductance) segments.

    The starting voltage is the steady level the capacitor settles at under
    the Off-state load, clamped at the maximum voltage, i.e. the best the
    device can have banked before it wakes up to transmit.
    """

    kind: str
    initial_voltage_v: float
    segments: tuple[tuple[float, float], ...]
    g_harv: float


def cycle_states(config: ScenarioConfig, kind: str) -> list[tuple[DeviceState, float]]:
    """Device states making up one cycle of the given kind.

    ``UL`` is the uplink alone; ``UL+DL`` carries on through the reply
    received in the first window, ending when its reception completes.
    """
    params = lorawan_params(config)
    states = [(DeviceState.TX, params.ul_time_on_air())]
    if kind == "UL+DL":
        states.extend(post_tx_sequence(params, DlReply.IN_RX1)[:-1])
    elif kind != "UL":
        raise ValueError(f"unknown cycle kind {kind!r}")
    return states


def cycle_spec(
    config: ScenarioConfig, kind: str, power_w: float | None = None
) -> CycleSpec:
    """Build the analytic cycle description for ``kind`` at ``power_w``."""
    power = config.power_w if power_w is None else power_w
    g_harv = harvester_conductance(power, config.rail_voltage_v)
    g_load = config.load_conductances()
    # Settled after unbounded time; with both sides open the voltage holds.
    v0 = propagate_voltage(
        config.initial_voltage_v,
        math.inf,
        g_load[DeviceState.OFF],
        g_harv,
        capacitor_params(config),
    )
    segments = tuple(
        (duration, g_load[state]) for state, duration in cycle_states(config, kind)
    )
    return CycleSpec(kind=kind, initial_voltage_v=v0, segments=segments, g_harv=g_harv)


def min_voltage_over_cycle(
    capacitance_f: float, spec: CycleSpec, config: ScenarioConfig
) -> float:
    """Lowest voltage reached while playing the cycle with this capacitor."""
    params = CapacitorParams(
        capacitance_f=capacitance_f,
        rail_voltage_v=config.rail_voltage_v,
        max_voltage_v=config.max_voltage_v,
        v_th_low_v=config.v_th_low_v,
        v_th_high_v=config.v_th_high_v,
        initial_voltage_v=config.initial_voltage_v,
    )
    return min_voltage_over_segments(
        spec.initial_voltage_v, spec.segments, spec.g_harv, params
    )


def min_capacitance(
    config: ScenarioConfig,
    kind: str,
    power_w: float | None = None,
    *,
    c_lo: float = DEFAULT_C_LO_F,
    c_hi: float = DEFAULT_C_HI_F,
    tol_rel: float = DEFAULT_TOL_REL,
) -> float | None:
    """Smallest capacitance that completes one cycle without depleting.

    Returns ``None`` when even ``c_hi`` cannot keep the voltage above the
    cutoff (typically: the harvest is too weak to bank a workable starting
    voltage). The answer is on the feasible side of the final bracket, within
    ``tol_rel`` of the true boundary.

    Each bracket end is probed once; a bisection then adds
    ``ceil(log2(ln(c_hi / c_lo) / ln(1 + tol_rel)))`` midpoint probes.
    Raises ``RuntimeError`` when ``c_hi`` sags lower than ``c_lo``.
    """
    spec = cycle_spec(config, kind, power_w)
    v_low = config.v_th_low_v
    v_hi = min_voltage_over_cycle(c_hi, spec, config)
    v_lo = min_voltage_over_cycle(c_lo, spec, config)
    # Larger capacitors sag less; check that on the bracket before trusting
    # bisection with it.
    if v_hi < v_lo:
        raise RuntimeError("minimum cycle voltage is not monotone in capacitance")
    if v_hi < v_low:
        return None
    if v_lo >= v_low:
        return c_lo
    return _bisect(
        c_lo, c_hi, lambda c: min_voltage_over_cycle(c, spec, config) >= v_low, tol_rel
    )


def _bisect(
    lo: float, hi: float, fits: Callable[[float], bool], tol_rel: float
) -> float:
    """Smallest fitting value of a geometric bracket, to within ``tol_rel``.

    ``fits(lo)`` is false and ``fits(hi)`` true; only midpoints are probed.
    The answer is on the fitting side of the final bracket.
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
    state as the starting voltage, the packet at t = 0, no energy guard.
    """
    spec = cycle_spec(config, kind, power_w)
    duration = sum(duration for duration, _ in spec.segments) + config.rx2_delay_s + 3.0
    power = config.power_w if power_w is None else power_w
    cfg = replace(
        config,
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


@dataclass(frozen=True)
class MinCapacitanceRow:
    data_rate: int
    payload_bytes: int
    power_w: float
    kind: str
    capacitance_f: float | None

    def csv(self) -> str:
        cell = (
            INFEASIBLE_MARKER
            if self.capacitance_f is None
            else f"{self.capacitance_f:.6g}"
        )
        return (
            f"{self.data_rate},{self.payload_bytes},{self.power_w:.9g},"
            f"{self.kind},{cell}"
        )


def mincap_table(
    config: ScenarioConfig,
    *,
    data_rates: Sequence[int] = DEFAULT_DATA_RATES,
    payloads_bytes: Sequence[int] = DEFAULT_PAYLOADS_BYTES,
    powers_w: Sequence[float] = DEFAULT_POWERS_W,
    kinds: Sequence[str] = CYCLE_KINDS,
    dl_payload_bytes: int = 39,
    tol_rel: float = DEFAULT_TOL_REL,
) -> list[MinCapacitanceRow]:
    """Minimum-capacitance grid over data rate, payload, harvest power, kind.

    The downlink in UL+DL cycles carries ``dl_payload_bytes`` of application
    payload; uplink-only cycles ignore it. Every row is sized at a constant
    harvest, so the base scenario must use the constant harvester. Every
    row's scenario is checked before any is sized; a problem raises
    ``ConfigError``.
    """
    if config.harvester != "constant":
        raise ConfigError(
            [f"mincap needs harvester kind constant, got {config.harvester}"]
        )
    base = replace(config, dl_payload_bytes=dl_payload_bytes)
    # A row's scenario is the base with its data rate, payload and power set,
    # and no check couples two of these axes: checking each axis value on the
    # base checks every row, without building the whole grid.
    check_scenarios(
        [replace(base, data_rate=dr) for dr in data_rates]
        + [replace(base, ul_payload_bytes=payload) for payload in payloads_bytes]
        + [replace(base, power_w=power) for power in powers_w]
    )
    rows = []
    for dr in data_rates:
        for payload in payloads_bytes:
            cfg = replace(base, data_rate=dr, ul_payload_bytes=payload)
            for power in powers_w:
                for kind in kinds:
                    c_min = min_capacitance(cfg, kind, power, tol_rel=tol_rel)
                    rows.append(
                        MinCapacitanceRow(dr, payload, power, kind, c_min)
                    )
    return rows


@dataclass(frozen=True)
class SweepGrid:
    """Axis values for a sweep; an empty axis keeps the base scenario's value."""

    capacitances_f: tuple[float, ...] = ()
    powers_w: tuple[float, ...] = ()
    data_rates: tuple[int, ...] = ()
    payloads_bytes: tuple[int, ...] = ()
    periods_s: tuple[float, ...] = ()
    kinds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        problems = []
        if any(c <= 0 for c in self.capacitances_f):
            problems.append("sweep capacitances must be positive")
        if any(p < 0 for p in self.powers_w):
            problems.append("sweep powers must be non-negative")
        if any(t <= 0 for t in self.periods_s):
            problems.append("sweep periods must be positive")
        if any(k not in CYCLE_KINDS for k in self.kinds):
            problems.append(f"sweep kinds must be among {CYCLE_KINDS}")
        if problems:
            raise ConfigError(problems)


def expand_grid(grid: SweepGrid, base: ScenarioConfig) -> list[ScenarioConfig]:
    """One ScenarioConfig per grid point, the base's other fields kept.

    Every point keeps the base harvester, so a ``powers_w`` axis needs the
    constant one: it is the only harvester that ``power_w`` drives.
    """
    if grid.powers_w and base.harvester != "constant":
        raise ConfigError(
            [f"sweep.power_w needs harvester kind constant, got {base.harvester}"]
        )
    kinds = grid.kinds or (("UL+DL",) if base.confirmed else ("UL",))
    configs = []
    for kind in kinds:
        for dr in grid.data_rates or (base.data_rate,):
            for payload in grid.payloads_bytes or (base.ul_payload_bytes,):
                for power in grid.powers_w or (base.power_w,):
                    for period in grid.periods_s or (base.packet_period_s,):
                        for cap in grid.capacitances_f or (base.capacitance_f,):
                            configs.append(
                                replace(
                                    base,
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
        cfg = replace(base, capacitance_f=cap, confirmed=kind == "UL+DL")
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
    cuts a run short.
    """

    def success(cap: float) -> float:
        cfg = replace(base, capacitance_f=cap, confirmed=kind == "UL+DL")
        return success_probability(_run_complete(cfg), kind)

    if success(c_hi) < target:
        return None
    if success(c_lo) >= target:
        return c_lo
    return _bisect(c_lo, c_hi, lambda c: success(c) >= target, tol_rel)


def peak_success_capacitance(
    base: ScenarioConfig, capacitances_f: Sequence[float], kind: str
) -> tuple[float, float]:
    """Smallest capacitance attaining the best success seen on the grid."""
    best_cap = None
    best_p = -1.0
    for cap, p in success_curve(base, capacitances_f, kind):
        if p > best_p + 1e-12:
            best_cap, best_p = cap, p
    assert best_cap is not None
    return best_cap, best_p
