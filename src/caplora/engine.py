"""Discrete-event simulation core.

Time advances on an integer nanosecond clock through a binary heap of
events, and every event is a state change: a packet, a radio transition, a
harvest change or a threshold crossing. Nothing is scheduled just to let
time pass, because the capacitor voltage is known in closed form between
events. The capacitor is brought up to date at the top of every dispatch,
so threshold crossings are detected before any event logic runs. The
crossing time predicted in closed form gets one wake-up event, re-armed
only when the trajectory changes. Trace samples on the
``update_interval_s`` grid are computed in closed form between events and
never touch the heap or the capacitor.

Each device state's load current becomes a conductance once, when the
simulator is built (``ScenarioConfig.load_conductances``); the capacitor,
the trace samples and the energy guard look that conductance up by state.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Iterable

from .device import NS_PER_S, TICK_S, CycleRecord, Gateway, LorawanDevice
from .energy import (
    Capacitor,
    CapacitorParams,
    TraceRecorder,
    harvester_conductance,
    load_conductance,
    propagate_voltage,
)
from .errors import ConfigError
from .harvester import (
    ConstantHarvester,
    HarvestSource,
    RandomHarvester,
    TraceExhaustedError,
    load_trace,
)
from .lorawan import DEFAULT_CURRENTS_A, DeviceState, LorawanParams

HARVESTER_KINDS = ("constant", "trace", "random")
GUARD_HORIZONS = ("tx", "cycle")

# The scenario field holding each device state's current: TURN_ON -> turn_on_a.
_CURRENT_FIELDS = {state: f"{state.name.lower()}_a" for state in DeviceState}


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run."""

    # storage
    capacitance_f: float = 0.01
    rail_voltage_v: float = 3.3
    max_voltage_v: float = 3.3
    v_th_low_v: float = 1.8
    v_th_high_v: float = 3.0
    initial_voltage_v: float = 3.3
    update_interval_s: float = 1.0
    # harvesting
    harvester: str = "constant"
    power_w: float = 0.001
    trace_file: str | None = None
    distribution: str = "uniform"
    low_w: float = 0.0
    high_w: float = 0.002
    mean_w: float = 0.001
    harvest_update_period_s: float = 1.0
    # radio
    data_rate: int = 3
    bandwidth_hz: float = 125_000.0
    confirmed: bool = False
    ul_payload_bytes: int = 10
    dl_payload_bytes: int = 0
    mac_overhead_bytes: int = 13
    rx1_delay_s: float = 1.0
    rx2_delay_s: float = 2.0
    rx_window_symbols: int = 8
    rx2_window_symbols: int | None = None
    turn_on_s: float = 0.3
    standby_brief_s: float = 0.01
    max_transmissions: int = 1
    ul_duty_cycle: float = 0.01
    dl_duty_cycle: float = 0.10
    # consumption per device state
    off_a: float = DEFAULT_CURRENTS_A[DeviceState.OFF]
    turn_on_a: float = DEFAULT_CURRENTS_A[DeviceState.TURN_ON]
    sleep_a: float = DEFAULT_CURRENTS_A[DeviceState.SLEEP]
    tx_a: float = DEFAULT_CURRENTS_A[DeviceState.TX]
    idle_a: float = DEFAULT_CURRENTS_A[DeviceState.IDLE]
    standby_a: float = DEFAULT_CURRENTS_A[DeviceState.STANDBY]
    rx_a: float = DEFAULT_CURRENTS_A[DeviceState.RX]
    # traffic
    packet_period_s: float = 60.0
    first_packet_s: float | None = None
    generate_while_off: bool = True
    # run control
    duration_s: float = 3600.0
    seed: int = 1
    guard_enabled: bool = True
    guard_horizon: str = "tx"
    trace: bool = False

    def load_conductances(self) -> dict[DeviceState, float]:
        """Each device state's load conductance ``I / E`` at the rail voltage."""
        rail = self.rail_voltage_v
        return {
            state: load_conductance(getattr(self, name), rail)
            for state, name in _CURRENT_FIELDS.items()
        }


@dataclass(order=True)
class Event:
    time_ns: int
    seq: int
    action: Callable[[], None] = field(compare=False, repr=False)
    cancelled: bool = field(default=False, compare=False)


@dataclass
class Metrics:
    """Counters and totals accumulated over one run."""

    generated: int = 0
    delivered_ul: int = 0
    acked: int = 0
    skipped_by_guard: int = 0
    depletion_events: int = 0
    off_time_s: float = 0.0
    final_voltage_v: float = 0.0
    ul_airtime_s: float = 0.0
    max_ul_airtime_s: float = 0.0
    valid: bool = True
    cycles: list[CycleRecord] = field(default_factory=list)
    trace: TraceRecorder | None = None


def success_probability(metrics: Metrics, kind: str) -> float:
    """Fraction of generated packets that completed a cycle of ``kind``."""
    if metrics.generated == 0:
        raise ValueError("no packets were generated")
    if kind == "UL":
        return metrics.delivered_ul / metrics.generated
    if kind == "UL+DL":
        return metrics.acked / metrics.generated
    raise ValueError(f"unknown cycle kind {kind!r}")


RESULTS_HEADER = (
    "C_farads,P_harvest_W,data_rate,period_s,confirmed,"
    "generated,delivered,acked,psucc_ul,psucc_uldl"
)


def results_key(config: ScenarioConfig) -> str:
    """The identifying prefix of a results row (its grid coordinates)."""
    return (
        f"{config.capacitance_f:.9g},{config.power_w:.9g},{config.data_rate},"
        f"{config.packet_period_s:.9g},{int(config.confirmed)}"
    )


def results_row(config: ScenarioConfig, metrics: Metrics) -> str:
    """One CSV line summarising a run, matching RESULTS_HEADER."""
    if metrics.generated:
        p_ul = metrics.delivered_ul / metrics.generated
        p_uldl = metrics.acked / metrics.generated
    else:
        p_ul = p_uldl = 0.0
    return (
        f"{results_key(config)},"
        f"{metrics.generated},{metrics.delivered_ul},{metrics.acked},"
        f"{p_ul:.6f},{p_uldl:.6f}"
    )


def _noop() -> None:
    pass


def _scenario_problems(config: ScenarioConfig) -> list[str]:
    """The checks no params class or harvester constructor makes."""
    problems = []
    for f in fields(config):
        value = getattr(config, f.name)
        if not isinstance(value, float):
            continue
        if not math.isfinite(value):
            problems.append(f"{f.name} must be finite, got {value}")
        elif f.name.endswith("_s") and not math.isfinite(value * NS_PER_S):
            problems.append(f"{f.name} is beyond the range of the 1 ns clock, got {value}")
    if config.harvester not in HARVESTER_KINDS:
        problems.append(f"harvester must be one of {HARVESTER_KINDS}")
    if config.harvester == "trace" and not config.trace_file:
        problems.append("trace_file is required for the trace harvester")
    if config.harvester == "random" and 0 < config.harvest_update_period_s < TICK_S:
        problems.append(_below_tick("harvest_update_period_s", config))
    for name in ("packet_period_s", "update_interval_s"):
        period = getattr(config, name)
        if period <= 0:
            problems.append(f"{name} must be positive")
        elif period < TICK_S:
            problems.append(_below_tick(name, config))
    if config.first_packet_s is not None and config.first_packet_s < 0:
        problems.append("first_packet_s must be non-negative")
    if config.duration_s <= 0:
        problems.append("duration_s must be positive")
    if config.guard_horizon not in GUARD_HORIZONS:
        problems.append(f"guard_horizon must be one of {GUARD_HORIZONS}")
    for name in _CURRENT_FIELDS.values():
        if getattr(config, name) < 0:
            problems.append(f"{name} must be non-negative")
    return problems


def _below_tick(name: str, config: ScenarioConfig) -> str:
    return f"{name} must be at least the 1 ns clock tick, got {getattr(config, name)}"


# ScenarioConfig declares every CapacitorParams and LorawanParams field
# under the same name; these read them in the params' positional order.
_capacitor_fields = attrgetter(*(f.name for f in fields(CapacitorParams)))
_lorawan_fields = attrgetter(*(f.name for f in fields(LorawanParams)))


def capacitor_params(config: ScenarioConfig) -> CapacitorParams:
    return CapacitorParams(*_capacitor_fields(config))


def lorawan_params(config: ScenarioConfig) -> LorawanParams:
    return LorawanParams(*_lorawan_fields(config))


def _build_harvester(config: ScenarioConfig) -> HarvestSource:
    if config.harvester == "constant":
        return ConstantHarvester(config.power_w)
    if config.harvester == "trace":
        assert config.trace_file is not None
        return load_trace(config.trace_file)
    return RandomHarvester(
        config.distribution,
        seed=config.seed + 101,
        update_period_s=config.harvest_update_period_s,
        low_w=config.low_w,
        high_w=config.high_w,
        mean_w=config.mean_w,
    )


def validate_scenario(config: ScenarioConfig) -> list[str]:
    """Every violated constraint in ``config``, one message per problem.

    The capacitor, the radio and the constant or random harvester check
    their own parameters; a trace file is not read here.
    """
    problems = _scenario_problems(config)
    builds = [capacitor_params, lorawan_params]
    if config.harvester in ("constant", "random"):
        builds.append(_build_harvester)
    for build in builds:
        try:
            build(config)
        except ConfigError as exc:
            problems.extend(exc.problems)
    return problems


def check_scenarios(configs: Iterable[ScenarioConfig]) -> None:
    """Raise one ConfigError with every scenario's problems, each listed once."""
    problems = dict.fromkeys(p for config in configs for p in validate_scenario(config))
    if problems:
        raise ConfigError(list(problems))


class Simulator:
    """Runs one scenario to completion and reports its metrics."""

    def __init__(self, config: ScenarioConfig) -> None:
        problems = validate_scenario(config)
        if problems:
            raise ConfigError(problems)

        self.config = config
        self.cap = Capacitor(capacitor_params(config))
        self.harvester = _build_harvester(config)
        self.g_load = config.load_conductances()
        self.metrics = Metrics()
        if config.trace:
            self.metrics.trace = TraceRecorder()
        self.gateway = Gateway()
        self.device = LorawanDevice(self, lorawan_params(config))
        self.cap.on_depleted = self.device.on_depleted
        self.cap.on_recharged = self.device.on_recharged
        self.rng = random.Random(config.seed)
        self.now_ns = 0
        # Set from the harvester when the run starts.
        self.g_harv = 0.0
        self._heap: list[Event] = []
        self._seq = 0
        self._crossing_event: Event | None = None
        self._crossing_key: tuple[DeviceState, float, bool] | None = None
        self._last_record_key: tuple[int, DeviceState] | None = None
        self._sample_step_ns = round(config.update_interval_s * NS_PER_S)
        self._next_sample_ns = self._sample_step_ns

    @property
    def now_s(self) -> float:
        return self.now_ns / NS_PER_S

    # -- scheduling --------------------------------------------------------

    def schedule_at_ns(self, time_ns: int, action: Callable[[], None]) -> Event:
        event = Event(max(time_ns, self.now_ns), self._seq, action)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay_s: float, action: Callable[[], None]) -> Event:
        return self.schedule_at_ns(
            self.now_ns + round(delay_s * NS_PER_S), action
        )

    def schedule_at_s(self, time_s: float, action: Callable[[], None]) -> Event:
        return self.schedule_at_ns(round(time_s * NS_PER_S), action)

    def cancel(self, event: Event) -> None:
        event.cancelled = True

    # -- state and bookkeeping ----------------------------------------------

    def set_device_state(self, state: DeviceState) -> None:
        self.device.state = state
        self._record_trace()

    def _advance(self) -> None:
        self.cap.update(self.now_s, self.g_load[self.device.state], self.g_harv)

    def _record_trace(self) -> None:
        recorder = self.metrics.trace
        if recorder is None:
            return
        key = (self.now_ns, self.device.state)
        if key == self._last_record_key:
            return
        self._last_record_key = key
        recorder.record(self.now_s, self.cap.voltage_v, self.device.state.value)

    def _sample_trace(self, until_ns: int) -> None:
        """Record the grid samples strictly before ``until_ns``.

        Each voltage is propagated in closed form from the capacitor's last
        update under the current load and harvest; the capacitor itself is
        left untouched. A grid instant at ``until_ns`` is skipped: the record
        made when the clock moves there covers it.
        """
        recorder = self.metrics.trace
        t_ns = self._next_sample_ns
        if recorder is None or t_ns > until_ns:
            return
        state = self.device.state
        cap = self.cap
        g_load = self.g_load[state]
        v0 = cap.voltage_v
        t0_s = cap.last_update_s
        step = self._sample_step_ns
        while t_ns < until_ns:
            t_s = t_ns / NS_PER_S
            v = propagate_voltage(v0, t_s - t0_s, g_load, self.g_harv, cap.params)
            recorder.record(t_s, v, state.value)
            t_ns += step
        if t_ns == until_ns:
            t_ns += step
        self._next_sample_ns = t_ns

    def _reschedule_crossing(self) -> None:
        key = (self.device.state, self.g_harv, self.cap.depleted)
        armed = self._crossing_event
        if key == self._crossing_key and (armed is None or armed.time_ns > self.now_ns):
            return  # same trajectory, and its crossing (if any) is still ahead
        self._crossing_key = key
        if armed is not None:
            armed.cancelled = True
            self._crossing_event = None
        t_cross = self.cap.next_crossing(self.g_load[self.device.state], self.g_harv)
        if t_cross is None:
            return
        delay_ns = max(1, round(t_cross * NS_PER_S))
        self._crossing_event = self.schedule_at_ns(self.now_ns + delay_ns, _noop)

    # -- recurring drivers ---------------------------------------------------

    def _on_generate(self) -> None:
        self.schedule_in(self.config.packet_period_s, self._on_generate)
        self.device.on_generate()

    def _on_harvest_change(self) -> None:
        power = self.harvester.power_at(self.now_s)
        self.g_harv = harvester_conductance(power, self.config.rail_voltage_v)
        self._chain_harvest_change(self.now_s)

    def _chain_harvest_change(self, after_s: float) -> None:
        nxt = self.harvester.next_change_after(after_s)
        if nxt is not None and nxt <= self.config.duration_s:
            self.schedule_at_s(nxt, self._on_harvest_change)
        else:
            # Raises when an input trace ends before the run does.
            self.harvester.power_at(self.config.duration_s)

    # -- main loop ------------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        self._sample_trace(event.time_ns)
        moved = event.time_ns != self.now_ns
        self.now_ns = event.time_ns
        self._advance()
        if moved:
            self._record_trace()
        if not event.cancelled:
            event.action()
        self._reschedule_crossing()

    def run(self) -> Metrics:
        config = self.config
        duration_ns = round(config.duration_s * NS_PER_S)
        try:
            self._record_trace()
            self._on_harvest_change()
            first = config.first_packet_s
            if first is None:
                first = self.rng.uniform(0.0, config.packet_period_s)
            self.schedule_at_s(first, self._on_generate)
            self._reschedule_crossing()
            while self._heap:
                event = heapq.heappop(self._heap)
                if event.time_ns >= duration_ns:
                    break
                self._dispatch(event)
            self._sample_trace(duration_ns)
            self.now_ns = duration_ns
            self._advance()
            self._record_trace()
        except TraceExhaustedError:
            self.metrics.valid = False
        self.device.finalize(self.now_s)
        self.metrics.final_voltage_v = self.cap.voltage_v
        self.metrics.ul_airtime_s = self.device.ul_budget.airtime_total_s
        self.metrics.max_ul_airtime_s = self.device.ul_budget.max_airtime_s
        return self.metrics


def run_scenario(config: ScenarioConfig) -> Metrics:
    return Simulator(config).run()
