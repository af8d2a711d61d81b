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

Every time difference the physics and the duty budgets use is taken on the
integer clock, so the same state at two instants evolves bit-identically.
A constant-harvest, untraced run uses that to simulate a periodic steady
state once: when the state at a packet generation, relative to the clock,
equals the one 1 or 2 periods earlier, the run skips all the whole orbits
that fit before its end and simulates only the transient and the tail
(``Simulator._fast_forward``). Its metrics equal those of the run simulated
event by event.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

from .clock import NS_PER_S, TICK_S
from .device import CycleRecord, Gateway, LorawanDevice
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


# The Metrics counters a skipped orbit adds to.
_ORBIT_COUNTERS = ("generated", "delivered_ul", "acked", "skipped_by_guard")


class _Mark(NamedTuple):
    """The run at one packet generation, as the fast-forward compares it."""

    time_ns: int
    voltage_v: float
    # ``Simulator._snapshot()``, or None where none applies or was taken.
    state: tuple | None
    depletions: int

    def repeats(self, earlier: _Mark) -> bool:
        """Whether the run repeats from ``earlier`` on, with no threshold
        crossing in between (a crossing's times are absolute)."""
        return (
            self.state is not None
            and self.state == earlier.state
            and self.depletions == earlier.depletions
        )


# Stands for a generation before the first: it repeats nothing.
_NO_MARK = _Mark(0, math.nan, None, 0)


@dataclass
class _Orbit:
    """An orbit simulated once more, logging what a skip replays."""

    start: _Mark
    length_ns: int
    counts: dict[str, int]  # the _ORBIT_COUNTERS at its start
    # One list per budget, in ``Simulator._budgets`` order.
    airtimes: tuple[list[float], ...]
    energies: list[float] = field(default_factory=list)
    records: list[tuple[int, int]] = field(default_factory=list)


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
        self.packet_period_ns = round(config.packet_period_s * NS_PER_S)
        self._duration_ns = round(config.duration_s * NS_PER_S)
        # Set from the harvester when the run starts.
        self.g_harv = 0.0
        self._heap: list[Event] = []
        self._seq = 0
        self._crossing_event: Event | None = None
        self._crossing_key: tuple[DeviceState, float, bool] | None = None
        self._last_record_key: tuple[int, DeviceState] | None = None
        self._sample_step_ns = round(config.update_interval_s * NS_PER_S)
        self._next_sample_ns = self._sample_step_ns
        self._budgets = (
            self.device.ul_budget,
            self.gateway.rx1_budget,
            self.gateway.rx2_budget,
        )
        # The fast-forward's marks of the two generations before, oldest
        # first; None when the run is not eligible or its orbit was skipped.
        fast_forward = config.harvester == "constant" and not config.trace
        self._marks: list[_Mark] | None = [_NO_MARK, _NO_MARK] if fast_forward else None
        self._orbit: _Orbit | None = None

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

    def cancel(self, event: Event) -> None:
        event.cancelled = True

    # -- state and bookkeeping ----------------------------------------------

    def set_device_state(self, state: DeviceState) -> None:
        self.device.state = state
        self._record_trace()

    def _advance(self) -> None:
        self.cap.update(self.now_ns, self.g_load[self.device.state], self.g_harv)

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
        t0_ns = cap.last_update_ns
        step = self._sample_step_ns
        while t_ns < until_ns:
            elapsed = (t_ns - t0_ns) / NS_PER_S
            v = propagate_voltage(v0, elapsed, g_load, self.g_harv, cap.params)
            recorder.record(t_ns / NS_PER_S, v, state.value)
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
        self.schedule_at_ns(self.now_ns + self.packet_period_ns, self._on_generate)
        if self._marks is not None:
            self._fast_forward()
        self.device.on_generate()

    def _on_harvest_change(self) -> None:
        now_s = self.now_s
        power = self.harvester.power_at(now_s)
        self.g_harv = harvester_conductance(power, self.config.rail_voltage_v)
        nxt = self.harvester.next_change_after(now_s)
        if nxt is not None and nxt <= self.config.duration_s:
            # A change that rounds onto the current tick would repeat forever.
            nxt_ns = max(round(nxt * NS_PER_S), self.now_ns + 1)
            self.schedule_at_ns(nxt_ns, self._on_harvest_change)
        else:
            # Raises when an input trace ends before the run does.
            self.harvester.power_at(self.config.duration_s)

    # -- fast-forward over a periodic steady state ----------------------------

    def _snapshot(self) -> tuple | None:
        """Everything that drives the rest of the run, relative to now.

        Taken at a packet generation, once the next one is scheduled. None
        unless the device is asleep with no open cycle and the heap holds
        only that next generation and crossing wake-ups.
        """
        device = self.device
        if device.cycle is not None or device.state is not DeviceState.SLEEP:
            return None
        now = self.now_ns
        generate = self._on_generate
        heap = []
        for event in self._heap:
            action = event.action
            if action is not _noop and action != generate:
                return None
            heap.append((event.time_ns - now, event.cancelled, action is _noop))
        armed = self._crossing_event
        return (
            self.cap.voltage_v,
            self.cap.depleted,
            device.state,
            self._crossing_key,
            None if armed is None else max(armed.time_ns - now, 0),
            tuple(heap),
            tuple([max(0, budget.blocked_until_ns - now) for budget in self._budgets]),
        )

    def _log_into(self, orbit: _Orbit | None) -> None:
        """Point the capacitor, device and budget logs at ``orbit``'s lists,
        or switch them off."""
        if orbit is None:
            self.cap.energy_log = self.device.record_log = None
            airtimes: Iterable[list[float] | None] = (None,) * len(self._budgets)
        else:
            self.cap.energy_log = orbit.energies
            self.device.record_log = orbit.records
            airtimes = orbit.airtimes
        for budget, log in zip(self._budgets, airtimes):
            budget.airtime_log = log

    def _fast_forward(self) -> None:
        """Skip whole periods of an exact orbit of the run's state.

        Called at each packet generation of a constant-harvest, untraced
        run. When the state equals the one 1 or 2 periods earlier, with no
        depletion in between, the run is periodic from there on. The next
        orbit is simulated once more with its float increments and records
        logged; then as many whole orbits as end before the run does are
        added in one step, the clock moves past them and the tail is
        simulated as usual. The state is relative to the integer-ns clock,
        so each skipped orbit is bit-identical to the logged one.

        The state is snapshotted only where the packet-time voltage equals
        one of the two before: a run that never repeats pays two float
        comparisons per packet, and an orbit is found a period after the
        first repeated voltage.
        """
        now = self.now_ns
        orbit = self._orbit
        if orbit is not None and now - orbit.start.time_ns < orbit.length_ns:
            return  # the middle generation of a two-period orbit
        marks = self._marks
        assert marks is not None
        voltage = self.cap.voltage_v
        metrics = self.metrics
        # The state repeats only where the voltage does: snapshot only then.
        if orbit is None and voltage != marks[0].voltage_v and voltage != marks[1].voltage_v:
            marks[:] = marks[1], _Mark(now, voltage, None, metrics.depletion_events)
            return
        mark = _Mark(now, voltage, self._snapshot(), metrics.depletion_events)
        if orbit is not None:
            self._log_into(None)
            self._orbit = None
            if mark.repeats(orbit.start):
                self._skip(orbit)
                self._marks = None
                return
        for earlier in (marks[1], marks[0]):
            if mark.repeats(earlier):
                counts = {name: getattr(metrics, name) for name in _ORBIT_COUNTERS}
                airtimes = tuple([] for _ in self._budgets)
                self._orbit = _Orbit(mark, now - earlier.time_ns, counts, airtimes)
                self._log_into(self._orbit)
                break
        marks[:] = marks[1], mark

    def _skip(self, orbit: _Orbit) -> None:
        """Add ``orbit``, which ends now, as often as it fits before the run
        ends, and move the clock past those copies."""
        length = orbit.length_ns
        # Every skipped event must fall before the end, as must ``now``.
        copies = (self._duration_ns - 1 - self.now_ns) // length
        if copies <= 0:
            return
        metrics = self.metrics
        delta = {name: getattr(metrics, name) - orbit.counts[name] for name in _ORBIT_COUNTERS}
        for name in _ORBIT_COUNTERS:
            setattr(metrics, name, getattr(metrics, name) + copies * delta[name])
        # Each packet generated took the next packet id.
        packets = delta["generated"]
        self.device._packet_counter += copies * packets
        cycles = metrics.cycles
        logged = cycles[len(cycles) - len(orbit.records):]
        for k in range(1, copies + 1):
            shift = k * length
            for record, (start_ns, end_ns) in zip(logged, orbit.records):
                cycles.append(
                    CycleRecord(
                        record.packet_id + k * packets,
                        record.kind,
                        (start_ns + shift) / NS_PER_S,
                        (end_ns + shift) / NS_PER_S,
                        record.outcome,
                    )
                )
        # The same additions in the same order as the simulation would make.
        cap = self.cap
        for _ in range(copies):
            for energy in orbit.energies:
                cap.load_energy_j += energy
        shift = copies * length
        for budget, airtimes in zip(self._budgets, orbit.airtimes):
            for _ in range(copies):
                for airtime in airtimes:
                    budget.airtime_total_s += airtime
            if airtimes:  # a budget unused in the orbit keeps its past block
                budget.blocked_until_ns += shift
        self.now_ns += shift
        cap.last_update_ns += shift
        for event in self._heap:
            event.time_ns += shift

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
        duration_ns = self._duration_ns
        try:
            self._record_trace()
            self._on_harvest_change()
            first = config.first_packet_s
            if first is None:
                first = self.rng.uniform(0.0, config.packet_period_s)
            self.schedule_at_ns(round(first * NS_PER_S), self._on_generate)
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
