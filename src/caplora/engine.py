"""Discrete-event simulation core.

Time advances on an integer nanosecond clock through a binary heap of
events, and every event is a state change: a packet, a radio transition, a
harvest change or a threshold crossing. Nothing is scheduled just to let
time pass, because the capacitor voltage is known in closed form between
events. Trace samples on the ``update_interval_s`` grid are computed in
closed form between events and never touch the heap or the capacitor.

A heap entry is an ``Event``: the list ``[time_ns, seq, action,
cancelled]``, which ``heapq`` orders in C by time and then by scheduling
order, since ``seq`` is unique. Cancelling an entry sets its flag and
leaves it in the heap. One loop in ``Simulator.run`` pops each entry in
turn and:

- brings the capacitor up to the entry's time, so a threshold crossing is
  handled before any event logic runs;
- runs the action, unless the entry is cancelled by then (a cancelled
  entry still moves the clock);
- re-arms the one wake-up at the crossing time predicted in closed form,
  but only when the trajectory changed.

A traced run also records the grid samples up to the entry and a row at
each new instant, behind one test of whether the run is traced.

Each device state's load current becomes a conductance once, when the
simulator is built (``ScenarioConfig.load_conductances``); the capacitor,
the trace samples and the energy guard look that conductance up by state.

Every time difference the physics and the duty budgets use is taken on the
integer clock, and every time a run records is a clock time or a sum of
clock differences: crossing instants, cycle records, off time and airtime
totals. So the same state at two instants evolves bit-identically and
records the same values shifted by whole nanoseconds. A constant-harvest,
untraced run uses that to simulate a repeating stretch once and add all the
copies of it that fit before its end, with no second pass and nothing
replayed; its metrics equal those of the run simulated event by event:

- an orbit: at the first packet generation whose state, relative to the
  clock, equals the one at an earlier generation, brownouts in between or
  not, the periods between the two are added at once
  (``Simulator._fast_forward``);
- a boot loop: at the first recharge whose state equals the one at the
  recharge before, with a turn-on that failed in between, the loop
  OFF -> TURN_ON -> OFF is added as often as it fits, and the packets
  generated meanwhile each fail at their own tick (``Simulator._on_recharge``).

Such a run simulates only the transient, one repeat and the tail.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, NamedTuple

from .clock import NS_PER_S, TICK_S
from .device import GUARD_HORIZON_REPLIES, CycleOutcome, CycleRecord, Gateway, LorawanDevice
from .energy import (
    Capacitor,
    CapacitorParams,
    TraceRecorder,
    harvester_conductance,
    load_conductance,
    sample_voltages,
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
GUARD_HORIZONS = tuple(GUARD_HORIZON_REPLIES)

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


class Event(list):
    """A heap entry ``[time_ns, seq, action, cancelled]``.

    ``heapq`` orders entries as lists, in C: by time, then by the unique
    scheduling sequence number, so a comparison never reaches the action.
    """

    __slots__ = ()

    time_ns = property(itemgetter(0))
    action = property(itemgetter(2))
    cancelled = property(itemgetter(3))


@dataclass
class Metrics:
    """Counters and totals accumulated over one run."""

    generated: int = 0
    delivered_ul: int = 0
    acked: int = 0
    skipped_by_guard: int = 0
    depletion_events: int = 0
    off_time_ns: int = 0
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
_ORBIT_COUNTERS = (
    "generated", "delivered_ul", "acked", "skipped_by_guard", "depletion_events", "off_time_ns"
)


# At most this many packet-time voltages, and as many snapshots, are kept
# for the orbit search; each store is emptied when full. A longer orbit is
# simulated in full.
_ORBIT_MEMORY = 256


class _Mark(NamedTuple):
    """The run at a snapshotted packet generation: the totals a skip adds to."""

    time_ns: int
    # The _ORBIT_COUNTERS, the number of cycle records and each budget's
    # ``airtime_total_ns``, in ``Simulator._budgets`` order.
    counts: tuple[int, ...]
    cycles: int
    airtimes: tuple[int, ...]


class _Boot(NamedTuple):
    """The run at a recharge, as the boot-loop skip compares it."""

    time_ns: int
    # The device's pending ``_on_turned_on``: cancelled once the boot failed.
    turn_on: Event
    # ``Simulator._relative_state()``, or None where none was taken.
    state: tuple | None
    depletion_events: int
    off_time_ns: int


# Each scenario field's name, and whether it is a time in seconds.
_FIELD_TIMES = tuple((f.name, f.name.endswith("_s")) for f in fields(ScenarioConfig))


def _scenario_problems(config: ScenarioConfig) -> list[str]:
    """The checks no params class or harvester constructor makes."""
    problems = []
    for name, is_time in _FIELD_TIMES:
        value = getattr(config, name)
        if not isinstance(value, float):
            continue
        if not math.isfinite(value):
            problems.append(f"{name} must be finite, got {value}")
        elif is_time and not math.isfinite(value * NS_PER_S):
            problems.append(f"{name} is beyond the range of the 1 ns clock, got {value}")
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
        # The orbit search: the packet-time voltages seen, None when the run
        # is not eligible or a skip was made, and the snapshots taken.
        fast_forward = config.harvester == "constant" and not config.trace
        self._voltages: set[float] | None = set() if fast_forward else None
        self._snapshots: dict[tuple, _Mark] = {}
        # The boot-loop search, on the same runs until a skip was made, and
        # the run at the last recharge.
        self._boot_loops = fast_forward
        self._last_boot: _Boot | None = None

    @property
    def now_s(self) -> float:
        return self.now_ns / NS_PER_S

    # -- scheduling --------------------------------------------------------

    def schedule_at_ns(self, time_ns: int, action: Callable[[], None]) -> Event:
        now = self.now_ns
        seq = self._seq
        self._seq = seq + 1
        event = Event((time_ns if time_ns > now else now, seq, action, False))
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: Event) -> None:
        event[3] = True

    # -- state and bookkeeping ----------------------------------------------

    def set_device_state(self, state: DeviceState) -> None:
        self.device.state = state
        self._record_trace()

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
        step = self._sample_step_ns
        times = range(t_ns, until_ns, step)
        sample_voltages(
            recorder.records,
            times,
            cap.last_update_ns,
            cap.voltage_v,
            self.g_load[state],
            self.g_harv,
            cap.params,
            state.value,
        )
        t_ns += len(times) * step
        if t_ns == until_ns:
            t_ns += step
        self._next_sample_ns = t_ns

    def _rearm_crossing(self, key: tuple[DeviceState, float, bool]) -> None:
        """Arm one wake-up at the crossing of the trajectory ``key``, which
        is ``(device state, g_harv, depleted)``, cancelling the one armed.

        A recharge flips ``depleted`` off, so this is also where a run learns,
        once the recharge's event is done, that one happened.
        """
        old = self._crossing_key
        self._crossing_key = key
        armed = self._crossing_event
        if armed is not None:
            armed[3] = True
            self._crossing_event = None
        delay_ns = self.cap.next_crossing_ns(self.g_load[key[0]], key[1])
        if delay_ns is not None:
            self._crossing_event = self.schedule_at_ns(self.now_ns + delay_ns, _noop)
        if self._boot_loops and old is not None and old[2] and not key[2]:
            self._on_recharge()

    # -- recurring drivers ---------------------------------------------------

    def _on_generate(self) -> None:
        self.schedule_at_ns(self.now_ns + self.packet_period_ns, self._on_generate)
        if self._voltages is not None:
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

    def _relative_state(self) -> tuple:
        """Everything that drives the rest of the run, relative to now, but
        the next packet generation.

        The heap entries are taken in the order they pop in, so two equal
        states compare equal whatever the heap's layout.
        """
        now = self.now_ns
        generate = self._on_generate
        armed = self._crossing_event
        return (
            self.cap.voltage_v,
            self.cap.depleted,
            self.device.state,
            self._crossing_key,
            None if armed is None else armed[0] - now,
            tuple([
                (time_ns - now, cancelled, action)
                for time_ns, _, action, cancelled in sorted(self._heap)
                if action != generate
            ]),
            tuple([max(0, budget.blocked_until_ns - now) for budget in self._budgets]),
        )

    def _snapshot(self) -> tuple | None:
        """The state a packet generation compares, relative to now.

        Taken once the next generation is scheduled, so that one is always
        a period ahead. None unless the device is asleep with no open cycle.
        """
        device = self.device
        if device.cycle is not None or device.state is not DeviceState.SLEEP:
            return None
        return self._relative_state()

    def _fast_forward(self) -> None:
        """Skip whole periods of an exact orbit of the run's state.

        Called at each packet generation of a constant-harvest, untraced
        run. When the state equals the one at an earlier generation, the run
        is periodic from there on, and the orbit between the two has
        already been simulated. As many copies of it as end before the run
        does are added at once: each counter and airtime total grows by
        whole multiples of its change over the orbit, and the orbit's cycle
        records are copied shifted by whole orbit lengths. The clock moves
        past the copies and the tail is simulated as usual. The state and
        every recorded time are on the integer-ns clock, so each skipped
        orbit, brownouts included, is bit-identical to the simulated one.

        The state is snapshotted only where the packet-time voltage was seen
        at an earlier generation: a run that never repeats pays one set
        lookup per packet. An orbit is skipped at the first snapshot equal
        to an earlier one, whatever its length, as long as the stores,
        ``_ORBIT_MEMORY`` entries each, were not emptied in between.
        """
        voltages = self._voltages
        assert voltages is not None
        voltage = self.cap.voltage_v
        # The state repeats only where the voltage does: snapshot only then.
        if voltage not in voltages:
            if len(voltages) == _ORBIT_MEMORY:
                voltages.clear()
            voltages.add(voltage)
            return
        state = self._snapshot()
        if state is None:
            return
        metrics = self.metrics
        mark = _Mark(
            self.now_ns,
            tuple([getattr(metrics, name) for name in _ORBIT_COUNTERS]),
            len(metrics.cycles),
            tuple([budget.airtime_total_ns for budget in self._budgets]),
        )
        snapshots = self._snapshots
        earlier = snapshots.get(state)
        if earlier is not None:
            self._skip(earlier, mark)
            self._voltages = None
            return
        if len(snapshots) == _ORBIT_MEMORY:
            snapshots.clear()
        snapshots[state] = mark

    def _skip(self, earlier: _Mark, mark: _Mark) -> None:
        """Add the orbit from ``earlier`` to ``mark``, which is now, as often
        as it fits before the run ends, and move the clock past those copies."""
        length = mark.time_ns - earlier.time_ns
        # Every skipped event must fall before the end, as must ``now``.
        copies = (self._duration_ns - 1 - self.now_ns) // length
        if copies <= 0:
            return
        metrics = self.metrics
        delta = {
            name: now - then
            for name, now, then in zip(_ORBIT_COUNTERS, mark.counts, earlier.counts)
        }
        for name, step in delta.items():
            setattr(metrics, name, getattr(metrics, name) + copies * step)
        # Each packet generated took the next packet id.
        packets = delta["generated"]
        cycles = metrics.cycles
        logged = cycles[earlier.cycles:]
        # Builds each CycleRecord from a plain tuple, without NamedTuple's
        # Python-level constructor.
        new = tuple.__new__
        for k in range(1, copies + 1):
            shift = k * length
            ids = k * packets
            cycles.extend([
                new(CycleRecord, (packet_id + ids, kind, start_ns + shift, end_ns + shift, outcome))
                for packet_id, kind, start_ns, end_ns, outcome in logged
            ])
        shift = copies * length
        for budget, now_total, then_total in zip(self._budgets, mark.airtimes, earlier.airtimes):
            airtime_ns = now_total - then_total
            budget.airtime_total_ns += copies * airtime_ns
            if airtime_ns:  # a budget unused in the orbit keeps its past block
                budget.blocked_until_ns += shift
        self.now_ns += shift
        self.cap.shift(shift)
        for event in self._heap:
            event[0] += shift

    # -- skipping a boot loop ------------------------------------------------

    def _on_recharge(self) -> None:
        """Skip whole boot loops once the last one repeats the one before.

        Called at each recharge of a constant-harvest, untraced run, once
        the wake-up for the next crossing is armed. A boot loop is the
        device too small to finish its turn-on: it recharges, enters
        TURN_ON, depletes before ``turn_on_s`` ends and recharges again,
        never reaching SLEEP. When the turn-on begun at the last recharge
        failed and the state now equals the state then, relative to the
        clock, the run repeats that loop until it ends (``_skip_loops``).
        """
        last = self._last_boot
        state = None
        # Only a loop whose turn-on failed never reached SLEEP.
        if last is not None and last.turn_on[3]:
            state = self._relative_state()
            if state == last.state:
                self._skip_loops(last)
                return
        metrics = self.metrics
        self._last_boot = _Boot(
            self.now_ns,
            self.device._pending,
            state,
            metrics.depletion_events,
            metrics.off_time_ns,
        )

    def _skip_loops(self, last: _Boot) -> None:
        """Add the boot loop from ``last`` to now as often as it fits before
        the run ends, and move the clock past those copies.

        The depletions and off time grow by whole multiples of their change
        over the loop, and every heap entry moves by the copies' length but
        the packet generation. Each generation inside the copies fails for
        want of energy at its own tick, with its own packet id, or is not
        counted when ``generate_while_off`` is off; the next one moves to
        the first generation tick past the copies.
        """
        self._boot_loops = False
        self._voltages = None
        now = self.now_ns
        length = now - last.time_ns
        # Every skipped event must fall before the end, as must ``now``.
        copies = (self._duration_ns - 1 - now) // length
        if copies <= 0:
            return
        metrics = self.metrics
        metrics.depletion_events += copies * (metrics.depletion_events - last.depletion_events)
        metrics.off_time_ns += copies * (metrics.off_time_ns - last.off_time_ns)
        shift = copies * length
        end_ns = now + shift
        generate = self._on_generate
        period = self.packet_period_ns
        for event in self._heap:
            if event[2] != generate:
                event[0] += shift
                continue
            ticks = range(event[0], end_ns, period)
            event[0] += len(ticks) * period
            if self.config.generate_while_off:
                kind = self.device.kind
                failed = CycleOutcome.FAILED_ENERGY
                new = tuple.__new__
                metrics.cycles.extend([
                    new(CycleRecord, (packet_id, kind, t_ns, t_ns, failed))
                    for packet_id, t_ns in enumerate(ticks, metrics.generated + 1)
                ])
                metrics.generated += len(ticks)
        # The generation moved by other than the shift.
        heapq.heapify(self._heap)
        self.now_ns = end_ns
        self.cap.shift(shift)

    # -- main loop ------------------------------------------------------------

    def run(self) -> Metrics:
        config = self.config
        duration_ns = self._duration_ns
        heap = self._heap
        cap = self.cap
        update = cap.update
        device = self.device
        g_load = self.g_load
        recorder = self.metrics.trace
        try:
            self._record_trace()
            self._on_harvest_change()
            first = config.first_packet_s
            if first is None:
                first = self.rng.uniform(0.0, config.packet_period_s)
            self.schedule_at_ns(round(first * NS_PER_S), self._on_generate)
            self._rearm_crossing((device.state, self.g_harv, cap.depleted))
            while heap:
                event = heapq.heappop(heap)
                time_ns = event[0]
                if time_ns >= duration_ns:
                    break
                # The capacitor is brought up to the event's time first, so a
                # threshold crossing is handled before the event's own logic.
                if recorder is None:
                    self.now_ns = time_ns
                    update(time_ns, g_load[device.state], self.g_harv)
                else:
                    self._sample_trace(time_ns)
                    moved = time_ns != self.now_ns
                    self.now_ns = time_ns
                    update(time_ns, g_load[device.state], self.g_harv)
                    if moved:
                        self._record_trace()
                # Read after the update: a depletion it finds cancels the
                # device's pending event, which may be this one.
                if not event[3]:
                    event[2]()
                # Re-arm the crossing wake-up only on a new trajectory.
                key = (device.state, self.g_harv, cap.depleted)
                if key != self._crossing_key:
                    self._rearm_crossing(key)
            self._sample_trace(duration_ns)
            self.now_ns = duration_ns
            update(duration_ns, g_load[device.state], self.g_harv)
            self._record_trace()
        except TraceExhaustedError:
            self.metrics.valid = False
        self.device.finalize(self.now_ns)
        self.metrics.final_voltage_v = self.cap.voltage_v
        self.metrics.ul_airtime_s = self.device.ul_budget.airtime_total_ns / NS_PER_S
        self.metrics.max_ul_airtime_s = self.device.ul_budget.max_airtime_s
        return self.metrics


def run_scenario(config: ScenarioConfig) -> Metrics:
    return Simulator(config).run()
