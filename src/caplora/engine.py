"""Discrete-event simulation core.

Time advances on an integer nanosecond clock through a binary heap of
events, and every event is a state change: a packet, a radio transition, a
harvest change or a threshold crossing. Nothing is scheduled just to let
time pass, because the capacitor voltage is known in closed form between
events. Trace samples on the ``update_interval_s`` grid never touch the
heap or the capacitor: the grid instants between two entries are kept as
one span, with the trajectory they follow, and their voltages are
computed in closed form when the trace is written.

A heap entry is an ``Event``: the list ``[time_ns, seq, action,
cancelled]``, which ``heapq`` orders in C by time and then by scheduling
order, since ``seq`` is unique. Cancelling an entry sets its flag and
leaves it in the heap. One loop in ``Simulator.run``, the same for a
traced run and an untraced one, pops each entry in turn, moves the clock to
its time and, unless it is cancelled:

- brings the capacitor up to the entry's time and handles a crossing it
  reports before any event logic runs (``Simulator._crossed``);
- runs the action unless a depletion cancelled the entry: the device's
  pending event or the packet generation, which the depletion holds;
- re-arms the one wake-up at the crossing tick the capacitor predicts in
  closed form, but only when the capacitor's crossing tick moved.

A cancelled entry leaves the capacitor alone, so where a trajectory's
closed-form step is split depends on the live events only.

A traced run also records the grid samples up to each entry and a row at
each new instant, a cancelled entry's computed in closed form; an
untraced run calls neither recorder.

A powered-down device schedules no packets. From the depletion on, the
packet generation is held out of the heap; when the turn-on completes,
every packet that fell due meanwhile, up to and including that tick, fails
for want of energy at its own tick (``Simulator.resume_packets``).

Each device state's load current becomes a conductance once per scenario
(``ScenarioConfig.load_conductances``); the capacitor, the trace samples and
the energy guard look that conductance up by state. Validating a scenario
builds what its runs fix: the CapacitorParams, those conductances, the
device's cycle tables with the guard's horizon, and the first packet's
tick. One store keeps them for each valid scenario
and shares them with every run of an equal one (``_parts_of``), so a
sweep's up-front check and its runs, and a study that runs a scenario
again, validate and build it once.

Every time difference the physics and the duty budgets use is taken on the
integer clock, and every time a run records is a clock time or a sum of
clock differences: crossing instants, cycle records, off time and airtime
totals. So the same state at two instants evolves bit-identically and
records the same values shifted by whole nanoseconds. A constant-harvest,
untraced run uses that to simulate a repeating stretch once and add the
copies of it that fit before its end; its metrics equal those of the run
simulated event by event. One mechanism finds them (``Simulator._anchor``).
At each anchor, a packet generation that finds the device asleep or a
recharge while packets are held, either with the uplink band free, the
state but the capacitor is compared with that at earlier anchors. The
capacitor steps, guard answers and crossings logged since a matching one
are a template: each copy replays its steps in closed form from where the
last left the voltage, and holds while the guard answers alike and each
trajectory crosses its threshold after its last step or, where the
template crossed, on the same tick (``Simulator._replay``). So settling
periods, brownout orbits and boot loops OFF -> TURN_ON -> OFF are all
copied, and once a copy starts where an earlier one did, the run jumps to
its end. The records of the copies, and those of the packets held while
the device is powered down, each a copy of the first one's record, are
kept as one block each until read (``CycleLog``).
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Sequence
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .clock import NS_PER_S, TICK_S, number_problems
from .device import (
    GUARD_HORIZON_REPLIES,
    CycleOutcome,
    CycleRecord,
    Gateway,
    LorawanDevice,
    cycle_tables,
)
from .energy import (
    Capacitor,
    CapacitorParams,
    TraceRecorder,
    crossing_tick,
    crossing_voltage,
    harvester_conductance,
    load_conductance,
    step_coefficients,
)
from .errors import ConfigError
from .harvester import (
    ConstantHarvester,
    HarvestSource,
    RandomHarvester,
    TraceExhaustedError,
    load_trace,
)
from .lorawan import DEFAULT_CURRENTS_A, DeviceState, LorawanParams, _SlotsRecord

HARVESTER_KINDS = ("constant", "trace", "random")
GUARD_HORIZONS = tuple(GUARD_HORIZON_REPLIES)

# The scenario field holding each device state's current: TURN_ON -> turn_on_a.
_CURRENT_FIELDS = {state: f"{state.name.lower()}_a" for state in DeviceState}

# Each device state's text in a trace's state column, read once here: the
# enum's ``value`` goes through a descriptor, which a row would pay for.
_STATE_NAMES = {state: state.value for state in DeviceState}


class _DataclassFields:
    """``ScenarioConfig.__dataclass_fields__``, built on its first read and
    then kept on the class in place of this descriptor: the fields of a
    dataclass made over the same names, annotations and defaults. So
    ``dataclasses.replace``, ``fields``, ``asdict`` and ``is_dataclass``
    accept a scenario, and only code that calls them imports ``dataclasses``."""

    def __get__(self, instance: object, owner: type) -> dict:
        import dataclasses

        made = dataclasses.make_dataclass(
            owner.__name__,
            [
                (name, ref.__forward_arg__, dataclasses.field(default=owner._field_defaults[name]))
                for name, ref in owner.__annotations__.items()
            ],
        )
        fields = {field.name: field for field in dataclasses.fields(made)}
        owner.__dataclass_fields__ = fields
        return fields


class ScenarioConfig(NamedTuple):
    """Complete description of one simulation run.

    An immutable named tuple; ``_replace`` derives a changed copy.
    """

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

    __dataclass_fields__ = _DataclassFields()

    def load_conductances(self) -> dict[DeviceState, float]:
        """Each device state's load conductance ``I / E`` at the rail voltage."""
        rail_voltage_v = self.rail_voltage_v
        return {
            state: load_conductance(getattr(self, name), rail_voltage_v)
            for state, name in _CURRENT_FIELDS.items()
        }


class Event(list):
    """A heap entry ``[time_ns, seq, action, cancelled]``.

    ``heapq`` orders entries as lists, in C: by time, then by the unique
    scheduling sequence number, so a comparison never reaches the action.
    """

    __slots__ = ()

    # bench/tracer.py's heap probe reads ``time_ns`` and ``cancelled``.
    time_ns = property(itemgetter(0))
    cancelled = property(itemgetter(3))


class _Copies(NamedTuple):
    """Records ``start`` to ``stop`` of a log, repeated ``copies`` times: the
    k-th copy's packet ids ``k * packets`` and its ticks ``k * length_ns``
    later."""

    start: int
    stop: int
    copies: int
    packets: int
    length_ns: int


class CycleLog(Sequence):
    """A run's cycle records, in the order they were logged: a read-only
    sequence of ``CycleRecord``.

    The records the run simulated are kept as they come (``_append``). The
    copies a replay adds are kept as one block each (``_copy``), in O(1)
    time and memory, and so are the packets held while the device was
    powered down: the first one's record, then its copies, each one packet
    id and one packet period on. The first read (iteration, indexing or
    slicing, ``==`` or ``repr``) expands every block, in order and once,
    into the records the run simulated event by event would have logged; a
    block's template may span an earlier block. ``len`` expands nothing. A
    log equals a list or a log of the same records.
    """

    __slots__ = ("_records", "_blocks", "_pending", "_append")

    def __init__(self) -> None:
        self._records: list[CycleRecord] = []
        # Each block not yet expanded, after the number of records kept
        # before it, and the number of records the blocks hold.
        self._blocks: list[tuple[int, _Copies]] = []
        self._pending = 0
        self._append = self._records.append

    def __len__(self) -> int:
        return len(self._records) + self._pending

    def _copy(self, start: int, copies: int, packets: int, length_ns: int) -> None:
        """Log ``copies`` copies of the records from index ``start`` on."""
        stop = len(self)
        size = copies * (stop - start)
        if size:
            block = _Copies(start, stop, copies, packets, length_ns)
            self._blocks.append((len(self._records), block))
            self._pending += size

    def _expanded(self) -> list[CycleRecord]:
        if not self._blocks:
            return self._records
        records = self._records
        out: list[CycleRecord] = []
        kept = 0
        new = tuple.__new__
        for at, (start, stop, copies, packets, length) in self._blocks:
            out += records[kept:at]
            kept = at
            end = copies + 1
            # Each template record's copies, built in C from plain tuples
            # without NamedTuple's Python-level constructor, and taken copy
            # by copy. Every record is of a packet generated in the
            # template's stretch, so ``packets`` > 0.
            columns = [
                map(new, repeat(CycleRecord), zip(
                    range(packet_id + packets, packet_id + end * packets, packets), repeat(kind),
                    range(start_ns + length, start_ns + end * length, length),
                    range(end_ns + length, end_ns + end * length, length), repeat(outcome),
                ))
                for packet_id, kind, start_ns, end_ns, outcome in out[start:stop]
            ]
            out += columns[0] if len(columns) == 1 else chain.from_iterable(zip(*columns))
        out += records[kept:]
        self._records = out
        self._append = out.append
        self._blocks = []
        self._pending = 0
        return out

    def __getitem__(self, index):
        return self._expanded()[index]

    def __iter__(self):
        return iter(self._expanded())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycleLog):
            other = other._expanded()
        elif not isinstance(other, list):
            return NotImplemented
        return self._expanded() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._expanded())


_OUTCOMES = tuple(CycleOutcome)


def _no_outcomes() -> dict[CycleOutcome, int]:
    return dict.fromkeys(_OUTCOMES, 0)


class Metrics(_SlotsRecord):
    """Counters and totals accumulated over one run."""

    __slots__ = (
        "generated", "delivered_ul", "acked", "skipped_by_guard", "depletion_events",
        "off_time_ns", "final_voltage_v", "ul_airtime_s", "max_ul_airtime_s", "valid",
        "cycles", "outcomes", "trace",
    )

    def __init__(
        self, generated: int = 0, delivered_ul: int = 0, acked: int = 0,
        skipped_by_guard: int = 0, depletion_events: int = 0, off_time_ns: int = 0,
        final_voltage_v: float = 0.0, ul_airtime_s: float = 0.0, max_ul_airtime_s: float = 0.0,
        valid: bool = True, cycles: CycleLog | None = None,
        outcomes: dict[CycleOutcome, int] | None = None, trace: TraceRecorder | None = None,
    ) -> None:
        self.generated = generated
        self.delivered_ul = delivered_ul
        self.acked = acked
        self.skipped_by_guard = skipped_by_guard
        self.depletion_events = depletion_events
        self.off_time_ns = off_time_ns
        self.final_voltage_v = final_voltage_v
        self.ul_airtime_s = ul_airtime_s
        self.max_ul_airtime_s = max_ul_airtime_s
        self.valid = valid
        self.cycles = CycleLog() if cycles is None else cycles
        # The number of records of each outcome, kept without reading ``cycles``.
        self.outcomes = _no_outcomes() if outcomes is None else outcomes
        self.trace = trace


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


# The Metrics counters a replay adds to.
_COPY_COUNTERS = (
    "generated", "delivered_ul", "acked", "skipped_by_guard", "depletion_events", "off_time_ns"
)
_counts = attrgetter(*_COPY_COUNTERS)
_airtime = attrgetter("airtime_total_ns")
_blocked = attrgetter("blocked_until_ns")


# The repeat search logs at most this many capacitor steps, guard answers
# and crossings, and a replay keeps at most this many copy starts; each is
# emptied when full, the log with the anchors kept in it.
_REPEAT_MEMORY = 4096


class _Mark(NamedTuple):
    """The run at an anchor: the totals a replay adds to, and where the
    capacitor starts the stretch that follows."""

    time_ns: int
    # The voltage and the crossing tick, relative to ``time_ns``, of the
    # trajectory under way, None after a crossing or when it never crosses.
    start: tuple[float, int | None]
    # The _COPY_COUNTERS, the number of cycle records, each outcome's count
    # in CycleOutcome order, and each budget's ``airtime_total_ns``, in
    # ``Simulator._budgets`` order.
    counts: tuple[int, ...]
    cycles: int
    outcomes: tuple[int, ...]
    airtimes: tuple[int, ...]


class _Crossing(NamedTuple):
    """A crossing of ``target`` by the trajectory along ``segment``."""

    depleted: bool
    segment: tuple[float, float]
    target: float


# The fields whose numbers must hold as floats, less those CapacitorParams
# and LorawanParams check themselves: all but ``seed``, which may be an int
# of any size.
_CHECKED_FIELDS = tuple(
    name
    for name in ScenarioConfig._fields
    if name not in ("seed", *CapacitorParams._fields, *LorawanParams._fields)
)


def _scenario_problems(config: ScenarioConfig) -> list[str]:
    """The checks no params class or harvester constructor makes."""
    problems = []
    for name in _CHECKED_FIELDS:
        problems.extend(number_problems(name, getattr(config, name)))
    if config.harvester not in HARVESTER_KINDS:
        problems.append(f"harvester must be one of {HARVESTER_KINDS}")
    if config.harvester == "trace" and not config.trace_file:
        problems.append("trace_file is required for the trace harvester")
    if config.harvester == "random" and 0 < config.harvest_update_period_s < TICK_S:
        problems.append(_below_tick("harvest_update_period_s", config))
    for name in ("packet_period_s", "update_interval_s", "duration_s"):
        span = getattr(config, name)
        if span <= 0:
            problems.append(f"{name} must be positive")
        elif span < TICK_S:
            problems.append(_below_tick(name, config))
    if config.first_packet_s is not None and config.first_packet_s < 0:
        problems.append("first_packet_s must be non-negative")
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
_capacitor_fields = attrgetter(*CapacitorParams._fields)
_radio_fields = attrgetter(*LorawanParams._fields)


def capacitor_params(config: ScenarioConfig) -> CapacitorParams:
    return CapacitorParams(*_capacitor_fields(config))


def lorawan_params(config: ScenarioConfig) -> LorawanParams:
    return LorawanParams(*_radio_fields(config))


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


_Parts = tuple[CapacitorParams, Mapping[DeviceState, float], tuple, int]


def _build_parts(config: ScenarioConfig) -> _Parts:
    """Validate ``config`` and build what every run of it fixes: its
    CapacitorParams, each device state's load conductance, read-only, its
    device's ``cycle_tables`` and the first packet's tick. Raise one
    ConfigError with every violated constraint instead.

    The capacitor, the radio and the constant or random harvester check
    their own parameters; a trace file is not read here.
    """
    problems = _scenario_problems(config)
    builds = [capacitor_params, lorawan_params]
    if config.harvester in ("constant", "random"):
        builds.append(_build_harvester)
    parts = []
    for build in builds:
        try:
            parts.append(build(config))
        except ConfigError as exc:
            problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)
    # The first packet is at ``first_packet_s``, or drawn uniformly over the
    # first period by a generator seeded with ``seed`` for this one draw.
    first_packet_s = config.first_packet_s
    if first_packet_s is None:
        first_packet_s = random.Random(config.seed).uniform(0.0, config.packet_period_s)
    g_load = MappingProxyType(config.load_conductances())
    tables = cycle_tables(parts[1], config.guard_horizon, g_load)
    # Rounded only now: a non-finite time would crash the rounding.
    return parts[0], g_load, tables, round(first_packet_s * NS_PER_S)


# The parts (``_build_parts``) of each scenario found valid, by the scenario
# and its values' types, so that ``1``, ``1.0`` and ``True`` stay apart. A
# sweep checks every point up front and then runs it, and a study may run
# one scenario many times: each is validated and built once. A scenario
# with a problem, or with a value that cannot be hashed, is never kept. At
# most _PART_MEMORY scenarios are kept; a full store is emptied.
_PART_MEMORY = 1024
_scenario_parts: dict[tuple, _Parts] = {}


def _parts_of(config: ScenarioConfig) -> _Parts:
    """``_build_parts(config)``, shared read-only by every equal scenario."""
    key = (config, tuple(map(type, config)))
    try:
        parts = _scenario_parts.get(key)
    except TypeError:
        return _build_parts(config)
    if parts is None:
        parts = _build_parts(config)
        if len(_scenario_parts) >= _PART_MEMORY:
            _scenario_parts.clear()
        _scenario_parts[key] = parts
    return parts


def validate_scenario(config: ScenarioConfig) -> list[str]:
    """Every violated constraint in ``config``, one message per problem."""
    try:
        _parts_of(config)
    except ConfigError as exc:
        return exc.problems
    return []


def check_scenarios(configs: Iterable[ScenarioConfig]) -> None:
    """Raise one ConfigError with every scenario's problems, each listed once."""
    problems: dict[str, None] = {}
    for config in configs:
        problems.update(dict.fromkeys(validate_scenario(config)))
    if problems:
        raise ConfigError(list(problems))


def _crossing_margin(segment: tuple[float, float], max_voltage_v: float) -> float:
    """How far above the cutoff a discharge along ``segment`` must be at a
    tick T for its crossing tick to fall after T. A discharge is monotone
    and steepest at the highest voltage; a crossing tick on or before T is
    at most half a tick before the crossing instant, so the voltage at T is
    at most half the steepest one-tick move above the cutoff. The margin is
    twice that move, plus 1e-9 V for the rounding of steps and solve."""
    v_inf, tau = segment
    return 2.0 * (max_voltage_v - v_inf) / tau * TICK_S + 1e-9


class Simulator:
    """Runs one scenario to completion and reports its metrics."""

    def __init__(self, config: ScenarioConfig) -> None:
        cap_params, self.g_load, tables, self._first_ns = _parts_of(config)
        self.config = config
        self.cap = Capacitor(cap_params)
        self.harvester = _build_harvester(config)
        self.metrics = Metrics()
        if config.trace:
            self.metrics.trace = TraceRecorder()
        self.gateway = Gateway()
        self.device = LorawanDevice(self, tables)
        self.now_ns = 0
        self.packet_period_ns = round(config.packet_period_s * NS_PER_S)
        self._duration_ns = round(config.duration_s * NS_PER_S)
        # Set from the harvester when the run starts.
        self.g_harv = 0.0
        self._heap: list[Event] = []
        self._seq = 0
        # The packet generation last scheduled, the tick of the first packet
        # held while the device is powered down (None while none is: a run
        # that starts depleted holds its first packet), and the number of
        # times the device woke to SLEEP.
        self._generation: Event | None = None
        self._missed_from_ns = self._first_ns if self.cap.depleted else None
        self._wakes = 0
        # The crossing wake-up armed.
        self._crossing_event: Event | None = None
        self._last_record_key: tuple[int, DeviceState] | None = None
        self._sample_step_ns = round(config.update_interval_s * NS_PER_S)
        self._next_sample_ns = self._sample_step_ns
        self._budgets = (
            self.device.ul_budget,
            self.gateway.rx1_budget,
            self.gateway.rx2_budget,
        )
        # The repeat search, None when the run is not eligible or a replay
        # reached the end: each anchor's period state, with each anchor of it
        # by its start, as its mark, the number of the log and the log's
        # length there; and the number of anchors kept.
        repeats = config.harvester == "constant" and not config.trace
        self._anchors: dict[tuple, dict[tuple, tuple[_Mark, int, int]]] | None = (
            {} if repeats else None
        )
        self._kept = 0
        # The log, None while none is kept: each capacitor step as the tick
        # and load of the update that ended it, each guard answer, and None
        # after the step that reached a crossing; and the number of logs
        # ended before it.
        self._steps: list | None = None
        self._logs = 0

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
        if self.metrics.trace is not None:
            self._record_trace()

    def _record_trace(self) -> None:
        """Record a row now in a traced run, once per tick and state: the
        capacitor's voltage, stepped from its last update as
        ``Capacitor.update`` steps where a cancelled entry has left it
        behind."""
        recorder = self.metrics.trace
        assert recorder is not None
        now = self.now_ns
        state = self.device.state
        key = (now, state)
        if key == self._last_record_key:
            return
        self._last_record_key = key
        cap = self.cap
        v = cap.voltage_v
        if cap.last_update_ns != now:
            segment = cap.segment(self.g_load[state], self.g_harv)
            a, b = step_coefficients(now - cap.last_update_ns, segment)
            v = min(a + v * b, cap.params.max_voltage_v)
        recorder.record(now / NS_PER_S, v, _STATE_NAMES[state])

    def _sample_trace(self, until_ns: int) -> None:
        """Record the grid samples strictly before ``until_ns`` in a traced
        run, as one span.

        Each voltage is propagated in closed form from the capacitor's last
        update under the current load and harvest, when the trace is
        written; the capacitor itself is left untouched. A grid instant at
        ``until_ns`` is skipped: the record made when the clock moves there
        covers it.
        """
        t_ns = self._next_sample_ns
        if t_ns > until_ns:
            return
        recorder = self.metrics.trace
        assert recorder is not None
        state = self.device.state
        cap = self.cap
        step = self._sample_step_ns
        times = range(t_ns, until_ns, step)
        recorder.record_samples(
            times,
            cap.last_update_ns,
            cap.voltage_v,
            cap.segment(self.g_load[state], self.g_harv),
            cap.params.max_voltage_v,
            _STATE_NAMES[state],
        )
        t_ns += len(times) * step
        if t_ns == until_ns:
            t_ns += step
        self._next_sample_ns = t_ns

    def _crossed(self, tick: int, event: Event | None) -> None:
        """Handle the crossing at ``tick`` that the update to ``event``'s time
        reached, or, ``event`` None, the run's last update: tell the device;
        within the run, log it for a replay, and hold the packet generation
        on a depletion (cancelling it if it is ``event``) or anchor on a
        recharge."""
        depleted = self.cap.depleted
        (self.device.on_depleted if depleted else self.device.on_recharged)(tick)
        if event is None:
            return
        steps = self._steps
        if steps is not None:
            steps.append(None)
        # A depletion during the turn-on finds packets held, and no
        # generation scheduled.
        if depleted and self._missed_from_ns is None:
            generation = self._generation
            assert generation is not None
            if generation is event:
                self.cancel(event)
            else:
                self._heap.remove(generation)
                heapq.heapify(self._heap)
            self._missed_from_ns = generation[0]
        elif not depleted and self._anchors is not None:
            self._anchor()

    def _follow_crossing(self) -> None:
        """Keep the one wake-up on the capacitor's crossing tick; run after
        each live entry's action. The wake-up moves only when that tick
        moved: a new load or harvest, a crossing or a replay. A crossing
        always moves it, past the crossing and any copies replayed.
        """
        cap = self.cap
        delay_ns = cap.next_crossing_ns(self.g_load[self.device.state], self.g_harv)
        tick = None if delay_ns is None else cap.last_update_ns + delay_ns
        armed = self._crossing_event
        if (None if armed is None else armed[0]) != tick:
            if armed is not None:
                self.cancel(armed)
            self._crossing_event = None if tick is None else self.schedule_at_ns(tick, _noop)

    # -- recurring drivers ---------------------------------------------------

    def _on_generate(self) -> None:
        self._generation = self.schedule_at_ns(self.now_ns + self.packet_period_ns, self._on_generate)
        if self._anchors is not None:
            self._anchor()
        self.device.on_generate()

    def log_guard(self, proceed: bool) -> None:
        """Called with each answer of the energy guard, which a copy of the
        stretch being logged must give again at the same place."""
        steps = self._steps
        if steps is not None:
            steps.append(proceed)

    def _fail_held(self, until_ns: int) -> int:
        """Fail each packet held since ``_missed_from_ns`` and due before
        ``until_ns`` for want of energy, at its own tick and with the next
        packet id, or leave it uncounted when ``generate_while_off`` is off.
        The first one's record is logged, and the others as its copies.
        Returns the tick of the first packet not yet due."""
        missed_from = self._missed_from_ns
        assert missed_from is not None
        period = self.packet_period_ns
        held = len(range(missed_from, until_ns, period))
        if held and self.config.generate_while_off:
            metrics = self.metrics
            cycles = metrics.cycles
            cycles._append(CycleRecord(
                metrics.generated + 1, self.device.kind, missed_from, missed_from,
                CycleOutcome.FAILED_ENERGY,
            ))
            cycles._copy(len(cycles) - 1, held - 1, 1, period)
            metrics.outcomes[CycleOutcome.FAILED_ENERGY] += held
            metrics.generated += held
        return missed_from + held * period

    def resume_packets(self) -> None:
        """Called as the device wakes to SLEEP: fail the packets held while
        it was powered down, up to and including now, and schedule the next."""
        next_ns = self._fail_held(self.now_ns + 1)
        self._missed_from_ns = None
        self._wakes += 1
        self._generation = self.schedule_at_ns(next_ns, self._on_generate)

    def _on_harvest_change(self) -> None:
        now_s = self.now_ns / NS_PER_S
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

    # -- replay of a repeating stretch ------------------------------------------

    def _period_state(self) -> tuple:
        """Everything the run from an anchor on depends on but the
        capacitor: the live heap entries but the crossing wake-up, and each
        duty budget's block, relative to now, the entries in the order they
        pop in; and, while packets are held, the number of wakes so far.
        A held packet keeps its own tick, and a wake before it falls due
        holds it again at the next depletion: two recharges with the same
        wake count lie in one powered-down stretch, holding the same packet.
        """
        now = self.now_ns
        armed = self._crossing_event
        return (
            tuple([
                (entry[0] - now, entry[2])
                for entry in sorted(self._heap)
                if not entry[3] and entry is not armed
            ]),
            tuple([blocked - now if blocked > now else 0 for blocked in map(_blocked, self._budgets)]),
            None if self._missed_from_ns is None else self._wakes,
        )

    def _anchor(self) -> None:
        """Replay the stretch since an earlier anchor of the same period
        state, or keep this one for a later anchor.

        Called at each packet generation and each recharge of a
        constant-harvest, untraced run, until a replay reaches the end. An
        anchor is a generation that finds the device asleep with no open
        cycle, or a recharge while packets are held, either with the uplink
        band free: a run bound by its duty budget finds the band blocked for
        another time at nearly every generation, where an anchor would cost
        its mark and seldom match. At most ``_REPEAT_MEMORY`` anchors are
        kept. The log is started at an anchor, ended after each replay, and
        dropped past ``_REPEAT_MEMORY`` entries. The anchors kept with this
        one's ``_period_state`` are tried in turn (``_replay``): first one
        whose start this one repeats, an exact orbit, then each from the
        latest back, as inside a longer orbit a short stretch may match and
        fail where the whole orbit holds.
        """
        anchors = self._anchors
        assert anchors is not None
        steps = self._steps
        if steps is not None and len(steps) > _REPEAT_MEMORY:
            self._logs += 1
            self._steps = steps = None
        device = self.device
        if device.ul_budget.blocked_until_ns > self.now_ns or (
            self._missed_from_ns is None
            and (device.cycle is not None or device.state is not DeviceState.SLEEP)
        ):
            return
        key = self._period_state()
        mark = self._mark()
        kept = anchors.get(key)
        if kept is None:
            kept = anchors[key] = {}
        else:
            exact = kept.get(mark.start)
            tries = reversed(kept.values())
            for earlier, log, at in tries if exact is None else chain((exact,), tries):
                after = self._replay(earlier, mark, at if log == self._logs else None)
                if after is None:
                    self._anchors = self._steps = None
                    return
                if after is not mark:
                    mark = after
                    self._logs += 1  # the log holds none of the copies
                    steps = None
                    break
        if steps is None:
            self._steps = steps = []
        if self._kept == _REPEAT_MEMORY:
            anchors.clear()
            kept = anchors[key] = {}
            self._kept = 0
        self._kept += 1
        kept[mark.start] = (mark, self._logs, len(steps))

    def _mark(self) -> _Mark:
        metrics = self.metrics
        cap = self.cap
        # The crossing tick of the trajectory under way, the one the
        # capacitor solved for the device asleep at a generation; none just
        # after a recharge's crossing, while packets are held.
        cross = None
        if self._missed_from_ns is None:
            cross = cap.next_crossing_ns(self.g_load[self.device.state], self.g_harv)
        return _Mark(
            self.now_ns,
            (cap.voltage_v, cross),
            _counts(metrics),
            len(metrics.cycles),
            tuple(metrics.outcomes.values()),
            tuple(map(_airtime, self._budgets)),
        )

    def _copies_left(self, length_ns: int) -> int:
        """How many stretches of ``length_ns`` from now fit before the end:
        every event skipped must fall before it, as must the new ``now``."""
        return (self._duration_ns - 1 - self.now_ns) // length_ns

    def _skip(self, earlier: _Mark, mark: _Mark, copies: int) -> None:
        """Add the stretch from ``earlier`` to ``mark``, which is now,
        ``copies`` times, and move the clock past those copies."""
        length = mark.time_ns - earlier.time_ns
        metrics = self.metrics
        delta = {
            name: now - then
            for name, now, then in zip(_COPY_COUNTERS, mark.counts, earlier.counts)
        }
        for name, step in delta.items():
            setattr(metrics, name, getattr(metrics, name) + copies * step)
        outcomes = metrics.outcomes
        for outcome, now, then in zip(_OUTCOMES, mark.outcomes, earlier.outcomes):
            outcomes[outcome] += copies * (now - then)
        # Each packet generated took the next packet id, and every record
        # logged is of a packet generated in the stretch. A boot loop logs
        # none: its packets are held until the device wakes.
        metrics.cycles._copy(earlier.cycles, copies, delta["generated"], length)
        shift = copies * length
        for budget, now_total, then_total in zip(self._budgets, mark.airtimes, earlier.airtimes):
            airtime_ns = now_total - then_total
            budget.airtime_total_ns += copies * airtime_ns
            if airtime_ns:  # a budget unused in the stretch keeps its past block
                budget.blocked_until_ns += shift
        self.now_ns += shift
        self.cap.shift(shift)
        for event in self._heap:
            event[0] += shift

    def _ending(self, depleted: bool, segment: tuple[float, float] | None) -> tuple:
        """What a copy checks where a trajectory along ``segment`` ends with
        no crossing: nothing if it never reaches its threshold, else
        ``(depleted, segment, margin)``; a discharge is solved only within
        ``_crossing_margin`` of the cutoff, a charge (margin None) always."""
        params = self.cap.params
        if segment is None or (
            segment[0] <= params.v_th_high_v if depleted else segment[0] > params.v_th_low_v
        ):
            return ()
        return depleted, segment, None if depleted else _crossing_margin(segment, params.max_voltage_v)

    def _template(self, start_ns: int, at: int, under: float | None, end: tuple | None, ops: list) -> Iterator:
        """Yield the log from entry ``at``, logged from ``start_ns``, as a
        replay takes it, each entry once it is appended to ``ops``. The
        stretch starts powered up on the trajectory under the load ``under``,
        which ends as ``end`` says (``_ending``), or just after a crossing,
        ``under`` and ``end`` None.

        A guard answer stays as it is, and a crossing becomes a
        ``_Crossing`` of the trajectory under way. A capacitor step becomes
        ``(tick, a, b, end)``: ``step_coefficients``, and ``end`` None on a
        step along the trajectory under way. A step under another load, or
        the first after a crossing, starts a trajectory, which the capacitor
        solves afresh where it starts; its ``end`` is what a copy checks
        where the trajectory before it ended. A zero-length step moves no
        voltage, but may start a trajectory. A replayed run's harvest is
        constant, so the load alone tells one trajectory from another.
        """
        params = self.cap.params
        trajectory = self.cap.segment
        g_harv = self.g_harv
        # A crossing on the trajectory under way at the start is along it.
        segment = None if under is None else trajectory(under, g_harv)
        depleted = False
        last_ns = start_ns
        for entry in islice(self._steps, at, None):
            if entry.__class__ is bool:
                op = entry
            elif entry is None:
                target = params.v_th_high_v if depleted else params.v_th_low_v
                op = _Crossing(depleted, segment, target)
                depleted = not depleted
                under = end = None
            else:
                time_ns, g_load = entry
                before = None
                if g_load != under:
                    segment = trajectory(g_load, g_harv)
                    before, under, end = end or (), g_load, self._ending(depleted, segment)
                a, b = step_coefficients(time_ns - last_ns, segment)
                op = (time_ns, a, b, before)
                last_ns = time_ns
            ops.append(op)
            yield op

    def _replay(self, earlier: _Mark, mark: _Mark, at: int | None) -> _Mark | None:
        """Add the copies of the stretch from ``earlier`` to ``mark``, which
        is now, that repeat it with only the voltage changed. Returns the
        mark of the run where the copies end, or None if they reach the end.

        The stretch is the log from entry ``at`` on. A copy takes its steps
        from its own start with ``step_coefficients``, as
        ``Capacitor.update`` does, and repeats it exactly if the guard gives every answer again
        and each trajectory's crossing tick, solved where it starts as
        ``Capacitor`` solves it, falls after the trajectory's last step, or
        on it where the stretch crossed, the voltage then snapped alike. All
        else depends on the clock only. The copies are replayed one by one
        up to the first that fails or the end of the run; once a copy starts
        where an earlier one did, the rest are periodic. With ``at`` None,
        only an exact orbit, a copy that starts where the stretch did, is
        known to repeat it. The copies that hold are added (``_skip``).
        """
        length = mark.time_ns - earlier.time_ns
        fit = self._copies_left(length)
        if fit <= 0:
            return mark
        v, cross = mark.start
        if at is None and mark.start != earlier.start:
            return mark
        # The stretch starts and ends as this anchor does: on the trajectory
        # under way at a generation, on none just after a recharge's
        # crossing, which leaves no crossing tick to carry (``final`` None).
        # Its first copy takes it as it is converted, and stops converting
        # it where it fails.
        under = final = None
        if self._missed_from_ns is None:
            under = self.g_load[self.device.state]
            final = self._ending(False, self.cap.segment(under, self.g_harv))
        ops: list = []
        template = self._template(earlier.time_ns, at, under, final, ops)
        params = self.cap.params
        vmax = params.max_voltage_v
        v_low = params.v_th_low_v
        allows = self.device.guard_allows
        start_ns = earlier.time_ns
        # Each copy's start (v, cross) seen, with the number of copies
        # before it; ``starts[k]`` is the start after ``base + k`` copies.
        # The stretch itself is copy -1, so a copy that starts where it did
        # ends an exact orbit.
        seen: dict[tuple, int] = {earlier.start: -1}
        starts: list[tuple] = [earlier.start]
        base = -1
        copies = 0
        while copies < fit:
            start = (v, cross)
            first = seen.get(start)
            if first is not None:
                v, cross = starts[first - base + (fit - first) % (copies - first)]
                copies = fit
                break
            if len(seen) == _REPEAT_MEMORY:
                seen.clear()
                starts.clear()
                base = copies
            seen[start] = copies
            starts.append(start)
            # The copy, on the stretch's own ticks. The crossing tick of the
            # trajectory under way is carried from the copy before while
            # ``t_start`` is None.
            v_copy, last, t_start = v, start_ns, None
            cross_copy = None if cross is None else start_ns + cross
            for op in ops if copies else template:
                kind = op.__class__
                if kind is bool:
                    if allows(v_copy) is not op:
                        break
                    continue
                if kind is _Crossing:
                    depleted, segment, target = op
                    if t_start is not None:
                        cross_copy = crossing_tick(v_start, t_start, depleted, segment, params)
                    if cross_copy != last:
                        break
                    v_copy = crossing_voltage(v_copy, segment, target)
                    cross_copy = None
                    continue
                tick, a, b, end = op
                if end is not None:
                    if end and t_start is not None:
                        depleted, segment, margin = end
                        cross_copy = None
                        if margin is None or v_copy - v_low <= margin:
                            cross_copy = crossing_tick(v_start, t_start, depleted, segment, params)
                    if cross_copy is not None and cross_copy <= last:
                        break
                    v_start, t_start = v_copy, last
                    cross_copy = None
                if tick != last:
                    v_copy = a + v_copy * b
                    if v_copy > vmax:
                        v_copy = vmax
                    last = tick
            else:
                # A stretch from a recharge (``final`` None) ends with that
                # recharge's crossing, which left no crossing tick.
                if t_start is not None and final:
                    cross_copy = crossing_tick(v_start, t_start, final[0], final[1], params)
                if cross_copy is None or cross_copy > last:
                    v = v_copy
                    cross = None if cross_copy is None else cross_copy - mark.time_ns
                    copies += 1
                    continue
            break
        if copies == 0:
            return mark
        self._skip(earlier, mark, copies)
        # The capacitor takes the voltage and crossing tick the copies ended
        # at; the wake-up follows it once the anchor's event is done.
        self.cap.replayed(v, None if cross is None else self.now_ns + cross)
        return None if copies == fit else self._mark()

    # -- main loop ------------------------------------------------------------

    def run(self) -> Metrics:
        duration_ns = self._duration_ns
        heap = self._heap
        update = self.cap.update
        device = self.device
        g_load = self.g_load
        sample_trace = self._sample_trace
        record_trace = self._record_trace
        follow_crossing = self._follow_crossing
        traced = self.metrics.trace is not None
        try:
            if traced:
                record_trace()
            self._on_harvest_change()
            if self._missed_from_ns is None:
                self._generation = self.schedule_at_ns(self._first_ns, self._on_generate)
            follow_crossing()
            while heap:
                event = heapq.heappop(heap)
                time_ns = event[0]
                if time_ns >= duration_ns:
                    break
                if traced:
                    sample_trace(time_ns)
                self.now_ns = time_ns
                # A cancelled entry leaves the capacitor alone; a traced run
                # still records a row at its time.
                if event[3]:
                    if traced:
                        record_trace()
                    continue
                # The capacitor is brought up to a live event's time first,
                # so a threshold crossing is handled before the event's own
                # logic.
                g = g_load[device.state]
                tick = update(time_ns, g, self.g_harv)
                steps = self._steps
                if steps is not None:
                    steps.append((time_ns, g))
                if tick is not None:
                    self._crossed(tick, event)
                if traced:
                    record_trace()
                # Read again after a crossing: a depletion cancels the
                # device's pending event or the generation, either may be
                # this one.
                if not event[3]:
                    event[2]()
                follow_crossing()
            if traced:
                sample_trace(duration_ns)
            self.now_ns = duration_ns
            tick = update(duration_ns, g_load[device.state], self.g_harv)
            if tick is not None:
                self._crossed(tick, None)
            if traced:
                record_trace()
        except TraceExhaustedError:
            self.metrics.valid = False
        # A held packet due on the last tick, that of an aborted run too,
        # falls past the end and is not counted.
        if self._missed_from_ns is not None:
            self._fail_held(self.now_ns)
        self.device.finalize(self.now_ns)
        self.metrics.final_voltage_v = self.cap.voltage_v
        self.metrics.ul_airtime_s = self.device.ul_budget.airtime_total_ns / NS_PER_S
        self.metrics.max_ul_airtime_s = self.device.ul_budget.max_airtime_s
        return self.metrics


def run_scenario(config: ScenarioConfig) -> Metrics:
    return Simulator(config).run()
