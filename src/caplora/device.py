"""Class A end-device behaviour: transmission cycles, receive windows,
duty-cycle deferral, the pre-transmission energy guard, and the network
side that answers confirmed uplinks."""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .clock import NS_PER_S
from .energy import min_voltage_over_played, played_segments
from .lorawan import (
    DeviceState,
    DutyCycleBudget,
    LorawanParams,
    RX2_SPREADING_FACTOR,
    _SlotsRecord,
)

if TYPE_CHECKING:
    from .engine import Event, Simulator

class DlReply(Enum):
    """Which receive window, if any, carries the downlink answer."""

    NONE = "none"
    IN_RX1 = "in_rx1"
    IN_RX2 = "in_rx2"


class CycleOutcome(str, Enum):
    DELIVERED = "delivered"
    ACKED = "acked"
    FAILED_ENERGY = "failed_energy"
    SKIPPED_GUARD = "skipped_guard"
    FAILED_DUTY_CYCLE = "failed_duty_cycle"
    FAILED_BUSY = "failed_busy"

    def __str__(self) -> str:
        return self.value


class CycleRecord(NamedTuple):
    """Fate of one generated packet, with its clock times in nanoseconds."""

    packet_id: int
    kind: str  # "UL" or "UL+DL"
    start_ns: int
    end_ns: int
    outcome: CycleOutcome


def post_tx_sequence(
    params: LorawanParams, reply: DlReply
) -> list[tuple[DeviceState, float]]:
    """Device states walked after a completed uplink, with durations.

    The device takes a brief standby, idles until the first window, then
    either receives the downlink, or listens through both windows. A downlink
    in window 1 means window 2 is never opened.
    """
    sb = params.standby_brief_s
    segments: list[tuple[DeviceState, float]] = [
        (DeviceState.STANDBY, sb),
        (DeviceState.IDLE, params.rx1_delay_s - sb),
    ]
    if reply is DlReply.IN_RX1:
        segments.append((DeviceState.RX, params.dl_time_on_air(params.sf)))
        segments.append((DeviceState.STANDBY, sb))
        return segments
    w1 = params.rx1_window_s()
    segments.append((DeviceState.STANDBY, w1))
    segments.append(
        (DeviceState.IDLE, params.rx2_delay_s - params.rx1_delay_s - w1)
    )
    if reply is DlReply.IN_RX2:
        segments.append(
            (DeviceState.RX, params.dl_time_on_air(RX2_SPREADING_FACTOR))
        )
    else:
        segments.append((DeviceState.STANDBY, params.rx2_window_s()))
    segments.append((DeviceState.STANDBY, sb))
    return segments


def cycle_states(
    params: LorawanParams, reply: DlReply | None
) -> list[tuple[DeviceState, float]]:
    """Device states of one transmission cycle, with durations.

    With ``reply=None`` the cycle is the uplink alone; otherwise it carries
    on through ``post_tx_sequence(params, reply)`` up to the trailing
    standby before sleep, which it leaves out.
    """
    states = [(DeviceState.TX, params.ul_time_on_air())]
    if reply is not None:
        states.extend(post_tx_sequence(params, reply)[:-1])
    return states


# The cycle each energy-guard horizon looks ahead over: ``tx`` the uplink
# alone, ``cycle`` through the close of an empty second receive window.
GUARD_HORIZON_REPLIES = {"tx": None, "cycle": DlReply.NONE}


# The gateway's duty budgets: window 1 replies share the uplink band's 1%,
# window 2 uses the dedicated downlink channel's 10%.
RX1_DUTY_CYCLE = 0.01
RX2_DUTY_CYCLE = 0.10


class Gateway:
    """Network side: answers confirmed uplinks within its own duty budgets
    (``RX1_DUTY_CYCLE`` and ``RX2_DUTY_CYCLE``). The reply goes out in the
    earliest window whose band is free.
    """

    def __init__(self) -> None:
        self.rx1_budget = DutyCycleBudget(RX1_DUTY_CYCLE)
        self.rx2_budget = DutyCycleBudget(RX2_DUTY_CYCLE)

    def plan_reply(
        self, tx_end_ns: int, params: LorawanParams, dl_airtimes_s: tuple[float, float]
    ) -> DlReply:
        """The window of the reply to an uplink that ended at ``tx_end_ns``,
        given the reply's airtimes in windows 1 and 2 (``params.dl_airtimes_s()``)."""
        if not params.confirmed:
            return DlReply.NONE
        toa1, toa2 = dl_airtimes_s
        rx1_start = tx_end_ns + round(params.rx1_delay_s * NS_PER_S)
        if self.rx1_budget.allows(rx1_start):
            self.rx1_budget.register(rx1_start, toa1)
            return DlReply.IN_RX1
        rx2_start = tx_end_ns + round(params.rx2_delay_s * NS_PER_S)
        if self.rx2_budget.allows(rx2_start):
            self.rx2_budget.register(rx2_start, toa2)
            return DlReply.IN_RX2
        return DlReply.NONE


class _Cycle(_SlotsRecord):
    __slots__ = ("packet_id", "start_ns", "attempts", "delivered")

    def __init__(
        self, packet_id: int, start_ns: int, attempts: int = 0, delivered: bool = False
    ) -> None:
        self.packet_id = packet_id
        self.start_ns = start_ns
        self.attempts = attempts
        self.delivered = delivered


def cycle_tables(
    params: LorawanParams, guard_horizon: str, g_load: Mapping[DeviceState, float]
) -> tuple:
    """What every cycle of a device with ``params`` walks, in clock ticks:
    the params, the uplink's airtime and ticks, the reboot's ticks, the
    downlink airtimes, the post-TX steps per reply and the ``(duration,
    g_load)`` segments the ``guard_horizon`` looks ahead over, each state's
    load conductance from ``g_load``. The mapping is read-only, so the
    tables can be shared by every device built from them."""
    ul_s = params.ul_time_on_air()
    # The replies' sequences repeat steps; each distinct step is one pair,
    # which keeps small the tables kept for every valid scenario.
    steps: dict[tuple[DeviceState, float], tuple[DeviceState, int]] = {}
    post_tx = {
        reply: tuple(
            steps.setdefault(step, (step[0], round(step[1] * NS_PER_S)))
            for step in post_tx_sequence(params, reply)
        )
        for reply in DlReply
    }
    horizon = tuple(
        (duration, g_load[state])
        for state, duration in cycle_states(params, GUARD_HORIZON_REPLIES[guard_horizon])
    )
    return (params, ul_s, round(ul_s * NS_PER_S), round(params.turn_on_s * NS_PER_S),
            params.dl_airtimes_s(), MappingProxyType(post_tx), horizon)


class LorawanDevice:
    """Event-driven end device. The simulator owns time and the capacitor;
    the device reacts to packet generation and threshold notifications."""

    def __init__(self, sim: Simulator, tables: tuple) -> None:
        self.sim = sim
        (self.params, self._ul_time_on_air_s, self._ul_ticks, self._turn_on_ticks,
         self._dl_airtimes_s, self._post_tx, self._guard_horizon) = tables
        self.state = (
            DeviceState.OFF if sim.cap.depleted else DeviceState.SLEEP
        )
        self.ul_budget = DutyCycleBudget(self.params.ul_duty_cycle)
        self.cycle: _Cycle | None = None
        # The device's one scheduled event that may not have fired yet. There
        # is never a second: ``on_generate`` starts a cycle only while asleep.
        self._pending: Event | None = None
        self._off_since_ns: int | None = 0 if self.state is DeviceState.OFF else None
        # The post-TX steps being walked, and the index of the next one.
        self._steps: tuple[tuple[DeviceState, int], ...] = ()
        self._step = 0
        # The guard's horizon played at the harvest conductance
        # ``_played_g_harv``, None before the first answer: played again
        # only when the harvest changes.
        self._played: tuple[tuple[float, float, float], ...] = ()
        self._played_g_harv: float | None = None

    @property
    def kind(self) -> str:
        return "UL+DL" if self.params.confirmed else "UL"

    # -- packet generation ------------------------------------------------

    def on_generate(self) -> None:
        """A packet falls due while the device is powered up; the simulator
        settles the ones due while it is down (``Simulator.resume_packets``)."""
        now = self.sim.now_ns
        self.sim.metrics.generated += 1
        packet_id = self.sim.metrics.generated
        # An acknowledged cycle is closed while its trailing standby still
        # runs; a new cycle must wait until the device is back asleep.
        if self.cycle is not None or self.state is not DeviceState.SLEEP:
            self._record(packet_id, now, now, CycleOutcome.FAILED_BUSY)
            return
        self.cycle = _Cycle(packet_id, now)
        self._attempt_transmission()

    def _attempt_transmission(self) -> None:
        assert self.cycle is not None
        now = self.sim.now_ns
        allowed = self.ul_budget.next_allowed(now)
        if allowed > now:
            # A packet kept waiting past its successor's slot is stale.
            if allowed >= self.cycle.start_ns + self.sim.packet_period_ns:
                self._finish(CycleOutcome.FAILED_DUTY_CYCLE)
                return
            self._pending = self.sim.schedule_at_ns(allowed, self._attempt_transmission)
            return
        if self.sim.config.guard_enabled:
            proceed = self.guard_allows(self.sim.cap.voltage_v)
            self.sim.log_guard(proceed)
            if not proceed:
                self.sim.metrics.skipped_by_guard += 1
                self._finish(CycleOutcome.SKIPPED_GUARD)
                return
        self.cycle.attempts += 1
        toa = self._ul_time_on_air_s
        self.ul_budget.register(now, toa)
        self.sim.set_device_state(DeviceState.TX)
        self._pending = self.sim.schedule_at_ns(now + self._ul_ticks, self._on_tx_end)

    def guard_allows(self, voltage_v: float) -> bool:
        """Whether a transmission may start at ``voltage_v``: the guard's
        horizon, played at the current harvest (again only once it changed),
        keeps the voltage at or above the cutoff threshold throughout."""
        cap_params = self.sim.cap.params
        g_harv = self.sim.g_harv
        if g_harv != self._played_g_harv:
            self._played = played_segments(self._guard_horizon, g_harv, cap_params.rail_voltage_v)
            self._played_g_harv = g_harv
        predicted = min_voltage_over_played(
            voltage_v, self._played, cap_params.capacitance_f, cap_params.max_voltage_v
        )
        return predicted >= cap_params.v_th_low_v

    def _on_tx_end(self) -> None:
        assert self.cycle is not None
        if not self.cycle.delivered:
            self.cycle.delivered = True
            self.sim.metrics.delivered_ul += 1
        reply = self.sim.gateway.plan_reply(self.sim.now_ns, self.params, self._dl_airtimes_s)
        self._steps = self._post_tx[reply]
        self._step = 0
        self._walk()

    def _walk(self) -> None:
        """End the post-TX step that just ran, if any, and start the next."""
        steps, i = self._steps, self._step
        if i and steps[i - 1][0] is DeviceState.RX:
            self._on_ack_received()
        if i == len(steps):
            self._on_windows_done()
            return
        state, ticks = steps[i]
        self._step = i + 1
        self.sim.set_device_state(state)
        self._pending = self.sim.schedule_at_ns(self.sim.now_ns + ticks, self._walk)

    def _on_ack_received(self) -> None:
        # The cycle succeeds the moment the downlink is fully received; a
        # depletion during the trailing standby no longer changes that. Only
        # a confirmed cycle receives, and a depletion cancels the step that
        # would end the reception, so the cycle is still open here.
        self.sim.metrics.acked += 1
        self._finish(CycleOutcome.ACKED)

    def _on_windows_done(self) -> None:
        self.sim.set_device_state(DeviceState.SLEEP)
        if self.cycle is None:
            return
        if not self.params.confirmed:
            self._finish(CycleOutcome.DELIVERED)
            return
        if self.cycle.attempts < self.params.max_transmissions:
            self._attempt_transmission()
            return
        self._finish(CycleOutcome.DELIVERED)

    # -- threshold notifications ------------------------------------------

    def on_depleted(self, when_ns: int) -> None:
        self._cancel_pending()
        if self.cycle is not None:
            self._finish(CycleOutcome.FAILED_ENERGY, when_ns)
        self.sim.metrics.depletion_events += 1
        self._off_since_ns = when_ns
        self.sim.set_device_state(DeviceState.OFF)

    def on_recharged(self, when_ns: int) -> None:
        if self._off_since_ns is not None:
            self.sim.metrics.off_time_ns += when_ns - self._off_since_ns
            self._off_since_ns = None
        self.sim.set_device_state(DeviceState.TURN_ON)
        self._pending = self.sim.schedule_at_ns(
            self.sim.now_ns + self._turn_on_ticks, self._on_turned_on
        )

    def _on_turned_on(self) -> None:
        self.sim.set_device_state(DeviceState.SLEEP)
        self.sim.resume_packets()

    def finalize(self, end_ns: int) -> None:
        """Close open accounting at the end of the run."""
        if self._off_since_ns is not None:
            self.sim.metrics.off_time_ns += end_ns - self._off_since_ns
            self._off_since_ns = None

    # -- helpers -----------------------------------------------------------

    def _finish(self, outcome: CycleOutcome, end_ns: int | None = None) -> None:
        """Close the open cycle, ending now or at ``end_ns`` (a crossing's time)."""
        assert self.cycle is not None
        end_ns = self.sim.now_ns if end_ns is None else end_ns
        self._record(self.cycle.packet_id, self.cycle.start_ns, end_ns, outcome)
        self.cycle = None

    def _record(self, packet_id: int, start_ns: int, end_ns: int, outcome: CycleOutcome) -> None:
        metrics = self.sim.metrics
        metrics.cycles._append(CycleRecord(packet_id, self.kind, start_ns, end_ns, outcome))
        metrics.outcomes[outcome] += 1

    def _cancel_pending(self) -> None:
        if self._pending is not None:
            self.sim.cancel(self._pending)
            self._pending = None
