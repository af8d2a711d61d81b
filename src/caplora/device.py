"""Class A end-device behaviour: transmission cycles, receive windows,
duty-cycle deferral, the pre-transmission energy guard, and the network
side that answers confirmed uplinks."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .clock import NS_PER_S
from .energy import CapacitorParams, min_voltage_over_segments
from .lorawan import (
    DeviceState,
    DutyCycleBudget,
    LorawanParams,
    RX2_SPREADING_FACTOR,
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


@dataclass(frozen=True)
class CycleRecord:
    """Fate of one generated packet."""

    packet_id: int
    kind: str  # "UL" or "UL+DL"
    start_s: float
    end_s: float
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


def guard_segments(
    params: LorawanParams, horizon: str
) -> list[tuple[DeviceState, float]]:
    """Segments the energy guard looks ahead over before transmitting.

    ``tx`` covers the uplink alone; ``cycle`` extends through the close of an
    empty second receive window.
    """
    segments = [(DeviceState.TX, params.ul_time_on_air())]
    if horizon == "cycle":
        segments.extend(post_tx_sequence(params, DlReply.NONE)[:-1])
    elif horizon != "tx":
        raise ValueError(f"unknown guard horizon {horizon!r}")
    return segments


def smart_tx_guard(
    voltage_v: float,
    params: LorawanParams,
    g_load: dict[DeviceState, float],
    g_harv: float,
    cap_params: CapacitorParams,
    horizon: str = "tx",
) -> bool:
    """Decide whether a transmission may start.

    Plays the guarded horizon forward in closed form, holding the current
    harvest rate, and vetoes the attempt if the predicted voltage would fall
    below the cutoff threshold anywhere along it.
    """
    segments = [
        (duration, g_load[state]) for state, duration in guard_segments(params, horizon)
    ]
    predicted = min_voltage_over_segments(voltage_v, segments, g_harv, cap_params)
    return predicted >= cap_params.v_th_low_v


class Gateway:
    """Network side: answers confirmed uplinks within its own duty budgets.

    Window 1 replies share the uplink band and its 1% budget; window 2 uses
    the dedicated downlink channel with a 10% budget. The reply goes out in
    the earliest window whose band is free.
    """

    def __init__(self, rx1_duty_cycle: float = 0.01, rx2_duty_cycle: float = 0.10):
        self.rx1_budget = DutyCycleBudget(rx1_duty_cycle)
        self.rx2_budget = DutyCycleBudget(rx2_duty_cycle)

    def plan_reply(self, tx_end_ns: int, params: LorawanParams) -> DlReply:
        """The window of the reply to an uplink that ended at ``tx_end_ns``."""
        if not params.confirmed:
            return DlReply.NONE
        rx1_start = tx_end_ns + round(params.rx1_delay_s * NS_PER_S)
        toa1 = params.dl_time_on_air(params.sf)
        if self.rx1_budget.allows(rx1_start):
            self.rx1_budget.register(rx1_start, toa1)
            return DlReply.IN_RX1
        rx2_start = tx_end_ns + round(params.rx2_delay_s * NS_PER_S)
        toa2 = params.dl_time_on_air(RX2_SPREADING_FACTOR)
        if self.rx2_budget.allows(rx2_start):
            self.rx2_budget.register(rx2_start, toa2)
            return DlReply.IN_RX2
        return DlReply.NONE


@dataclass
class _Cycle:
    packet_id: int
    start_ns: int
    attempts: int = 0
    delivered: bool = False
    ack_received: bool = False


class LorawanDevice:
    """Event-driven end device. The simulator owns time and the capacitor;
    the device reacts to packet generation and threshold notifications."""

    def __init__(self, sim: Simulator, params: LorawanParams) -> None:
        self.sim = sim
        self.params = params
        self.state = (
            DeviceState.OFF if sim.cap.depleted else DeviceState.SLEEP
        )
        self.ul_budget = DutyCycleBudget(params.ul_duty_cycle)
        self.cycle: _Cycle | None = None
        # The device's one scheduled event that may not have fired yet. There
        # is never a second: ``on_generate`` starts a cycle only while asleep.
        self._pending: Event | None = None
        self._off_since_s: float | None = 0.0 if self.state is DeviceState.OFF else None
        self._packet_counter = 0
        # When a list, the clock times (start, end) of every record made
        # are appended to it.
        self.record_log: list[tuple[int, int]] | None = None

    @property
    def kind(self) -> str:
        return "UL+DL" if self.params.confirmed else "UL"

    # -- packet generation ------------------------------------------------

    def on_generate(self) -> None:
        now = self.sim.now_ns
        powered_down = self.state in (DeviceState.OFF, DeviceState.TURN_ON)
        if powered_down and not self.sim.config.generate_while_off:
            return
        self._packet_counter += 1
        packet_id = self._packet_counter
        self.sim.metrics.generated += 1
        if powered_down:
            self._record(packet_id, now, CycleOutcome.FAILED_ENERGY)
            return
        # An acknowledged cycle is closed while its trailing standby still
        # runs; a new cycle must wait until the device is back asleep.
        if self.cycle is not None or self.state is not DeviceState.SLEEP:
            self._record(packet_id, now, CycleOutcome.FAILED_BUSY)
            return
        self.cycle = _Cycle(packet_id=packet_id, start_ns=now)
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
            proceed = smart_tx_guard(
                self.sim.cap.voltage_v,
                self.params,
                self.sim.g_load,
                self.sim.g_harv,
                self.sim.cap.params,
                self.sim.config.guard_horizon,
            )
            if not proceed:
                self.sim.metrics.skipped_by_guard += 1
                self._finish(CycleOutcome.SKIPPED_GUARD)
                return
        self.cycle.attempts += 1
        toa = self.params.ul_time_on_air()
        self.ul_budget.register(now, toa)
        self.sim.set_device_state(DeviceState.TX)
        self._pending = self.sim.schedule_in(toa, self._on_tx_end)

    def _on_tx_end(self) -> None:
        assert self.cycle is not None
        if not self.cycle.delivered:
            self.cycle.delivered = True
            self.sim.metrics.delivered_ul += 1
        reply = self.sim.gateway.plan_reply(self.sim.now_ns, self.params)
        self._walk_segments(post_tx_sequence(self.params, reply), reply)

    def _walk_segments(
        self, segments: list[tuple[DeviceState, float]], reply: DlReply
    ) -> None:
        if not segments:
            self._on_windows_done()
            return
        state, duration = segments[0]
        self.sim.set_device_state(state)
        is_reception = state is DeviceState.RX

        def advance_segment() -> None:
            if is_reception:
                self._on_ack_received()
            self._walk_segments(segments[1:], reply)

        self._pending = self.sim.schedule_in(duration, advance_segment)

    def _on_ack_received(self) -> None:
        # The cycle succeeds the moment the downlink is fully received; a
        # depletion during the trailing standby no longer changes that.
        if self.cycle is None or not self.params.confirmed:
            return
        self.cycle.ack_received = True
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

    def on_depleted(self, when_s: float) -> None:
        self._cancel_pending()
        if self.cycle is not None:
            self._finish(CycleOutcome.FAILED_ENERGY, when_s)
        self.sim.metrics.depletion_events += 1
        self._off_since_s = when_s
        self.sim.set_device_state(DeviceState.OFF)

    def on_recharged(self, when_s: float) -> None:
        if self._off_since_s is not None:
            self.sim.metrics.off_time_s += when_s - self._off_since_s
            self._off_since_s = None
        self.sim.set_device_state(DeviceState.TURN_ON)
        self._pending = self.sim.schedule_in(self.params.turn_on_s, self._on_turned_on)

    def _on_turned_on(self) -> None:
        self.sim.set_device_state(DeviceState.SLEEP)

    def finalize(self, end_s: float) -> None:
        """Close open accounting at the end of the run."""
        if self._off_since_s is not None:
            self.sim.metrics.off_time_s += end_s - self._off_since_s
            self._off_since_s = None

    # -- helpers -----------------------------------------------------------

    def _finish(self, outcome: CycleOutcome, end_s: float | None = None) -> None:
        assert self.cycle is not None
        self._record(self.cycle.packet_id, self.cycle.start_ns, outcome, end_s)
        self.cycle = None

    def _record(
        self,
        packet_id: int,
        start_ns: int,
        outcome: CycleOutcome,
        end_s: float | None = None,
    ) -> None:
        """Record a cycle that ends now, or at ``end_s`` (a crossing's time)."""
        end_ns = self.sim.now_ns
        if end_s is None:
            end_s = end_ns / NS_PER_S
        self.sim.metrics.cycles.append(
            CycleRecord(packet_id, self.kind, start_ns / NS_PER_S, end_s, outcome)
        )
        if self.record_log is not None:
            self.record_log.append((start_ns, end_ns))

    def _cancel_pending(self) -> None:
        if self._pending is not None:
            self.sim.cancel(self._pending)
            self._pending = None
