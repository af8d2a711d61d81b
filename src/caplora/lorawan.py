"""LoRaWAN Class A protocol arithmetic: spreading factors, time on air,
receive windows and duty-cycle budgets for the EU 868 MHz band."""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .clock import MAX_TICKS, NS_PER_S, number_problems
from .errors import ConfigError, shown


class DeviceState(str, Enum):
    """Radio and MCU power states of the end device."""

    OFF = "Off"
    TURN_ON = "TurnOn"
    SLEEP = "Sleep"
    TX = "Tx"
    IDLE = "Idle"
    STANDBY = "Standby"
    RX = "Rx"

    def __str__(self) -> str:
        return self.value


# Total current drawn in each state, in amperes. Overridable per scenario.
DEFAULT_CURRENTS_A: dict[DeviceState, float] = {
    DeviceState.OFF: 5.5e-6,
    DeviceState.TURN_ON: 15e-3,
    DeviceState.SLEEP: 5.6e-6,
    DeviceState.TX: 28.011e-3,
    DeviceState.IDLE: 7e-6,
    DeviceState.STANDBY: 10.5055e-3,
    DeviceState.RX: 11.011e-3,
}

MIN_DATA_RATE = 0
MAX_DATA_RATE = 5
RX2_SPREADING_FACTOR = 12


def data_rate_to_sf(data_rate: int) -> int:
    """Spreading factor used by an EU868 data rate (DR0..DR5)."""
    if not MIN_DATA_RATE <= data_rate <= MAX_DATA_RATE:
        raise ValueError(f"data rate must be in 0..5, got {data_rate}")
    return 12 - data_rate


def symbol_duration(sf: int, bandwidth_hz: float) -> float:
    """Duration of one chirp symbol in seconds."""
    if not 7 <= sf <= 12:
        raise ValueError(f"spreading factor must be in 7..12, got {sf}")
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth_hz}")
    return (2**sf) / bandwidth_hz


def time_on_air(
    payload_bytes: int,
    sf: int,
    bandwidth_hz: float = 125_000.0,
    *,
    preamble_symbols: int = 8,
    coding_rate: int = 1,
    explicit_header: bool = True,
    crc: bool = True,
    low_dr_optimize: bool | None = None,
) -> float:
    """Time on air of a LoRa frame in seconds.

    ``payload_bytes`` is the full PHY payload. ``coding_rate`` is the index in
    4/(4+CR). Low data rate optimization defaults to on for SF11 and SF12 at
    bandwidths up to 125 kHz.
    """
    if payload_bytes < 0:
        raise ValueError(f"payload size must be >= 0, got {payload_bytes}")
    if not 1 <= coding_rate <= 4:
        raise ValueError(f"coding rate index must be in 1..4, got {coding_rate}")
    t_sym = symbol_duration(sf, bandwidth_hz)
    if low_dr_optimize is None:
        low_dr_optimize = sf >= 11 and bandwidth_hz <= 125_000.0
    de = 1 if low_dr_optimize else 0
    ih = 0 if explicit_header else 1
    crc_bits = 16 if crc else 0
    numerator = 8 * payload_bytes - 4 * sf + 28 + crc_bits - 20 * ih
    payload_symbols = 8 + max(
        math.ceil(numerator / (4 * (sf - 2 * de))) * (coding_rate + 4), 0
    )
    preamble = (preamble_symbols + 4.25) * t_sym
    return preamble + payload_symbols * t_sym


def rx_window_duration(sf: int, n_symbols: int, bandwidth_hz: float = 125_000.0) -> float:
    """Length of a receive window that listens for ``n_symbols`` symbols."""
    if n_symbols <= 0:
        raise ValueError(f"window symbol count must be > 0, got {n_symbols}")
    return n_symbols * symbol_duration(sf, bandwidth_hz)


class _LorawanFields(NamedTuple):
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


class LorawanParams(_LorawanFields):
    """Class A MAC parameters of one end device.

    An immutable named tuple; ``_replace`` derives a changed copy, checked
    as a new one is.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> LorawanParams:
        self = super().__new__(cls, *args, **kwargs)
        problems = []
        if not MIN_DATA_RATE <= self.data_rate <= MAX_DATA_RATE:
            problems.append(f"data_rate must be in 0..5, got {shown(self.data_rate)}")
        if self.bandwidth_hz <= 0:
            problems.append(f"bandwidth_hz must be > 0, got {shown(self.bandwidth_hz)}")
        if self.ul_payload_bytes < 0:
            problems.append(f"ul_payload_bytes must be >= 0, got {shown(self.ul_payload_bytes)}")
        if self.dl_payload_bytes < 0:
            problems.append(f"dl_payload_bytes must be >= 0, got {shown(self.dl_payload_bytes)}")
        if self.mac_overhead_bytes < 0:
            problems.append(
                f"mac_overhead_bytes must be >= 0, got {shown(self.mac_overhead_bytes)}"
            )
        if self.rx1_delay_s <= 0 or self.rx2_delay_s <= self.rx1_delay_s:
            problems.append("need 0 < rx1_delay_s < rx2_delay_s")
        if self.rx_window_symbols <= 0:
            problems.append(
                f"rx_window_symbols must be > 0, got {shown(self.rx_window_symbols)}"
            )
        if self.rx2_window_symbols is not None and self.rx2_window_symbols <= 0:
            problems.append(
                f"rx2_window_symbols must be > 0, got {shown(self.rx2_window_symbols)}"
            )
        if self.turn_on_s < 0:
            problems.append(f"turn_on_s must be >= 0, got {shown(self.turn_on_s)}")
        if not 0 < self.standby_brief_s < self.rx1_delay_s:
            problems.append("standby_brief_s must be in (0, rx1_delay_s)")
        if self.max_transmissions < 1:
            problems.append(
                f"max_transmissions must be >= 1, got {shown(self.max_transmissions)}"
            )
        if not 0 < self.ul_duty_cycle <= 1:
            problems.append(f"ul_duty_cycle must be in (0, 1], got {shown(self.ul_duty_cycle)}")
        # Each field is computed with as a float, and each time rounded to
        # the clock, which a float must count.
        for name, value in zip(self._fields, self):
            problems.extend(number_problems(name, value))
        if problems:
            raise ConfigError(problems)
        w1 = rx_window_duration(self.sf, self.rx_window_symbols, self.bandwidth_hz)
        if w1 > self.rx2_delay_s - self.rx1_delay_s:
            raise ConfigError(["receive window 1 would still be open at rx2_delay_s"])
        return self

    # ``_replace`` builds its copy through ``_make``: checked here, by ``__new__``.
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def sf(self) -> int:
        return data_rate_to_sf(self.data_rate)

    @property
    def ul_phy_bytes(self) -> int:
        return self.ul_payload_bytes + self.mac_overhead_bytes

    @property
    def dl_phy_bytes(self) -> int:
        return self.dl_payload_bytes + self.mac_overhead_bytes

    def ul_time_on_air(self) -> float:
        return time_on_air(self.ul_phy_bytes, self.sf, self.bandwidth_hz)

    def dl_time_on_air(self, sf: int) -> float:
        return time_on_air(self.dl_phy_bytes, sf, self.bandwidth_hz)

    def dl_airtimes_s(self) -> tuple[float, float]:
        """Airtimes of a downlink reply in receive window 1 and in window 2."""
        return self.dl_time_on_air(self.sf), self.dl_time_on_air(RX2_SPREADING_FACTOR)

    def rx1_window_s(self) -> float:
        return rx_window_duration(self.sf, self.rx_window_symbols, self.bandwidth_hz)

    def rx2_window_s(self) -> float:
        n = self.rx2_window_symbols
        if n is None:
            n = self.rx_window_symbols
        return rx_window_duration(RX2_SPREADING_FACTOR, n, self.bandwidth_hz)


class _SlotsRecord:
    """Base of a mutable record that keeps its fields in ``__slots__``, in
    order: equal to a record of its own class with equal fields, shown with
    them, and unhashable. ``device`` and ``engine`` build theirs on it."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"


class DutyCycleBudget(_SlotsRecord):
    """Aggregated duty-cycle budget of one band, on the nanosecond clock.

    After a transmission of duration T the band stays blocked for
    ``T * (1/duty_cycle - 1)`` seconds past the end of the transmission.
    Start times, ``blocked_until_ns`` and ``airtime_total_ns`` are integer
    nanoseconds; a registered airtime is in seconds.
    """

    __slots__ = ("duty_cycle", "blocked_until_ns", "airtime_total_ns", "max_airtime_s")

    def __init__(
        self, duty_cycle: float, blocked_until_ns: int = 0, airtime_total_ns: int = 0,
        max_airtime_s: float = 0.0,
    ) -> None:
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError(f"duty cycle must be in (0, 1], got {duty_cycle}")
        self.duty_cycle = duty_cycle
        self.blocked_until_ns = blocked_until_ns
        self.airtime_total_ns = airtime_total_ns
        self.max_airtime_s = max_airtime_s

    def allows(self, start_ns: int) -> bool:
        return start_ns >= self.blocked_until_ns

    def next_allowed(self, start_ns: int) -> int:
        return max(start_ns, self.blocked_until_ns)

    def register(self, start_ns: int, airtime_s: float) -> None:
        if airtime_s < 0.0:
            raise ValueError(f"airtime must be >= 0, got {airtime_s}")
        blocked_s = airtime_s + airtime_s * (1.0 / self.duty_cycle - 1.0)
        # A block too long for a float count of ticks outlasts any run.
        ticks = blocked_s * NS_PER_S
        self.blocked_until_ns = start_ns + (round(ticks) if ticks < math.inf else MAX_TICKS)
        self.airtime_total_ns += round(airtime_s * NS_PER_S)
        self.max_airtime_s = max(self.max_airtime_s, airtime_s)
