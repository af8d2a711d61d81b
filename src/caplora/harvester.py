"""Harvested-power sources feeding the energy model.

A source answers ``power_at(t)`` in watts and exposes the next instant at
which its output changes, so callers can keep the series conductance piecewise
constant between updates.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from pathlib import Path
from typing import IO, Iterable, Protocol

from .clock import MAX_TICKS, NS_PER_S
from .errors import ConfigError


class TraceExhaustedError(RuntimeError):
    """Raised when a trace-driven source is queried outside its time span."""


class TraceFormatError(ValueError):
    """Raised when a power trace file cannot be parsed; lists every bad line."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


class HarvestSource(Protocol):
    def power_at(self, time_s: float) -> float:
        """Harvested power in effect at ``time_s``."""
        ...

    def next_change_after(self, time_s: float) -> float | None:
        """Next instant the output changes, or ``None`` if it never does."""
        ...


class ConstantHarvester:
    """A source that delivers the same power forever."""

    def __init__(self, power_w: float) -> None:
        if power_w < 0.0:
            raise ConfigError([f"power_w must be non-negative, got {power_w}"])
        self.power_w = power_w

    def power_at(self, time_s: float) -> float:
        return self.power_w

    def next_change_after(self, time_s: float) -> float | None:
        return None


class TraceHarvester:
    """Replays a recorded power trace with zero-order hold between samples.

    A trace is kept as its change points, each with the power held from it:
    the first sample, each sample whose power differs from the one before,
    and the last sample, where the trace ends. A repeated power is no
    change, so ``next_change_after`` does not report it and a run driven by
    the trace spends no event on it. Queries before the first or after the
    last sample raise ``TraceExhaustedError``: a trace says nothing outside
    its span.
    """

    def __init__(self, samples: Iterable[tuple[float, float]]) -> None:
        times: list[float] = []
        powers: list[float] = []
        prev_t = prev_p = None
        for t, p in samples:
            if prev_t is not None and not prev_t < t:
                raise ValueError(
                    f"trace timestamps must be strictly increasing, got {prev_t} then {t}"
                )
            if prev_t is None or p != prev_p:
                times.append(t)
                powers.append(p)
            prev_t, prev_p = t, p
        if prev_t is None:
            raise ValueError("a harvest trace needs at least one sample")
        if times[-1] != prev_t:
            times.append(prev_t)
            powers.append(prev_p)
        self._times = times
        self._powers = powers

    def power_at(self, time_s: float) -> float:
        times = self._times
        if not times[0] <= time_s <= times[-1]:
            raise TraceExhaustedError(
                f"time {time_s} s outside trace span [{times[0]}, {times[-1]}] s"
            )
        # Zero-order hold: the power held from the latest change at or
        # before the query time.
        return self._powers[bisect_right(times, time_s) - 1]

    def next_change_after(self, time_s: float) -> float | None:
        """First change point after ``time_s``; the last one is the trace's end."""
        index = bisect_right(self._times, time_s)
        return self._times[index] if index < len(self._times) else None


class RandomHarvester:
    """Redraws the harvested power at a fixed period from a seeded RNG.

    The slots are whole ticks of the nanosecond clock: slot ``k`` covers
    ``[k P, (k + 1) P)`` with ``P`` the period rounded to the tick (at least
    one), and a query time counts in the slot of its nearest tick. A change
    is therefore always strictly later, on the clock, than the time it
    follows.

    Supported distributions: ``uniform`` over [low_w, high_w] and
    ``exponential`` with the given mean. Identical seed and parameters give
    identical sample paths. Every bad parameter is reported in one
    ``ConfigError``; ``0 <= low_w <= high_w`` holds for both distributions.
    """

    def __init__(
        self,
        distribution: str,
        *,
        seed: int,
        update_period_s: float,
        low_w: float = 0.0,
        high_w: float = 0.0,
        mean_w: float = 0.0,
    ) -> None:
        problems = []
        if distribution not in ("uniform", "exponential"):
            problems.append(
                f"distribution must be 'uniform' or 'exponential', got {distribution!r}"
            )
        if not update_period_s > 0.0:
            problems.append(f"update_period_s must be positive, got {update_period_s}")
        if not 0.0 <= low_w <= high_w:
            problems.append(f"need 0 <= low_w <= high_w, got {low_w}, {high_w}")
        if distribution == "exponential" and mean_w <= 0.0:
            problems.append(f"mean_w must be positive, got {mean_w}")
        if problems:
            raise ConfigError(problems)
        self.distribution = distribution
        self.update_period_s = update_period_s
        # A period too long for a float count of ticks outlasts any run: the
        # power never changes.
        ticks = update_period_s * NS_PER_S
        self._period_ns = max(1, round(ticks)) if ticks < math.inf else MAX_TICKS
        self.low_w = low_w
        self.high_w = high_w
        self.mean_w = mean_w
        self._rng = random.Random(seed)
        self._values: list[float] = []

    def _draw(self) -> float:
        if self.distribution == "uniform":
            return self._rng.uniform(self.low_w, self.high_w)
        return self._rng.expovariate(1.0 / self.mean_w)

    def _slot(self, time_s: float) -> int:
        return round(time_s * NS_PER_S) // self._period_ns

    def power_at(self, time_s: float) -> float:
        if time_s < 0.0:
            raise ValueError(f"time must be >= 0, got {time_s}")
        index = self._slot(time_s)
        while len(self._values) <= index:
            self._values.append(self._draw())
        return self._values[index]

    def next_change_after(self, time_s: float) -> float | None:
        return (self._slot(time_s) + 1) * self._period_ns / NS_PER_S


def load_trace(source: str | Path | IO[str]) -> TraceHarvester:
    """Parse a power trace from a file path or text stream.

    Rows are ``time, power`` with a comma or semicolon delimiter, detected
    automatically; one optional header line is skipped. Times must be finite
    and strictly increasing, powers finite and non-negative. All malformed
    lines are reported together, with line numbers; a file that cannot be
    read as text is reported as one problem.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
        origin = "<stream>"
    else:
        path = Path(source)  # type: ignore[arg-type]
        origin = str(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise TraceFormatError([f"{origin}: {exc.strerror or exc}"]) from exc
        except UnicodeDecodeError as exc:
            raise TraceFormatError([f"{origin}: not a text file ({exc.reason})"]) from exc
    lines = text.splitlines()
    delimiter = ";" if any(";" in line for line in lines[:2]) else ","
    problems: list[str] = []
    # The change points, kept as TraceHarvester keeps them: a sample whose
    # power equals the one before, by value, is no change.
    points: list[tuple[float, float]] = []
    last = -math.inf
    # The power text of the last well-formed row, and its value: a trace
    # holds its power over many rows, and a repeated text is parsed once.
    # NaN differs from every power, so the first sample is a change point.
    prev_text, prev_p = None, math.nan
    for lineno, line in enumerate(lines, start=1):
        # Fast path: a well-formed row. float() ignores the whitespace
        # around each field.
        try:
            t_text, p_text = line.split(delimiter)
            t = float(t_text)
            p = prev_p if p_text == prev_text else float(p_text)
        except ValueError:
            pass
        else:
            if last < t < math.inf and 0.0 <= p < math.inf:
                if p != prev_p:
                    points.append((t, p))
                last = t
                prev_text, prev_p = p_text, p
                continue
        problems.extend(_row_problems(line, delimiter, last, origin, lineno))
    if problems:
        raise TraceFormatError(problems)
    if not points:
        raise TraceFormatError([f"{origin}: no data rows found"])
    # The last sample ends the trace, a change point or not.
    if points[-1][0] != last:
        points.append((last, prev_p))
    return TraceHarvester(points)


def _row_problems(
    line: str, delimiter: str, last: float, origin: str, lineno: int
) -> list[str]:
    """What is wrong with a trace row following a sample at time ``last``:
    nothing for a blank line or a header on line 1."""
    where = f"{origin}:{lineno}"
    line = line.strip()
    if not line:
        return []
    parts = line.split(delimiter)
    if len(parts) != 2:
        return [f"{where}: expected 2 fields, got {len(parts)}"]
    try:
        t, p = float(parts[0]), float(parts[1])
    except ValueError:
        return [] if lineno == 1 else [f"{where}: non-numeric row {line!r}"]
    problems = []
    if not math.isfinite(t):
        problems.append(f"{where}: non-finite timestamp {t}")
    if not math.isfinite(p):
        problems.append(f"{where}: non-finite power {p}")
    if problems:
        return problems
    if p < 0.0:
        return [f"{where}: negative power {p}"]
    # The fast path refused the row, so its timestamp is out of order.
    return [f"{where}: timestamp {t} not after {last}"]
