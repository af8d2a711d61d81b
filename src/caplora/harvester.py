"""Harvested-power sources feeding the energy model.

A source answers ``power_at(t)`` in watts and exposes the next instant at
which its output changes, so callers can keep the series conductance piecewise
constant between updates.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Protocol

from .clock import NS_PER_S
from .errors import ConfigError


class TraceExhaustedError(RuntimeError):
    """Raised when a trace-driven source is queried outside its time span."""


class TraceFormatError(ValueError):
    """Raised when a power trace file cannot be parsed; lists every bad line."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


class HarvestSample(NamedTuple):
    time_s: float
    power_w: float


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

    Only a sample whose power differs from the previous one is a change: a
    repeated power is not reported by ``next_change_after``, so a run driven
    by the trace spends no event on it. The first and last samples' times
    are reported as changes too, because the trace begins and ends there.
    Queries before the first or after the last sample raise
    ``TraceExhaustedError``: a trace says nothing outside its span.
    """

    def __init__(self, samples: Iterable[HarvestSample]) -> None:
        self.samples = list(samples)
        if not self.samples:
            raise ValueError("a harvest trace needs at least one sample")
        changes = [self.samples[0].time_s]
        for prev, cur in zip(self.samples, self.samples[1:]):
            if cur.time_s <= prev.time_s:
                raise ValueError(
                    f"trace timestamps must be strictly increasing, "
                    f"got {prev.time_s} then {cur.time_s}"
                )
            if cur.power_w != prev.power_w:
                changes.append(cur.time_s)
        end = self.samples[-1].time_s
        if changes[-1] != end:
            changes.append(end)
        self._times = [sample.time_s for sample in self.samples]
        self._changes = changes

    def power_at(self, time_s: float) -> float:
        first = self.samples[0].time_s
        last = self.samples[-1].time_s
        if time_s < first or time_s > last:
            raise TraceExhaustedError(
                f"time {time_s} s outside trace span [{first}, {last}] s"
            )
        # Zero-order hold: latest sample at or before the query time.
        return self.samples[bisect_right(self._times, time_s) - 1].power_w

    def next_change_after(self, time_s: float) -> float | None:
        """First change point after ``time_s``; the last one is the trace's end."""
        index = bisect_right(self._changes, time_s)
        return self._changes[index] if index < len(self._changes) else None


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
        if update_period_s <= 0.0:
            problems.append(f"update_period_s must be positive, got {update_period_s}")
        if not 0.0 <= low_w <= high_w:
            problems.append(f"need 0 <= low_w <= high_w, got {low_w}, {high_w}")
        if distribution == "exponential" and mean_w <= 0.0:
            problems.append(f"mean_w must be positive, got {mean_w}")
        if problems:
            raise ConfigError(problems)
        self.distribution = distribution
        self.update_period_s = update_period_s
        self._period_ns = max(1, round(update_period_s * NS_PER_S))
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
    automatically; one optional header line is skipped. All malformed lines
    are reported together, with line numbers.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
        origin = "<stream>"
    else:
        path = Path(source)  # type: ignore[arg-type]
        text = path.read_text()
        origin = str(path)
    lines = text.splitlines()
    delimiter = ";" if any(";" in line for line in lines[:2]) else ","
    problems: list[str] = []
    samples: list[HarvestSample] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(delimiter)
        if len(parts) != 2:
            problems.append(f"{origin}:{lineno}: expected 2 fields, got {len(parts)}")
            continue
        try:
            # float() ignores the whitespace around each field.
            t, p = float(parts[0]), float(parts[1])
        except ValueError:
            if lineno == 1:
                continue  # header line
            problems.append(f"{origin}:{lineno}: non-numeric row {line!r}")
            continue
        if p < 0.0:
            problems.append(f"{origin}:{lineno}: negative power {p}")
            continue
        if samples and t <= samples[-1].time_s:
            problems.append(
                f"{origin}:{lineno}: timestamp {t} not after {samples[-1].time_s}"
            )
            continue
        samples.append(HarvestSample(t, p))
    if problems:
        raise TraceFormatError(problems)
    if not samples:
        raise TraceFormatError([f"{origin}: no data rows found"])
    return TraceHarvester(samples)
