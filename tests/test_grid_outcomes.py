"""Each run of a fixed grid of day-long scenarios ends exactly as pinned.

The grid is capacitance x harvest power x cycle kind x packet period x
energy guard, 192 constant-harvest runs of 24 h each. For every run, its
``Metrics`` counters, outcome counts and final voltage are hashed and
compared with the table in ``grid_outcomes.txt``. A change that moves a row
changes what the engine computes. Run as a script,

    PYTHONPATH=src python tests/test_grid_outcomes.py [--write]

it compares the grid with the table: it prints each row that moved, and the
entries the grid scheduled and the crossing solves it made next to
``_ENTRY_BOUND`` and ``_SOLVE_BOUND``, so a change that lowers them can
tighten the bounds. It exits 1 if a row moved. Only ``--write`` rewrites
the table, for a change that moves rows on purpose and states the reason.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
from pathlib import Path
from unittest import mock

from caplora import ScenarioConfig, Simulator, energy, engine

_TABLE = Path(__file__).with_name("grid_outcomes.txt")

# Every entry the whole grid schedules, and every crossing tick its
# capacitors and replays solve: counts independent of the host.
_ENTRY_BOUND = 450_978
_SOLVE_BOUND = 225_637

_GRID = tuple(
    itertools.product(
        (0.001, 0.003, 0.01, 0.03),
        (0.0001, 0.0005, 0.001, 0.005),
        (False, True),
        (10.0, 60.0, 300.0),
        (True, False),
    )
)


def _key(c: float, p: float, confirmed: bool, period: float, guard: bool) -> str:
    return f"C={c:g} P={p:g} confirmed={int(confirmed)} period={period:g} guard={int(guard)}"


def _digest(sim: Simulator) -> str:
    m = sim.metrics
    counters = (
        m.generated, m.delivered_ul, m.acked, m.skipped_by_guard, m.depletion_events,
        m.off_time_ns, m.ul_airtime_s.hex(), m.max_ul_airtime_s.hex(), m.valid,
    )
    outcomes = tuple((str(outcome), n) for outcome, n in m.outcomes.items())
    text = repr((counters, outcomes, m.final_voltage_v.hex()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_grid() -> tuple[dict[str, str], int, int]:
    """Each grid run's digest by its key, the entries all runs scheduled and
    the ``crossing_tick`` calls they made."""
    digests = {}
    entries = solves = 0
    solve = energy.crossing_tick

    def counted(*args):
        nonlocal solves
        solves += 1
        return solve(*args)

    with mock.patch.object(energy, "crossing_tick", counted), mock.patch.object(
        engine, "crossing_tick", counted
    ):
        for c, p, confirmed, period, guard in _GRID:
            sim = Simulator(ScenarioConfig(
                capacitance_f=c, power_w=p, confirmed=confirmed, packet_period_s=period,
                guard_enabled=guard, duration_s=86_400.0,
            ))
            sim.run()
            digests[_key(c, p, confirmed, period, guard)] = _digest(sim)
            entries += sim._seq
    return digests, entries, solves


def _pinned() -> dict[str, str]:
    rows = (line.rpartition(" ") for line in _TABLE.read_text().splitlines())
    return {key: digest for key, _, digest in rows}


def test_every_grid_run_ends_as_pinned():
    digests, entries, solves = run_grid()
    pinned = _pinned()
    assert len(pinned) == len(_GRID)
    moved = [key for key in pinned if digests[key] != pinned[key]]
    assert moved == []
    assert entries <= _ENTRY_BOUND
    assert solves <= _SOLVE_BOUND


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare the grid's runs with grid_outcomes.txt.")
    parser.add_argument("--write", action="store_true", help="rewrite the table from this run")
    args = parser.parse_args(argv)
    digests, entries, solves = run_grid()
    pinned = _pinned()
    moved = [key for key in {**digests, **pinned} if digests.get(key) != pinned.get(key)]
    for key in moved:
        print(f"moved: {key} {pinned.get(key)} -> {digests.get(key)}")
    print(f"{len(moved)} of {len(_GRID)} rows moved")
    print(f"entries {entries:,} (bound {_ENTRY_BOUND:,}), solves {solves:,} (bound {_SOLVE_BOUND:,})")
    if args.write:
        _TABLE.write_text("".join(f"{key} {digest}\n" for key, digest in digests.items()))
        print(f"rewrote {_TABLE.name}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
