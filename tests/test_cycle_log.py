"""The cycle log: records kept as they come, and blocks of copied records
expanded, in order and once, by the first read."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import pytest

from caplora import ScenarioConfig, Simulator
from caplora.device import CycleOutcome, CycleRecord
from caplora.engine import CycleLog

DELIVERED = CycleOutcome.DELIVERED
FAILED = CycleOutcome.FAILED_ENERGY


def _record(packet_id: int, start_ns: int, end_ns: int, outcome=DELIVERED) -> CycleRecord:
    return CycleRecord(packet_id, "UL", start_ns, end_ns, outcome)


def _hold(log: CycleLog, first_id: int, ticks: range, kind: str) -> None:
    """Log one packet failed for want of energy at each of ``ticks``, as a
    run logs the packets held while its device was powered down: the first
    one's record, and its copies one packet id and one period on."""
    log._append(CycleRecord(first_id, kind, ticks[0], ticks[0], FAILED))
    log._copy(len(log) - 1, len(ticks) - 1, 1, ticks.step)


def test_copies_are_expanded_copy_by_copy():
    log = CycleLog()
    log._append(_record(1, 0, 5))
    log._append(_record(2, 10, 12, CycleOutcome.FAILED_BUSY))
    log._copy(0, 2, 2, 100)
    assert list(log) == [
        _record(1, 0, 5),
        _record(2, 10, 12, CycleOutcome.FAILED_BUSY),
        _record(3, 100, 105),
        _record(4, 110, 112, CycleOutcome.FAILED_BUSY),
        _record(5, 200, 205),
        _record(6, 210, 212, CycleOutcome.FAILED_BUSY),
    ]


def test_a_template_may_span_an_earlier_block():
    log = CycleLog()
    log._append(_record(1, 0, 3))
    _hold(log, 2, range(10, 30, 10), "UL")  # packets 2 and 3
    log._copy(1, 1, 3, 40)  # packets 2..4 again, 40 ns later
    log._append(_record(8, 90, 91))
    assert log == [
        _record(1, 0, 3),
        _record(2, 10, 10, FAILED),
        _record(3, 20, 20, FAILED),
        _record(5, 50, 50, FAILED),
        _record(6, 60, 60, FAILED),
        _record(8, 90, 91),
    ]


def test_a_held_block_sits_between_the_records_around_it():
    log = CycleLog()
    log._append(_record(1, 0, 1))
    _hold(log, 2, range(5, 20, 5), "UL+DL")
    log._append(_record(5, 25, 26))
    assert [record.packet_id for record in log] == [1, 2, 3, 4, 5]
    assert log[1:4] == [CycleRecord(k, "UL+DL", t, t, FAILED) for k, t in ((2, 5), (3, 10), (4, 15))]


def test_len_needs_no_expansion_and_stays_the_same():
    log = CycleLog()
    log._append(_record(1, 0, 1))
    log._copy(0, 100_000, 1, 10)
    _hold(log, 100_002, range(0, 7 * 100_000, 7), "UL")
    assert len(log) == 1 + 100_000 + 100_000
    # Nothing expanded: only the records appended are kept.
    assert log._records == [_record(1, 0, 1), CycleRecord(100_002, "UL", 0, 0, FAILED)]
    small = CycleLog()
    small._append(_record(1, 0, 1))
    small._copy(0, 3, 1, 10)
    _hold(small, 5, range(40, 60, 10), "UL")
    before = len(small)
    assert before == len(list(small)) == len(small) == 6
    # Appending after a read keeps counting.
    small._append(_record(7, 70, 71))
    assert len(small) == 7 and small[-1] == _record(7, 70, 71)


def test_indexing_slicing_and_equality():
    log = CycleLog()
    for k in range(3):
        log._append(_record(k + 1, 10 * k, 10 * k + 1))
    log._copy(1, 2, 2, 100)
    records = [_record(k + 1, 10 * k, 10 * k + 1) for k in range(3)] + [
        _record(4, 110, 111),
        _record(5, 120, 121),
        _record(6, 210, 211),
        _record(7, 220, 221),
    ]
    twin = CycleLog()
    for record in records:
        twin._append(record)
    assert log[0] == records[0] and log[-1] == records[-1] and log[-3] == records[-3]
    assert log[2:5] == records[2:5] and log[::-2] == records[::-2]
    with pytest.raises(IndexError):
        log[7]
    assert log == records and records == log and log == twin
    assert not (log != records) and not (log != twin)
    assert log != records[:-1] and log != [] and log != tuple(records)
    assert repr(log) == repr(records)
    assert CycleLog() == [] and CycleLog() != log


def test_a_month_of_held_packets_costs_no_records():
    # A near-threshold boot loop: the device never finishes turning on, and
    # every packet of the month is held and fails for want of energy.
    config = ScenarioConfig(
        capacitance_f=0.23e-3,
        power_w=0.1815027e-3,
        packet_period_s=0.94,
        initial_voltage_v=1.0,
        guard_enabled=False,
        duration_s=30 * 86400.0,
    )
    sim = Simulator(config)
    tracemalloc.start()
    try:
        metrics = sim.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert metrics.generated == 2_757_447
    assert metrics.outcomes[FAILED] == metrics.generated
    assert sim._seq <= 11
    assert len(metrics.cycles) == metrics.generated

    day = Simulator(replace(config, duration_s=86400.0))
    records = list(day.run().cycles)
    period_ns = day.packet_period_ns
    first_ns = records[0].start_ns
    assert len(records) == day.metrics.generated > 90_000
    assert records == [
        CycleRecord(k + 1, "UL", first_ns + k * period_ns, first_ns + k * period_ns, FAILED)
        for k in range(len(records))
    ]
