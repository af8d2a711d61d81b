"""Harvested-power sources: constants, recorded traces, random processes."""

from __future__ import annotations

import io

import pytest

from caplora import ConfigError, ScenarioConfig, Simulator
from caplora.clock import NS_PER_S
from caplora.harvester import (
    ConstantHarvester,
    HarvestSample,
    RandomHarvester,
    TraceExhaustedError,
    TraceFormatError,
    TraceHarvester,
    load_trace,
)


def test_constant_harvester():
    src = ConstantHarvester(0.0025)
    assert src.power_at(0.0) == 0.0025
    assert src.power_at(1e9) == 0.0025
    assert src.next_change_after(42.0) is None
    with pytest.raises(ValueError):
        ConstantHarvester(-0.001)


def test_trace_harvester_holds_between_samples():
    src = TraceHarvester(
        [
            HarvestSample(0.0, 0.001),
            HarvestSample(10.0, 0.003),
            HarvestSample(25.0, 0.0),
        ]
    )
    assert src.power_at(0.0) == 0.001
    assert src.power_at(9.999) == 0.001
    assert src.power_at(10.0) == 0.003
    assert src.power_at(24.0) == 0.003
    assert src.power_at(25.0) == 0.0
    assert src.next_change_after(0.0) == 10.0
    assert src.next_change_after(10.0) == 25.0
    assert src.next_change_after(25.0) is None


def test_next_change_after_skips_repeated_powers():
    powers_mw = [1, 1, 1, 2, 2, 2, 2, 1, 1, 1]
    src = TraceHarvester(
        [HarvestSample(float(t), mw / 1000) for t, mw in enumerate(powers_mw)]
    )
    assert src.next_change_after(0.0) == 3.0
    assert src.next_change_after(3.0) == 7.0
    assert src.next_change_after(5.0) == 7.0
    # The last sample repeats the power before it, yet the trace ends there.
    assert src.next_change_after(7.0) == 9.0
    assert src.next_change_after(8.5) == 9.0
    assert src.next_change_after(9.0) is None
    assert src.next_change_after(20.0) is None
    assert src.power_at(8.0) == 0.001
    assert src.power_at(6.0) == 0.002


def test_trace_harvester_rejects_queries_outside_span():
    src = TraceHarvester([HarvestSample(5.0, 0.001), HarvestSample(6.0, 0.002)])
    with pytest.raises(TraceExhaustedError):
        src.power_at(4.999)
    with pytest.raises(TraceExhaustedError):
        src.power_at(6.001)


def test_trace_harvester_rejects_bad_sample_lists():
    with pytest.raises(ValueError):
        TraceHarvester([])
    with pytest.raises(ValueError):
        TraceHarvester([HarvestSample(1.0, 0.1), HarvestSample(1.0, 0.2)])


def test_load_trace_comma_and_semicolon(tmp_path):
    comma = tmp_path / "a.csv"
    comma.write_text("0,0.001\n5,0.002\n")
    semi = tmp_path / "b.csv"
    semi.write_text("0;0.001\n5;0.002\n")
    for path in (comma, semi):
        src = load_trace(path)
        assert src.power_at(2.0) == 0.001
        assert src.power_at(5.0) == 0.002


def test_load_trace_skips_one_header_line():
    src = load_trace(io.StringIO("time_s,power_w\n0,0.004\n1,0.005\n"))
    assert src.power_at(0.5) == 0.004


def test_load_trace_reports_every_problem_at_once(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0.001\nxx,yy\n5,-0.5\n5,0.002\n3,0.001\n4,0.002,9\n")
    with pytest.raises(TraceFormatError) as err:
        load_trace(path)
    problems = err.value.problems
    assert len(problems) == 4
    assert any(":2:" in p and "non-numeric" in p for p in problems)
    assert any(":3:" in p and "negative power" in p for p in problems)
    assert any(":5:" in p and "not after" in p for p in problems)
    assert any(":6:" in p and "expected 2 fields" in p for p in problems)
    assert all(str(path) in p for p in problems)


def test_load_trace_without_data_rows():
    with pytest.raises(TraceFormatError) as err:
        load_trace(io.StringIO("time,power\n"))
    assert "no data rows" in str(err.value)


def test_random_harvester_is_deterministic_per_seed():
    kwargs = dict(update_period_s=2.0, low_w=0.0, high_w=0.004)
    a = RandomHarvester("uniform", seed=7, **kwargs)
    b = RandomHarvester("uniform", seed=7, **kwargs)
    c = RandomHarvester("uniform", seed=8, **kwargs)
    times = [0.0, 1.9, 2.0, 7.5, 100.0]
    assert [a.power_at(t) for t in times] == [b.power_at(t) for t in times]
    assert [a.power_at(t) for t in times] != [c.power_at(t) for t in times]


def test_random_harvester_period_boundaries():
    src = RandomHarvester("uniform", seed=1, update_period_s=5.0, high_w=0.01)
    assert src.power_at(0.0) == src.power_at(4.999)
    assert src.next_change_after(0.0) == 5.0
    assert src.next_change_after(4.999) == 5.0
    assert src.next_change_after(5.0) == 10.0


def test_random_harvester_changes_strictly_later_on_the_clock():
    # In float seconds 0.009 // 0.001 is 8.0: slots counted that way put
    # the change after 9 ms back on the 9 ms tick, over and over.
    src = RandomHarvester("uniform", seed=1, update_period_s=0.001, high_w=0.01)
    for k in range(1, 20_000):
        now_ns = k * 1_000_000
        nxt_ns = round(src.next_change_after(now_ns / NS_PER_S) * NS_PER_S)
        assert nxt_ns == now_ns + 1_000_000, k


def test_random_harvest_at_a_millisecond_runs_to_completion():
    config = ScenarioConfig(
        harvester="random", harvest_update_period_s=0.001, duration_s=0.1
    )
    sim = Simulator(config)
    queried = []
    power_at = sim.harvester.power_at
    sim.harvester.power_at = lambda time_s: queried.append(time_s) or power_at(time_s)
    assert sim.run().valid
    # One change per 1 ms slot; the one due at the run's end is not taken.
    assert [round(t * NS_PER_S) for t in queried] == [k * 1_000_000 for k in range(100)]


def test_random_harvester_respects_distribution_bounds():
    uni = RandomHarvester("uniform", seed=3, update_period_s=1.0, low_w=0.001, high_w=0.002)
    values = [uni.power_at(t) for t in range(200)]
    assert all(0.001 <= v <= 0.002 for v in values)
    expo = RandomHarvester("exponential", seed=3, update_period_s=1.0, mean_w=0.001)
    values = [expo.power_at(t) for t in range(200)]
    assert all(v >= 0.0 for v in values)
    mean = sum(values) / len(values)
    assert 0.0005 < mean < 0.002


def test_random_harvester_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RandomHarvester("gaussian", seed=1, update_period_s=1.0)
    with pytest.raises(ValueError):
        RandomHarvester("uniform", seed=1, update_period_s=0.0)
    with pytest.raises(ValueError):
        RandomHarvester("uniform", seed=1, update_period_s=1.0, low_w=0.2, high_w=0.1)
    with pytest.raises(ValueError):
        RandomHarvester("exponential", seed=1, update_period_s=1.0, mean_w=0.0)
    with pytest.raises(ValueError):
        RandomHarvester("uniform", seed=1, update_period_s=1.0).power_at(-1.0)


def test_harvester_problems_come_in_one_config_error():
    with pytest.raises(ConfigError) as excinfo:
        RandomHarvester("gaussian", seed=1, update_period_s=0.0, low_w=0.2, high_w=0.1)
    assert excinfo.value.problems == [
        "distribution must be 'uniform' or 'exponential', got 'gaussian'",
        "update_period_s must be positive, got 0.0",
        "need 0 <= low_w <= high_w, got 0.2, 0.1",
    ]
    # The bounds hold for the exponential distribution too.
    with pytest.raises(ConfigError, match="low_w"):
        RandomHarvester("exponential", seed=1, update_period_s=1.0, low_w=-1.0, mean_w=1.0)
    with pytest.raises(ConfigError, match="power_w must be non-negative"):
        ConstantHarvester(-1.0)
