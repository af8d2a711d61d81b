"""Harvested-power sources: constants, recorded traces, random processes."""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from caplora import ConfigError, ScenarioConfig, Simulator
from caplora.clock import MAX_TICKS, NS_PER_S
from caplora.harvester import (
    ConstantHarvester,
    RandomHarvester,
    TraceExhaustedError,
    TraceFormatError,
    TraceHarvester,
    load_trace,
)


@pytest.mark.parametrize("period_s", [math.inf, 1e300])
def test_a_random_period_too_long_for_the_clock_never_changes(period_s):
    src = RandomHarvester("uniform", seed=3, update_period_s=period_s)
    assert src.next_change_after(0.0) == MAX_TICKS / NS_PER_S
    assert src.power_at(1e290) == src.power_at(0.0)


def test_a_random_period_of_nan_is_refused():
    with pytest.raises(ConfigError, match="update_period_s must be positive, got nan"):
        RandomHarvester("uniform", seed=3, update_period_s=math.nan)


def test_constant_harvester():
    src = ConstantHarvester(0.0025)
    assert src.power_at(0.0) == 0.0025
    assert src.power_at(1e9) == 0.0025
    assert src.next_change_after(42.0) is None
    with pytest.raises(ValueError):
        ConstantHarvester(-0.001)


def test_trace_harvester_holds_between_samples():
    src = TraceHarvester([(0.0, 0.001), (10.0, 0.003), (25.0, 0.0)])
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
    src = TraceHarvester([(float(t), mw / 1000) for t, mw in enumerate(powers_mw)])
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
    src = TraceHarvester([(5.0, 0.001), (6.0, 0.002)])
    with pytest.raises(TraceExhaustedError):
        src.power_at(4.999)
    with pytest.raises(TraceExhaustedError):
        src.power_at(6.001)


def test_trace_harvester_rejects_bad_sample_lists():
    with pytest.raises(ValueError):
        TraceHarvester([])
    with pytest.raises(ValueError):
        TraceHarvester([(1.0, 0.1), (1.0, 0.2)])


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


@pytest.mark.parametrize(
    "text, problem",
    [
        ("0,0.004\n300,nan\n700,0.003\n", ":2: non-finite power nan"),
        ("0,0.004\n300,inf\n700,0.003\n", ":2: non-finite power inf"),
        ("0,0.004\n300,-inf\n700,0.003\n", ":2: non-finite power -inf"),
        ("0,0.004\nnan,0.001\n700,0.003\n", ":2: non-finite timestamp nan"),
        ("0,0.004\n700,0.003\ninf,0.001\n", ":3: non-finite timestamp inf"),
        ("time_s,power_w\n-inf,0.001\n700,0.003\n", ":2: non-finite timestamp -inf"),
    ],
)
def test_load_trace_rejects_non_finite_values(text, problem):
    # Accepted, a nan or inf power failed only once the run reached it, and
    # a nan timestamp ran to the end on an unordered trace.
    with pytest.raises(TraceFormatError) as err:
        load_trace(io.StringIO(text))
    assert err.value.problems == [f"<stream>{problem}"]


def test_load_trace_reports_both_non_finite_fields_of_a_row():
    with pytest.raises(TraceFormatError) as err:
        load_trace(io.StringIO("0;0.001\nnan;inf\n5;0.002\n"))
    assert err.value.problems == [
        "<stream>:2: non-finite timestamp nan",
        "<stream>:2: non-finite power inf",
    ]


@pytest.mark.parametrize(
    "text, problems",
    [
        (  # a rejected power text is parsed again where it repeats
            "time_s,power_w\n0,0.002\n1,-0.5\n2,-0.5\n3,0.002\n4,-0.5\n",
            [":3: negative power -0.5", ":4: negative power -0.5", ":6: negative power -0.5"],
        ),
        (  # 0 and 0.0 are two texts of one power
            "0,0\n1,0.0\n1,0.0\n2,0\n2,0.0\n3,0.0\n",
            [":3: timestamp 1.0 not after 1.0", ":5: timestamp 2.0 not after 2.0"],
        ),
        (
            "0,0.002\n1,0.002\nx,0.002\n2,0.002\n1.5,0.002\n3,0.002\n",
            [":3: non-numeric row 'x,0.002'", ":5: timestamp 1.5 not after 2.0"],
        ),
        ("0,0.002\n\n1,0.002\n\n1,0.002\n2,0.002\n", [":5: timestamp 1.0 not after 1.0"]),
    ],
)
def test_load_trace_reports_rows_that_repeat_a_power(text, problems):
    # A power text that repeats the last well-formed row's is parsed once;
    # every report, and its line number, is as if each row were parsed.
    with pytest.raises(TraceFormatError) as err:
        load_trace(io.StringIO(text))
    assert err.value.problems == [f"<stream>{problem}" for problem in problems]


def test_load_trace_keeps_padded_and_blank_rows():
    src = load_trace(io.StringIO("\n  0 , 0.001 \n\n   \n5,\t0.002\n"))
    assert src.power_at(4.0) == 0.001
    assert src.power_at(5.0) == 0.002
    assert src.next_change_after(0.0) == 5.0


@settings(max_examples=100)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(1, 8),
            # Repeated powers, and 1 mW written two ways.
            st.sampled_from(("0", "0.001", "1e-3", "0.002", "0.5")),
            st.sampled_from(("", " ", "\t ")),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
    header=st.booleans(),
    delimiter=st.sampled_from((",", ";")),
)
def test_load_trace_keeps_the_change_points_trace_harvester_keeps(rows, header, delimiter):
    # The parse keeps only the change points and the last sample; they must
    # be the ones TraceHarvester keeps from every sample, compared by value.
    lines = [f"time_s{delimiter}power_w"] if header else []
    samples = []
    t = 0
    for step, power, pad, blank_before in rows:
        t += step
        if blank_before:
            lines.append(pad)
        lines.append(f"{pad}{t / 4}{pad}{delimiter}{pad}{power}{pad}")
        samples.append((t / 4, float(power)))
    parsed = load_trace(io.StringIO("\n".join(lines) + "\n"))
    whole = TraceHarvester(samples)
    assert (parsed._times, parsed._powers) == (whole._times, whole._powers)


def test_load_trace_without_data_rows():
    with pytest.raises(TraceFormatError) as err:
        load_trace(io.StringIO("time,power\n"))
    assert "no data rows" in str(err.value)


def _trace_scenario(path, **overrides) -> ScenarioConfig:
    return ScenarioConfig(harvester="trace", trace_file=str(path), duration_s=60.0, **overrides)


def test_runs_of_one_trace_share_one_immutable_harvester(tmp_path, trace_parses):
    text = "0,0.001\n30,0.002\n60,0.002\n"
    (tmp_path / "a.csv").write_text(text)
    (tmp_path / "b.csv").write_text(text)
    first = Simulator(_trace_scenario(tmp_path / "a.csv")).harvester
    # Another run, another capacitor, another path: the same text.
    again = Simulator(_trace_scenario(tmp_path / "b.csv", capacitance_f=0.02)).harvester
    assert again is first
    assert trace_parses() == 1
    assert (type(first._times), type(first._powers)) == (tuple, tuple)


def test_a_trace_rewritten_in_place_is_parsed_again(tmp_path, trace_parses):
    path = tmp_path / "harvest.csv"
    path.write_text("0,0.001\n60,0.001\n")
    assert Simulator(_trace_scenario(path)).harvester.power_at(30.0) == 0.001
    path.write_text("0,0.003\n60,0.003\n")
    assert Simulator(_trace_scenario(path)).harvester.power_at(30.0) == 0.003
    assert trace_parses() == 2


def test_a_malformed_trace_is_reported_from_its_own_path_on_every_call(tmp_path, trace_parses):
    text = "0,0.001\nnan,0.002\n5,-1\n"
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        path.write_text(text)
    sources = [(str(path), path) for path in paths * 2] + [("<stream>", io.StringIO(text))]
    for origin, source in sources:
        with pytest.raises(TraceFormatError) as err:
            load_trace(source)
        assert err.value.problems == [
            f"{origin}:2: non-finite timestamp nan",
            f"{origin}:3: negative power -1.0",
        ]
    assert trace_parses() == 5


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
