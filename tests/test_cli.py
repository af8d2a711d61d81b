"""Command line entry points, exercised in process through ``main``."""

from __future__ import annotations

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import caplora.cli
import caplora.engine
from caplora.analysis import (
    CYCLE_KINDS,
    DEFAULT_C_LO_F,
    MINCAP_HEADER,
    MinCapacitanceRow,
    mincap_table,
)
from caplora.cli import main
from caplora.config import parse_config
from caplora.engine import RESULTS_HEADER, lorawan_params
from caplora.harvester import load_trace

from conftest import empty_stores


FAST = [
    "--set",
    "duration_s=120",
    "--set",
    "packet_period_s=30",
    "--set",
    "first_packet_s=0",
    "--set",
    "capacitor.capacitance_f=0.05",
    "--set",
    "harvester.power_w=0.005",
]


def test_run_writes_results(tmp_path, capsys):
    code = main(["run", *FAST, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    body = (tmp_path / "results.csv").read_text().splitlines()
    assert body[0].startswith("C_farads,P_harvest_W,")
    assert body == out[:2]
    fields = body[1].split(",")
    assert fields[0] == "0.05"
    assert int(fields[5]) == 4  # packets at 0, 30, 60, 90


def test_trace_writes_voltage_trace(tmp_path):
    code = main(["trace", *FAST, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "voltage_trace.csv").read_text().splitlines()
    assert lines[0] == "time_s,voltage_V,state"
    assert len(lines) > 100  # per-second sampling plus event records
    time_s, voltage, state = lines[1].split(",")
    assert float(time_s) == 0.0
    assert float(voltage) == pytest.approx(3.3)
    assert state == "Sleep"


def test_run_is_deterministic_byte_for_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["trace", *FAST, "--out", str(a)]) == 0
    assert main(["trace", *FAST, "--out", str(b)]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "voltage_trace.csv").read_bytes() == (b / "voltage_trace.csv").read_bytes()


def test_mincap_uses_sweep_axes(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text("[sweep]\ndata_rate = 3, 5\npayload_bytes = 10\npower_w = 0.001\nkind = UL\n")
    code = main(["mincap", "--config", str(config), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "min_capacitance.csv").read_text().splitlines()
    assert lines[0] == "dr,payload_bytes,P_harvest_W,kind,min_C_farads"
    assert len(lines) == 3
    assert lines[1].startswith("3,10,0.001,UL,")
    assert lines[2].startswith("5,10,0.001,UL,")


def test_sweep_runs_grid_and_resumes(tmp_path, capsys):
    config = tmp_path / "scenario.ini"
    config.write_text(
        """
[traffic]
packet_period_s = 30
first_packet_s = 0

[sim]
duration_s = 120

[harvester]
power_w = 0.005

[sweep]
capacitance_f = 0.02, 0.05
"""
    )
    args = ["sweep", "--config", str(config), "--out", str(tmp_path)]
    assert main(args) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    # A second invocation resumes: same rows, nothing duplicated.
    assert main(args) == 0
    assert (tmp_path / "sweep.csv").read_text().splitlines() == lines
    # A fresh invocation rewrites the file.
    assert main([*args, "--fresh"]) == 0
    assert (tmp_path / "sweep.csv").read_text().splitlines() == lines


def test_config_problems_exit_2(tmp_path, capsys):
    code = main(["run", "--set", "bogus_key=1", "--set", "sim.trace=perhaps", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 2
    assert "bogus_key" in err
    assert "expected a boolean" in err


def test_dl_duty_cycle_is_an_unknown_key(tmp_path, capsys):
    # The gateway's window-2 budget is a fixed 10%; no key sets it.
    assert main(["run", "--set", "dl_duty_cycle=0.5", "--out", str(tmp_path)]) == 2
    assert "unknown config key 'dl_duty_cycle'" in capsys.readouterr().err


def test_each_capacitor_problem_gets_its_own_line(tmp_path, capsys):
    overrides = [
        "capacitor.max_voltage_v=0",
        "capacitor.v_th_low_v=3.5",
        "capacitor.initial_voltage_v=4",
    ]
    args = [arg for pair in overrides for arg in ("--set", pair)]
    assert main(["run", *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5
    assert all(line.startswith("config error: ") for line in err)
    assert not any("; " in line for line in err)


@pytest.mark.parametrize(
    "axis, problem",
    [
        ("sweep.data_rate=3,9", "data_rate must be in 0..5, got 9"),
        ("sweep.power_w=0.001,nan", "power_w must be finite, got nan"),
        ("sweep.power_w=nan,nan", "power_w must be finite, got nan"),
        ("sweep.power_w=0.001,-1", "sweep powers must be non-negative"),
        ("sweep.payload_bytes=10,-1", "ul_payload_bytes must be >= 0, got -1"),
    ],
    ids=["data_rate", "power_w", "power_w-twice", "power_w-negative", "payload_bytes"],
)
def test_sweep_rejects_bad_grid_points_up_front(tmp_path, capsys, axis, problem):
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text("left as it was\n")
    args = ["sweep", *FAST, "--set", "sweep.capacitance_f=0.02,0.05", "--set", axis]
    assert main([*args, "--out", str(tmp_path)]) == 2
    # The bad value is shared by two capacitances but reported once.
    assert capsys.readouterr().err.splitlines() == [f"config error: {problem}"]
    assert sweep_csv.read_text() == "left as it was\n"


def test_sweep_grid_problems_get_one_line_each(tmp_path, capsys):
    args = ["--set", "sweep.capacitance_f=-1", "--set", "sweep.kind=DL"]
    assert main(["sweep", *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0] == "config error: sweep capacitances must be positive"
    assert err[1].startswith("config error: sweep kinds must be among")


def test_default_mincap_table_is_pinned(tmp_path, capsys):
    # The default grid's CSV, byte for byte: a faster way to size a row
    # must give every row the same answer.
    assert main(["mincap", "--out", str(tmp_path)]) == 0
    data = (tmp_path / "min_capacitance.csv").read_bytes()
    assert data.count(b"\n") == 1 + 180
    assert (
        hashlib.sha256(data).hexdigest()
        == "1f7f769c8ffaa402ddd4e1fdd05dc2f82d613469225ffc5d8508f63b1fdd1685"
    )


def test_mincap_csv_is_each_row_formatted_on_its_own():
    # The writer formats each power once and each (data rate, airtime)
    # block of cells once, then joins each payload's prefix to them; its
    # file must read as if every row were formatted alone.
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data_rates=st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
        # Consecutive payloads mostly share an airtime; shuffled, a payload
        # can follow one of another airtime and precede one of its own.
        payloads=st.tuples(st.integers(0, 60), st.integers(1, 6)).flatmap(
            lambda span: st.permutations(range(span[0], span[0] + span[1]))
        ),
        # No harvest and 1 nW are infeasible; from 100 W on a row fits at the
        # bracket floor, 1 uF.
        powers=st.lists(
            st.sampled_from((0.0, 1e-9, 2.5e-4, 0.001, 0.0123456789, 100.0, 250.0)),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        kinds=st.lists(st.sampled_from(CYCLE_KINDS), min_size=1, max_size=2, unique=True),
    )
    def check(data_rates, payloads, powers, kinds):
        overrides = [
            f"sweep.data_rate={','.join(map(str, data_rates))}",
            f"sweep.payload_bytes={','.join(map(str, payloads))}",
            f"sweep.power_w={','.join(map(repr, powers))}",
            f"sweep.kind={','.join(kinds)}",
        ]
        with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()) as stdout:
            argv = ["mincap", *(arg for item in overrides for arg in ("--set", item))]
            assert main([*argv, "--out", out]) == 0
            path = Path(out) / "min_capacitance.csv"
            text = path.read_text()
        config, grid = parse_config(None, overrides)
        rows = mincap_table(
            config,
            data_rates=grid.data_rates,
            payloads_bytes=grid.payloads_bytes,
            powers_w=grid.powers_w,
            kinds=grid.kinds,
        )
        assert text.splitlines() == [MINCAP_HEADER] + [
            f"{dr},{payload},{power:.9g},{kind},{'infeasible' if cell is None else f'{cell:.6g}'}"
            for dr, payload, power, kind, cell in rows
        ]
        assert text.endswith("\n")
        assert stdout.getvalue() == f"{len(rows)} grid points -> {path}\n"
        for row in rows:
            assert type(row) is MinCapacitanceRow
            assert row._fields == ("data_rate", "payload_bytes", "power_w", "kind", "capacitance_f")
        airtimes = {
            (dr, lorawan_params(replace(config, data_rate=dr, ul_payload_bytes=p)).ul_time_on_air())
            for dr in grid.data_rates
            for p in grid.payloads_bytes
        }
        if len(airtimes) < len(grid.data_rates) * len(grid.payloads_bytes):
            seen.add("shared airtime")
        if len({row.data_rate for row in rows}) > 1:
            seen.add("several data rates")
        seen.update(row.kind for row in rows)
        seen.update(
            "infeasible" if c is None else "floor" if c == DEFAULT_C_LO_F else "bisected"
            for *_, c in rows
        )

    check()
    assert seen == {
        "shared airtime", "several data rates", *CYCLE_KINDS, "infeasible", "floor", "bisected"
    }


def test_mincap_rejects_repeated_axis_values(tmp_path, capsys):
    # Unchecked, this wrote the same row four times.
    args = ["mincap", "--set", "sweep.data_rate=3,3", "--set", "sweep.power_w=0.001,1e-3"]
    args += ["--set", "sweep.payload_bytes=10", "--set", "sweep.kind=UL"]
    assert main([*args, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: sweep powers repeat a value: 0.001",
        "config error: sweep data rates repeat a value: 3",
    ]
    assert not (tmp_path / "min_capacitance.csv").exists()


def test_mincap_rejects_axis_values_that_print_alike(tmp_path, capsys):
    # Unchecked, this wrote two rows keyed 3,10,0.001,UL.
    args = ["mincap", "--set", "sweep.data_rate=3", "--set", "sweep.power_w=0.001,0.0010000000001"]
    args += ["--set", "sweep.payload_bytes=10", "--set", "sweep.kind=UL"]
    assert main([*args, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: sweep powers hold distinct values that print alike: 0.001",
    ]
    assert not (tmp_path / "min_capacitance.csv").exists()


@pytest.mark.parametrize(
    "axis, problem",
    [
        ("sweep.capacitance_f=0.004,0.004", "sweep capacitances repeat a value: 0.004"),
        ("sweep.payload_bytes=10,20,10", "sweep payloads repeat a value: 10"),
        ("sweep.period_s=60,60.0", "sweep periods repeat a value: 60.0"),
        ("sweep.kind=UL,UL+DL,UL", "sweep kinds repeat a value: UL"),
        (
            "sweep.period_s=60,60.0000000001",
            "sweep periods hold distinct values that print alike: 60",
        ),
    ],
    ids=["capacitance_f", "payload_bytes", "period_s", "kind", "period_s-printed"],
)
def test_sweep_rejects_repeated_axis_values(tmp_path, capsys, axis, problem):
    # Unchecked, two equal capacitances printed "2 rows" and wrote one.
    assert main(["sweep", "--set", "duration_s=600", "--set", axis, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {problem}"]
    assert not (tmp_path / "sweep.csv").exists()


def _dark_trace(tmp_path):
    trace = tmp_path / "dark.csv"
    trace.write_text("0,0\n600,0\n")
    return ["--set", "harvester.kind=trace", "--set", f"trace_file={trace}"]


def test_sweep_keeps_the_base_harvester(tmp_path, capsys):
    base = [*FAST, *_dark_trace(tmp_path)]
    sweep_out = tmp_path / "sweep"
    args = ["sweep", *base, "--set", "sweep.capacitance_f=0.004,0.05"]
    assert main([*args, "--out", str(sweep_out)]) == 0
    rows = (sweep_out / "sweep.csv").read_text().splitlines()[1:]
    run_rows = []
    for cap in ("0.004", "0.05"):
        out = tmp_path / cap
        assert main(["run", *base, "--set", f"capacitor.capacitance_f={cap}", "--out", str(out)]) == 0
        run_rows.append((out / "results.csv").read_text().splitlines()[1])
    capsys.readouterr()
    assert rows == run_rows


def test_sweep_rejects_a_malformed_trace_before_any_point(tmp_path, capsys):
    # Unchecked, each point parsed the trace and failed on it: one
    # "run <key> failed: ..." line per point, then "0 rows".
    trace = tmp_path / "bad.csv"
    trace.write_text("time_s,power_w\n0,0.004\nnan,0.001\n700,-1\n")
    args = ["sweep", *FAST, "--set", "harvester.kind=trace", "--set", f"trace_file={trace}"]
    args += ["--set", "sweep.capacitance_f=0.004,0.01,0.02", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr() == (
        "",
        f"error: {trace}:3: non-finite timestamp nan\nerror: {trace}:4: negative power -1.0\n",
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "trace", "sweep"])
def test_each_command_parses_the_trace_once(tmp_path, capsys, monkeypatch, command):
    parsed = []

    def counting(source):
        parsed.append(source)
        return load_trace(source)

    for module in (caplora.cli, caplora.engine):
        monkeypatch.setattr(module, "load_trace", counting)
    trace = tmp_path / "ok.csv"
    trace.write_text("0,0.004\n300,0\n600,0.002\n")
    args = [command, *FAST, "--set", "harvester.kind=trace", "--set", f"trace_file={trace}"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # A sweep checks the trace once up front, then runs its one point on it.
    assert len(parsed) == (2 if command == "sweep" else 1)


@pytest.mark.parametrize("samples", ["5,0.001\n900,0.002\n", "0,0.001\n60,0.001\n"])
def test_sweep_over_a_short_trace_fails_each_point(tmp_path, capsys, samples):
    trace = tmp_path / "short.csv"
    trace.write_text(samples)
    args = ["sweep", *FAST, "--set", "harvester.kind=trace", "--set", f"trace_file={trace}"]
    args += ["--set", "sweep.capacitance_f=0.004,0.05", "--out", str(tmp_path)]
    for _ in range(2):  # a resume runs the failed points again
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.endswith("failed: harvest trace exhausted before duration_s") for line in err)
        assert (tmp_path / "sweep.csv").read_text() == RESULTS_HEADER + "\n"


def test_sweep_power_axis_needs_the_constant_harvester(tmp_path, capsys):
    args = ["sweep", *FAST, *_dark_trace(tmp_path), "--set", "sweep.power_w=0.001,0.002"]
    assert main([*args, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: sweep.power_w needs harvester kind constant, got trace"
    ]
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("power", ["nan", "inf"])
def test_mincap_rejects_bad_grid_points_up_front(tmp_path, capsys, power):
    args = ["mincap", "--set", "sweep.data_rate=3", "--set", "sweep.payload_bytes=10"]
    args += ["--set", f"sweep.power_w=0.001,{power}", "--out", str(tmp_path)]
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: power_w must be finite, got {power}"
    ]
    assert not (tmp_path / "min_capacitance.csv").exists()


@pytest.mark.parametrize("kind", ["trace", "random"])
def test_mincap_needs_the_constant_harvester(tmp_path, capsys, kind):
    harvester = _dark_trace(tmp_path) if kind == "trace" else ["--set", "harvester.kind=random"]
    assert main(["mincap", *harvester, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: mincap needs harvester kind constant, got {kind}"
    ]
    assert not (tmp_path / "min_capacitance.csv").exists()


def test_trace_starting_after_zero_aborts_the_run(tmp_path, capsys):
    trace = tmp_path / "late.csv"
    trace.write_text("5,0.001\n900,0.002\n")
    args = ["--set", "harvester.kind=trace", "--set", f"trace_file={trace}"]
    assert main(["run", *FAST, *args, "--out", str(tmp_path)]) == 1
    assert "run aborted early: harvest trace exhausted" in capsys.readouterr().err
    row = (tmp_path / "results.csv").read_text().splitlines()[1].split(",")
    assert row[5] == "0"  # generated


def test_trace_with_a_nan_timestamp_is_rejected_before_running(tmp_path, capsys):
    # Accepted, the trace ran to exit 0 on its unordered samples.
    trace = tmp_path / "nan.csv"
    trace.write_text("0,0.004\nnan,0.001\n700,0.003\n")
    args = ["--set", "harvester.kind=trace", "--set", f"trace_file={trace}"]
    assert main(["trace", *FAST, *args, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {trace}:2: non-finite timestamp nan"
    ]
    assert not (tmp_path / "results.csv").exists()
    assert not (tmp_path / "voltage_trace.csv").exists()


def test_runtime_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code = main(
        [
            "run",
            "--set",
            "harvester.kind=trace",
            "--set",
            f"trace_file={missing}",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    # A trace it cannot read is reported as a trace problem.
    assert capsys.readouterr().err.splitlines() == [f"error: {missing}: No such file or directory"]
    # An output directory that names a regular file reaches the catch-all.
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", "--set", "duration_s=60", "--out", str(taken)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_usage_errors_exit_nonzero(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "overrides, field",
    [
        (["capacitor.capacitance_f=nan"], "capacitance_f must be finite"),
        (["harvester.power_w=inf"], "power_w must be finite"),
        (["sim.duration_s=nan"], "duration_s must be finite"),
        (["packet_period_s=4e-10"], "packet_period_s must be at least the 1 ns clock tick"),
        (["update_interval_s=1e-10", "sim.trace=true"], "update_interval_s must be at least"),
        (
            ["harvester.kind=random", "harvester.update_period_s=1e-10"],
            "harvest_update_period_s must be at least",
        ),
        (["update_interval_s=0"], "update_interval_s must be positive"),
        (["bandwidth_hz=0"], "bandwidth_hz must be > 0"),
        (["sim.duration_s=1e300"], "duration_s is beyond the range of the 1 ns clock"),
        (["update_interval_s=1e300"], "update_interval_s is beyond the range"),
        (["first_packet_s=1e300"], "first_packet_s is beyond the range"),
        (["packet_period_s=1e300"], "packet_period_s is beyond the range"),
        (["dl_payload_bytes=-1"], "dl_payload_bytes must be >= 0"),
        (["harvester.kind=trace"], "trace_file is required for the trace harvester"),
        (["duration_s=1e-10"], "duration_s must be at least the 1 ns clock tick"),
        (["mac_overhead_bytes=-1"], "mac_overhead_bytes must be >= 0"),
        (
            ["harvester.kind=random", "harvester.update_period_s=inf"],
            "harvest_update_period_s must be finite",
        ),
        (
            ["harvester.kind=random", "harvester.update_period_s=1e300"],
            "harvest_update_period_s is beyond the range",
        ),
        (["rx2_delay_s=1e300"], "rx2_delay_s is beyond the range"),
    ],
)
def test_inputs_that_would_hang_or_crash_exit_2(tmp_path, capsys, overrides, field):
    args = [arg for pair in overrides for arg in ("--set", pair)]
    assert main(["run", *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ")
    assert field in err[0]


@pytest.mark.parametrize(
    "overrides",
    [
        # The recharge's crossing is about 1e308 s ahead: more ticks than a
        # float counts, so it is past the run's end.
        [
            "harvester.power_w=1e-300", "capacitor.capacitance_f=10", "initial_voltage_v=0",
            "off_a=0", "duration_s=60",
        ],
        # A transmission blocks the band for about 1e298 s.
        ["ul_duty_cycle=1e-300"],
    ],
)
def test_waits_too_long_for_the_clock_run_to_completion(tmp_path, capsys, overrides):
    args = [arg for pair in overrides for arg in ("--set", pair)]
    assert main(["run", *args, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "results.csv").read_text().startswith(RESULTS_HEADER)


def test_sweep_validates_each_point_once(tmp_path, capsys, monkeypatch):
    # A sweep checks every point up front; the Simulator of each point then
    # finds it already checked. The parsed base scenario is checked too.
    calls = []
    build = caplora.engine._build_parts

    def counting(config):
        calls.append(config)
        return build(config)

    monkeypatch.setattr(caplora.engine, "_build_parts", counting)
    empty_stores(monkeypatch)
    grid = ["--set", "sweep.capacitance_f=0.004,0.01", "--set", "sweep.kind=UL,UL+DL"]
    assert main(["sweep", *FAST, *grid, "--fresh", "--out", str(tmp_path)]) == 0
    assert "4 rows" in capsys.readouterr().out
    assert len(calls) == len(set(calls)) == 1 + 4


def test_two_calls_in_one_process_share_no_arguments(tmp_path, capsys, monkeypatch):
    # The parser is built once per process: a --set or --fresh given to one
    # call must not reach the next.
    assert caplora.cli._build_parser() is caplora.cli._build_parser()
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", *FAST, "--out", str(first)]) == 0
    assert main(["run", "--out", str(second)]) == 0
    config = caplora.engine.ScenarioConfig()
    row = caplora.engine.results_row(config, caplora.engine.run_scenario(config))
    assert (second / "results.csv").read_text().splitlines()[1] == row
    assert (first / "results.csv").read_text().splitlines()[1] != row
    seen = []
    monkeypatch.setattr(caplora.cli, "_cmd_sweep", lambda args: seen.append(args) or 0)
    assert main(["sweep", "--set", "duration_s=600", "--fresh", "--out", str(tmp_path)]) == 0
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    assert [(args.overrides, args.fresh) for args in seen] == [(["duration_s=600"], True), ([], False)]
