"""Command line entry points, exercised in process through ``main``."""

from __future__ import annotations

import pytest

from caplora.cli import main
from caplora.engine import RESULTS_HEADER


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
    ],
    ids=["data_rate", "power_w"],
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


def test_runtime_errors_exit_1(tmp_path, capsys):
    code = main(
        [
            "run",
            "--set",
            "harvester.kind=trace",
            "--set",
            f"trace_file={tmp_path / 'missing.csv'}",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
    ],
)
def test_inputs_that_would_hang_or_crash_exit_2(tmp_path, capsys, overrides, field):
    args = [arg for pair in overrides for arg in ("--set", pair)]
    assert main(["run", *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ")
    assert field in err[0]
