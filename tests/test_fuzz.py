"""Every exact shortcut of the engine is invisible: a constant-harvest,
untraced run, drawn at random, ends exactly where the same run simulated
event by event ends, replayed settling periods, brownout orbits and boot
loops included. Every run, whatever its harvester, accounts for each packet it
generated once."""

from __future__ import annotations

import atexit
import inspect
import shutil
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path
from typing import Callable
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import caplora.engine
from caplora import ScenarioConfig, Simulator
from caplora.cli import main
from caplora.config import _SCHEMA
from caplora.engine import GUARD_HORIZONS
from caplora.lorawan import DeviceState

from conftest import assert_outcome_counts, assert_same_run, empty_stores, run_both_ways

# Below about 1.5 mF the 0.3 s turn-on cannot finish: the device boot-loops.
_CAPACITANCES_F = st.floats(0.2e-3, 1.5e-3) | st.floats(1.5e-3, 0.03)
# Up to 0.1 F the voltage settles over many packet periods, which the
# replay of a settling period skips.
_SETTLING_CAPACITANCES_F = _CAPACITANCES_F | st.floats(0.03, 0.1)


# Some draws change the powered-down currents and the SLEEP one: a turn-on
# light enough for a small capacitor, then a SLEEP load the harvest cannot
# hold, drains the device again soon after each wake.
_CURRENTS_A = st.fixed_dictionaries(
    {},
    optional={
        "off_a": st.floats(1e-6, 5e-5),
        "turn_on_a": st.floats(1e-4, 30e-3),
        "sleep_a": st.floats(1e-6, 5e-4),
    },
)


@st.composite
def constant_harvest_runs(draw) -> ScenarioConfig:
    period_s = draw(st.floats(1.0, 300.0))
    # Below the rail voltage, the maximum clamps a strong harvest.
    max_voltage_v = draw(st.sampled_from((3.3, 3.1)))
    return ScenarioConfig(
        **draw(_CURRENTS_A),
        capacitance_f=draw(_SETTLING_CAPACITANCES_F),
        power_w=draw(st.sampled_from((0.0, 0.5e-3)) | st.floats(0.1e-3, 10e-3)),
        max_voltage_v=max_voltage_v,
        initial_voltage_v=min(max_voltage_v, draw(st.sampled_from((3.3, 2.5, 1.0)))),
        packet_period_s=period_s,
        first_packet_s=draw(st.none() | st.floats(0.0, 2 * period_s)),
        confirmed=draw(st.booleans()),
        max_transmissions=draw(st.integers(1, 3)),
        guard_enabled=draw(st.booleans()),
        guard_horizon=draw(st.sampled_from(GUARD_HORIZONS)),
        generate_while_off=draw(st.booleans()),
        # At most 100 packets, and at most an hour.
        duration_s=min(3600.0, period_s * draw(st.floats(0.5, 100.0))),
        # mincap's own axes: a long uplink at data rate 0 runs into the
        # duty budget, and a large reply stretches a confirmed cycle.
        data_rate=draw(st.integers(0, 5)),
        ul_payload_bytes=draw(st.integers(0, 242)),
        dl_payload_bytes=draw(st.integers(0, 242)),
        mac_overhead_bytes=draw(st.integers(0, 20)),
    )


def _replayed(config: ScenarioConfig) -> tuple[Simulator, Simulator, bool]:
    """``run_both_ways(config)``, and whether the first run added a replayed
    copy of a logged stretch."""
    replay = Simulator._replay
    added = []

    def spy(self, earlier, mark, steps):
        after = replay(self, earlier, mark, steps)
        added.append(after is not mark)
        return after

    with mock.patch.object(Simulator, "_replay", spy):
        fast, slow = run_both_ways(config)
    return fast, slow, any(added)


# Runs each shortcut test below starts from.
_SHORTCUT_EXAMPLES = (
    ScenarioConfig(capacitance_f=0.3e-3, power_w=0.5e-3, confirmed=True, guard_enabled=False),
    ScenarioConfig(capacitance_f=0.001, power_w=0.005, guard_enabled=False, duration_s=600.0),
    ScenarioConfig(
        capacitance_f=0.3e-3,
        power_w=0.5e-3,
        turn_on_a=1e-4,
        sleep_a=2e-4,
        packet_period_s=60.0,
        duration_s=600.0,
    ),
    # A 600 s sizing probe at 0.1 F settles over all of its ten packets.
    ScenarioConfig(capacitance_f=0.1, power_w=0.5e-3, confirmed=True, duration_s=600.0),
    # A settling voltage that reaches the maximum between packets; the run
    # ends 1 s after a packet, before it is back there.
    ScenarioConfig(
        capacitance_f=0.02,
        power_w=5e-3,
        max_voltage_v=3.1,
        initial_voltage_v=2.5,
        first_packet_s=0.0,
        duration_s=3601.0,
    ),
    # Retried confirmed uplinks guarded over the whole cycle, settling.
    ScenarioConfig(
        capacitance_f=0.05,
        power_w=2e-3,
        confirmed=True,
        max_transmissions=3,
        guard_horizon="cycle",
        duration_s=3600.0,
    ),
)
_BOOT_LOOP_EXAMPLES = (
    ScenarioConfig(
        capacitance_f=0.712e-3,
        power_w=0.18150009e-3,
        initial_voltage_v=1.0,
        packet_period_s=0.527,
        guard_enabled=False,
        duration_s=2000.0,
    ),
    ScenarioConfig(
        capacitance_f=0.23e-3,
        power_w=0.1815027e-3,
        initial_voltage_v=1.0,
        packet_period_s=0.94,
        guard_enabled=False,
        duration_s=3000.0,
    ),
)


def _examples(configs):
    """Give a Hypothesis test each of ``configs`` as an explicit example."""

    def decorate(test):
        for config in reversed(configs):
            test = example(config)(test)
        return test

    return decorate


def test_every_shortcut_is_invisible():
    replays = []

    @settings(max_examples=150, derandomize=True)
    @given(constant_harvest_runs())
    @_examples(_SHORTCUT_EXAMPLES)
    def check(config):
        fast, slow, replayed = _replayed(config)
        assert_same_run(fast, slow)
        _assert_each_packet_accounted_once(fast)
        replays.append(replayed)

    check()
    # The replay is exercised, not only compared with itself: 43 of the 156
    # draws replay. The others are mostly short, unharvested, browned out or
    # bound by the uplink budget.
    assert sum(replays) >= 25


def _assert_each_packet_accounted_once(sim: Simulator) -> None:
    """Each generated packet has one record, or is the open cycle; a record
    is appended when its cycle ends, so a cycle kept open by the duty budget
    is logged after the packets it made busy."""
    metrics = sim.metrics
    ids = [record.packet_id for record in metrics.cycles]
    if sim.device.cycle is not None:
        ids.append(sim.device.cycle.packet_id)
    assert sorted(ids) == list(range(1, metrics.generated + 1))
    assert 0 <= metrics.acked <= metrics.delivered_ul <= metrics.generated
    assert all(record.start_ns <= record.end_ns for record in metrics.cycles)
    assert_outcome_counts(metrics)


# A 40-minute harvest trace of six 400 s stretches; the dark and the
# 0.5 mW ones brown out a small capacitor.
_TRACE_DIR = Path(tempfile.mkdtemp(prefix="caplora-fuzz-"))
atexit.register(shutil.rmtree, _TRACE_DIR, ignore_errors=True)
_TRACE_END_S = 2400
_TRACE = _TRACE_DIR / "dark_stretches.csv"
_TRACE.write_text(
    "".join(
        f"{t},{(0.005, 0.0, 0.002, 0.0, 0.008, 0.0005)[t // 400 % 6]}\n"
        for t in range(0, _TRACE_END_S + 1, 100)
    )
)


@st.composite
def varying_harvest_runs(draw) -> ScenarioConfig:
    """Runs on a trace with dark stretches, some longer than the trace, or
    on a random harvest; neither takes a shortcut."""
    period_s = draw(st.floats(1.0, 120.0))
    if draw(st.booleans()):
        harvest = dict(harvester="trace", trace_file=str(_TRACE))
        duration_s = draw(st.floats(60.0, _TRACE_END_S) | st.just(_TRACE_END_S + 300.0))
    else:
        harvest = dict(
            harvester="random",
            distribution=draw(st.sampled_from(("uniform", "exponential"))),
            high_w=draw(st.floats(0.2e-3, 6e-3)),
            mean_w=draw(st.floats(0.1e-3, 3e-3)),
            harvest_update_period_s=draw(st.floats(10.0, 120.0)),
            seed=draw(st.integers(1, 1000)),
        )
        duration_s = draw(st.floats(60.0, 1200.0))
    return ScenarioConfig(
        capacitance_f=draw(_CAPACITANCES_F),
        initial_voltage_v=draw(st.sampled_from((3.3, 2.5, 1.0))),
        packet_period_s=period_s,
        first_packet_s=draw(st.none() | st.floats(0.0, 2 * period_s)),
        turn_on_s=draw(st.sampled_from((0.0, 0.3, 1.0))),
        confirmed=draw(st.booleans()),
        max_transmissions=draw(st.integers(1, 3)),
        guard_enabled=draw(st.booleans()),
        generate_while_off=draw(st.booleans()),
        duration_s=duration_s,
        **harvest,
    )


@settings(max_examples=60, derandomize=True)
@given(varying_harvest_runs())
def test_each_packet_is_accounted_once_whatever_the_harvest(config):
    sim = Simulator(config)
    metrics = sim.run()
    _assert_each_packet_accounted_once(sim)
    trace_ran_out = config.harvester == "trace" and config.duration_s > _TRACE_END_S
    assert metrics.valid is not trace_ran_out


def _power_lifting_off_to(v_inf: float) -> float:
    """The harvest that holds an OFF device's asymptote at ``v_inf``."""
    config = ScenarioConfig()
    rail = config.rail_voltage_v
    g_off = config.load_conductances()[DeviceState.OFF]
    return v_inf * g_off / (rail - v_inf) * rail * rail


@st.composite
def near_threshold_boot_loops(draw) -> ScenarioConfig:
    """Boot loops whose OFF asymptote sits 0.1 to 10 uV above v_th_high_v:
    near that threshold the voltage moves about an ulp per tick, and a loop
    lasts 2 to 9 minutes."""
    v_th_high_v = ScenarioConfig().v_th_high_v
    return ScenarioConfig(
        capacitance_f=draw(st.floats(0.2e-3, 0.6e-3)),
        power_w=_power_lifting_off_to(v_th_high_v + draw(st.floats(1e-7, 1e-5))),
        initial_voltage_v=draw(st.sampled_from((3.3, 1.0))),
        packet_period_s=draw(st.floats(1.0, 60.0)),
        guard_enabled=draw(st.booleans()),
        generate_while_off=draw(st.booleans()),
        duration_s=3600.0,
    )


@settings(max_examples=12, derandomize=True)
@given(near_threshold_boot_loops())
@_examples(_BOOT_LOOP_EXAMPLES)
def test_a_near_threshold_boot_loop_skip_is_invisible(config):
    fast, slow = run_both_ways(config)
    assert_same_run(fast, slow)


# Trace files a command line may name: a good one, a malformed one, one that
# is missing, a directory and a binary file.
_MALFORMED = _TRACE_DIR / "malformed.csv"
_MALFORMED.write_text("time_s,power_w\n0,abc\n5,-1\n3,nan\n")
_BINARY = _TRACE_DIR / "binary.csv"
_BINARY.write_bytes(b"\xff\xfe\x00\x81")
_TRACE_FILES = tuple(
    str(path) for path in (_TRACE, _MALFORMED, _TRACE_DIR / "missing.csv", _TRACE_DIR, _BINARY)
)
_KEYS = sorted(
    {f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys}
    | {key for keys in _SCHEMA.values() for key in keys}
    | {"nope", "capacitor.nope", ""}
)
# Non-finite, huge, negative, empty and malformed values, and ones a run
# accepts; none makes a valid run long.
_VALUES = (
    "nan", "inf", "-inf", "1e400", "-1", "0", "", "abc", "none", "1,2", "0,nan",
    "0.5", "2", "60", "1e-12", "true", "trace", "random", "cycle", "UL+DL",
)


@st.composite
def command_lines(draw) -> list[str]:
    argv = [draw(st.sampled_from(("run", "trace", "mincap", "sweep", "bogus")))]
    if draw(st.booleans()):
        trace_file = draw(st.sampled_from(_TRACE_FILES))
        argv += ["--set", "harvester.kind=trace", "--set", f"harvester.trace_file={trace_file}"]
    for _ in range(draw(st.integers(0, 3))):
        argv += ["--set", f"{draw(st.sampled_from(_KEYS))}={draw(st.sampled_from(_VALUES))}"]
    return argv


@settings(max_examples=100, derandomize=True)
@given(command_lines())
def test_a_command_line_exits_0_1_or_2_without_a_traceback(argv):
    out_dir = tempfile.mkdtemp(dir=_TRACE_DIR)
    err = StringIO()
    with redirect_stderr(err), redirect_stdout(StringIO()):
        code = main([*argv, "--out", out_dir])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert not any("Traceback" in line for line in lines)
    # Exit 1 is a runtime failure of the harvest trace only: one it cannot
    # read or parse, each problem on an ``error: <file>:`` line, or one that
    # runs out.
    if code == 1:
        trace_file = [arg.partition("=")[2] for arg in argv if "trace_file=" in arg][-1]
        assert all(
            line.startswith(f"error: {trace_file}:") or "harvest trace exhausted" in line
            for line in lines
        )


@contextmanager
def _lines_run(*lines: tuple[Callable, str]):
    """The ``(function, line)`` pairs, each naming one source line of a
    function, whose line ran while the block did."""
    targets: dict = {}
    for function, line in lines:
        source, first = inspect.getsourcelines(function)
        [at] = [first + k for k, text in enumerate(source) if text.strip() == line]
        targets.setdefault(function.__code__, {})[at] = (function, line)
    ran = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hit = targets[frame.f_code].get(frame.f_lineno)
            if hit is not None:
                ran.add(hit)
        return trace_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code in targets else None)
    try:
        yield ran
    finally:
        sys.settrace(previous)


# Where each store of the shortcuts is emptied once full.
_RESETS = (
    (Simulator._anchor, "anchors.clear()"),
    (Simulator._replay, "seen.clear()"),
    (caplora.engine._parts_of, "_scenario_parts.clear()"),
)


def test_shortcuts_stay_invisible_as_their_stores_fill(monkeypatch):
    # Stores this small fill over and over: the repeat search's anchors and
    # log, and a replay's copy starts, at ``memory`` entries, and the store
    # of run parts at its second scenario. Below about 8 entries the log
    # is dropped before a stretch fits in it, so only exact orbits are
    # replayed. A day of the retried, guarded example settles over more
    # copies than 8 starts, then repeats one, which a replay finds among
    # the starts kept since the last reset.
    day = replace(_SHORTCUT_EXAMPLES[-1], duration_s=86_400.0)
    empty_stores(monkeypatch)
    monkeypatch.setattr(caplora.engine, "_PART_MEMORY", 1)
    with _lines_run(*_RESETS) as ran:
        for memory in (2, 3, 8):
            monkeypatch.setattr(caplora.engine, "_REPEAT_MEMORY", memory)
            for config in (*_SHORTCUT_EXAMPLES, *_BOOT_LOOP_EXAMPLES, day):
                fast, slow = run_both_ways(config)
                assert_same_run(fast, slow)
    assert ran == set(_RESETS)
