"""Every exact shortcut of the engine is invisible: a constant-harvest,
untraced run, drawn at random, ends exactly where the same run simulated
event by event ends, boot loops and brownouts included. Every run, whatever
its harvester, accounts for each packet it generated once."""

from __future__ import annotations

import atexit
import shutil
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from caplora import ScenarioConfig, Simulator
from caplora.lorawan import DeviceState

from conftest import assert_same_run, run_both_ways

# Below about 1.5 mF the 0.3 s turn-on cannot finish: the device boot-loops.
_CAPACITANCES_F = st.floats(0.2e-3, 1.5e-3) | st.floats(1.5e-3, 0.03)


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
    return ScenarioConfig(
        **draw(_CURRENTS_A),
        capacitance_f=draw(_CAPACITANCES_F),
        power_w=draw(st.sampled_from((0.0, 0.5e-3)) | st.floats(0.1e-3, 10e-3)),
        initial_voltage_v=draw(st.sampled_from((3.3, 2.5, 1.0))),
        packet_period_s=period_s,
        first_packet_s=draw(st.none() | st.floats(0.0, 2 * period_s)),
        confirmed=draw(st.booleans()),
        max_transmissions=draw(st.integers(1, 3)),
        guard_enabled=draw(st.booleans()),
        generate_while_off=draw(st.booleans()),
        # At most 100 packets, and at most an hour.
        duration_s=min(3600.0, period_s * draw(st.floats(0.5, 100.0))),
    )


@settings(max_examples=150, derandomize=True)
@given(constant_harvest_runs())
@example(ScenarioConfig(capacitance_f=0.3e-3, power_w=0.5e-3, confirmed=True, guard_enabled=False))
@example(ScenarioConfig(capacitance_f=0.001, power_w=0.005, guard_enabled=False, duration_s=600.0))
@example(
    ScenarioConfig(
        capacitance_f=0.3e-3,
        power_w=0.5e-3,
        turn_on_a=1e-4,
        sleep_a=2e-4,
        packet_period_s=60.0,
        duration_s=600.0,
    )
)
def test_every_shortcut_is_invisible(config):
    fast, slow = run_both_ways(config)
    assert_same_run(fast, slow)
    _assert_each_packet_accounted_once(fast)


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
@example(
    ScenarioConfig(
        capacitance_f=0.712e-3,
        power_w=0.18150009e-3,
        initial_voltage_v=1.0,
        packet_period_s=0.527,
        guard_enabled=False,
        duration_s=2000.0,
    )
)
@example(
    ScenarioConfig(
        capacitance_f=0.23e-3,
        power_w=0.1815027e-3,
        initial_voltage_v=1.0,
        packet_period_s=0.94,
        guard_enabled=False,
        duration_s=3000.0,
    )
)
def test_a_near_threshold_boot_loop_skip_is_invisible(config):
    fast, slow = run_both_ways(config)
    assert_same_run(fast, slow)
