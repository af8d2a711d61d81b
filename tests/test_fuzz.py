"""Every exact shortcut of the engine is invisible: a constant-harvest,
untraced run, drawn at random, ends exactly where the same run simulated
event by event ends, boot loops and brownouts included."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from caplora import ScenarioConfig
from caplora.lorawan import DeviceState

from conftest import assert_same_run, run_both_ways

# Below about 1.5 mF the 0.3 s turn-on cannot finish: the device boot-loops.
_CAPACITANCES_F = st.floats(0.2e-3, 1.5e-3) | st.floats(1.5e-3, 0.03)


@st.composite
def constant_harvest_runs(draw) -> ScenarioConfig:
    period_s = draw(st.floats(1.0, 300.0))
    return ScenarioConfig(
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
def test_every_shortcut_is_invisible(config):
    fast, slow = run_both_ways(config)
    assert_same_run(fast, slow)
    metrics = fast.metrics
    assert len(metrics.cycles) + (fast.device.cycle is not None) == metrics.generated
    assert 0 <= metrics.acked <= metrics.delivered_ul <= metrics.generated


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
