"""The validation contract: ``validate_scenario`` never raises, and a
``Simulator`` refuses exactly the scenarios it reports problems for, with
the same problems. Construction only; no draw is run."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caplora import ConfigError, ScenarioConfig, Simulator
from caplora.clock import TICK_S
from caplora.engine import run_scenario, validate_scenario

# Zero, the clock tick and below it, values past the nanosecond clock's
# range, non-finite values and a plain negative.
EDGE_FLOATS = (0.0, TICK_S, TICK_S / 2, 1e300, -1e300, math.nan, math.inf, -math.inf, -1.0)

CHOICES = {
    "harvester": ("constant", "random"),
    "trace_file": (None, "harvest.csv"),
    "distribution": ("uniform", "exponential", "gaussian"),
    "guard_horizon": ("tx", "cycle", "week"),
}


def _values(name: str, annotation: str, default) -> st.SearchStrategy:
    if name in CHOICES:
        return st.sampled_from(CHOICES[name])
    if annotation.endswith(" | None"):
        return st.none() | _values(name, annotation[: -len(" | None")], default)
    if annotation == "bool":
        return st.booleans()
    if annotation == "int":
        return st.sampled_from((0, -1, 1)) | st.integers(-2, 10**6)
    scale = max(1.0, 4 * (default or 0.0))
    return st.sampled_from(EDGE_FLOATS) | st.floats(0.0, scale) | st.floats()


VALUES = {f.name: _values(f.name, f.type, f.default) for f in fields(ScenarioConfig)}


@st.composite
def scenarios(draw) -> ScenarioConfig:
    """The default scenario with a few fields, any of them, drawn anew."""
    names = draw(st.lists(st.sampled_from(sorted(VALUES)), unique=True, max_size=6))
    return ScenarioConfig(**{name: draw(VALUES[name]) for name in names})


@settings(max_examples=300, derandomize=True)
@given(scenarios())
@example(ScenarioConfig(duration_s=1e300))
@example(ScenarioConfig(harvester="random", harvest_update_period_s=TICK_S / 2))
@example(ScenarioConfig(harvester="random", harvest_update_period_s=math.inf))
@example(ScenarioConfig(harvester="random", harvest_update_period_s=math.nan))
@example(ScenarioConfig(harvester="random", harvest_update_period_s=1e300))
def test_simulator_refuses_exactly_what_validation_reports(config):
    problems = validate_scenario(config)
    assert not any("; " in problem for problem in problems)
    if problems:
        with pytest.raises(ConfigError) as excinfo:
            Simulator(config)
        assert excinfo.value.problems == problems
    else:
        Simulator(config)


# A time that large in these fields also breaks their order with another.
ORDER_PROBLEMS = {
    "rx1_delay_s": ["need 0 < rx1_delay_s < rx2_delay_s"],
    "standby_brief_s": ["standby_brief_s must be in (0, rx1_delay_s)"],
}


@pytest.mark.parametrize("name", [name for name in ScenarioConfig._fields if name.endswith("_s")])
def test_an_int_time_beyond_the_clock_is_reported_not_raised(name):
    # An int that no float holds: unchecked, validation raised OverflowError
    # on the radio's times, and a run on duration_s.
    config = ScenarioConfig(**{name: 10**400})
    clock = f"{name} is beyond the range of the 1 ns clock, got {10**400}"
    assert validate_scenario(config) == [clock, *ORDER_PROBLEMS.get(name, ())]
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(config)
    assert excinfo.value.problems == validate_scenario(config)
