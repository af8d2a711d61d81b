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
from caplora.engine import validate_scenario

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
