"""Scenario files and overrides: parsing, validation aggregation, round trips."""

from __future__ import annotations

import configparser
import io
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from caplora import ConfigError, ScenarioConfig, parse_config
from caplora.analysis import SweepGrid
from caplora.config import _SCHEMA, _parser, dump_config


def test_no_source_yields_defaults():
    config, grid = parse_config()
    assert config == ScenarioConfig()
    assert grid == SweepGrid()


def test_empty_stream_yields_defaults():
    config, grid = parse_config(io.StringIO(""))
    assert config == ScenarioConfig()
    assert grid == SweepGrid()


def test_inline_comments_are_stripped():
    config, _ = parse_config(
        io.StringIO(
            "[sim]\n"
            "duration_s = 120  ; two minutes\n"
            "seed = 9  # lucky\n"
        )
    )
    assert config.duration_s == 120.0
    assert config.seed == 9


SAMPLE = """
[capacitor]
capacitance_f = 0.047
rail_voltage_v = 4.0
max_voltage_v = 3.3
v_th_low_v = 1.8
v_th_high_v = 3.0
initial_voltage_v = 2.5
update_interval_s = 0.5

[harvester]
kind = random
distribution = exponential
mean_w = 0.0015
update_period_s = 30

[lorawan]
data_rate = 0
confirmed = true
ul_payload_bytes = 24
rx2_window_symbols = 16
max_transmissions = 3

[currents]
tx_a = 0.030

[traffic]
packet_period_s = 300
first_packet_s = none
generate_while_off = false

[sim]
duration_s = 7200
seed = 9
guard = true
guard_horizon = cycle
trace = true

[sweep]
capacitance_f = 0.01, 0.047, 0.1
period_s = 60, 300
kind = UL, UL+DL
"""


def test_parse_full_sample():
    config, grid = parse_config(io.StringIO(SAMPLE))
    assert config.capacitance_f == 0.047
    assert config.rail_voltage_v == 4.0
    assert config.harvester == "random"
    assert config.distribution == "exponential"
    assert config.harvest_update_period_s == 30.0
    assert config.data_rate == 0
    assert config.confirmed is True
    assert config.rx2_window_symbols == 16
    assert config.tx_a == 0.030
    assert config.first_packet_s is None
    assert config.generate_while_off is False
    assert config.guard_enabled is True
    assert config.guard_horizon == "cycle"
    assert config.trace is True
    assert grid.capacitances_f == (0.01, 0.047, 0.1)
    assert grid.periods_s == (60.0, 300.0)
    assert grid.kinds == ("UL", "UL+DL")


def test_round_trip_through_dump():
    config, grid = parse_config(io.StringIO(SAMPLE))
    text = dump_config(config, grid)
    config2, grid2 = parse_config(io.StringIO(text))
    assert config2 == config
    assert grid2 == grid


def test_defaults_round_trip():
    text = dump_config(ScenarioConfig())
    config, grid = parse_config(io.StringIO(text))
    assert config == ScenarioConfig()
    assert grid == SweepGrid()


def test_overrides_bare_and_qualified():
    config, _ = parse_config(
        None, ["duration_s=120", "sim.seed=5", "harvester.power_w=0.002"]
    )
    assert config.duration_s == 120.0
    assert config.seed == 5
    assert config.power_w == 0.002


def test_override_values_apply_over_file_values():
    config, grid = parse_config(
        io.StringIO("[sim]\nduration_s = 100\n"),
        ["duration_s=250", "sweep.capacitance_f=0.1,0.2"],
    )
    assert config.duration_s == 250.0
    assert grid.capacitances_f == (0.1, 0.2)


def test_ambiguous_override_names_both_sections():
    with pytest.raises(ConfigError) as err:
        parse_config(None, ["capacitance_f=0.1"])
    message = str(err.value)
    assert "capacitor" in message and "sweep" in message and "qualify" in message


def test_unknown_override_key():
    with pytest.raises(ConfigError) as err:
        parse_config(None, ["capacity=0.1"])
    assert "unknown config key" in str(err.value)


def test_malformed_override_pair():
    with pytest.raises(ConfigError) as err:
        parse_config(None, ["duration_s"])
    assert "key=value" in str(err.value)


def test_all_problems_reported_together():
    source = io.StringIO(
        """
[capacitor]
capacitance_f = lots
v_th_low_v = 3.1
v_th_high_v = 3.0

[radio]
freq = 868

[sim]
warp = 9
duration_s = -1
"""
    )
    with pytest.raises(ConfigError) as err:
        parse_config(source)
    problems = err.value.problems
    text = "; ".join(problems)
    assert "capacitor.capacitance_f" in text  # unparseable float
    assert "unknown section [radio]" in text
    assert "unknown key sim.warp" in text
    assert len(problems) >= 3
    # Semantic checks run once the text parses, so fix the float and look for
    # the threshold-ordering and duration complaints.
    source = io.StringIO(
        """
[capacitor]
v_th_low_v = 3.1
v_th_high_v = 3.0

[sim]
duration_s = -1
"""
    )
    with pytest.raises(ConfigError) as err:
        parse_config(source)
    text = "; ".join(err.value.problems)
    assert "v_th_high_v must be > v_th_low_v" in text
    assert "duration_s must be positive" in text


def test_missing_file_is_one_clear_problem(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(tmp_path / "nope.ini")
    assert "config file not found" in str(err.value)


@pytest.mark.parametrize(
    "text, problem",
    [
        ("capacitance_f = 0.01\n", "File contains no section headers"),
        ("[capacitor]\n[capacitor]\n", "section 'capacitor' already exists"),
    ],
    ids=["no-section-header", "duplicate-section"],
)
def test_a_malformed_file_is_one_problem_from_a_path_or_a_stream(tmp_path, text, problem):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    for source in (path, io.StringIO(text)):
        with pytest.raises(ConfigError) as err:
            parse_config(source)
        assert len(err.value.problems) == 1
        assert problem in err.value.problems[0]


def test_boolean_and_none_spellings():
    config, _ = parse_config(
        io.StringIO(
            """
[lorawan]
confirmed = YES
rx2_window_symbols = none

[sim]
trace = off

[traffic]
first_packet_s =
"""
        )
    )
    assert config.confirmed is True
    assert config.rx2_window_symbols is None
    assert config.trace is False
    assert config.first_packet_s is None
    with pytest.raises(ConfigError) as err:
        parse_config(io.StringIO("[sim]\ntrace = maybe\n"))
    assert "expected a boolean" in str(err.value)


def test_sweep_grid_problems_are_aggregated():
    with pytest.raises(ConfigError) as err:
        parse_config(io.StringIO("[sweep]\ncapacitance_f = -1\nkind = DL\n"))
    text = str(err.value)
    assert "capacitances must be positive" in text
    assert "kinds must be among" in text


FULL_GRID = SweepGrid(
    capacitances_f=(0.002, 0.004),
    powers_w=(0.0005, 0.001),
    data_rates=(2, 5),
    payloads_bytes=(10, 20),
    periods_s=(60.0, 300.0),
    kinds=("UL", "UL+DL"),
)

GOLDEN_DUMP = """\
[capacitor]
capacitance_f = 0.01
rail_voltage_v = 3.3
max_voltage_v = 3.3
v_th_low_v = 1.8
v_th_high_v = 3.0
initial_voltage_v = 3.3
update_interval_s = 1.0

[harvester]
kind = constant
power_w = 0.001
trace_file = none
distribution = uniform
low_w = 0.0
high_w = 0.002
mean_w = 0.001
update_period_s = 1.0

[lorawan]
data_rate = 3
bandwidth_hz = 125000.0
confirmed = false
ul_payload_bytes = 10
dl_payload_bytes = 0
mac_overhead_bytes = 13
rx1_delay_s = 1.0
rx2_delay_s = 2.0
rx_window_symbols = 8
rx2_window_symbols = none
turn_on_s = 0.3
standby_brief_s = 0.01
max_transmissions = 1
ul_duty_cycle = 0.01

[currents]
off_a = 5.5e-06
turn_on_a = 0.015
sleep_a = 5.6e-06
tx_a = 0.028011
idle_a = 7e-06
standby_a = 0.0105055
rx_a = 0.011011

[traffic]
packet_period_s = 60.0
first_packet_s = none
generate_while_off = true

[sim]
duration_s = 3600.0
seed = 1
guard = true
guard_horizon = tx
trace = false

[sweep]
capacitance_f = 0.002, 0.004
power_w = 0.0005, 0.001
data_rate = 2, 5
payload_bytes = 10, 20
period_s = 60.0, 300.0
kind = UL, UL+DL
"""


def test_dump_of_defaults_and_full_grid_is_pinned():
    assert dump_config(ScenarioConfig(), FULL_GRID) == GOLDEN_DUMP


@pytest.mark.parametrize("annotation", ["complex", "complex | None", "tuple[complex, ...]"])
def test_an_annotation_with_no_ini_parser_is_refused(annotation):
    # A field of a type the INI schema cannot read fails when the schema is
    # derived, at import, not when a file first sets it.
    with pytest.raises(TypeError, match="no INI parser for the annotation 'complex'"):
        _parser(annotation)


def test_every_field_has_exactly_one_key():
    targets = Counter(field for keys in _SCHEMA.values() for field, _ in keys.values())
    declared = [f.name for f in fields(ScenarioConfig) + fields(SweepGrid)]
    assert sorted(targets) == sorted(declared)
    assert set(targets.values()) == {1}


def _dumped_keys():
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(GOLDEN_DUMP)
    return [(section, key, value) for section in ini.sections() for key, value in ini.items(section)]


@pytest.mark.parametrize("section, key, value", _dumped_keys())
def test_each_key_round_trips_through_set(section, key, value):
    config, grid = parse_config(None, [f"{section}.{key}={value}"])
    if section == "sweep":
        field, _ = _SCHEMA[section][key]
        assert getattr(grid, field) == getattr(FULL_GRID, field)
    else:
        assert config == ScenarioConfig()


def test_readme_scenario_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config, grid = parse_config(io.StringIO(block))
    assert config.capacitance_f == 0.004756
    assert grid.kinds == ("UL", "UL+DL")
