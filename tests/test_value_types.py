"""The value types' contracts. The frozen ones check their values where they
are built, also when a changed copy is derived, are immutable and compare
and hash by value; the mutable ones compare every field. ``import caplora``
loads no ``dataclasses``, and ``dataclasses.replace`` still derives a
ScenarioConfig."""

from __future__ import annotations

import copy
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import caplora
from caplora import ConfigError, Metrics
from caplora.analysis import CycleSpec, SweepGrid
from caplora.device import CycleOutcome, CycleRecord, _Cycle
from caplora.energy import CapacitorParams, TraceRecorder, played_segments
from caplora.lorawan import DutyCycleBudget, LorawanParams
from conftest import make_params

SRC = Path(caplora.__file__).resolve().parent.parent

SPEC = CycleSpec("UL", 3.3, ((0.1, 0.0085), (1.0, 1e-6)), 1e-4, 3.3)

# A valid value of each frozen type, a change to it, and the problems the
# changed value is refused with.
REFUSED = [
    (make_params(), {"capacitance_f": 0.0}, ["capacitance_f must be > 0, got 0.0"]),
    (make_params(), {"v_th_high_v": 1.0}, ["v_th_high_v must be > v_th_low_v"]),
    (
        make_params(),
        {"max_voltage_v": 0.0},
        [
            "max_voltage_v must be > 0, got 0.0",
            "v_th_low_v must be in (0, max_voltage_v), got 1.8",
            "v_th_high_v must be in (0, max_voltage_v], got 3.0",
            "initial_voltage_v must be in [0, max_voltage_v], got 3.3",
        ],
    ),
    (LorawanParams(), {"data_rate": 9}, ["data_rate must be in 0..5, got 9"]),
    (LorawanParams(), {"rx1_delay_s": 2.0, "rx2_delay_s": 1.0}, ["need 0 < rx1_delay_s < rx2_delay_s"]),
    (LorawanParams(), {"ul_duty_cycle": 0.0}, ["ul_duty_cycle must be in (0, 1], got 0.0"]),
    (LorawanParams(), {"turn_on_s": math.inf}, ["turn_on_s must be finite, got inf"]),
    (
        LorawanParams(),
        {"rx2_delay_s": 1e300},
        ["rx2_delay_s is beyond the range of the 1 ns clock, got 1e+300"],
    ),
    (
        LorawanParams(),
        {"data_rate": 0, "rx_window_symbols": 40},
        ["receive window 1 would still be open at rx2_delay_s"],
    ),
    (SweepGrid(), {"capacitances_f": (0.0,)}, ["sweep capacitances must be positive"]),
    (SweepGrid(), {"kinds": ("DL",)}, ["sweep kinds must be among ('UL', 'UL+DL')"]),
    (SweepGrid(), {"powers_w": (0.001, 0.001)}, ["sweep powers repeat a value: 0.001"]),
    (
        SweepGrid(),
        {"periods_s": (60.0, 60.0000000001)},
        ["sweep periods hold distinct values that print alike: 60"],
    ),
]

FROZEN = [make_params(), LorawanParams(confirmed=True), SweepGrid(kinds=("UL",)), SPEC]


def _id(case) -> str:
    value, change, _ = case
    return f"{type(value).__name__}-{'-'.join(change)}"


@pytest.mark.parametrize("case", REFUSED, ids=map(_id, REFUSED))
def test_invalid_values_are_refused_when_built(case):
    value, change, problems = case
    with pytest.raises(ConfigError) as excinfo:
        type(value)(**{**value._asdict(), **change})
    assert excinfo.value.problems == problems


@pytest.mark.parametrize("case", REFUSED, ids=map(_id, REFUSED))
def test_invalid_values_are_refused_when_a_copy_is_derived(case):
    value, change, problems = case
    with pytest.raises(ConfigError) as excinfo:
        value._replace(**change)
    assert excinfo.value.problems == problems
    with pytest.raises(ConfigError) as excinfo:
        type(value)._make({**value._asdict(), **change}.values())
    assert excinfo.value.problems == problems


def test_a_cycle_spec_plays_its_segments_again_when_a_copy_is_derived():
    copy = SPEC._replace(g_harv=2e-4)
    assert copy.played == played_segments(SPEC.segments, 2e-4, SPEC.rail_voltage_v)
    assert copy.played != SPEC.played
    with pytest.raises(ValueError, match="elapsed time must be >= 0, got -1.0"):
        SPEC._replace(segments=((-1.0, 0.0085),))
    with pytest.raises(ValueError, match="elapsed time must be >= 0, got -1.0"):
        CycleSpec("UL", 3.3, ((-1.0, 0.0085),), 1e-4, 3.3)


def test_a_derived_copy_keeps_the_unchanged_fields():
    radio = LorawanParams(data_rate=5, confirmed=True, dl_payload_bytes=39)
    copy = radio._replace(data_rate=2)
    assert copy == LorawanParams(data_rate=2, confirmed=True, dl_payload_bytes=39)
    assert type(copy) is LorawanParams
    # ValueError up to Python 3.12, TypeError from 3.13 on.
    with pytest.raises((TypeError, ValueError), match="unexpected field names"):
        radio._replace(spreading_factor=9)


@pytest.mark.parametrize("value", FROZEN, ids=lambda value: type(value).__name__)
def test_frozen_types_refuse_assignment(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("value", FROZEN, ids=lambda value: type(value).__name__)
def test_equal_values_compare_and_hash_equal(value):
    twin = type(value)(**{name: getattr(value, name) for name in value._fields if name != "played"})
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert len({twin, value}) == 1


@pytest.mark.parametrize(
    "value", [*FROZEN, Metrics(generated=3), DutyCycleBudget(0.01)], ids=lambda value: type(value).__name__
)
def test_copies_and_pickles_equal_the_original(value):
    for duplicate in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        twin = duplicate(value)
        assert type(twin) is type(value) and twin == value


def test_each_type_keeps_its_fields_in_order():
    assert CapacitorParams._fields == (
        "capacitance_f", "rail_voltage_v", "max_voltage_v", "v_th_low_v", "v_th_high_v",
        "initial_voltage_v",
    )
    assert LorawanParams._fields[:3] == ("data_rate", "bandwidth_hz", "confirmed")
    assert LorawanParams._fields[-1] == "ul_duty_cycle" and len(LorawanParams._fields) == 14
    assert SweepGrid._fields == (
        "capacitances_f", "powers_w", "data_rates", "payloads_bytes", "periods_s", "kinds",
    )
    assert CycleSpec._fields[-1] == "played"
    assert Metrics.__slots__[0] == "generated" and Metrics.__slots__[-1] == "trace"


def _changed(name: str, value):
    """A value of Metrics field ``name`` other than ``value``."""
    if name == "cycles":
        changed = type(value)()
        changed._append(CycleRecord(1, "UL", 0, 1, CycleOutcome.DELIVERED))
        return changed
    if name == "outcomes":
        return {**value, CycleOutcome.DELIVERED: value[CycleOutcome.DELIVERED] + 1}
    if name == "trace":
        return TraceRecorder()
    if name == "valid":
        return not value
    return value + 1


@pytest.mark.parametrize("name", Metrics.__slots__)
def test_metrics_differing_in_any_one_field_compare_unequal(name):
    a, b = Metrics(), Metrics()
    assert a == b
    setattr(b, name, _changed(name, getattr(b, name)))
    assert a != b and not a == b


def test_mutable_records_compare_by_fields_and_are_unhashable():
    assert DutyCycleBudget(0.01) == DutyCycleBudget(0.01)
    assert DutyCycleBudget(0.01) != DutyCycleBudget(0.01, blocked_until_ns=5)
    assert _Cycle(1, 0) == _Cycle(1, 0, attempts=0, delivered=False)
    assert _Cycle(1, 0) != _Cycle(1, 0, attempts=1)
    assert repr(_Cycle(1, 0)) == "_Cycle(packet_id=1, start_ns=0, attempts=0, delivered=False)"
    for value in (Metrics(), DutyCycleBudget(0.01), _Cycle(1, 0)):
        with pytest.raises(TypeError):
            hash(value)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
    with pytest.raises(ValueError, match=r"duty cycle must be in \(0, 1\], got 0.0"):
        DutyCycleBudget(0.0)


# In a fresh interpreter: import the package and its command line, parse a
# scenario, and list which of dataclasses and inspect got loaded. Only then
# derive, list and convert a scenario through dataclasses, as the bench does.
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import caplora, caplora.cli
caplora.parse_config(None, ["seed=3"])
loaded = sorted({"dataclasses", "inspect"} & set(sys.modules))
import dataclasses
config = caplora.ScenarioConfig()
derived = dataclasses.replace(config, seed=2)
print(json.dumps({
    "loaded": loaded,
    "derived_type": type(derived) is caplora.ScenarioConfig,
    "changed": {name: value for name, value in derived._asdict().items() if value != getattr(config, name)},
    "is_dataclass": dataclasses.is_dataclass(config),
    "fields": [[f.name, f.type, f.default] for f in dataclasses.fields(caplora.ScenarioConfig)],
    "asdict": dataclasses.asdict(config) == config._asdict(),
}))
"""


def test_importing_caplora_loads_no_dataclasses():
    result = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["loaded"] == []
    assert probe["derived_type"] and probe["changed"] == {"seed": 2}
    assert probe["is_dataclass"] and probe["asdict"]
    names, types, defaults = zip(*probe["fields"])
    assert len(names) == 44 and names == caplora.ScenarioConfig._fields
    assert list(defaults) == list(caplora.ScenarioConfig())
    assert set(types) == {"float", "int", "str", "bool", "float | None", "int | None", "str | None"}
    assert dict(zip(names, types)) == {
        name: {
            "trace_file": "str | None",
            "first_packet_s": "float | None",
            "rx2_window_symbols": "int | None",
        }.get(name, type(default).__name__)
        for name, default in caplora.ScenarioConfig._field_defaults.items()
    }
