"""Analytic sizing and engine-driven sweeps."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from caplora import ConfigError, ScenarioConfig, analysis, energy
from caplora.analysis import (
    CYCLE_KINDS,
    DEFAULT_C_HI_F,
    DEFAULT_C_LO_F,
    DEFAULT_DATA_RATES,
    DEFAULT_DL_PAYLOAD_BYTES,
    DEFAULT_TOL_REL,
    INFEASIBLE_MARKER,
    MINCAP_HEADER,
    SweepGrid,
    cycle_spec,
    engine_cycle_feasible,
    expand_grid,
    min_capacitance,
    min_capacitance_for_target,
    min_voltage_over_cycle,
    mincap_csv,
    peak_success_capacitance,
    run_sweep,
    success_curve,
)
from caplora.engine import RESULTS_HEADER, capacitor_params, validate_scenario
from caplora.harvester import TraceExhaustedError
from caplora.lorawan import data_rate_to_sf, rx_window_duration
from conftest import stepwise_min_voltage


BASE = ScenarioConfig(power_w=0.001, data_rate=3, ul_payload_bytes=10)


def test_cycle_spec_starts_from_banked_voltage():
    spec = cycle_spec(BASE, "UL")
    # The device banks the steady level it reaches while off, a little under
    # the rail because the off leak loads the divider; capped at the maximum.
    assert 3.2 < spec.initial_voltage_v < 3.3
    strong = cycle_spec(BASE, "UL", power_w=1.0)
    assert strong.initial_voltage_v == pytest.approx(3.3, abs=1e-3)
    nothing = cycle_spec(replace(BASE, power_w=0.0), "UL")
    assert nothing.initial_voltage_v == 0.0  # no harvest: nothing banked
    with pytest.raises(ValueError, match="unknown cycle kind"):
        cycle_spec(BASE, "DL")


@pytest.mark.parametrize("kind", ["trace", "random"])
def test_sizing_needs_a_power_the_scenario_harvests(tmp_path, kind):
    # A trace or random harvester never harvests the scenario's power_w:
    # unchecked, an all-dark trace was sized at that unused 1 mW (2.97 mF).
    dark = tmp_path / "dark.csv"
    dark.write_text("time_s,power_w\n0,0\n3600,0\n")
    config = replace(BASE, harvester=kind, trace_file=str(dark))
    message = f"sizing at the scenario's power_w needs harvester kind constant, got {kind}"
    for size in (
        lambda: cycle_spec(config, "UL"),
        lambda: min_capacitance(config, "UL"),
        lambda: engine_cycle_feasible(config, "UL", 0.01),
    ):
        with pytest.raises(ConfigError) as raised:
            size()
        assert raised.value.problems == [message]
    # An explicit power is sized as on the constant harvester.
    assert cycle_spec(config, "UL", 0.001) == cycle_spec(BASE, "UL")
    assert min_capacitance(config, "UL", 0.001) == min_capacitance(BASE, "UL")
    assert engine_cycle_feasible(config, "UL", 0.01, 0.001)


def test_min_capacitance_brackets_the_boundary():
    c_min = min_capacitance(BASE, "UL", tol_rel=0.01)
    assert c_min is not None
    spec = cycle_spec(BASE, "UL")
    assert min_voltage_over_cycle(c_min, spec, BASE) >= 1.8
    assert min_voltage_over_cycle(c_min / 1.05, spec, BASE) < 1.8


def test_min_capacitance_confirmed_needs_more():
    ul = min_capacitance(BASE, "UL")
    uldl = min_capacitance(replace(BASE, dl_payload_bytes=39), "UL+DL")
    assert ul is not None and uldl is not None
    assert uldl >= ul


def test_min_capacitance_infeasible_when_harvest_cannot_bank_charge():
    # 10 uW on the 3.3 V rail banks barely over a volt: below the cutoff, so
    # no capacitor size can ever make a cycle work.
    weak = cycle_spec(BASE, "UL", power_w=1e-5)
    assert weak.initial_voltage_v < 1.8
    assert min_capacitance(BASE, "UL", power_w=1e-5) is None


@pytest.mark.parametrize("power_w", [math.nan, math.inf])
def test_min_capacitance_rejects_non_finite_power(power_w):
    # Unchecked, NaN yields the bracket's top as an answer and inf a
    # division by zero.
    with pytest.raises(ValueError, match="finite"):
        min_capacitance(ScenarioConfig(), "UL", power_w)


def test_min_capacitance_returns_floor_when_already_feasible():
    assert min_capacitance(BASE, "UL", c_lo=1.0, c_hi=10.0) == 1.0
    # The engine-driven sizing too: a run at the floor already succeeds.
    assert min_capacitance_for_target(BASE, "UL", c_lo=1.0, c_hi=10.0) == 1.0


_BAD_BRACKETS = [
    {"tol_rel": 0.0},
    {"tol_rel": -0.5},
    {"tol_rel": math.nan},
    {"tol_rel": math.inf},
    {"c_lo": 0.0},
    {"c_lo": -1.0},
    {"c_lo": math.nan},
    {"c_lo": 2.0, "c_hi": 1.0},
    {"c_lo": 1.0, "c_hi": 1.0},
    {"c_hi": math.inf},
]


def _bracket_id(bracket):
    return ",".join(f"{key}={value}" for key, value in bracket.items())


@pytest.mark.parametrize("bracket", _BAD_BRACKETS, ids=_bracket_id)
def test_min_capacitance_rejects_a_degenerate_bracket_before_probing(monkeypatch, bracket):
    # Unchecked, tol_rel <= 0 bisects forever and NaN returns the bracket's top.
    probed = []
    monkeypatch.setattr(
        analysis, "min_capacitance_over_played", lambda *args: probed.append(args)
    )
    with pytest.raises(ValueError, match="bisection needs 0 < c_lo < c_hi"):
        min_capacitance(BASE, "UL", **bracket)
    assert probed == []


@pytest.mark.parametrize("bracket", _BAD_BRACKETS, ids=_bracket_id)
def test_min_capacitance_for_target_rejects_a_degenerate_bracket_before_running(
    monkeypatch, bracket
):
    runs = []
    monkeypatch.setattr(analysis, "run_scenario", lambda config: runs.append(config))
    with pytest.raises(ValueError, match="bisection needs 0 < c_lo < c_hi"):
        min_capacitance_for_target(BASE, "UL", **{"c_lo": 1e-4, "c_hi": 1.0, **bracket})
    assert runs == []


def test_engine_agrees_with_analytic_boundary():
    for kind, dl in (("UL", 0), ("UL+DL", 39)):
        config = replace(BASE, dl_payload_bytes=dl)
        c_min = min_capacitance(config, kind)
        assert c_min is not None
        assert engine_cycle_feasible(config, kind, c_min)
        assert not engine_cycle_feasible(config, kind, 0.9 * c_min)


@st.composite
def _sized_scenarios(draw) -> tuple[ScenarioConfig, str, float]:
    """A valid scenario, a cycle kind and a power to size it at: radio,
    thresholds, currents, rail voltage, receive delays and windows drawn
    wherever validation accepts them."""
    max_voltage_v = draw(st.sampled_from((3.1, 3.3)))
    data_rate = draw(st.integers(0, 5))
    rx_window_symbols = draw(st.integers(1, 255))
    window_1_s = rx_window_duration(data_rate_to_sf(data_rate), rx_window_symbols)
    rx1_delay_s = draw(st.floats(0.5, 3.0))
    config = replace(
        BASE,
        data_rate=data_rate,
        rail_voltage_v=10 ** draw(st.floats(-1.0, 1.5)),
        ul_payload_bytes=draw(st.integers(0, 242)),
        dl_payload_bytes=draw(st.integers(0, 242)),
        max_voltage_v=max_voltage_v,
        initial_voltage_v=max_voltage_v,
        v_th_low_v=draw(st.floats(1.6, 2.4)),
        v_th_high_v=draw(st.floats(2.5, 3.0)),
        tx_a=draw(st.floats(5e-3, 50e-3)),
        rx_a=draw(st.floats(2e-3, 20e-3)),
        standby_a=draw(st.floats(1e-6, 15e-3)),
        idle_a=draw(st.floats(1e-6, 1e-3)),
        rx1_delay_s=rx1_delay_s,
        # Window 1 closes before window 2 opens.
        rx2_delay_s=rx1_delay_s + window_1_s + draw(st.floats(1e-3, 3.0)),
        rx_window_symbols=rx_window_symbols,
        rx2_window_symbols=draw(st.none() | st.integers(1, 255)),
        standby_brief_s=draw(st.floats(0.001, 0.9)) * rx1_delay_s,
    )
    power_w = 10 ** draw(st.floats(-5.0, math.log10(3e-2)))
    return config, draw(st.sampled_from(CYCLE_KINDS)), power_w


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_sized_scenarios())
def test_analytic_sizing_agrees_with_the_engine_on_any_scenario(sized):
    # The paper's own validation, over every field the sizing reads: no
    # answer means the largest capacitor fails in the engine too, an answer
    # completes a cycle there, and one a bracket step below it does not.
    config, kind, power_w = sized
    assert validate_scenario(config) == []
    answer = min_capacitance(config, kind, power_w)
    if answer is None:
        assert not engine_cycle_feasible(config, kind, DEFAULT_C_HI_F, power_w)
        return
    assert engine_cycle_feasible(config, kind, answer, power_w)
    if answer > DEFAULT_C_LO_F:
        below = answer / (1.0 + 2.0 * DEFAULT_TOL_REL)
        assert not engine_cycle_feasible(config, kind, below, power_w)


def _cell(c_min: float | None) -> str:
    """A capacitance as ``mincap_csv`` prints a cell."""
    return INFEASIBLE_MARKER if c_min is None else f"{c_min:.6g}"


def test_mincap_table_rows_and_csv():
    grid = dict(data_rates=(3, 5), payloads_bytes=(10,), powers_w=(0.001, 1e-5), kinds=CYCLE_KINDS)
    assert MINCAP_HEADER == "dr,payload_bytes,P_harvest_W,kind,min_C_farads"
    header, *lines = mincap_csv(BASE, **grid).splitlines()
    assert header == MINCAP_HEADER
    # One line per row, in grid order.
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"{dr},10,{power},{kind}" for dr in (3, 5) for power in (0.001, 1e-05) for kind in CYCLE_KINDS
    ]
    by_key = {line.rsplit(",", 1)[0]: line.rsplit(",", 1)[1] for line in lines}
    feasible = min_capacitance(_row_config(3, 10), "UL", 0.001)
    assert feasible is not None
    assert by_key["3,10,0.001,UL"] == f"{feasible:.6g}"
    assert by_key["3,10,1e-05,UL"] == INFEASIBLE_MARKER


@pytest.mark.parametrize(
    "axis, problem",
    [
        ({"powers_w": (0.001, math.nan)}, "power_w must be finite, got nan"),
        ({"data_rates": (3, 9)}, "data_rate must be in 0..5, got 9"),
        ({"payloads_bytes": (10, -1)}, "ul_payload_bytes must be >= 0, got -1"),
        ({"kinds": ("UL", "bogus")}, f"mincap kinds must be among {CYCLE_KINDS}"),
    ],
    ids=["power_w", "data_rate", "ul_payload", "kind"],
)
def test_mincap_table_checks_every_row_before_sizing_any(monkeypatch, axis, problem):
    sized = []
    monkeypatch.setattr(
        analysis, "min_capacitance_over_played", lambda *args: sized.append(args)
    )
    with pytest.raises(ConfigError) as excinfo:
        mincap_csv(BASE, **{"data_rates": (3,), "payloads_bytes": (10,), **axis})
    assert excinfo.value.problems == [problem]
    assert sized == []


def _bisect_on_whole_configs(config, kind, power_w, tol_rel):
    """Reference bisection that builds every probe's capacitor from a copy of
    the whole scenario with only the capacitance changed, and plays the
    cycle one ``propagate_voltage`` step at a time."""
    spec = cycle_spec(config, kind, power_w)

    def feasible(c):
        params = capacitor_params(replace(config, capacitance_f=c))
        v_min = stepwise_min_voltage(
            spec.initial_voltage_v, spec.segments, spec.g_harv, params
        )
        return v_min >= config.v_th_low_v

    if not feasible(DEFAULT_C_HI_F):
        return None
    if feasible(DEFAULT_C_LO_F):
        return DEFAULT_C_LO_F
    lo, hi = DEFAULT_C_LO_F, DEFAULT_C_HI_F
    while hi / lo > 1.0 + tol_rel:
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _grid_rows(grid):
    return [
        (dr, payload, power, kind)
        for dr in grid["data_rates"]
        for payload in grid["payloads_bytes"]
        for power in grid["powers_w"]
        for kind in CYCLE_KINDS
    ]


def _row_config(dr, payload, base=BASE):
    return replace(base, data_rate=dr, ul_payload_bytes=payload, dl_payload_bytes=DEFAULT_DL_PAYLOAD_BYTES)


def _reference_lines(rows, answer) -> list[str]:
    """``mincap_csv``'s lines for ``(dr, payload, power, kind)`` rows whose
    reference answers ``answer(dr, payload, power, kind)`` gives."""
    return [
        f"{dr},{payload},{power:.9g},{kind},{_cell(answer(dr, payload, power, kind))}"
        for dr, payload, power, kind in rows
    ]


# Infeasible rows, rows at the bracket floor and bisected rows all occur.
_MINCAP_GRID = dict(data_rates=(3, 5), payloads_bytes=(10, 40), powers_w=(1e-5, 0.001, 1.0))

# Payloads 10, 11 and 12 bytes code to the same number of symbols at some
# data rates and not at others, so some rows repeat an earlier row's cycle.
_REPEATING_GRID = dict(
    data_rates=DEFAULT_DATA_RATES, payloads_bytes=(10, 11, 12, 40), powers_w=(1e-5, 0.001, 1.0)
)


def test_mincap_table_equals_whole_config_bisection_exactly():
    lines = mincap_csv(BASE, kinds=CYCLE_KINDS, **_MINCAP_GRID).splitlines()[1:]
    answers = {
        (dr, payload, power, kind): _bisect_on_whole_configs(
            _row_config(dr, payload), kind, power, DEFAULT_TOL_REL
        )
        for dr, payload, power, kind in _grid_rows(_MINCAP_GRID)
    }
    assert lines == _reference_lines(answers, lambda *row: answers[row])
    # Infeasible rows, rows at the bracket floor and bisected rows all occur.
    assert None in answers.values() and DEFAULT_C_LO_F in answers.values()
    assert len(set(answers.values()) - {None, DEFAULT_C_LO_F}) > 1


def _public_answer(dr, payload, power, kind):
    return min_capacitance(_row_config(dr, payload), kind, power)


def test_mincap_table_rows_equal_public_min_capacitance():
    lines = mincap_csv(BASE, kinds=CYCLE_KINDS, **_REPEATING_GRID).splitlines()[1:]
    rows = _grid_rows(_REPEATING_GRID)
    # Text equality: every cell prints its row's min_capacitance answer.
    assert lines == _reference_lines(rows, _public_answer)
    answers = {_public_answer(*row) for row in rows}
    assert None in answers and DEFAULT_C_LO_F in answers
    assert len(answers - {None, DEFAULT_C_LO_F}) > 1


@settings(max_examples=150)
@given(
    data_rates=st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
    first_payload=st.integers(0, 60),
    span=st.integers(1, 6),
    powers_w=st.lists(st.sampled_from((1e-5, 1e-4, 0.001, 0.01, 1.0)), min_size=1, max_size=2, unique=True),
    kinds=st.lists(st.sampled_from(CYCLE_KINDS), min_size=1, max_size=2, unique=True),
)
def test_mincap_table_equals_min_capacitance_on_random_grids(
    data_rates, first_payload, span, powers_w, kinds
):
    # Consecutive payloads mostly code to the same number of symbols, so
    # rows repeat an earlier row's cycle.
    payloads = tuple(range(first_payload, first_payload + span))
    text = mincap_csv(
        BASE, data_rates=data_rates, payloads_bytes=payloads, powers_w=powers_w, kinds=kinds
    )
    rows = [
        (dr, payload, power, kind)
        for dr in data_rates
        for payload in payloads
        for power in powers_w
        for kind in kinds
    ]
    assert text.splitlines()[1:] == _reference_lines(rows, _public_answer)


@settings(max_examples=150)
@given(
    data_rates=st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True),
    first_payload=st.integers(0, 60),
    span=st.integers(1, 4),
    powers_w=st.lists(st.sampled_from((1e-5, 0.001, 1.0)), min_size=1, max_size=2, unique=True),
    bandwidth_hz=st.floats(125_000.0, 500_000.0),
    mac_overhead_bytes=st.integers(0, 20),
    dl_payload_bytes=st.integers(0, 120),
    rx1_delay_s=st.floats(0.5, 3.0),
    # Longer than any window 1 drawn: 16 symbols at SF12 and 125 kHz last
    # 0.52 s, so every draw is a valid scenario.
    rx_gap_s=st.floats(0.6, 3.0),
    rx_window_symbols=st.integers(1, 16),
    rx2_window_symbols=st.none() | st.integers(1, 16),
    standby_share=st.floats(0.001, 0.9),
)
def test_mincap_table_equals_min_capacitance_on_random_radio_settings(
    data_rates, first_payload, span, powers_w, bandwidth_hz, mac_overhead_bytes,
    dl_payload_bytes, rx1_delay_s, rx_gap_s, rx_window_symbols, rx2_window_symbols,
    standby_share,
):
    # The table plays each cycle's uplink and its post-TX tail apart. Whatever
    # radio field either part reads, its rows must equal whole-cycle sizing.
    # The base's downlink payload is drawn too: the table sizes every UL+DL
    # cycle with its own, DEFAULT_DL_PAYLOAD_BYTES.
    base = replace(
        BASE,
        bandwidth_hz=bandwidth_hz,
        mac_overhead_bytes=mac_overhead_bytes,
        dl_payload_bytes=dl_payload_bytes,
        rx1_delay_s=rx1_delay_s,
        rx2_delay_s=rx1_delay_s + rx_gap_s,
        rx_window_symbols=rx_window_symbols,
        rx2_window_symbols=rx2_window_symbols,
        standby_brief_s=standby_share * rx1_delay_s,
    )
    payloads = tuple(range(first_payload, first_payload + span))
    text = mincap_csv(base, data_rates=data_rates, payloads_bytes=payloads, powers_w=powers_w)
    rows = [
        (dr, payload, power, kind)
        for dr in data_rates
        for payload in payloads
        for power in powers_w
        for kind in CYCLE_KINDS
    ]
    assert text.splitlines()[1:] == _reference_lines(
        rows,
        lambda dr, payload, power, kind: min_capacitance(
            _row_config(dr, payload, base), kind, power
        ),
    )


def test_mincap_table_sizes_each_distinct_cycle_once_per_power(monkeypatch):
    kernel = analysis.min_capacitance_over_played
    sized = []

    def spy(v0, played, *args):
        sized.append((v0, played))
        return kernel(v0, played, *args)

    monkeypatch.setattr(analysis, "min_capacitance_over_played", spy)
    lines = mincap_csv(BASE, kinds=CYCLE_KINDS, **_REPEATING_GRID).splitlines()[1:]
    rows = _grid_rows(_REPEATING_GRID)
    assert len(lines) == len(rows)
    distinct = {
        (cycle_spec(_row_config(dr, payload), kind).segments, power)
        for dr, payload, power, kind in rows
    }
    assert len(distinct) < len(rows)  # the grid repeats cycles
    assert len(sized) == len(distinct)
    assert len(set(sized)) == len(sized)


def test_min_capacitance_probes_each_bracket_end_once(monkeypatch):
    # Every probe, a bracket end or a midpoint, plays the cycle's segments
    # once; only the bracket ends go through min_voltage_over_played.
    plays = []
    ends = []

    class CountedPlays(tuple):
        def __iter__(self):
            plays.append(None)
            return super().__iter__()

    real_played = analysis.played_segments
    real_min_voltage = energy.min_voltage_over_played

    def probing(v0, played, capacitance_f, max_voltage_v):
        ends.append(capacitance_f)
        return real_min_voltage(v0, played, capacitance_f, max_voltage_v)

    monkeypatch.setattr(
        analysis, "played_segments", lambda *args: CountedPlays(real_played(*args))
    )
    monkeypatch.setattr(energy, "min_voltage_over_played", probing)
    c_min = min_capacitance(BASE, "UL")
    assert DEFAULT_C_LO_F < c_min < DEFAULT_C_HI_F
    midpoints = math.ceil(
        math.log2(math.log(DEFAULT_C_HI_F / DEFAULT_C_LO_F) / math.log1p(DEFAULT_TOL_REL))
    )
    assert len(plays) == 2 + midpoints
    assert sorted(ends) == [DEFAULT_C_LO_F, DEFAULT_C_HI_F]


def test_min_capacitance_rejects_voltage_falling_with_capacitance(monkeypatch):
    monkeypatch.setattr(
        energy,
        "min_voltage_over_played",
        lambda v0, played, capacitance_f, max_voltage_v: 3.0 - capacitance_f,
    )
    with pytest.raises(RuntimeError, match="not monotone in capacitance"):
        min_capacitance(BASE, "UL")


def test_sweep_grid_validation():
    with pytest.raises(ValueError) as err:
        SweepGrid(capacitances_f=(0.0,), periods_s=(-3.0,), kinds=("DL",))
    message = str(err.value)
    assert "capacitances" in message
    assert "periods" in message
    assert "kinds" in message


def test_expand_grid_covers_the_product():
    grid = SweepGrid(
        capacitances_f=(0.001, 0.01),
        powers_w=(0.001,),
        periods_s=(60.0, 300.0),
        kinds=("UL", "UL+DL"),
    )
    configs = expand_grid(grid, BASE)
    assert len(configs) == 2 * 1 * 2 * 2
    assert {c.capacitance_f for c in configs} == {0.001, 0.01}
    assert {c.confirmed for c in configs} == {False, True}
    assert all(c.harvester == "constant" for c in configs)
    # Axes not in the grid keep the base value.
    assert all(c.data_rate == BASE.data_rate for c in configs)


def test_expand_grid_defaults_to_base_kind():
    grid = SweepGrid(capacitances_f=(0.01,))
    assert [c.confirmed for c in expand_grid(grid, BASE)] == [False]
    confirmed_base = replace(BASE, confirmed=True)
    assert [c.confirmed for c in expand_grid(grid, confirmed_base)] == [True]


def _fast_sweep_configs(n=3):
    grid = SweepGrid(capacitances_f=tuple(0.02 * (k + 1) for k in range(n)))
    base = replace(
        BASE,
        packet_period_s=30.0,
        first_packet_s=0.0,
        duration_s=120.0,
        power_w=0.005,
    )
    return expand_grid(grid, base)


def test_run_sweep_writes_and_resumes(tmp_path):
    path = tmp_path / "sweep.csv"
    configs = _fast_sweep_configs(3)
    rows = run_sweep(configs[:2], path)
    assert len(rows) == 2
    first_pass = path.read_text()
    assert first_pass.splitlines()[0].startswith("C_farads,")
    # Resuming with a superset only runs the missing point and keeps the
    # existing rows byte for byte.
    rows = run_sweep(configs, path)
    assert len(rows) == 3
    lines = path.read_text().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert path.read_text().startswith(first_pass)
    # A fresh start drops them all.
    rows = run_sweep(configs[:1], path, resume=False)
    assert len(rows) == 1
    assert len(path.read_text().splitlines()) == 2


def test_run_sweep_reruns_a_truncated_last_row(tmp_path):
    config = replace(
        BASE,
        capacitance_f=0.002,
        power_w=0.001,
        packet_period_s=60.0,
        first_packet_s=0.0,
        duration_s=600.0,
    )
    fresh = run_sweep([config], tmp_path / "fresh.csv", resume=False)
    path = tmp_path / "sweep.csv"
    # A row cut off mid-write by an interrupt: no newline, 6 of 10 fields.
    path.write_text(RESULTS_HEADER + "\n" + "0.002,0.001,3,60,0,7")
    rows = run_sweep([config], path)
    assert rows == fresh
    lines = path.read_text().splitlines()
    assert lines == [RESULTS_HEADER, *fresh]
    assert all(len(line.split(",")) == 10 for line in lines)
    assert path.read_text().endswith("\n")


def test_run_sweep_reports_failures_without_writing_rows(tmp_path):
    path = tmp_path / "sweep.csv"
    good = _fast_sweep_configs(1)
    bad = replace(good[0], capacitance_f=0.5, harvester="trace", trace_file=str(tmp_path / "missing.csv"))
    failures = []
    rows = run_sweep(good + [bad], path, on_error=lambda key, exc: failures.append(key))
    assert len(rows) == 1
    assert len(failures) == 1
    assert len(path.read_text().splitlines()) == 2  # header + the good row


def test_success_curve_and_target_search():
    base = replace(
        BASE,
        power_w=0.002,
        packet_period_s=60.0,
        first_packet_s=0.0,
        duration_s=1800.0,
        guard_horizon="cycle",
    )
    caps = (0.001, 0.003, 0.01, 0.03)
    curve = success_curve(base, caps, "UL")
    assert [c for c, _ in curve] == sorted(caps)
    probs = [p for _, p in curve]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert probs[-1] > probs[0]  # more storage helps here
    c99 = min_capacitance_for_target(base, "UL", target=0.99, c_lo=1e-4, c_hi=0.1)
    assert c99 is not None
    assert success_curve(base, (c99,), "UL")[0][1] >= 0.99
    assert min_capacitance_for_target(base, "UL", target=2.0, c_lo=1e-4, c_hi=0.1) is None


def test_studies_reject_runs_cut_short_by_the_trace(tmp_path):
    trace = tmp_path / "short.csv"
    trace.write_text("0,0.002\n600,0.002\n")
    base = replace(
        BASE,
        harvester="trace",
        trace_file=str(trace),
        packet_period_s=60.0,
        first_packet_s=0.0,
        duration_s=1800.0,
    )
    with pytest.raises(TraceExhaustedError):
        success_curve(base, (0.01,), "UL")
    with pytest.raises(TraceExhaustedError):
        min_capacitance_for_target(base, "UL", c_lo=1e-4, c_hi=0.1)


@pytest.mark.parametrize(
    "study",
    [
        lambda base: success_curve(base, (0.003, 0.01, 0.03), "UL"),
        lambda base: min_capacitance_for_target(base, "UL", c_lo=1e-4, c_hi=0.1),
    ],
    ids=["success_curve", "min_capacitance_for_target"],
)
def test_each_study_parses_its_trace_once(tmp_path, monkeypatch, trace_parses, study):
    trace = tmp_path / "harvest.csv"
    trace.write_text("0,0.004\n600,0\n1200,0.002\n1800,0.002\n")
    base = replace(
        BASE,
        harvester="trace",
        trace_file=str(trace),
        packet_period_s=60.0,
        first_packet_s=0.0,
        duration_s=1800.0,
    )
    runs = []
    real = analysis.run_scenario

    def spy(config):
        runs.append(config)
        return real(config)

    monkeypatch.setattr(analysis, "run_scenario", spy)
    study(base)
    assert len(runs) >= 3
    assert trace_parses() == 1


def test_peak_success_prefers_smallest_capacitance():
    base = replace(
        BASE,
        power_w=0.002,
        packet_period_s=60.0,
        first_packet_s=0.0,
        duration_s=1200.0,
    )
    caps = (0.005, 0.01, 0.02)
    cap, p = peak_success_capacitance(base, caps, "UL")
    curve = dict(success_curve(base, caps, "UL"))
    assert p == max(curve.values())
    assert cap == min(c for c, q in curve.items() if q >= p - 1e-12)
    with pytest.raises(ValueError, match="grid is empty"):
        peak_success_capacitance(base, (), "UL")


def _same_point(got: ScenarioConfig, want: ScenarioConfig) -> bool:
    """Equal field by field, each value of the same type: ``==`` alone would
    take ``1`` for ``1.0`` or ``True``."""
    return got == want and tuple(map(type, got)) == tuple(map(type, want))


def test_each_study_derives_the_points_replace_would(monkeypatch):
    base = BASE._replace(capacitance_f=1, power_w=0.002, duration_s=600.0, seed=5)
    grid = SweepGrid(
        capacitances_f=(0.004, 0.01), powers_w=(0.001,), periods_s=(30.0,), kinds=CYCLE_KINDS
    )
    want = [
        base._replace(
            capacitance_f=c, power_w=0.001, data_rate=3, ul_payload_bytes=10,
            packet_period_s=30.0, confirmed=kind == "UL+DL",
        )
        for kind in CYCLE_KINDS
        for c in (0.004, 0.01)
    ]
    got = expand_grid(grid, base)
    assert len(got) == len(want) and all(map(_same_point, got, want))
    assert all(hash(point) == hash(w) for point, w in zip(got, want))

    runs = []
    real = analysis.run_scenario

    def spy(config):
        runs.append(config)
        return real(config)

    monkeypatch.setattr(analysis, "run_scenario", spy)
    success_curve(base, [0.01, 0.004], "UL+DL")
    min_capacitance_for_target(base, "UL", target=0.5, c_lo=0.001, c_hi=0.01, tol_rel=0.5)
    caps = [0.004, 0.01] + [config.capacitance_f for config in runs[2:]]
    kinds = ["UL+DL", "UL+DL"] + ["UL"] * (len(runs) - 2)
    assert len(runs) >= 3
    for config, cap, kind in zip(runs, caps, kinds, strict=True):
        assert _same_point(config, base._replace(capacitance_f=cap, confirmed=kind == "UL+DL"))

    # The brute-force check of one cycle.
    runs.clear()
    engine_cycle_feasible(base, "UL+DL", 0.01, power_w=0.003)
    spec = cycle_spec(base, "UL+DL", 0.003)
    duration = sum(d for d, _ in spec.segments) + base.rx2_delay_s + 3.0
    want = base._replace(
        capacitance_f=0.01, harvester="constant", power_w=0.003, confirmed=True,
        initial_voltage_v=spec.initial_voltage_v, first_packet_s=0.0,
        packet_period_s=duration + 60.0, duration_s=duration, guard_enabled=False,
        generate_while_off=True, trace=False,
    )
    assert len(runs) == 1 and _same_point(runs[0], want)

    # The points mincap checks up front: one per data rate, payload and power.
    checked = []
    monkeypatch.setattr(analysis, "check_scenarios", checked.extend)
    mincap_csv(base, data_rates=(2, 3), payloads_bytes=(10, 20), powers_w=(0.001,))
    row_base = base._replace(dl_payload_bytes=DEFAULT_DL_PAYLOAD_BYTES)
    want = (
        [row_base._replace(data_rate=dr) for dr in (2, 3)]
        + [row_base._replace(ul_payload_bytes=payload) for payload in (10, 20)]
        + [row_base._replace(power_w=0.001)]
    )
    assert len(checked) == len(want) and all(map(_same_point, checked, want))
