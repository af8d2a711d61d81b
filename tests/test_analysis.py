"""Analytic sizing and engine-driven sweeps."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from caplora import ConfigError, ScenarioConfig, analysis
from caplora.analysis import (
    CYCLE_KINDS,
    DEFAULT_C_HI_F,
    DEFAULT_C_LO_F,
    DEFAULT_TOL_REL,
    INFEASIBLE_MARKER,
    MINCAP_HEADER,
    MinCapacitanceRow,
    SweepGrid,
    cycle_spec,
    cycle_states,
    engine_cycle_feasible,
    expand_grid,
    min_capacitance,
    min_capacitance_for_target,
    min_voltage_over_cycle,
    mincap_table,
    peak_success_capacitance,
    run_sweep,
    success_curve,
)
from caplora.energy import min_voltage_over_segments
from caplora.engine import RESULTS_HEADER, capacitor_params
from caplora.harvester import TraceExhaustedError
from caplora.lorawan import DeviceState


BASE = ScenarioConfig(power_w=0.001, data_rate=3, ul_payload_bytes=10)


def test_cycle_states_shapes():
    ul = cycle_states(BASE, "UL")
    assert [s for s, _ in ul] == [DeviceState.TX]
    uldl = cycle_states(BASE, "UL+DL")
    assert [s for s, _ in uldl] == [
        DeviceState.TX,
        DeviceState.STANDBY,
        DeviceState.IDLE,
        DeviceState.RX,
    ]
    with pytest.raises(ValueError):
        cycle_states(BASE, "DL")


def test_cycle_spec_starts_from_banked_voltage():
    spec = cycle_spec(BASE, "UL")
    # The device banks the steady level it reaches while off, a little under
    # the rail because the off leak loads the divider; capped at the maximum.
    assert 3.2 < spec.initial_voltage_v < 3.3
    strong = cycle_spec(BASE, "UL", power_w=1.0)
    assert strong.initial_voltage_v == pytest.approx(3.3, abs=1e-3)
    nothing = cycle_spec(replace(BASE, power_w=0.0), "UL")
    assert nothing.initial_voltage_v == 0.0  # no harvest: nothing banked


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


def test_engine_agrees_with_analytic_boundary():
    for kind, dl in (("UL", 0), ("UL+DL", 39)):
        config = replace(BASE, dl_payload_bytes=dl)
        c_min = min_capacitance(config, kind)
        assert c_min is not None
        assert engine_cycle_feasible(config, kind, c_min)
        assert not engine_cycle_feasible(config, kind, 0.9 * c_min)


def test_mincap_table_rows_and_csv():
    rows = mincap_table(
        BASE,
        data_rates=(3, 5),
        payloads_bytes=(10,),
        powers_w=(0.001, 1e-5),
        kinds=CYCLE_KINDS,
    )
    assert len(rows) == 2 * 1 * 2 * 2
    assert MINCAP_HEADER == "dr,payload_bytes,P_harvest_W,kind,min_C_farads"
    by_key = {(r.data_rate, r.power_w, r.kind): r for r in rows}
    feasible = by_key[(3, 0.001, "UL")]
    assert feasible.capacitance_f is not None
    assert feasible.csv().startswith("3,10,0.001,UL,")
    infeasible = by_key[(3, 1e-5, "UL")]
    assert infeasible.capacitance_f is None
    assert infeasible.csv().endswith(INFEASIBLE_MARKER)


@pytest.mark.parametrize(
    "axis, problem",
    [
        ({"powers_w": (0.001, math.nan)}, "power_w must be finite, got nan"),
        ({"data_rates": (3, 9)}, "data_rate must be in 0..5, got 9"),
        ({"dl_payload_bytes": -1}, "dl_payload_bytes must be >= 0, got -1"),
    ],
    ids=["power_w", "data_rate", "dl_payload"],
)
def test_mincap_table_checks_every_row_before_sizing_any(monkeypatch, axis, problem):
    sized = []
    monkeypatch.setattr(analysis, "min_capacitance", lambda *args, **kw: sized.append(args))
    with pytest.raises(ConfigError) as excinfo:
        mincap_table(BASE, **{"data_rates": (3,), "payloads_bytes": (10,), **axis})
    assert excinfo.value.problems == [problem]
    assert sized == []


def _bisect_on_whole_configs(config, kind, power_w, tol_rel):
    """Reference bisection that builds every probe's capacitor from a copy of
    the whole scenario with only the capacitance changed."""
    spec = cycle_spec(config, kind, power_w)

    def feasible(c):
        params = capacitor_params(replace(config, capacitance_f=c))
        v_min = min_voltage_over_segments(
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


def test_mincap_table_equals_whole_config_bisection_exactly():
    grid = dict(data_rates=(3, 5), payloads_bytes=(10, 40), powers_w=(1e-5, 0.001, 1.0))
    rows = mincap_table(BASE, kinds=CYCLE_KINDS, tol_rel=0.02, **grid)
    expected = [
        MinCapacitanceRow(
            dr,
            payload,
            power,
            kind,
            _bisect_on_whole_configs(
                replace(BASE, data_rate=dr, ul_payload_bytes=payload, dl_payload_bytes=39),
                kind,
                power,
                0.02,
            ),
        )
        for dr in grid["data_rates"]
        for payload in grid["payloads_bytes"]
        for power in grid["powers_w"]
        for kind in CYCLE_KINDS
    ]
    assert rows == expected
    answers = {row.capacitance_f for row in rows}
    # Infeasible rows, rows at the bracket floor and bisected rows all occur.
    assert None in answers and DEFAULT_C_LO_F in answers
    assert len(answers - {None, DEFAULT_C_LO_F}) > 1


def test_min_capacitance_probes_each_bracket_end_once(monkeypatch):
    probed = []
    real = analysis.min_voltage_over_cycle

    def counting(capacitance_f, spec, config):
        probed.append(capacitance_f)
        return real(capacitance_f, spec, config)

    monkeypatch.setattr(analysis, "min_voltage_over_cycle", counting)
    c_min = min_capacitance(BASE, "UL")
    assert DEFAULT_C_LO_F < c_min < DEFAULT_C_HI_F
    midpoints = math.ceil(
        math.log2(math.log(DEFAULT_C_HI_F / DEFAULT_C_LO_F) / math.log1p(DEFAULT_TOL_REL))
    )
    assert len(probed) == 2 + midpoints
    assert probed.count(DEFAULT_C_HI_F) == 1
    assert probed.count(DEFAULT_C_LO_F) == 1


def test_min_capacitance_rejects_voltage_falling_with_capacitance(monkeypatch):
    monkeypatch.setattr(
        analysis, "min_voltage_over_cycle", lambda capacitance_f, spec, config: 3.0 - capacitance_f
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
