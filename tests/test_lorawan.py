"""Radio arithmetic: spreading factors, time on air, receive windows,
and per-band duty-cycle budgets."""

from __future__ import annotations

import pytest

from caplora.clock import NS_PER_S
from caplora.lorawan import (
    DutyCycleBudget,
    LorawanParams,
    data_rate_to_sf,
    rx_window_duration,
    symbol_duration,
    time_on_air,
)


def test_data_rate_to_spreading_factor():
    assert [data_rate_to_sf(dr) for dr in range(6)] == [12, 11, 10, 9, 8, 7]
    for bad in (-1, 6):
        with pytest.raises(ValueError):
            data_rate_to_sf(bad)


def test_symbol_durations():
    assert symbol_duration(9, 125_000.0) == pytest.approx(0.004096)
    assert symbol_duration(12, 125_000.0) == pytest.approx(0.032768)
    with pytest.raises(ValueError):
        symbol_duration(6, 125_000.0)
    with pytest.raises(ValueError):
        symbol_duration(9, 0.0)


def test_time_on_air_reference_values():
    # Full PHY payloads at 125 kHz, CR 4/5, explicit header, CRC on.
    assert time_on_air(23, 7) == pytest.approx(0.061696, rel=1e-12)
    assert time_on_air(23, 9) == pytest.approx(0.205824, rel=1e-12)
    assert time_on_air(13, 9) == pytest.approx(0.164864, rel=1e-12)
    assert time_on_air(23, 12) == pytest.approx(1.482752, rel=1e-12)
    assert time_on_air(52, 12) == pytest.approx(2.465792, rel=1e-12)
    assert time_on_air(13, 12) == pytest.approx(1.155072, rel=1e-12)


def test_time_on_air_low_dr_optimize_default():
    # On by default for SF11/SF12 at 125 kHz, off below, overridable.
    assert time_on_air(23, 12) != time_on_air(23, 12, low_dr_optimize=False)
    assert time_on_air(23, 10) == time_on_air(23, 10, low_dr_optimize=False)
    assert time_on_air(23, 12, 250_000.0) == time_on_air(
        23, 12, 250_000.0, low_dr_optimize=False
    )


def test_time_on_air_grows_with_payload_and_sf():
    for sf in range(7, 13):
        toas = [time_on_air(n, sf) for n in range(0, 64, 8)]
        assert toas == sorted(toas)
    for n in (13, 23, 52):
        by_sf = [time_on_air(n, sf) for sf in range(7, 13)]
        assert by_sf == sorted(by_sf)


def test_time_on_air_rejects_bad_inputs():
    with pytest.raises(ValueError):
        time_on_air(-1, 9)
    with pytest.raises(ValueError):
        time_on_air(23, 9, coding_rate=5)


def test_rx_window_durations():
    assert rx_window_duration(9, 8) == pytest.approx(0.032768)
    assert rx_window_duration(12, 8) == pytest.approx(0.262144)
    assert rx_window_duration(12, 16) == pytest.approx(0.524288)
    with pytest.raises(ValueError):
        rx_window_duration(9, 0)


def test_params_derived_quantities():
    params = LorawanParams(data_rate=3, ul_payload_bytes=10, dl_payload_bytes=0)
    assert params.sf == 9
    assert params.ul_phy_bytes == 23
    assert params.dl_phy_bytes == 13
    assert params.ul_time_on_air() == pytest.approx(0.205824)
    assert params.dl_time_on_air(12) == pytest.approx(1.155072)
    assert params.rx1_window_s() == pytest.approx(0.032768)
    # The second window always listens at SF12.
    assert params.rx2_window_s() == pytest.approx(0.262144)
    assert LorawanParams(rx2_window_symbols=16).rx2_window_s() == pytest.approx(
        0.524288
    )


def test_params_validation():
    with pytest.raises(ValueError, match="data_rate"):
        LorawanParams(data_rate=9)
    with pytest.raises(ValueError, match="rx1_delay_s"):
        LorawanParams(rx1_delay_s=2.0, rx2_delay_s=1.0)
    with pytest.raises(ValueError, match="standby_brief_s"):
        LorawanParams(standby_brief_s=0.0)
    with pytest.raises(ValueError, match="max_transmissions"):
        LorawanParams(max_transmissions=0)
    with pytest.raises(ValueError, match="duty cycles"):
        LorawanParams(ul_duty_cycle=0.0)
    # A first window so long it would still be open when window 2 starts.
    with pytest.raises(ValueError, match="still be open"):
        LorawanParams(data_rate=0, rx_window_symbols=40)


def _ns(time_s: float) -> int:
    return round(time_s * NS_PER_S)


def test_duty_budget_blocking_arithmetic():
    budget = DutyCycleBudget(0.01)
    assert budget.allows(0)
    budget.register(0, 1.0)
    # 1 s on air at 1% blocks the band for 99 s past the end of the frame.
    assert budget.blocked_until_ns / NS_PER_S == pytest.approx(100.0)
    assert not budget.allows(_ns(99.999))
    assert budget.allows(_ns(100.0))
    assert budget.next_allowed(_ns(5.0)) / NS_PER_S == pytest.approx(100.0)
    assert budget.next_allowed(_ns(120.0)) == _ns(120.0)


def test_duty_budget_ten_percent():
    budget = DutyCycleBudget(0.10)
    budget.register(0, 1.0)
    assert budget.blocked_until_ns / NS_PER_S == pytest.approx(10.0)


def test_duty_budget_back_to_back_periodic_fit():
    # A 0.6 s frame at 1% occupies exactly a 60 s slot: one packet per minute
    # just fits the budget.
    budget = DutyCycleBudget(0.01)
    for k in range(5):
        start = _ns(60.0 * k)
        assert budget.allows(start)
        budget.register(start, 0.6)
    assert budget.airtime_total_s == pytest.approx(3.0)
    assert budget.max_airtime_s == pytest.approx(0.6)


def test_duty_budget_rejects_bad_values():
    with pytest.raises(ValueError):
        DutyCycleBudget(0.0)
    with pytest.raises(ValueError):
        DutyCycleBudget(1.5)
    with pytest.raises(ValueError):
        DutyCycleBudget(0.01).register(0, -1.0)
