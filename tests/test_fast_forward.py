"""Fast-forward over a periodic steady state: a run that skips whole orbits
ends exactly where the same run simulated event by event ends."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace

from caplora import ScenarioConfig, Simulator
from caplora.device import CycleOutcome
from caplora.lorawan import LorawanParams

# A 1% budget blocks the uplink band for toa / duty; at this duty that is
# exactly two 60 s periods, so every other packet finds the band busy.
_TWO_PERIOD_DUTY = LorawanParams().ul_time_on_air() / 120.0

_GRID = [
    dict(capacitance_f=c, power_w=p, confirmed=confirmed, max_transmissions=2 if confirmed else 1)
    for c, p, confirmed in itertools.product(
        (0.0035, 0.005, 0.0075, 0.01, 0.02), (0.002, 0.003, 0.005), (False, True)
    )
]
_SPECIAL = [
    # Downlinks long enough to strain the gateway's budgets.
    *(
        dict(data_rate=dr, confirmed=True, dl_payload_bytes=40, power_w=0.004, max_transmissions=3)
        for dr in range(6)
    ),
    dict(capacitance_f=0.03, power_w=0.005, data_rate=2, confirmed=True, dl_payload_bytes=40),
    # The guard vetoes every packet after one early brownout.
    dict(capacitance_f=0.003, power_w=0.0005),
    dict(capacitance_f=0.003, power_w=0.0005, confirmed=True),
    # A two-period orbit that depletes every other period: never skipped.
    dict(capacitance_f=0.005, power_w=0.001),
    dict(capacitance_f=0.005, power_w=0.001, guard_enabled=False),
    # A binding uplink budget: a two-period orbit with a duty-cycle failure.
    dict(ul_duty_cycle=_TWO_PERIOD_DUTY, power_w=0.003),
    dict(ul_duty_cycle=_TWO_PERIOD_DUTY, power_w=0.003, confirmed=True),
    # Here the voltage is back at the cap by every packet: the budget alone
    # tells the two periods apart.
    dict(ul_duty_cycle=_TWO_PERIOD_DUTY, power_w=0.02, max_voltage_v=3.2, initial_voltage_v=3.2),
    dict(packet_period_s=17.3, power_w=0.005, capacitance_f=0.01),
    dict(packet_period_s=600.0, power_w=0.0005, capacitance_f=0.01, duration_s=36_000.0),
    dict(packet_period_s=30.0, power_w=0.005, capacitance_f=0.005, first_packet_s=0.0),
    dict(packet_period_s=30.0, power_w=0.003, capacitance_f=0.01, confirmed=True),
    dict(guard_horizon="cycle", confirmed=True, power_w=0.002, capacitance_f=0.005),
    dict(generate_while_off=False, capacitance_f=0.004, power_w=0.0008),
    # Brownouts at weak harvest.
    dict(capacitance_f=0.003, power_w=0.001),
    dict(capacitance_f=0.003, power_w=0.003, confirmed=True),
    dict(capacitance_f=0.006, power_w=0.0005, guard_enabled=False),
    dict(capacitance_f=0.02, power_w=0.0005),
]
SCENARIOS = [
    ScenarioConfig(**{"duration_s": 7200.0, "seed": seed, **overrides})
    for seed, overrides in enumerate(_GRID + _SPECIAL, start=1)
]


def _run(config: ScenarioConfig, monkeypatch, fast_forward: bool = True) -> Simulator:
    sim = Simulator(config)
    with monkeypatch.context() as patch:
        if not fast_forward:
            patch.setattr(Simulator, "_snapshot", lambda self: None)
        sim.run()
    return sim


def _outcomes(sim: Simulator) -> Counter:
    return Counter(record.outcome for record in sim.metrics.cycles)


def test_skipping_orbits_changes_nothing(monkeypatch):
    assert len(SCENARIOS) >= 50
    skipped = []
    for config in SCENARIOS:
        fast = _run(config, monkeypatch)
        slow = _run(config, monkeypatch, fast_forward=False)
        assert fast.metrics == slow.metrics, config
        assert fast.cap.voltage_v == slow.cap.voltage_v
        assert fast.cap.load_energy_j == slow.cap.load_energy_j
        assert fast.device.cycle == slow.device.cycle
        assert fast.device.state == slow.device.state
        assert fast._seq <= slow._seq
        if fast._seq < slow._seq:
            skipped.append(fast)
    # 40 of the 54 scenarios skip orbits; the rest brown out periodically
    # or do not repeat within two periods.
    assert len(skipped) == 40
    outcomes = sum((_outcomes(sim) for sim in skipped), Counter())
    assert outcomes[CycleOutcome.ACKED] > 0
    assert outcomes[CycleOutcome.SKIPPED_GUARD] > 0
    assert outcomes[CycleOutcome.FAILED_DUTY_CYCLE] > 0
    assert any(sim.config.max_transmissions > 1 for sim in skipped)


def test_an_orbit_with_brownouts_is_simulated_in_full(monkeypatch):
    config = ScenarioConfig(capacitance_f=0.005, power_w=0.001, duration_s=7200.0)
    fast = _run(config, monkeypatch)
    slow = _run(config, monkeypatch, fast_forward=False)
    assert fast.metrics == slow.metrics
    assert fast.metrics.depletion_events == fast.metrics.generated // 2
    assert fast._seq == slow._seq


def test_cost_no_longer_grows_with_duration(monkeypatch):
    # 43,200 packets; the packet-time state repeats from about period 12.
    config = ScenarioConfig(
        capacitance_f=0.006, power_w=0.003, packet_period_s=60.0, duration_s=30 * 86_400.0
    )
    fast = _run(config, monkeypatch)
    slow = _run(config, monkeypatch, fast_forward=False)
    assert fast.metrics.generated == 43_200
    assert fast.metrics == slow.metrics
    assert fast._seq < 0.05 * slow._seq
    # Past the transient, a longer run costs no more events.
    longer = _run(replace(config, duration_s=60 * 86_400.0), monkeypatch)
    assert longer._seq <= fast._seq + 20
