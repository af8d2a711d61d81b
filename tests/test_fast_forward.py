"""Fast-forward over a periodic steady state: a run that skips whole orbits
or boot loops ends exactly where the same run simulated event by event ends."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from caplora import ScenarioConfig, Simulator
from caplora.clock import NS_PER_S
from caplora.device import CycleOutcome
from caplora.energy import crossing_tick, harvester_conductance, step_coefficients
from caplora.engine import _Crossing
from caplora.lorawan import DeviceState, LorawanParams

from conftest import assert_same_run, run_both_ways, shortcuts_off

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
    # A two-period orbit that depletes every other period.
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


def _run(config: ScenarioConfig, fast_forward: bool = True) -> Simulator:
    sim = Simulator(config)
    if fast_forward:
        sim.run()
    else:
        with shortcuts_off():
            sim.run()
    return sim


def _outcomes(sim: Simulator) -> Counter:
    return Counter(record.outcome for record in sim.metrics.cycles)


def test_skipping_orbits_changes_nothing():
    assert len(SCENARIOS) >= 50
    skipped = []
    for config in SCENARIOS:
        fast = _run(config)
        slow = _run(config, fast_forward=False)
        assert fast.metrics == slow.metrics, config
        assert fast.cap.voltage_v == slow.cap.voltage_v
        assert fast.device.cycle == slow.device.cycle
        assert fast.device.state == slow.device.state
        assert fast._seq <= slow._seq
        if fast._seq < slow._seq:
            skipped.append(fast)
    # 53 of the 54 scenarios skip orbits or replay settling periods. The
    # 17.3 s period is bound by its uplink budget: the band's block at each
    # generation grows by 3.28 s, so no two generations match.
    assert len(skipped) == 53
    assert any(
        sim.metrics.depletion_events > 0 and CycleOutcome.FAILED_ENERGY in _outcomes(sim)
        for sim in skipped
    )
    outcomes = sum((_outcomes(sim) for sim in skipped), Counter())
    assert outcomes[CycleOutcome.ACKED] > 0
    assert outcomes[CycleOutcome.SKIPPED_GUARD] > 0
    assert outcomes[CycleOutcome.FAILED_DUTY_CYCLE] > 0
    assert any(sim.config.max_transmissions > 1 for sim in skipped)


def test_an_orbit_with_brownouts_is_skipped():
    config = ScenarioConfig(capacitance_f=0.005, power_w=0.001, duration_s=7200.0)
    fast = _run(config)
    slow = _run(config, fast_forward=False)
    assert fast.metrics == slow.metrics
    assert fast.metrics.depletion_events == fast.metrics.generated // 2
    assert fast._seq < slow._seq


def _anchors_and_skips(config: ScenarioConfig, replays: bool = True) -> tuple[Simulator, dict, list]:
    """``config`` run, with the period state and the start of each anchor
    by its tick, and the ticks of the skips; with ``replays`` off, every
    anchor is taken and none is replayed."""
    anchors: dict[int, tuple] = {}
    skips: list[int] = []
    period_state, skip = Simulator._period_state, Simulator._skip

    def spy_period_state(self):
        state = period_state(self)
        anchors[self.now_ns] = (state, self._mark().start)
        return state

    def spy_skip(self, *args):
        skips.append(self.now_ns)
        skip(self, *args)

    spies = dict(_period_state=spy_period_state, _skip=spy_skip)
    if not replays:
        spies["_replay"] = lambda self, earlier, mark, at: mark
    with mock.patch.multiple(Simulator, **spies):
        sim = Simulator(config)
        sim.run()
    return sim, anchors, skips


@pytest.mark.parametrize(
    "overrides",
    [
        dict(capacitance_f=0.006, power_w=0.003),  # an orbit of one period
        dict(capacitance_f=0.005, power_w=0.001),  # two periods, with a brownout
    ],
    ids=["one_period", "two_periods"],
)
def test_an_orbit_is_skipped_at_its_first_repeat(overrides):
    # The one-period orbit settles: its periods repeat but for the voltage
    # from the start, and are replayed to the end at the first generation
    # whose period state equals the one a period before. The two-period
    # orbit browns out in every other period: a period without a brownout
    # matches the one before it, but its first copy would cross the cutoff.
    # The two periods before it are tried next, and are replayed no later
    # than the first anchor whose whole state, voltage and crossing tick
    # included, repeats an earlier one's.
    config = ScenarioConfig(duration_s=7200.0, **overrides)
    sim, anchors, skips = _anchors_and_skips(config)
    period = sim.packet_period_ns
    first_match = next(t for t, (state, _) in anchors.items() if anchors.get(t - period, (None,))[0] == state)
    _, anchors, _ = _anchors_and_skips(config, replays=False)
    seen = set()
    first_repeat = next(t for t, anchor in anchors.items() if anchor in seen or seen.add(anchor))
    if overrides["power_w"] == 0.003:
        assert skips == [first_match] and first_match <= first_repeat
    else:
        assert len(skips) == 1 and first_match < skips[0] <= first_repeat
        assert sim.metrics.depletion_events == sim.metrics.generated // 2


def _template_replays(monkeypatch) -> list[tuple[int, list]]:
    """The length and the logged stretch of each replay that adds copies of
    a template, for runs made afterwards."""
    replays = []
    replay = Simulator._replay

    def spy(self, earlier, mark, at):
        steps = None if at is None else self._steps[at:]
        after = replay(self, earlier, mark, at)
        if after is not mark and steps is not None:
            replays.append((mark.time_ns - earlier.time_ns, steps))
        return after

    monkeypatch.setattr(Simulator, "_replay", spy)
    return replays


def test_a_brownout_orbit_is_replayed_by_a_template_that_crosses(monkeypatch):
    # At 5 mF and 1 mW the device browns out in every other 60 s period. The
    # two periods between anchors are the template: each copy's uplink
    # crosses the cutoff on the template's own tick, where the voltage is
    # snapped onto it, and the recharge crosses the turn-on threshold alike.
    replays = _template_replays(monkeypatch)
    config = ScenarioConfig(capacitance_f=0.005, power_w=0.001, duration_s=7200.0)
    fast, slow = run_both_ways(config)
    assert_same_run(fast, slow)
    assert fast._seq < slow._seq // 5
    [(length, steps)] = replays
    assert length == 2 * fast.packet_period_ns
    assert steps.count(None) == 2


def test_a_boot_loop_is_skipped_from_a_recharge_anchor(monkeypatch):
    # The first packet browns the 1 mF device out, and each turn-on after it
    # browns out again. Two recharges in that powered-down stretch match,
    # and the loop between them, two crossings, is copied to the end.
    replays = _template_replays(monkeypatch)
    config = replace(_BOOT_LOOP, initial_voltage_v=3.3, duration_s=86_400.0)
    fast, slow = run_both_ways(config)
    assert_same_run(fast, slow)
    # The stretch ends on the recharge's crossing, after the turn-on's.
    [(_, steps)] = replays
    assert [entry for entry in steps if entry.__class__ is not tuple] == [None, None]
    assert steps[-1] is None
    month = _run(replace(config, duration_s=30 * 86_400.0))
    assert month.metrics.depletion_events == 704_144
    assert month._seq < 50


def test_a_duty_bound_two_period_orbit_is_skipped(monkeypatch):
    # The uplink budget blocks the band for two periods after each send, so
    # at every other generation the band is still blocked and no anchor is
    # taken: the anchors two periods apart match, and the orbit is copied.
    replays = _template_replays(monkeypatch)
    config = ScenarioConfig(ul_duty_cycle=_TWO_PERIOD_DUTY, power_w=0.003, duration_s=7200.0)
    fast, slow = run_both_ways(config)
    assert_same_run(fast, slow)
    assert fast._seq < slow._seq // 10
    assert fast.metrics.outcomes[CycleOutcome.FAILED_DUTY_CYCLE] == fast.metrics.generated // 2
    assert [length for length, _ in replays] == [2 * fast.packet_period_ns]


def test_cost_no_longer_grows_with_duration():
    # 43,200 packets; the packet-time state repeats from about period 12.
    config = ScenarioConfig(
        capacitance_f=0.006, power_w=0.003, packet_period_s=60.0, duration_s=30 * 86_400.0
    )
    fast = _run(config)
    slow = _run(config, fast_forward=False)
    assert fast.metrics.generated == 43_200
    assert fast.metrics == slow.metrics
    assert fast._seq < 0.05 * slow._seq
    # Past the transient, a longer run costs no more events.
    longer = _run(replace(config, duration_s=60 * 86_400.0))
    assert longer._seq <= fast._seq + 20


def test_brownout_cost_no_longer_grows_with_duration():
    # 43,200 packets, every other one lost to a brownout.
    config = ScenarioConfig(
        capacitance_f=0.005, power_w=0.001, packet_period_s=60.0, duration_s=30 * 86_400.0
    )
    fast = _run(config)
    assert fast.metrics.generated == 43_200
    assert fast.metrics.depletion_events == 21_600
    assert fast._seq < 1_000
    longer = _run(replace(config, duration_s=60 * 86_400.0))
    assert longer.metrics.depletion_events == 43_200
    assert longer._seq <= fast._seq + 20


# Too small a capacitor to boot: the 0.3 s turn-on at 15 mA drains 1 mF from
# 3.0 V to 1.8 V in 0.118 s, and the device loops OFF -> TURN_ON -> OFF every
# 3.68 s, never reaching SLEEP. Starting below the cutoff, it loops from t = 0.
_BOOT_LOOP = ScenarioConfig(
    capacitance_f=0.001, power_w=0.005, guard_enabled=False, initial_voltage_v=1.0
)


def _spied(config: ScenarioConfig) -> tuple[Simulator, list[int], list[int]]:
    """``config`` simulated in full, with the ticks of its recharges and of
    its depletions."""
    sim = Simulator(config)
    recharges: list[int] = []
    depletions: list[int] = []
    for name, ticks in (("on_recharged", recharges), ("on_depleted", depletions)):

        def spy(when_ns, callback=getattr(sim.device, name), ticks=ticks):
            ticks.append(when_ns)
            callback(when_ns)

        setattr(sim.device, name, spy)
    with shortcuts_off():
        sim.run()
    return sim, recharges, depletions


def test_a_boot_loop_costs_a_bounded_number_of_events():
    config = replace(_BOOT_LOOP, initial_voltage_v=3.3, duration_s=86_400.0)
    fast = _run(config)
    assert_same_run(fast, _run(config, fast_forward=False))
    # The first packet browns the device out, and it never boots again.
    month = _run(replace(config, duration_s=30 * 86_400.0))
    assert month.metrics.generated == 43_200
    assert month.metrics.depletion_events == 704_144
    assert month.metrics.delivered_ul == 0
    assert month._seq < 50
    longer = _run(replace(config, duration_s=60 * 86_400.0))
    assert longer.metrics.depletion_events == 1_408_289
    assert longer._seq <= month._seq + 20


@pytest.mark.parametrize("tie", ["recharge", "depletion", "end", "not_generated"])
def test_a_skipped_boot_loop_settles_ties(tie):
    _, recharges, depletions = _spied(replace(_BOOT_LOOP, duration_s=30.0))
    loop_ns = recharges[-1] - recharges[-2]
    first_ns = depletions[3] if tie == "depletion" else recharges[3]
    # Every packet lands on a recharge, or on a depletion, of a later loop.
    period_ns = 7 * loop_ns
    config = replace(
        _BOOT_LOOP,
        first_packet_s=first_ns / NS_PER_S,
        packet_period_s=period_ns / NS_PER_S,
        duration_s=600.0,
        generate_while_off=tie != "not_generated",
    )
    if tie == "end":
        # The 41st packet is due the instant the run ends.
        config = replace(config, duration_s=(first_ns + 40 * period_ns) / NS_PER_S)
    slow, recharges, depletions = _spied(config)
    fast = _run(config)
    assert fast.packet_period_ns == period_ns
    assert_same_run(fast, slow)
    assert fast._seq < slow._seq // 10
    packets = [record.start_ns for record in fast.metrics.cycles]
    if tie == "not_generated":
        assert fast.metrics.generated == 0 and not packets
        return
    assert packets[0] == first_ns
    assert all(record.outcome is CycleOutcome.FAILED_ENERGY for record in fast.metrics.cycles)
    if tie == "end":
        assert fast.metrics.generated == 40
    else:
        assert set(packets) <= set(depletions if tie == "depletion" else recharges)


@pytest.mark.parametrize("period_s", [60.0, 0.3], ids=["longer_than_turn_on", "equal"])
def test_a_packet_due_as_the_turn_on_completes_fails(period_s):
    # Held while the device is down, a packet due on the very tick the
    # turn-on completes fails for want of energy; the next starts a cycle.
    # At a period equal to the turn-on, the one before is due on the
    # recharge tick.
    config = ScenarioConfig(initial_voltage_v=1.0, power_w=0.005, turn_on_s=0.3, duration_s=120.0)
    _, recharges, _ = _spied(config)
    awake_ns = recharges[0] + round(config.turn_on_s * NS_PER_S)
    period_ns = round(period_s * NS_PER_S)
    config = replace(
        config, first_packet_s=awake_ns % period_ns / NS_PER_S, packet_period_s=period_s
    )
    due = awake_ns // period_ns + 1
    for sim in (_run(config), _run(config, fast_forward=False)):
        records = {record.packet_id: record for record in sim.metrics.cycles}
        assert records[due] == (due, "UL", awake_ns, awake_ns, CycleOutcome.FAILED_ENERGY)
        assert all(records[k].outcome is CycleOutcome.FAILED_ENERGY for k in range(1, due))
        assert records[due + 1].start_ns == awake_ns + period_ns
        assert records[due + 1].outcome is CycleOutcome.DELIVERED


@pytest.mark.parametrize("generate_while_off", [True, False])
def test_a_packet_due_as_the_device_depletes_fails(generate_while_off):
    # The first packet's uplink browns the device out; the second is due on
    # that very tick and pops before the crossing's own wake-up.
    config = ScenarioConfig(
        capacitance_f=0.001,
        power_w=0.0001,
        guard_enabled=False,
        first_packet_s=1.0,
        duration_s=120.0,
        generate_while_off=generate_while_off,
    )
    _, _, depletions = _spied(config)
    first_ns = round(config.first_packet_s * NS_PER_S)
    config = replace(config, packet_period_s=(depletions[0] - first_ns) / NS_PER_S)
    for sim in (_run(config), _run(config, fast_forward=False)):
        assert sim.packet_period_ns == depletions[0] - first_ns
        records = sim.metrics.cycles
        assert records[0][2:] == (first_ns, depletions[0], CycleOutcome.FAILED_ENERGY)
        if generate_while_off:
            assert records[1] == (2, "UL", depletions[0], depletions[0], CycleOutcome.FAILED_ENERGY)
        else:
            assert sim.metrics.generated == 1


@pytest.mark.parametrize("guard_enabled", [True, False])
def test_a_device_drained_in_sleep_is_not_taken_for_a_boot_loop(guard_enabled):
    # The harvest recharges the device under the OFF load but cannot hold it
    # under this SLEEP load, so it loops OFF -> TURN_ON -> SLEEP -> OFF a few
    # times per packet period. A wake before the held packet falls due holds
    # the same packet again at the next depletion: the recharges then repeat
    # with the same held tick, yet each packet falls due while asleep.
    config = ScenarioConfig(
        sleep_a=1e-4,
        power_w=0.2e-3,
        capacitance_f=0.01,
        packet_period_s=3 * 3600.0,
        duration_s=30 * 86_400.0,
        guard_enabled=guard_enabled,
    )
    fast, slow = _run(config), _run(config, fast_forward=False)
    assert slow.metrics.depletion_events > 4 * slow.metrics.generated
    assert slow.metrics.delivered_ul > 0
    assert_same_run(fast, slow)


def test_a_boot_loop_near_a_tick_is_skipped_exactly():
    # The harvest barely lifts the OFF asymptote above v_th_high_v, so near
    # that threshold the voltage moves about an ulp per tick. A packet's
    # extra capacitor update rounds the voltage differently, but each
    # crossing's tick is solved where its trajectory starts: every loop
    # repeats the one before, and the rest of the run is skipped once the
    # third recharge, 480 s in, repeats the second.
    config = replace(
        _BOOT_LOOP,
        capacitance_f=0.00023,
        power_w=0.0001815027,
        packet_period_s=0.94,
        duration_s=10_000.0,
    )
    slow, recharges, _ = _spied(config)
    assert len({b - a for a, b in zip(recharges[1:], recharges[2:])}) == 1
    fast = _run(config)
    assert_same_run(fast, slow)
    assert fast._seq < slow._seq // 10


def test_a_boot_loop_does_not_depend_on_the_packet_period():
    # Packets generated while OFF update the capacitor at instants that
    # depend on the period; the crossings and the off time must not.
    runs = [
        _spied(
            replace(
                _BOOT_LOOP,
                capacitance_f=0.000712,
                power_w=0.00018150009,
                packet_period_s=period_s,
                duration_s=2000.0,
            )
        )
        for period_s in (0.527, 0.94, 7.0)
    ]
    (first, recharges, depletions), *others = runs
    assert len(recharges) > 1 and depletions
    for sim, other_recharges, other_depletions in others:
        assert other_recharges == recharges
        assert other_depletions == depletions
        assert sim.metrics.off_time_ns == first.metrics.off_time_ns


def _commits(monkeypatch) -> list[int]:
    """The ticks at which a replay adds copies, for runs made afterwards."""
    commits: list[int] = []
    replay = Simulator._replay

    def spy(self, earlier, mark, steps):
        after = replay(self, earlier, mark, steps)
        if after is not mark:
            commits.append(self.now_ns)
        return after

    monkeypatch.setattr(Simulator, "_replay", spy)
    return commits


def test_a_settling_run_is_replayed_from_its_first_periods(monkeypatch):
    # At 0.1 F and 1 mW the voltage settles over hundreds of 60 s periods
    # before it repeats to the last bit, which a skip of exact orbits waits
    # for. Every period repeats the one before but for the voltage, so the
    # replay takes over at the third packet and runs to the end at once.
    commits = _commits(monkeypatch)
    config = ScenarioConfig(capacitance_f=0.1, power_w=0.001, duration_s=86_400.0)
    fast = _run(config)
    assert_same_run(fast, _run(config, fast_forward=False))
    assert len(commits) == 1
    assert fast._seq < 30
    month = _run(replace(config, duration_s=30 * 86_400.0))
    assert month.metrics.generated == month.metrics.delivered_ul == 43_200
    assert month._seq == fast._seq


def test_a_replay_stops_short_of_a_brownout_and_resumes_after_it(monkeypatch):
    # At 20 mF and 0.3 mW the voltage sinks a little in each 30 s period,
    # and an uplink browns the device out about every half hour. A replay
    # stops at the copy whose uplink would cross the cutoff; that period is
    # simulated, and the stretch after the brownout is replayed in turn.
    commits = _commits(monkeypatch)
    config = ScenarioConfig(
        capacitance_f=0.02, power_w=0.3e-3, packet_period_s=30.0, first_packet_s=0.0, duration_s=6 * 3600.0
    )
    fast = _run(config)
    slow = _run(config, fast_forward=False)
    assert_same_run(fast, slow)
    assert fast.metrics.depletion_events == 12
    assert len(commits) >= 5
    assert fast._seq < slow._seq // 2


def _copies_replayed(config: ScenarioConfig, steps: list) -> int:
    """The copies ``_replay`` adds of a hand-made period log ``steps`` that
    ends now, on a fresh simulator of ``config`` at its initial voltage."""
    sim = Simulator(config)
    sim.g_harv = harvester_conductance(config.power_w, config.rail_voltage_v)
    sim._steps = list(steps)
    length = steps[-1][0]
    sim.now_ns = sim.cap.last_update_ns = length
    sim._follow_crossing()
    mark = sim._mark()
    # The template's own start is left unknown, so no copy is taken for an
    # exact repeat of it.
    sim._replay(mark._replace(time_ns=0, start=None), mark, 0)
    return sim.now_ns // length - 1


def test_a_replayed_copy_fails_on_a_crossing_at_a_steps_tick():
    # A crossing tick on a trajectory's last step is reached by that step,
    # as the capacitor reaches it at that update, so the copy fails there;
    # one tick later and it holds. Checked for the trajectory a copy starts
    # on, whose crossing carries over, and for a discharge inside it.
    month = 30 * 86_400.0
    drain = ScenarioConfig(power_w=0.0, duration_s=month)
    sim = Simulator(drain)
    g_sleep, g_tx = sim.g_load[DeviceState.SLEEP], sim.g_load[DeviceState.TX]
    cross = sim.cap.next_crossing_ns(g_sleep, 0.0)
    assert _copies_replayed(drain, [(cross, g_sleep)]) == 0
    assert _copies_replayed(drain, [(cross - 1, g_sleep)]) == 1
    # From near the cutoff, the uplink's TX crosses it a tenth of a second
    # after the first second's SLEEP.
    config = ScenarioConfig(initial_voltage_v=1.85, power_w=0.003, duration_s=month)
    sim = Simulator(config)
    g_harv = harvester_conductance(config.power_w, config.rail_voltage_v)
    a, b = step_coefficients(NS_PER_S, sim.cap.segment(g_sleep, g_harv))
    tx_start = a + sim.cap.voltage_v * b
    tx_cross = crossing_tick(tx_start, NS_PER_S, False, sim.cap.segment(g_tx, g_harv), sim.cap.params)
    for tx_end, copies in ((tx_cross, 0), (tx_cross - 1, 1)):
        steps = [(NS_PER_S, g_sleep), (tx_end, g_tx), (tx_end + NS_PER_S, g_sleep)]
        assert min(_copies_replayed(config, steps), 1) == copies


def test_a_template_crossing_before_any_new_trajectory_is_along_the_anchors():
    # After a generation anchor, a guard veto keeps the device asleep, and
    # it browns out on the anchor's own trajectory before any other starts:
    # that step and that crossing are along the anchor's segment.
    config = ScenarioConfig(power_w=0.0, duration_s=30 * 86_400.0)
    sim = Simulator(config)
    g_sleep = sim.g_load[DeviceState.SLEEP]
    segment = sim.cap.segment(g_sleep, sim.g_harv)
    cross = sim.cap.next_crossing_ns(g_sleep, sim.g_harv)
    sim._steps = [False, (cross, g_sleep), None]
    ops: list = []
    template = list(sim._template(0, 0, g_sleep, sim._ending(False, segment), ops))
    assert template == ops
    assert template == [
        False,
        (cross, *step_coefficients(cross, segment), None),
        _Crossing(False, segment, config.v_th_low_v),
    ]
