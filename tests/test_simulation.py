"""Configuration, attacker behaviour, and the event-driven simulator."""

import dataclasses
import heapq
import json
import math
import random
import statistics
import types
from unittest import mock

import pytest

from wfdsim import simulation
from wfdsim.cli import build_devices, preset
from wfdsim.learning import (
    FAIRNESS_THRESHOLD,
    FLAG_HOLD_SECONDS,
    GUARD_Z_AMPLE,
    GUARD_Z_LIMITED,
    GUARD_Z_SPARSE,
    MIN_PAIR_AGE_SECONDS,
    SECONDS_PER_DAY,
    WINDOW_DAYS,
    PeerRecord,
    _bound,
    _top_bound,
)
from wfdsim.simulation import (
    AttackProfile,
    DEFAULT_CAPACITY,
    DEFAULT_RETRY_CAP,
    DefenseMode,
    DeviceConfig,
    HOUR_SCHEDULE,
    InvalidConfig,
    MINUTE_SCHEDULE,
    Schedule,
    energy_conserved,
    run,
    _Simulator,
)

from test_golden import LEARNING_STORM, LONE_ATTACKER

SESSION_KINDS = {"group", "avoided", "rejected", "declined", "exhausted"}


class TestConfigValidation:
    def test_schedule_bounds(self):
        with pytest.raises(InvalidConfig):
            Schedule(period=0, group_duration=0)
        with pytest.raises(InvalidConfig):
            Schedule(period=60, group_duration=0)
        with pytest.raises(InvalidConfig):
            Schedule(period=60, group_duration=61)
        assert Schedule(period=60, group_duration=60).group_duration == 60

    def test_attack_profile_bounds(self):
        with pytest.raises(InvalidConfig):
            AttackProfile(tbb_strength=1.5)
        with pytest.raises(InvalidConfig):
            AttackProfile(r_strength=-0.1)
        with pytest.raises(InvalidConfig):
            AttackProfile(retry_cap=-1)
        with pytest.raises(InvalidConfig):
            AttackProfile(tbb_strength="x")
        assert AttackProfile().retry_cap == DEFAULT_RETRY_CAP

    def test_device_config(self):
        with pytest.raises(InvalidConfig):
            DeviceConfig("")
        with pytest.raises(InvalidConfig):
            DeviceConfig("a", battery_capacity=0)
        with pytest.raises(InvalidConfig):
            DeviceConfig("a", phase=0)   # phase without a schedule
        with pytest.raises(InvalidConfig):
            DeviceConfig("a", schedule=MINUTE_SCHEDULE, phase=360)
        # values of the wrong type
        with pytest.raises(InvalidConfig):
            DeviceConfig("a", defense="L", schedule=MINUTE_SCHEDULE)
        with pytest.raises(InvalidConfig):
            DeviceConfig("a", schedule=(360, 60))
        with pytest.raises(InvalidConfig):
            DeviceConfig("a", schedule=MINUTE_SCHEDULE, attack=1.0)

    # the ledger and ``range`` need whole numbers: a fraction must fail here,
    # not deep inside a run
    @pytest.mark.parametrize("make", [
        lambda: Schedule(period=360.5, group_duration=60),
        lambda: Schedule(period=360, group_duration=60.0),
        lambda: AttackProfile(retry_cap=1.5),
        lambda: DeviceConfig("a", battery_capacity=1000.0),
        lambda: DeviceConfig("a", schedule=MINUTE_SCHEDULE, phase=0.5),
    ], ids=["period", "group_duration", "retry_cap", "battery_capacity", "phase"])
    def test_fractions_rejected(self, make):
        with pytest.raises(InvalidConfig):
            make()

    def test_numpy_integers_accepted(self):
        np = pytest.importorskip("numpy")
        cfg = DeviceConfig("a", schedule=Schedule(np.int64(360), np.int32(60)),
                           attack=AttackProfile(retry_cap=np.int64(2)),
                           battery_capacity=np.int64(1000), phase=np.int16(5))
        assert (cfg.phase, cfg.schedule.period) == (5, 360)

    def test_builtin_schedules(self):
        assert (MINUTE_SCHEDULE.period, MINUTE_SCHEDULE.group_duration) == (360, 60)
        assert (HOUR_SCHEDULE.period, HOUR_SCHEDULE.group_duration) == (43200, 3600)


class TestAttackerDecisions:
    """The tie bits ``_negotiate`` declares: an attacker forces 0, which
    makes its peer the owner, with its ``tbb_strength`` chance, and declares
    a fair bit otherwise.  The committed pairs check the responder's bit,
    which the XOR takes in."""

    def initiator_owns(self, initiator_tbb, responder_tbb, sessions):
        """Whether the attacking initiator owned each of ``sessions``
        sessions; a responder given a strength attacks and commits."""
        responder = (DeviceConfig("responder") if responder_tbb is None
                     else DeviceConfig("responder", defense=DefenseMode.COMMITMENT,
                                       attack=AttackProfile(responder_tbb)))
        sim = _Simulator([DeviceConfig("initiator", schedule=MINUTE_SCHEDULE,
                                       attack=AttackProfile(initiator_tbb)), responder],
                         days(100), 7, False)
        initiator, responder = sim.devices
        period = MINUTE_SCHEDULE.period
        return [sim._negotiate(i * period, initiator, responder) is initiator
                for i in range(sessions)]

    @pytest.mark.parametrize("responder_tbb", [None, 1.0], ids=["standard", "committed"])
    def test_full_strength_always_grounds_bit(self, responder_tbb):
        # the bit 0 alone, or XORed with a forced 0, makes the responder owner
        assert not any(self.initiator_owns(1.0, responder_tbb, 200))

    @pytest.mark.parametrize("initiator_tbb,responder_tbb", [(0.0, None), (1.0, 0.0)],
                             ids=["standard", "committed"])
    def test_zero_strength_is_fair(self, initiator_tbb, responder_tbb):
        owned = self.initiator_owns(initiator_tbb, responder_tbb, 4000)
        assert abs(statistics.fmean(owned) - 0.5) < 3 * 0.5 / 4000 ** 0.5

    @pytest.mark.parametrize("retry_cap,exhausted", [(0, 122), (3, 18)])
    def test_quits_stop_at_retry_cap(self, retry_cap, exhausted):
        # an attacker that always walks out of the owner role quits once
        # per retry plus the last quit that exhausts the session
        attack = AttackProfile(tbb_strength=0.0, r_strength=1.0, retry_cap=retry_cap)
        cfgs = [DeviceConfig("victim"),
                DeviceConfig("attacker", schedule=MINUTE_SCHEDULE, phase=0, attack=attack)]
        result = run(cfgs, horizon=SECONDS_PER_DAY, seed=3, log_sessions=True)
        quits = {}
        for _t, kind, *_ids, _rounds, n in result.sessions:
            quits.setdefault(kind, []).append(n)
        assert quits["exhausted"] == [retry_cap + 1] * exhausted
        assert max(quits["group"]) <= retry_cap


def two_device_configs(defense, tbb=1.0, r=0.0):
    return [
        DeviceConfig("victim", defense=defense),
        DeviceConfig("attacker", defense=DefenseMode.STANDARD,
                     schedule=MINUTE_SCHEDULE, phase=0,
                     attack=AttackProfile(tbb_strength=tbb, r_strength=r)),
    ]


def days(seconds: int) -> int:
    return seconds * SECONDS_PER_DAY


class TestRunValidation:
    def test_too_few_devices(self):
        with pytest.raises(InvalidConfig):
            run([DeviceConfig("only", schedule=MINUTE_SCHEDULE)])

    def test_duplicate_ids(self):
        with pytest.raises(InvalidConfig):
            run([DeviceConfig("x", schedule=MINUTE_SCHEDULE), DeviceConfig("x")])

    def test_bad_horizon(self):
        with pytest.raises(InvalidConfig):
            run(two_device_configs(DefenseMode.STANDARD), horizon=0)

    @pytest.mark.parametrize("horizon", [3600.5, 3600.0])
    def test_fractional_horizon(self, horizon):
        with pytest.raises(InvalidConfig):
            run(two_device_configs(DefenseMode.STANDARD), horizon=horizon)

    def test_someone_must_have_a_schedule(self):
        with pytest.raises(InvalidConfig):
            run([DeviceConfig("a"), DeviceConfig("b")])


class TestDeterminism:
    def test_same_seed_reproduces_bytes(self):
        cfgs = two_device_configs(DefenseMode.STANDARD, tbb=0.5, r=0.3)
        a = run(cfgs, horizon=days(5), seed=42, log_sessions=True)
        b = run(cfgs, horizon=days(5), seed=42, log_sessions=True)
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        cfgs = [
            DeviceConfig("victim", defense=DefenseMode.STANDARD),
            DeviceConfig("attacker", schedule=MINUTE_SCHEDULE,
                         attack=AttackProfile(tbb_strength=0.5)),
        ]
        a = run(cfgs, horizon=days(5), seed=1)
        b = run(cfgs, horizon=days(5), seed=2)
        # to_json() carries the seed, so only the device stats can tell
        assert a.devices != b.devices

    def test_json_is_parseable_and_complete(self):
        cfgs = two_device_configs(DefenseMode.STANDARD)
        result = run(cfgs, horizon=days(2), seed=0)
        payload = json.loads(result.to_json())
        assert payload["seed"] == 0
        assert payload["horizon_seconds"] == days(2)
        assert {d["device_id"] for d in payload["devices"]} == {"victim", "attacker"}


class TestEnergyAccounting:
    @pytest.mark.parametrize("cfgs", [
        [DeviceConfig("a", defense=DefenseMode.COMMITMENT, schedule=MINUTE_SCHEDULE),
         DeviceConfig("b", defense=DefenseMode.COMMITMENT, schedule=MINUTE_SCHEDULE)],
        two_device_configs(DefenseMode.LEARNING, tbb=1.0),
        [DeviceConfig("v", defense=DefenseMode.LEARNING_COMMITMENT, schedule=HOUR_SCHEDULE),
         DeviceConfig("m", schedule=HOUR_SCHEDULE,
                      attack=AttackProfile(tbb_strength=1.0, r_strength=0.5)),
         DeviceConfig("p1", defense=DefenseMode.LEARNING_COMMITMENT, schedule=HOUR_SCHEDULE),
         DeviceConfig("p2", defense=DefenseMode.LEARNING_COMMITMENT, schedule=HOUR_SCHEDULE),
         DeviceConfig("p3", defense=DefenseMode.LEARNING_COMMITMENT, schedule=HOUR_SCHEDULE)],
    ])
    def test_conservation_is_exact(self, cfgs):
        result = run(cfgs, horizon=days(20), seed=3)
        for stats in result.devices:
            assert energy_conserved(stats)
            assert stats.remaining >= 0

    def test_alive_devices_account_every_second(self):
        cfgs = two_device_configs(DefenseMode.STANDARD, tbb=0.5)
        result = run(cfgs, horizon=days(3), seed=0)
        for stats in result.devices:
            assert stats.depletion_day is None
            total = stats.idle_seconds + stats.client_seconds + stats.go_seconds
            assert total == result.horizon_seconds

    def test_go_time_fraction_definition(self):
        cfgs = two_device_configs(DefenseMode.STANDARD)
        result = run(cfgs, horizon=days(3), seed=0)
        for stats in result.devices:
            total = stats.idle_seconds + stats.client_seconds + stats.go_seconds
            assert stats.go_time_fraction == pytest.approx(stats.go_seconds / total)

    def test_tiny_battery_dies_and_stops(self):
        cfgs = [
            DeviceConfig("frail", schedule=MINUTE_SCHEDULE, phase=0,
                         battery_capacity=3600),
            DeviceConfig("peer", schedule=MINUTE_SCHEDULE, phase=180),
        ]
        result = run(cfgs, horizon=days(1), seed=5, log_sessions=True)
        frail = result.device("frail")
        # death strikes at the first second the current rate cannot fund,
        # so the residue is below the owner rate
        assert 0 <= frail.remaining < 11
        assert frail.depletion_day is not None
        assert frail.depletion_day < 1.0
        last_second = frail.depletion_day * SECONDS_PER_DAY + 1e-9
        assert all(t <= last_second for t, _, init, *_ in result.sessions
                   if init == "frail")
        assert energy_conserved(frail)


class TestDepletionAnchors:
    def test_depletion_instant_interpolates(self):
        # owner from t=0 at 11 units/s: 9 whole seconds leave a residue of
        # 1, so the reported instant is 100/11 s, not the 9 s boundary
        cfgs = two_device_configs(DefenseMode.STANDARD)
        cfgs[0] = DeviceConfig("victim", battery_capacity=100)
        victim = run(cfgs, horizon=60, seed=0).device("victim")
        assert (victim.go_seconds, victim.remaining) == (9, 1)
        assert victim.depletion_day * SECONDS_PER_DAY == pytest.approx(100 / 11)

    def test_owner_death_due_at_group_end_falls_to_idle_rate(self):
        # 665 units fund exactly the 60 owner seconds of the first group
        # (665 // 11 == 60) and leave 5: the group's end comes first, so the
        # victim lives 5 more seconds at the idle rate instead of dying at
        # 60 + 5/11 s
        cfgs = two_device_configs(DefenseMode.STANDARD)
        cfgs[0] = DeviceConfig("victim", battery_capacity=665)
        victim = run(cfgs, horizon=300, seed=0).device("victim")
        assert (victim.go_seconds, victim.idle_seconds, victim.remaining) == (60, 5, 0)
        assert victim.depletion_day * SECONDS_PER_DAY == pytest.approx(65.0)

    def test_death_at_group_end_interpolates_at_idle_rate(self):
        # 660 units fund exactly the 60 owner seconds of the first group
        # (660 // 11 == 60) and leave none at its end, where the victim
        # dies: the group is over, so it leaves service idle, with nothing
        # left to interpolate
        cfgs = two_device_configs(DefenseMode.STANDARD)
        cfgs[0] = DeviceConfig("victim", battery_capacity=660)
        victim = run(cfgs, horizon=300, seed=0).device("victim")
        assert (victim.go_seconds, victim.idle_seconds, victim.remaining) == (60, 0, 0)
        assert victim.depletion_day * SECONDS_PER_DAY == pytest.approx(60.0)

    def test_death_mid_group_recomputes_partner_death(self):
        # the victim dies 9 s into its first owner group; the attacker, a
        # client until then, would have had 80 units left at the group's
        # end and died at 140 s, but drops to idle at 9 s with 182 left
        cfgs = two_device_configs(DefenseMode.STANDARD)
        cfgs[0] = DeviceConfig("victim", battery_capacity=100)
        cfgs[1] = dataclasses.replace(cfgs[1], battery_capacity=200)
        result = run(cfgs, horizon=300, seed=0)
        victim, attacker = result.device("victim"), result.device("attacker")
        assert victim.depletion_day * SECONDS_PER_DAY == pytest.approx(100 / 11)
        assert (attacker.client_seconds, attacker.idle_seconds, attacker.remaining) == (9, 182, 0)
        assert attacker.depletion_day * SECONDS_PER_DAY == pytest.approx(191.0)

    def test_client_death_that_comes_first_is_found(self):
        # the client's first group leaves it 100 units at 100 s, so it dies
        # at 200 s, before the bystander (280 s), the earliest death when
        # the group started; missed, it would tick again at 220 s
        cfgs = [DeviceConfig("client", schedule=Schedule(220, 100), phase=0,
                             attack=AttackProfile(tbb_strength=1.0), battery_capacity=300),
                DeviceConfig("owner", battery_capacity=10**6),
                DeviceConfig("bystander", battery_capacity=280)]
        result = run(cfgs, horizon=2000, seed=1, log_sessions=True)
        client = result.device("client")
        assert [session[:5] for session in result.sessions] == [
            (0, "group", "client", "owner", "owner")]
        assert (client.client_seconds, client.idle_seconds, client.remaining) == (100, 100, 0)
        assert client.depletion_day * SECONDS_PER_DAY == pytest.approx(200.0)

    def test_back_to_back_owner_groups(self):
        # groups as long as the period keep the victim owner every second,
        # so a 365-idle-day battery lasts 365/11 days
        cfgs = [DeviceConfig("victim"),
                DeviceConfig("attacker", schedule=Schedule(360, 360), phase=0,
                             attack=AttackProfile(tbb_strength=1.0))]
        victim = run(cfgs, horizon=days(34), seed=0).device("victim")
        assert victim.idle_seconds == victim.client_seconds == 0
        assert (victim.go_seconds, victim.remaining) == divmod(DEFAULT_CAPACITY, 11)
        assert victim.depletion_day == pytest.approx(365 / 11)

    def test_forced_owner_baseline(self):
        # full-strength tie manipulation pins the victim as owner for one
        # minute in six; the closed-form depletion day is 136.875
        for seed in range(3):
            result = run(two_device_configs(DefenseMode.STANDARD),
                         horizon=days(150), seed=seed)
            assert result.device("victim").depletion_day == pytest.approx(136.875, abs=0.01)

    def test_defenses_outlast_standard(self):
        outcomes = {}
        for defense in (DefenseMode.STANDARD, DefenseMode.LEARNING, DefenseMode.COMMITMENT):
            result = run(two_device_configs(defense, tbb=0.5),
                         horizon=days(400), seed=0)
            stats = result.device("victim")
            outcomes[defense] = (400.0 if stats.depletion_day is None
                                 else stats.depletion_day)
        assert outcomes[DefenseMode.STANDARD] < outcomes[DefenseMode.COMMITMENT]
        assert outcomes[DefenseMode.STANDARD] < outcomes[DefenseMode.LEARNING]

    def test_learning_rejects_persistent_attacker(self):
        result = run(two_device_configs(DefenseMode.LEARNING),
                     horizon=days(400), seed=0, log_sessions=True)
        kinds = {row[1] for row in result.sessions}
        assert "rejected" in kinds
        victim = result.device("victim")
        assert victim.rejections_issued > 0
        assert victim.depletion_day is not None
        assert victim.depletion_day >= 360.0


class TestQuietInstant:
    """The guard at the instants where its answer can turn: as owner
    seconds lift the owner-time share past 3/5, at midnight, at exactly
    3/5, and as a hold lapses.  A flag stands as yes for
    ``FLAG_HOLD_SECONDS``; a no writes nothing, so each test shows that a
    no leaves ``until`` as it was and the next check answers afresh."""

    DAY = 40
    START = DAY * SECONDS_PER_DAY + 3600

    def test_slack_assumes_a_threshold_of_three_fifths(self):
        assert FAIRNESS_THRESHOLD == 3 / 5, (
            "PeerRecord.hold's slack = 3C - 5S bounds the owner-time share by 3/5 only; "
            "restate the slack for the new threshold")

    def learning_victim(self):
        sim = _Simulator([DeviceConfig("victim", defense=DefenseMode.LEARNING),
                          DeviceConfig("attacker", schedule=MINUTE_SCHEDULE)],
                         days(100), 0, False)
        return sim, *sim.devices

    def negotiate(self, victim):
        # 39 negotiations the victim owned: hostile as soon as the
        # owner-time share passes 3/5 by enough for z = 0.4
        for _ in range(39):
            victim.peers["attacker"].learn_negotiation(self.START, True, False)

    def test_guard_evaluates_when_owner_seconds_can_pass_three_fifths(self):
        sim, victim, attacker = self.learning_victim()
        self.negotiate(victim)
        record = victim.peers["attacker"]
        record.record_group_time(self.DAY, 0, 1)   # S = 0, C = 1
        now = self.START + 12 * 3600
        assert not sim._rejects(victim, attacker, now)
        assert record.until == 0   # a no leaves ``until`` as it was
        # a group owned from ``now`` for two seconds lifts the share to 2/3
        record.record_group_time(self.DAY, 2, 2)
        assert sim._rejects(victim, attacker, now + 2)
        assert record.until == now + 2 + FLAG_HOLD_SECONDS

    def test_guard_evaluates_at_midnight(self):
        sim, victim, attacker = self.learning_victim()
        oldest = self.DAY - WINDOW_DAYS + 1
        # a fair day, the last of the window, with one negotiation the attacker owned
        victim.peers["attacker"].learn_negotiation(oldest * SECONDS_PER_DAY, False, False)
        record = victim.peers["attacker"]
        record.record_group_time(oldest, 0, 1000)
        self.negotiate(victim)
        record.record_group_time(self.DAY, 700, 700)  # S = 700, C = 1700: slack 1600
        midnight = (self.DAY + 1) * SECONDS_PER_DAY
        now = midnight - 100
        assert not sim._rejects(victim, attacker, now)
        assert record.until == 0   # a no leaves ``until`` as it was
        # the fair day expires at midnight, and the share jumps to 1
        assert sim._rejects(victim, attacker, midnight)
        assert (record.self_go_seconds, record.comm_seconds) == (700, 700)

    def test_no_quiet_instant_at_three_fifths(self):
        sim, victim, attacker = self.learning_victim()
        self.negotiate(victim)
        record = victim.peers["attacker"]
        record.record_group_time(self.DAY, 3, 5)
        now = self.START + 12 * 3600
        assert not sim._rejects(victim, attacker, now)
        assert record.until == 0   # a no leaves ``until`` as it was
        record.record_group_time(self.DAY, 1, 1)   # one owner second later: 4/6
        assert sim._rejects(victim, attacker, now + 1)

    def test_tally_on_an_empty_window_starts_the_pair_age(self):
        # a batch books a learner's negotiations as one tally, under the
        # same rule as one negotiation: an empty window restarts the age
        _, victim, _ = self.learning_victim()
        victim.peers["attacker"].learn_negotiation(self.START, 2, 1, 5)
        record = victim.peers["attacker"]
        assert (record.negotiations, record.self_go_wins, record.peer_premature_quits) == (5, 2, 1)
        assert record.since == self.START

    def test_quiet_span_after_a_lapsed_hold_says_no(self):
        sim, victim, attacker = self.learning_victim()
        self.negotiate(victim)
        record = victim.peers["attacker"]
        record.record_group_time(self.DAY, 1, 1)
        now = self.START + 12 * 3600
        assert sim._rejects(victim, attacker, now)
        # the hold lapses a window span later, when every bucket has expired;
        # a fresh negotiation and a group the victim joined as client leave
        # the share at 0, so the guard says no from the lapse on
        lapse = now + FLAG_HOLD_SECONDS
        victim.peers["attacker"].learn_negotiation(lapse, False, False)
        record.record_group_time(lapse // SECONDS_PER_DAY, 0, 60)
        assert not sim._rejects(victim, attacker, lapse)
        assert not sim._rejects(victim, attacker, lapse + 1)
        assert record.until == lapse   # each no leaves the lapsed hold as it was


class TestRefusalStorm:
    """A refuser's standing yes makes its refusals a storm, taken in one
    step by ``_pair_run``, only when the ticker does not learn: a learning
    ticker's guard can change its mind while the refuser's hold lasts, and
    avoid the refuser from then on."""

    DAY = TestQuietInstant.DAY
    START = TestQuietInstant.START

    def test_learning_ticker_refused_one_tick_at_a_time(self):
        # the ticker's period outlasts the run, so each tick can be its first
        sim = _Simulator([DeviceConfig("refuser", defense=DefenseMode.LEARNING),
                          DeviceConfig("ticker", defense=DefenseMode.LEARNING,
                                       schedule=Schedule(days(100), 60))],
                         days(100), 0, False)
        refuser, ticker = sim.devices
        refuser.peers["ticker"].learn_negotiation(self.START, False, False)
        flag = refuser.peers["ticker"]
        flag.until = self.START + FLAG_HOLD_SECONDS
        # a fair old day, the last of the ticker's window, with one
        # negotiation the refuser owned, then 39 negotiations the ticker owned
        oldest = self.DAY - WINDOW_DAYS + 1
        ticker.peers["refuser"].learn_negotiation(oldest * SECONDS_PER_DAY, False, False)
        record = ticker.peers["refuser"]
        record.record_group_time(oldest, 0, 10000)
        for _ in range(39):
            ticker.peers["refuser"].learn_negotiation(self.START, True, False)
        record.record_group_time(self.DAY, 2000, 2000)   # S = 2000, C = 12000
        midnight = (self.DAY + 1) * SECONDS_PER_DAY

        def tick(t):
            # a run of one tick: the ticker's first, at its phase ``t``,
            # with the horizon a second later
            ticker.cfg = dataclasses.replace(ticker.cfg, phase=t)
            sim.horizon = t + 1
            sim.run()

        tick(midnight - 600)
        assert (refuser.rejections_issued, ticker.initiations_avoided) == (1, 0)
        # the old day expires at midnight, the share jumps to 1, and the
        # ticker flags the refuser instead of ticking into its hold
        tick(midnight)
        assert (refuser.rejections_issued, ticker.initiations_avoided) == (1, 1)


class TestDecidedTicks:
    """Runs of a pair's ticks that the peer's state decides, each taken in
    one step by ``_pair_run``: busy ticks when the peer is dead, a refusal
    storm while its yes lasts, and batched sessions while its no provably
    stands or when it has no guard.  These steps only save work and change
    no result, so these tests count the work: the ticks the loop of
    ``run`` takes, and the calls of ``_refuse`` and ``_negotiate`` on one
    run (every session outside a batch negotiates in one ``_negotiate``
    call)."""

    def traced_run(self, devices, horizon, seed, spans=None):
        """Run with the calls traced; each batched span of a learning pair
        goes to ``spans`` as its ticks, the learner's record as its guard
        last read it (the window totals, the pair's age and the buckets'
        days, owner and group seconds), and the rounds its batches
        negotiated."""
        sim = _Simulator(devices, horizon, seed, False)
        ticks, refusals, sessions = [], [], []
        refuse, negotiate = sim._refuse, sim._negotiate
        batch, decided, current = sim._negotiate_batch, sim._decided_ticks, [None]

        def taken(operation):
            # the loop takes a tick by replacing or popping the top entry, its
            # one heap operation
            def traced(heap, *item):
                ticks.append(heap[0][0])
                return operation(heap, *item)
            return traced

        def traced_refuse(refuser, dev, refused):
            refusals.append(refused)
            refuse(refuser, dev, refused)

        def traced_negotiate(t, initiator, responder):
            sessions.append(t)
            return negotiate(t, initiator, responder)

        def traced_decided(dev, first, stop):
            run = decided(dev, first, stop)
            learner = sim.devices[1 - dev.index]
            rec = learner.peers.get(dev.id) if learner.peers else None
            current[0] = None if rec is None else [run, (
                rec.negotiations, rec.self_go_wins, rec.peer_premature_quits,
                rec.self_go_seconds, rec.comm_seconds), rec.since,
                [(b.day, b.self_go_seconds, b.comm_seconds) for b in rec.buckets()], 0]
            return run

        def traced_batch(batch_ticks, plan):
            out = batch(batch_ticks, plan)
            span = current[0]
            if spans is not None and span is not None:
                if not span[-1]:   # a storm or a survivor's run negotiates no round
                    spans.append(span)
                span[-1] += out[3][2]   # the learner's rounds
            return out

        sim._refuse, sim._negotiate = traced_refuse, traced_negotiate
        sim._negotiate_batch, sim._decided_ticks = traced_batch, traced_decided
        recorder = types.SimpleNamespace(heappush=heapq.heappush,
                                         heapreplace=taken(heapq.heapreplace),
                                         heappop=taken(heapq.heappop))
        with mock.patch.object(simulation, "heapq", recorder):
            return sim.run(), ticks, refusals, sessions

    # in the second pair the victim ticks too: the survivor's step does
    # not hang on whether its dead partner had a schedule
    @pytest.mark.parametrize("pair", [
        LONE_ATTACKER,
        [dataclasses.replace(LONE_ATTACKER[0], schedule=HOUR_SCHEDULE), LONE_ATTACKER[1]],
    ], ids=["silent_victim", "ticking_victim"])
    def test_lone_survivor_ticks_are_not_popped(self, pair):
        result, ticks, _, _ = self.traced_run(pair, days(5), 10)
        victim, attacker = result.device("victim"), result.device("attacker")
        late = [t for t in ticks if t > victim.depletion_day * SECONDS_PER_DAY]
        # the attacker counts hundreds of busy ticks alone: its first tick
        # past the victim's death takes them all, and the only other tick
        # popped is the void one past its own death
        assert attacker.skips_busy > 600
        assert len(late) == 2
        assert late[0] < attacker.depletion_day * SECONDS_PER_DAY < late[1]

    def test_refusal_storm_is_refused_in_one_call(self):
        result, ticks, refusals, _ = self.traced_run(LEARNING_STORM, days(4), 13)
        victim = result.device("victim")
        assert victim.rejections_issued > 400
        # the tick at which the victim's guard flags the attacker opens the
        # storm: its yes refuses that tick and every one after it up to its
        # death in one call
        (storm,) = refusals
        assert storm.start == 36132 and storm.step == MINUTE_SCHEDULE.period
        assert storm[-1] < victim.depletion_day * SECONDS_PER_DAY < storm[-1] + storm.step
        # the attacker's first tick past the victim's death takes every
        # tick it then has alone
        assert len([t for t in ticks if t > storm[0]]) == 1

    def test_pair_sessions_are_batched(self):
        pair = two_device_configs(DefenseMode.STANDARD)
        result, ticks, _, sessions = self.traced_run(pair, days(400), 0)
        # the headline pair: all but a few of its sessions run in batches
        assert result.device("victim").negotiations == 32850
        assert len(ticks) < 100 and len(sessions) < 100

    def test_learning_pair_sessions_are_batched(self):
        pair = two_device_configs(DefenseMode.LEARNING_COMMITMENT)
        spans = []
        result, ticks, _, sessions = self.traced_run(pair, days(400), 0, spans)
        # the LC victim owns at most 3/5 of the group time, and its guard's
        # no stands for as many ticks as that slack covers, across midnights
        # (58 ticks popped and 2 sessions alone measured)
        assert result.device("victim").negotiations == 45690
        assert len(ticks) < 70 and len(sessions) < 5
        assert max(run[-1] // SECONDS_PER_DAY - run[0] // SECONDS_PER_DAY for run, *_ in spans) > 1
        duration = MINUTE_SCHEDULE.group_duration
        for run, (_, _, _, owned, comm), since, buckets, _ in spans:
            day = run[0] // SECONDS_PER_DAY
            # it ends before the reading day's bucket, which it adds to, can expire
            assert run[-1] // SECONDS_PER_DAY < day + WINDOW_DAYS
            for i, t in enumerate(run):
                if t + run.step < run.stop and (t + run.step) // SECONDS_PER_DAY == t // SECONDS_PER_DAY:
                    continue   # a day's last tick sees the most owned seconds of that day
                # tick ``i`` finds at most ``i * duration`` more owned seconds, and
                # the buckets expired by its day gone: the share stays at most 3/5
                expired = sum(3 * c - 5 * s for d, s, c in buckets
                              if d <= t // SECONDS_PER_DAY - WINDOW_DAYS)
                assert (t < since + MIN_PAIR_AGE_SECONDS
                        or 3 * comm - 5 * owned - expired - 2 * i * duration >= 0), (run, i)

    def test_young_pair_sessions_are_batched(self):
        # the learning victim owns every group, so only the pair's age holds its no:
        # one batch takes every tick before the pair is ten hours old, and
        # the first tick of age flags the attacker and refuses the rest
        spans = []
        _, ticks, refusals, sessions = self.traced_run(
            two_device_configs(DefenseMode.LEARNING), days(400), 0, spans)
        ((run, _, since, _, rounds),) = spans
        assert (since, run.start, rounds) == (0, MINUTE_SCHEDULE.period, 99)
        (storm,) = refusals
        assert run.stop == storm.start == since + MIN_PAIR_AGE_SECONDS
        assert sessions == [0] and len(ticks) < 10

    def test_quitting_attacker_sessions_are_batched(self, monkeypatch):
        # the ``var_r_strength`` LC cell at r = 0.6: the victim owns more
        # than 3/5 of the group time, and its no stands while no window its
        # records can reach could say yes
        devices = build_devices(preset("var_r_strength"), DefenseMode.LEARNING_COMMITMENT, 0.6)
        spans = []
        result, _, _, sessions = self.traced_run(devices, days(400), 0, spans)
        assert result.device("victim").negotiations == 55709
        assert len(sessions) < 10   # 1 measured; 39,101 when only time held a no
        # each span the box held keeps the guard's verdict: taken tick by
        # tick, without a batch, the run is the same, and every check of
        # the victim's guard within such a span says no
        horizon = days(40)
        held = {t for run_, (_, _, _, owned, comm), since, _, _ in spans
                if 5 * owned > 3 * comm and run_[0] >= since + MIN_PAIR_AGE_SECONDS
                for t in run_ if t < horizon}
        assert len(held) > 1000   # 9,500 measured
        monkeypatch.setattr(PeerRecord, "hold", lambda *args: 0)
        sim = _Simulator(devices, horizon, 0, False)
        checks, rejects = [], sim._rejects

        def traced_rejects(dev, peer, now):
            verdict = rejects(dev, peer, now)
            if dev.id == "victim":
                checks.append((now, verdict))
            return verdict

        sim._rejects = traced_rejects
        assert sim.run() == run(devices, horizon, 0)
        assert held <= {now for now, _ in checks}
        assert not [now for now, verdict in checks if verdict and now in held]


class TestHold:
    """``PeerRecord.hold`` for a window whose owner-time share is above 3/5: the no
    stands up to midnight, or to the first tick whose reachable box holds
    a hostile cell and a confidence bound above 3/5."""

    NOW = TestQuietInstant.START + 12 * 3600   # a day's 13:00
    MIDNIGHT = (TestQuietInstant.DAY + 1) * SECONDS_PER_DAY

    def window(self, n, won, quit, owned, comm):
        sim = _Simulator([DeviceConfig("victim", defense=DefenseMode.LEARNING),
                          DeviceConfig("attacker", schedule=MINUTE_SCHEDULE)],
                         days(100), 0, False)
        victim, attacker = sim.devices
        victim.peers["attacker"].learn_negotiation(self.NOW - MIN_PAIR_AGE_SECONDS, won, quit, n)
        victim.peers["attacker"].record_group_time(self.NOW // SECONDS_PER_DAY, owned, comm)
        assert not sim._rejects(victim, attacker, self.NOW)
        return sim, victim.peers["attacker"]

    @pytest.mark.parametrize("n,z", [(39, GUARD_Z_SPARSE), (40, GUARD_Z_LIMITED),
                                     (99, GUARD_Z_LIMITED), (100, GUARD_Z_AMPLE)])
    def test_bound_takes_the_z_of_its_regime(self, n, z):
        assert _bound(0.75, n) == 0.75 - z * math.sqrt(0.75 * 0.25 / n)

    def test_top_bound_takes_the_top_of_each_regime(self):
        # the sparse regime's last window, or the limited one's, has a
        # higher bound than any larger window
        assert _top_bound(30, 50, 0.7) == _bound(0.7, 39) > _bound(0.7, 50)
        assert _top_bound(90, 120, 0.7) == _bound(0.7, 99) > _bound(0.7, 120)
        assert _top_bound(40, 60, 0.7) == _bound(0.7, 60)

    @pytest.mark.parametrize("rounds,ticks", [(1, 1), (2, 0)])
    def test_no_stands_until_the_history_can_turn_limited(self, rounds, ticks):
        # nine negotiations, six won and three quit, and 7/10 of the time
        # owned: an insufficient history, whose tenth record can land in a
        # hostile cell with a bound above 3/5 at the next tick, or after a
        # quit at this one
        sim, rec = self.window(9, 6, 3, 70, 100)
        assert rec.hold(rounds, self.NOW, 360, 60) == ticks
        # and so it does: one more won record and an owned group
        rec.record_negotiation(self.NOW // SECONDS_PER_DAY, 1, 0)
        rec.record_group_time(self.NOW // SECONDS_PER_DAY, 60, 60)
        assert sim._rejects(*sim.devices, self.NOW + 360)

    def test_a_cleared_no_stands_to_midnight(self):
        # no win and no quit in 100 negotiations: eleven more records leave
        # both shares LOW, and no cell with them is hostile
        _, rec = self.window(100, 0, 0, 1000, 1000)
        assert rec.hold(1, self.NOW, 3600, 60) == -((self.NOW - self.MIDNIGHT) // 3600) == 11


class TestBulkDraws:
    """``_negotiate_batch`` draws a batch's words in bulk only when every
    session draws the same words: no party can walk out, and each bit that
    decides the tie is fair, always forced or never forced.  The widest
    single draw of a batch tells which way it went: one word at most for
    the loop, a chunk of sessions' words in bulk."""

    def widest_draw(self, initiator, responder, committed=False):
        configs = [DeviceConfig("d0", schedule=MINUTE_SCHEDULE, attack=initiator,
                                defense=DefenseMode.COMMITMENT if committed else DefenseMode.STANDARD),
                   DeviceConfig("d1", attack=responder)]
        sim = _Simulator(configs, days(1), 0, False)
        widths = [0]

        class Recording(random.Random):
            def getrandbits(self, k):
                widths.append(k)
                return super().getrandbits(k)

        sim.rng = Recording(0)
        sim._negotiate_batch(range(0, 10 * MINUTE_SCHEDULE.period, MINUTE_SCHEDULE.period),
                             sim._batch_plan(*sim.devices))
        return max(widths)

    @staticmethod
    def attack(tbb, r=0.0):
        return AttackProfile(tbb_strength=tbb, r_strength=r)

    @pytest.mark.parametrize("initiator, responder, committed", [
        (None, None, False), (0.0, None, False), (1.0, None, False),
        (None, 0.0, True), (0.0, 1.0, True), (1.0, None, True),
        (1.0, 0.5, False),   # the responder's bit decides nothing without commitments
    ])
    def test_fixed_shapes_draw_in_bulk(self, initiator, responder, committed):
        attacks = [None if force is None else self.attack(force) for force in (initiator, responder)]
        assert self.widest_draw(*attacks, committed) > 32

    @pytest.mark.parametrize("force", [0.5, 5e-324, 1.0 - 2**-53])
    def test_a_force_between_zero_and_one_is_refused(self, force):
        assert self.widest_draw(self.attack(force), None) <= 1
        assert self.widest_draw(None, self.attack(force), committed=True) <= 1

    @pytest.mark.parametrize("r", [5e-324, 0.5, 1.0])
    def test_any_quit_chance_is_refused(self, r):
        assert self.widest_draw(self.attack(1.0, r), self.attack(0.0)) <= 1
        assert self.widest_draw(None, self.attack(0.0, r), committed=True) <= 1


class TestPrematureQuits:
    def run_quitter(self, seed=0):
        cfgs = two_device_configs(DefenseMode.STANDARD, tbb=0.0, r=1.0)
        return run(cfgs, horizon=days(30), seed=seed, log_sessions=True)

    def test_quits_are_observed_by_victim(self):
        result = self.run_quitter()
        victim = result.device("victim")
        attacker = result.device("attacker")
        assert victim.peer_quits_observed > 0
        assert attacker.peer_quits_observed == 0
        # every quit round is logged as an owner win for the quitter
        assert attacker.go_wins >= victim.peer_quits_observed

    def test_round_counts_follow_coin_retries(self):
        # the quitter rejects every owner assignment, so settled sessions
        # take a geometric number of rounds with mean 2
        rounds = [r for _, kind, _, _, owner, r, _ in self.run_quitter().sessions
                  if kind == "group"]
        assert statistics.fmean(rounds) == pytest.approx(2.0, abs=0.2)

    def test_victim_owns_every_settled_group(self):
        owners = {owner for _, kind, _, _, owner, _, _ in self.run_quitter().sessions
                  if kind == "group"}
        assert owners == {"victim"}

    def test_session_kinds_are_known(self):
        result = self.run_quitter()
        assert {row[1] for row in result.sessions} <= SESSION_KINDS


class TestSessionLog:
    def test_group_rows_carry_owner_and_rounds(self):
        result = run(two_device_configs(DefenseMode.STANDARD),
                     horizon=days(1), seed=0, log_sessions=True)
        groups = [row for row in result.sessions if row[1] == "group"]
        assert groups
        for t, _, initiator, responder, owner, rounds, quits in groups:
            assert 0 <= t <= result.horizon_seconds
            assert initiator == "attacker" and responder == "victim"
            assert owner == "victim"       # full-strength manipulation
            assert rounds == 1 and quits == 0

    def test_timestamps_are_ordered(self):
        result = run(two_device_configs(DefenseMode.STANDARD, tbb=0.3, r=0.4),
                     horizon=days(5), seed=9, log_sessions=True)
        times = [row[0] for row in result.sessions]
        assert times == sorted(times)

    def test_unknown_device_lookup_fails(self):
        result = run(two_device_configs(DefenseMode.STANDARD),
                     horizon=days(1), seed=0)
        with pytest.raises(KeyError):
            result.device("nobody")
