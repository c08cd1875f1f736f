"""Simulator and peer-profile invariants on generated inputs (Hypothesis).

Each example is a population of two to six devices with every defense and
attack mix, schedules that include back-to-back groups
(``group_duration == period``) and batteries from a single unit up.  Short
examples run to a horizon of minutes with tiny batteries; long ones run
past the learning guard's ten-hour pair age.  A second strategy draws two
to four devices on hour-scale schedules, one of them learning, over 31 to
120 days, so profile buckets expire and flag holds lapse; those runs are
compared with ``reference_sim`` only, and labelled with
``hypothesis.event`` by what the learner's guard went through
(``--hypothesis-show-statistics`` counts them).  A third draws a pair with
one device on a schedule, whose batteries last tens to thousands of
periods, with phases that include 0 and horizons that are sometimes a
whole number of periods: either neither device learns, or the one without
a schedule does, on schedules of a minute to 12 hours and horizons of up
to 200 days.  Those runs too are compared with ``reference_sim`` only.
For every run:

* every device's energy books balance (``energy_conserved``);
* a device's role seconds cover the horizon, or the whole seconds it lived;
* rebuilding each group's span from the session log and the depletion
  instants gives every device's owner and client seconds, so what one side
  of a pair spent as owner the other spent as client;
* no device is ever in two groups at once;
* session times never decrease;
* every schedule instant a device lived to see is one tick: it either
  counts as busy or starts a session the device initiated;
* the session log only observes: a run without it has an empty log and
  otherwise gives the same statistics and JSON as the logged run;
* the logged run's ``to_json()`` equals that of ``reference_sim``, a naive
  event loop that settles energy at every role change.  ``run`` books a
  group's energy when the group starts and derives idle seconds and the
  remaining charge from that ledger, so the first two points hold there
  by construction; this comparison is the independent check of its books;
* every learning device ends with the reference's records of its peers:
  the same window buckets, and the same instant its pair's age started.

A batch of a pair's sessions, negotiated in one loop or drawn in bulk,
takes generated attack profiles, with and without commitment, and 1 to
200 ticks or a few more or fewer than one or two chunks of a bulk draw,
and every shape that is drawn in bulk.  It leaves the same owners, device
counters, session log and RNG state as one ``_negotiate`` call per tick,
and without the log the same owners, counters and RNG state.

Peer profiles take generated sequences of negotiation records, group-time
records and clock rolls.  After each step the running totals equal the sum
of the retained buckets, a roll to the current day changes nothing and a
roll back in time raises ``ClockRegression``.  A day's records booked as
one tally leave the same window as the records booked one by one.  A
learner's window of generated totals or daily buckets, past the pair age,
gets a full check that says no; any records and group seconds within the
hold ``_hold`` counts from it leave that no standing: across midnights as
buckets expire while the owner-time share is at most 3/5, and otherwise
up to midnight, for windows with counts and owner seconds at band edges
and negotiations at depth and z-regime edges.  The confidence bound rises
with the share by every float from 1/2, and no point of a small box has a
bound above the one ``_top_bound`` takes at its corner.

The codecs take generated vendor IEs, attribute lists and commitment
openings, which decode back to themselves, and arbitrary or damaged bytes,
which either decode and re-encode to the same bytes or raise a
``ValueError`` subclass.  The classifier is one fixed model with 375
inputs, so ``test_learning`` checks it on every one of them instead.
"""

import dataclasses
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, example, given, settings, strategies as st  # noqa: E402

from wfdsim.commitment import NONCE_LEN, Opening, decode_opening  # noqa: E402
from wfdsim.learning import (  # noqa: E402
    AMPLE_NEGOTIATIONS,
    SECONDS_PER_DAY,
    WINDOW_DAYS,
    ClockRegression,
    DailyBucket,
    PeerProfile,
)
from wfdsim.protocol import (  # noqa: E402
    VENDOR_IE_MAX_PAYLOAD,
    P2pAttribute,
    VendorIe,
    decode_vendor_ie,
    encode_p2p_attributes,
    parse_p2p_attributes,
)
from wfdsim.simulation import (  # noqa: E402
    AttackProfile,
    DEFAULT_CAPACITY,
    DEFAULT_RETRY_CAP,
    MIN_PAIR_AGE_SECONDS,
    MINUTE_SCHEDULE,
    SPARSE_WINDOW_NEGOTIATIONS,
    DefenseMode,
    DeviceConfig,
    Schedule,
    energy_conserved,
    run,
    _COUNTS,
    _BULK_SESSIONS,
    _Simulator,
    _bound,
    _hold,
    _may_flag,
    _top_bound,
)

from reference_sim import ReferenceSimulator  # noqa: E402

attacks = st.none() | st.builds(
    AttackProfile,
    tbb_strength=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0),
    r_strength=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
    retry_cap=st.integers(0, 3),
)


def schedules(max_period, min_period=1):
    return st.integers(min_period, max_period).flatmap(
        lambda period: st.builds(Schedule, st.just(period),
                                 st.just(period) | st.integers(1, period)))


@st.composite
def scenarios(draw):
    """(devices, horizon, seed) for one run."""
    if draw(st.booleans()):
        horizon = draw(st.integers(1, 5000))
        periods, capacities = schedules(600), st.integers(1, 5000)
    else:
        horizon = draw(st.integers(10 * 3600, 3 * SECONDS_PER_DAY))
        periods = schedules(900).filter(lambda s: s.period >= 300)
        capacities = st.integers(1, 10**7)
    devices = []
    for i in range(draw(st.integers(2, 6))):
        # device 0 always initiates, so something happens
        schedule = draw(periods if i == 0 else st.none() | periods)
        phase = None if schedule is None else draw(st.none() | st.integers(0, schedule.period - 1))
        devices.append(DeviceConfig(
            f"d{i}", defense=draw(st.sampled_from(DefenseMode)), schedule=schedule,
            attack=draw(attacks), battery_capacity=draw(capacities), phase=phase))
    return devices, horizon, draw(st.integers(0, 2**32))


PLAIN = (DefenseMode.STANDARD, DefenseMode.COMMITMENT)
LEARNING = (DefenseMode.LEARNING, DefenseMode.LEARNING_COMMITMENT)


@st.composite
def long_scenarios(draw):
    """(devices, horizon, seed) for one run of 31 to 120 days:
    two to four devices on hour-scale schedules, the second of them
    learning, so profile buckets expire and flag holds can lapse."""
    horizon = draw(st.integers(31 * SECONDS_PER_DAY, 120 * SECONDS_PER_DAY))
    periods = schedules(12 * 3600, min_period=3600)
    learning = st.sampled_from(LEARNING)
    devices = []
    for i in range(draw(st.integers(2, 4))):
        schedule = draw(periods if i == 0 else st.none() | periods)
        devices.append(DeviceConfig(
            f"d{i}", defense=draw(learning if i == 1 else st.sampled_from(DefenseMode)),
            schedule=schedule, attack=draw(attacks),
            battery_capacity=draw(st.integers(10**7, DEFAULT_CAPACITY))))
    return devices, horizon, draw(st.integers(0, 2**32))


@st.composite
def pair_scenarios(draw, listener=PLAIN, periods=schedules(900), ticks=4000, days=None):
    """(devices, horizon, seed) for a pair with one device on a schedule,
    which does not learn, and one without, whose mode is drawn from
    ``listener``: each battery lasts tens to thousands of the most
    draining periods, phases include 0, and the horizon, at most ``ticks``
    periods and ``days`` days, is sometimes a whole number of periods."""
    schedule = draw(periods)
    period = schedule.period
    # a period spent idle but for one group owned, at 1 and 11 units a second
    worst = period + 10 * schedule.group_duration
    ticker = draw(st.integers(0, 1))
    devices = [DeviceConfig(
        f"d{i}", defense=draw(st.sampled_from(PLAIN if i == ticker else listener)),
        schedule=schedule if i == ticker else None, attack=draw(attacks),
        battery_capacity=draw(st.integers(10 * worst, 3000 * worst)),
        phase=draw(st.just(0) | st.none() | st.integers(0, period - 1)) if i == ticker else None)
        for i in range(2)]
    horizon = draw(st.integers(1, ticks).map(lambda n: n * period) | st.integers(1, ticks * period))
    if days is not None:
        horizon = min(horizon, days * SECONDS_PER_DAY)
    return devices, horizon, draw(st.integers(0, 2**32))


def death_second(stats):
    """The event second at which a depleted device left service."""
    return math.floor(stats.depletion_day * SECONDS_PER_DAY + 1e-6)


def leaves(result, horizon, device_id):
    """The second at which a device left service: its death, or the horizon."""
    stats = result.device(device_id)
    return horizon if stats.depletion_day is None else death_second(stats)


def group_ends(devices, horizon, result):
    """The end of a logged group, from its start and its two parties: the
    initiator's group duration, cut short when either party leaves service."""
    duration = {cfg.device_id: cfg.schedule.group_duration
                for cfg in devices if cfg.schedule is not None}

    def group_end(t, initiator, responder):
        return min(t + duration[initiator],
                   leaves(result, horizon, initiator), leaves(result, horizon, responder))
    return group_end


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(scenarios())
def test_simulator_invariants(scenario):
    devices, horizon, seed = scenario
    result = run(devices, horizon=horizon, seed=seed, log_sessions=True)
    by_id = {stats.device_id: stats for stats in result.devices}
    group_end = group_ends(devices, horizon, result)

    for stats in result.devices:
        assert energy_conserved(stats), stats
        lived = stats.idle_seconds + stats.client_seconds + stats.go_seconds
        assert lived == leaves(result, horizon, stats.device_id), stats

    times = [session[0] for session in result.sessions]
    assert times == sorted(times)

    owner_seconds = dict.fromkeys(by_id, 0)
    client_seconds = dict.fromkeys(by_id, 0)
    spans = {device_id: [] for device_id in by_id}
    for t, kind, initiator, responder, owner, _rounds, _quits in result.sessions:
        if kind != "group":
            continue
        member = responder if owner == initiator else initiator
        end = group_end(t, initiator, responder)
        owner_seconds[owner] += end - t
        client_seconds[member] += end - t
        spans[owner].append((t, end))
        spans[member].append((t, end))
    for device_id, stats in by_id.items():
        assert stats.go_seconds == owner_seconds[device_id]
        assert stats.client_seconds == client_seconds[device_id]
        ordered = sorted(spans[device_id])
        assert all(end <= start for (_, end), (start, _) in zip(ordered, ordered[1:]))


def refusal_storm(horizon, victim=DEFAULT_CAPACITY, attacker=DEFAULT_CAPACITY,
                  victim_schedule=None, others=()):
    """A learning victim, without a schedule unless given one, and an
    attacker forcing the tie bit on a 360 s schedule from 0 s.  The victim
    flags the attacker once their pair is ten hours old (at 36,000 s when
    they are alone) and refuses each of its later ticks until a death or
    the horizon ends the run of refusals."""
    return ([DeviceConfig("victim", defense=DefenseMode.LEARNING, schedule=victim_schedule,
                          phase=None if victim_schedule is None else 180,
                          battery_capacity=victim),
             DeviceConfig("attacker", schedule=Schedule(360, 60), phase=0,
                          attack=AttackProfile(tbb_strength=1.0), battery_capacity=attacker),
             *others],
            horizon, 0)


# Refusal runs that end exactly on a tick instant, where the tick must
# not count as refused: the victim's idle death at 86,400 s (the attacker
# then ticks alone and busy), the attacker's own death at 72,000 s, and a
# horizon of 72,000 s.
STORM_TO_VICTIM_DEATH = refusal_storm(2 * SECONDS_PER_DAY, victim=146400)
STORM_TO_ATTACKER_DEATH = refusal_storm(2 * SECONDS_PER_DAY, attacker=78000)
STORM_TO_HORIZON = refusal_storm(72000)
# Refusals that are not a storm: the victim ticks too, avoiding the
# attacker on its own ticks, or a third device draws the attacker's peer.
REFUSALS_OF_A_TICKING_VICTIM = refusal_storm(SECONDS_PER_DAY, victim_schedule=Schedule(360, 60))
REFUSALS_AMONG_THREE = refusal_storm(SECONDS_PER_DAY, others=[DeviceConfig("bystander")])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(scenarios())
@example(STORM_TO_VICTIM_DEATH)
@example(STORM_TO_ATTACKER_DEATH)
@example(STORM_TO_HORIZON)
def test_tick_ledger(scenario):
    devices, horizon, seed = scenario
    result = run(devices, horizon=horizon, seed=seed, log_sessions=True)
    for cfg in devices:
        if cfg.schedule is None:
            continue
        stats = result.device(cfg.device_id)
        initiated = sum(1 for session in result.sessions if session[2] == cfg.device_id)
        ticks = stats.skips_busy + initiated
        period = cfg.schedule.period
        dead = stats.depletion_day is not None
        end = death_second(stats) if dead else horizon
        if cfg.phase is None:
            # the drawn phase is unknown: the instants below ``end`` number
            # ``end // period`` or one more
            low, high = end // period, -(-end // period)
        else:
            low = high = len(range(cfg.phase, end, period))
        # a group the device joins in the second it dies can kill it after
        # that second's tick has run
        if dead and any(t == end and kind == "group" and cfg.device_id in (initiator, responder)
                        for t, kind, initiator, responder, *_ in result.sessions):
            high += 1
        assert low <= ticks <= high, (cfg, stats)


# Deaths that generated populations almost never line up.  Both members
# of a group run out in second 10 of it: the owner resolves first, ends
# the group, and the client lives one more second at the idle rate.  In
# the second population only the owner-first rule decides that order: a
# bystander's death at 5 s sends the loop looking for the earliest death
# again, and it finds the client, listed first.  And an owner whose
# battery lasts exactly to its group's end dies there with no unit left.
SAME_SECOND_DEATHS = (
    [DeviceConfig("client", schedule=Schedule(100, 100), phase=0,
                  attack=AttackProfile(tbb_strength=1.0), battery_capacity=21),
     DeviceConfig("owner", battery_capacity=115)],
    200, 9)
OWNER_FIRST = (
    [*SAME_SECOND_DEATHS[0], DeviceConfig("bystander", battery_capacity=5)],
    200, 1)
DEATH_AT_GROUP_END = (
    [DeviceConfig("owner", battery_capacity=660),
     DeviceConfig("client", schedule=Schedule(360, 60), phase=0,
                  attack=AttackProfile(tbb_strength=1.0))],
    300, 0)


# Two ticks at one instant leave the heap in the order they were pushed,
# not in the order of the devices: at 600 s ``d1``'s tick, pushed at
# 300 s, runs before ``d0``'s, pushed at 400 s, and picks ``d0``.
TICKS_TIED_OUT_OF_INDEX_ORDER = (
    [DeviceConfig("d0", schedule=Schedule(200, 50), phase=0),
     DeviceConfig("d1", schedule=Schedule(300, 50), phase=0,
                  attack=AttackProfile(tbb_strength=1.0)),
     DeviceConfig("d2", defense=DefenseMode.LEARNING)],
    2000, 2)


# A two-day population whose log holds every session kind, so each counter
# bumped beside a log entry is compared at least once.
EVERY_SESSION_KIND = (
    [DeviceConfig("d0", defense=DefenseMode.LEARNING, schedule=Schedule(360, 60)),
     DeviceConfig("d1", defense=DefenseMode.LEARNING, schedule=Schedule(360, 60),
                  attack=AttackProfile(r_strength=1.0, retry_cap=3)),
     DeviceConfig("d2", defense=DefenseMode.COMMITMENT, schedule=Schedule(900, 300),
                  attack=AttackProfile(r_strength=1.0, retry_cap=3))],
    2 * SECONDS_PER_DAY, 396)
# The same population at another seed: its one decline comes in round 2,
# the first round in which ``run`` re-checks the owner's guard.
DECLINE_IN_ROUND_TWO = (EVERY_SESSION_KIND[0], 2 * SECONDS_PER_DAY, 290)


# The headline pair, where the victim owns every group: at 960 units a
# period it dies at the instant of the attacker's 51st tick, which the
# death resolves first and makes busy.  With a battery that outlives it,
# the same pair runs to a horizon on the 51st tick, which never happens.
def headline_pair(victim, horizon):
    return ([DeviceConfig("victim", battery_capacity=victim),
             DeviceConfig("attacker", schedule=Schedule(360, 60), phase=0,
                          attack=AttackProfile(tbb_strength=1.0))],
            horizon, 0)


PAIR_DEATH_ON_A_TICK = headline_pair(50 * 960, 100 * 360)
PAIR_HORIZON_ON_A_TICK = headline_pair(DEFAULT_CAPACITY, 50 * 360)


def assert_matches_reference(scenario):
    """A logged run gives the ``to_json()`` of ``reference_sim``, and each
    learning device ends with the same records: every window bucket, and
    the instant its pair's age last started."""
    devices, horizon, seed = scenario
    sim = _Simulator(devices, horizon, seed, True)
    result = sim.run()
    reference = ReferenceSimulator(devices, horizon, seed)
    assert result.to_json() == reference.run().to_json()
    # the reference closes each group at its end, ``run`` when something
    # next touches a member: close the groups nothing touched since
    for dev in sim.devices:
        if dev.group is not None:
            sim._end_group(dev.group)
    for dev, ref in zip(sim.devices, reference.devices):
        if dev.peers is None:
            continue
        assert dev.peers.keys() == ref.profiles.keys()
        for peer_id, rec in dev.peers.items():
            days = ref.profiles[peer_id]
            # the reference keeps every day, ``run`` the window as of its last
            # roll: roll it on to the reference's last day, if that is later,
            # and compare with the reference's days in that window, as buckets
            day = max(rec.current_day, *days)
            rec.roll_to(day)
            assert rec.buckets() == [DailyBucket(d, *days[d]) for d in sorted(days)
                                     if d > day - WINDOW_DAYS], (dev.id, peer_id)
            assert rec.since == ref.pair_start[peer_id], (dev.id, peer_id)
    return result


def learner_events(devices, horizon, result, learner="d1"):
    """What the log shows the learner's guard went through with its peers.

    A session that reached negotiation (a group, an exhausted or a
    declined one) recorded negotiations, and the guard of each learning
    party said no at its tick.  So two such sessions ``WINDOW_DAYS`` days
    apart mean a bucket expired, and one after a refusal by the learner
    means its hold lapsed.  Rebuilding the pair's group seconds ``C`` and
    owner seconds ``S`` in the window, each group recorded on the day it
    ended, tells whether that no came with ``3C > 5S``: a quiet span."""
    group_end = group_ends(devices, horizon, result)
    first_day, refused, groups, events = {}, set(), {}, set()
    for t, kind, initiator, responder, owner, _rounds, _quits in result.sessions:
        if learner not in (initiator, responder):
            continue
        peer = responder if initiator == learner else initiator
        if kind in ("avoided", "rejected"):
            if learner == (initiator if kind == "avoided" else responder):
                refused.add(peer)
            continue
        day = t // SECONDS_PER_DAY
        if day - first_day.setdefault(peer, day) >= WINDOW_DAYS:
            events.add("a profile bucket expired")
        if peer in refused:
            events.add("a hold lapsed and the pair negotiated again")
        window = [(own, comm) for end, own, comm in groups.get(peer, ())
                  if end <= t and end // SECONDS_PER_DAY > day - WINDOW_DAYS]
        if 3 * sum(comm for _, comm in window) > 5 * sum(own for own, _ in window):
            events.add("a quiet span started")
        if kind == "declined" and owner == learner:
            refused.add(peer)
        elif kind == "group":
            end = group_end(t, initiator, responder)
            groups.setdefault(peer, []).append(
                (end, end - t if owner == learner else 0, end - t))
    return events


def test_pinned_populations_reach_their_sessions():
    def log(scenario):
        devices, horizon, seed = scenario
        return run(devices, horizon=horizon, seed=seed, log_sessions=True).sessions

    assert {session[1] for session in log(EVERY_SESSION_KIND)} == {
        "group", "avoided", "rejected", "declined", "exhausted"}
    assert [session[5] for session in log(DECLINE_IN_ROUND_TWO) if session[1] == "declined"] == [2]


@settings(max_examples=180, deadline=None, derandomize=True, database=None)
@given(scenarios())
@example(SAME_SECOND_DEATHS)
@example(OWNER_FIRST)
@example(DEATH_AT_GROUP_END)
@example(STORM_TO_VICTIM_DEATH)
@example(STORM_TO_ATTACKER_DEATH)
@example(STORM_TO_HORIZON)
@example(REFUSALS_OF_A_TICKING_VICTIM)
@example(REFUSALS_AMONG_THREE)
@example(EVERY_SESSION_KIND)
@example(DECLINE_IN_ROUND_TWO)
@example(TICKS_TIED_OUT_OF_INDEX_ORDER)
def test_run_matches_the_reference_simulator(scenario):
    assert_matches_reference(scenario)


# Three learners and a quitting attacker over 101 days, where the day on
# which a group's time is booked shows: a learner books it on the day the
# group ends.  Booked on the day it started, a group that spans midnight
# moves ``d2``'s window by a day, and ``d2`` avoids 1,081 initiations
# instead of 1,077.
GROUP_TIME_ON_ITS_END_DAY = (
    [DeviceConfig("d0", defense=DefenseMode.LEARNING, schedule=Schedule(21600, 21071),
                  battery_capacity=10**7),
     DeviceConfig("d1", schedule=Schedule(7200, 3427),
                  attack=AttackProfile(tbb_strength=0.6, r_strength=0.5),
                  battery_capacity=3 * 10**7),
     DeviceConfig("d2", defense=DefenseMode.LEARNING, schedule=Schedule(3600, 2606),
                  battery_capacity=10**7),
     DeviceConfig("d3", defense=DefenseMode.LEARNING, schedule=Schedule(43200, 20717))],
    101 * SECONDS_PER_DAY, 17)


# a fixed 40 runs of up to 120 days, each against the reference: about 2 s
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(long_scenarios())
@example(GROUP_TIME_ON_ITS_END_DAY)
def test_long_runs_match_the_reference_simulator(scenario):
    result = assert_matches_reference(scenario)
    for name in sorted(learner_events(scenario[0], scenario[1], result)):
        event(f"learner: {name}")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pair_scenarios())
@example(PAIR_DEATH_ON_A_TICK)
@example(PAIR_HORIZON_ON_A_TICK)
def test_pairs_that_do_not_learn_match_the_reference_simulator(scenario):
    assert_matches_reference(scenario)


# Learning pairs where a batch of the ticker's sessions meets an edge of
# the learner's standing no.  The ticker's tick at midnight, where the no
# ends with the day, ends a batch: booked with the day before, it would move
# the learner's window.  A batch ends before midnight, on the first tick
# that the slack rule leaves uncovered.  A batch's last group spans midnight,
# and is booked on the day it ends.  And the learner's first refusal is a
# decline as owner in round 2, with no refusal at a tick before it: its yes
# stands at the next tick, where no batch may start.
BATCH_TO_MIDNIGHT = (
    [DeviceConfig("d0", defense=DefenseMode.LEARNING,
                  attack=AttackProfile(r_strength=0.9, retry_cap=1)),
     DeviceConfig("d1", schedule=Schedule(3600, 3600), phase=0,
                  attack=AttackProfile(r_strength=0.5, retry_cap=2))],
    298800, 0)
BATCH_TO_UNTIL = (
    [DeviceConfig("d0", defense=DefenseMode.LEARNING,
                  attack=AttackProfile(r_strength=0.5, retry_cap=1), battery_capacity=148903),
     DeviceConfig("d1", schedule=Schedule(60, 34), phase=0, battery_capacity=793131)],
    19740, 1)
LAST_GROUP_PAST_MIDNIGHT = (
    [DeviceConfig("d0", defense=DefenseMode.LEARNING_COMMITMENT),
     DeviceConfig("d1", defense=DefenseMode.COMMITMENT, schedule=Schedule(2514, 2514), phase=0,
                  attack=AttackProfile(tbb_strength=1.0, r_strength=0.1, retry_cap=0))],
    95532, 0)
FIRST_FLAG_IN_ROUND_TWO = (
    [DeviceConfig("d0", defense=DefenseMode.LEARNING_COMMITMENT,
                  attack=AttackProfile(r_strength=0.8, retry_cap=2)),
     DeviceConfig("d1", schedule=Schedule(3600, 3514), phase=0,
                  attack=AttackProfile(tbb_strength=0.6, r_strength=1.0, retry_cap=3),
                  battery_capacity=640635)],
    392400, 51)


# Learning pairs over 40 days whose victim's slack no holds a span of
# ticks across midnights, as buckets of its window expire.  A span crosses
# two or more midnights at which a day with an owner-time share above 3/5
# expires and adds slack; one, negotiated a day a call as the victim walks
# out of groups it owns, at which a day with a share below 3/5 expires and
# takes slack away.  The last group of a day in a span ends after midnight,
# and is booked on the day it ends.  And a tick falls exactly at midnight
# inside a span, where the last group of the day before ends.
def learning_span(period, duration, phase, victim, attacker, victim_attack=None):
    return ([DeviceConfig("d0", defense=victim, attack=victim_attack),
             DeviceConfig("d1", defense=DefenseMode.COMMITMENT if victim is DefenseMode.LEARNING_COMMITMENT
                           else DefenseMode.STANDARD,
                           schedule=Schedule(period, duration), phase=phase, attack=attacker)],
            40 * SECONDS_PER_DAY, 0)


SPAN_PAST_AN_UNFAIR_DAY = learning_span(3600, 600, 3000, DefenseMode.LEARNING_COMMITMENT,
                                        AttackProfile(tbb_strength=1.0))
SPAN_PAST_A_FAIR_DAY = learning_span(3600, 1800, 900, DefenseMode.LEARNING, None,
                                     AttackProfile(r_strength=0.3, retry_cap=2))
SPAN_DAY_GROUP_PAST_MIDNIGHT = learning_span(3600, 3600, 1800, DefenseMode.LEARNING_COMMITMENT,
                                             AttackProfile(tbb_strength=1.0))
SPAN_TICK_AT_MIDNIGHT = learning_span(3600, 3600, 0, DefenseMode.LEARNING, None)


# periods of a minute to 12 hours, so that over 864 s a horizon of 3,000
# periods passes the 30-day window
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(pair_scenarios(listener=LEARNING, periods=schedules(12 * 3600, min_period=60),
                      ticks=3000, days=200))
@example(BATCH_TO_MIDNIGHT)
@example(BATCH_TO_UNTIL)
@example(LAST_GROUP_PAST_MIDNIGHT)
@example(FIRST_FLAG_IN_ROUND_TWO)
@example(SPAN_PAST_AN_UNFAIR_DAY)
@example(SPAN_PAST_A_FAIR_DAY)
@example(SPAN_DAY_GROUP_PAST_MIDNIGHT)
@example(SPAN_TICK_AT_MIDNIGHT)
def test_learning_pairs_match_the_reference_simulator(scenario):
    assert_matches_reference(scenario)


def counters(sim):
    return [{name: getattr(dev, name) for name in _COUNTS} for dev in sim.devices]


def fixed_shape(forces, committed, k):
    """An example batch whose sessions each draw the same words, by the
    initiator's and the responder's chance of forcing its bit (None: a fair
    bit); with ``k`` past one chunk it crosses a chunk boundary."""
    attack = tuple(None if force is None else AttackProfile(tbb_strength=force, r_strength=0.0)
                   for force in forces)
    defense = (DefenseMode.COMMITMENT if committed else DefenseMode.STANDARD, DefenseMode.STANDARD)
    return example(attack, defense, k, 7)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.tuples(attacks, attacks), st.tuples(st.sampled_from(PLAIN), st.sampled_from(PLAIN)),
       st.integers(1, 200) | st.integers(_BULK_SESSIONS - 2, 2 * _BULK_SESSIONS + 3),
       st.integers(0, 2**32))
@fixed_shape((None, None), False, 1)
@fixed_shape((0.0, None), False, 2 * _BULK_SESSIONS + 3)
@fixed_shape((1.0, None), False, _BULK_SESSIONS)
@fixed_shape((None, 0.0), True, _BULK_SESSIONS + 1)
@fixed_shape((0.0, 1.0), True, 2 * _BULK_SESSIONS + 3)
@fixed_shape((1.0, None), True, 200)
def test_batch_loop_draws_as_negotiate_does(attack, defense, k, seed):
    """A batch, negotiated in one loop or drawn in bulk, and ``k`` calls
    of ``_negotiate``, from the same RNG state, leave the same owners,
    counters, log and RNG state.  This pins the random stream itself; the
    digests and reference properties pin it only through its effects.  The
    responder's tally is its counters', and a bulk draw's tie bits say which
    sessions the initiator owned.  A batch without the log leaves the same
    owners, counters, tally, bits and RNG state too, as a batch drawn in
    bulk builds its log apart."""
    configs = [DeviceConfig("d0", defense=defense[0], schedule=MINUTE_SCHEDULE, attack=attack[0]),
               DeviceConfig("d1", defense=defense[1], attack=attack[1])]
    ticks = range(0, k * MINUTE_SCHEDULE.period, MINUTE_SCHEDULE.period)
    # a horizon past the last tick: each ``_negotiate`` call opens its group
    looped, called = (_Simulator(configs, ticks.stop, seed, True) for _ in range(2))
    plan = looped._batch_plan(*looped.devices)
    *groups, last, tally, bits = looped._negotiate_batch(ticks, plan)
    owners = [called._negotiate(t, *called.devices) for t in ticks]
    initiator, responder = called.devices
    assert groups == [owners.count(dev) for dev in called.devices]
    assert getattr(last, "id", None) == getattr(owners[-1], "id", None)
    assert counters(looped) == counters(called)
    assert tally == (responder.go_assignments, responder.peer_quits_observed, responder.tie_rounds)
    if plan[-1] is None:
        assert bits is None
    else:
        assert bits == bytes(owner is initiator for owner in owners)
    assert looped.sessions == called.sessions
    assert looped.rng.getstate() == called.rng.getstate()
    bare = _Simulator(configs, ticks.stop, seed, False)
    *bare_groups, bare_last, bare_tally, bare_bits = bare._negotiate_batch(
        ticks, bare._batch_plan(*bare.devices))
    assert bare_groups == groups and getattr(bare_last, "id", None) == getattr(last, "id", None)
    assert (bare_tally, bare_bits) == (tally, bits)
    assert counters(bare) == counters(looped)
    assert bare.sessions is None
    assert bare.rng.getstate() == looped.rng.getstate()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(scenarios())
@example(EVERY_SESSION_KIND)
def test_session_log_only_observes(scenario):
    devices, horizon, seed = scenario
    bare = run(devices, horizon=horizon, seed=seed)
    logged = run(devices, horizon=horizon, seed=seed, log_sessions=True)
    assert bare.sessions == ()
    assert bare.devices == logged.devices

    def without_log(result):
        payload = json.loads(result.to_json())
        del payload["sessions"]
        return payload

    assert without_log(bare) == without_log(logged)


COUNTERS = ("negotiations", "self_go_wins", "peer_premature_quits",
            "self_go_seconds", "comm_seconds")

day_steps = (st.sampled_from((0, 1, WINDOW_DAYS - 1, WINDOW_DAYS, WINDOW_DAYS + 1))
             | st.integers(0, 45))

# a negotiation record's flags: won, quit by the peer, or neither (a peer
# quits only a round this device did not win)
round_flags = st.sampled_from(((False, False), (True, False), (False, True)))

profile_steps = st.lists(st.one_of(
    st.builds(lambda day, flags: ("negotiation", day, *flags), day_steps, round_flags),
    st.tuples(st.just("group_time"), day_steps,
              st.integers(0, 3600).flatmap(lambda comm: st.tuples(st.integers(0, comm),
                                                                  st.just(comm)))),
    st.tuples(st.just("roll"), day_steps),
    st.tuples(st.just("regress"), st.integers(1, 40)),
), max_size=60)


def window(profile):
    # copies of the buckets, so a later comparison sees one changed in place
    return ([dataclasses.replace(b) for b in profile.buckets()],
            tuple(getattr(profile, name) for name in COUNTERS))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(profile_steps)
def test_peer_profile_window(steps):
    profile = PeerProfile("peer")
    for kind, *args in steps:
        before = window(profile)
        if kind == "regress":
            if args[0] > profile.current_day:
                continue
            with pytest.raises(ClockRegression):
                profile.roll_to(profile.current_day - args[0])
            with pytest.raises(ClockRegression):
                profile.record_negotiation(profile.current_day - args[0], True, False)
            assert window(profile) == before
            continue
        day = profile.current_day + args[0]
        if kind == "negotiation":
            profile.record_negotiation(day, *args[1:])
        elif kind == "group_time":
            profile.record_group_time(day, *args[1])
        else:
            profile.roll_to(day)

        buckets, totals = window(profile)
        assert profile.current_day == day
        assert all(day - WINDOW_DAYS < b.day <= day for b in buckets)
        assert totals == tuple(sum(getattr(b, name) for b in buckets) for name in COUNTERS)

        profile.roll_to(day)
        assert window(profile) == (buckets, totals)


def replay(profile, steps):
    """Feed ``profile`` the records and rolls of ``profile_steps``."""
    for kind, *args in steps:
        day = profile.current_day + args[0]
        if kind == "negotiation":
            profile.record_negotiation(day, *args[1:])
        elif kind == "group_time":
            profile.record_group_time(day, *args[1])
        elif kind == "roll":
            profile.roll_to(day)


# one day's records, as a batch makes them: a negotiation first, then
# negotiations and the time of groups between them
negotiation_records = round_flags.map(lambda flags: ("negotiation", *flags))
day_records = st.builds(lambda first, rest: [first, *rest], negotiation_records, st.lists(
    negotiation_records | st.tuples(st.just("group_time"), st.integers(0, 3600).flatmap(
        lambda comm: st.tuples(st.integers(0, comm), st.just(comm)))),
    max_size=39))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(profile_steps, day_steps, day_records)
def test_one_tally_books_a_day_of_records(history, gap, records):
    """A batch books a day's records as one tally: two calls whose counts
    are their sums.  It leaves the same window and totals as the records
    fed one by one.  (The pair's age is compared with the reference
    simulator's, by ``assert_matches_reference``.)"""
    by_record, tally = PeerProfile("peer"), PeerProfile("peer")
    replay(by_record, history)
    replay(tally, history)
    day = by_record.current_day + gap
    for kind, *args in records:
        if kind == "negotiation":
            by_record.record_negotiation(day, *args)
        else:
            by_record.record_group_time(day, *args[0])
    rounds = [args for kind, *args in records if kind == "negotiation"]
    times = [args[0] for kind, *args in records if kind == "group_time"]
    tally.record_negotiation(day, sum(won for won, _ in rounds), sum(quit for _, quit in rounds),
                             len(rounds))
    tally.record_group_time(day, sum(own for own, _ in times), sum(comm for _, comm in times))
    assert tally.current_day == by_record.current_day == day
    assert window(tally) == window(by_record)


# a learner's no after a full check holds for the ticks of ``_hold``: a
# check at the last of them sees at most ``ticks * rounds - 1`` more
# records and ``(ticks - 1) * duration`` more group seconds

GUARD_DAY = 40
GUARD_NOW = GUARD_DAY * SECONDS_PER_DAY + 12 * 3600

# a group's seconds and the period of the ticks that run one, from a
# minute's ticks to ticks two days apart, between which a midnight passes unseen
guard_schedules = st.integers(1, 3600).flatmap(
    lambda duration: st.tuples(st.just(duration), st.integers(duration, 2 * SECONDS_PER_DAY)))


def guarded(totals, more=(0, 0, 0, 0, 0)):
    """A learning victim whose record of its attacker holds the window
    ``totals`` (negotiations, won, quit, owner seconds, group seconds) and
    then ``more``, all on one day, for a pair old enough to be judged."""
    sim = _Simulator([DeviceConfig("victim", defense=DefenseMode.LEARNING),
                      DeviceConfig("attacker", schedule=MINUTE_SCHEDULE)],
                     100 * SECONDS_PER_DAY, 0, False)
    victim, attacker = sim.devices
    victim.learn_negotiation("attacker", GUARD_NOW - MIN_PAIR_AGE_SECONDS, *totals[1:3], totals[0])
    rec = victim.peers["attacker"]
    rec.record_group_time(GUARD_DAY, *totals[3:])
    n, won, quit, owned, comm = more
    if n:
        rec.record_negotiation(GUARD_DAY, won, quit, n)
    rec.record_group_time(GUARD_DAY, owned, comm)
    return sim, rec


def edge_counts(n, most):
    """The counts of ``n`` up to ``most`` whose share sits on a band's
    lower edge or just below it."""
    firsts = (-(-num * n // den) for num, den in ((1, 4), (2, 5), (3, 5), (3, 4)))
    return sorted({k for first in firsts for k in (first - 1, first) if 0 <= k <= most}) or [0]


@st.composite
def flaggable_windows(draw):
    """Window totals whose owner-time share is above 3/5, with at times the
    negotiations at a depth or z-regime edge, and the counts and owner
    seconds on a band's lower edge or just below it."""
    n = draw(st.sampled_from((9, 10, 39, 40, 99, 100)) | st.integers(1, 400))
    won = draw(st.sampled_from(edge_counts(n, n)) | st.integers(0, n))
    quit = draw(st.sampled_from(edge_counts(n, n - won)) | st.integers(0, n - won))
    comm = draw(st.integers(1, 50_000))
    above = [owned for owned in edge_counts(comm, comm) if 5 * owned > 3 * comm]
    owned = draw(st.sampled_from([3 * comm // 5 + 1, comm, *above]) | st.integers(3 * comm // 5 + 1, comm))
    return n, won, quit, owned, comm


def within(data, records, seconds):
    """Records and group seconds up to ``records`` and ``seconds``: the
    largest counts and drawn ones, each split at its extremes and at a
    drawn point into won, quit by the peer and neither, and owner seconds."""
    for n in {records, data.draw(st.integers(0, records))}:
        drawn = data.draw(st.integers(0, n))
        splits = {(n, 0), (0, n), (0, 0), (drawn, data.draw(st.integers(0, n - drawn)))}
        for comm in {seconds, data.draw(st.integers(0, seconds))}:
            for owned in {0, comm, data.draw(st.integers(0, comm))}:
                for won, quit in splits:
                    yield n, won, quit, owned, comm


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(flaggable_windows(), st.integers(1, DEFAULT_RETRY_CAP + 1), guard_schedules, st.data())
def test_records_within_the_hold_keep_the_no(totals, rounds, schedule, data):
    """With the owner-time share above 3/5, a full check's no holds up to
    the first tick whose box could say yes, or midnight, when a bucket can
    expire: any records and group seconds within the hold leave the
    guard's full check saying no, whichever cells and bounds they reach."""
    duration, period = schedule
    sim, rec = guarded(totals)
    assume(not sim._rejects(*sim.devices, GUARD_NOW))
    ticks = _hold(rec, rounds, GUARD_NOW, period, duration)
    midnight = (GUARD_DAY + 1) * SECONDS_PER_DAY
    event("no tick held" if not ticks else
          "held to midnight" if GUARD_NOW + ticks * period >= midnight else "held for a box")
    assert GUARD_NOW + (ticks - 1) * period < midnight
    # one tick more comes at midnight, or its box could say yes
    assert (GUARD_NOW + ticks * period >= midnight
            or _may_flag(rec, (ticks + 1) * rounds - 1, ticks * duration))
    if ticks:
        for more in within(data, ticks * rounds - 1, (ticks - 1) * duration):
            sim, rec = guarded(totals, more)
            assert not sim._rejects(*sim.devices, GUARD_NOW), more


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((9, 33, 36, 39, 40, 93, 96, 99, 100)) | st.integers(1, 150),
       st.integers(0, 8), st.integers(1, 12), st.integers(0, 8), st.data())
def test_the_box_corner_gives_the_highest_bound(n, x, comm, y, data):
    """At every point a window of ``n`` negotiations, ``owned`` of ``comm``
    group seconds as owner, can reach with ``x`` more negotiations and
    ``y`` more group seconds, the confidence bound of a share of 1/2 or
    more is at most ``_top_bound`` at the greatest share."""
    owned = data.draw(st.integers(0, comm))
    highest = _top_bound(n, n + x, (owned + y) / (comm + y))
    for more in range(y + 1):
        for owns in range(more + 1):
            pf = (owned + owns) / (comm + more)
            if pf >= 0.5:
                for m in range(n, n + x + 1):
                    assert _bound(pf, m) <= highest, (pf, m)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.floats(0.5, 1.0, exclude_max=True), st.integers(1, 10**6))
def test_the_bound_rises_with_the_share_by_every_float(pf, n):
    # the float form of the argument in ``_top_bound``: one ulp more share
    # never lowers the bound, nor does one negotiation more within a regime
    assert _bound(pf, n) <= _bound(math.nextafter(pf, 1.0), n)
    if n + 1 not in (SPARSE_WINDOW_NEGOTIATIONS, AMPLE_NEGOTIATIONS):
        assert _bound(pf, n) <= _bound(pf, n + 1)


def windowed(buckets):
    """A learning victim whose record of its attacker holds ``buckets``,
    each ``(day, negotiations, won, quit, owner seconds, group seconds)``,
    in day order; its pair's age starts at the first."""
    sim = _Simulator([DeviceConfig("victim", defense=DefenseMode.LEARNING),
                      DeviceConfig("attacker", schedule=MINUTE_SCHEDULE)],
                     100 * SECONDS_PER_DAY, 0, False)
    victim = sim.devices[0]
    for day, n, won, quit, owned, comm in buckets:
        victim.learn_negotiation("attacker", day * SECONDS_PER_DAY, won, quit, n)
        victim.peers["attacker"].record_group_time(day, owned, comm)
    return sim, victim.peers["attacker"]


@st.composite
def day_windows(draw):
    """The buckets of a window, old enough to be judged, whose owner-time
    share is at most 3/5 on ``GUARD_DAY``: on up to 29 earlier days, each
    with a share above 3/5 or at most 3/5, so that expiring ones add slack
    or take it away, and on ``GUARD_DAY`` itself one with the client time
    that brings the share to at most 3/5 and drawn slack beyond.  That one
    is left out at times where the others keep the share at most 3/5."""
    buckets = []
    for day in sorted(draw(st.sets(st.integers(GUARD_DAY - WINDOW_DAYS + 1, GUARD_DAY - 1),
                                   max_size=WINDOW_DAYS - 1))):
        comm = draw(st.integers(1, 20_000))
        owned = draw(st.integers(0, 3 * comm // 5) | st.integers(3 * comm // 5 + 1, comm))
        n = draw(st.integers(1, 100))
        won = draw(st.integers(0, n))
        buckets.append((day, n, won, draw(st.integers(0, n - won)), owned, comm))
    slack = sum(3 * comm - 5 * owned for *_, owned, comm in buckets)
    if slack < 0 or not buckets or draw(st.booleans()):
        need = max(0, -slack) + draw(st.integers(0, 100_000) | st.integers(0, 10**7))
        comm = -(-need // 3)
        buckets.append((GUARD_DAY, draw(st.integers(1, 100)), 0, 0,
                        draw(st.integers(0, (3 * comm - need) // 5)), comm))
    return buckets


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(day_windows(), st.integers(1, DEFAULT_RETRY_CAP + 1), guard_schedules, st.data())
def test_seconds_within_the_slack_budget_keep_the_no(buckets, rounds, schedule, data):
    """While the owner-time share is at most 3/5, the guard's full check
    says no.  Across midnights, as buckets expire, any records and group
    seconds within the slack budget keep the share there up to the last
    tick before the reading day's bucket can expire, and one tick more can
    take it past.  A tick ``i`` adds at most ``i * duration`` seconds:
    client time on the reading day, which expires last, and owned time on
    its own day; the last tick before each expiry and the last of the span
    see the most under their slack."""
    duration, period = schedule
    sim, rec = windowed(buckets)
    assert not sim._rejects(*sim.devices, GUARD_NOW)
    ticks = _hold(rec, rounds, GUARD_NOW, period, duration)

    def day_of(i):
        return (GUARD_NOW + i * period) // SECONDS_PER_DAY

    assert ticks >= 1 and day_of(ticks - 1) < GUARD_DAY + WINDOW_DAYS
    if day_of(ticks) < GUARD_DAY + WINDOW_DAYS:
        _, rec = windowed(buckets)
        rec.record_group_time(day_of(ticks), ticks * duration, ticks * duration)
        assert 5 * rec.self_go_seconds > 3 * rec.comm_seconds
    expiries = {-((GUARD_NOW - (day + WINDOW_DAYS) * SECONDS_PER_DAY) // period) for day, *_ in buckets}
    for i in sorted({ticks - 1} | {e - 1 for e in expiries if 0 < e <= ticks}):
        n = data.draw(st.integers(0, 200))
        won = data.draw(st.integers(0, n))
        quit = data.draw(st.integers(0, n - won))
        for comm in {i * duration, data.draw(st.integers(0, i * duration))}:
            for owned in {0, comm, data.draw(st.integers(0, comm))}:
                sim, rec = windowed(buckets)
                rec.record_group_time(GUARD_DAY, 0, comm - owned)
                if n:
                    rec.record_negotiation(day_of(i), won, quit, n)
                rec.record_group_time(day_of(i), owned, owned)
                assert not sim._rejects(*sim.devices, GUARD_NOW + i * period), (i, n, owned, comm)
                assert 5 * rec.self_go_seconds <= 3 * rec.comm_seconds, (i, n, owned, comm)


# codecs: generated valid frames round-trip; any bytes decode and re-encode
# to themselves, or raise a ValueError subclass

vendor_ies = st.builds(
    VendorIe, st.integers(0, 0xFF), st.binary(min_size=3, max_size=3), st.integers(0, 0xFF),
    st.binary(max_size=VENDOR_IE_MAX_PAYLOAD))
attribute_lists = st.lists(
    st.builds(P2pAttribute, st.integers(0, 0xFF), st.binary(max_size=300)), max_size=5)
openings = st.builds(
    Opening, st.binary(min_size=NONCE_LEN, max_size=NONCE_LEN), st.integers(0, 15),
    st.integers(0, 1))


@st.composite
def damaged(draw, frames):
    """A valid encoding, then cut, extended or with one byte changed."""
    data = bytearray(draw(frames))
    how = draw(st.sampled_from(("cut", "extend", "poke")))
    if how == "cut":
        del data[draw(st.integers(0, len(data))):]
    elif how == "extend":
        data += draw(st.binary(min_size=1, max_size=8))
    elif data:
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 0xFF))
    return bytes(data)


CODECS = {
    "vendor_ie": (vendor_ies.map(VendorIe.encode), decode_vendor_ie, VendorIe.encode),
    "p2p_attributes": (attribute_lists.map(encode_p2p_attributes), parse_p2p_attributes,
                       encode_p2p_attributes),
    "opening": (openings.map(Opening.encode), decode_opening, Opening.encode),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(vendor_ies, attribute_lists, openings)
def test_valid_frames_round_trip(ie, attrs, opening):
    assert decode_vendor_ie(ie.encode()) == ie
    assert parse_p2p_attributes(encode_p2p_attributes(attrs)) == attrs
    assert decode_opening(opening.encode()) == opening


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_any_bytes_decode_exactly_or_raise_value_error(codec):
    frames, decode, encode = CODECS[codec]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.binary(max_size=80) | damaged(frames))
    def check(data):
        try:
            decoded = decode(data)
        except ValueError:
            return
        assert encode(decoded) == data

    check()
