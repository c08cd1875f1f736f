"""Simulator and peer-profile invariants on generated inputs (Hypothesis).

Each example is a population of two to six devices with every defense and
attack mix, schedules that include back-to-back groups
(``group_duration == period``), batteries from a single unit up, and
energy models that include zero rates.  Short examples run to a horizon
of minutes with tiny batteries; long ones run past the learning guard's
ten-hour pair age.  For every run:

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
  by construction; this comparison is the independent check of its books.

Peer profiles take generated sequences of negotiation records, group-time
records and clock rolls.  After each step the running totals equal the sum
of the retained buckets, ``version`` has risen exactly when the window
changed, a roll to the current day changes nothing and a roll back in time
raises ``ClockRegression``.

The codecs take generated vendor IEs, attribute lists and commitment
openings, which decode back to themselves, and arbitrary or damaged bytes,
which either decode and re-encode to the same bytes or raise a
``ValueError`` subclass.  The classifier's posterior sums to one and does
not change when the prior is scaled, and a table with one entry moved
off its row's sum is refused.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from wfdsim.commitment import NONCE_LEN, Opening, decode_opening  # noqa: E402
from wfdsim.learning import (  # noqa: E402
    DEFAULT_CPT,
    SECONDS_PER_DAY,
    WINDOW_DAYS,
    Band,
    ClockRegression,
    Cpt,
    Disposition,
    FeatureVector,
    HistoryDepth,
    InvalidConfig,
    PeerProfile,
    posterior,
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
    DEFAULT_ENERGY,
    DefenseMode,
    DeviceConfig,
    EnergyModel,
    Schedule,
    energy_conserved,
    run,
)

from reference_sim import reference_run  # noqa: E402

ENERGY_MODELS = (DEFAULT_ENERGY, EnergyModel(0, 0, 0), EnergyModel(0, 1, 4), EnergyModel(2, 0, 3))

attacks = st.none() | st.builds(
    AttackProfile,
    tbb_strength=st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0),
    r_strength=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
    retry_cap=st.integers(0, 3),
)


def schedules(max_period):
    return st.integers(1, max_period).flatmap(
        lambda period: st.builds(Schedule, st.just(period),
                                 st.just(period) | st.integers(1, period)))


@st.composite
def scenarios(draw):
    """(devices, horizon, seed, energy model) for one run."""
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
    return devices, horizon, draw(st.integers(0, 2**32)), draw(st.sampled_from(ENERGY_MODELS))


def death_second(stats):
    """The event second at which a depleted device left service."""
    return math.floor(stats.depletion_day * SECONDS_PER_DAY + 1e-6)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(scenarios())
def test_simulator_invariants(scenario):
    devices, horizon, seed, energy = scenario
    result = run(devices, horizon=horizon, seed=seed, energy=energy, log_sessions=True)
    by_id = {stats.device_id: stats for stats in result.devices}
    duration = {cfg.device_id: cfg.schedule.group_duration
                for cfg in devices if cfg.schedule is not None}

    def leaves(device_id):
        stats = by_id[device_id]
        return horizon if stats.depletion_day is None else death_second(stats)

    for stats in result.devices:
        assert energy_conserved(stats, energy), stats
        lived = stats.idle_seconds + stats.client_seconds + stats.go_seconds
        assert lived == leaves(stats.device_id), stats

    times = [session[0] for session in result.sessions]
    assert times == sorted(times)

    owner_seconds = dict.fromkeys(by_id, 0)
    client_seconds = dict.fromkeys(by_id, 0)
    spans = {device_id: [] for device_id in by_id}
    for t, kind, initiator, responder, owner, _rounds, _quits in result.sessions:
        if kind != "group":
            continue
        member = responder if owner == initiator else initiator
        end = min(t + duration[initiator], leaves(owner), leaves(member))
        owner_seconds[owner] += end - t
        client_seconds[member] += end - t
        spans[owner].append((t, end))
        spans[member].append((t, end))
    for device_id, stats in by_id.items():
        assert stats.go_seconds == owner_seconds[device_id]
        assert stats.client_seconds == client_seconds[device_id]
        ordered = sorted(spans[device_id])
        assert all(end <= start for (_, end), (start, _) in zip(ordered, ordered[1:]))


def refusal_storm(horizon, energy=DEFAULT_ENERGY, victim=DEFAULT_CAPACITY,
                  attacker=DEFAULT_CAPACITY, victim_schedule=None, others=()):
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
            horizon, 0, energy)


# Refusal runs that end exactly on a tick instant, where the tick must
# not count as refused: the victim's idle death at 86,400 s (the attacker
# then ticks alone and busy), the attacker's own death at 72,000 s, a
# horizon of 72,000 s, and the victim's death at 86,400 s at an idle rate
# of 2.
STORM_TO_VICTIM_DEATH = refusal_storm(2 * SECONDS_PER_DAY, victim=146400)
STORM_TO_ATTACKER_DEATH = refusal_storm(2 * SECONDS_PER_DAY, attacker=78000)
STORM_TO_HORIZON = refusal_storm(72000)
STORM_AT_IDLE_RATE_2 = refusal_storm(2 * SECONDS_PER_DAY, EnergyModel(2, 1, 3), victim=190800)
# Refusals that are not a storm: the victim ticks too, avoiding the
# attacker on its own ticks, or a third device draws the attacker's peer.
REFUSALS_OF_A_TICKING_VICTIM = refusal_storm(SECONDS_PER_DAY, victim_schedule=Schedule(360, 60))
REFUSALS_AMONG_THREE = refusal_storm(SECONDS_PER_DAY, others=[DeviceConfig("bystander")])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(scenarios())
@example(STORM_TO_VICTIM_DEATH)
@example(STORM_TO_ATTACKER_DEATH)
@example(STORM_TO_HORIZON)
@example(STORM_AT_IDLE_RATE_2)
def test_tick_ledger(scenario):
    devices, horizon, seed, energy = scenario
    result = run(devices, horizon=horizon, seed=seed, energy=energy, log_sessions=True)
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


# Two deaths that generated populations almost never line up.  Both
# members of a group run out in second 10 of it: the owner's death was
# scheduled first, so it resolves first, ends the group, and the client
# lives one more second at the idle rate.  And an owner whose battery
# lasts exactly to its group's end dies there at the idle rate of 2, with
# one unit left.
SAME_SECOND_DEATHS = (
    [DeviceConfig("client", schedule=Schedule(100, 100), phase=0,
                  attack=AttackProfile(tbb_strength=1.0), battery_capacity=21),
     DeviceConfig("owner", battery_capacity=115)],
    200, 9, DEFAULT_ENERGY)
DEATH_AT_GROUP_END = (
    [DeviceConfig("owner", battery_capacity=301),
     DeviceConfig("client", schedule=Schedule(360, 60), phase=0,
                  attack=AttackProfile(tbb_strength=1.0))],
    300, 0, EnergyModel(2, 1, 3))


@settings(max_examples=180, deadline=None, derandomize=True, database=None)
@given(scenarios())
@example(SAME_SECOND_DEATHS)
@example(DEATH_AT_GROUP_END)
@example(STORM_TO_VICTIM_DEATH)
@example(STORM_TO_ATTACKER_DEATH)
@example(STORM_TO_HORIZON)
@example(STORM_AT_IDLE_RATE_2)
@example(REFUSALS_OF_A_TICKING_VICTIM)
@example(REFUSALS_AMONG_THREE)
def test_run_matches_the_reference_simulator(scenario):
    devices, horizon, seed, energy = scenario
    result = run(devices, horizon=horizon, seed=seed, energy=energy, log_sessions=True)
    assert result.to_json() == reference_run(devices, horizon, seed, energy).to_json()


# A two-day population whose log holds every session kind, so each counter
# bumped beside a log entry is compared at least once.
EVERY_SESSION_KIND = (
    [DeviceConfig("d0", defense=DefenseMode.LEARNING, schedule=Schedule(360, 60)),
     DeviceConfig("d1", defense=DefenseMode.LEARNING, schedule=Schedule(360, 60),
                  attack=AttackProfile(r_strength=1.0, retry_cap=3)),
     DeviceConfig("d2", defense=DefenseMode.COMMITMENT, schedule=Schedule(900, 300),
                  attack=AttackProfile(r_strength=1.0, retry_cap=3))],
    2 * SECONDS_PER_DAY, 396, DEFAULT_ENERGY)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(scenarios())
@example(EVERY_SESSION_KIND)
def test_session_log_only_observes(scenario):
    devices, horizon, seed, energy = scenario
    bare = run(devices, horizon=horizon, seed=seed, energy=energy)
    logged = run(devices, horizon=horizon, seed=seed, energy=energy, log_sessions=True)
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

profile_steps = st.lists(st.one_of(
    st.tuples(st.just("negotiation"), day_steps, st.booleans(), st.booleans()),
    st.tuples(st.just("group_time"), day_steps,
              st.integers(0, 3600).flatmap(lambda comm: st.tuples(st.integers(0, comm),
                                                                  st.just(comm)))),
    st.tuples(st.just("roll"), day_steps),
    st.tuples(st.just("regress"), st.integers(1, 40)),
), max_size=60)


def window(profile):
    return profile.buckets(), tuple(getattr(profile, name) for name in COUNTERS)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(profile_steps)
def test_peer_profile_window(steps):
    profile = PeerProfile("peer")
    for kind, *args in steps:
        before, version = window(profile), profile.version
        if kind == "regress":
            if args[0] > profile.current_day:
                continue
            with pytest.raises(ClockRegression):
                profile.roll_to(profile.current_day - args[0])
            with pytest.raises(ClockRegression):
                profile.record_negotiation(profile.current_day - args[0], True, False)
            assert (window(profile), profile.version) == (before, version)
            continue
        day = profile.current_day + args[0]
        if kind == "negotiation":
            profile.record_negotiation(day, *args[1:])
            assert profile.version > version
        elif kind == "group_time":
            profile.record_group_time(day, *args[1])
            assert profile.version > version
        else:
            profile.roll_to(day)
            # only an expiry changes the window, and every expiry moves the version
            expired = window(profile) != before
            assert profile.version > version if expired else profile.version == version

        buckets, totals = window(profile)
        assert profile.current_day == day
        assert all(day - WINDOW_DAYS < b.day <= day for b in buckets)
        assert totals == tuple(sum(getattr(b, name) for b in buckets) for name in COUNTERS)

        version = profile.version
        profile.roll_to(day)
        assert (window(profile), profile.version) == ((buckets, totals), version)


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


# classifier: the posterior is a distribution that ignores the prior's
# scale, and a table whose one entry moves off its row's sum is refused

feature_vectors = st.builds(FeatureVector, st.sampled_from(Band), st.sampled_from(Band),
                            st.sampled_from(Band), st.sampled_from(HistoryDepth))
# Prior weights run down to the smallest subnormal, 5e-324: ``posterior``
# normalises the prior before the likelihood product, so tiny weights
# neither underflow nor lose precision.
priors = st.tuples(*[st.just(0.0) | st.floats(5e-324, 1e6)] * len(Disposition)).filter(any)
rows = st.lists(st.floats(0.01, 1.0), min_size=len(Band), max_size=len(Band)).map(
    lambda weights: tuple(w / sum(weights) for w in weights))
cpts = st.lists(rows, min_size=len(Disposition) * len(HistoryDepth),
                max_size=len(Disposition) * len(HistoryDepth)).map(
    lambda flat: Cpt(tuple(tuple(flat[i:i + len(Disposition)])
                           for i in range(0, len(flat), len(Disposition)))))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(feature_vectors, st.just(DEFAULT_CPT) | cpts, priors, st.integers(0, 60))
def test_posterior_is_a_scale_free_distribution(fv, cpt, prior, doublings):
    post = posterior(fv, cpt, prior)
    assert math.fsum(post) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= 0.0 for p in post)
    # scaling by a power of two keeps every ratio exact, subnormal weights
    # included; read the other way round it scales the prior down
    scaled = tuple(p * 2.0 ** doublings for p in prior)
    assert posterior(fv, cpt, scaled) == pytest.approx(post, rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cpts, st.sampled_from(HistoryDepth), st.sampled_from(Disposition), st.sampled_from(Band),
       st.floats(1e-6, 0.5) | st.floats(-0.5, -1e-6))
def test_cpt_refuses_a_row_moved_off_its_sum(cpt, depth, disposition, band, delta):
    tables = [[list(row) for row in table] for table in cpt.tables]
    tables[depth][disposition][band] += delta
    with pytest.raises(InvalidConfig, match=f"{depth.name}/{disposition.name}: "):
        Cpt(tuple(tuple(map(tuple, table)) for table in tables))
