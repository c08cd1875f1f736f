"""Golden digests: fixed seeds keep producing the same bytes.

The determinism tests elsewhere only check that a run matches itself, so
a change that moved every result the same way would pass them.  These
pins catch it: SHA-256 of ``SimResult.to_json()`` for short runs that
cover each defense mode, a quit-and-retry attacker, a ten-device hour
population, a battery that dies mid-group, back-to-back owner groups, two
deaths in the same second (twice: once where only the rule that a group's
owner resolves before its client decides their order), a learning victim
that refuses every tick of the attacker it flagged until it depletes, and
the ticks of a last live device (alone with no peer to reach, or still
avoiding a dead one it flagged), a pair that does not learn ticking up to
a horizon that falls on a tick (standard and commitment), plus the ``emit_csv`` bytes of every
preset at two seeds.
Those preset horizons are short, so their victims outlive them and the
pins cover the sweep plumbing and the CSV format (presets of the same
shape share a pin).  A second set of preset pins runs each preset at its
own 400-day horizon on a slice small enough to be quick, where every
victim depletes, so the pins also tell the presets' populations,
schedules and attacks apart.  Those slices field no learning victim in a
pair, so a third set pins the full ``to_json()`` of five 400-day pair
cells whose victim learns, one run each at seed 0.  A fourth pins the
logged ``to_json()`` of the 400-day ten-device cells at half attackers
(S and L, seed 0), where every tick draws a peer and no batch applies:
the depletion CSV shows only the victim, these every device's counters
and every session.
The run pins cover behaviour.  A change meant to alter results updates
the pins in the same commit and says why in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from wfdsim.cli import PRESET_NAMES, build_devices, emit_csv, preset, run_experiment
from wfdsim.learning import SECONDS_PER_DAY
from wfdsim.simulation import (
    AttackProfile,
    DefenseMode,
    DeviceConfig,
    HOUR_SCHEDULE,
    MINUTE_SCHEDULE,
    Schedule,
    run,
)

S, L = DefenseMode.STANDARD, DefenseMode.LEARNING
C, LC = DefenseMode.COMMITMENT, DefenseMode.LEARNING_COMMITMENT


def pair(defense, **attack):
    return [DeviceConfig("victim", defense=defense),
            DeviceConfig("attacker", schedule=MINUTE_SCHEDULE,
                         attack=AttackProfile(**attack))]


def crowd():
    hostile = AttackProfile(tbb_strength=1.0, r_strength=0.3)
    return ([DeviceConfig("victim", defense=L, schedule=HOUR_SCHEDULE)]
            + [DeviceConfig(f"attacker{i}", schedule=HOUR_SCHEDULE, attack=hostile)
               for i in range(3)]
            + [DeviceConfig(f"peer{i}", defense=L, schedule=HOUR_SCHEDULE)
               for i in range(6)])


DAY = SECONDS_PER_DAY

# Both batteries run out in second 10 of an owner/client group.  The
# owner resolves first: it ends the group, the client drops to idle rate
# and lives one more second.  Had the client's death resolved first, the
# client would read 10.5 s.
SAME_SECOND_DEATHS = [
    DeviceConfig("client", schedule=Schedule(100, 100), phase=0,
                 attack=AttackProfile(tbb_strength=1.0), battery_capacity=21),
    DeviceConfig("owner", battery_capacity=115),
]
# The same tie with a bystander that dies at 5 s, mid-group.  The loop
# then looks for the earliest death again and finds the client, listed
# first, so only the rule that the owner resolves first decides the
# order.  The owner still reads 10 + 5/11 s; had the client resolved
# first, it would read 10.5 s, and the owner, dropped to idle rate with 5
# units left, 15.0 s.
OWNER_FIRST = [*SAME_SECOND_DEATHS, DeviceConfig("bystander", battery_capacity=5)]

# The last device alive keeps ticking.  Without learning every tick only
# counts as busy: the attacker outlives its victim by days, and the
# commitment device, one of four, draws a peer on every tick.  With
# learning it keeps avoiding the attacker it flagged after both others die.
LONE_ATTACKER = [
    DeviceConfig("victim", battery_capacity=DAY // 2),
    DeviceConfig("attacker", schedule=MINUTE_SCHEDULE, attack=AttackProfile(tbb_strength=1.0),
                 battery_capacity=3 * DAY),
]
LAST_OF_FOUR = [
    DeviceConfig("a", schedule=Schedule(600, 300), battery_capacity=DAY // 2),
    DeviceConfig("b", schedule=Schedule(900, 120), battery_capacity=DAY // 3),
    DeviceConfig("c", attack=AttackProfile(r_strength=0.5), battery_capacity=DAY // 4),
    DeviceConfig("d", defense=C, schedule=MINUTE_SCHEDULE),
]
# The learning victim of the headline pair flags its attacker on day 0.42
# and refuses every later tick of it; with a three-day battery it depletes
# mid-refusals, between two ticks, and the attacker ticks on alone.
LEARNING_STORM = [
    DeviceConfig("victim", defense=L, battery_capacity=3 * DAY),
    DeviceConfig("attacker", schedule=MINUTE_SCHEDULE, attack=AttackProfile(tbb_strength=1.0)),
]
LEARNING_SURVIVOR = [
    DeviceConfig("victim", defense=L, schedule=MINUTE_SCHEDULE),
    DeviceConfig("attacker", schedule=MINUTE_SCHEDULE, attack=AttackProfile(tbb_strength=1.0),
                 battery_capacity=2 * DAY),
    DeviceConfig("bystander", battery_capacity=DAY),
]


# A pair that does not learn ticks from 0 s to a horizon of 2,000
# periods, with batteries that outlive it: the 2,000th session is the
# last, and no tick falls on the horizon itself.
def pair_to_horizon(defense):
    return [DeviceConfig("victim", defense=defense, battery_capacity=10**9),
            DeviceConfig("attacker", schedule=MINUTE_SCHEDULE, phase=0,
                         attack=AttackProfile(tbb_strength=1.0), battery_capacity=10**9)]


PAIR_HORIZON = 2000 * MINUTE_SCHEDULE.period

# name -> (devices, horizon in seconds, seed)
RUNS = {
    "standard": (pair(S, tbb_strength=0.8, r_strength=0.2), 3 * DAY, 1),
    "learning": (pair(L, tbb_strength=0.8, r_strength=0.2), 3 * DAY, 2),
    "commitment": (pair(C, tbb_strength=0.8, r_strength=0.2), 3 * DAY, 3),
    "learning_commitment": (pair(LC, tbb_strength=0.8, r_strength=0.2), 3 * DAY, 4),
    "quit_and_retry": (pair(S, r_strength=1.0, retry_cap=2), 3 * DAY, 5),
    "hour_crowd": (crowd(), 40 * DAY, 6),
    # dies five seconds into an owner role, mid-group
    "tiny_battery": ([DeviceConfig("frail", schedule=MINUTE_SCHEDULE, phase=0,
                                   battery_capacity=3600),
                      DeviceConfig("peer", schedule=MINUTE_SCHEDULE, phase=180)], DAY, 7),
    # owner from the first second to death at 365/11 days
    "back_to_back_owner": ([DeviceConfig("victim"),
                            DeviceConfig("attacker", schedule=Schedule(360, 360), phase=0,
                                         attack=AttackProfile(tbb_strength=1.0))], 34 * DAY, 8),
    "same_second_deaths": (SAME_SECOND_DEATHS, 200, 9),
    "owner_first_on_a_tie": (OWNER_FIRST, 200, 1),
    "lone_attacker": (LONE_ATTACKER, 5 * DAY, 10),
    "last_of_four": (LAST_OF_FOUR, 3 * DAY, 11),
    "learning_survivor": (LEARNING_SURVIVOR, 6 * DAY, 12),
    "learning_storm": (LEARNING_STORM, 4 * DAY, 13),
    "standard_to_horizon": (pair_to_horizon(S), PAIR_HORIZON, 15),
    "commitment_to_horizon": (pair_to_horizon(C), PAIR_HORIZON, 16),
}

RUN_DIGESTS = {
    "standard": "9cab31dd24edb6d82b0af7f34cc07fa4b9068d1ba6bb9f71f710d61f1ddfe911",
    "learning": "631a00f7cd7929a2df2997866a6151fdd90f72764c60fe5e6037028367eda9de",
    "commitment": "1685673aaa0b1d82376591eb6b648d075e3fd07ab0f1ce27f50ac3a1ce46fe84",
    "learning_commitment": "b9627aa49c37fd36a1e8744331ad9ca54ec82d70f4472790c14acdc4fbe20fff",
    "quit_and_retry": "e34a4f49db8412f0eec232f4f72cd5473c8a249aeb4a7b4acd49ea9dea4f6bba",
    "hour_crowd": "b760aeb994a00c571060f52304a916d984d639344b64f73f3cd4e046beea3259",
    "tiny_battery": "8c373489d22b370267509f0481a0100f7ff7a6c94308a1773eb242646aee9d79",
    "back_to_back_owner": "cca04ddc95be0c1e4aee5bce7f8620076eecb3923983ca7706bd77a664838f57",
    "same_second_deaths": "640b1f5574aaaad36dc6b97241d6531ef210cc8dd4484795c10c396c1fd2524b",
    "owner_first_on_a_tie": "33a38107b99d7df3d923bd628c252cbd0db9346918ca1dc3ccc6414d3ce9b20b",
    "lone_attacker": "be62274d6f8c188c2ab2bed324f5a83dd9f676e4609a0e4759af503b175d2f3d",
    "last_of_four": "6be1437e33a55c0e1e4d787e30d2c24d77e5d4ce44644edcfdcc3b16f7b43822",
    "learning_survivor": "93e350e5d78c55ab0051cd97d07296e247d4ed2986b123e804be21a40b3cee97",
    "learning_storm": "0b2b5cbc955868af9a48bf1bb2a08861388849bb6017a4d8881571d91b0bbf71",
    "standard_to_horizon": "d80cda76626f9763b8e22e1aa74b1165559077929833dc3a1057eeb92de20164",
    "commitment_to_horizon": "39018465ee7e330b432d14566dc99ef83f534678bb7b126a7371c6cb175c4f3e",
}

PRESET_HORIZON_DAYS = 2

CSV_DIGESTS = {
    "var_tbb_strength": "564834926ef961ff2f649c27279477436ceedba0595abcf65820bb20c8008956",
    "var_r_strength": "564834926ef961ff2f649c27279477436ceedba0595abcf65820bb20c8008956",
    "attacker_ratio_5": "4e4ccb460928f20626e22da0b5b210bcca1e939a7a689dcb0ed64fdad2d1c2fb",
    "attacker_ratio_10": "4e4ccb460928f20626e22da0b5b210bcca1e939a7a689dcb0ed64fdad2d1c2fb",
}


# preset -> overrides that keep its 400-day horizon but shrink the sweep
DEPLETION_SLICES = {
    "var_tbb_strength": dict(grid=(0.5,), modes=(S, C), seeds=1),
    "var_r_strength": dict(grid=(0.0, 1.0), modes=(S,), seeds=1),
    "attacker_ratio_5": dict(seeds=2),
    "attacker_ratio_10": dict(seeds=2),
}

# (preset, grid value, mode) -> digest of the cell's run at seed 0: L and
# LC where the victim owns most groups (0.2) and where it owns all it can
# (1.0), and LC under an attacker that quits as owner (0.2)
LEARNING_PAIR_DIGESTS = {
    ("var_tbb_strength", 0.2, "L"): "62718067e12d073e54d973f2cd05ccb2139fc0d408206fcf02133d48ad3825ff",
    ("var_tbb_strength", 0.2, "LC"): "4704a05e60a934cbdab15f63da4b5d7c3bb2e3a42a4d24fd1266ddef9975d537",
    ("var_tbb_strength", 1.0, "L"): "20b052c1c7e9dc6acaa03f8de8463b94bac8c3da6d97ea747813f65fde5ce487",
    ("var_tbb_strength", 1.0, "LC"): "bc9829ee2e3b6763ee3211abbcdb8bba54aa1b7459903f34bbaed2d6d7238678",
    ("var_r_strength", 0.2, "LC"): "691f5604d014692adad08f2e6fbeab39cbd9d47776e66d23c224a1f662b5794a",
}

# (preset, grid value, mode) -> digest of the cell's logged run at seed 0
CROWD_CELL_DIGESTS = {
    ("attacker_ratio_10", 0.5, "S"): "67bb65dc2c25bb7cb1db5f96769911c08411b95bcda380f24dce6a7e0863508a",
    ("attacker_ratio_10", 0.5, "L"): "332a7a27fb1051980d474b22183b722cb182d9626d80feb2b6431b1bd68ebeda",
}

DEPLETION_DIGESTS = {
    "var_tbb_strength": "27d3b965ee4aee4b60035c9daa6bbe8756769b1bfaf995870d26c8f4a5050bd4",
    "var_r_strength": "6c15df89242864dc3a0db99e08384cf21046b9f8def8912d4a9e8868053771c9",
    "attacker_ratio_5": "401bbd10feaf07960f0223734b6af30f0771ef5251547bb52a63154576bbba9a",
    "attacker_ratio_10": "5b84a004665c5998596daf36a0ce9dd2683a1ede2109df881cedf91df85d0b77",
}


def run_digest(name: str) -> str:
    devices, horizon, seed = RUNS[name]
    result = run(devices, horizon, seed, log_sessions=True)
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def cell_digest(name: str, value: float, mode: str, log_sessions: bool) -> str:
    cfg = preset(name)
    result = run(build_devices(cfg, DefenseMode(mode), value), cfg.horizon_days * DAY, 0,
                 log_sessions=log_sessions)
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def csv_digest(name: str) -> str:
    cfg = dataclasses.replace(preset(name), seeds=2, horizon_days=PRESET_HORIZON_DAYS)
    return hashlib.sha256(emit_csv(run_experiment(cfg))).hexdigest()


def test_every_case_is_pinned():
    assert RUN_DIGESTS.keys() == RUNS.keys()
    assert CSV_DIGESTS.keys() == set(PRESET_NAMES)
    assert DEPLETION_SLICES.keys() == DEPLETION_DIGESTS.keys() == set(PRESET_NAMES)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_json_digest(name):
    assert run_digest(name) == RUN_DIGESTS[name]


def test_same_second_deaths_resolve_in_scheduling_order():
    result = run(SAME_SECOND_DEATHS, horizon=200, seed=9, log_sessions=True)
    client, owner = result.device("client"), result.device("owner")
    assert owner.depletion_day * DAY == pytest.approx(10 + 5 / 11)
    assert (owner.go_seconds, owner.remaining) == (10, 5)
    assert client.depletion_day * DAY == pytest.approx(11.0)
    assert (client.client_seconds, client.idle_seconds, client.remaining) == (10, 1, 0)


def test_owner_resolves_first_when_the_client_is_found_first():
    result = run(OWNER_FIRST, 200, 1, log_sessions=True)
    client, owner = result.device("client"), result.device("owner")
    assert result.device("bystander").depletion_day * DAY == pytest.approx(5.0)
    assert owner.depletion_day * DAY == pytest.approx(10 + 5 / 11)
    assert (owner.go_seconds, owner.idle_seconds, owner.remaining) == (10, 0, 5)
    assert client.depletion_day * DAY == pytest.approx(11.0)
    assert (client.client_seconds, client.idle_seconds, client.remaining) == (10, 1, 0)


@pytest.mark.parametrize("defense", (S, C))
def test_pair_sessions_stop_a_tick_short_of_a_horizon_on_a_tick(defense):
    result = run(pair_to_horizon(defense), PAIR_HORIZON, 15, log_sessions=True)
    assert [session[0] for session in result.sessions] == list(range(0, PAIR_HORIZON, 360))
    assert all(stats.depletion_day is None for stats in result.devices)


def test_survivors_outlive_their_peers():
    lone = run(LONE_ATTACKER, horizon=5 * DAY, seed=10, log_sessions=True)
    assert lone.device("victim").depletion_day < 1
    assert lone.device("attacker").depletion_day > 2
    last = run(LAST_OF_FOUR, horizon=3 * DAY, seed=11, log_sessions=True)
    assert max(last.device(i).depletion_day for i in "abc") < 1
    assert last.device("d").depletion_day is None
    learner = run(LEARNING_SURVIVOR, horizon=6 * DAY, seed=12, log_sessions=True)
    last_death = max(learner.device(i).depletion_day for i in ("attacker", "bystander")) * DAY
    assert any(t > last_death and kind == "avoided" for t, kind, *_ in learner.sessions)


@pytest.mark.parametrize("name, value, mode", sorted(LEARNING_PAIR_DIGESTS))
def test_learning_pair_cell_digest(name, value, mode):
    assert cell_digest(name, value, mode, False) == LEARNING_PAIR_DIGESTS[name, value, mode]


@pytest.mark.parametrize("name, value, mode", sorted(CROWD_CELL_DIGESTS))
def test_crowd_cell_digest(name, value, mode):
    assert cell_digest(name, value, mode, True) == CROWD_CELL_DIGESTS[name, value, mode]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_csv_digest(name):
    assert csv_digest(name) == CSV_DIGESTS[name]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_depletion_digest(name):
    cfg = dataclasses.replace(preset(name), **DEPLETION_SLICES[name])
    rows = run_experiment(cfg)
    # a censored cell reads the horizon and would hide a change in the preset
    assert all(day < cfg.horizon_days for row in rows for day in row.seed_days)
    assert hashlib.sha256(emit_csv(rows)).hexdigest() == DEPLETION_DIGESTS[name]
