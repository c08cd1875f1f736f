"""Golden digests: fixed seeds keep producing the same bytes.

The determinism tests elsewhere only check that a run matches itself, so
a change that moved every result the same way would pass them.  These
pins catch it: SHA-256 of ``SimResult.to_json()`` for short runs that
cover each defense mode, a quit-and-retry attacker, a ten-device hour
population, a battery that dies mid-group, back-to-back owner groups, two
deaths in the same second, a learning victim that refuses every tick of
the attacker it flagged until it depletes, and the ticks of a last live
device (alone with no peer to reach, or still avoiding a dead one it
flagged), plus the ``emit_csv`` bytes of every preset at two seeds.
Those preset horizons are short, so their victims outlive them and the
pins cover the sweep plumbing and the CSV format (presets of the same
shape share a pin).  A second set of preset pins runs each preset at its
own 400-day horizon on a slice small enough to be quick, where every
victim depletes, so the pins also tell the presets' populations,
schedules and attacks apart.
The run pins cover behaviour.  A change meant to alter results updates
the pins in the same commit and says why in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from wfdsim.cli import PRESET_NAMES, emit_csv, preset, run_experiment
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
# owner's death was scheduled first, so it resolves first: it ends the
# group, the client drops to idle rate and lives one more second.  Had the
# client's death resolved first, the client would read 10.5 s.
SAME_SECOND_DEATHS = [
    DeviceConfig("client", schedule=Schedule(100, 100), phase=0,
                 attack=AttackProfile(tbb_strength=1.0), battery_capacity=21),
    DeviceConfig("owner", battery_capacity=115),
]

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
    "lone_attacker": (LONE_ATTACKER, 5 * DAY, 10),
    "last_of_four": (LAST_OF_FOUR, 3 * DAY, 11),
    "learning_survivor": (LEARNING_SURVIVOR, 6 * DAY, 12),
    "learning_storm": (LEARNING_STORM, 4 * DAY, 13),
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
    "lone_attacker": "be62274d6f8c188c2ab2bed324f5a83dd9f676e4609a0e4759af503b175d2f3d",
    "last_of_four": "6be1437e33a55c0e1e4d787e30d2c24d77e5d4ce44644edcfdcc3b16f7b43822",
    "learning_survivor": "93e350e5d78c55ab0051cd97d07296e247d4ed2986b123e804be21a40b3cee97",
    "learning_storm": "0b2b5cbc955868af9a48bf1bb2a08861388849bb6017a4d8881571d91b0bbf71",
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

DEPLETION_DIGESTS = {
    "var_tbb_strength": "27d3b965ee4aee4b60035c9daa6bbe8756769b1bfaf995870d26c8f4a5050bd4",
    "var_r_strength": "6c15df89242864dc3a0db99e08384cf21046b9f8def8912d4a9e8868053771c9",
    "attacker_ratio_5": "401bbd10feaf07960f0223734b6af30f0771ef5251547bb52a63154576bbba9a",
    "attacker_ratio_10": "5b84a004665c5998596daf36a0ce9dd2683a1ede2109df881cedf91df85d0b77",
}


def run_digest(name: str) -> str:
    devices, horizon, seed = RUNS[name]
    result = run(devices, horizon=horizon, seed=seed, log_sessions=True)
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
