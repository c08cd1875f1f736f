"""Simulator invariants checked on generated populations (Hypothesis).

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
* session times never decrease.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wfdsim.learning import SECONDS_PER_DAY  # noqa: E402
from wfdsim.simulation import (  # noqa: E402
    AttackProfile,
    DEFAULT_ENERGY,
    DefenseMode,
    DeviceConfig,
    EnergyModel,
    Schedule,
    energy_conserved,
    run,
)

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
    result = run(devices, horizon=horizon, seed=seed, energy=energy)
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
