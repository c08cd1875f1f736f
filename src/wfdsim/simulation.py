"""Discrete-event simulator for group-owner negotiation under attack.

Devices follow fixed schedules: every ``period`` seconds a scheduled device
initiates a session with a peer and, if negotiation settles, a group runs
for ``group_duration`` seconds.  Energy drains by role (idle 1, client 2,
owner 11 units/second) from a battery sized to last 365 idle days.  The
run is driven by a single seeded RNG, a heap of schedule ticks and at
most one pending death per device; at one instant deaths resolve before
ticks.  A group ends at its scheduled end without an event of its own.
Equal configuration and seed reproduce the result byte for byte.

Attackers manipulate the tie-breaker bit when initiating (standard
negotiation only; a pair with a commitment-mode member XORs both
declared bits, which reduces manipulation to honest randomness) and may
reject assigned owner roles by quitting prematurely and retrying.
Defending devices keep per-peer profiles and refuse to negotiate with
peers classified as hostile, both when receiving a request and before
accepting an owner role.

Energy accounting is an integer ledger.  Every device drains the idle
rate every second; a group books its members' extra drain and client or
owner seconds for its whole span when it starts, so the energy left at
second ``t`` is ``capacity - idle * t - spent``.  A death mid-group gives
both members back what was booked past it.  A device operates through
each whole second it can fully fund and leaves service at the first
second boundary it cannot; its idle seconds are the seconds it lived less
its client and owner seconds, keeping ``capacity - remaining`` exactly
equal to the rate-weighted role seconds.  The reported depletion instant
interpolates the sub-second remainder at the rate of the role it held.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import random
from dataclasses import dataclass
from enum import Enum

from .learning import (
    SECONDS_PER_DAY,
    FAIRNESS_THRESHOLD,
    HistoryDepth,
    InvalidConfig,
    PeerProfile,
    assess,
    history_depth,
    peer_fairness,
    should_reject,
)

DEFAULT_CAPACITY = 365 * SECONDS_PER_DAY  # idle-rate units for a 365-day battery

DEFAULT_RETRY_CAP = 16

# A peer must have been interacting for this long (and have a usable
# window) before rejection can kick in; rebuilt from scratch whenever the
# window drains empty.  Ten hours puts a minute-scale schedule past the
# small-window confidence regimes below before its first evaluation.
MIN_PAIR_AGE_SECONDS = 10 * 3600

# Rejection fires only when the lower confidence bound of the observed
# owner-time share clears the fairness threshold.  The margin comes in
# three regimes: sparse windows (slow schedules never accumulate more
# than a dozen negotiations per pair, so the bound must stay loose to
# catch saturated attackers there), mid-size windows (z=1), and ample
# ones (z=3, keeping borderline-fair peers from locking in on noise).
# Fast schedules pass the pair-age gate only after leaving the sparse
# regime, so the loose bound never applies to them.
SPARSE_WINDOW_NEGOTIATIONS = 40
GUARD_Z_SPARSE = 0.4
GUARD_Z_LIMITED = 1.0
GUARD_Z_AMPLE = 3.0

# Once the guard fires, the rejection is held for a full window span.
# Without the hold, a window whose records trickled in over many days
# drains one bucket at a time, dips below the eligibility floor,
# re-admits a forced session, and oscillates there indefinitely.
FLAG_HOLD_SECONDS = 30 * SECONDS_PER_DAY


@dataclass(frozen=True)
class EnergyModel:
    """Per-second drain rates: base always applies, extras stack by role."""

    base_rate: int = 1
    client_extra: int = 1
    go_extra: int = 10

    def __post_init__(self) -> None:
        if self.base_rate < 0 or self.client_extra < 0 or self.go_extra < 0:
            raise InvalidConfig("energy rates cannot be negative")

    @property
    def rates(self) -> tuple[int, int, int]:
        """Drain per second when idle, as client and as owner."""
        return (self.base_rate, self.base_rate + self.client_extra,
                self.base_rate + self.go_extra)


DEFAULT_ENERGY = EnergyModel()


@dataclass(frozen=True)
class Schedule:
    period: int
    group_duration: int

    def __post_init__(self) -> None:
        if self.period <= 0 or not 0 < self.group_duration <= self.period:
            raise InvalidConfig(
                f"need 0 < group_duration <= period, got {self.group_duration}/{self.period}"
            )


MINUTE_SCHEDULE = Schedule(period=360, group_duration=60)      # 1 minute of group every 6
HOUR_SCHEDULE = Schedule(period=43200, group_duration=3600)    # 1 hour of group every 12


@dataclass(frozen=True)
class AttackProfile:
    tbb_strength: float = 0.0   # chance of forcing the tie bit per initiated negotiation
    r_strength: float = 0.0     # chance of quitting prematurely when assigned owner
    retry_cap: int = DEFAULT_RETRY_CAP

    def __post_init__(self) -> None:
        if not 0.0 <= self.tbb_strength <= 1.0:
            raise InvalidConfig(f"tbb_strength outside [0, 1]: {self.tbb_strength}")
        if not 0.0 <= self.r_strength <= 1.0:
            raise InvalidConfig(f"r_strength outside [0, 1]: {self.r_strength}")
        if self.retry_cap < 0:
            raise InvalidConfig(f"retry_cap cannot be negative: {self.retry_cap}")


class DefenseMode(Enum):
    STANDARD = "S"
    LEARNING = "L"
    COMMITMENT = "C"
    LEARNING_COMMITMENT = "LC"

    @property
    def uses_learning(self) -> bool:
        return self in (DefenseMode.LEARNING, DefenseMode.LEARNING_COMMITMENT)

    @property
    def uses_commitment(self) -> bool:
        return self in (DefenseMode.COMMITMENT, DefenseMode.LEARNING_COMMITMENT)


@dataclass(frozen=True)
class DeviceConfig:
    device_id: str
    defense: DefenseMode = DefenseMode.STANDARD
    schedule: Schedule | None = None   # None: never initiates, only responds
    attack: AttackProfile | None = None
    battery_capacity: int = DEFAULT_CAPACITY
    phase: int | None = None           # first tick offset; None draws one per seed

    def __post_init__(self) -> None:
        if not self.device_id:
            raise InvalidConfig("device id cannot be empty")
        if self.battery_capacity <= 0:
            raise InvalidConfig(f"battery capacity must be positive: {self.battery_capacity}")
        if self.phase is not None:
            if self.schedule is None:
                raise InvalidConfig(f"{self.device_id}: phase given without a schedule")
            if not 0 <= self.phase < self.schedule.period:
                raise InvalidConfig(f"{self.device_id}: phase outside [0, period)")


def attacker_choose_tbb(profile: AttackProfile, rng: random.Random) -> int:
    """Tie bit an attacker declares: the one making the peer owner, or fair.

    Forcing only works where the declared bit decides the tie (standard
    negotiation, attacker initiating); under commitment tie-breaking the
    choice is XORed with an independent honest bit and loses all bias.
    """
    if rng.random() < profile.tbb_strength:
        return 0
    return rng.getrandbits(1)


@dataclass(frozen=True)
class DeviceStats:
    device_id: str
    battery_capacity: int
    remaining: int
    depletion_day: float | None
    idle_seconds: int
    client_seconds: int
    go_seconds: int
    go_time_fraction: float
    negotiations: int
    go_wins: int
    peer_quits_observed: int
    tie_rounds: int
    go_assignments: int
    rejections_issued: int
    initiations_avoided: int
    skips_busy: int
    sessions_exhausted: int


def energy_conserved(stats: DeviceStats, model: EnergyModel = DEFAULT_ENERGY) -> bool:
    idle, client, go = model.rates
    spent = idle * stats.idle_seconds + client * stats.client_seconds + go * stats.go_seconds
    return stats.battery_capacity - stats.remaining == spent


@dataclass(frozen=True)
class SimResult:
    seed: int
    horizon_seconds: int
    devices: tuple[DeviceStats, ...]
    sessions: tuple[tuple, ...]

    def device(self, device_id: str) -> DeviceStats:
        for stats in self.devices:
            if stats.device_id == device_id:
                return stats
        raise KeyError(device_id)

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "horizon_seconds": self.horizon_seconds,
            "devices": [dataclasses.asdict(d) for d in self.devices],
            "sessions": [list(s) for s in self.sessions],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# Ticks and deaths are ``(time, seq, device)``: ``seq`` is unique, so the
# device never takes part in a comparison.  ``_NO_DEATH`` stands for "no
# death pending" and sorts after every event.
_NO_DEATH = (math.inf, 0, None)

# Roles inside the simulator, as indices into its rate table and each
# device's role-seconds counters.
_IDLE, _CLIENT, _GO = 0, 1, 2


class _Group:
    __slots__ = ("go", "client", "start", "end")

    def __init__(self, go: "_Device", client: "_Device", start: int, end: int):
        self.go = go
        self.client = client
        self.start = start
        self.end = end


class _Device:
    __slots__ = (
        "index", "cfg", "id", "uses_learning", "uses_commitment", "schedule", "attack",
        "remaining", "capacity", "spent", "role_seconds",
        "alive", "depletion_time", "group",
        "profiles", "pair_start", "guard_cache", "flag_hold",
        "negotiations", "go_wins", "peer_quits_observed",
        "tie_rounds", "go_assignments",
        "rejections_issued", "initiations_avoided", "skips_busy", "sessions_exhausted",
    )

    def __init__(self, index: int, cfg: DeviceConfig):
        self.index = index
        self.cfg = cfg
        self.id = cfg.device_id
        self.uses_learning = cfg.defense.uses_learning
        self.uses_commitment = cfg.defense.uses_commitment
        self.schedule = cfg.schedule
        self.attack = cfg.attack
        self.capacity = cfg.battery_capacity
        self.remaining = cfg.battery_capacity   # settled when the device stops
        self.spent = 0                  # drain booked beyond the idle rate
        self.role_seconds = [0, 0, 0]   # indexed by role; idle settled at the stop
        self.alive = True
        self.depletion_time: float | None = None
        self.group: _Group | None = None
        self.profiles: dict[str, PeerProfile] = {}
        self.pair_start: dict[str, int] = {}
        self.guard_cache: dict[str, tuple[int, bool]] = {}
        self.flag_hold: dict[str, int] = {}
        self.negotiations = 0
        self.go_wins = 0
        self.peer_quits_observed = 0
        self.tie_rounds = 0
        self.go_assignments = 0
        self.rejections_issued = 0
        self.initiations_avoided = 0
        self.skips_busy = 0
        self.sessions_exhausted = 0

    def profile(self, peer_id: str) -> PeerProfile:
        """This device's profile of ``peer_id``, created on first use."""
        prof = self.profiles.get(peer_id)
        if prof is None:
            prof = self.profiles[peer_id] = PeerProfile(peer_id)
        return prof

    def learn_negotiation(self, peer_id: str, t: int, self_was_go: bool,
                          peer_quit: bool) -> None:
        prof = self.profile(peer_id)
        prof.record_negotiation(t // SECONDS_PER_DAY, self_was_go, peer_quit)
        if prof.negotiations == 1:
            # the window was empty: the pair's age starts again now
            self.pair_start[peer_id] = t


class _Simulator:
    """One seeded run.

    The heap holds only ticks.  Deaths stay off it: ``deaths`` holds at
    most one pending death per device, and ``next_death`` the earliest of
    them, kept as entries come and go.  At one instant deaths resolve
    before ticks, and deaths among themselves in the order they were
    scheduled: each takes its ``seq`` from the counter ticks use.

    Energy is booked, not settled per event.  When a group starts,
    ``_set_role`` books each member's drain beyond the idle rate and its
    client or owner seconds up to the group's ``end``, and schedules the
    member's death assuming it turns idle there.  A death before ``end``
    cuts the group short: both members give back what was booked past the
    death second, and the partner's death is rescheduled at the idle rate.
    ``_stop`` settles a device's remaining energy and idle seconds at its
    death or the horizon.

    A group ends without an event of its own.  A group past its end is
    closed when something next touches one of its members: a tick of
    either one, a tick that picks either one as its peer, or the death of
    either one.  Closing it only clears the members' group pointers and
    gives learning members its group-time records.

    Some runs of ticks are decided before they happen.  A lone survivor
    that does not learn can only count its ticks as busy.  In a refusal
    storm a learning device without a schedule refuses every tick of its
    one peer, which does not learn: each refusal renews a hold that
    outlasts the peer's period.  ``_decided_ticks`` takes either run in one
    step, up to the next pending death or the horizon.  Neither spends
    energy or changes a profile; a storm draws no peer, and a survivor's
    skipped peer draws would feed nothing later.  A tick at the instant of
    that death stays on the loop, as the death resolves first and makes
    the tick busy (its peer died) or void (its device died).  A learning
    survivor stays on the loop, as its guard still avoids a flagged dead peer.
    ``sessions`` is ``None`` unless the run keeps the log: then no session tuple is built.
    """

    def __init__(self, configs: list[DeviceConfig], horizon: int, seed: int,
                 energy: EnergyModel, log_sessions: bool):
        self.horizon = horizon
        self.seed = seed
        self.rng = random.Random(seed)
        self.devices = [_Device(i, cfg) for i, cfg in enumerate(configs)]
        self.peer_bits = (len(configs) - 1).bit_length()
        self.heap: list[tuple] = []
        self.seq = 0
        self.deaths: dict[_Device, tuple] = {}
        self.next_death = _NO_DEATH
        self.sessions: list[tuple] | None = [] if log_sessions else None
        self.rates = energy.rates

    def _set_role(self, dev: _Device, now: int, role: int, end: int) -> None:
        """Book ``dev`` in ``role`` from ``now`` until ``end``, idle after
        it, and schedule the one death this implies up to the horizon in
        place of any pending one."""
        idle, rate = self.rates[_IDLE], self.rates[role]
        left = dev.capacity - idle * now - dev.spent
        if left < 0:
            raise RuntimeError(f"{dev.id}: energy went negative at t={now}")
        dev.spent += (rate - idle) * (end - now)
        dev.role_seconds[role] += end - now
        # a death due at ``end`` itself falls after the switch to idle
        if rate > 0 and now + left // rate < end:
            die_at = now + left // rate
        elif idle > 0:
            die_at = (dev.capacity - dev.spent) // idle
        else:
            die_at = self.horizon + 1
        deaths = self.deaths
        if die_at <= self.horizon:
            self.seq += 1
            entry = deaths[dev] = (die_at, self.seq, dev)
            if entry < self.next_death:
                self.next_death = entry
                return
        else:
            deaths.pop(dev, None)
        if self.next_death[2] is dev:
            # the earliest entry was this device's and is gone
            self.next_death = min(deaths.values(), default=_NO_DEATH)

    def _record_negotiation(self, owner: _Device, member: _Device, t: int,
                            owner_quit: bool) -> None:
        """Count one negotiation that made ``owner`` the group owner."""
        owner.negotiations += 1
        owner.go_wins += 1
        member.negotiations += 1
        if owner_quit:
            member.peer_quits_observed += 1
        # only the learning guard reads peer profiles
        if owner.uses_learning:
            owner.learn_negotiation(member.id, t, True, False)
        if member.uses_learning:
            member.learn_negotiation(owner.id, t, False, owner_quit)

    def _rejects(self, dev: _Device, peer: _Device, now: int) -> bool:
        """Whether ``dev`` currently refuses to deal with ``peer``."""
        if now < dev.flag_hold.get(peer.id, 0):
            return True
        prof = dev.profiles.get(peer.id)
        if prof is None:
            return False
        prof.roll_to(now // SECONDS_PER_DAY)
        n = prof.negotiations
        if n == 0:
            return False
        if now - dev.pair_start[peer.id] < MIN_PAIR_AGE_SECONDS:
            return False
        cached = dev.guard_cache.get(peer.id)
        if cached is not None and cached[0] == prof.version:
            result = cached[1]
        else:
            # an insufficient history, or an owner-time share at or below the
            # fairness threshold, rules rejection out whatever the
            # posterior says, so the classifier runs only otherwise
            if (history_depth(n) is HistoryDepth.INSUFFICIENT
                    or peer_fairness(prof) <= FAIRNESS_THRESHOLD):
                result = False
            else:
                assessment = assess(prof)
                if not should_reject(assessment):
                    result = False
                else:
                    pf = assessment.peer_fairness
                    if assessment.features.depth is HistoryDepth.AMPLE:
                        z = GUARD_Z_AMPLE
                    elif n < SPARSE_WINDOW_NEGOTIATIONS:
                        z = GUARD_Z_SPARSE
                    else:
                        z = GUARD_Z_LIMITED
                    result = pf - z * math.sqrt(pf * (1.0 - pf) / n) > FAIRNESS_THRESHOLD
            dev.guard_cache[peer.id] = (prof.version, result)
        if result:
            dev.flag_hold[peer.id] = now + FLAG_HOLD_SECONDS
        return result

    def _tick(self, t: int, dev: _Device) -> None:
        if not dev.alive:
            return
        nxt = t + dev.schedule.period
        if nxt < self.horizon:
            self.seq += 1
            heapq.heappush(self.heap, (nxt, self.seq, dev))
        group = dev.group
        if group is not None:
            if t < group.end:
                dev.skips_busy += 1
                return
            self._end_group(group)
        # a uniform pick among the other devices, skipping this one
        devices = self.devices
        n = len(devices) - 1
        if n == 1:
            peer = devices[1 - dev.index]
        else:
            # what randrange(n) draws, from the same bits, without its wrapper
            getrandbits = self.rng.getrandbits
            i = getrandbits(self.peer_bits)
            while i >= n:
                i = getrandbits(self.peer_bits)
            peer = devices[i + 1 if i >= dev.index else i]
        if dev.uses_learning and self._rejects(dev, peer, t):
            dev.initiations_avoided += 1
            if self.sessions is not None:
                self.sessions.append((t, "avoided", dev.id, peer.id, "", 0, 0))
            return
        group = peer.group
        if group is not None and group.end <= t:
            self._end_group(group)
        if peer.group is not None or not peer.alive:
            dev.skips_busy += 1
            return
        if peer.uses_learning and self._rejects(peer, dev, t):
            self._refuse(peer, dev, t)
            return
        self._session(t, dev, peer)

    def _refuse(self, refuser: _Device, dev: _Device, t: int) -> None:
        """``refuser`` refuses the tick of ``dev`` at ``t``; in a refusal
        storm, every later tick up to the next death or the horizon too."""
        refused = (t,)
        # a storm: no tick of the refuser, no third device to draw, no guard
        # of the ticker to change its mind, and a hold that outlasts the period
        if (refuser.schedule is None and len(self.devices) == 2 and not dev.uses_learning
                and dev.schedule.period < FLAG_HOLD_SECONDS):
            refused = self._decided_ticks(dev, t)
        # a refused requester restarts the hold clock; only staying
        # away for a full window span earns a clean slate
        refuser.flag_hold[dev.id] = refused[-1] + FLAG_HOLD_SECONDS
        refuser.rejections_issued += len(refused)
        if self.sessions is not None:
            self.sessions.extend((r, "rejected", dev.id, refuser.id, "", 0, 0) for r in refused)

    def _session(self, t: int, initiator: _Device, responder: _Device) -> None:
        committed = initiator.uses_commitment or responder.uses_commitment
        rng = self.rng
        rounds = 0
        quits = 0
        retries = 0
        while True:
            rounds += 1
            # intent values tie at zero, so the tie bit decides ownership:
            # the initiator's declared bit alone, or under commitments the
            # XOR of both parties' committed bits; an attacker declares
            # its attack profile's choice, anyone else a fair bit
            attack = initiator.attack
            bit = rng.getrandbits(1) if attack is None else attacker_choose_tbb(attack, rng)
            if committed:
                attack = responder.attack
                bit ^= rng.getrandbits(1) if attack is None else attacker_choose_tbb(attack, rng)
            if bit:
                owner, member = initiator, responder
            else:
                owner, member = responder, initiator
            initiator.tie_rounds += 1
            responder.tie_rounds += 1
            owner.go_assignments += 1
            # a defending device re-checks the peer each time it is
            # assigned the owner role
            if owner.uses_learning and self._rejects(owner, member, t):
                owner.rejections_issued += 1
                if self.sessions is not None:
                    self.sessions.append((t, "declined", initiator.id, responder.id, owner.id, rounds, quits))
                return
            # an attacker assigned the owner role may walk out, and retries
            # until its cap is spent
            attack = owner.attack
            if attack is not None and attack.r_strength > 0.0 and rng.random() < attack.r_strength:
                quits += 1
                self._record_negotiation(owner, member, t, True)
                if retries < attack.retry_cap:
                    retries += 1
                    continue
                initiator.sessions_exhausted += 1
                if self.sessions is not None:
                    self.sessions.append((t, "exhausted", initiator.id, responder.id, "", rounds, quits))
                return
            self._record_negotiation(owner, member, t, False)
            end = min(t + initiator.schedule.group_duration, self.horizon)
            if end > t:
                owner.group = member.group = _Group(owner, member, t, end)
                self._set_role(owner, t, _GO, end)
                self._set_role(member, t, _CLIENT, end)
            if self.sessions is not None:
                self.sessions.append((t, "group", initiator.id, responder.id, owner.id, rounds, quits))
            return

    def _end_group(self, group: _Group) -> None:
        """Close ``group``: clear its members' group pointers and give
        learning members its group time, recorded on the day of its ``end``."""
        go, client = group.go, group.client
        go.group = client.group = None
        duration = group.end - group.start
        if duration > 0:
            day = group.end // SECONDS_PER_DAY
            if go.uses_learning:
                go.profile(client.id).record_group_time(day, duration, duration)
            if client.uses_learning:
                client.profile(go.id).record_group_time(day, 0, duration)

    def _death(self, t: int, dev: _Device) -> None:
        # the pending death is always current: the battery cannot fund
        # the coming second
        rates = self.rates
        rate = rates[_IDLE]
        group = dev.group
        if group is not None:
            if t < group.end:
                # cut short: both members give back what was booked past
                # ``t``, and the partner's pending death moves to the idle rate
                for member, role in ((group.go, _GO), (group.client, _CLIENT)):
                    member.role_seconds[role] -= group.end - t
                    member.spent -= (rates[role] - rates[_IDLE]) * (group.end - t)
                rate = rates[_GO if dev is group.go else _CLIENT]
                group.end = t
                self._set_role(group.client if dev is group.go else group.go, t, _IDLE, t)
            self._end_group(group)
        dev.alive = False
        self._stop(dev, t)
        dev.depletion_time = t + dev.remaining / rate

    def _stop(self, dev: _Device, t: int) -> None:
        """Settle the books of ``dev`` at ``t``, its death second or the horizon."""
        dev.remaining = dev.capacity - self.rates[_IDLE] * t - dev.spent
        if dev.remaining < 0:
            raise RuntimeError(f"{dev.id}: energy went negative at t={t}")
        dev.role_seconds[_IDLE] = t - dev.role_seconds[_CLIENT] - dev.role_seconds[_GO]

    def _decided_ticks(self, dev: _Device, first: int) -> range:
        """The instants of ``dev``'s ticks from ``first`` until the next
        pending death or the horizon, which the caller knows are all
        decided alike; ``dev``'s pending tick moves to the first instant
        past them.  Every other tick on the heap must be a dead device's."""
        period = dev.schedule.period
        ticks = range(first, min(self.next_death[0], self.horizon), period)
        nxt = first + len(ticks) * period
        self.heap.clear()
        if nxt < self.horizon:
            self.seq += 1
            self.heap.append((nxt, self.seq, dev))
        return ticks

    def run(self) -> SimResult:
        for dev in self.devices:
            # seed the idle-drain death event so even a silent device
            # depletes on schedule
            self._set_role(dev, 0, _IDLE, 0)
            if dev.schedule is not None:
                phase = dev.cfg.phase
                if phase is None:
                    phase = self.rng.randrange(dev.schedule.period)
                if phase < self.horizon:
                    self.seq += 1
                    heapq.heappush(self.heap, (phase, self.seq, dev))
        heap = self.heap
        deaths = self.deaths
        pop = heapq.heappop
        while True:
            death = self.next_death
            if heap and heap[0][0] < death[0]:
                t, _seq, dev = pop(heap)
                self._tick(t, dev)
            elif death is not _NO_DEATH:
                t, _seq, dev = death
                del deaths[dev]
                self.next_death = min(deaths.values(), default=_NO_DEATH)
                self._death(t, dev)
                alive = [dev for dev in self.devices if dev.alive]
                if len(alive) == 1 and not alive[0].uses_learning:
                    # a lone survivor's ticks can only count as busy
                    dev = alive[0]
                    for t, _seq, subject in heap:
                        if subject is dev:   # its one pending tick
                            dev.skips_busy += len(self._decided_ticks(dev, t))
                            break
            else:
                break
        stats = []
        for dev in self.devices:
            if dev.alive:
                self._stop(dev, self.horizon)
            idle_seconds, client_seconds, go_seconds = dev.role_seconds
            accounted = idle_seconds + client_seconds + go_seconds
            stats.append(DeviceStats(
                device_id=dev.id,
                battery_capacity=dev.capacity,
                remaining=dev.remaining,
                depletion_day=(None if dev.depletion_time is None
                               else dev.depletion_time / SECONDS_PER_DAY),
                idle_seconds=idle_seconds,
                client_seconds=client_seconds,
                go_seconds=go_seconds,
                go_time_fraction=(go_seconds / accounted if accounted else 0.0),
                negotiations=dev.negotiations,
                go_wins=dev.go_wins,
                peer_quits_observed=dev.peer_quits_observed,
                tie_rounds=dev.tie_rounds,
                go_assignments=dev.go_assignments,
                rejections_issued=dev.rejections_issued,
                initiations_avoided=dev.initiations_avoided,
                skips_busy=dev.skips_busy,
                sessions_exhausted=dev.sessions_exhausted,
            ))
        return SimResult(
            seed=self.seed,
            horizon_seconds=self.horizon,
            devices=tuple(stats),
            sessions=() if self.sessions is None else tuple(self.sessions),
        )


def run(devices: list[DeviceConfig], horizon: int = 400 * SECONDS_PER_DAY,
        seed: int = 0, energy: EnergyModel = DEFAULT_ENERGY,
        log_sessions: bool = False) -> SimResult:
    """Simulate the device population until ``horizon`` seconds.

    A pair with a commitment-mode member breaks ties with the XOR of both
    declared bits; any other pair takes the initiator's bit.  The session
    log is recorded only with ``log_sessions=True``; otherwise ``sessions`` is ``()``.
    """
    if len(devices) < 2:
        raise InvalidConfig("need at least 2 devices")
    ids = [cfg.device_id for cfg in devices]
    if len(set(ids)) != len(ids):
        raise InvalidConfig(f"duplicate device ids: {ids}")
    if horizon <= 0:
        raise InvalidConfig(f"horizon must be positive: {horizon}")
    if all(cfg.schedule is None for cfg in devices):
        raise InvalidConfig("no device has a schedule; nothing would ever happen")
    return _Simulator(devices, horizon, seed, energy, log_sessions).run()
