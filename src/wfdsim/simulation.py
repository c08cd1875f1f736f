"""Discrete-event simulator for group-owner negotiation under attack.

Devices follow fixed schedules: every ``period`` seconds a scheduled device
initiates a session with a peer and, if negotiation settles, a group runs
for ``group_duration`` seconds.  Energy drains by role (idle 1, client 2,
owner 11 units/second) from a battery sized to last 365 idle days.  The
run is driven by a single seeded RNG, a heap of schedule ticks and the
death instant each device has booked; a pair whose one ticker does not
learn takes its ticks in batches up to the first instant at which a death,
the horizon or the other device's guard could change an outcome, each
session of a batch drawing what it would draw on its own.  At one
instant deaths resolve before ticks, and a group's owner before its
client.  A group ends at its scheduled end without an event of its own.
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
owner seconds for its whole span when it starts.  A device's ``budget``
is its capacity less the drain booked beyond the idle rate, so the energy
left at second ``t`` is ``budget - idle * t``; its client and owner
seconds are booked apart from it.  A death mid-group gives both members
back what was booked past it, in both records.  A device operates through
each whole second it can fully fund and leaves service at the first
second boundary it cannot; its idle seconds are the seconds it lived less
its client and owner seconds, keeping ``capacity - remaining`` exactly
equal to the rate-weighted role seconds.  The reported depletion instant
interpolates the sub-second remainder at the rate of the role it held.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import math
import numbers
import random
from dataclasses import dataclass
from enum import Enum

from .learning import FLAG_HOLD_SECONDS, SECONDS_PER_DAY, PeerRecords, assess, should_reject

DEFAULT_CAPACITY = 365 * SECONDS_PER_DAY  # idle-rate units for a 365-day battery

DEFAULT_RETRY_CAP = 16


class InvalidConfig(ValueError):
    """An invalid configuration value."""


@dataclass(frozen=True)
class Schedule:
    period: int
    group_duration: int

    def __post_init__(self) -> None:
        if not (isinstance(self.period, numbers.Integral)
                and isinstance(self.group_duration, numbers.Integral)
                and 0 < self.group_duration <= self.period):
            raise InvalidConfig(
                f"need whole 0 < group_duration <= period, got {self.group_duration}/{self.period}"
            )


MINUTE_SCHEDULE = Schedule(period=360, group_duration=60)      # 1 minute of group every 6
HOUR_SCHEDULE = Schedule(period=43200, group_duration=3600)    # 1 hour of group every 12


@dataclass(frozen=True)
class AttackProfile:
    tbb_strength: float = 0.0   # chance of forcing the tie bit per initiated negotiation
    r_strength: float = 0.0     # chance of quitting prematurely when assigned owner
    retry_cap: int = DEFAULT_RETRY_CAP

    def __post_init__(self) -> None:
        for name in ("tbb_strength", "r_strength"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
                raise InvalidConfig(f"{name} must be a number in [0, 1]: {value!r}")
        if not isinstance(self.retry_cap, numbers.Integral) or self.retry_cap < 0:
            raise InvalidConfig(f"retry_cap must be a whole number >= 0: {self.retry_cap}")


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
        if not isinstance(self.defense, DefenseMode):
            raise InvalidConfig(f"{self.device_id}: defense not a DefenseMode: {self.defense!r}")
        if not isinstance(self.schedule, (Schedule, type(None))):
            raise InvalidConfig(f"{self.device_id}: schedule not a Schedule: {self.schedule!r}")
        if not isinstance(self.attack, (AttackProfile, type(None))):
            raise InvalidConfig(f"{self.device_id}: attack not an AttackProfile: {self.attack!r}")
        if not isinstance(self.battery_capacity, numbers.Integral) or self.battery_capacity <= 0:
            raise InvalidConfig(f"battery capacity must be a whole number > 0: {self.battery_capacity}")
        if self.phase is not None:
            if self.schedule is None:
                raise InvalidConfig(f"{self.device_id}: phase given without a schedule")
            if not (isinstance(self.phase, numbers.Integral)
                    and 0 <= self.phase < self.schedule.period):
                raise InvalidConfig(f"{self.device_id}: phase not a whole number in [0, period)")


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


def energy_conserved(stats: DeviceStats) -> bool:
    """Whether the energy a device used, ``battery_capacity - remaining``,
    equals its role seconds weighted by the drain rates: the simulator
    books the drain and the role seconds as two separate records."""
    idle, client, go = _RATES
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


# Roles inside the simulator, as indices into the rate table, and the
# drain per second in each role.
_IDLE, _CLIENT, _GO = 0, 1, 2
_RATES = (1, 2, 11)

# The counters each device keeps, reported under the same names in
# DeviceStats; its negotiations and owner wins are derived (``run``).
_COUNTS = ("peer_quits_observed", "tie_rounds", "go_assignments",
           "rejections_issued", "initiations_avoided", "skips_busy", "sessions_exhausted")

# The 32-bit words drawn for a declared bit with a fixed chance of being
# forced (None: a fair bit), 1 where the word's top bit is the bit
_FIXED_DRAWS = {None: (1,), 1.0: (0, 0), 0.0: (0, 0, 1)}
_TOP_BIT = bytes(128) + b"\1" * 128   # each byte's top bit, for ``bytes.translate``
_BULK_SESSIONS = 2048   # the most sessions a batch draws in one call


class _Device:
    __slots__ = (
        "index", "cfg", "id", "uses_commitment", "period", "duration", "force", "quit_chance",
        "retries", "remaining", "budget", "idle_seconds", "client_seconds",
        "go_seconds", "alive", "die_at", "depletion_time", "group", "peers", "declines_met",
        "declines_issued", *_COUNTS,
    )

    def __init__(self, index: int, cfg: DeviceConfig):
        self.index = index
        self.cfg = cfg
        self.id = cfg.device_id
        self.uses_commitment = cfg.defense.uses_commitment
        # its period and group duration (None without a schedule), its chances of
        # forcing its tie bit (None: a fair bit) and of quitting as owner, and its retries
        schedule, attack = cfg.schedule, cfg.attack
        self.period, self.duration = (None, None) if schedule is None else (
            schedule.period, schedule.group_duration)
        self.force, self.quit_chance, self.retries = (None, 0.0, 0) if attack is None else (
            attack.tbb_strength, attack.r_strength, attack.retry_cap if attack.r_strength else 0)
        self.remaining = cfg.battery_capacity   # settled when the device stops
        self.budget = cfg.battery_capacity   # less the drain booked beyond the idle rate
        self.idle_seconds = self.client_seconds = self.go_seconds = 0   # idle settled at the stop
        self.alive = True
        self.die_at = math.inf          # first second it cannot fund as booked; inf once dead
        self.depletion_time: float | None = None
        self.group: tuple | None = None   # (owner, client, start, end) while in a group
        # the learning guard's records by peer id; None for a device that does not learn
        self.peers: PeerRecords | None = PeerRecords() if cfg.defense.uses_learning else None
        # the tie rounds that ended in a decline, by its side: as member, as owner
        self.declines_met = self.declines_issued = 0
        for name in _COUNTS:
            setattr(self, name, 0)


class _Simulator:
    """One seeded run.

    The heap holds only ticks, and ``run``'s loop takes each one itself.
    The tick being taken stays on top until the loop replaces it with the
    device's next tick in one ``heapreplace``, or pops it when the device
    is dead or its next tick reaches the horizon.  ``_decided_ticks``
    clears the heap and pushes the ticker's tick past a decided run, as no
    other live device ticks then.  Every ``(time, seq)`` key is unique, so
    ticks leave the heap in the order of their keys alone.
    Deaths stay off it: each device keeps its ``die_at``, and
    ``next_death`` is a device with the earliest.  A booking never moves
    a death later, so ``_set_role`` and ``_start_group`` only compare.
    Only a death moves one later: the dead device's ``die_at`` turns to
    ``inf``, and its partner's refund retimes the partner, so after each
    death the loop looks for the earliest again.  At one instant deaths
    resolve before ticks.  The order of deaths in one second shows only
    between the two members of one group, and there the owner resolves
    first: its death ends the group and drops the client to the idle rate.

    Energy is booked, not settled per event.  A group is the tuple
    ``(owner, client, start, end)``.  Every group, a batch's last one
    included, opens in ``_start_group``, which books both members in one
    step up to the group's ``end``: each member's drain beyond the idle
    rate off its ``budget``, its client or owner seconds apart from it, and
    its death assuming it turns idle there.  ``next_death`` then moves at
    most once, to the earlier of the two deaths if it comes first.
    ``_set_role`` books a device idle: at the start of the run, a death's
    partner and both devices after a batch whose last session was
    exhausted.  A death before ``end`` cuts the group short: both members
    give back what was booked past the death second, to the budget and to
    the role seconds, and the partner's death is rescheduled at the idle
    rate.  ``_stop`` settles a device's remaining energy and idle seconds
    at its death or the horizon.  ``run`` derives each device's
    negotiations and owner wins from its tie rounds and owner assignments,
    less the rounds that ended in a decline.

    A group ends without an event of its own.  Every group closes in
    ``_end_group``, when something next touches one of its members: a tick
    of either one past its end, a tick that picks either one as its peer
    past its end, or the death of either one, which closes it at the death
    second if that comes first.  Closing it only clears the members' group
    pointers and gives learning members its group-time records.

    In a pair whose ticker does not learn, the other device's state decides
    a run of ticks before they happen.  ``_pair_run`` reads it once and
    takes that run in one step; ``_decided_ticks`` moves the pending tick
    past it.  A dead peer, with a schedule or without, makes every tick
    busy.  A learner's yes, standing or just said by its guard, refuses
    every tick: each refusal renews the hold past the next tick, unless the
    period is longer than the hold.  Only a yes stands on the learner's
    record; a no is a full check's, and only ``PeerRecord.hold`` carries it
    on.  Both runs end at the next pending death or the horizon, spend no
    energy, change no profile and draw no peer; a tick at the instant of
    that death stays on the loop, as the death resolves first and makes the
    tick busy (its peer died) or void (its device died).  A peer without a
    schedule, and either without a guard or with a no, takes a session at
    every tick, each group ending by the next tick, and ``k`` such ticks run
    as one batch (``_negotiate_batch``), its energy and role seconds booked
    once.  Three bounds on ``k`` keep every outcome decided before the batch
    starts, the lookahead of conservative simulation (Chandy and Misra, IEEE
    TSE 5(5), 1979).  Its last group ends by the horizon.  A period drains a
    device by at most ``worst = idle * period + (top - idle) *
    group_duration``, ``top`` the owner rate, so tick ``i`` finds at least
    ``left - i * worst``, ``left`` the lower charge at the first, and all
    ``(left - top * group_duration) // worst + 1`` ticks fund a whole group
    at ``top``: no death falls before the last group ends.  And it takes
    only ticks through which a learner's no stands (``PeerRecord.hold``), so
    the batch reads no guard; one tally a day books its negotiations through
    the record's ``learn_negotiation``, and the time of its groups, a day's
    last on the day it ends.  The batch's last group opens in
    ``_start_group`` and closes like any other, and the deaths booked from
    its end may fall before the next tick, where the loop resolves them.  A
    tick whose no covers no batch, or whose batch the energy bound rules
    out, negotiates alone in ``_negotiate``.  Any other state leaves the
    tick to the loop: a peer with a schedule, or a learner with no record of
    the ticker.  A learning ticker's guard can still change its mind or
    avoid a dead peer, so its ticks stay on the loop, as do those of three
    or more devices.  ``sessions`` is ``None`` unless the run keeps the log:
    then no session tuple is built.
    """

    def __init__(self, configs: list[DeviceConfig], horizon: int, seed: int,
                 log_sessions: bool):
        self.horizon = horizon
        self.seed = seed
        self.rng = random.Random(seed)
        self.devices = [_Device(i, cfg) for i, cfg in enumerate(configs)]
        # ticks are ``(time, seq, device)``: ``seq`` is unique, so the
        # device never takes part in a comparison; ``seq()`` gives the next
        self.heap: list[tuple] = []
        self.seq = itertools.count(1).__next__
        self.next_death = self.devices[0]   # no device has booked a death yet
        self.sessions: list[tuple] | None = [] if log_sessions else None
        self.pair: tuple | None = None   # what the pair step reads of its one ticker and partner

    def _set_role(self, dev: _Device, now: int) -> None:
        """Book ``dev`` idle from ``now`` on, and set the death instant this implies."""
        idle = _RATES[_IDLE]
        if dev.budget - idle * now < 0:
            raise RuntimeError(f"{dev.id}: energy went negative at t={now}")
        die_at = dev.die_at = dev.budget // idle
        if die_at < self.next_death.die_at:
            self.next_death = dev

    def _start_group(self, now: int, owner: _Device, member: _Device, end: int) -> None:
        """Open the group ``owner`` runs for ``member`` from ``now`` until
        ``end``: book each in its role until ``end`` and idle after it, and
        set the death instants this implies (class docstring)."""
        owner.group = member.group = (owner, member, now, end)
        idle, client, go = _RATES
        span = end - now
        owner_left = owner.budget - idle * now
        member_left = member.budget - idle * now
        if owner_left < 0 or member_left < 0:
            raise RuntimeError(f"{owner.id}, {member.id}: energy went negative at t={now}")
        owner.budget -= (go - idle) * span
        owner.go_seconds += span
        member.budget -= (client - idle) * span
        member.client_seconds += span
        # a death due at ``end`` itself falls after the switch to idle
        owner_dies = now + owner_left // go
        if owner_dies >= end:
            owner_dies = owner.budget // idle
        member_dies = now + member_left // client
        if member_dies >= end:
            member_dies = member.budget // idle
        owner.die_at, member.die_at = owner_dies, member_dies
        first = member if member_dies < owner_dies else owner
        if first.die_at < self.next_death.die_at:
            self.next_death = first

    def _rejects(self, dev: _Device, peer: _Device, now: int) -> bool:
        """Whether ``dev`` currently refuses ``peer``: yes while ``now <
        until``, which a flag or a refusal sets ``FLAG_HOLD_SECONDS`` ahead, else
        the record's gates (``PeerRecord.eligible``), then the classifier."""
        rec = dev.peers.get(peer.id)
        if rec is None:
            return False
        if now < rec.until:
            return True
        if rec.eligible(now) and should_reject(assess(rec)):
            rec.until = now + FLAG_HOLD_SECONDS
            return True
        return False

    def _refuse(self, refuser: _Device, dev: _Device, refused: range | tuple[int]) -> None:
        """``refuser`` refuses the ticks of ``dev`` at the instants ``refused``."""
        # the guard has just said yes; a refused requester restarts the hold
        # clock, and only staying away for a full window span earns a clean slate
        refuser.peers[dev.id].until = refused[-1] + FLAG_HOLD_SECONDS
        refuser.rejections_issued += len(refused)
        if self.sessions is not None:
            self.sessions.extend((r, "rejected", dev.id, refuser.id, "", 0, 0) for r in refused)

    def _negotiate(self, t: int, initiator: _Device, responder: _Device) -> _Device | None:
        """Negotiate the session ``initiator`` starts at ``t`` and open its
        group: return the group's owner, or None for no group."""
        committed = initiator.uses_commitment or responder.uses_commitment
        rng, log = self.rng, self.sessions
        quits = 0   # every quit but the last of an exhausted session was retried
        while True:
            # intent values tie at zero, so the tie bit decides ownership:
            # the initiator's declared bit alone, or under commitments the
            # XOR of both parties' committed bits; an attacker forces 0,
            # which makes its peer the owner, with its ``tbb_strength``
            # chance, and declares a fair bit otherwise, as anyone else does
            force = initiator.force
            bit = rng.getrandbits(1) if force is None or rng.random() >= force else 0
            if committed:
                force = responder.force
                bit ^= rng.getrandbits(1) if force is None or rng.random() >= force else 0
            if bit:
                owner, member = initiator, responder
            else:
                owner, member = responder, initiator
            initiator.tie_rounds += 1
            responder.tie_rounds += 1
            owner.go_assignments += 1
            # after a quit, a defending device re-checks the peer when
            # assigned the owner role; the tick checked round one's guards,
            # and only the close of a group with a third device came since
            if quits and owner.peers is not None and self._rejects(owner, member, t):
                owner.rejections_issued += 1
                owner.declines_issued += 1
                member.declines_met += 1
                if log is not None:
                    log.append((t, "declined", initiator.id, responder.id, owner.id, quits + 1, quits))
                return None
            # an attacker assigned the owner role may walk out, and retries
            # until its cap is spent
            chance = owner.quit_chance
            owner_quit = chance > 0.0 and rng.random() < chance
            # only the learning guard reads peer profiles
            if owner.peers is not None:
                owner.peers[member.id].learn_negotiation(t, True, False)
            if member.peers is not None:
                member.peers[owner.id].learn_negotiation(t, False, owner_quit)
            if owner_quit:
                quits += 1
                member.peer_quits_observed += 1
                if quits <= owner.retries:
                    continue
                initiator.sessions_exhausted += 1
                if log is not None:
                    log.append((t, "exhausted", initiator.id, responder.id, "", quits, quits))
                return None
            if log is not None:
                log.append((t, "group", initiator.id, responder.id, owner.id, quits + 1, quits))
            end = t + initiator.duration
            self._start_group(t, owner, member, end if end < self.horizon else self.horizon)
            return owner

    def _batch_plan(self, initiator: _Device, responder: _Device) -> tuple:
        """What each batch of ``initiator``'s sessions with ``responder`` reads
        (``_negotiate_batch``), built once a run for the pair step."""
        # by tie bit, the owner it makes, its quit chance and retry cap; each
        # party's chance of forcing its bit, None for a fair one; and a bulk
        # draw's bytes a session and its deciding offsets
        parties = (responder, initiator)
        chances, caps = [p.quit_chance for p in parties], [p.retries for p in parties]
        committed = initiator.uses_commitment or responder.uses_commitment
        forces = [initiator.force, responder.force]
        kinds = [_FIXED_DRAWS.get(force) for force in forces[:1 + committed]]
        bulk = None
        if not any(chances) and None not in kinds:
            # a word's top byte is its last, as the words are little-endian
            layout = sum(kinds, ())
            bulk = 4 * len(layout), [4 * o + 3 for o, decides in enumerate(layout) if decides]
        return parties, chances, caps, committed, *forces, bulk

    def _negotiate_batch(self, ticks: range, plan: tuple) -> tuple:
        """Negotiate the sessions that the initiator of ``plan``
        (``_batch_plan``) starts at ``ticks`` as ``_negotiate`` would, but
        reading no guard and opening no group (class docstring).  Returns the
        groups the initiator and the responder owned, the last session's owner
        or None, the responder's tally (rounds it owned, rounds the initiator
        quit, all rounds), and a bulk draw's tie bits, one byte a session, or None.

        Every session draws the same words when no party can walk out and
        each bit that decides the tie is fair (one word), always forced (the
        two of ``random()``; the bit is 0) or never forced (three; the bit
        follows ``random()``): ``_FIXED_DRAWS``.  Then a chunk of sessions is
        drawn in one call, as CPython's ``getrandbits(32 * m)`` packs ``m``
        words little-endian in the order drawn, ``getrandbits(1)`` is one
        word's top bit and ``random()`` takes two words.  Any other batch
        runs the loop."""
        parties, chances, caps, committed, init_force, resp_force, bulk = plan
        random, getrandbits = self.rng.random, self.rng.getrandbits
        log, ids = self.sessions, (parties[1].id, parties[0].id)
        walked = [0, 0]   # rounds quit, by tie bit
        ones = exhausted = 0   # groups made with bit 1, sessions exhausted
        exhausted_at = None
        drawn = []
        if bulk is not None:
            # every session draws the same words: draw a chunk of sessions
            # at once and XOR the top bits of each session's deciding words
            stride, deciding = bulk
            for start in range(0, len(ticks), _BULK_SESSIONS):
                chunk = ticks[start:start + _BULK_SESSIONS]
                data = getrandbits(8 * stride * len(chunk))
                bits = 0
                if deciding:   # else each bit is 0, and only the draw must run
                    data = data.to_bytes(stride * len(chunk), "little")
                    for o in deciding:
                        bits ^= int.from_bytes(data[o::stride].translate(_TOP_BIT), "little")
                drawn.append(bits.to_bytes(len(chunk), "little"))
                if log is not None:
                    log.extend((t, "group", *ids, parties[b].id, 1, 0) for t, b in zip(chunk, drawn[-1]))
            drawn = b"".join(drawn)
            ones, bit = drawn.count(1), drawn[-1]
        else:
            for t in ticks:
                quits = 0
                while True:
                    # each declared bit as ``_negotiate`` draws it
                    bit = getrandbits(1) if init_force is None or random() >= init_force else 0
                    if committed:
                        bit ^= getrandbits(1) if resp_force is None or random() >= resp_force else 0
                    chance = chances[bit]
                    if not chance or random() >= chance:
                        ones += bit
                        if log is not None:
                            log.append((t, "group", *ids, parties[bit].id, quits + 1, quits))
                        break
                    quits += 1
                    walked[bit] += 1
                    if quits > caps[bit]:
                        exhausted += 1
                        exhausted_at = t
                        if log is not None:
                            log.append((t, "exhausted", *ids, "", quits, quits))
                        break
        # the last round's bit made the last owner, unless that session was exhausted
        owner = None if exhausted_at == ticks[-1] else parties[bit]
        # a round ends in a quit or a group, and a session in a group unless exhausted
        groups = (len(ticks) - exhausted - ones, ones)   # by tie bit
        rounds = walked[0] + walked[1] + groups[0] + groups[1]
        for bit, dev in enumerate(parties):
            dev.tie_rounds += rounds
            dev.go_assignments += walked[bit] + groups[bit]
            dev.peer_quits_observed += walked[1 - bit]
        parties[1].sessions_exhausted += exhausted   # the initiator
        return ones, groups[0], owner, (walked[0] + groups[0], walked[1], rounds), drawn or None

    def _end_group(self, group: tuple) -> None:
        """Close ``group``, ``(go, client, start, end)``: clear both group
        pointers and give learning members its time, recorded on the day
        of its ``end``."""
        go, client, start, end = group
        go.group = client.group = None
        # a group always follows a negotiation, which made both records
        if go.peers is not None:
            go.peers[client.id].record_group_time(end // SECONDS_PER_DAY, end - start, end - start)
        if client.peers is not None:
            client.peers[go.id].record_group_time(end // SECONDS_PER_DAY, 0, end - start)

    def _death(self, t: int, dev: _Device) -> None:
        # the booked death is always current: the battery cannot fund
        # the coming second
        rate = idle = _RATES[_IDLE]
        if dev.group is not None:
            go, client, start, end = dev.group
            if t < end:
                # cut short: both members give back what was booked past
                # ``t``, and the partner's pending death moves to the idle rate
                go.budget += (_RATES[_GO] - idle) * (end - t)
                client.budget += (_RATES[_CLIENT] - idle) * (end - t)
                go.go_seconds -= end - t
                client.client_seconds -= end - t
                rate = _RATES[_GO if dev is go else _CLIENT]
                self._set_role(client if dev is go else go, t)
            self._end_group((go, client, start, min(t, end)))
        dev.alive = False
        dev.die_at = math.inf
        self._stop(dev, t)
        dev.depletion_time = t + dev.remaining / rate

    def _stop(self, dev: _Device, t: int) -> None:
        """Settle the books of ``dev`` at ``t``, its death second or the horizon."""
        dev.remaining = dev.budget - _RATES[_IDLE] * t
        if dev.remaining < 0:
            raise RuntimeError(f"{dev.id}: energy went negative at t={t}")
        dev.idle_seconds = t - dev.client_seconds - dev.go_seconds

    def _decided_ticks(self, dev: _Device, first: int, stop: int) -> range:
        """The instants of ``dev``'s ticks from ``first`` until ``stop`` or
        the next pending death, which the caller knows are all decided
        alike; ``dev``'s pending tick moves to the first instant past them.
        Every other tick on the heap must be a dead device's."""
        period = dev.period
        ticks = range(first, min(self.next_death.die_at, stop), period)
        nxt = first + len(ticks) * period
        self.heap[:] = [(nxt, self.seq(), dev)] if nxt < self.horizon else []
        return ticks

    def _pair_run(self, t: int, dev: _Device, peer: _Device) -> bool:
        """Take the run of ``dev``'s ticks from ``t`` on that the state of
        ``peer``, its one partner, decides (class docstring), or return
        False when that state decides none.  ``dev`` does not learn.  A
        learner's guard is read here: a yes stands on its record until it
        lapses, and a no, which stands on nothing, covers the ticks
        ``PeerRecord.hold`` counts; when it covers none, or the energy bound
        leaves none, ``t`` negotiates alone."""
        if not peer.alive:
            dev.skips_busy += len(self._decided_ticks(dev, t, self.horizon))
            return True
        if peer.period is not None:
            return False
        period, duration = dev.period, dev.duration
        idle, top = _RATES[_IDLE], _RATES[_GO]
        plan = self.pair
        if plan is None:   # the run's one ticker and its partner: built once
            rounds = 1 + max(dev.retries, peer.retries)
            worst = idle * period + (top - idle) * duration   # the most one period drains
            plan = self.pair = worst, rounds, self._batch_plan(dev, peer)
        worst, rounds, batch = plan
        left = min(d.budget - idle * t for d in self.devices)
        k = min((self.horizon - t) // period, (left - top * duration) // worst + 1)
        peers = peer.peers
        if peers is not None:
            rec = peers.get(dev.id)
            if rec is None:
                return False
            if self._rejects(peer, dev, t):   # a standing yes, or a full check
                # each refusal holds the next tick, unless the period outlasts the hold
                stop = self.horizon if period < FLAG_HOLD_SECONDS else t + 1
                self._refuse(peer, dev, self._decided_ticks(dev, t, stop))
                return True
            k = min(k, rec.hold(rounds, t, period, duration))
        if k <= 0:
            self._negotiate(t, dev, peer)   # the tick alone, its guard already read
            return True
        # the guard says no for the whole span: its batches read no guard, and
        # the learner's records go in as one tally a day (class docstring)
        ticks = self._decided_ticks(dev, t, t + k * period)
        daily = peers is not None and batch[-1] is None   # a learner's span, not drawn in bulk
        dev_groups = peer_groups = start = 0
        if not daily:
            dev_groups, peer_groups, owner, _, bits = self._negotiate_batch(ticks, batch)
        while peers is not None and start < k:
            first = ticks[start]
            day = first // SECONDS_PER_DAY
            stop = min(k, -((t - (day + 1) * SECONDS_PER_DAY) // period))
            if daily:
                by_dev, by_peer, owner, tally, _ = self._negotiate_batch(ticks[start:stop], batch)
                dev_groups, peer_groups, day_owner = dev_groups + by_dev, peer_groups + by_peer, owner
            else:   # drawn in bulk: a session is one round, the learner's on bit 0
                by_dev = bits.count(1, start, stop)
                by_peer, day_owner = stop - start - by_dev, (peer, dev)[bits[stop - 1]]
                tally = by_peer, 0, stop - start
            rec.learn_negotiation(first, *tally)
            # the day's last group is booked on the day it ends, the span's once it closes
            end = ticks[stop - 1] + duration
            late = day_owner is not None and (stop == k or end // SECONDS_PER_DAY > day)
            rec.record_group_time(day, (by_peer - (late and day_owner is peer)) * duration,
                                  (by_dev + by_peer - late) * duration)
            if late and stop < k:
                rec.record_group_time(end // SECONDS_PER_DAY, (day_owner is peer) * duration, duration)
            start = stop
        # every group but the last is booked here; the last opens like any other
        dev_groups, peer_groups = dev_groups - (owner is dev), peer_groups - (owner is peer)
        for member, go, client in ((dev, dev_groups, peer_groups), (peer, peer_groups, dev_groups)):
            member.go_seconds += go * duration
            member.client_seconds += client * duration
            member.budget -= ((top - idle) * go + (_RATES[_CLIENT] - idle) * client) * duration
        last = t + (k - 1) * period
        if owner is None:
            for member in self.devices:   # idle after the last session
                self._set_role(member, last + duration)
        else:
            self._start_group(last, owner, peer if owner is dev else dev, last + duration)
        return True

    def run(self) -> SimResult:
        for dev in self.devices:
            # seed the idle-drain death event so even a silent device
            # depletes on schedule
            self._set_role(dev, 0)
            if dev.period is not None:
                phase = dev.cfg.phase
                if phase is None:
                    phase = self.rng.randrange(dev.period)
                if phase < self.horizon:
                    heapq.heappush(self.heap, (phase, self.seq(), dev))
        # what the loop reads at every tick, bound once
        heap, horizon, devices, sessions = self.heap, self.horizon, self.devices, self.sessions
        n = len(devices) - 1   # the devices a tick can pick its peer from
        bits, getrandbits = n.bit_length(), self.rng.getrandbits
        replace, pop, seq = heapq.heapreplace, heapq.heappop, self.seq
        rejects, refuse, negotiate = self._rejects, self._refuse, self._negotiate
        end_group, pair_run = self._end_group, self._pair_run
        while True:
            dev = self.next_death
            t = dev.die_at
            if not heap or heap[0][0] >= t:
                if t > horizon:
                    break
                group = dev.group
                if group is not None and dev is group[1] and group[0].die_at == t:
                    dev = group[0]   # the owner first (class docstring)
                self._death(t, dev)
                self.next_death = min(devices, key=lambda d: d.die_at)
                continue
            # the tick on top: replace it with the device's next, or pop it
            t, _seq, dev = heap[0]
            nxt = t + dev.period
            if dev.alive and nxt < horizon:
                replace(heap, (nxt, seq(), dev))
            else:
                pop(heap)
                if not dev.alive:
                    continue
            group = dev.group
            if group is not None:
                if t < group[3]:
                    dev.skips_busy += 1
                    continue
                end_group(group)
            # a uniform pick among the other devices, skipping this one
            if n == 1:
                peer = devices[1 - dev.index]
                if dev.peers is None and pair_run(t, dev, peer):
                    continue
            else:
                # what randrange(n) draws, from the same bits, without its wrapper
                i = getrandbits(bits)
                while i >= n:
                    i = getrandbits(bits)
                peer = devices[i + 1 if i >= dev.index else i]
            if dev.peers is not None and rejects(dev, peer, t):
                dev.initiations_avoided += 1
                if sessions is not None:
                    sessions.append((t, "avoided", dev.id, peer.id, "", 0, 0))
                continue
            # busy until its group's end, when the group closes, or dead
            group = peer.group
            if group is not None:
                if t < group[3]:
                    dev.skips_busy += 1
                    continue
                end_group(group)
            elif not peer.alive:
                dev.skips_busy += 1
                continue
            if peer.peers is not None and rejects(peer, dev, t):
                refuse(peer, dev, (t,))
                continue
            negotiate(t, dev, peer)
        stats = []
        for dev in self.devices:
            if dev.alive:
                self._stop(dev, self.horizon)
            accounted = dev.idle_seconds + dev.client_seconds + dev.go_seconds
            stats.append(DeviceStats(
                device_id=dev.id,
                battery_capacity=dev.cfg.battery_capacity,
                remaining=dev.remaining,
                depletion_day=(None if dev.depletion_time is None
                               else dev.depletion_time / SECONDS_PER_DAY),
                idle_seconds=dev.idle_seconds,
                client_seconds=dev.client_seconds,
                go_seconds=dev.go_seconds,
                go_time_fraction=(dev.go_seconds / accounted if accounted else 0.0),
                # a declined round is a tie round and an owner assignment, not a negotiation
                negotiations=dev.tie_rounds - dev.declines_met - dev.declines_issued,
                go_wins=dev.go_assignments - dev.declines_issued,
                **{name: getattr(dev, name) for name in _COUNTS},
            ))
        return SimResult(
            seed=self.seed,
            horizon_seconds=self.horizon,
            devices=tuple(stats),
            sessions=() if self.sessions is None else tuple(self.sessions),
        )


def run(devices: list[DeviceConfig], horizon: int = 400 * SECONDS_PER_DAY,
        seed: int = 0, log_sessions: bool = False) -> SimResult:
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
    if not isinstance(horizon, numbers.Integral) or horizon <= 0:
        raise InvalidConfig(f"horizon must be a whole number > 0: {horizon}")
    if all(cfg.schedule is None for cfg in devices):
        raise InvalidConfig("no device has a schedule; nothing would ever happen")
    return _Simulator(devices, horizon, seed, log_sessions).run()
