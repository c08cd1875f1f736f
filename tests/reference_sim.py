"""A deliberately naive reference simulator, the oracle for ``wfdsim.simulation.run``.

It keeps the simulator's first design: one heap holds every event (group
ends, deaths and ticks, ordered by time, then in that kind order, then by
scheduling order), a device's energy is settled at every role change, a
death is pushed whenever a role change makes one due and is skipped when a
later change made it stale, and every tick draws its peer from a freshly
built list.  The learning guard runs the classifier in full at every call,
round one of a session included.  Nothing is cached, booked ahead or
finished early.

Only the public types of ``wfdsim.simulation`` and ``wfdsim.learning`` are
reused, not the loop, so a run here and a run of ``run`` with the session
log on must give the same ``SimResult.to_json()`` for equal inputs.  After
a run, each device's ``profiles`` and ``pair_start`` hold the records a
learning device of ``run`` must end with.
"""

import heapq
import math
import random

from wfdsim.learning import (
    FAIRNESS_THRESHOLD,
    SECONDS_PER_DAY,
    HistoryDepth,
    PeerProfile,
    assess,
    should_reject,
)
from wfdsim.simulation import (
    FLAG_HOLD_SECONDS,
    GUARD_Z_AMPLE,
    GUARD_Z_LIMITED,
    GUARD_Z_SPARSE,
    MIN_PAIR_AGE_SECONDS,
    SPARSE_WINDOW_NEGOTIATIONS,
    DeviceStats,
    SimResult,
    attacker_choose_tbb,
)

# event kinds: at one instant groups end, then deaths resolve, then ticks run
GROUP_END, DEATH, TICK = 0, 1, 2
IDLE, CLIENT, GO = "idle", "client", "go"
# drain per second by role: the paper's model, written out here rather
# than read from the simulator
RATES = {IDLE: 1, CLIENT: 2, GO: 11}


class Device:
    def __init__(self, cfg):
        self.cfg = cfg
        self.id = cfg.device_id
        self.remaining = cfg.battery_capacity
        self.rate = 0
        self.role = IDLE
        self.last_update = 0
        self.energy_version = 0
        self.seconds = {IDLE: 0, CLIENT: 0, GO: 0}
        self.alive = True
        self.depletion_time = None
        self.group = None
        self.profiles = {}
        self.pair_start = {}
        self.flag_hold = {}
        self.counts = dict.fromkeys(
            ("negotiations", "go_wins", "peer_quits_observed", "tie_rounds", "go_assignments",
             "rejections_issued", "initiations_avoided", "skips_busy", "sessions_exhausted"), 0)

    def profile(self, peer):
        if peer.id not in self.profiles:
            self.profiles[peer.id] = PeerProfile(peer.id)
        return self.profiles[peer.id]


class Group:
    def __init__(self, go, client, start):
        self.go = go
        self.client = client
        self.start = start
        self.active = True


class ReferenceSimulator:
    def __init__(self, configs, horizon, seed):
        self.horizon = horizon
        self.seed = seed
        self.rng = random.Random(seed)
        self.devices = [Device(cfg) for cfg in configs]
        self.heap = []
        self.seq = 0
        self.sessions = []

    def push(self, time, kind, subject, version=0):
        self.seq += 1
        heapq.heappush(self.heap, (time, kind, self.seq, subject, version))

    def advance(self, dev, now):
        dt = now - dev.last_update
        if dt <= 0:
            return
        dev.remaining -= dev.rate * dt
        if dev.remaining < 0:
            raise RuntimeError(f"{dev.id}: energy went negative at t={now}")
        dev.seconds[dev.role] += dt
        dev.last_update = now

    def set_role(self, dev, now, role, until=None):
        """Settle ``dev`` up to ``now``, switch its drain rate, and push its
        depletion if that can strike by ``until`` (default the horizon)."""
        self.advance(dev, now)
        dev.role = role
        dev.rate = RATES[role]
        dev.energy_version += 1
        die_at = now + dev.remaining // dev.rate
        if die_at <= (self.horizon if until is None else until):
            self.push(die_at, DEATH, dev, dev.energy_version)

    def record_negotiation(self, dev, peer, t, self_was_go, peer_quit):
        prof = dev.profile(peer)
        day = t // SECONDS_PER_DAY
        prof.roll_to(day)
        if prof.negotiations == 0:
            dev.pair_start[peer.id] = t
        prof.record_negotiation(day, self_was_go, peer_quit)
        dev.counts["negotiations"] += 1
        if self_was_go:
            dev.counts["go_wins"] += 1
        if peer_quit:
            dev.counts["peer_quits_observed"] += 1

    def rejects(self, dev, peer, now):
        """Whether ``dev``'s learning guard refuses ``peer`` at ``now``."""
        if now < dev.flag_hold.get(peer.id, 0):
            return True
        prof = dev.profiles.get(peer.id)
        if prof is None:
            return False
        prof.roll_to(now // SECONDS_PER_DAY)
        n = prof.negotiations
        if n == 0 or now - dev.pair_start[peer.id] < MIN_PAIR_AGE_SECONDS:
            return False
        assessment = assess(prof)
        depth = assessment.features.depth
        if depth is HistoryDepth.INSUFFICIENT or not should_reject(assessment):
            result = False
        else:
            pf = assessment.peer_fairness
            if depth is HistoryDepth.AMPLE:
                z = GUARD_Z_AMPLE
            elif n < SPARSE_WINDOW_NEGOTIATIONS:
                z = GUARD_Z_SPARSE
            else:
                z = GUARD_Z_LIMITED
            result = pf - z * math.sqrt(pf * (1.0 - pf) / n) > FAIRNESS_THRESHOLD
        if result:
            dev.flag_hold[peer.id] = now + FLAG_HOLD_SECONDS
        return result

    def declared_bit(self, dev):
        attack = dev.cfg.attack
        return self.rng.getrandbits(1) if attack is None else attacker_choose_tbb(attack, self.rng)

    def tick(self, t, dev):
        if not dev.alive:
            return
        schedule = dev.cfg.schedule
        if t + schedule.period < self.horizon:
            self.push(t + schedule.period, TICK, dev)
        if dev.group is not None:
            dev.counts["skips_busy"] += 1
            return
        candidates = [d for d in self.devices if d is not dev]
        if len(candidates) == 1:
            peer = candidates[0]
        else:
            peer = candidates[self.rng.randrange(len(candidates))]
        if dev.cfg.defense.uses_learning and self.rejects(dev, peer, t):
            dev.counts["initiations_avoided"] += 1
            self.sessions.append((t, "avoided", dev.id, peer.id, "", 0, 0))
            return
        if peer.group is not None or not peer.alive:
            dev.counts["skips_busy"] += 1
            return
        if peer.cfg.defense.uses_learning and self.rejects(peer, dev, t):
            peer.flag_hold[dev.id] = t + FLAG_HOLD_SECONDS
            peer.counts["rejections_issued"] += 1
            self.sessions.append((t, "rejected", dev.id, peer.id, "", 0, 0))
            return
        self.session(t, dev, peer)

    def session(self, t, initiator, responder):
        committed = (initiator.cfg.defense.uses_commitment
                     or responder.cfg.defense.uses_commitment)
        rounds = quits = retries = 0
        while True:
            rounds += 1
            bit = self.declared_bit(initiator)
            if committed:
                bit ^= self.declared_bit(responder)
            owner, member = (initiator, responder) if bit else (responder, initiator)
            initiator.counts["tie_rounds"] += 1
            responder.counts["tie_rounds"] += 1
            owner.counts["go_assignments"] += 1
            if owner.cfg.defense.uses_learning and self.rejects(owner, member, t):
                owner.counts["rejections_issued"] += 1
                self.sessions.append((t, "declined", initiator.id, responder.id, owner.id,
                                      rounds, quits))
                return
            attack = owner.cfg.attack
            if attack is not None and attack.r_strength > 0.0 and self.rng.random() < attack.r_strength:
                quits += 1
                self.record_negotiation(owner, member, t, True, False)
                self.record_negotiation(member, owner, t, False, True)
                if retries < attack.retry_cap:
                    retries += 1
                    continue
                initiator.counts["sessions_exhausted"] += 1
                self.sessions.append((t, "exhausted", initiator.id, responder.id, "",
                                      rounds, quits))
                return
            self.record_negotiation(owner, member, t, True, False)
            self.record_negotiation(member, owner, t, False, False)
            end = min(t + initiator.cfg.schedule.group_duration, self.horizon)
            if end > t:
                group = Group(owner, member, t)
                owner.group = member.group = group
                self.set_role(owner, t, GO, until=end)
                self.set_role(member, t, CLIENT, until=end)
                self.push(end, GROUP_END, group)
            self.sessions.append((t, "group", initiator.id, responder.id, owner.id, rounds, quits))
            return

    def end_group(self, t, group):
        if not group.active:
            return
        group.active = False
        for dev in (group.go, group.client):
            dev.group = None
            self.set_role(dev, t, IDLE)
        duration = t - group.start
        if duration > 0:
            day = t // SECONDS_PER_DAY
            group.go.profile(group.client).record_group_time(day, duration, duration)
            group.client.profile(group.go).record_group_time(day, 0, duration)

    def death(self, t, dev, version):
        if not dev.alive or version != dev.energy_version:
            return   # a later role change re-timed this device's depletion
        self.advance(dev, t)
        dev.alive = False
        dev.energy_version += 1
        dev.depletion_time = t + dev.remaining / dev.rate
        if dev.group is not None:
            self.end_group(t, dev.group)

    def run(self):
        for dev in self.devices:
            self.set_role(dev, 0, IDLE)
            schedule = dev.cfg.schedule
            if schedule is not None:
                phase = dev.cfg.phase
                if phase is None:
                    phase = self.rng.randrange(schedule.period)
                if phase < self.horizon:
                    self.push(phase, TICK, dev)
        while self.heap:
            t, kind, _seq, subject, version = heapq.heappop(self.heap)
            if t > self.horizon:
                break
            if kind == TICK:
                self.tick(t, subject)
            elif kind == GROUP_END:
                self.end_group(t, subject)
            else:
                self.death(t, subject, version)
        stats = []
        for dev in self.devices:
            if dev.alive:
                self.advance(dev, self.horizon)
            idle, client, go = dev.seconds[IDLE], dev.seconds[CLIENT], dev.seconds[GO]
            accounted = idle + client + go
            stats.append(DeviceStats(
                device_id=dev.id,
                battery_capacity=dev.cfg.battery_capacity,
                remaining=dev.remaining,
                depletion_day=(None if dev.depletion_time is None
                               else dev.depletion_time / SECONDS_PER_DAY),
                idle_seconds=idle,
                client_seconds=client,
                go_seconds=go,
                go_time_fraction=go / accounted if accounted else 0.0,
                **dev.counts,
            ))
        return SimResult(seed=self.seed, horizon_seconds=self.horizon, devices=tuple(stats),
                         sessions=tuple(self.sessions))
