"""Peer-behaviour profiling and attacker classification.

Each device keeps, per peer, a 30-day sliding window of daily counters:
negotiations run, negotiations this device won (became owner), premature
quits by the peer, and owner/total communication seconds.  Three window
shares are derived from it:

* share of negotiations this device ended up owner,
* share of negotiations the peer walked out of prematurely,
* share of communication time this device spent as owner.

The shares are discretised into five bands, the window size into three
history depths, and a small naive-Bayes model turns the result into a
posterior over five peer dispositions.  A peer is treated as hostile when
enough posterior mass lands on the two attacker dispositions, and
rejection additionally requires the owner-time share to exceed the
fairness bound.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, fields
from enum import IntEnum

WINDOW_DAYS = 30
SECONDS_PER_DAY = 86400

FAIRNESS_THRESHOLD = 0.6

# Posterior mass on the two attacker dispositions above which a peer is
# classed hostile.  0.45 keeps the all-above-average window state (mass
# 0.4921) on the hostile side while every fair-leaning state stays at or
# below 0.35.
ATTACKER_MASS_THRESHOLD = 0.45


class ClockRegression(ValueError):
    """A record arrived for an earlier day than the profile has reached."""


class InvalidDuration(ValueError):
    """Negative durations, or owner seconds exceeding session seconds."""


class Band(IntEnum):
    """Five-level discretisation of a share in [0, 1]."""

    LOW = 0            # [0.00, 0.25)
    SMALL = 1          # [0.25, 0.40)
    AVERAGE = 2        # [0.40, 0.60)
    ABOVE_AVERAGE = 3  # [0.60, 0.75)
    HIGH = 4           # [0.75, 1.00]


# The upper edge of each band but the last, as an exact fraction
# (numerator, denominator); a band holds its lower edge.
_BAND_EDGES = ((1, 4), (2, 5), (3, 5), (3, 4))
_BANDS = tuple(Band)


def share_band(k: int, n: int) -> Band:
    """The band of the share ``k / n``, for whole ``0 <= k <= n`` and
    ``n > 0``, by integer comparisons with the exact edges."""
    for band, (num, den) in enumerate(_BAND_EDGES):
        if den * k < num * n:
            return _BANDS[band]
    return Band.HIGH


class HistoryDepth(IntEnum):
    """How much window evidence backs the derived shares."""

    INSUFFICIENT = 0   # fewer than 10 negotiations
    LIMITED = 1        # 10..99
    AMPLE = 2          # 100 or more


# The fewest negotiations of a LIMITED and of an AMPLE history.
LIMITED_NEGOTIATIONS, AMPLE_NEGOTIATIONS = 10, 100


def history_depth(negotiations: int) -> HistoryDepth:
    if negotiations < LIMITED_NEGOTIATIONS:
        return HistoryDepth.INSUFFICIENT
    if negotiations < AMPLE_NEGOTIATIONS:
        return HistoryDepth.LIMITED
    return HistoryDepth.AMPLE


class Disposition(IntEnum):
    """Peer behaviour classes the classifier distinguishes."""

    STRONG_ATTACKER = 0
    MEDIUM_ATTACKER = 1
    FAIR = 2
    BETTER_THAN_AVERAGE = 3
    ALTRUIST = 4


ATTACKER_DISPOSITIONS = (Disposition.STRONG_ATTACKER, Disposition.MEDIUM_ATTACKER)


@dataclass(frozen=True)
class FeatureVector:
    self_go: Band        # share of negotiations this device won
    peer_quit: Band      # share of negotiations the peer quit prematurely
    go_time: Band        # share of communication time spent as owner
    depth: HistoryDepth


# Likelihood of each band given disposition, one 5x5 table per history
# depth (indexed by ``HistoryDepth``); rows are dispositions, columns are
# bands LOW..HIGH, and each row sums to one.  All three share features use
# the same table at a given depth.
_CPT = (
    (   # INSUFFICIENT
        (0.17, 0.17, 0.17, 0.24, 0.25),
        (0.15, 0.15, 0.23, 0.24, 0.23),
        (0.15, 0.23, 0.24, 0.23, 0.15),
        (0.23, 0.24, 0.23, 0.15, 0.15),
        (0.25, 0.24, 0.17, 0.17, 0.17),
    ),
    (   # LIMITED
        (0.14, 0.14, 0.14, 0.22, 0.36),
        (0.13, 0.13, 0.20, 0.34, 0.20),
        (0.13, 0.20, 0.34, 0.20, 0.13),
        (0.20, 0.34, 0.20, 0.13, 0.13),
        (0.36, 0.22, 0.14, 0.14, 0.14),
    ),
    (   # AMPLE
        (0.05, 0.10, 0.20, 0.20, 0.45),
        (0.05, 0.10, 0.20, 0.45, 0.20),
        (0.10, 0.20, 0.40, 0.20, 0.10),
        (0.20, 0.40, 0.20, 0.10, 0.10),
        (0.40, 0.20, 0.20, 0.10, 0.10),
    ),
)

# Prior weight of each disposition, indexed by ``Disposition``.
_PRIOR = (0.15, 0.20, 0.45, 0.10, 0.10)


def posterior(features: FeatureVector) -> tuple[float, ...]:
    """Posterior over dispositions given the three banded shares.

    The three leaves are conditionally independent given the disposition,
    so the joint collapses to a product of per-band likelihoods.  Every
    table entry is positive, so the product has mass to normalise.
    """
    return _posterior(features.depth, features.self_go, features.peer_quit, features.go_time)


def _posterior(depth: int, self_go: int, peer_quit: int, go_time: int) -> tuple[float, ...]:
    unnorm = [prior * row[self_go] * row[peer_quit] * row[go_time] for prior, row in zip(_PRIOR, _CPT[depth])]
    total = sum(unnorm)
    return tuple(u / total for u in unnorm)


def _is_hostile(post: tuple[float, ...]) -> bool:
    return sum(post[d] for d in ATTACKER_DISPOSITIONS) > ATTACKER_MASS_THRESHOLD


@functools.cache
def hostile(*cell: int) -> bool:
    """The verdict of ``assess``, by its float expression, in ``cell`` (depth,
    won, quit and owner-time bands), each computed on first use and kept
    (Michie, "'Memo' functions and machine learning", Nature 218, 1968)."""
    return _is_hostile(_posterior(*cell))


@dataclass(slots=True)
class DailyBucket:
    day: int
    negotiations: int = 0
    self_go_wins: int = 0
    peer_premature_quits: int = 0
    self_go_seconds: int = 0
    comm_seconds: int = 0


# The counters a bucket holds and a profile totals over its window.
_COUNTERS = tuple(f.name for f in fields(DailyBucket) if f.name != "day")


class PeerProfile:
    """Sliding 30-day window of interaction counters for one peer.

    Buckets are kept per day and dropped from the running totals once they
    age out, so reads are O(1) and memory stays bounded no matter how long
    the conversation runs.
    """

    __slots__ = ("peer_id", "current_day", "_buckets", *_COUNTERS)

    def __init__(self, peer_id: str):
        self.peer_id = peer_id
        self.current_day = 0
        self._buckets: deque[DailyBucket] = deque()
        for name in _COUNTERS:
            setattr(self, name, 0)

    def roll_to(self, day: int) -> None:
        """Advance the window clock, expiring buckets older than 30 days."""
        if day == self.current_day:
            return   # the cutoff has not moved: none can expire
        if day < self.current_day:
            raise ClockRegression(f"day {day} precedes current day {self.current_day}")
        self.current_day = day
        cutoff = day - WINDOW_DAYS
        buckets = self._buckets
        while buckets and buckets[0].day <= cutoff:
            old = buckets.popleft()
            self.negotiations -= old.negotiations
            self.self_go_wins -= old.self_go_wins
            self.peer_premature_quits -= old.peer_premature_quits
            self.self_go_seconds -= old.self_go_seconds
            self.comm_seconds -= old.comm_seconds

    def _bucket_for(self, day: int) -> DailyBucket:
        buckets = self._buckets
        if buckets and buckets[-1].day == day == self.current_day:
            return buckets[-1]   # today's bucket: nothing can expire
        # no bucket is dated after current_day, so past the check above none is today's
        self.roll_to(day)
        bucket = DailyBucket(day)
        buckets.append(bucket)
        return bucket

    def record_negotiation(self, day: int, self_was_go: int, peer_quit_prematurely: int,
                           negotiations: int = 1) -> None:
        """Record ``negotiations`` on ``day``; the two flags add as counts,
        of those this device won and those the peer quit.  A peer quits only
        a round this device did not win: a tally of no negotiation, with a
        negative count, or whose counts add up past ``negotiations`` raises
        ``ValueError`` before anything is recorded."""
        if not (negotiations >= 1 and self_was_go >= 0 and peer_quit_prematurely >= 0
                and self_was_go + peer_quit_prematurely <= negotiations):
            raise ValueError(f"not a tally of {negotiations} negotiation(s): "
                             f"{self_was_go} won, {peer_quit_prematurely} quit")
        bucket = self._bucket_for(day)
        bucket.negotiations += negotiations
        self.negotiations += negotiations
        bucket.self_go_wins += self_was_go
        self.self_go_wins += self_was_go
        bucket.peer_premature_quits += peer_quit_prematurely
        self.peer_premature_quits += peer_quit_prematurely

    def record_group_time(self, day: int, self_go_seconds: int, comm_seconds: int) -> None:
        if comm_seconds < 0 or self_go_seconds < 0:
            raise InvalidDuration("durations cannot be negative")
        if self_go_seconds > comm_seconds:
            raise InvalidDuration(
                f"owner seconds {self_go_seconds} exceed session seconds {comm_seconds}"
            )
        bucket = self._bucket_for(day)
        bucket.self_go_seconds += self_go_seconds
        bucket.comm_seconds += comm_seconds
        self.self_go_seconds += self_go_seconds
        self.comm_seconds += comm_seconds

    def buckets(self) -> list[DailyBucket]:
        return list(self._buckets)


def peer_fairness(profile: PeerProfile) -> float:
    """Share of communication time this device spent as owner; 0 when unknown."""
    if profile.negotiations == 0 or profile.comm_seconds == 0:
        return 0.0
    return profile.self_go_seconds / profile.comm_seconds


def features(profile: PeerProfile) -> FeatureVector:
    n = profile.negotiations
    if n == 0:
        return FeatureVector(Band.LOW, Band.LOW, Band.LOW, HistoryDepth.INSUFFICIENT)
    comm = profile.comm_seconds
    return FeatureVector(
        share_band(profile.self_go_wins, n),
        share_band(profile.peer_premature_quits, n),
        share_band(profile.self_go_seconds, comm) if comm else Band.LOW,
        history_depth(n),
    )


@dataclass(frozen=True)
class PeerAssessment:
    features: FeatureVector
    posterior: tuple[float, ...]
    peer_fairness: float
    is_attacker: bool


def assess(profile: PeerProfile) -> PeerAssessment:
    f = features(profile)
    post = posterior(f)
    return PeerAssessment(
        features=f,
        posterior=post,
        peer_fairness=peer_fairness(profile),
        is_attacker=_is_hostile(post),
    )


def should_reject(assessment: PeerAssessment) -> bool:
    """Reject a hostile peer only while it is actually treating us unfairly."""
    return assessment.is_attacker and assessment.peer_fairness > FAIRNESS_THRESHOLD
