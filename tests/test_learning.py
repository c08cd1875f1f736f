"""Peer profiling, feature extraction, and the disposition classifier."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from wfdsim import learning
from wfdsim.learning import (
    ATTACKER_DISPOSITIONS,
    ATTACKER_MASS_THRESHOLD,
    Band,
    ClockRegression,
    Disposition,
    FeatureVector,
    HistoryDepth,
    InvalidDuration,
    PeerProfile,
    WINDOW_DAYS,
    assess,
    features,
    history_depth,
    peer_fairness,
    posterior,
    share_band,
    should_reject,
)

# Independent copy of the likelihood tables and prior used as the
# enumeration oracle; typed separately from the module under test.
ORACLE_TABLES = {
    HistoryDepth.AMPLE: (
        (0.05, 0.10, 0.20, 0.20, 0.45),
        (0.05, 0.10, 0.20, 0.45, 0.20),
        (0.10, 0.20, 0.40, 0.20, 0.10),
        (0.20, 0.40, 0.20, 0.10, 0.10),
        (0.40, 0.20, 0.20, 0.10, 0.10),
    ),
    HistoryDepth.LIMITED: (
        (0.14, 0.14, 0.14, 0.22, 0.36),
        (0.13, 0.13, 0.20, 0.34, 0.20),
        (0.13, 0.20, 0.34, 0.20, 0.13),
        (0.20, 0.34, 0.20, 0.13, 0.13),
        (0.36, 0.22, 0.14, 0.14, 0.14),
    ),
    HistoryDepth.INSUFFICIENT: (
        (0.17, 0.17, 0.17, 0.24, 0.25),
        (0.15, 0.15, 0.23, 0.24, 0.23),
        (0.15, 0.23, 0.24, 0.23, 0.15),
        (0.23, 0.24, 0.23, 0.15, 0.15),
        (0.25, 0.24, 0.17, 0.17, 0.17),
    ),
}
ORACLE_PRIOR = (0.15, 0.20, 0.45, 0.10, 0.10)


def oracle_posterior(fv: FeatureVector) -> tuple[float, ...]:
    table = ORACLE_TABLES[fv.depth]
    joint = []
    for d in range(5):
        row = table[d]
        joint.append(ORACLE_PRIOR[d] * row[fv.self_go] * row[fv.peer_quit] * row[fv.go_time])
    total = sum(joint)
    return tuple(j / total for j in joint)


# every input of the fixed model: 3 depths x 5 bands for each of 3 shares
ALL_FEATURE_VECTORS = [FeatureVector(sg, pq, gt, depth)
                       for depth, sg, pq, gt in itertools.product(HistoryDepth, Band, Band, Band)]


def attacker_mass(fv: FeatureVector) -> float:
    post = posterior(fv)
    return sum(post[d] for d in ATTACKER_DISPOSITIONS)


class TestDiscretization:
    @pytest.mark.parametrize("k,n,band", [
        (0, 1, Band.LOW), (2499, 10000, Band.LOW),
        (1, 4, Band.SMALL), (3999, 10000, Band.SMALL),
        (2, 5, Band.AVERAGE), (5999, 10000, Band.AVERAGE),
        (3, 5, Band.ABOVE_AVERAGE), (7499, 10000, Band.ABOVE_AVERAGE),
        (3, 4, Band.HIGH), (1, 1, Band.HIGH),
    ])
    def test_band_edges(self, k, n, band):
        assert share_band(k, n) is band

    @pytest.mark.parametrize("count,depth", [
        (0, HistoryDepth.INSUFFICIENT), (9, HistoryDepth.INSUFFICIENT),
        (10, HistoryDepth.LIMITED), (99, HistoryDepth.LIMITED),
        (100, HistoryDepth.AMPLE), (5000, HistoryDepth.AMPLE),
    ])
    def test_history_depth_boundaries(self, count, depth):
        assert history_depth(count) is depth

    def test_bands_against_exact_fractions(self):
        # by brute force: a share's band is the number of edges at or below
        # it, compared as exact rationals
        edges = (Fraction(1, 4), Fraction(2, 5), Fraction(3, 5), Fraction(3, 4))
        for n in range(1, 201):
            for k in range(n + 1):
                assert share_band(k, n) == sum(Fraction(k, n) >= edge for edge in edges), (k, n)

    def test_features_band_the_whole_counts(self):
        # owner seconds of exactly 3/5 of a long window sit in
        # ABOVE_AVERAGE, which holds its lower edge
        p = PeerProfile("p")
        p.record_negotiation(0, 2, 0, 5)
        assert features(p).go_time is Band.LOW   # no group time yet
        p.record_group_time(0, 3 * 10**9, 5 * 10**9)
        assert features(p) == FeatureVector(Band.AVERAGE, Band.LOW, Band.ABOVE_AVERAGE,
                                            HistoryDepth.INSUFFICIENT)


class TestHostileCells:
    """``hostile``, the classifier's verdict memoised by cell of bands."""

    def test_each_cell_is_the_classifier_verdict(self):
        verdicts = [learning.hostile(fv.depth, fv.self_go, fv.peer_quit, fv.go_time)
                    for fv in ALL_FEATURE_VECTORS]
        assert verdicts == [attacker_mass(fv) > ATTACKER_MASS_THRESHOLD for fv in ALL_FEATURE_VECTORS]
        assert sum(verdicts) == 116

    def test_cells_agree_with_assess(self):
        # windows of 8, 20 and 200 negotiations and 20 group seconds with
        # each share at the lower edge of each band, where their sum allows
        for n in (8, 20, 200):
            counts = [-(-num * n // den) for num, den in ((0, 1), (1, 4), (2, 5), (3, 5), (3, 4))]
            for won, quit_, owned in itertools.product(counts, counts, (0, 5, 8, 12, 15)):
                if won + quit_ <= n:
                    p = PeerProfile("p")
                    p.record_negotiation(0, won, quit_, n)
                    p.record_group_time(0, owned, 20)
                    f = features(p)
                    assert (learning.hostile(f.depth, f.self_go, f.peer_quit, f.go_time)
                            is assess(p).is_attacker), (n, won, quit_, owned)

    def test_no_cell_is_computed_at_import(self):
        # the set-up of a run pays for no cell it does not read
        probe = ("import wfdsim.simulation; from wfdsim.learning import hostile; "
                 "print(hostile.cache_info().currsize)")
        src = str(Path(learning.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout == "0\n"


class TestPosterior:
    def test_matches_enumeration_oracle_everywhere(self):
        worst = 0.0
        for depth, sg, pq, gt in itertools.product(HistoryDepth, Band, Band, Band):
            fv = FeatureVector(sg, pq, gt, depth)
            got = posterior(fv)
            want = oracle_posterior(fv)
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
        assert worst <= 1e-12

    def test_distributions_are_normalized(self):
        for fv in ALL_FEATURE_VECTORS:
            post = posterior(fv)
            assert all(p >= 0.0 for p in post)
            assert abs(sum(post) - 1.0) < 1e-12

    @pytest.mark.parametrize("depth,count", [
        (HistoryDepth.INSUFFICIENT, 28), (HistoryDepth.LIMITED, 44), (HistoryDepth.AMPLE, 44),
    ], ids=lambda v: getattr(v, "name", v))
    def test_hostile_vectors_by_depth(self, depth, count):
        hostile = [fv for fv in ALL_FEATURE_VECTORS
                   if fv.depth is depth and attacker_mass(fv) > ATTACKER_MASS_THRESHOLD]
        assert len(hostile) == count

    @pytest.mark.parametrize("depth", HistoryDepth, ids=lambda d: d.name)
    def test_no_attacker_mass_near_the_threshold(self, depth):
        # float rounding in the likelihood product cannot flip a verdict:
        # the nearest vector lies 0.00587 from the threshold
        assert min(abs(attacker_mass(fv) - ATTACKER_MASS_THRESHOLD)
                   for fv in ALL_FEATURE_VECTORS if fv.depth is depth) >= 1e-3

    def test_shares_are_interchangeable(self):
        # all three shares read the same table at a given depth, so only
        # which bands occur counts, not which share sits in which band
        for fv in ALL_FEATURE_VECTORS:
            want = posterior(fv)
            for sg, pq, gt in itertools.permutations((fv.self_go, fv.peer_quit, fv.go_time)):
                got = posterior(FeatureVector(sg, pq, gt, fv.depth))
                assert got == pytest.approx(want, abs=1e-15)

    def test_saturated_hostile_profile_vector(self):
        fv = FeatureVector(Band.HIGH, Band.HIGH, Band.HIGH, HistoryDepth.AMPLE)
        got = posterior(fv)
        want = (0.8586572438162544, 0.10051040439733021, 0.02826855123674912,
                0.006281900274833138, 0.006281900274833138)
        assert got == pytest.approx(want, abs=1e-12)

    def test_hostility_rises_with_owner_share(self):
        def mass(sg, gt):
            p = posterior(FeatureVector(sg, Band.LOW, gt, HistoryDepth.AMPLE))
            return sum(p[d] for d in ATTACKER_DISPOSITIONS)

        chain = [mass(Band.AVERAGE, Band.AVERAGE),
                 mass(Band.ABOVE_AVERAGE, Band.ABOVE_AVERAGE),
                 mass(Band.HIGH, Band.HIGH)]
        assert chain[0] < chain[1] < chain[2]


class TestCptValidation:
    def test_default_is_valid(self):
        assert len(learning._CPT) == len(HistoryDepth)
        for table in learning._CPT:
            assert len(table) == len(Disposition)
            for row in table:
                assert len(row) == len(Band)
                assert all(p > 0.0 for p in row)
                assert abs(sum(row) - 1.0) <= 1e-9

    @pytest.mark.parametrize("depth,disposition", itertools.product(HistoryDepth, Disposition),
                             ids=lambda v: v.name)
    def test_row_matches_the_oracle(self, depth, disposition):
        row = learning._CPT[depth][disposition]
        assert row == ORACLE_TABLES[depth][disposition]
        assert all(p > 0.0 for p in row)
        assert abs(sum(row) - 1.0) <= 1e-9

    def test_prior_is_exactly_normalized(self):
        # posterior scales the prior by nothing: its weights already sum to
        # 1.0 in floats
        assert learning._PRIOR == ORACLE_PRIOR
        assert all(p > 0.0 for p in learning._PRIOR)
        assert sum(learning._PRIOR) == 1.0


class TestPeerProfileWindow:
    def test_empty_profile(self):
        p = PeerProfile("peer")
        assert p.negotiations == 0
        assert peer_fairness(p) == 0.0
        fv = features(p)
        assert fv == FeatureVector(Band.LOW, Band.LOW, Band.LOW, HistoryDepth.INSUFFICIENT)

    def test_counters_accumulate(self):
        p = PeerProfile("peer")
        p.record_negotiation(0, self_was_go=True, peer_quit_prematurely=False)
        p.record_negotiation(0, self_was_go=False, peer_quit_prematurely=True)
        p.record_group_time(0, 60, 120)
        assert (p.negotiations, p.self_go_wins, p.peer_premature_quits) == (2, 1, 1)
        assert (p.self_go_seconds, p.comm_seconds) == (60, 120)
        assert peer_fairness(p) == 0.5

    def test_expiry_drops_whole_days(self):
        p = PeerProfile("peer")
        p.record_negotiation(0, True, False)
        p.record_group_time(0, 60, 60)
        p.roll_to(WINDOW_DAYS - 1)
        assert p.negotiations == 1          # day 0 still inside the window
        p.roll_to(WINDOW_DAYS)
        assert p.negotiations == 0
        assert p.comm_seconds == 0
        assert not p.buckets()

    def test_clock_cannot_run_backwards(self):
        p = PeerProfile("peer")
        p.roll_to(5)
        with pytest.raises(ClockRegression):
            p.roll_to(4)

    def test_group_time_validation(self):
        p = PeerProfile("peer")
        with pytest.raises(InvalidDuration):
            p.record_group_time(0, -1, 10)
        with pytest.raises(InvalidDuration):
            p.record_group_time(0, 20, 10)

    @staticmethod
    def snapshot(p):
        return (p.current_day, p.buckets(),
                [getattr(p, name) for name in ("negotiations", "self_go_wins", "peer_premature_quits",
                                               "self_go_seconds", "comm_seconds")])

    @pytest.mark.parametrize("won,quit_,n", [
        (0, 0, 0), (0, 0, -1),             # no negotiation to record
        (-1, 1, 2), (1, -1, 2),            # a negative count
        (True, True, 1), (2, 2, 3),        # a quit of a round this device won
    ])
    def test_bad_tallies_leave_profile_unchanged(self, won, quit_, n):
        p = PeerProfile("peer")
        p.record_negotiation(1, True, False)
        before = self.snapshot(p)
        with pytest.raises(ValueError, match="not a tally"):
            p.record_negotiation(WINDOW_DAYS + 5, won, quit_, n)
        assert self.snapshot(p) == before
        p.record_negotiation(1, 2, 1, 3)   # every round either won or quit
        assert (p.negotiations, p.self_go_wins, p.peer_premature_quits) == (4, 3, 1)

    @pytest.mark.parametrize("go_s,comm_s", [(-1, 10), (0, -1), (-5, -1), (20, 10)])
    def test_rejected_durations_leave_profile_unchanged(self, go_s, comm_s):
        # validation runs before the clock rolls or a bucket is opened
        p = PeerProfile("peer")
        p.record_negotiation(1, True, False)
        p.record_group_time(1, 30, 60)
        before = self.snapshot(p)
        with pytest.raises(InvalidDuration):
            p.record_group_time(WINDOW_DAYS + 5, go_s, comm_s)
        assert self.snapshot(p) == before

    @pytest.mark.parametrize("record", [
        lambda p, day: p.record_negotiation(day, False, True),
        lambda p, day: p.record_group_time(day, 10, 20),
    ], ids=["negotiation", "group_time"])
    def test_records_for_an_earlier_day_are_refused(self, record):
        p = PeerProfile("peer")
        p.record_negotiation(5, False, False)
        before = self.snapshot(p)
        with pytest.raises(ClockRegression, match="day 4 precedes current day 5"):
            record(p, 4)
        assert self.snapshot(p) == before
        record(p, 5)
        assert p.current_day == 5 and len(p.buckets()) == 1

    def test_window_totals_match_naive_recompute(self):
        rng = Random(1234)
        p = PeerProfile("peer")
        ledger = []   # (day, negotiations, wins, quits, go_s, comm_s)
        day = 0
        for _ in range(500):
            day += rng.randrange(3)
            if rng.random() < 0.7:
                go = rng.random() < 0.6
                quit_ = rng.random() < 0.2 and not go   # only a round not won
                p.record_negotiation(day, go, quit_)
                ledger.append((day, 1, int(go), int(quit_), 0, 0))
            else:
                comm = rng.randrange(1, 400)
                go_s = rng.randrange(comm + 1)
                p.record_group_time(day, go_s, comm)
                ledger.append((day, 0, 0, 0, go_s, comm))
            live = [row for row in ledger if row[0] > day - WINDOW_DAYS]
            assert p.negotiations == sum(r[1] for r in live)
            assert p.self_go_wins == sum(r[2] for r in live)
            assert p.peer_premature_quits == sum(r[3] for r in live)
            assert p.self_go_seconds == sum(r[4] for r in live)
            assert p.comm_seconds == sum(r[5] for r in live)


class TestAssessment:
    def hostile_profile(self, n=120):
        p = PeerProfile("mallory")
        for _ in range(n):
            p.record_negotiation(1, self_was_go=True, peer_quit_prematurely=False)
        p.record_group_time(1, 600 * n, 600 * n)
        return p

    def fair_profile(self, n=120):
        p = PeerProfile("bob")
        for i in range(n):
            p.record_negotiation(1, self_was_go=i % 2 == 0, peer_quit_prematurely=False)
        p.record_group_time(1, 300 * n, 600 * n)
        return p

    def test_saturated_attacker_is_flagged(self):
        a = assess(self.hostile_profile())
        assert a.features.depth is HistoryDepth.AMPLE
        assert a.is_attacker
        assert a.peer_fairness == 1.0
        assert should_reject(a)

    def test_fair_peer_is_not_flagged(self):
        a = assess(self.fair_profile())
        assert not a.is_attacker
        assert not should_reject(a)

    def test_thin_history_means_high_ignorance(self):
        a = assess(self.hostile_profile(n=5))
        assert a.features.depth is HistoryDepth.INSUFFICIENT

    def test_hostile_but_currently_fair_is_tolerated(self):
        # always winning looks hostile, but owner time sits exactly on the
        # fairness bound, so rejection stays off
        p = PeerProfile("mallory")
        for _ in range(120):
            p.record_negotiation(1, True, False)
        p.record_group_time(1, 360 * 120, 600 * 120)
        a = assess(p)
        assert a.is_attacker
        assert a.peer_fairness == 0.6
        assert not should_reject(a)

    @pytest.mark.parametrize("n,depth,hostile", [
        (5, HistoryDepth.INSUFFICIENT, False),
        (40, HistoryDepth.LIMITED, True),
        (120, HistoryDepth.AMPLE, True),
    ], ids=lambda v: getattr(v, "name", None))
    def test_same_shares_turn_hostile_with_depth(self, n, depth, hostile):
        # two wins in three, a quit in four, two thirds of the time as owner,
        # as one tally of the day
        p = PeerProfile("mallory")
        p.record_negotiation(1, n - (n + 2) // 3, (n + 3) // 4, n)
        p.record_group_time(1, 400 * n, 600 * n)
        a = assess(p)
        assert a.features.depth is depth
        assert a.posterior == pytest.approx(oracle_posterior(a.features), abs=1e-12)
        assert a.is_attacker is hostile
        assert should_reject(a) is hostile

    @pytest.mark.parametrize("function,keyword", [
        (posterior, "cpt"), (posterior, "prior"),
        (assess, "cpt"), (assess, "prior"), (assess, "attacker_mass_threshold"),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_model_takes_no_parameters(self, function, keyword):
        arg = features(PeerProfile("peer")) if function is posterior else PeerProfile("peer")
        with pytest.raises(TypeError, match=keyword):
            function(arg, **{keyword: None})
