"""Peer profiling, feature extraction, and the disposition classifier."""

import itertools
import math
import re
from random import Random

import pytest

from wfdsim.learning import (
    ATTACKER_DISPOSITIONS,
    ATTACKER_MASS_THRESHOLD,
    Band,
    ClockRegression,
    Cpt,
    DEFAULT_CPT,
    DEFAULT_PRIOR,
    DegenerateDistribution,
    Disposition,
    FeatureVector,
    HistoryDepth,
    InvalidConfig,
    InvalidDuration,
    OutOfRange,
    PeerProfile,
    WINDOW_DAYS,
    assess,
    discretize_share,
    features,
    history_depth,
    peer_fairness,
    posterior,
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


def oracle_posterior(fv: FeatureVector, tables=ORACLE_TABLES, prior=ORACLE_PRIOR) -> tuple[float, ...]:
    table = tables[fv.depth]
    joint = []
    for d in range(5):
        row = table[d]
        joint.append(prior[d] * row[fv.self_go] * row[fv.peer_quit] * row[fv.go_time])
    total = sum(joint)
    return tuple(j / total for j in joint)


class TestDiscretization:
    @pytest.mark.parametrize("value,band", [
        (0.0, Band.LOW), (0.2499, Band.LOW),
        (0.25, Band.SMALL), (0.3999, Band.SMALL),
        (0.40, Band.AVERAGE), (0.5999, Band.AVERAGE),
        (0.60, Band.ABOVE_AVERAGE), (0.7499, Band.ABOVE_AVERAGE),
        (0.75, Band.HIGH), (1.0, Band.HIGH),
    ])
    def test_band_edges(self, value, band):
        assert discretize_share(value) is band

    @pytest.mark.parametrize("value", [-0.001, 1.001])
    def test_out_of_range(self, value):
        with pytest.raises(OutOfRange):
            discretize_share(value)

    @pytest.mark.parametrize("count,depth", [
        (0, HistoryDepth.INSUFFICIENT), (9, HistoryDepth.INSUFFICIENT),
        (10, HistoryDepth.LIMITED), (99, HistoryDepth.LIMITED),
        (100, HistoryDepth.AMPLE), (5000, HistoryDepth.AMPLE),
    ])
    def test_history_depth_boundaries(self, count, depth):
        assert history_depth(count) is depth


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
        for depth, sg in itertools.product(HistoryDepth, Band):
            fv = FeatureVector(sg, Band.LOW, Band.HIGH, depth)
            assert abs(sum(posterior(fv)) - 1.0) < 1e-12

    def test_saturated_hostile_profile_vector(self):
        fv = FeatureVector(Band.HIGH, Band.HIGH, Band.HIGH, HistoryDepth.AMPLE)
        got = posterior(fv)
        want = (0.8586572438162544, 0.10051040439733021, 0.02826855123674912,
                0.006281900274833138, 0.006281900274833138)
        assert got == pytest.approx(want, abs=1e-12)

    def test_prior_scale_invariance(self):
        fv = FeatureVector(Band.ABOVE_AVERAGE, Band.LOW, Band.HIGH, HistoryDepth.LIMITED)
        doubled = tuple(2 * p for p in DEFAULT_PRIOR)
        assert posterior(fv) == pytest.approx(posterior(fv, prior=doubled), abs=1e-15)

    @pytest.mark.parametrize("weight", [5e-324, 1e308])
    def test_extreme_prior_matches_its_normal_scale(self, weight):
        # unnormalised, subnormal weights make every likelihood product
        # underflow to zero; huge ones make the prior's sum overflow
        for depth, sg, pq, gt in itertools.product(HistoryDepth, Band, Band, Band):
            fv = FeatureVector(sg, pq, gt, depth)
            assert posterior(fv, prior=(weight,) * 5) == posterior(fv, prior=(0.2,) * 5)

    def test_hostility_rises_with_owner_share(self):
        def mass(sg, gt):
            p = posterior(FeatureVector(sg, Band.LOW, gt, HistoryDepth.AMPLE))
            return sum(p[d] for d in ATTACKER_DISPOSITIONS)

        chain = [mass(Band.AVERAGE, Band.AVERAGE),
                 mass(Band.ABOVE_AVERAGE, Band.ABOVE_AVERAGE),
                 mass(Band.HIGH, Band.HIGH)]
        assert chain[0] < chain[1] < chain[2]

    def test_degenerate_priors_rejected(self):
        fv = FeatureVector(Band.LOW, Band.LOW, Band.LOW, HistoryDepth.AMPLE)
        with pytest.raises(DegenerateDistribution):
            posterior(fv, prior=(0.0,) * 5)
        with pytest.raises(DegenerateDistribution):
            posterior(fv, prior=(0.5, 0.5))
        with pytest.raises(DegenerateDistribution):
            posterior(fv, prior=(-0.1, 0.3, 0.3, 0.3, 0.2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_priors_rejected(self, bad):
        # NaN passes every comparison check and would make the whole
        # posterior NaN, so no peer would ever classify as hostile
        fv = FeatureVector(Band.LOW, Band.LOW, Band.LOW, HistoryDepth.AMPLE)
        with pytest.raises(DegenerateDistribution):
            posterior(fv, prior=(bad, 0.2, 0.45, 0.1, 0.1))


class TestCptValidation:
    def test_default_is_valid(self):
        for depth in HistoryDepth:
            for disposition in Disposition:
                row = DEFAULT_CPT.tables[depth][disposition]
                assert len(row) == 5
                assert abs(sum(row) - 1.0) <= 1e-9

    def test_wrong_table_count(self):
        with pytest.raises(InvalidConfig):
            Cpt((ORACLE_TABLES[HistoryDepth.AMPLE],))

    def test_row_sum_must_be_one(self):
        bad = tuple(
            tuple((0.2, 0.2, 0.2, 0.2, 0.3) for _ in range(5)) for _ in range(3)
        )
        with pytest.raises(InvalidConfig):
            Cpt(bad)

    def test_negative_probability(self):
        bad = tuple(
            tuple((-0.1, 0.3, 0.3, 0.3, 0.2) for _ in range(5)) for _ in range(3)
        )
        with pytest.raises(InvalidConfig):
            Cpt(bad)

    def test_nan_probability(self):
        tables = [list(table) for table in DEFAULT_CPT.tables]
        tables[HistoryDepth.AMPLE][Disposition.FAIR] = (math.nan,) * 5
        with pytest.raises(InvalidConfig, match="AMPLE/FAIR: non-finite"):
            Cpt(tuple(map(tuple, tables)))

    @staticmethod
    def tables_with(depth, disposition, row):
        tables = [list(table) for table in DEFAULT_CPT.tables]
        tables[depth][disposition] = row
        return tuple(map(tuple, tables))

    @pytest.mark.parametrize("tables,message", [
        (DEFAULT_CPT.tables[:2], "need one table per history depth, got 2"),
        (DEFAULT_CPT.tables + DEFAULT_CPT.tables[:1], "need one table per history depth, got 4"),
        (DEFAULT_CPT.tables[:1] + (DEFAULT_CPT.tables[1][:4],) + DEFAULT_CPT.tables[2:],
         "LIMITED: need one row per disposition"),
    ], ids=["two-tables", "four-tables", "four-rows"])
    def test_shape_diagnostics(self, tables, message):
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            Cpt(tables)

    @pytest.mark.parametrize("row,message", [
        ((0.5, 0.5, 0.0, 0.0), "need one entry per band"),
        ((0.5, 0.2, 0.1, 0.1, 0.1, 0.0), "need one entry per band"),
        ((1.2, -0.2, 0.0, 0.0, 0.0), "negative probability"),
        ((-math.inf, 0.2, 0.2, 0.2, 0.2), "negative probability"),
        ((math.inf, 0.2, 0.2, 0.2, 0.2), "non-finite probability"),
        ((0.2, 0.2, 0.2, 0.2, math.nan), "non-finite probability"),
        ((0.9, 0.2, 0.1, 0.1, 0.1), "row sums to 1.4"),
        ((0.2, 0.2, 0.2, 0.2, 0.2 + 1e-8), "row sums to 1.00000001"),
    ], ids=["short", "long", "negative", "minus-inf", "inf", "nan", "sum-high", "sum-off-by-1e-8"])
    def test_row_diagnostics_name_the_row(self, row, message):
        with pytest.raises(InvalidConfig, match=re.escape(f"LIMITED/ALTRUIST: {message}")):
            Cpt(self.tables_with(HistoryDepth.LIMITED, Disposition.ALTRUIST, row))

    def test_row_sum_within_tolerance_is_accepted(self):
        row = (0.2, 0.2, 0.2, 0.2, 0.2 + 1e-10)
        assert Cpt(self.tables_with(HistoryDepth.LIMITED, Disposition.ALTRUIST, row)).tables[1][4] == row

    @pytest.mark.parametrize("depth", list(HistoryDepth), ids=lambda d: d.name)
    def test_custom_row_drives_the_posterior(self, depth):
        # a replaced row changes the posterior at its own depth only
        uniform = (0.2,) * 5
        cpt = Cpt(self.tables_with(depth, Disposition.FAIR, uniform))
        tables = dict(ORACLE_TABLES)
        tables[depth] = tuple(uniform if d is Disposition.FAIR else row
                              for d, row in zip(Disposition, ORACLE_TABLES[depth]))
        for other, sg, pq, gt in itertools.product(HistoryDepth, Band, Band, Band):
            fv = FeatureVector(sg, pq, gt, other)
            assert posterior(fv, cpt) == pytest.approx(oracle_posterior(fv, tables), abs=1e-12)


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
        lambda p, day: p.record_negotiation(day, True, True),
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
                quit_ = rng.random() < 0.2
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
        assert a.window_negotiations == 5

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

    def test_custom_cpt_and_prior_reach_the_posterior(self):
        flat = Cpt(tuple(tuple((0.2,) * 5 for _ in Disposition) for _ in HistoryDepth))
        prior = (1.0, 1.0, 1.0, 1.0, 4.0)
        a = assess(self.hostile_profile(), cpt=flat, prior=prior)
        # flat likelihoods leave the normalised prior as the posterior
        assert a.posterior == pytest.approx((0.125, 0.125, 0.125, 0.125, 0.5), abs=1e-15)
        assert not a.is_attacker
        b = assess(self.hostile_profile(), prior=prior)
        assert b.posterior == pytest.approx(oracle_posterior(b.features, prior=prior), abs=1e-12)

    def test_attacker_mass_threshold_is_strict(self):
        p = self.hostile_profile()
        relaxed = assess(p, attacker_mass_threshold=0.99)
        assert not relaxed.is_attacker
        assert 0.0 < ATTACKER_MASS_THRESHOLD < 1.0
