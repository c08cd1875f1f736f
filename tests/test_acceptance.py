"""Acceptance gate: the end-to-end claims the package stands behind.

Each test covers one numbered claim and prints a single PASS/FAIL verdict
line with the measured values, so a full run reads as a checklist.  The
claims mix exact structural checks (frame sizes, codec round-trips), an
independent enumeration oracle for the classifier, closed-form battery
anchors, and qualitative orderings over seeded simulation batches.
"""

import itertools
import time
from random import Random

from wfdsim.cli import ExperimentConfig, run_experiment
from wfdsim.commitment import Opening, commit, decode_opening, verify
from wfdsim.learning import Band, FeatureVector, HistoryDepth, posterior
from wfdsim.protocol import (
    GoNegotiationRequest,
    GoNegotiationResponse,
    NegotiationMode,
    OutcomeKind,
    P2pAttribute,
    Party,
    Probe,
    VendorIe,
    compat_tie_bit_attr,
    decode_vendor_ie,
    encode_p2p_attributes,
    negotiate,
    parse_p2p_attributes,
    tie_commitment_attr,
    tie_commitment_ie,
)
from wfdsim.simulation import (
    AttackProfile,
    DefenseMode,
    DeviceConfig,
    HOUR_SCHEDULE,
    MINUTE_SCHEDULE,
    SECONDS_PER_DAY,
    energy_conserved,
    run,
)

S, L = DefenseMode.STANDARD, DefenseMode.LEARNING
C, LC = DefenseMode.COMMITMENT, DefenseMode.LEARNING_COMMITMENT

SEEDS = 10
HORIZON_DAYS = 400


def verdict(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


def sweep(modes, sweep_var, grid, **overrides):
    settings = dict(device_count=2, modes=modes,
                    sweep=sweep_var, grid=grid, seeds=SEEDS,
                    horizon_days=HORIZON_DAYS, schedule=MINUTE_SCHEDULE)
    settings.update(overrides)
    return run_experiment(ExperimentConfig(**settings))


def victim_vs_attacker(defense, tbb, r=0.0):
    return [
        DeviceConfig("victim", defense=defense),
        DeviceConfig("attacker", schedule=MINUTE_SCHEDULE,
                     attack=AttackProfile(tbb_strength=tbb, r_strength=r)),
    ]


def test_criterion_1_frame_overheads():
    started = time.perf_counter()
    zero = commit(Opening(bytes(32), 0, 0))
    ie = len(tie_commitment_ie(zero).encode())
    attr = len(tie_commitment_attr(zero).encode())
    compat = len(compat_tie_bit_attr(0).encode())
    elapsed = time.perf_counter() - started
    ok = ie == 38 and attr == 35 and compat == 4 and elapsed < 1.0
    verdict(1, "frame overheads",
            ok, f"commitment IE {ie}B (want 38), commitment attribute {attr}B "
                f"(want 35), compatibility tie-bit attribute {compat}B (want 4), "
                f"{elapsed:.3f}s")


def test_criterion_2_posterior_matches_enumeration_oracle():
    # independently typed likelihood tables and prior
    tables = {
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
    prior = (0.15, 0.20, 0.45, 0.10, 0.10)
    started = time.perf_counter()
    worst = 0.0
    count = 0
    for depth, sg, pq, gt in itertools.product(HistoryDepth, Band, Band, Band):
        count += 1
        got = posterior(FeatureVector(sg, pq, gt, depth))
        table = tables[depth]
        joint = [prior[d] * table[d][sg] * table[d][pq] * table[d][gt]
                 for d in range(5)]
        total = sum(joint)
        want = [j / total for j in joint]
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    elapsed = time.perf_counter() - started
    ok = count == 375 and worst <= 1e-12 and elapsed < 1.0
    verdict(2, "classifier vs enumeration oracle",
            ok, f"{count} feature vectors, max deviation {worst:.2e} "
                f"(bound 1e-12), {elapsed:.3f}s")


def test_criterion_3_depletion_anchors():
    means = {}
    slowest = 0.0
    for mode in (S, C, L):
        started = time.perf_counter()
        row = sweep((mode,), "tbb_strength", (1.0,))[0]
        slowest = max(slowest, time.perf_counter() - started)
        means[mode] = row.mean_days
    ok = (abs(means[S] - 136.9) <= 1.0
          and abs(means[C] - 190.4) <= 1.5
          and means[L] >= 360.0
          and slowest < 10.0)
    verdict(3, "closed-form battery anchors",
            ok, f"standard {means[S]:.3f}d (want 136.9±1.0), "
                f"commitment {means[C]:.3f}d (want 190.4±1.5), "
                f"learning {means[L]:.3f}d (want ≥360), "
                f"slowest point {slowest:.1f}s (cap 10s)")


def test_criterion_4_detection_onset():
    rows = {(row.sweep_value, row.mode): row
            for row in sweep((S, L), "tbb_strength", (0.1, 0.2, 0.3))}

    def gap(strength):
        s_row, l_row = rows[(strength, S)], rows[(strength, L)]
        delta = l_row.mean_days - s_row.mean_days
        pooled = (l_row.stddev_days ** 2 + s_row.stddev_days ** 2) ** 0.5
        return delta, pooled, s_row, l_row

    quiet = []
    for strength in (0.1, 0.2):
        delta, pooled, _, _ = gap(strength)
        quiet.append(abs(delta) < 2 * pooled)
    delta3, _, s3, l3 = gap(0.3)
    separated = (l3.mean_days - 2 * l3.stddev_days
                 > s3.mean_days + 2 * s3.stddev_days)
    ok = all(quiet) and separated
    verdict(4, "learning defense onset at strength 0.3",
            ok, f"gaps at 0.1/0.2 within 2 pooled stddevs: {quiet}, "
                f"at 0.3 learning {l3.mean_days:.1f}±{l3.stddev_days:.1f}d vs "
                f"standard {s3.mean_days:.1f}±{s3.stddev_days:.1f}d "
                f"(+{delta3:.1f}d, 2-sigma bands disjoint: {separated})")


def test_criterion_5_quit_attack_ordering():
    rows = {row.mode: row
            for row in sweep((C, L), "r_strength", (0.8,), tbb_strength=0.5)}
    ok = rows[L].mean_days > rows[C].mean_days
    verdict(5, "learning beats commitment under strong quit attack",
            ok, f"learning {rows[L].mean_days:.1f}d > "
                f"commitment {rows[C].mean_days:.1f}d at quit rate 0.8, "
                f"tie manipulation 0.5")


def test_criterion_6_many_attackers():
    rows = sweep((L,), "attacker_ratio", (0.25, 0.5, 0.75),
                 device_count=10, schedule=HOUR_SCHEDULE, tbb_strength=1.0)
    means = [row.mean_days for row in rows]
    ok = means[0] <= means[1] <= means[2]
    verdict(6, "victim lifetime non-decreasing in attacker ratio",
            ok, "10 devices, learning defense: "
                + " <= ".join(f"{m:.1f}d" for m in means)
                + f" across ratios {[row.sweep_value for row in rows]}")


def test_criterion_7_commitment_fairness():
    horizon = 120 * SECONDS_PER_DAY
    shares = []
    fair = True
    for defense, tbb in ((C, 0.0), (C, 0.5), (C, 1.0), (LC, 1.0)):
        ties = wins = 0
        for seed in range(SEEDS):
            result = run(victim_vs_attacker(defense, tbb),
                         horizon=horizon, seed=seed)
            victim = result.device("victim")
            ties += victim.tie_rounds
            wins += victim.go_assignments
        share = wins / ties
        bound = 3 * 0.5 / ties ** 0.5
        fair = fair and abs(share - 0.5) <= bound
        shares.append(f"{defense.value}@{tbb:g}:{share:.4f}±{bound:.4f}")

    def coin_respected(outcome, transcript):
        request = next(m for m in transcript if isinstance(m, GoNegotiationRequest))
        response = next(m for m in transcript if isinstance(m, GoNegotiationResponse))
        probe_i, probe_r = [m for m in transcript if isinstance(m, Probe)]
        if not (verify(probe_i.tie_commitment, request.opening)
                and verify(probe_r.tie_commitment, response.opening)):
            return False
        coin = request.opening.tie_bit ^ response.opening.tie_bit
        expected = (OutcomeKind.INITIATOR_IS_GO if coin
                    else OutcomeKind.RESPONDER_IS_GO)
        return outcome.kind is expected

    rng = Random(777)
    xor_law = True
    for bit_i, bit_r in itertools.product((0, 1), repeat=2):
        outcome, transcript = negotiate(
            NegotiationMode.PROBE_COMMIT,
            Party("i", tie_bit=bit_i), Party("r", tie_bit=bit_r), rng)
        xor_law = xor_law and coin_respected(outcome, transcript)
    checked = 4
    for _ in range(10_000):
        outcome, transcript = negotiate(
            NegotiationMode.PROBE_COMMIT, Party("i"), Party("r"), rng)
        xor_law = xor_law and coin_respected(outcome, transcript)
        checked += 1
    ok = fair and xor_law
    verdict(7, "owner share fair and coin equals revealed XOR",
            ok, f"victim owner shares {', '.join(shares)} (bound 0.5±3 sigma); "
                f"XOR law held on {checked} verified transcripts: {xor_law}")


def test_criterion_8_determinism_and_conservation():
    horizon = 40 * SECONDS_PER_DAY
    cases = [
        victim_vs_attacker(S, 1.0),
        victim_vs_attacker(L, 0.5, r=0.3),
        [DeviceConfig("a", defense=C, schedule=MINUTE_SCHEDULE),
         DeviceConfig("b", defense=C, schedule=MINUTE_SCHEDULE)],
        [DeviceConfig("victim", defense=LC, schedule=HOUR_SCHEDULE),
         DeviceConfig("mallory", schedule=HOUR_SCHEDULE,
                      attack=AttackProfile(tbb_strength=1.0, r_strength=0.5)),
         DeviceConfig("peer0", defense=LC, schedule=HOUR_SCHEDULE),
         DeviceConfig("peer1", defense=LC, schedule=HOUR_SCHEDULE),
         DeviceConfig("peer2", defense=LC, schedule=HOUR_SCHEDULE)],
    ]
    identical = conserved = checked_devices = 0
    for configs in cases:
        first = run(configs, horizon=horizon, seed=11)
        second = run(configs, horizon=horizon, seed=11)
        if first.to_json() == second.to_json():
            identical += 1
        for stats in first.devices:
            checked_devices += 1
            if energy_conserved(stats):
                conserved += 1
    ok = identical == len(cases) and conserved == checked_devices
    verdict(8, "byte-identical replays and exact energy books",
            ok, f"{identical}/{len(cases)} configurations replayed "
                f"byte-identically; {conserved}/{checked_devices} devices "
                f"balanced capacity - remaining exactly")


def test_criterion_9_codec_fuzz():
    rng = Random(2024)

    def valid_ie():
        return VendorIe(rng.randrange(256), rng.randbytes(3),
                        rng.randrange(256), rng.randbytes(rng.randrange(252)))

    def valid_attrs():
        return [P2pAttribute(rng.randrange(256), rng.randbytes(rng.randrange(40)))
                for _ in range(rng.randrange(4))]

    def valid_opening():
        return Opening(rng.randbytes(32), rng.randrange(16), rng.getrandbits(1))

    pools = {
        "ie": [valid_ie().encode() for _ in range(200)],
        "attrs": [encode_p2p_attributes(valid_attrs()) for _ in range(200)],
        "opening": [valid_opening().encode() for _ in range(200)],
    }

    def mutate(encoded: bytes) -> bytes:
        choice = rng.randrange(3)
        if choice == 0 and encoded:
            cut = rng.randrange(len(encoded) + 1)
            return encoded[:cut]
        if choice == 1:
            return encoded + rng.randbytes(rng.randrange(1, 4))
        if encoded:
            buf = bytearray(encoded)
            buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
            return bytes(buf)
        return rng.randbytes(rng.randrange(8))

    def fuzz(decoder, pool, iterations):
        accepted = 0
        for _ in range(iterations):
            if rng.getrandbits(1):
                data = rng.randbytes(rng.randrange(64))
            else:
                data = mutate(pool[rng.randrange(len(pool))])
            try:
                decoder(data)
            except ValueError:
                continue
            accepted += 1
        return accepted

    started = time.perf_counter()
    budget = {"ie": 400_000, "attrs": 300_000, "opening": 300_000}
    decoders = {"ie": decode_vendor_ie, "attrs": parse_p2p_attributes,
                "opening": decode_opening}
    accepted = {name: fuzz(decoders[name], pools[name], budget[name])
                for name in budget}

    round_trips = 0
    for _ in range(2000):
        ie = valid_ie()
        attrs = valid_attrs()
        opening = valid_opening()
        if (decode_vendor_ie(ie.encode()) == ie
                and parse_p2p_attributes(encode_p2p_attributes(attrs)) == attrs
                and decode_opening(opening.encode()) == opening):
            round_trips += 1
    elapsed = time.perf_counter() - started
    total = sum(budget.values())
    ok = round_trips == 2000
    verdict(9, "decoder fuzzing and round-trip identity",
            ok, f"{total} fuzz decodes raised nothing but ValueError "
                f"(accepted {accepted['ie']}/{accepted['attrs']}/"
                f"{accepted['opening']} for IE/attributes/opening); "
                f"{round_trips}/2000 corpus round-trips exact; {elapsed:.1f}s")
