"""The three benchmark workloads: inputs from a seed, timed passes, checks.

Every workload is a closed loop in one thread: the next call into the
library starts only after the previous one returned.  A workload's inputs
are fixed by its seed, and every pass replays the same inputs, so every
pass must produce the same output digest.

* ``pair_minute``: the ``var_tbb_strength`` preset's strength-1.0 column
  (modes S, L, C, LC; two devices; minute-scale groups) through
  ``run_experiment`` and ``emit_csv``.  The simulator event loop and the
  per-negotiation peer-profile bookkeeping dominate; only the L and LC
  cells call the classifier.
* ``crowd_hour``: the ``attacker_ratio_10`` preset (S and L at ratios
  0.25/0.5/0.75; ten devices; hour-long groups).  Many short runs with
  many peer pairs, so per-run and per-device costs show.
* ``handshake_codec``: seeded ``negotiate`` calls in all three modes with
  honest, pinned, tampering, quitting and aborting parties, then encode
  and decode round trips of vendor IEs, attribute lists and openings,
  plus decodes of mutated and random bytes.  The only workload in which
  ``protocol`` and ``commitment`` do the work.

Apart from ``energy_conserved``, the named invariant, the output checks use
code of their own (byte layouts, owner rule, SHA-256) rather than the
library's, so the library cannot vouch for itself and the tracer never
counts a check as library work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import struct
from contextlib import nullcontext
from time import perf_counter

from wfdsim import cli, commitment, learning, protocol, simulation

# SHA-256 of each workload's output at the default seed (0) on the seed
# commit: the emit_csv bytes for the sweeps, the outcome/transcript and
# codec-result summary for handshake_codec.  A change that keeps
# behaviour keeps these.
DEFAULT_SEED = 0
PINNED_DIGESTS = {
    "pair_minute": "bf5cb0f0db7e1c26f777dffd0618b0618a8bb9d4fee4fbf578247ad5e0c9abd1",
    "crowd_hour": "0e1fef29fc6e67559cd4ba27f393a6a2b45b08121ecc3e3d91c73e8dcaefb803",
    "handshake_codec": "b9e107fd7d300816627337327136a9a9ced9e43c5cc4dd55e5533afb99dd8184",
}

SESSION_KINDS = ("group", "avoided", "rejected", "declined", "exhausted")


class Checks:
    """Output checks: each one counts as attempted, and failed if it fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, *args) -> None:
        """Count one check; ``what.format(*args)`` describes a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what.format(*args))


@dataclasses.dataclass
class PassResult:
    seconds: float                 # timed region only
    ops: int                       # operations completed in the timed region
    digest: str
    phases: dict[str, tuple[int, float]]   # phase -> (operations, seconds)
    tally: dict[str, int]          # session counts (sweeps, traced passes only)
    run_seconds: list[float] = dataclasses.field(default_factory=list)
    ref_second: float = 0.0        # wall seconds of a reference second around the pass


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# simulation sweeps


def check_sim_result(result, checks: Checks) -> None:
    """Energy books balance, and role seconds cover the horizon or life."""
    for stats in result.devices:
        checks.check(simulation.energy_conserved(stats),
                     "seed {} {}: energy books do not balance", result.seed, stats.device_id)
        lived = stats.idle_seconds + stats.client_seconds + stats.go_seconds
        if stats.depletion_day is None:
            ok = lived == result.horizon_seconds
        else:
            death = stats.depletion_day * learning.SECONDS_PER_DAY
            ok = lived <= death + 1e-6 and death < lived + 1 + 1e-6
        checks.check(ok, "seed {} {}: role seconds {} do not reach horizon or death",
                     result.seed, stats.device_id, lived)


def tally_sessions(result, tally: dict[str, int]) -> None:
    kinds = dict.fromkeys(SESSION_KINDS, 0)
    for session in result.sessions:
        kinds[session[1]] += 1
    for kind, count in kinds.items():
        tally[kind] = tally.get(kind, 0) + count
    # every tie round bumps both of its parties
    tally["tie_rounds"] = tally.get("tie_rounds", 0) + sum(d.tie_rounds for d in result.devices) // 2
    tally["skips_busy"] = tally.get("skips_busy", 0) + sum(d.skips_busy for d in result.devices)
    tally["sessions"] = tally.get("sessions", 0) + len(result.sessions)
    tally["max_log"] = max(tally.get("max_log", 0), len(result.sessions))


class Sweep:
    """A preset sweep through ``run_experiment`` and ``emit_csv``."""

    def __init__(self, name: str, cfg):
        self.name = name
        self.cfg = cfg

    def warm_up(self) -> None:
        cli.emit_csv(cli.run_experiment(dataclasses.replace(self.cfg, horizon_days=3)))

    def run_pass(self, checks: Checks, tracer=None) -> PassResult:
        tally: dict[str, int] = {}
        run_seconds: list[float] = []
        inner = cli.run

        def checked_run(*args, **kwargs):
            # sits at the cli -> simulation boundary and sees every SimResult
            start = perf_counter()
            result = inner(*args, **kwargs)
            run_seconds.append(perf_counter() - start)
            with _span(tracer, "bench.check"):
                check_sim_result(result, checks)
                if tracer is not None:
                    tally_sessions(result, tally)
            return result

        cli.run = checked_run
        try:
            with _span(tracer, "bench.pass"):
                start = perf_counter()
                payload = cli.emit_csv(cli.run_experiment(self.cfg))
                seconds = perf_counter() - start
        finally:
            cli.run = inner
        return PassResult(seconds, len(run_seconds), hashlib.sha256(payload).hexdigest(),
                          {"runs": (len(run_seconds), seconds)}, tally, run_seconds)


def pair_minute(seed: int, horizon_days: int = 400) -> Sweep:
    cfg = dataclasses.replace(cli.preset("var_tbb_strength"), grid=(1.0,), seeds=1,
                              seed_base=seed, horizon_days=horizon_days)
    return Sweep("pair_minute", cfg)


def crowd_hour(seed: int, horizon_days: int = 400, seeds: int = 10) -> Sweep:
    cfg = dataclasses.replace(cli.preset("attacker_ratio_10"), seeds=seeds,
                              seed_base=seed * seeds, horizon_days=horizon_days)
    return Sweep("crowd_hour", cfg)


# ---------------------------------------------------------------------------
# handshakes and codecs: independent reference encodings


def ie_bytes(element_id: int, oui: bytes, oui_type: int, payload: bytes) -> bytes:
    return bytes((element_id, 4 + len(payload))) + oui + bytes((oui_type,)) + payload


def attrs_bytes(attrs) -> bytes:
    return b"".join(struct.pack("<BH", a, len(d)) + d for a, d in attrs)


def opening_bytes(nonce: bytes, intent: int, tie_bit: int) -> bytes:
    return nonce + bytes((intent, tie_bit))


def owner_rule(intent_i: int, intent_r: int, bit: int) -> str:
    if intent_i == 15 and intent_r == 15:
        return "failed_both_require_go"
    if intent_i != intent_r:
        return "initiator_is_go" if intent_i > intent_r else "responder_is_go"
    return "initiator_is_go" if bit else "responder_is_go"


def _opens(commitment_obj, opening) -> bool:
    return hashlib.sha256(opening_bytes(opening.nonce, opening.intent, opening.tie_bit)
                          ).digest() == commitment_obj.digest


_ABORT_PHASES = (protocol.AbortPhase.AFTER_REQUEST, protocol.AbortPhase.AFTER_RESPONSE,
                 protocol.AbortPhase.AFTER_CONFIRMATION)


def _party(rng: random.Random, device_id: str) -> protocol.Party:
    # intent 7 most of the time, so the tie-breaker decides
    intent = 7 if rng.random() < 0.6 else rng.choice((0, 3, 7, 12, 15, rng.randrange(16)))
    behaviour = rng.random()
    party = protocol.Party(device_id, intent=intent)
    if behaviour < 0.5:
        pass
    elif behaviour < 0.65:
        party.tie_bit = rng.getrandbits(1)
    elif behaviour < 0.75:
        party.tamper_opening = True
    elif behaviour < 0.85:
        party.quit_if_go = True
    else:
        party.abort_after = rng.choice(_ABORT_PHASES)
    return party


def _mutate(rng: random.Random, data: bytes) -> bytes:
    choice = rng.randrange(4)
    if choice == 0 and data:
        return data[:rng.randrange(len(data))]
    if choice == 1:
        return data + rng.randbytes(rng.randrange(1, 8))
    if choice == 2 and data:
        pos = rng.randrange(len(data))
        return data[:pos] + bytes((data[pos] ^ (1 << rng.randrange(8)),)) + data[pos + 1:]
    if len(data) > 2:
        pos = rng.randrange(3)
        return data[:pos] + bytes((rng.randrange(256),)) + data[pos + 1:]
    return rng.randbytes(rng.randrange(64))


class HandshakeCodec:
    """Negotiations in all modes, then codec round trips and malformed decodes."""

    name = "handshake_codec"
    DECODERS = ("vendor_ie", "p2p_attributes", "opening")

    def __init__(self, seed: int, handshakes: int = 1500, frames: int = 700):
        rng = random.Random(seed)
        self.pass_seed = rng.getrandbits(64)
        modes = tuple(protocol.NegotiationMode)
        self.scenarios = [(modes[i % 3], _party(rng, "a"), _party(rng, "b"))
                          for i in range(handshakes)]
        self.ies = []      # (VendorIe, reference bytes)
        self.attrs = []    # (list[P2pAttribute], reference bytes)
        self.openings = []  # (Opening, reference bytes)
        for _ in range(frames):
            payload_len = 32 if rng.random() < 0.5 else rng.randrange(252)
            oui = protocol.P2P_OUI if rng.random() < 0.7 else rng.randbytes(3)
            fields = (rng.choice((0xDD, rng.randrange(256))), oui, rng.randrange(256),
                      rng.randbytes(payload_len))
            self.ies.append((protocol.VendorIe(*fields), ie_bytes(*fields)))
            raw = [(rng.choice((0xF0, 0xF1, 0xF2, rng.randrange(256))),
                    rng.randbytes(rng.choice((1, 32, 34, rng.randrange(48)))))
                   for _ in range(rng.randrange(1, 5))]
            self.attrs.append(([protocol.P2pAttribute(a, d) for a, d in raw], attrs_bytes(raw)))
            fields = (rng.randbytes(32), rng.randrange(16), rng.getrandbits(1))
            self.openings.append((commitment.Opening(*fields), opening_bytes(*fields)))
        sources = (self.ies, self.attrs, self.openings)
        self.malformed = []  # (decoder index, bytes)
        for _ in range(3 * frames):
            which = rng.randrange(3)
            if rng.random() < 0.25:
                data = rng.randbytes(rng.randrange(64))
            else:
                data = _mutate(rng, rng.choice(sources[which])[1])
            self.malformed.append((which, data))

    def warm_up(self) -> None:
        self.run_pass(Checks())

    def run_pass(self, checks: Checks, tracer=None) -> PassResult:
        # looked up per pass, so wrappers installed by a tracer are seen
        decoders = (protocol.decode_vendor_ie, protocol.parse_p2p_attributes,
                    commitment.decode_opening)
        with _span(tracer, "bench.pass"):
            start = perf_counter()
            with _span(tracer, "bench.handshakes"):
                rng = random.Random(self.pass_seed)
                negotiate = protocol.negotiate
                outcomes = [negotiate(mode, a, b, rng) for mode, a, b in self.scenarios]
            middle = perf_counter()
            with _span(tracer, "bench.codec"):
                encode_attrs = protocol.encode_p2p_attributes
                decode_ie, decode_attrs, decode_opening = decoders
                trips = []
                for ie, _ in self.ies:
                    data = ie.encode()
                    trips.append((data, decode_ie(data)))
                for attrs, _ in self.attrs:
                    data = encode_attrs(attrs)
                    trips.append((data, decode_attrs(data)))
                for opening, _ in self.openings:
                    data = opening.encode()
                    trips.append((data, decode_opening(data)))
                results = []
                for which, data in self.malformed:
                    try:
                        results.append(decoders[which](data))
                    except Exception as exc:  # classified by the checks below
                        results.append(exc)
            end = perf_counter()
        digest = self._check(checks, outcomes, trips, results)
        valid = len(self.ies) + len(self.attrs) + len(self.openings)
        decodes = valid + len(self.malformed)
        return PassResult(end - start, len(outcomes) + valid + decodes, digest,
                          {"handshakes": (len(outcomes), middle - start),
                           "decodes": (decodes, end - middle)}, {})

    def _check(self, checks: Checks, outcomes, trips, results) -> str:
        summary = []
        for (mode, a, b), (outcome, transcript) in zip(self.scenarios, outcomes):
            summary.append(_check_negotiation(checks, mode, a, b, outcome, transcript))
        originals = ([ie for ie, _ in self.ies] + [a for a, _ in self.attrs]
                     + [o for o, _ in self.openings])
        references = ([r for _, r in self.ies] + [r for _, r in self.attrs]
                      + [r for _, r in self.openings])
        for original, reference, (data, back) in zip(originals, references, trips):
            checks.check(data == reference and back == original,
                         "round trip differs for {}", reference)
        for (which, data), result in zip(self.malformed, results):
            if isinstance(result, ValueError):
                label = type(result).__name__
                ok = True
            elif isinstance(result, Exception):
                label = type(result).__name__
                ok = False
            else:
                label = "ok"
                ok = _reencode(which, result) == data
            checks.check(ok, "{} on {}: {}", self.DECODERS[which], data, label)
            summary.append(label)
        return hashlib.sha256("\n".join(summary).encode()).hexdigest()


def _reencode(which: int, decoded) -> bytes:
    if which == 0:
        return ie_bytes(decoded.element_id, decoded.oui, decoded.oui_type, decoded.payload)
    if which == 1:
        return attrs_bytes((a.attr_id, a.data) for a in decoded)
    return opening_bytes(decoded.nonce, decoded.intent, decoded.tie_bit)


def _check_negotiation(checks: Checks, mode, a, b, outcome, transcript) -> str:
    """Check one negotiation against the owner rule and the XOR law.

    Returns the line this negotiation adds to the digest summary.
    """
    kind = outcome.kind.value
    aborted = kind == "aborted"
    where = (mode.value, a, b)
    by_type = {type(m).__name__: m for m in transcript}
    request = by_type.get("GoNegotiationRequest")
    response = by_type.get("GoNegotiationResponse")
    confirmation = by_type.get("GoNegotiationConfirmation")
    bits = []
    if mode is protocol.NegotiationMode.STANDARD:
        bit = request.tie_bit
        if response is not None:
            checks.check(response.tie_bit == bit ^ 1, "{} {} {}: response bit not flipped", *where)
        coin = bit
    else:
        if mode is protocol.NegotiationMode.PROBE_COMMIT:
            probes = [m for m in transcript if type(m).__name__ == "Probe"]
            pairs = [(probes[0].tie_commitment, request.opening)]
            if response is not None:
                pairs.append((probes[1].tie_commitment, response.opening))
            coin = (request.opening.tie_bit ^ response.opening.tie_bit
                    if response is not None else None)
        else:
            pairs = [(request.commitment, confirmation.opening)] if confirmation else []
            coin = (confirmation.opening.tie_bit ^ response.tie_bit
                    if confirmation is not None else None)
        opened = [_opens(c, o) for c, o in pairs]
        bits = [o.tie_bit for _, o in pairs]
        # a tampered opening never verifies, and a failed opening aborts
        for party, (c, o), ok in zip((a, b), pairs, opened):
            if party.tamper_opening:
                checks.check(not ok, "{} {} {}: tampered opening verified", *where)
        checks.check(all(opened) or aborted, "{} {} {}: bad opening did not abort", *where)
    if not aborted:
        expected = owner_rule(a.intent, b.intent, coin)
        checks.check(kind == expected, "{} {} {}: outcome {}, owner rule says {}",
                     *where, kind, expected)
        if confirmation is not None:
            checks.check(confirmation.selected.value == expected,
                         "{} {} {}: confirmation names {}", *where, confirmation.selected.value)
        checks.check(not (kind == "initiator_is_go" and a.quit_if_go)
                     and not (kind == "responder_is_go" and b.quit_if_go),
                     "{} {} {}: quitting party left as owner", *where)
    else:
        checks.check(outcome.aborted_by in (a.device_id, b.device_id),
                     "{} {} {}: aborted by a stranger", *where)
    messages = " ".join(type(m).__name__ for m in transcript)
    phase = outcome.abort_phase.value if outcome.abort_phase else "-"
    return f"{mode.value} {kind} {outcome.aborted_by} {phase} {bits} {messages}"


def build(name: str, seed: int):
    if name == "pair_minute":
        return pair_minute(seed)
    if name == "crowd_hour":
        return crowd_hour(seed)
    if name == "handshake_codec":
        return HandshakeCodec(seed)
    raise ValueError(f"unknown workload {name!r}")
