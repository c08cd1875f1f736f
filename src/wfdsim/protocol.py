"""Wi-Fi Direct group-owner negotiation with optional tie-breaker commitments.

Wire formats
------------
Vendor-specific information element::

    [element id: 1][length: 1][OUI: 3][OUI type: 1][payload: 0..251]

where the length byte covers OUI, OUI type and payload (4 + payload size).

P2P attribute, carried inside a P2P information element::

    [attribute id: 1][attribute length: 2, little endian][data]

Negotiation
-----------
Three handshake variants are implemented:

* ``STANDARD`` -- plain request / response / confirmation.  The request
  carries the initiator's tie-breaker bit, the response echoes it flipped,
  and on equal intents the device that sent bit 1 becomes group owner.
* ``PROBE_COMMIT`` -- both devices publish a hash commitment to their tie
  bit during discovery (modelled as the leading probe messages).  The
  request opens the initiator's commitment, the responder verifies it,
  XORs the two committed bits, decides, and opens its own commitment in
  the response.
* ``INLINE_COMMIT`` -- the request itself carries the initiator's
  commitment, the responder discloses its bit plainly together with
  prepared outcomes for either owner, and the confirmation opens the
  commitment and names the selected result.

In both commitment variants the effective tie bit is the XOR of the two
revealed bits, so neither side can steer the coin without producing an
opening that fails verification.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from random import Random

from .commitment import Commitment, Opening, coin_flip, commit, random_nonce, verify

VENDOR_IE_ELEMENT_ID = 0xDD
VENDOR_IE_MAX_PAYLOAD = 251
VENDOR_IE_HEADER_LEN = 2          # element id + length byte
VENDOR_IE_FIXED_LEN = 4           # OUI + OUI type, covered by the length byte

P2P_OUI = bytes((0x50, 0x6F, 0x9A))
P2P_OUI_TYPE = 0x09               # standard P2P information element
TBBC_OUI_TYPE = 0xFF              # dedicated element for tie-breaker commitments

ATTR_HEADER_LEN = 3               # id byte + 16-bit length
ATTR_MAX_DATA = 0xFFFF

# Reserved P2P attribute identifiers used by the commitment handshakes.
ATTR_TIE_COMMITMENT = 0xF0
ATTR_TIE_OPENING = 0xF1
ATTR_COMPAT_TIE_BIT = 0xF2

INTENT_MANDATORY = 15


class DecodeError(ValueError):
    """Base class for wire-format parse failures."""


class Truncated(DecodeError):
    """Input ends before the structure it announces."""


class LengthMismatch(DecodeError):
    """A length field disagrees with the bytes actually present."""


class PayloadTooLong(ValueError):
    """Payload exceeds what the length field can express."""


class IntentValue(int):
    """Group-owner intent, 0..15; 15 means the device requires the role."""

    def __new__(cls, value: int) -> "IntentValue":
        v = int(value)
        if not 0 <= v <= INTENT_MANDATORY:
            raise ValueError(f"intent value out of range 0..15: {value!r}")
        return super().__new__(cls, v)


class TieBreakerBit(int):
    def __new__(cls, value: int) -> "TieBreakerBit":
        v = int(value)
        if v not in (0, 1):
            raise ValueError(f"tie-breaker bit must be 0 or 1: {value!r}")
        return super().__new__(cls, v)


@dataclass(frozen=True)
class VendorIe:
    element_id: int
    oui: bytes
    oui_type: int
    payload: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.element_id <= 0xFF:
            raise ValueError(f"element id out of range: {self.element_id}")
        if len(self.oui) != 3:
            raise ValueError(f"OUI must be 3 bytes, got {len(self.oui)}")
        if not 0 <= self.oui_type <= 0xFF:
            raise ValueError(f"OUI type out of range: {self.oui_type}")
        if len(self.payload) > VENDOR_IE_MAX_PAYLOAD:
            raise PayloadTooLong(f"vendor IE payload limited to {VENDOR_IE_MAX_PAYLOAD} bytes")

    @property
    def length(self) -> int:
        return VENDOR_IE_FIXED_LEN + len(self.payload)

    def encode(self) -> bytes:
        return bytes((self.element_id, self.length)) + self.oui + bytes((self.oui_type,)) + self.payload


def decode_vendor_ie(data: bytes) -> VendorIe:
    """Parse exactly one vendor IE; trailing bytes are rejected."""
    if len(data) < VENDOR_IE_HEADER_LEN:
        raise Truncated("vendor IE header needs 2 bytes")
    length = data[1]
    if length < VENDOR_IE_FIXED_LEN:
        raise LengthMismatch(f"vendor IE length {length} cannot cover OUI and OUI type")
    end = VENDOR_IE_HEADER_LEN + length
    if len(data) < end:
        raise Truncated(f"vendor IE announces {length} bytes, {len(data) - 2} present")
    if len(data) > end:
        raise LengthMismatch(f"{len(data) - end} trailing bytes after vendor IE")
    return VendorIe(data[0], bytes(data[2:5]), data[5], bytes(data[6:end]))


@dataclass(frozen=True)
class P2pAttribute:
    attr_id: int
    data: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.attr_id <= 0xFF:
            raise ValueError(f"attribute id out of range: {self.attr_id}")
        if len(self.data) > ATTR_MAX_DATA:
            raise PayloadTooLong("P2P attribute data limited to 65535 bytes")

    def encode(self) -> bytes:
        return struct.pack("<BH", self.attr_id, len(self.data)) + self.data


def encode_p2p_attributes(attrs: list[P2pAttribute]) -> bytes:
    return b"".join(a.encode() for a in attrs)


def parse_p2p_attributes(data: bytes) -> list[P2pAttribute]:
    """Parse a concatenated attribute sequence; empty input is an empty list."""
    attrs = []
    off = 0
    total = len(data)
    while off < total:
        if total - off < ATTR_HEADER_LEN:
            raise Truncated("attribute header needs 3 bytes")
        attr_id = data[off]
        (alen,) = struct.unpack_from("<H", data, off + 1)
        off += ATTR_HEADER_LEN
        if total - off < alen:
            raise Truncated(f"attribute announces {alen} data bytes, {total - off} present")
        attrs.append(P2pAttribute(attr_id, bytes(data[off:off + alen])))
        off += alen
    return attrs


def tie_commitment_ie(commitment: Commitment) -> VendorIe:
    """Commitment broadcast as a dedicated vendor IE (38 bytes on the wire)."""
    return VendorIe(VENDOR_IE_ELEMENT_ID, P2P_OUI, TBBC_OUI_TYPE, commitment.digest)


def tie_commitment_attr(commitment: Commitment) -> P2pAttribute:
    """Commitment as a reserved attribute in an existing P2P IE (35 bytes)."""
    return P2pAttribute(ATTR_TIE_COMMITMENT, commitment.digest)


def tie_opening_attr(opening: Opening) -> P2pAttribute:
    return P2pAttribute(ATTR_TIE_OPENING, opening.encode())


def compat_tie_bit_attr(bit: int) -> P2pAttribute:
    """Placeholder tie bit kept for legacy peers (4 bytes)."""
    return P2pAttribute(ATTR_COMPAT_TIE_BIT, bytes((TieBreakerBit(bit),)))


class NegotiationMode(Enum):
    STANDARD = "standard"
    PROBE_COMMIT = "probe_commit"
    INLINE_COMMIT = "inline_commit"


class OutcomeKind(Enum):
    INITIATOR_IS_GO = "initiator_is_go"
    RESPONDER_IS_GO = "responder_is_go"
    FAILED_BOTH_REQUIRE_GO = "failed_both_require_go"
    ABORTED = "aborted"


class AbortPhase(Enum):
    AFTER_REQUEST = "after_request"
    AFTER_RESPONSE = "after_response"
    AFTER_CONFIRMATION = "after_confirmation"


@dataclass(frozen=True)
class NegotiationOutcome:
    kind: OutcomeKind
    aborted_by: str | None = None
    abort_phase: AbortPhase | None = None

    def __post_init__(self) -> None:
        if self.kind is OutcomeKind.ABORTED:
            if self.aborted_by is None or self.abort_phase is None:
                raise ValueError("aborted outcome needs the aborting device and phase")
        elif self.aborted_by is not None or self.abort_phase is not None:
            raise ValueError("abort details only make sense on an aborted outcome")

    @staticmethod
    def aborted(by: str, phase: AbortPhase) -> "NegotiationOutcome":
        return NegotiationOutcome(OutcomeKind.ABORTED, by, phase)


def decide_go(initiator_intent: int, responder_intent: int, tie_bit: int) -> NegotiationOutcome:
    """Owner election rule: higher intent wins, bit 1 hands ties to the initiator.

    Two devices both requiring the role (intent 15) cannot form a group.
    """
    iv_i = IntentValue(initiator_intent)
    iv_r = IntentValue(responder_intent)
    bit = TieBreakerBit(tie_bit)
    if iv_i == INTENT_MANDATORY and iv_r == INTENT_MANDATORY:
        return NegotiationOutcome(OutcomeKind.FAILED_BOTH_REQUIRE_GO)
    if iv_i != iv_r:
        winner = OutcomeKind.INITIATOR_IS_GO if iv_i > iv_r else OutcomeKind.RESPONDER_IS_GO
        return NegotiationOutcome(winner)
    return NegotiationOutcome(OutcomeKind.INITIATOR_IS_GO if bit else OutcomeKind.RESPONDER_IS_GO)


@dataclass(frozen=True)
class Probe:
    sender: str
    tie_commitment: Commitment


@dataclass(frozen=True)
class GoNegotiationRequest:
    sender: str
    intent: int
    tie_bit: int                        # placeholder bit in commitment modes
    commitment: Commitment | None = None  # INLINE_COMMIT
    opening: Opening | None = None        # PROBE_COMMIT


@dataclass(frozen=True)
class GoNegotiationResponse:
    sender: str
    intent: int
    tie_bit: int
    opening: Opening | None = None                      # PROBE_COMMIT
    dual_outcomes: tuple[OutcomeKind, OutcomeKind] | None = None  # INLINE_COMMIT


@dataclass(frozen=True)
class GoNegotiationConfirmation:
    sender: str
    selected: OutcomeKind
    opening: Opening | None = None      # INLINE_COMMIT


Message = Probe | GoNegotiationRequest | GoNegotiationResponse | GoNegotiationConfirmation


@dataclass
class Party:
    """One negotiation endpoint plus optional scripted misbehaviour.

    ``tie_bit`` pins the bit a device will use (or commit to); ``None``
    draws a fair coin from the session RNG.  ``quit_if_go`` walks away
    whenever the outcome would make this device the owner.
    ``tamper_opening`` reveals a flipped bit, which an honest peer catches
    as a commitment mismatch.
    """

    device_id: str
    intent: int = 0
    tie_bit: int | None = None
    quit_if_go: bool = False
    tamper_opening: bool = False
    abort_after: AbortPhase | None = None


def negotiate(
    mode: NegotiationMode,
    initiator: Party,
    responder: Party,
    rng: Random,
) -> tuple[NegotiationOutcome, list[Message]]:
    """Run one owner negotiation; returns the outcome and the message transcript.

    RNG draws happen in a fixed order (initiator before responder), so a
    seeded run is reproducible message for message.
    """
    if mode is NegotiationMode.STANDARD:
        return _negotiate_standard(initiator, responder, rng)
    if mode is NegotiationMode.PROBE_COMMIT:
        return _negotiate_probe_commit(initiator, responder, rng)
    if mode is NegotiationMode.INLINE_COMMIT:
        return _negotiate_inline_commit(initiator, responder, rng)
    raise ValueError(f"unknown negotiation mode: {mode!r}")


def _draw_bit(party: Party, rng: Random) -> int:
    return party.tie_bit if party.tie_bit is not None else rng.getrandbits(1)


def _negotiate_standard(a: Party, b: Party, rng: Random):
    transcript: list[Message] = []
    bit = TieBreakerBit(_draw_bit(a, rng))
    transcript.append(GoNegotiationRequest(a.device_id, IntentValue(a.intent), bit))
    if b.abort_after is AbortPhase.AFTER_REQUEST:
        return NegotiationOutcome.aborted(b.device_id, AbortPhase.AFTER_REQUEST), transcript
    # the reply carries the complement, so exactly one device sent bit 1
    transcript.append(GoNegotiationResponse(b.device_id, IntentValue(b.intent), bit ^ 1))
    if a.abort_after is AbortPhase.AFTER_RESPONSE:
        return NegotiationOutcome.aborted(a.device_id, AbortPhase.AFTER_RESPONSE), transcript
    outcome = decide_go(a.intent, b.intent, bit)
    if outcome.kind is OutcomeKind.INITIATOR_IS_GO and a.quit_if_go:
        return NegotiationOutcome.aborted(a.device_id, AbortPhase.AFTER_RESPONSE), transcript
    transcript.append(GoNegotiationConfirmation(a.device_id, outcome.kind))
    return _post_confirmation(outcome, b), transcript


def _negotiate_probe_commit(a: Party, b: Party, rng: Random):
    transcript: list[Message] = []
    bit_a = TieBreakerBit(_draw_bit(a, rng))
    nonce_a = random_nonce(rng)
    bit_b = TieBreakerBit(_draw_bit(b, rng))
    nonce_b = random_nonce(rng)
    commit_a = commit(nonce_a, a.intent, bit_a)
    commit_b = commit(nonce_b, b.intent, bit_b)
    transcript.append(Probe(a.device_id, commit_a))
    transcript.append(Probe(b.device_id, commit_b))

    open_a = Opening(nonce_a, a.intent, bit_a ^ 1 if a.tamper_opening else bit_a)
    transcript.append(
        GoNegotiationRequest(a.device_id, IntentValue(a.intent), rng.getrandbits(1), opening=open_a)
    )
    if not verify(commit_a, open_a):
        return NegotiationOutcome.aborted(b.device_id, AbortPhase.AFTER_REQUEST), transcript
    if b.abort_after is AbortPhase.AFTER_REQUEST:
        return NegotiationOutcome.aborted(b.device_id, AbortPhase.AFTER_REQUEST), transcript

    open_b = Opening(nonce_b, b.intent, bit_b ^ 1 if b.tamper_opening else bit_b)
    transcript.append(
        GoNegotiationResponse(b.device_id, IntentValue(b.intent), rng.getrandbits(1), opening=open_b)
    )
    if not verify(commit_b, open_b):
        return NegotiationOutcome.aborted(a.device_id, AbortPhase.AFTER_RESPONSE), transcript
    if a.abort_after is AbortPhase.AFTER_RESPONSE:
        return NegotiationOutcome.aborted(a.device_id, AbortPhase.AFTER_RESPONSE), transcript

    outcome = decide_go(a.intent, b.intent, coin_flip(open_a.tie_bit, open_b.tie_bit))
    if outcome.kind is OutcomeKind.INITIATOR_IS_GO and a.quit_if_go:
        return NegotiationOutcome.aborted(a.device_id, AbortPhase.AFTER_RESPONSE), transcript
    transcript.append(GoNegotiationConfirmation(a.device_id, outcome.kind))
    return _post_confirmation(outcome, b), transcript


def _negotiate_inline_commit(a: Party, b: Party, rng: Random):
    transcript: list[Message] = []
    bit_a = TieBreakerBit(_draw_bit(a, rng))
    nonce_a = random_nonce(rng)
    commit_a = commit(nonce_a, a.intent, bit_a)
    transcript.append(
        GoNegotiationRequest(a.device_id, IntentValue(a.intent), rng.getrandbits(1), commitment=commit_a)
    )
    if b.abort_after is AbortPhase.AFTER_REQUEST:
        return NegotiationOutcome.aborted(b.device_id, AbortPhase.AFTER_REQUEST), transcript

    # the responder discloses its bit plainly; the initiator is already bound
    bit_b = TieBreakerBit(_draw_bit(b, rng))
    transcript.append(
        GoNegotiationResponse(
            b.device_id,
            IntentValue(b.intent),
            bit_b,
            dual_outcomes=(OutcomeKind.INITIATOR_IS_GO, OutcomeKind.RESPONDER_IS_GO),
        )
    )
    if a.abort_after is AbortPhase.AFTER_RESPONSE:
        return NegotiationOutcome.aborted(a.device_id, AbortPhase.AFTER_RESPONSE), transcript

    outcome = decide_go(a.intent, b.intent, coin_flip(bit_a, bit_b))
    if outcome.kind is OutcomeKind.INITIATOR_IS_GO and a.quit_if_go:
        return NegotiationOutcome.aborted(a.device_id, AbortPhase.AFTER_RESPONSE), transcript

    revealed = bit_a ^ 1 if a.tamper_opening else bit_a
    open_a = Opening(nonce_a, a.intent, revealed)
    claimed = decide_go(a.intent, b.intent, coin_flip(revealed, bit_b))
    transcript.append(GoNegotiationConfirmation(a.device_id, claimed.kind, opening=open_a))
    if not verify(commit_a, open_a):
        return NegotiationOutcome.aborted(b.device_id, AbortPhase.AFTER_CONFIRMATION), transcript
    return _post_confirmation(outcome, b), transcript


def _post_confirmation(outcome: NegotiationOutcome, b: Party) -> NegotiationOutcome:
    if outcome.kind is OutcomeKind.RESPONDER_IS_GO and b.quit_if_go:
        return NegotiationOutcome.aborted(b.device_id, AbortPhase.AFTER_CONFIRMATION)
    if b.abort_after is AbortPhase.AFTER_CONFIRMATION:
        return NegotiationOutcome.aborted(b.device_id, AbortPhase.AFTER_CONFIRMATION)
    return outcome
