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

Only the receiver of a message may abort after it (the responder after the
request and the confirmation, the initiator after the response): on a failed
opening, on its scripted ``abort_after``, or when it would be owner and
quits.  Any other ``abort_after`` is a no-op.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from random import Random

from .commitment import (BYTES, INTENT_MANDATORY, WHOLE, Commitment, IntentValue, Opening,
                         TieBreakerBit, coin_flip, commit, random_nonce, verify)

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

class DecodeError(ValueError):
    """Base class for wire-format parse failures."""


class Truncated(DecodeError):
    """Input ends before the structure it announces."""


class LengthMismatch(DecodeError):
    """A length field disagrees with the bytes actually present."""


class PayloadTooLong(ValueError):
    """Payload exceeds what the length field can express."""


@dataclass(frozen=True)
class VendorIe:
    element_id: int
    oui: bytes
    oui_type: int
    payload: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.element_id, WHOLE) or not 0 <= self.element_id <= 0xFF:
            raise ValueError(f"element id must be an integer in 0..255: {self.element_id!r}")
        if not isinstance(self.oui, BYTES) or len(self.oui) != 3:
            raise ValueError(f"OUI must be 3 bytes: {self.oui!r}")
        if not isinstance(self.oui_type, WHOLE) or not 0 <= self.oui_type <= 0xFF:
            raise ValueError(f"OUI type must be an integer in 0..255: {self.oui_type!r}")
        if not isinstance(self.payload, BYTES):
            raise ValueError(f"vendor IE payload must be bytes: {self.payload!r}")
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
        if not isinstance(self.attr_id, WHOLE) or not 0 <= self.attr_id <= 0xFF:
            raise ValueError(f"attribute id must be an integer in 0..255: {self.attr_id!r}")
        if not isinstance(self.data, BYTES):
            raise ValueError(f"attribute data must be bytes: {self.data!r}")
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
    return _decide(IntentValue(initiator_intent), IntentValue(responder_intent),
                   TieBreakerBit(tie_bit))


def _decide(iv_i: IntentValue, iv_r: IntentValue, bit: int) -> NegotiationOutcome:
    """``decide_go`` on values already checked, as ``negotiate``'s are."""
    if iv_i == INTENT_MANDATORY and iv_r == INTENT_MANDATORY:
        return NegotiationOutcome(OutcomeKind.FAILED_BOTH_REQUIRE_GO)
    initiator_wins = iv_i > iv_r if iv_i != iv_r else bit
    return NegotiationOutcome(
        OutcomeKind.INITIATOR_IS_GO if initiator_wins else OutcomeKind.RESPONDER_IS_GO)


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
    as a commitment mismatch.  ``abort_after`` walks away after the named
    message only if this device receives it (the responder the request and
    the confirmation, the initiator the response); otherwise it is a no-op.
    """

    device_id: str
    intent: int = 0
    tie_bit: int | None = None
    quit_if_go: bool = False
    tamper_opening: bool = False
    abort_after: AbortPhase | None = None


def _draw_bit(party: Party, rng: Random) -> int:
    return rng.getrandbits(1) if party.tie_bit is None else TieBreakerBit(party.tie_bit)


def _commit(party: Party, intent: int, bit: int, rng: Random) -> tuple[Commitment, Opening]:
    """``party``'s commitment to ``intent`` and ``bit`` under a fresh nonce,
    and the opening it will reveal: the true one, or a flipped bit if it tampers."""
    opening = Opening(random_nonce(rng), intent, bit)
    revealed = Opening(opening.nonce, intent, bit ^ 1) if party.tamper_opening else opening
    return commit(opening), revealed


def negotiate(
    mode: NegotiationMode,
    initiator: Party,
    responder: Party,
    rng: Random,
) -> tuple[NegotiationOutcome, list[Message]]:
    """Run one owner negotiation; returns the outcome and the message transcript.

    Every mode sends request, response and confirmation; the mode changes
    only what they carry.  RNG draws happen in a fixed order (initiator
    before responder), so a seeded run is reproducible message for message.
    """
    probe = mode is NegotiationMode.PROBE_COMMIT
    inline = mode is NegotiationMode.INLINE_COMMIT
    if not (probe or inline or mode is NegotiationMode.STANDARD):
        raise ValueError(f"unknown negotiation mode: {mode!r}")
    a, b = initiator, responder
    intent_a, intent_b = IntentValue(a.intent), IntentValue(b.intent)
    transcript: list[Message] = []
    bit_a = _draw_bit(a, rng)
    if probe or inline:
        commit_a, open_a = _commit(a, intent_a, bit_a, rng)

    # the tie bit in a commitment mode's request and response is a placeholder
    if probe:
        bit_b = _draw_bit(b, rng)
        commit_b, open_b = _commit(b, intent_b, bit_b, rng)
        transcript += (Probe(a.device_id, commit_a), Probe(b.device_id, commit_b))
        request = GoNegotiationRequest(a.device_id, intent_a, rng.getrandbits(1), opening=open_a)
    elif inline:
        request = GoNegotiationRequest(a.device_id, intent_a, rng.getrandbits(1),
                                       commitment=commit_a)
    else:
        request = GoNegotiationRequest(a.device_id, intent_a, bit_a)
    transcript.append(request)
    if (probe and not verify(commit_a, open_a)) or b.abort_after is AbortPhase.AFTER_REQUEST:
        return NegotiationOutcome.aborted(b.device_id, AbortPhase.AFTER_REQUEST), transcript

    if probe:
        response = GoNegotiationResponse(b.device_id, intent_b, rng.getrandbits(1), opening=open_b)
    elif inline:
        # the responder discloses its bit plainly; the initiator is already bound
        bit_b = _draw_bit(b, rng)
        response = GoNegotiationResponse(
            b.device_id, intent_b, bit_b,
            dual_outcomes=(OutcomeKind.INITIATOR_IS_GO, OutcomeKind.RESPONDER_IS_GO))
    else:
        # the reply carries the complement, so exactly one device sent bit 1
        response = GoNegotiationResponse(b.device_id, intent_b, bit_a ^ 1)
    transcript.append(response)
    outcome = _decide(intent_a, intent_b, coin_flip(bit_a, bit_b) if probe or inline else bit_a)
    if ((probe and not verify(commit_b, open_b)) or a.abort_after is AbortPhase.AFTER_RESPONSE
            or (outcome.kind is OutcomeKind.INITIATOR_IS_GO and a.quit_if_go)):
        return NegotiationOutcome.aborted(a.device_id, AbortPhase.AFTER_RESPONSE), transcript

    # a tampering initiator names the owner its false opening would make
    claimed = (_decide(intent_a, intent_b, coin_flip(open_a.tie_bit, bit_b))
               if inline and a.tamper_opening else outcome)
    transcript.append(
        GoNegotiationConfirmation(a.device_id, claimed.kind, open_a if inline else None))
    if ((inline and not verify(commit_a, open_a)) or b.abort_after is AbortPhase.AFTER_CONFIRMATION
            or (outcome.kind is OutcomeKind.RESPONDER_IS_GO and b.quit_if_go)):
        return NegotiationOutcome.aborted(b.device_id, AbortPhase.AFTER_CONFIRMATION), transcript
    return outcome, transcript
