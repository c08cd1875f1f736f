"""Wire codecs, the owner-election rule, and the negotiation handshakes."""

import hashlib
from random import Random

import pytest

from wfdsim.commitment import Opening, commit
from wfdsim.protocol import (
    ATTR_COMPAT_TIE_BIT,
    ATTR_TIE_COMMITMENT,
    ATTR_TIE_OPENING,
    AbortPhase,
    DecodeError,
    GoNegotiationConfirmation,
    GoNegotiationRequest,
    GoNegotiationResponse,
    IntentValue,
    LengthMismatch,
    NegotiationMode,
    OutcomeKind,
    P2pAttribute,
    Party,
    PayloadTooLong,
    Probe,
    TieBreakerBit,
    Truncated,
    VendorIe,
    compat_tie_bit_attr,
    decide_go,
    decode_vendor_ie,
    encode_p2p_attributes,
    negotiate,
    parse_p2p_attributes,
    tie_commitment_attr,
    tie_commitment_ie,
    tie_opening_attr,
)

ZERO_COMMIT = commit(Opening(bytes(32), 0, 0))


class TestWireSizes:
    def test_commitment_vendor_ie_is_38_bytes(self):
        assert len(tie_commitment_ie(ZERO_COMMIT).encode()) == 38

    def test_commitment_attribute_is_35_bytes(self):
        assert len(tie_commitment_attr(ZERO_COMMIT).encode()) == 35

    def test_opening_attribute_is_37_bytes(self):
        assert len(tie_opening_attr(Opening(bytes(32), 0, 0)).encode()) == 37

    def test_compat_tie_bit_attribute_is_4_bytes(self):
        assert len(compat_tie_bit_attr(1).encode()) == 4

    def test_commitment_ie_golden_bytes(self):
        expected = bytes.fromhex(
            "dd24506f9aff"
            "eb142b0cae0baa72a767ebc0823d1be94e14c5bfc52d8e417fc4302fceb6240c"
        )
        assert tie_commitment_ie(ZERO_COMMIT).encode() == expected


class TestVendorIeCodec:
    def test_roundtrip(self):
        ie = VendorIe(0xDD, b"\x50\x6f\x9a", 0x09, b"payload")
        assert decode_vendor_ie(ie.encode()) == ie

    def test_empty_payload_roundtrip(self):
        ie = VendorIe(0xDD, b"\xaa\xbb\xcc", 0xFF, b"")
        assert decode_vendor_ie(ie.encode()) == ie
        assert len(ie.encode()) == 6

    def test_truncated_header(self):
        with pytest.raises(Truncated):
            decode_vendor_ie(b"\xdd")

    def test_truncated_body(self):
        data = tie_commitment_ie(ZERO_COMMIT).encode()
        with pytest.raises(Truncated):
            decode_vendor_ie(data[:-1])

    def test_trailing_bytes_rejected(self):
        data = tie_commitment_ie(ZERO_COMMIT).encode()
        with pytest.raises(LengthMismatch):
            decode_vendor_ie(data + b"\x00")

    def test_length_below_fixed_fields(self):
        with pytest.raises(LengthMismatch):
            decode_vendor_ie(b"\xdd\x03\x50\x6f\x9a")

    def test_payload_cap(self):
        VendorIe(0xDD, bytes(3), 0, bytes(251))
        with pytest.raises(PayloadTooLong):
            VendorIe(0xDD, bytes(3), 0, bytes(252))

    def test_field_validation(self):
        with pytest.raises(ValueError):
            VendorIe(0x100, bytes(3), 0, b"")
        with pytest.raises(ValueError):
            VendorIe(0xDD, bytes(2), 0, b"")
        with pytest.raises(ValueError):
            VendorIe(0xDD, bytes(3), 256, b"")
        for fields in ((0xDD, "abc", 9, b""), (0xDD, bytes(3), 9, "abc"),
                       (221.0, bytes(3), 9, b""), (0xDD, bytes(3), 9.0, b"")):
            with pytest.raises(ValueError):
                VendorIe(*fields)


class TestAttributeCodec:
    def test_single_roundtrip(self):
        attr = P2pAttribute(ATTR_TIE_OPENING, b"\x01\x02\x03")
        assert parse_p2p_attributes(attr.encode()) == [attr]

    def test_sequence_roundtrip(self):
        attrs = [
            tie_commitment_attr(ZERO_COMMIT),
            tie_opening_attr(Opening(bytes(32), 3, 1)),
            compat_tie_bit_attr(0),
            P2pAttribute(0x02, b""),
        ]
        assert parse_p2p_attributes(encode_p2p_attributes(attrs)) == attrs

    def test_empty_input_is_empty_list(self):
        assert parse_p2p_attributes(b"") == []

    def test_truncated_header(self):
        with pytest.raises(Truncated):
            parse_p2p_attributes(b"\xf0\x05")

    def test_truncated_data(self):
        data = P2pAttribute(0xF0, b"abcd").encode()
        with pytest.raises(Truncated):
            parse_p2p_attributes(data[:-1])

    def test_little_endian_length(self):
        data = P2pAttribute(0x01, bytes(0x0102)).encode()
        assert data[1:3] == b"\x02\x01"

    def test_data_cap(self):
        P2pAttribute(0, bytes(0xFFFF))
        with pytest.raises(PayloadTooLong):
            P2pAttribute(0, bytes(0x10000))

    @pytest.mark.parametrize("attr_id,data", [(1.5, b"ab"), (1, "ab"), ("1", b"ab")])
    def test_field_types(self, attr_id, data):
        with pytest.raises(ValueError):
            P2pAttribute(attr_id, data)

    def test_reserved_ids_are_distinct(self):
        assert len({ATTR_TIE_COMMITMENT, ATTR_TIE_OPENING, ATTR_COMPAT_TIE_BIT}) == 3


class TestValueTypes:
    def test_intent_range(self):
        assert IntentValue(0) == 0 and IntentValue(15) == 15
        for bad in (-1, 16, 7.5, 7.0, "7"):
            with pytest.raises(ValueError):
                IntentValue(bad)

    def test_tie_bit_range(self):
        assert TieBreakerBit(0) == 0 and TieBreakerBit(1) == 1
        for bad in (-1, 2, 0.9, 1.0, "1"):
            with pytest.raises(ValueError):
                TieBreakerBit(bad)


class TestDecideGo:
    def test_higher_intent_wins(self):
        assert decide_go(10, 3, 0).kind is OutcomeKind.INITIATOR_IS_GO
        assert decide_go(3, 10, 1).kind is OutcomeKind.RESPONDER_IS_GO

    def test_tie_follows_bit(self):
        assert decide_go(5, 5, 1).kind is OutcomeKind.INITIATOR_IS_GO
        assert decide_go(5, 5, 0).kind is OutcomeKind.RESPONDER_IS_GO

    def test_both_mandatory_fails(self):
        assert decide_go(15, 15, 1).kind is OutcomeKind.FAILED_BOTH_REQUIRE_GO

    def test_mandatory_beats_any_lower(self):
        assert decide_go(15, 14, 0).kind is OutcomeKind.INITIATOR_IS_GO


@pytest.mark.parametrize("mode", [
    NegotiationMode.STANDARD,
    NegotiationMode.PROBE_COMMIT,
    NegotiationMode.INLINE_COMMIT,
])
class TestNegotiateCommon:
    def test_seeded_runs_reproduce_transcripts(self, mode):
        a, b = Party("a"), Party("b")
        first = negotiate(mode, a, b, Random(11))
        second = negotiate(mode, a, b, Random(11))
        assert first == second

    def test_intent_difference_overrides_bits(self, mode):
        outcome, _ = negotiate(mode, Party("a", intent=7), Party("b", intent=2), Random(0))
        assert outcome.kind is OutcomeKind.INITIATOR_IS_GO

    def test_both_mandatory_fails(self, mode):
        outcome, _ = negotiate(mode, Party("a", intent=15), Party("b", intent=15), Random(0))
        assert outcome.kind is OutcomeKind.FAILED_BOTH_REQUIRE_GO

    @pytest.mark.parametrize("a,b", [
        (Party("a", intent=7.5), Party("b", intent=7)),
        (Party("a", intent=7), Party("b", intent="7")),
        (Party("a", tie_bit=0.5), Party("b")),
    ], ids=["float_intent", "str_intent", "float_tie_bit"])
    def test_party_values_must_be_integers(self, mode, a, b):
        with pytest.raises(ValueError):
            negotiate(mode, a, b, Random(0))


class TestStandardHandshake:
    def test_initiator_bit_decides_tie(self):
        outcome, transcript = negotiate(
            NegotiationMode.STANDARD, Party("a", tie_bit=1), Party("b"), Random(0))
        assert outcome.kind is OutcomeKind.INITIATOR_IS_GO
        outcome, _ = negotiate(
            NegotiationMode.STANDARD, Party("a", tie_bit=0), Party("b"), Random(0))
        assert outcome.kind is OutcomeKind.RESPONDER_IS_GO
        kinds = [type(m) for m in transcript]
        assert kinds == [GoNegotiationRequest, GoNegotiationResponse, GoNegotiationConfirmation]

    def test_response_echoes_complement_bit(self):
        for bit in (0, 1):
            _, transcript = negotiate(
                NegotiationMode.STANDARD, Party("a", tie_bit=bit), Party("b"), Random(0))
            assert transcript[0].tie_bit == bit
            assert transcript[1].tie_bit == bit ^ 1

    def test_responder_cannot_influence_tie(self):
        # responder's pinned bit changes nothing; only the request bit counts
        for rbit in (0, 1):
            outcome, _ = negotiate(
                NegotiationMode.STANDARD,
                Party("a", tie_bit=1), Party("b", tie_bit=rbit), Random(0))
            assert outcome.kind is OutcomeKind.INITIATOR_IS_GO


@pytest.mark.parametrize("mode", [NegotiationMode.PROBE_COMMIT, NegotiationMode.INLINE_COMMIT])
class TestCommitmentHandshakes:
    @pytest.mark.parametrize("bit_a", [0, 1])
    @pytest.mark.parametrize("bit_b", [0, 1])
    def test_owner_follows_xor_exhaustively(self, mode, bit_a, bit_b):
        outcome, _ = negotiate(
            mode, Party("a", tie_bit=bit_a), Party("b", tie_bit=bit_b), Random(5))
        expected = OutcomeKind.INITIATOR_IS_GO if bit_a ^ bit_b else OutcomeKind.RESPONDER_IS_GO
        assert outcome.kind is expected

    def test_forced_bit_cannot_bias_the_coin(self, mode):
        # one side pins its bit; the verified coin stays fair
        wins = 0
        trials = 4000
        rng = Random(42)
        for _ in range(trials):
            outcome, _ = negotiate(mode, Party("a", tie_bit=0), Party("b"), rng)
            wins += outcome.kind is OutcomeKind.INITIATOR_IS_GO
        share = wins / trials
        assert abs(share - 0.5) < 3 * (0.25 / trials) ** 0.5

    def test_tampered_reveal_is_caught(self, mode):
        outcome, _ = negotiate(
            mode, Party("a", tie_bit=1, tamper_opening=True), Party("b"), Random(9))
        assert outcome.kind is OutcomeKind.ABORTED
        assert outcome.aborted_by == "b"


class TestProbeCommitDetails:
    def test_transcript_shape(self):
        _, transcript = negotiate(NegotiationMode.PROBE_COMMIT, Party("a"), Party("b"), Random(1))
        kinds = [type(m) for m in transcript]
        assert kinds == [Probe, Probe, GoNegotiationRequest,
                         GoNegotiationResponse, GoNegotiationConfirmation]

    def test_openings_match_probed_commitments(self):
        _, transcript = negotiate(NegotiationMode.PROBE_COMMIT, Party("a"), Party("b"), Random(1))
        probe_a, probe_b, request, response, _ = transcript
        assert hashlib.sha256(request.opening.encode()).digest() == probe_a.tie_commitment.digest
        assert hashlib.sha256(response.opening.encode()).digest() == probe_b.tie_commitment.digest

    def test_responder_tamper_caught_by_initiator(self):
        outcome, _ = negotiate(
            NegotiationMode.PROBE_COMMIT,
            Party("a"), Party("b", tamper_opening=True), Random(9))
        assert outcome.kind is OutcomeKind.ABORTED
        assert outcome.aborted_by == "a"
        assert outcome.abort_phase is AbortPhase.AFTER_RESPONSE

    def test_placeholder_bit_does_not_decide(self):
        # the in-message tie bit is noise; only the openings matter
        for _ in range(20):
            rng = Random(_)
            outcome, transcript = negotiate(
                NegotiationMode.PROBE_COMMIT, Party("a"), Party("b"), rng)
            request, response = transcript[2], transcript[3]
            xor = request.opening.tie_bit ^ response.opening.tie_bit
            expected = OutcomeKind.INITIATOR_IS_GO if xor else OutcomeKind.RESPONDER_IS_GO
            assert outcome.kind is expected


class TestInlineCommitDetails:
    def test_transcript_shape_and_dual_outcomes(self):
        _, transcript = negotiate(NegotiationMode.INLINE_COMMIT, Party("a"), Party("b"), Random(1))
        request, response, confirmation = transcript
        assert request.commitment is not None
        assert response.dual_outcomes == (OutcomeKind.INITIATOR_IS_GO,
                                          OutcomeKind.RESPONDER_IS_GO)
        assert confirmation.opening is not None

    def test_tamper_detected_at_confirmation(self):
        outcome, _ = negotiate(
            NegotiationMode.INLINE_COMMIT,
            Party("a", tamper_opening=True), Party("b"), Random(3))
        assert outcome.kind is OutcomeKind.ABORTED
        assert outcome.abort_phase is AbortPhase.AFTER_CONFIRMATION

    def test_tampered_confirmation_names_the_owner_its_opening_implies(self):
        # committed 1 XOR disclosed 0 hands the tie to a; the false opening's 0 to b
        outcome, transcript = negotiate(
            NegotiationMode.INLINE_COMMIT,
            Party("a", tie_bit=1, tamper_opening=True), Party("b", tie_bit=0), Random(3))
        confirmation = transcript[-1]
        assert confirmation.opening.tie_bit == 0
        assert confirmation.selected is OutcomeKind.RESPONDER_IS_GO
        assert outcome.kind is OutcomeKind.ABORTED


class TestWalkouts:
    def test_initiator_quits_owner_role(self):
        outcome, _ = negotiate(
            NegotiationMode.STANDARD,
            Party("a", tie_bit=1, quit_if_go=True), Party("b"), Random(0))
        assert outcome.kind is OutcomeKind.ABORTED
        assert outcome.aborted_by == "a"

    def test_responder_quits_owner_role(self):
        outcome, _ = negotiate(
            NegotiationMode.STANDARD,
            Party("a", tie_bit=0), Party("b", quit_if_go=True), Random(0))
        assert outcome.kind is OutcomeKind.ABORTED
        assert outcome.aborted_by == "b"
        assert outcome.abort_phase is AbortPhase.AFTER_CONFIRMATION

    def test_scripted_abort_after_request(self):
        outcome, transcript = negotiate(
            NegotiationMode.STANDARD,
            Party("a"), Party("b", abort_after=AbortPhase.AFTER_REQUEST), Random(0))
        assert outcome.kind is OutcomeKind.ABORTED
        assert len(transcript) == 1


# The receiver of a message may abort after it: b after the request and the
# confirmation, a after the response.  Any other scripted abort does nothing.
RECEIVERS = {AbortPhase.AFTER_REQUEST: "b", AbortPhase.AFTER_RESPONSE: "a",
             AbortPhase.AFTER_CONFIRMATION: "b"}
PROBES = {NegotiationMode.STANDARD: 0, NegotiationMode.PROBE_COMMIT: 2,
          NegotiationMode.INLINE_COMMIT: 0}


@pytest.mark.parametrize("mode", list(NegotiationMode))
@pytest.mark.parametrize("party", ["a", "b"])
@pytest.mark.parametrize("phase", list(AbortPhase))
def test_only_the_receiver_of_a_message_aborts_after_it(mode, party, phase):
    # tie bits 1 and 0 hand the tie to the initiator in every mode
    script = {"abort_after": phase}
    a = Party("a", intent=7, tie_bit=1, **(script if party == "a" else {}))
    b = Party("b", intent=7, tie_bit=0, **(script if party == "b" else {}))
    outcome, transcript = negotiate(mode, a, b, Random(0))
    if RECEIVERS[phase] == party:
        assert outcome.kind is OutcomeKind.ABORTED
        assert (outcome.aborted_by, outcome.abort_phase) == (party, phase)
        assert len(transcript) == PROBES[mode] + list(AbortPhase).index(phase) + 1
    else:
        assert outcome.kind is OutcomeKind.INITIATOR_IS_GO
        assert (outcome.aborted_by, outcome.abort_phase) == (None, None)
        assert len(transcript) == PROBES[mode] + 3


def test_decode_errors_are_value_errors():
    assert issubclass(DecodeError, ValueError)
    assert issubclass(Truncated, DecodeError)
    assert issubclass(LengthMismatch, DecodeError)
