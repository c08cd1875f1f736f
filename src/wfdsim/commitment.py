"""Hash-based bit commitments for tie-breaker coin flips.

A device binds itself to a (intent, tie-breaker-bit) pair before its peer
reveals anything, by publishing SHA-256 over a fixed-layout preimage:

    [nonce: 32 bytes][intent: 1 byte][tie bit: 1 byte]

Opening the commitment later means revealing the preimage fields; the peer
recomputes the digest and compares.  The shared coin is the XOR of the two
committed bits.  ``IntentValue`` and ``TieBreakerBit`` state each value's rule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from numbers import Integral
from random import Random

NONCE_LEN = 32
DIGEST_LEN = 32
OPENING_LEN = NONCE_LEN + 2
INTENT_MANDATORY = 15             # the highest intent: the device requires the owner role

# int first: it is the common case, and the check against the ABC is slow
WHOLE = (int, Integral)
BYTES = (bytes, bytearray)


class IntentValue(int):
    """Group-owner intent, 0..15; 15 means the device requires the role."""

    def __new__(cls, value: int) -> "IntentValue":
        if not isinstance(value, WHOLE) or not 0 <= value <= INTENT_MANDATORY:
            raise ValueError(f"intent value must be an integer in 0..15: {value!r}")
        return int.__new__(cls, value)


class TieBreakerBit(int):
    """One tie-breaker bit, 0 or 1."""

    def __new__(cls, value: int) -> "TieBreakerBit":
        if not isinstance(value, WHOLE) or value not in (0, 1):
            raise ValueError(f"tie-breaker bit must be 0 or 1: {value!r}")
        return int.__new__(cls, value)


@dataclass(frozen=True)
class Commitment:
    digest: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.digest, BYTES) or len(self.digest) != DIGEST_LEN:
            raise ValueError(f"digest must be {DIGEST_LEN} bytes: {self.digest!r}")


@dataclass(frozen=True)
class Opening:
    """Revealed preimage fields: the nonce and the committed values."""

    nonce: bytes
    intent: int
    tie_bit: int

    def __post_init__(self) -> None:
        if not isinstance(self.nonce, BYTES) or len(self.nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes: {self.nonce!r}")
        IntentValue(self.intent)          # each raises ValueError on a bad field
        TieBreakerBit(self.tie_bit)

    def encode(self) -> bytes:
        """The 34-byte preimage that ``commit`` hashes and ``verify`` checks."""
        return self.nonce + bytes([self.intent, self.tie_bit])


def decode_opening(data: bytes) -> Opening:
    if len(data) != OPENING_LEN:
        raise ValueError(f"opening payload must be {OPENING_LEN} bytes, got {len(data)}")
    return Opening(bytes(data[:NONCE_LEN]), data[NONCE_LEN], data[NONCE_LEN + 1])


def commit(opening: Opening) -> Commitment:
    return Commitment(hashlib.sha256(opening.encode()).digest())


def verify(commitment: Commitment, opening: Opening) -> bool:
    expected = hashlib.sha256(opening.encode()).digest()
    return expected == commitment.digest


def coin_flip(bit_a: int, bit_b: int) -> int:
    """Shared coin from two committed bits; neither side controls it alone."""
    return TieBreakerBit(bit_a) ^ TieBreakerBit(bit_b)


def random_nonce(rng: Random) -> bytes:
    return rng.randbytes(NONCE_LEN)
