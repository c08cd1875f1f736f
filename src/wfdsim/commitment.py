"""Hash-based bit commitments for tie-breaker coin flips.

A device binds itself to a (intent, tie-breaker-bit) pair before its peer
reveals anything, by publishing SHA-256 over a fixed-layout preimage:

    [nonce: 32 bytes][intent: 1 byte][tie bit: 1 byte]

Opening the commitment later means revealing the preimage fields; the peer
recomputes the digest and compares.  The shared coin is the XOR of the two
committed bits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random

NONCE_LEN = 32
DIGEST_LEN = 32
OPENING_LEN = NONCE_LEN + 2


@dataclass(frozen=True)
class Commitment:
    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != DIGEST_LEN:
            raise ValueError(f"digest must be {DIGEST_LEN} bytes, got {len(self.digest)}")


@dataclass(frozen=True)
class Opening:
    """Revealed preimage fields: the nonce and the committed values."""

    nonce: bytes
    intent: int
    tie_bit: int

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes, got {len(self.nonce)}")
        if not 0 <= self.intent <= 15:
            raise ValueError(f"intent out of range: {self.intent}")
        if self.tie_bit not in (0, 1):
            raise ValueError(f"tie bit must be 0 or 1: {self.tie_bit}")

    def encode(self) -> bytes:
        return self.nonce + bytes([self.intent, self.tie_bit])


def decode_opening(data: bytes) -> Opening:
    if len(data) != OPENING_LEN:
        raise ValueError(f"opening payload must be {OPENING_LEN} bytes, got {len(data)}")
    return Opening(bytes(data[:NONCE_LEN]), data[NONCE_LEN], data[NONCE_LEN + 1])


def preimage(nonce: bytes, intent: int, tie_bit: int) -> bytes:
    """Canonical 34-byte preimage layout shared by commit and verify."""
    return Opening(nonce, intent, tie_bit).encode()


def commit(nonce: bytes, intent: int, tie_bit: int) -> Commitment:
    return Commitment(hashlib.sha256(preimage(nonce, intent, tie_bit)).digest())


def verify(commitment: Commitment, opening: Opening) -> bool:
    expected = hashlib.sha256(opening.encode()).digest()
    return expected == commitment.digest


def coin_flip(bit_a: int, bit_b: int) -> int:
    """Shared coin from two committed bits; neither side controls it alone."""
    if bit_a not in (0, 1) or bit_b not in (0, 1):
        raise ValueError("coin flip bits must be 0 or 1")
    return bit_a ^ bit_b


def random_nonce(rng: Random) -> bytes:
    return rng.randbytes(NONCE_LEN)
