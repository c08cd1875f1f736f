"""Commitment layer: the opening's preimage layout, verification, and the shared coin."""

import hashlib
from random import Random

import pytest

from wfdsim.commitment import (
    DIGEST_LEN,
    NONCE_LEN,
    OPENING_LEN,
    Commitment,
    Opening,
    coin_flip,
    commit,
    decode_opening,
    random_nonce,
    verify,
)


def test_opening_encode_layout():
    nonce = bytes(range(32))
    data = Opening(nonce, 7, 1).encode()
    assert len(data) == 34
    assert data[:32] == nonce
    assert data[32] == 7
    assert data[33] == 1


def test_commit_is_sha256_of_preimage():
    nonce = b"\xab" * 32
    expected = hashlib.sha256(nonce + bytes((15, 0))).digest()
    assert commit(Opening(nonce, 15, 0)).digest == expected


def test_zero_preimage_golden_digest():
    # digest of 34 zero bytes, recomputed independently
    assert commit(Opening(bytes(32), 0, 0)).digest == hashlib.sha256(bytes(34)).digest()
    assert commit(Opening(bytes(32), 0, 0)).digest.hex() == (
        "eb142b0cae0baa72a767ebc0823d1be94e14c5bfc52d8e417fc4302fceb6240c"
    )


def test_opening_encode_decode_roundtrip():
    opening = Opening(b"\x5a" * 32, 3, 1)
    assert decode_opening(opening.encode()) == opening


def test_decode_opening_rejects_wrong_length():
    with pytest.raises(ValueError):
        decode_opening(bytes(OPENING_LEN - 1))
    with pytest.raises(ValueError):
        decode_opening(bytes(OPENING_LEN + 1))


@pytest.mark.parametrize("nonce,intent,bit", [
    (bytes(31), 0, 0),
    (bytes(33), 0, 0),
    (bytes(32), 16, 0),
    (bytes(32), -1, 0),
    (bytes(32), 0, 2),
    (bytes(32), 7.5, 0),
    (bytes(32), 7, 1.0),
    ("x" * 32, 0, 0),
])
def test_opening_field_validation(nonce, intent, bit):
    with pytest.raises(ValueError):
        Opening(nonce, intent, bit)


def test_commitment_digest_length_validation():
    with pytest.raises(ValueError):
        Commitment(bytes(DIGEST_LEN - 1))
    with pytest.raises(ValueError):
        Commitment("x" * DIGEST_LEN)


def test_verify_accepts_true_opening():
    nonce = Random(1).randbytes(NONCE_LEN)
    c = commit(Opening(nonce, 5, 1))
    assert verify(c, Opening(nonce, 5, 1))


@pytest.mark.parametrize("tampered", [
    lambda n: Opening(n, 5, 0),                                # flipped bit
    lambda n: Opening(n, 6, 1),                                # different intent
    lambda n: Opening(bytes(32), 5, 1),                        # different nonce
    lambda n: Opening(n[:-1] + bytes((n[-1] ^ 1,)), 5, 1),     # one nonce bit
])
def test_verify_rejects_any_tamper(tampered):
    nonce = Random(2).randbytes(NONCE_LEN)
    c = commit(Opening(nonce, 5, 1))
    assert not verify(c, tampered(nonce))


def test_binding_single_byte_flips_change_digest():
    nonce = Random(3).randbytes(NONCE_LEN)
    base = commit(Opening(nonce, 9, 0)).digest
    for pos in range(NONCE_LEN):
        flipped = bytearray(nonce)
        flipped[pos] ^= 0x01
        assert commit(Opening(bytes(flipped), 9, 0)).digest != base
    assert commit(Opening(nonce, 10, 0)).digest != base
    assert commit(Opening(nonce, 9, 1)).digest != base


def test_distinct_nonces_hide_the_bit():
    # same committed bit, fresh nonces: digests share nothing observable
    rng = Random(4)
    digests = {commit(Opening(random_nonce(rng), 0, 1)).digest for _ in range(64)}
    assert len(digests) == 64


@pytest.mark.parametrize("a,b,expected", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_coin_flip_xor_table(a, b, expected):
    assert coin_flip(a, b) == expected


@pytest.mark.parametrize("a,b", [(2, 0), (0, 2), (-1, 1), (1, "1"), (1.0, 0)])
def test_coin_flip_rejects_non_bits(a, b):
    with pytest.raises(ValueError):
        coin_flip(a, b)


def test_random_nonce_is_seed_deterministic():
    assert random_nonce(Random(7)) == random_nonce(Random(7))
    assert len(random_nonce(Random(7))) == NONCE_LEN
    assert random_nonce(Random(7)) != random_nonce(Random(8))
