"""Weight serialization and session-key derivation.

Each weight becomes one byte: the MSB carries the sign (1 = negative) and
the low seven bits the magnitude, so depths up to 127 round-trip exactly.
The serialized bank is the key material; a session key is HKDF-SHA256
(RFC 5869) over all of it, salted with the one-byte group index the
receiver's FIN_SYN names.  The byte 0x80 ("minus zero") is never produced
but decodes to 0 so decoding is total.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import TpmNetwork

KEY_BITS = 128
KEY_BYTES = KEY_BITS // 8
HKDF_MAX_BYTES = 255 * 32  # RFC 5869: L <= 255 * HashLen


@dataclass(frozen=True)
class SessionKey:
    """A 128-bit key and the group index that salted it."""

    key: bytes
    iv: int

    def __post_init__(self) -> None:
        if len(self.key) != KEY_BYTES:
            raise ValueError("session key must be 16 bytes")
        if not 0 <= self.iv <= 0xFF:
            raise ValueError(f"group index {self.iv} outside [0, 255]: FIN_SYN carries it in one byte")


def encode_weight(w: int) -> int:
    """Encode an integer in [-127, 127] as a sign-magnitude byte."""
    if not -127 <= w <= 127:
        raise ValueError(f"weight {w} outside [-127, 127]")
    if w < 0:
        return 0x80 | (-w)
    return w


def decode_weight(b: int) -> int:
    """Decode a sign-magnitude byte; 0x80 decodes to 0."""
    if not 0 <= b <= 0xFF:
        raise ValueError("byte value out of range")
    magnitude = b & 0x7F
    if b & 0x80:
        return -magnitude
    return magnitude


@lru_cache(maxsize=None)
def _offset_bytes(l: int) -> bytes:
    """Translation table from w + l, for w in [-l, +l], to the byte of w."""
    return bytes(encode_weight(min(u, 2 * l) - l) for u in range(256))


def serialize_weights(net: TpmNetwork) -> bytes:
    """Serialize the bank row-major, one byte per weight."""
    l = net.params.l
    return (net.weights + l).astype(np.uint8).tobytes().translate(_offset_bytes(l))


def hkdf_sha256(ikm: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """HKDF with SHA-256 (RFC 5869): extract a pseudorandom key, then expand it to ``length`` bytes."""
    if not 0 <= length <= HKDF_MAX_BYTES:
        raise ValueError(
            f"HKDF-SHA256 output length must be in [0, 255*32 = {HKDF_MAX_BYTES}] bytes (RFC 5869), got {length}"
        )
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    okm = block = b""
    for counter in range(1, -(-length // 32) + 1):
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        okm += block
    return okm[:length]


def extract_key(material: bytes, iv: int) -> SessionKey:
    """The session key of the whole key material, salted with the group index ``iv`` (one byte)."""
    return SessionKey(key=hkdf_sha256(material, bytes([iv]), b"paritykex session key", KEY_BYTES), iv=iv)


def otp_transform(key: bytes, block: bytes) -> bytes:
    """XOR ``block`` with ``key``; self-inverse, length-preserving.  No protocol path calls it."""
    if len(key) != len(block):
        raise ValueError("key and block lengths must match")
    mixed = int.from_bytes(key, "big") ^ int.from_bytes(block, "big")
    return mixed.to_bytes(len(block), "big")
