"""Weight serialization and session-key extraction.

Each weight becomes one byte: the MSB carries the sign (1 = negative) and
the low seven bits the magnitude, so depths up to 127 round-trip exactly.
The serialized bank is the key material; a session key is one
128-bit slice of it, selected by a group index.  The byte 0x80 ("minus
zero") is never produced but decodes to 0 so decoding is total.

The stream transform used for the synchronization probe and the
certification codes is a one-time-pad XOR; anything self-inverse and
length-preserving can be swapped in through the same seam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import TpmNetwork

KEY_BITS = 128
KEY_BYTES = KEY_BITS // 8


@dataclass(frozen=True)
class SessionKey:
    """A 128-bit key and the group index it was sliced from."""

    key: bytes
    iv: int

    def __post_init__(self) -> None:
        if len(self.key) != KEY_BYTES:
            raise ValueError("session key must be 16 bytes")
        if self.iv < 0:
            raise ValueError("group index must be non-negative")


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


def serialize_weights(net: TpmNetwork) -> bytes:
    """Serialize the bank row-major, one byte per weight."""
    w = net.weights
    encoded = np.where(w < 0, 0x80 | (-w), w).astype(np.uint8)
    return encoded.tobytes()


def key_group_count(material: bytes) -> int:
    """Number of whole 128-bit groups in the material."""
    return len(material) // KEY_BYTES


def extract_key(material: bytes, iv: int) -> SessionKey:
    """Slice the iv-th 128-bit group out of the key material."""
    if iv < 0 or KEY_BYTES * (iv + 1) > len(material):
        raise ValueError(
            f"group index {iv} out of range for {len(material) * 8}-bit material"
        )
    return SessionKey(key=material[KEY_BYTES * iv : KEY_BYTES * (iv + 1)], iv=iv)


def otp_transform(key: bytes, block: bytes) -> bytes:
    """XOR ``block`` with ``key``; self-inverse, length-preserving."""
    if len(key) != len(block):
        raise ValueError("key and block lengths must match")
    return bytes(a ^ b for a, b in zip(key, block))
