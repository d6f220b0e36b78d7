"""Deterministic 128-bit-seeded generator shared by both endpoints.

Both sides of an exchange must derive bit-identical input matrices from a
16-byte seed, so the generator and its bit-consumption order are frozen:

* state update is the xorshift128+ recurrence on two 64-bit words,
* ``draw_inputs`` consumes whole 64-bit words, LSB-first within each word,
  filling the input matrix row-major, bit 1 -> +1 and bit 0 -> -1.

All operations are pure: they return the advanced state instead of
mutating it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1

# Replacement state for the all-zero seed, which xorshift cannot accept.
# Arbitrary published odd constants; frozen for cross-implementation use.
ZERO_SEED_STATE = (0x9E3779B97F4A7C15, 0xD1B54A32D192ED03)


@dataclass(frozen=True)
class RngState:
    """Generator state: two 64-bit words, never both zero."""

    s0: int
    s1: int

    def __post_init__(self) -> None:
        if not (0 <= self.s0 <= MASK64 and 0 <= self.s1 <= MASK64):
            raise ValueError("state words must be 64-bit unsigned integers")
        if self.s0 == 0 and self.s1 == 0:
            raise ValueError("state (0, 0) is invalid for xorshift128+")


def seed_from_bytes(seed: bytes) -> RngState:
    """Build a state from a 16-byte seed.

    The first 8 bytes become s0 (big-endian), the last 8 become s1.  An
    all-zero seed is remapped to ``ZERO_SEED_STATE`` so the function is
    total.
    """
    if len(seed) != 16:
        raise ValueError(f"seed must be 16 bytes, got {len(seed)}")
    s0 = int.from_bytes(seed[:8], "big")
    s1 = int.from_bytes(seed[8:], "big")
    if s0 == 0 and s1 == 0:
        return RngState(*ZERO_SEED_STATE)
    return RngState(s0, s1)


def next_word(state: RngState) -> tuple[int, RngState]:
    """Advance one xorshift128+ step, returning (64-bit output, new state)."""
    t = state.s0
    t ^= (t << 23) & MASK64
    t ^= t >> 17
    t ^= state.s1
    t ^= state.s1 >> 26
    out = (state.s1 + t) & MASK64
    return out, RngState(state.s1, t)


def next_words(state: RngState, count: int) -> tuple[list[int], RngState]:
    """Draw ``count`` consecutive words."""
    words = []
    for _ in range(count):
        w, state = next_word(state)
        words.append(w)
    return words, state


def next_bytes(state: RngState, count: int) -> tuple[bytes, RngState]:
    """Draw ``count`` bytes (big-endian serialization of whole words)."""
    nwords = -(-count // 8)
    words, state = next_words(state, nwords)
    buf = b"".join(w.to_bytes(8, "big") for w in words)
    return buf[:count], state


def draw_inputs(state: RngState, k: int, n: int) -> tuple[np.ndarray, RngState]:
    """Draw a (k, n) matrix of +-1 entries.

    Consumes ceil(k*n/64) words; unused high bits of the final word are
    discarded.  Bit order: LSB-first within each word, row-major fill.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be at least 1")
    total = k * n
    nwords = -(-total // 64)
    words, state = next_words(state, nwords)
    raw = struct.pack("<%dQ" % nwords, *words)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    matrix = (bits[:total].astype(np.int32) * 2 - 1).reshape(k, n)
    return matrix, state

