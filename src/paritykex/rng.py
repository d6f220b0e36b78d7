"""Deterministic 128-bit-seeded generator shared by both endpoints.

Both sides of an exchange must derive bit-identical input matrices from a
16-byte seed, so the generator and its bit-consumption order are frozen:

* state update is the xorshift128+ recurrence on two 64-bit words,
* ``draw_inputs`` consumes whole 64-bit words, LSB-first within each word,
  filling the input matrix row-major, bit 1 -> +1 and bit 0 -> -1.

All operations are pure: they return the advanced state instead of
mutating it.

The ``*_lanes`` functions run the same generator for many independent
seeds at once, one lane per seed.  Their state is a (2, T) ``uint64`` array
whose rows are s0 and s1; lane t yields exactly the words, inputs and
draws the scalar functions yield for its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _steps(s0: int, s1: int, count: int) -> tuple[list[int], int, int]:
    """``count`` xorshift128+ steps on plain ints: (words, s0, s1)."""
    words = []
    for _ in range(count):
        t = s0 ^ ((s0 << 23) & MASK64)
        t ^= t >> 17
        t ^= s1 ^ (s1 >> 26)
        words.append((s1 + t) & MASK64)
        s0, s1 = s1, t
    return words, s0, s1


def next_word(state: RngState) -> tuple[int, RngState]:
    """Advance one xorshift128+ step, returning (64-bit output, new state)."""
    (word,), s0, s1 = _steps(state.s0, state.s1, 1)
    return word, RngState(s0, s1)


def next_words(state: RngState, count: int) -> tuple[list[int], RngState]:
    """Draw ``count`` consecutive words."""
    words, s0, s1 = _steps(state.s0, state.s1, count)
    return words, RngState(s0, s1)


def next_bytes(state: RngState, count: int) -> tuple[bytes, RngState]:
    """Draw ``count`` bytes (big-endian serialization of whole words)."""
    nwords = -(-count // 8)
    words, state = next_words(state, nwords)
    buf = b"".join(w.to_bytes(8, "big") for w in words)
    return buf[:count], state


def input_masks(s0: int, s1: int, k: int, n: int) -> tuple[list[int], int, int]:
    """The k n-bit input masks the state words (s0, s1) draw, and the words after them.

    Bit j of mask i is set where entry (i, j) of ``draw_inputs`` is +1.  The words
    (0, 0), those of the all-zero seed, stand for ``ZERO_SEED_STATE`` as in
    ``seed_from_bytes``, so a SYN seed's two words give its masks directly.
    """
    if not s0 | s1:
        s0, s1 = ZERO_SEED_STATE
    words, s0, s1 = _steps(s0, s1, -(-k * n // 64))
    stream = 0
    for word in reversed(words):
        stream = stream << 64 | word
    full, masks = (1 << n) - 1, []
    for _ in range(k):
        masks.append(stream & full)
        stream >>= n
    return masks, s0, s1


def mask_signs(masks: Sequence[int], n: int) -> np.ndarray:
    """The int32 +-1 matrix of n-bit ``masks``, one row a mask: entry (i, j) is +1 where bit j
    of ``masks[i]`` is set."""
    width = -(-n // 8)
    raw = np.frombuffer(b"".join([mask.to_bytes(width, "little") for mask in masks]), np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    return bits.astype(np.int32) * 2 - 1


def draw_inputs(state: RngState, k: int, n: int) -> tuple[np.ndarray, RngState]:
    """Draw a (k, n) int32 matrix of +-1 entries.

    Consumes ceil(k*n/64) words; unused high bits of the final word are
    discarded.  Bit order: LSB-first within each word, row-major fill.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be at least 1")
    masks, s0, s1 = input_masks(state.s0, state.s1, k, n)
    return mask_signs(masks, n), RngState(s0, s1)


# --- lane-wise generator ------------------------------------------------------


def seed_lanes(seeds: Sequence[bytes]) -> np.ndarray:
    """Lane-wise ``seed_from_bytes``: a (2, T) uint64 state, one lane per seed."""
    states = [seed_from_bytes(seed) for seed in seeds]
    return np.array([[st.s0 for st in states], [st.s1 for st in states]], dtype=np.uint64)


def next_word_lanes(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lane-wise ``next_word``: (T words, new state).

    Array arithmetic wraps modulo 2^64 silently; rows of a (2, 1) state stay
    1-element arrays, never numpy scalars, which would warn on the wrap.
    """
    s0, s1 = state
    t = s0 ^ (s0 << np.uint64(23))
    t ^= t >> np.uint64(17)
    t ^= s1 ^ (s1 >> np.uint64(26))
    return s1 + t, np.stack((s1, t))


def next_words_lanes(state: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lane-wise ``next_words``: a (T, count) array of consecutive words."""
    words = np.empty((state.shape[1], count), dtype=np.uint64)
    for i in range(count):
        words[:, i], state = next_word_lanes(state)
    return words, state


def draw_inputs_lanes(state: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lane-wise ``draw_inputs``: a (T, k, n) array of +-1 entries, same bit order."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be at least 1")
    total = k * n
    words, state = next_words_lanes(state, -(-total // 64))
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little")
    return (bits[:, :total].astype(np.int32) * 2 - 1).reshape(-1, k, n), state
