"""Deterministic 128-bit-seeded generator shared by both endpoints.

Both sides of an exchange must derive bit-identical input matrices from a
16-byte seed, so the generator and its bit-consumption order are frozen:

* state update is the xorshift128+ recurrence on two 64-bit words,
* ``draw_inputs`` consumes whole 64-bit words, LSB-first within each word,
  filling the input matrix row-major, bit 1 -> +1 and bit 0 -> -1.

All operations are pure: they return the advanced state instead of
mutating it.

The ``*_lanes`` functions run the same generator for many independent
seeds at once, one lane per seed; lane t yields exactly the words, inputs
and draws the scalar functions yield for its seed.  Up to ``PER_LANE_MAX``
lanes, each lane keeps a plain ``(s0, s1)`` pair of ints and runs ``_steps``;
more lanes are held as ``PackedLanes``, two ints that pack every lane's s0 and
s1, and step together, so a step's cost hardly grows with the lane count.
Either way, turning all lanes' words into +-1 entries is one array call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from typing import Sequence, Union

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

# Up to this many lanes, each lane steps its own (s0, s1) pair with ``_steps``;
# beyond, the lanes step together as ``PackedLanes``.  Per lane is as fast at 4
# lanes and faster below.  Packing would more than halve a 16-lane draw, but then
# perfbench's sweep-depth (16 lanes a call) would, on the fastest runs, end its first
# round below the 0.1 s that perfbench/test_perfbench.py::test_run_prints_one_result_line needs.
PER_LANE_MAX = 16


@dataclass(frozen=True)
class PackedLanes:
    """The generators of ``lanes`` lanes in two ints: lane t's s0 and s1 are bits 64t..64t+63
    of ``s0`` and ``s1``."""

    s0: int
    s1: int
    lanes: int


LaneStates = Union[list[tuple[int, int]], PackedLanes]


def _pack(rows: np.ndarray) -> PackedLanes:
    """The ``PackedLanes`` of a (2, lanes) array whose rows are s0 and s1."""
    s0, s1 = (int.from_bytes(row.astype("<u8").tobytes(), "little") for row in rows)
    return PackedLanes(s0, s1, rows.shape[1])


def lanes_from_words(words: np.ndarray) -> LaneStates:
    """The lanes whose states are the rows of a (lanes, 2) uint64 array of (s0, s1) words:
    (s0, s1) pairs up to ``PER_LANE_MAX`` lanes, ``PackedLanes`` beyond.  A zero row, the words
    of the all-zero seed, stands for ``ZERO_SEED_STATE``, as in ``seed_from_bytes``."""
    words = np.where((words == 0).all(axis=1, keepdims=True), np.array(ZERO_SEED_STATE, np.uint64), words)
    return list(map(tuple, words.tolist())) if len(words) <= PER_LANE_MAX else _pack(words.T)


def seed_lanes(seeds: Sequence[bytes]) -> LaneStates:
    """Lane-wise ``seed_from_bytes``, one lane per seed, through ``lanes_from_words``."""
    if any(len(seed) != 16 for seed in seeds):
        raise ValueError("seeds must be 16 bytes each")
    return lanes_from_words(np.frombuffer(b"".join(seeds), ">u8").reshape(-1, 2))


def keep_lanes(state: LaneStates, keep: np.ndarray) -> LaneStates:
    """The lanes where the boolean array ``keep`` is set, in order."""
    if not isinstance(state, PackedLanes):
        return list(compress(state, keep))
    rows = b"".join([s.to_bytes(8 * state.lanes, "little") for s in (state.s0, state.s1)])
    return _pack(np.frombuffer(rows, "<u8").reshape(2, -1)[:, keep])


@functools.lru_cache(maxsize=None)
def _lane_masks(lanes: int) -> tuple[int, int, int]:
    """For ``lanes`` packed 64-bit lanes: the bits of each lane kept after << 23, >> 17 and >> 26."""
    each = lambda mask: int.from_bytes(mask.to_bytes(8, "little") * lanes, "little")
    return each(MASK64 ^ ((1 << 23) - 1)), each(MASK64 >> 17), each(MASK64 >> 26)


def next_words_lanes(state: LaneStates, count: int) -> tuple[np.ndarray, LaneStates]:
    """Lane-wise ``next_words``: a (lanes, count) uint64 array, row t lane t's next words.

    ``PackedLanes`` step as two ints, so a step costs the same few int operations whatever
    the lane count.
    """
    if not isinstance(state, PackedLanes):
        words, after = [], []
        for s0, s1 in state:
            drawn, s0, s1 = _steps(s0, s1, count)
            words += drawn
            after.append((s0, s1))
        return np.array(words, "<u8").reshape(len(after), count), after
    lanes = state.lanes
    keep23, keep17, keep26 = _lane_masks(lanes)
    s0, s1 = state.s0, state.s1
    seq = [s1]  # s1 before each step, then after the last
    for _ in range(count):  # the recurrence of _steps, masked so that no bit crosses into the next lane
        t = s0 ^ ((s0 << 23) & keep23)
        t ^= (t >> 17) & keep17
        t ^= s1 ^ ((s1 >> 26) & keep26)
        s0, s1 = s1, t
        seq.append(t)
    rows = np.frombuffer(b"".join([v.to_bytes(8 * lanes, "little") for v in seq]), "<u8").reshape(-1, lanes)
    return (rows[:-1] + rows[1:]).T, PackedLanes(s0, s1, lanes)  # a word is s1 + t, wrapping within its lane


def draw_inputs_lanes(state: LaneStates, k: int, n: int) -> tuple[np.ndarray, LaneStates]:
    """Lane-wise ``draw_inputs``: a (lanes, k, n) array of +-1 entries, same bit order."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be at least 1")
    words, state = next_words_lanes(state, -(-k * n // 64))
    raw = np.ascontiguousarray(words).view(np.uint8)
    signs = np.unpackbits(raw, axis=1, count=k * n, bitorder="little").astype(np.int32)
    signs *= 2
    signs -= 1  # in place: no further (lanes, k*n) temporaries, each a fresh mapping at many lanes
    return signs.reshape(-1, k, n), state
