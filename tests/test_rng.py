"""Generator conformance: frozen vectors, layout, bit order, distribution."""

import warnings

import numpy as np
import pytest

from paritykex.rng import (
    MASK64,
    PER_LANE_MAX,
    ZERO_SEED_STATE,
    PackedLanes,
    RngState,
    draw_inputs,
    draw_inputs_lanes,
    input_masks,
    keep_lanes,
    lanes_from_words,
    mask_signs,
    next_bytes,
    next_word,
    next_words,
    next_words_lanes,
    seed_from_bytes,
    seed_lanes,
)

M = (1 << 64) - 1


def reference_step(s0, s1):
    """Independent restatement of the recurrence, canonical two-variable form."""
    x, y = s0, s1
    s0 = y
    x = (x ^ (x << 23)) & M
    x = x ^ y ^ (x >> 17) ^ (y >> 26)
    return (x + y) & M, (s0, x)


# computed once with reference_step and frozen
GOLDEN = {
    bytes(range(16)): [
        0x1193145395979718,
        0x0D8F0A49F04D99EB,
        0x2DD0D9EC73D2B019,
        0x5749941E660E1E2E,
        0x1EAE446D970BA548,
    ],
    bytes.fromhex("deadbeefcafebabe0123456789abcdef"): [
        0xA98F15D8BE09323B,
        0xC2F7EA1ACD1F6F47,
        0xA509C8BE6FBA98FA,
        0xCEBB5FCF677FBE8F,
        0x886914AD6FC1B807,
    ],
}


def test_seed_layout():
    state = seed_from_bytes(bytes(range(16)))
    assert state.s0 == 0x0001020304050607
    assert state.s1 == 0x08090A0B0C0D0E0F


def test_zero_seed_remapped():
    state = seed_from_bytes(bytes(16))
    assert (state.s0, state.s1) == ZERO_SEED_STATE
    assert (state.s0, state.s1) != (0, 0)


def test_seed_determinism():
    a = seed_from_bytes(b"0123456789abcdef")
    b = seed_from_bytes(b"0123456789abcdef")
    assert a == b


def test_seed_length_checked():
    with pytest.raises(ValueError):
        seed_from_bytes(b"short")


def test_state_invariant():
    with pytest.raises(ValueError):
        RngState(0, 0)
    with pytest.raises(ValueError):
        RngState(1 << 64, 1)


def test_golden_vectors():
    for seed, expected in GOLDEN.items():
        words, _ = next_words(seed_from_bytes(seed), len(expected))
        assert words == expected


def test_matches_independent_reference():
    for seed in (bytes(range(16)), b"\x07" * 16, bytes.fromhex("00" * 15 + "01")):
        state = seed_from_bytes(seed)
        ref = (state.s0, state.s1)
        for _ in range(200):
            word, state = next_word(state)
            ref_word, ref = reference_step(*ref)
            assert word == ref_word
            assert (state.s0, state.s1) == ref


def test_purity():
    state = seed_from_bytes(bytes(range(16)))
    w1, _ = next_word(state)
    w2, _ = next_word(state)
    assert w1 == w2


def test_no_immediate_repeats_over_long_run():
    state = seed_from_bytes(b"repeat-scan-seed")
    previous = None
    for _ in range(10**6):
        word, state = next_word(state)
        assert word != previous
        previous = word


def test_draw_inputs_shape_and_values():
    inputs, _ = draw_inputs(seed_from_bytes(bytes(range(16))), 3, 32)
    assert inputs.shape == (3, 32)
    assert set(np.unique(inputs)) <= {-1, 1}


def test_draw_inputs_bit_mapping():
    # LSB-first within each word, row-major fill, bit 1 -> +1
    state = seed_from_bytes(b"mapping-test-abc")
    word, _ = next_word(state)
    inputs, _ = draw_inputs(state, 1, 64)
    for bit in range(64):
        expected = 1 if (word >> bit) & 1 else -1
        assert inputs[0, bit] == expected


def test_draw_inputs_single_entry():
    state = seed_from_bytes(b"mapping-test-abc")
    word, _ = next_word(state)
    inputs, _ = draw_inputs(state, 1, 1)
    assert inputs[0, 0] == (1 if word & 1 else -1)


def test_draw_inputs_word_consumption():
    # exactly ceil(k*n/64) words consumed
    state = seed_from_bytes(b"word-consumption")
    _, after = draw_inputs(state, 3, 32)  # 96 bits -> 2 words
    _, manual = next_words(state, 2)
    assert after == manual


def test_draw_inputs_identical_for_identical_seeds():
    a, _ = draw_inputs(seed_from_bytes(b"both-sides-equal"), 3, 32)
    b, _ = draw_inputs(seed_from_bytes(b"both-sides-equal"), 3, 32)
    assert np.array_equal(a, b)


def test_draw_inputs_validates():
    with pytest.raises(ValueError):
        draw_inputs(seed_from_bytes(bytes(range(16))), 0, 5)


def test_entry_frequency_unbiased():
    state = seed_from_bytes(b"frequency-check!")
    total = np.zeros((3, 32))
    draws = 10_000
    for _ in range(draws):
        inputs, state = draw_inputs(state, 3, 32)
        total += inputs == 1
    freq = total / draws
    assert np.all(np.abs(freq - 0.5) < 0.02)


def test_next_bytes_layout():
    state = seed_from_bytes(bytes(range(16)))
    word, _ = next_word(state)
    data, _ = next_bytes(state, 8)
    assert data == word.to_bytes(8, "big")


def test_words_fit_64_bits():
    state = seed_from_bytes(b"range-check-seed")
    for _ in range(1000):
        word, state = next_word(state)
        assert 0 <= word <= MASK64


# --- lane-wise generator --------------------------------------------------------

# the all-zero seed (remapped), all-ones words, and seeds drawn at random,
# about half of whose state words have the high bit set
LANE_SEEDS = [bytes(16), b"\xff" * 16, bytes.fromhex("80" + "00" * 7 + "80" + "00" * 6 + "01")] + [
    np.random.default_rng(i).bytes(16) for i in range(40)
]


def lane_pairs(state):
    """Each lane's (s0, s1), whichever form ``state`` has."""
    if not isinstance(state, PackedLanes):
        return list(state)
    return [(state.s0 >> 64 * t & MASK64, state.s1 >> 64 * t & MASK64) for t in range(state.lanes)]


def both_forms(seeds):
    """The lanes of ``seeds`` in both forms: (s0, s1) pairs and ``PackedLanes``."""
    pairs = [(st.s0, st.s1) for st in map(seed_from_bytes, seeds)]
    pack = lambda words: sum(word << 64 * t for t, word in enumerate(words))
    return [pairs, PackedLanes(pack([s0 for s0, _ in pairs]), pack([s1 for _, s1 in pairs]), len(pairs))]


def test_seed_lanes_layout_and_zero_remap():
    few = LANE_SEEDS[:PER_LANE_MAX]
    assert seed_lanes(few) == [(st.s0, st.s1) for st in map(seed_from_bytes, few)]
    state = seed_lanes(LANE_SEEDS)  # more lanes than PER_LANE_MAX: packed, lane t in bits 64t..64t+63
    assert state == both_forms(LANE_SEEDS)[1] and state.lanes == len(LANE_SEEDS)
    assert lane_pairs(state) == [(st.s0, st.s1) for st in map(seed_from_bytes, LANE_SEEDS)]
    assert lane_pairs(state)[0] == ZERO_SEED_STATE
    keep = np.arange(len(LANE_SEEDS)) % 3 != 1
    kept_seeds = [seed for seed, kept in zip(LANE_SEEDS, keep) if kept]
    for form, expected in zip(both_forms(LANE_SEEDS), both_forms(kept_seeds)):
        assert keep_lanes(form, keep) == expected
    for count in (PER_LANE_MAX, len(LANE_SEEDS)):  # (s0, s1) pairs, then packed
        seeds = LANE_SEEDS[1:count] + [bytes(16)]  # a zero word row last, as SYN-seed words can be
        words = np.array([divmod(int.from_bytes(seed, "big"), 1 << 64) for seed in seeds], np.uint64)
        assert lanes_from_words(words) == both_forms(seeds)[count > PER_LANE_MAX]
        assert lane_pairs(lanes_from_words(words))[-1] == ZERO_SEED_STATE
    with pytest.raises(ValueError):
        seed_lanes([bytes(8), bytes(24)])  # 32 bytes, but not two seeds


def test_word_lanes_match_next_word():
    for state in both_forms(LANE_SEEDS):
        scalars = [seed_from_bytes(seed) for seed in LANE_SEEDS]
        wrapped = high_bit = 0
        for _ in range(64):
            high_bit += sum(st.s0 >> 63 for st in scalars)
            words, state = next_words_lanes(state, 1)
            assert words.shape == (len(LANE_SEEDS), 1)
            for lane, st in enumerate(scalars):
                word, scalars[lane] = next_word(st)
                wrapped += word < st.s1  # the 64-bit sum s1 + t overflowed
                assert int(words[lane, 0]) == word
            assert lane_pairs(state) == [(st.s0, st.s1) for st in scalars]
        assert wrapped > 100 and high_bit > 100


@pytest.mark.parametrize("k,n", [(3, 32), (1, 1), (3, 50), (2, 64), (5, 27)])
def test_input_lanes_match_draw_inputs(k, n):
    for state in both_forms(LANE_SEEDS):
        scalars = [seed_from_bytes(seed) for seed in LANE_SEEDS]
        for _ in range(5):
            inputs, state = draw_inputs_lanes(state, k, n)
            assert inputs.shape == (len(LANE_SEEDS), k, n) and inputs.dtype == np.int32
            for lane, st in enumerate(scalars):
                expected, scalars[lane] = draw_inputs(st, k, n)
                assert np.array_equal(inputs[lane], expected)
        assert lane_pairs(state) == [(st.s0, st.s1) for st in scalars]


def test_single_lane_stays_an_array_and_wraps_silently():
    for state in both_forms([b"\xff" * 16]):
        scalar = seed_from_bytes(b"\xff" * 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy scalar would warn on a 64-bit wrap
            for _ in range(200):
                words, state = next_words_lanes(state, 1)
                word, scalar = next_word(scalar)
                assert isinstance(words, np.ndarray) and words.shape == (1, 1)
                assert int(words[0, 0]) == word
            inputs, state = draw_inputs_lanes(state, 3, 32)
        expected, _ = draw_inputs(scalar, 3, 32)
        assert np.array_equal(inputs[0], expected)


@pytest.mark.parametrize("k, n", [(3, 32), (1, 1), (3, 7), (5, 13), (4, 33), (2, 64)])
def test_seed_words_give_the_masks_drawn_from_the_seed(k, n):
    # a SYN seed's two words go straight to its input masks; k*n need not fill whole words
    gen = np.random.default_rng(k * 100 + n)
    seeds = [bytes(16)] + [gen.bytes(16) for _ in range(40)]
    for seed in seeds:
        s0, s1 = int.from_bytes(seed[:8], "big"), int.from_bytes(seed[8:], "big")
        masks, t0, t1 = input_masks(s0, s1, k, n)
        state = seed_from_bytes(seed)
        drawn, u0, u1 = input_masks(state.s0, state.s1, k, n)
        x, state = draw_inputs(state, k, n)
        assert masks == drawn and (t0, t1) == (u0, u1) == (state.s0, state.s1), seed
        assert masks == [sum(1 << j for j, v in enumerate(row) if v > 0) for row in x.tolist()], seed
        assert all(0 <= mask < 1 << n for mask in masks)


@pytest.mark.parametrize("n", [1, 7, 8, 13, 33, 64])
def test_mask_signs_read_bit_j_of_each_mask(n):
    gen = np.random.default_rng(n)
    masks = [0, (1 << n) - 1] + [int.from_bytes(gen.bytes(8), "little") >> (64 - n) for _ in range(5)]
    signs = mask_signs(masks, n)
    assert signs.dtype == np.int32 and signs.shape == (len(masks), n)
    assert signs.tolist() == [[1 if mask >> j & 1 else -1 for j in range(n)] for mask in masks]
