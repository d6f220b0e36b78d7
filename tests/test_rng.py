"""Generator conformance: frozen vectors, layout, bit order, distribution."""

import numpy as np
import pytest

from paritykex.rng import (
    MASK64,
    ZERO_SEED_STATE,
    RngState,
    draw_inputs,
    next_bytes,
    next_word,
    next_words,
    seed_from_bytes,
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
