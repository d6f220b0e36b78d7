"""Weight byte codec, key material slicing, stream transform."""

import numpy as np
import pytest

from paritykex.keycodec import (
    SessionKey,
    decode_weight,
    encode_weight,
    extract_key,
    key_group_count,
    otp_transform,
    serialize_weights,
)
from paritykex.network import (
    TpmNetwork,
    TpmParams,
    apply_learning,
    evaluate,
    init_network,
    is_synchronized,
)
from paritykex.rng import draw_inputs, seed_from_bytes


def test_encode_zero():
    assert encode_weight(0) == 0x00


def test_encode_negative_five():
    assert encode_weight(-5) == 0b10000101


def test_encode_extremes():
    assert encode_weight(127) == 0x7F
    assert encode_weight(-127) == 0xFF


def test_encode_range_checked():
    with pytest.raises(ValueError):
        encode_weight(128)
    with pytest.raises(ValueError):
        encode_weight(-128)


def test_decode_example():
    assert decode_weight(0b10000101) == -5


def test_decode_minus_zero():
    assert decode_weight(0x80) == 0


def test_roundtrip_exhaustive():
    for w in range(-127, 128):
        assert decode_weight(encode_weight(w)) == w


def test_serialize_layout():
    params = TpmParams(k=2, n=2, l=5)
    net = TpmNetwork(params, np.array([[1, -2], [0, 5]], dtype=np.int32))
    assert serialize_weights(net) == bytes([0x01, 0x82, 0x00, 0x05])


def test_serialize_sizes():
    net, _ = init_network(TpmParams(k=3, n=32, l=127), seed_from_bytes(b"sizes-check-seed"))
    material = serialize_weights(net)
    assert len(material) * 8 == 768
    assert key_group_count(material) == 6


def test_serialize_zero_network():
    net = TpmNetwork(TpmParams(k=2, n=3, l=1), np.zeros((2, 3), dtype=np.int32))
    assert serialize_weights(net) == bytes(6)


def test_serialize_deterministic():
    net, _ = init_network(TpmParams(k=3, n=32, l=5), seed_from_bytes(b"serialize-twice!"))
    assert serialize_weights(net) == serialize_weights(net)


def test_extract_key_slices():
    material = bytes(range(96))
    first = extract_key(material, 0)
    assert first.key == bytes(range(16))
    assert first.iv == 0
    last = extract_key(material, 5)
    assert last.key == bytes(range(80, 96))


def test_extract_key_partition():
    material = bytes(range(96))
    slices = [extract_key(material, iv).key for iv in range(6)]
    assert b"".join(slices) == material


def test_extract_key_range_checked():
    with pytest.raises(ValueError):
        extract_key(bytes(96), 6)
    with pytest.raises(ValueError):
        extract_key(bytes(96), -1)


def test_session_key_validation():
    with pytest.raises(ValueError):
        SessionKey(key=bytes(8), iv=0)


def test_hidden_output_equal_for_synchronized_nets():
    params = TpmParams(k=3, n=16, l=2)
    rng = seed_from_bytes(b"hidden-output-eq")
    net_a, rng = init_network(params, rng)
    net_b = TpmNetwork(params, net_a.weights.copy())
    for _ in range(20):
        inputs, rng = draw_inputs(rng, 3, 16)
        assert list(evaluate(net_a, inputs).sigmas) == list(evaluate(net_b, inputs).sigmas)


def test_otp_involution():
    rng = np.random.default_rng(42)
    for _ in range(50):
        key = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
        block = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
        assert otp_transform(key, otp_transform(key, block)) == block


def test_otp_zero_key_is_identity():
    block = bytes(range(16))
    assert otp_transform(bytes(16), block) == block


def test_otp_length_checked():
    with pytest.raises(ValueError):
        otp_transform(bytes(16), bytes(15))


def test_otp_wrong_key_mangles():
    rng = np.random.default_rng(7)
    key = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
    block = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
    sealed = otp_transform(key, block)
    for _ in range(1000):
        wrong = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
        if wrong != key:
            assert otp_transform(wrong, sealed) != block


def test_key_agreement_after_synchronization():
    params = TpmParams(k=3, n=32, l=2)
    rng = seed_from_bytes(b"key-agreement-00")
    net_a, rng = init_network(params, rng)
    net_b, rng = init_network(params, rng)
    for _ in range(100_000):
        if is_synchronized(net_a, net_b):
            break
        inputs, rng = draw_inputs(rng, 3, 32)
        ev_a, ev_b = evaluate(net_a, inputs), evaluate(net_b, inputs)
        if ev_a.tau == ev_b.tau:
            net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, "random_walk")
            net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, "random_walk")
    assert is_synchronized(net_a, net_b)
    mat_a, mat_b = serialize_weights(net_a), serialize_weights(net_b)
    for iv in range(key_group_count(mat_a)):
        assert extract_key(mat_a, iv) == extract_key(mat_b, iv)
