"""Frame codec: command codes, round-trips, CRC and error discrimination."""

import dataclasses
import random

import pytest

from paritykex.frames import (
    CMD_ACK_SYN,
    CMD_AUTH,
    CMD_FIN_SYN,
    CMD_NAK_SYN,
    CMD_SYN,
    MAX_FRAME_ID,
    AckSyn,
    Auth,
    FinSyn,
    Frame,
    FrameError,
    FrameIntegrityError,
    FrameProtocolError,
    FrameTruncatedError,
    NakSyn,
    Syn,
    crc32,
    decode_frame,
    encode_frame,
)

GOLDEN_SYN = bytes.fromhex(
    "0000000000"
    "000102030405060708090a0b0c0d0e0f"
    "01"
    "101112131415161718191a1b1c1d1e1f"
    "6a0e32b4"
)


def random_frame(rng: random.Random) -> Frame:
    frame_id = rng.randrange(1 << 32)
    kind = rng.randrange(5)
    if kind == 0:
        return Syn(frame_id, seed=rng.randbytes(16), tau=rng.choice((1, -1)), ek_st=rng.randbytes(16))
    if kind == 1:
        return FinSyn(frame_id, iv=rng.randrange(256))
    if kind == 2:
        return AckSyn(frame_id, tau=rng.choice((1, -1)))
    if kind == 3:
        return NakSyn(frame_id, tau=rng.choice((1, -1)))
    return Auth(frame_id, ek_code=rng.randbytes(16))


SAMPLES = [
    Syn(0, seed=bytes(range(16)), tau=1, ek_st=bytes(range(16, 32))),
    FinSyn(7, iv=5),
    AckSyn(1, tau=-1),
    NakSyn(2, tau=1),
    Auth(8, ek_code=bytes(range(32, 48))),
]


def test_command_codes_fixed():
    assert CMD_SYN == 0b0000
    assert CMD_FIN_SYN == 0b0001
    assert CMD_ACK_SYN == 0b0010
    assert CMD_NAK_SYN == 0b0011
    assert CMD_AUTH == 0b0100


def test_command_nibble_on_wire():
    for frame, code in zip(SAMPLES, (CMD_SYN, CMD_FIN_SYN, CMD_ACK_SYN, CMD_NAK_SYN, CMD_AUTH)):
        assert frame.command == code
        assert encode_frame(frame)[0] >> 4 == code


def test_golden_syn_vector():
    frame = Syn(0, seed=bytes(range(16)), tau=1, ek_st=bytes(range(16, 32)))
    assert encode_frame(frame) == GOLDEN_SYN
    assert decode_frame(GOLDEN_SYN) == frame


def test_roundtrip_randomized():
    rng = random.Random(0xC0DEC)
    for frame in SAMPLES + [random_frame(rng) for _ in range(10_000)]:
        decoded = decode_frame(encode_frame(frame))
        assert type(decoded) is type(frame) and decoded == frame
    # the same fields under another command are another frame
    assert AckSyn(3, 1) != NakSyn(3, 1)


def test_single_bit_flip_always_integrity_error():
    rng = random.Random(5)
    frames = [random_frame(rng) for _ in range(20)]
    frames.append(Syn(0, bytes(16), 1, bytes(16)))
    for frame in frames:
        wire = encode_frame(frame)
        for bit in range(len(wire) * 8):
            mangled = bytearray(wire)
            mangled[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FrameIntegrityError):
                decode_frame(bytes(mangled))


def test_reserved_command_rejected():
    for command in range(5, 16):
        body = bytes([command << 4]) + (7).to_bytes(4, "big") + b"\x01"
        wire = body + crc32(body).to_bytes(4, "big")
        with pytest.raises(FrameProtocolError):
            decode_frame(wire)


def test_low_nibble_must_be_zero():
    body = bytes([0x21]) + (7).to_bytes(4, "big") + b"\x01"
    wire = body + crc32(body).to_bytes(4, "big")
    with pytest.raises(FrameTruncatedError):
        decode_frame(wire)


def test_short_frame_is_framing_error():
    for size in range(0, 9):
        with pytest.raises(FrameTruncatedError):
            decode_frame(bytes(size))


def test_wrong_length_for_command():
    # a CRC-valid ACK_SYN body with an extra payload byte
    body = bytes([CMD_ACK_SYN << 4]) + (1).to_bytes(4, "big") + b"\x01\x01"
    wire = body + crc32(body).to_bytes(4, "big")
    with pytest.raises(FrameTruncatedError):
        decode_frame(wire)


def test_malformed_tau_byte():
    body = bytes([CMD_ACK_SYN << 4]) + (1).to_bytes(4, "big") + b"\x02"
    wire = body + crc32(body).to_bytes(4, "big")
    with pytest.raises(FrameTruncatedError):
        decode_frame(wire)


def test_frame_id_bounds():
    assert [field.name for field in dataclasses.fields(Frame)] == ["frame_id"]
    for frame in SAMPLES:
        assert dataclasses.fields(frame)[0].name == "frame_id"
        assert dataclasses.replace(frame, frame_id=MAX_FRAME_ID).frame_id == MAX_FRAME_ID
        for bad in (-1, 1 << 32):
            with pytest.raises(ValueError, match="32 bits"):
                dataclasses.replace(frame, frame_id=bad)
    with pytest.raises(ValueError, match="32 bits"):
        Frame(1 << 32)


@pytest.mark.parametrize("frame_id", [0, 1, 1 << 31, MAX_FRAME_ID])
def test_decoded_frames_equal_the_checked_constructors_frames(frame_id):
    # decode_frame builds its messages without __post_init__: each must still equal, type included,
    # the frame the checked constructor builds, and a changed copy goes through the check again
    for sample in SAMPLES:
        built = dataclasses.replace(sample, frame_id=frame_id)
        decoded = decode_frame(encode_frame(built))
        assert type(decoded) is type(built) and decoded == built and hash(decoded) == hash(built)
        assert dataclasses.astuple(decoded) == dataclasses.astuple(built)
        assert decoded.command == built.command
        with pytest.raises(ValueError, match="32 bits"):
            dataclasses.replace(decoded, frame_id=1 << 32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decoded.frame_id = 0
    for tau in (1, -1):
        assert decode_frame(encode_frame(AckSyn(frame_id, tau))).tau == tau


def test_payload_field_validation():
    with pytest.raises(ValueError):
        encode_frame(Syn(0, seed=bytes(8), tau=1, ek_st=bytes(16)))
    with pytest.raises(ValueError):
        encode_frame(Auth(0, ek_code=bytes(4)))
    with pytest.raises(ValueError):
        encode_frame(Syn(0, seed=bytes(16), tau=0, ek_st=bytes(16)))
    with pytest.raises(ValueError):
        encode_frame(FinSyn(0, iv=300))
    # a bare Frame names no command, so it has no wire form
    with pytest.raises(ValueError, match="unknown frame type"):
        encode_frame(Frame(3))
    with pytest.raises(ValueError, match="unknown frame type: Frame"):
        Frame(3).command


def _wire(command_byte: int, payload: bytes) -> bytes:
    body = bytes([command_byte]) + (7).to_bytes(4, "big") + payload
    return body + crc32(body).to_bytes(4, "big")


ACK_WIRE = encode_frame(AckSyn(7, 1))
SYN_WIRE = encode_frame(Syn(7, bytes(16), -1, bytes(16)))


@pytest.mark.parametrize("wire, error", [
    (ACK_WIRE[:8], FrameTruncatedError),  # truncated below header and CRC
    (SYN_WIRE[:-5] + SYN_WIRE[-4:], FrameIntegrityError),  # a byte lost: the CRC fails first
    (bytes([ACK_WIRE[0]]) + bytes([ACK_WIRE[1] ^ 0x10]) + ACK_WIRE[2:], FrameIntegrityError),  # one bit
    (_wire(0x21, b"\x01"), FrameTruncatedError),  # nonzero low nibble
    (_wire(0x51, b"\x01"), FrameTruncatedError),  # the low nibble is checked before the command
    (_wire(0x50, b"\x01"), FrameProtocolError),  # reserved command
    (_wire(0xF0, b""), FrameProtocolError),  # the command is checked before the length
    (_wire(CMD_ACK_SYN << 4, b"\x01\x01"), FrameTruncatedError),  # wrong length
    (_wire(CMD_SYN << 4, bytes(16) + b"\x01"), FrameTruncatedError),  # SYN without its probe
    (_wire(CMD_ACK_SYN << 4, b"\x02"), FrameTruncatedError),  # malformed tau byte
    (_wire(CMD_NAK_SYN << 4, b"\xff"), FrameTruncatedError),
    (_wire(CMD_SYN << 4, bytes(16) + b"\x80" + bytes(16)), FrameTruncatedError),
])
def test_each_malformed_frame_raises_its_own_error_class(wire, error):
    with pytest.raises(FrameError) as caught:
        decode_frame(wire)
    assert type(caught.value) is error
