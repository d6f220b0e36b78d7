"""Wire format for the exchange protocol.

Every frame is one datagram:

    byte 0        command code in the high nibble, low nibble zero
    bytes 1-4     frame id, big-endian unsigned 32-bit
    body          fixed width per command (see the Frame subclasses)
    last 4 bytes  CRC-32 over everything before it (polynomial 0x04C11DB7,
                  reflected, init/final-xor 0xFFFFFFFF), big-endian

Each message is one ``Frame`` subclass whose first field is its id, e.g.
``AckSyn(frame_id, tau)``.  tau travels as one byte: 0x01 for +1, 0x00 for -1.

Decode order matters: frames shorter than header+CRC are a framing error,
then the CRC is verified (so any single-bit corruption is an integrity
error), and only then are command and length validated.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

SEED_LEN = 16
CODE_LEN = 16

# Command codes, high nibble of byte 0.
CMD_SYN = 0x0
CMD_FIN_SYN = 0x1
CMD_ACK_SYN = 0x2
CMD_NAK_SYN = 0x3
CMD_AUTH = 0x4

MAX_FRAME_ID = (1 << 32) - 1
_HEADER_LEN = 5
_CRC_LEN = 4
_SYN_TAU = _HEADER_LEN + SEED_LEN  # offset of the SYN's tau byte


class FrameError(Exception):
    """Base class for frame decode failures."""


class FrameIntegrityError(FrameError):
    """Checksum mismatch: the frame was altered in transit."""


class FrameProtocolError(FrameError):
    """Reserved or unknown command code."""


class FrameTruncatedError(FrameError):
    """Frame too short or its length does not match its command."""


@dataclass(frozen=True)
class Frame:
    """A protocol message: its monotone id.  Each command is one subclass, with its fields after the id."""

    frame_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.frame_id <= MAX_FRAME_ID:
            raise ValueError("frame id must fit 32 bits")

    @property
    def command(self) -> int:
        try:
            return _COMMAND_OF_TYPE[type(self)]
        except KeyError:
            raise ValueError(f"unknown frame type: {type(self).__name__}") from None


@dataclass(frozen=True)
class Syn(Frame):
    """Synchronization round: input seed, sender output, whole-bank probe."""

    seed: bytes
    tau: int
    ek_st: bytes


@dataclass(frozen=True)
class FinSyn(Frame):
    """Synchronization confirmed; iv is the group index that salts the session key."""

    iv: int


@dataclass(frozen=True)
class AckSyn(Frame):
    """Outputs matched; the replier updated its weights."""

    tau: int


@dataclass(frozen=True)
class NakSyn(Frame):
    """Outputs differed; no update."""

    tau: int


@dataclass(frozen=True)
class Auth(Frame):
    """Certification: an HMAC of the session key under a secret code."""

    ek_code: bytes


_COMMAND_OF_TYPE = {
    Syn: CMD_SYN,
    FinSyn: CMD_FIN_SYN,
    AckSyn: CMD_ACK_SYN,
    NakSyn: CMD_NAK_SYN,
    Auth: CMD_AUTH,
}

# body byte width per command
_BODY_LEN = {
    CMD_SYN: SEED_LEN + 1 + CODE_LEN,
    CMD_FIN_SYN: 1,
    CMD_ACK_SYN: 1,
    CMD_NAK_SYN: 1,
    CMD_AUTH: CODE_LEN,
}
# whole frame byte width per command
FRAME_LEN = {command: _HEADER_LEN + width + _CRC_LEN for command, width in _BODY_LEN.items()}


def crc32(data: bytes) -> int:
    """The frame checksum (standard reflected CRC-32)."""
    return zlib.crc32(data)


_TAU_BYTE = {1: b"\x01", -1: b"\x00"}
_TAU_OF_BYTE = {0x01: 1, 0x00: -1}


def _encode_tau(tau: int) -> bytes:
    try:
        return _TAU_BYTE[tau]
    except (KeyError, TypeError):
        raise ValueError("tau must be +1 or -1") from None


def _decode_tau(b: int) -> int:
    tau = _TAU_OF_BYTE.get(b)
    if tau is None:
        raise FrameTruncatedError(f"malformed tau byte 0x{b:02x}")
    return tau


def _decoded(cls: type, **fields) -> Frame:
    """A ``cls`` message of decoded fields, built without ``__post_init__``: a 4-byte id fits 32 bits."""
    frame = object.__new__(cls)
    frame.__dict__.update(fields)
    return frame


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame, appending its CRC."""
    if isinstance(frame, Syn):
        if len(frame.seed) != SEED_LEN or len(frame.ek_st) != CODE_LEN:
            raise ValueError("SYN seed and probe must be 16 bytes each")
        body = frame.seed + _encode_tau(frame.tau) + frame.ek_st
    elif isinstance(frame, (AckSyn, NakSyn)):
        body = _encode_tau(frame.tau)
    elif isinstance(frame, FinSyn):
        if not 0 <= frame.iv <= 0xFF:
            raise ValueError("iv must fit one byte")
        body = bytes([frame.iv])
    elif isinstance(frame, Auth):
        if len(frame.ek_code) != CODE_LEN:
            raise ValueError("AUTH code must be 16 bytes")
        body = frame.ek_code
    else:
        raise ValueError(f"unknown frame type: {type(frame).__name__}")

    # the command nibble sits 36 bits up: at the top of byte 0, above the 32-bit id
    head = (_COMMAND_OF_TYPE[type(frame)] << 36 | frame.frame_id).to_bytes(_HEADER_LEN, "big") + body
    return head + zlib.crc32(head).to_bytes(_CRC_LEN, "big")


def decode_frame(data: bytes) -> Frame:
    """Parse and validate one datagram into its message, reading each field once in the wire's order.

    Raises FrameTruncatedError when too short or malformed,
    FrameIntegrityError on checksum mismatch, FrameProtocolError on a
    reserved command code.
    """
    size = len(data)
    if size < _HEADER_LEN + _CRC_LEN:
        raise FrameTruncatedError(f"frame of {size} bytes is too short")
    if zlib.crc32(data[:-_CRC_LEN]) != int.from_bytes(data[-_CRC_LEN:], "big"):
        raise FrameIntegrityError("checksum mismatch")

    head = data[0]
    if head & 0x0F:
        raise FrameTruncatedError("low nibble of the command byte must be zero")
    command = head >> 4
    expected = FRAME_LEN.get(command)
    if expected is None:
        raise FrameProtocolError(f"reserved command code {command:04b}")
    if size != expected:
        raise FrameTruncatedError(
            f"command {command:04b} frame must be {expected} bytes, got {size}"
        )

    frame_id = int.from_bytes(data[1:_HEADER_LEN], "big")
    if command == CMD_SYN:
        return _decoded(Syn, frame_id=frame_id, seed=data[_HEADER_LEN:_SYN_TAU],
                        tau=_decode_tau(data[_SYN_TAU]), ek_st=data[_SYN_TAU + 1:-_CRC_LEN])
    if command == CMD_ACK_SYN:
        return _decoded(AckSyn, frame_id=frame_id, tau=_decode_tau(data[_HEADER_LEN]))
    if command == CMD_NAK_SYN:
        return _decoded(NakSyn, frame_id=frame_id, tau=_decode_tau(data[_HEADER_LEN]))
    if command == CMD_FIN_SYN:
        return _decoded(FinSyn, frame_id=frame_id, iv=data[_HEADER_LEN])
    return _decoded(Auth, frame_id=frame_id, ek_code=data[_HEADER_LEN:-_CRC_LEN])
