"""The datagram wire format, byte by byte.

Five frame types share one layout: command nibble, 32-bit id, fixed-width
body, CRC-32 trailer.  Each is one ``Frame`` subclass whose first field is
its id, and decoding a datagram gives that message back.  Flipping any
single bit is caught by the CRC; a frame is new only if its id is above the
last one accepted.  The deterministic generator that both endpoints share
is pinned down by the golden vectors at the bottom.
"""

from paritykex import (
    AckSyn,
    Auth,
    FinSyn,
    FrameIntegrityError,
    NakSyn,
    Syn,
    decode_frame,
    encode_frame,
    integrity_check,
    next_word,
    seed_from_bytes,
)

samples = [
    Syn(frame_id=0, seed=bytes(range(16)), tau=1, ek_st=bytes(range(16, 32))),
    AckSyn(frame_id=1, tau=-1),
    NakSyn(frame_id=2, tau=1),
    FinSyn(frame_id=7, iv=5),
    Auth(frame_id=8, ek_code=bytes(range(32, 48))),
]

print("frame encodings (command nibble | id | body | crc):")
for frame in samples:
    wire = encode_frame(frame)
    name = type(frame).__name__
    print(f"  {name:<7} id={frame.frame_id}  ->  {wire.hex()}")
    assert decode_frame(wire) == frame

print("\nevery single-bit corruption is rejected:")
wire = encode_frame(samples[0])
rejected = 0
for bit in range(len(wire) * 8):
    mangled = bytearray(wire)
    mangled[bit // 8] ^= 1 << (bit % 8)
    try:
        decode_frame(bytes(mangled))
    except FrameIntegrityError:
        rejected += 1
print(f"  {rejected}/{len(wire) * 8} corrupted copies raised the integrity error")

print("\na frame is new only if its id is above the last one accepted:")
print(f"  id 5 after high-water 4: new = {integrity_check(AckSyn(5, 1), 4)}")
print(f"  id 5 again:              new = {integrity_check(AckSyn(5, 1), 5)}"
      "  (answered with the cached reply)")
print(f"  id 3 out of order:       new = {integrity_check(AckSyn(3, 1), 5)}"
      "  (ignored)")

print("\ngenerator golden vectors (seed -> first three 64-bit words):")
for seed in (bytes(range(16)), bytes(16)):
    state = seed_from_bytes(seed)
    words = []
    for _ in range(3):
        word, state = next_word(state)
        words.append(f"{word:016x}")
    print(f"  {seed.hex()} -> {' '.join(words)}")
print("(an all-zero seed maps to a fixed fallback state, never (0, 0))")
