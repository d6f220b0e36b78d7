"""A complete key exchange: synchronization, sync probe, certification.

The sender opens numbered rounds (SYN carries the input seed, its output
bit, and a SHA-256 probe of its whole weight bank bound to the round).
Once the receiver's own bank gives the same probe, the banks are equal: it
names a group index, both sides derive the session key from their whole
bank with HKDF salted by that index, and each proves knowledge of its
secret code with an HMAC over the key.  The same run is then repeated over
a lossy, duplicating, corrupting channel.
"""

from dataclasses import replace

from paritykex import ChannelConfig, ProtocolConfig, TpmParams, is_synchronized, run_exchange

cfg = ProtocolConfig(
    params=TpmParams(k=3, n=32, l=3),
    ssc=bytes.fromhex("00112233445566778899aabbccddeeff"),
    rsc=bytes.fromhex("ffeeddccbbaa99887766554433221100"),
    rule="random_walk",
    timeout_ticks=16,
    max_attempts=12,
)

print("=== lossless channel ===")
outcome = run_exchange(cfg, master_seed=b"demo-exchange-0!", iteration_cap=20_000)
assert outcome.established
print(f"established in {outcome.rounds} rounds "
      f"({outcome.iterations} weight updates, {outcome.ticks} ticks)")
print(f"sender key:   {outcome.sender_key.key.hex()}")
print(f"receiver key: {outcome.receiver_key.key.hex()}")
print(f"group index (the HKDF salt): {outcome.sender_key.iv} of 6")
print(f"wire traffic: {outcome.channel.frames_sent} frames, "
      f"{outcome.channel.bytes_sent} bytes")
print(f"weight banks equal: {is_synchronized(outcome.sender.net, outcome.receiver.net)} "
      "(a key is offered only when the whole-bank probe matches)")

print("\n=== drop 10% / duplicate 5% / corrupt 2% ===")
# a lost frame is re-sent unchanged and a repeat is answered from the cached
# reply, so the lossy run learns the same steps and agrees on the same key
clean_key = outcome.sender_key
channel = ChannelConfig(drop_prob=0.10, dup_prob=0.05, corrupt_prob=0.02, rng_seed=9)
outcome = run_exchange(
    cfg, master_seed=b"demo-exchange-0!", channel_config=channel, iteration_cap=20_000,
)
assert outcome.established
assert outcome.sender_key == outcome.receiver_key == clean_key
print(f"established in {outcome.rounds} rounds ({outcome.iterations} weight updates) despite "
      f"{outcome.channel.dropped} drops, {outcome.channel.duplicated} duplicates, "
      f"{outcome.channel.corrupted} corrupted frames")
print(f"every corrupted frame was rejected by CRC: "
      f"{outcome.decode_failures} rejections")
print(f"shared key, the lossless run's: {outcome.sender_key.key.hex()}")

print("\n=== mismatched sender secret ===")
bad = replace(cfg, ssc=bytes(16))
outcome = run_exchange(
    bad, master_seed=b"demo-exchange-2!", iteration_cap=20_000, receiver_cfg=cfg
)
assert not outcome.established
print(f"receiver verdict: {outcome.fail_reason} "
      f"(receiver phase: {outcome.receiver.phase})")
