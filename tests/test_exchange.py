"""Driven end-to-end exchanges: determinism, loss tolerance, UDP runners."""

import threading

from paritykex.channel import ChannelConfig, UdpTransport
from paritykex.exchange import (
    derive_seed,
    run_exchange,
    run_udp,
)
from paritykex.network import TpmParams
from paritykex.protocol import ProtocolConfig


def config(l=2, n=32, **kw):
    defaults = dict(
        params=TpmParams(k=3, n=n, l=l),
        ssc=b"sender-secret-0!",
        rsc=b"receiv-secret-0!",
        rule="random_walk",
        timeout_ticks=16,
        max_attempts=8,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def test_derive_seed_is_stable_and_labeled():
    a = derive_seed(b"m" * 16, "sender")
    b = derive_seed(b"m" * 16, "sender")
    c = derive_seed(b"m" * 16, "receiver")
    assert a == b
    assert a != c
    assert len(a) == 16


def test_lossless_exchange_delivers_identical_keys():
    outcome = run_exchange(config(), master_seed=b"exchange-seed-0!", iteration_cap=8000)
    assert outcome.established
    assert outcome.fail_reason is None
    assert outcome.sender_key == outcome.receiver_key is not None
    assert outcome.rounds > 0
    assert outcome.iterations > 0
    assert outcome.channel.bytes_sent > 0


def test_exchange_is_deterministic():
    a = run_exchange(config(), master_seed=b"determinism-see!", iteration_cap=8000)
    b = run_exchange(config(), master_seed=b"determinism-see!", iteration_cap=8000)
    assert a.established and b.established
    assert a.sender_key == b.sender_key
    assert a.rounds == b.rounds
    assert a.ticks == b.ticks
    assert a.channel.bytes_sent == b.channel.bytes_sent


def test_exchange_survives_loss_and_duplication():
    channel = ChannelConfig(drop_prob=0.1, dup_prob=0.05, latency_ticks=1, rng_seed=77)
    outcome = run_exchange(
        config(max_attempts=10),
        master_seed=b"lossy-exchange-0",
        channel_config=channel,
        iteration_cap=8000,
    )
    assert outcome.established
    assert outcome.sender_key == outcome.receiver_key


def test_corruption_is_rejected_not_accepted():
    channel = ChannelConfig(corrupt_prob=0.05, rng_seed=13)
    outcome = run_exchange(
        config(max_attempts=10),
        master_seed=b"corrupt-exchange",
        channel_config=channel,
        iteration_cap=8000,
    )
    assert outcome.established
    assert outcome.decode_failures == outcome.channel.corrupted


def test_mismatched_secret_fails_verifying_side():
    from dataclasses import replace

    cfg = config(l=1, n=16, max_attempts=4)
    bad = replace(cfg, ssc=bytes(16))
    outcome = run_exchange(
        cfg, master_seed=b"bad-ssc-exchange", iteration_cap=8000, receiver_cfg=bad
    )
    assert not outcome.established
    assert outcome.receiver.phase == "failed"
    assert outcome.fail_reason == "peer certification failed"


def test_liveness_under_plain_loss():
    # five consecutive unanswered rounds abort a run, yet a 10% drop rate
    # still lets the vast majority establish
    cfg = config(l=1, n=16, max_attempts=5, timeout_ticks=8)
    established = 0
    runs = 200
    for i in range(runs):
        outcome = run_exchange(
            cfg,
            master_seed=derive_seed(b"LV" * 8, f"r{i}"),
            channel_config=ChannelConfig(drop_prob=0.1, rng_seed=1000 + i),
            iteration_cap=20_000,
        )
        established += outcome.established
    assert established >= 0.95 * runs, f"{established}/{runs}"


def test_iteration_cap_stops_unfinished_runs():
    outcome = run_exchange(config(l=5), master_seed=b"tiny-cap-run-00!", iteration_cap=5)
    assert not outcome.established
    assert outcome.rounds <= 6


def test_udp_endpoints_agree_over_loopback():
    cfg = config(l=1, n=16, timeout_ticks=200, max_attempts=5)
    receiver_transport = UdpTransport(("127.0.0.1", 0))
    sender_transport = UdpTransport(("127.0.0.1", 0), remote=receiver_transport.local_address)
    results = {}

    def run_receiver():
        results["receiver"] = run_udp(
            "receiver", cfg, b"udp-recv-seed-0!", receiver_transport, overall_timeout=60
        )

    def run_sender():
        results["sender"] = run_udp(
            "sender", cfg, b"udp-send-seed-0!", sender_transport, overall_timeout=60
        )

    threads = [threading.Thread(target=run_receiver), threading.Thread(target=run_sender)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=90)
    try:
        sender_state, sender_key, sender_fail = results["sender"]
        receiver_state, receiver_key, receiver_fail = results["receiver"]
        assert sender_fail is None and receiver_fail is None
        assert sender_state.phase == "established"
        assert receiver_state.phase == "established"
        assert sender_key == receiver_key is not None
    finally:
        receiver_transport.close()
        sender_transport.close()
