"""Driven end-to-end exchanges: determinism, loss tolerance, UDP runners."""

import threading

import pytest

from paritykex.channel import ChannelConfig, SimulatedLink, UdpTransport
from paritykex.exchange import (
    Endpoint,
    derive_seed,
    run_over_link,
    run_exchange,
    run_udp,
)
from paritykex.frames import FinSyn, Frame, encode_frame
from paritykex.network import TpmParams
from paritykex.protocol import ProtocolConfig, Start


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


def test_a_settled_endpoint_keeps_no_deadline():
    # an established or failed machine must leave no retransmission timer behind
    from dataclasses import replace

    cfg = config(l=1, n=16, max_attempts=4)
    for receiver_cfg, phases in ((cfg, ("established", "established")),
                                 (replace(cfg, ssc=bytes(16)), (None, "failed")),
                                 (replace(cfg, rsc=bytes(16)), ("failed", None))):
        master = b"settled-deadline"
        sender = Endpoint("sender", cfg, derive_seed(master, "sender"))
        receiver = Endpoint("receiver", receiver_cfg, derive_seed(master, "receiver"))
        run_over_link(sender, receiver, SimulatedLink(), 8000)
        for endpoint, phase in zip((sender, receiver), phases):
            if phase is not None:
                assert endpoint.state.phase == phase
                assert endpoint.deadline is None


def test_endpoint_sends_frames_encoded_and_sets_its_deadline():
    # one endpoint against a recording send: the frame a step returns leaves as
    # its encoding, each frame the sender sends arms its deadline from the step's
    # tick, and a datagram that does not decode is dropped without touching the machine
    cfg = config()
    sent = []
    host = Endpoint("sender", cfg, b"host-test-seed-0",
                    lambda datagram, now: sent.append((datagram, now)))

    syn = host.feed(Start(), 3)
    assert isinstance(syn, Frame) and syn is host.state.sent
    assert sent == [(encode_frame(syn), 3)]
    assert host.deadline == 3 + cfg.timeout_ticks

    wire = encode_frame(syn)
    undecodable = (b"", wire[:-1], bytes([wire[0] ^ 1]) + wire[1:], wire[:-1] + bytes([wire[-1] ^ 1]))
    for datagram in undecodable:
        state = host.state
        assert host.receive(datagram, 7) is False
        assert host.state is state and host.deadline == 3 + cfg.timeout_ticks and len(sent) == 1

    # a FIN_SYN answering the SYN: the AUTH leaves encoded and the timer restarts from tick 9
    assert host.receive(encode_frame(FinSyn(syn.frame_id, iv=2)), 9) is True
    assert host.state.phase == "certifying"
    auth = host.state.sent
    assert sent[1:] == [(encode_frame(auth), 9)]
    assert host.deadline == 9 + cfg.timeout_ticks

    # the deadline passing re-sends the AUTH and re-arms the timer from that tick
    host.expire(8 + cfg.timeout_ticks)
    assert len(sent) == 2
    host.expire(9 + cfg.timeout_ticks)
    assert sent[2:] == [(encode_frame(auth), 9 + cfg.timeout_ticks)]
    assert host.deadline == 9 + 2 * cfg.timeout_ticks

    # a receiver answering the SYN sends its reply encoded and never has a deadline
    replies = []
    peer = Endpoint("receiver", cfg, b"host-test-seed-1",
                    lambda datagram, now: replies.append((datagram, now)))
    assert peer.receive(encode_frame(syn), 4) is True
    assert peer.state.reply.frame_id == syn.frame_id
    assert replies == [(encode_frame(peer.state.reply), 4)]
    assert peer.deadline is None


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
    # a cap of 0 still sends the first SYN; each lossless round takes one tick
    for cap, rounds, ticks in ((0, 1, 0), (5, 6, 5)):
        outcome = run_exchange(config(l=5), master_seed=b"tiny-cap-run-00!", iteration_cap=cap)
        assert (outcome.established, outcome.fail_reason) == (False, None)
        assert (outcome.rounds, outcome.ticks) == (rounds, ticks)


@pytest.mark.parametrize("cap, match", [
    (float("nan"), "integer"), (2.5, "integer"), (True, "integer"), (-1, "non-negative"),
])
def test_iteration_cap_must_be_a_non_negative_integer(cap, match):
    # a nan or negative cap would run nothing and report no reason, and 2.5 is no round count
    with pytest.raises(ValueError, match=match):
        run_exchange(config(), master_seed=b"bad-cap-run-000!", iteration_cap=cap)
    sender, receiver = (Endpoint(role, config(), bytes(16)) for role in ("sender", "receiver"))
    with pytest.raises(ValueError, match=match):
        run_over_link(sender, receiver, SimulatedLink(), cap)
    assert sender.state.phase == "idle" and sender.send is None


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


class UnusedTransport:
    """A transport that fails the test if the runner touches it."""

    def __getattr__(self, name):
        raise AssertionError(f"transport.{name} used")


@pytest.mark.parametrize("role", ["recever", "Sender", None])
def test_endpoint_and_udp_runner_reject_an_unknown_role(role):
    # any role but "sender" built a receiver, so run_udp("recever", ...) listened for 120 s
    with pytest.raises(ValueError, match="role must be"):
        Endpoint(role, config(), b"role-check-seed0")
    with pytest.raises(ValueError, match="role must be"):
        run_udp(role, config(), b"role-check-seed0", UnusedTransport())


@pytest.mark.parametrize("role", ["sender", "receiver"])
@pytest.mark.parametrize("tick_ms", [0, -1.0, float("nan"), float("inf")])
def test_udp_runner_rejects_nonpositive_tick(role, tick_ms):
    # a zero tick divided by zero in the clock and a negative one ran it backwards; an
    # infinite one held it at 0, so the retransmission timer never fired
    with pytest.raises(ValueError, match="tick_ms"):
        run_udp(role, config(), b"udp-tick-check-0", UnusedTransport(), tick_ms)


@pytest.mark.parametrize("role", ["sender", "receiver"])
@pytest.mark.parametrize("overall_timeout", [0, -1.0, float("nan")])
def test_udp_runner_rejects_a_timeout_that_is_not_positive(role, overall_timeout):
    # elapsed > nan is never true, so a nan timeout would leave a lone listener waiting forever
    with pytest.raises(ValueError, match="overall_timeout"):
        run_udp(role, config(), b"udp-tick-check-0", UnusedTransport(), overall_timeout=overall_timeout)
