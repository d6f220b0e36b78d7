"""Simulated link impairments, accounting, and the UDP binding."""

import random
import socket
import threading

import numpy as np
import pytest

from paritykex.channel import ChannelConfig, ChannelStats, SimulatedLink, UdpTransport
from paritykex.frames import AckSyn, FrameError, decode_frame, encode_frame


def test_lossless_is_fifo_exactly_once():
    link = SimulatedLink(ChannelConfig())
    messages = [bytes([i]) * 10 for i in range(20)]
    for i, m in enumerate(messages):
        link.send("a", m, now_ticks=i)
    assert link.poll("b", now_ticks=50) == messages
    assert link.poll("b", now_ticks=51) == []
    assert link.stats.frames_sent == 20
    assert link.stats.frames_delivered == 20


def test_direction_separation():
    link = SimulatedLink(ChannelConfig())
    link.send("a", b"to-b", 0)
    link.send("b", b"to-a", 0)
    assert link.poll("a", 5) == [b"to-a"]
    assert link.poll("b", 5) == [b"to-b"]


def test_full_drop_delivers_nothing():
    link = SimulatedLink(ChannelConfig(drop_prob=1.0, rng_seed=1))
    for i in range(100):
        link.send("a", b"payload", i)
    assert link.poll("b", 10_000) == []
    assert link.stats.dropped == 100
    assert link.stats.bytes_sent == 700


def test_latency_defers_delivery():
    link = SimulatedLink(ChannelConfig(latency_ticks=5))
    link.send("a", b"slow", 10)
    assert link.poll("b", 14) == []
    assert link.poll("b", 15) == [b"slow"]


def test_duplicates_deliver_twice():
    link = SimulatedLink(ChannelConfig(dup_prob=1.0, rng_seed=2))
    link.send("a", b"twice", 0)
    assert link.poll("b", 10) == [b"twice", b"twice"]
    assert link.stats.duplicated == 1


def test_corruption_flips_exactly_one_bit():
    link = SimulatedLink(ChannelConfig(corrupt_prob=1.0, rng_seed=3))
    original = bytes(range(40))
    for i in range(50):
        link.send("a", original, i)
    for delivered in link.poll("b", 1000):
        diff = [a ^ b for a, b in zip(original, delivered)]
        assert sum(bin(d).count("1") for d in diff) == 1


def test_corrupted_frames_always_fail_decode():
    link = SimulatedLink(ChannelConfig(corrupt_prob=1.0, rng_seed=4))
    wire = encode_frame(AckSyn(12, tau=1))
    for i in range(200):
        link.send("a", wire, i)
    delivered = link.poll("b", 10_000)
    assert len(delivered) == 200
    for datagram in delivered:
        with pytest.raises(FrameError):
            decode_frame(datagram)


def test_determinism_under_fixed_seed():
    def run():
        link = SimulatedLink(
            ChannelConfig(drop_prob=0.2, dup_prob=0.1, corrupt_prob=0.1,
                          reorder_prob=0.2, latency_ticks=2, rng_seed=99)
        )
        for i in range(300):
            link.send("a" if i % 2 else "b", bytes([i % 256]) * 8, i)
        out = []
        for t in range(400):
            out.extend((t, d) for d in link.poll("a", t))
            out.extend((t, d) for d in link.poll("b", t))
        return out, link.stats

    first, stats1 = run()
    second, stats2 = run()
    assert first == second
    assert stats1 == stats2


def test_drop_rate_statistics():
    link = SimulatedLink(ChannelConfig(drop_prob=0.1, rng_seed=5))
    sends = 10_000
    for i in range(sends):
        link.send("a", b"x" * 4, 0)
    delivered = len(link.poll("b", 100))
    assert abs(delivered / sends - 0.9) < 0.02


def test_bytes_accounting_is_sum_of_lengths():
    link = SimulatedLink(ChannelConfig(drop_prob=0.5, rng_seed=6))
    lengths = [10, 25, 42, 9, 17]
    for i, length in enumerate(lengths):
        link.send("a", bytes(length), i)
    assert link.stats.bytes_sent == sum(lengths)


def test_reorder_can_invert_delivery_order():
    link = SimulatedLink(ChannelConfig(reorder_prob=0.5, rng_seed=11))
    for i in range(50):
        link.send("a", bytes([i]), 0)
    order = [d[0] for d in link.poll("b", 100)]
    assert sorted(order) == list(range(50))
    assert order != list(range(50))
    assert link.stats.reordered > 0


def test_empty_datagram_rejected():
    link = SimulatedLink(ChannelConfig())
    with pytest.raises(ValueError):
        link.send("a", b"", 0)
    with pytest.raises(ValueError):
        link.send("c", b"x", 0)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(drop_prob=1.5)
    with pytest.raises(ValueError):
        ChannelConfig(latency_ticks=-1)


def test_latency_is_a_plain_int():
    # nan ran as latency 0, 1.5 as 2, True as 1, and inf delivered nothing
    for latency in (float("nan"), 1.5, True, float("inf"), "2"):
        with pytest.raises(ValueError, match="latency_ticks"):
            ChannelConfig(latency_ticks=latency)
    config = ChannelConfig(latency_ticks=np.int64(2))
    assert type(config.latency_ticks) is int and config.latency_ticks == 2
    link = SimulatedLink(config)
    link.send("a", b"x", now_ticks=0)
    assert link.poll("b", now_ticks=1) == [] and link.poll("b", now_ticks=2) == [b"x"]


def test_udp_loopback_roundtrip():
    server = UdpTransport(("127.0.0.1", 0))
    client = UdpTransport(("127.0.0.1", 0), remote=server.local_address)

    received = {}

    def serve():
        data = server.receive(timeout=5.0)
        received["server"] = data
        server.send(b"pong:" + (data or b""))

    thread = threading.Thread(target=serve)
    thread.start()
    client.send(b"ping")
    reply = client.receive(timeout=5.0)
    thread.join()
    assert received["server"] == b"ping"
    assert reply == b"pong:ping"
    assert client.receive(timeout=0.05) is None
    server.close()
    client.close()


def test_udp_receive_drops_datagrams_from_other_addresses():
    # a valid SYN with frame id 10**6 from a third socket once pushed a receiver's
    # last seen id past every real SYN, and the exchange failed
    third = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    with UdpTransport(("127.0.0.1", 0)) as server, \
            UdpTransport(("127.0.0.1", 0), remote=("localhost", server.local_address[1])) as client:
        client.send(b"first")
        assert server.receive(timeout=5.0) == b"first"  # the listener learns its peer
        for target, peer in ((server, client), (client, server)):
            third.sendto(b"forged", target.local_address)
            peer.send(b"real")
            assert target.receive(timeout=5.0) is None
            assert target.receive(timeout=5.0) == b"real"
    third.close()


def test_poll_of_an_empty_queue_still_rejects_an_unknown_endpoint():
    link = SimulatedLink(ChannelConfig())
    assert link.poll("b", 0) == []
    with pytest.raises(ValueError):
        link.poll("c", 0)


def test_poll_returns_the_due_datagrams_in_tick_then_send_order_and_keeps_the_rest():
    link = SimulatedLink(ChannelConfig())
    for data, tick in ((b"late", 10), (b"first", 0), (b"mid", 5), (b"second", 0), (b"later", 7)):
        link.send("a", data, tick)
    assert link.poll("b", 4) == [b"first", b"second"]
    assert link.poll("b", 6) == [b"mid"]
    assert link.stats.frames_delivered == 3
    assert link.poll("b", 6) == [] and link.poll("a", 100) == []
    link.send("a", b"early", 3)  # sent after the later ones, due before them
    assert link.poll("b", 10) == [b"early", b"later", b"late"]
    assert link.stats.frames_delivered == 6


class SortedListLink:
    """The link's contract as a plain model: the same draws in the same order, and
    per destination one list kept sorted by (deliver tick, send order)."""

    def __init__(self, config):
        self.config, self.stats = config, ChannelStats()
        self.rng = random.Random(config.rng_seed)
        self.queues = {"a": [], "b": []}
        self.sent = 0

    def send(self, endpoint, data, now):
        cfg, stats, rng = self.config, self.stats, self.rng
        stats.frames_sent += 1
        stats.bytes_sent += len(data)
        if rng.random() < cfg.drop_prob:
            stats.dropped += 1
            return
        copies = 2 if rng.random() < cfg.dup_prob else 1
        stats.duplicated += copies - 1
        for copy in range(copies):
            datagram = data
            if rng.random() < cfg.corrupt_prob:
                bit = rng.randrange(len(data) * 8)
                datagram = bytearray(data)
                datagram[bit // 8] ^= 1 << bit % 8
                datagram = bytes(datagram)
                stats.corrupted += 1
            tick = now + cfg.latency_ticks + copy
            if rng.random() < cfg.reorder_prob:
                tick += rng.randint(1, 3)
                stats.reordered += 1
            queue = self.queues["b" if endpoint == "a" else "a"]
            queue.append((tick, self.sent, datagram))
            queue.sort()
            self.sent += 1

    def poll(self, endpoint, now):
        queue = self.queues[endpoint]
        due = [datagram for tick, _, datagram in queue if tick <= now]
        queue[:] = [entry for entry in queue if entry[0] > now]
        self.stats.frames_delivered += len(due)
        return due


def test_link_matches_a_sorted_list_model_under_every_impairment():
    # many sends share a tick, and latency, duplication and reordering make
    # datagrams of different send ticks fall due together: ties go by send order
    config = ChannelConfig(drop_prob=0.1, dup_prob=0.3, corrupt_prob=0.2,
                           reorder_prob=0.4, latency_ticks=2, rng_seed=28)
    link, model = SimulatedLink(config), SortedListLink(config)
    schedule = random.Random(2028)
    now = sends = batches = 0
    while sends < 2000:
        if schedule.random() < 0.6:
            endpoint = schedule.choice("ab")
            data = bytes(schedule.randrange(256) for _ in range(schedule.randint(1, 12)))
            link.send(endpoint, data, now)
            model.send(endpoint, data, now)
            sends += 1
        else:
            endpoint = schedule.choice("ab")
            delivered = link.poll(endpoint, now)
            assert delivered == model.poll(endpoint, now)
            batches += len(delivered) > 1
        if schedule.random() < 0.3:
            now += 1
    for endpoint in "ab":
        assert link.poll(endpoint, now + 10) == model.poll(endpoint, now + 10)
    assert link.stats == model.stats
    assert model.queues == {"a": [], "b": []}
    assert batches > 100 and all(vars(link.stats).values())
