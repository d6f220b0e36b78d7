"""Datagram delivery between the two endpoints.

``SimulatedLink`` is a deterministic in-memory channel driven by virtual
ticks; it can drop, duplicate, corrupt (flip exactly one bit), reorder and
delay datagrams, and it keeps the byte counters that back the
data-exchanged statistics.  ``UdpTransport`` is the thin real-datagram
binding: one frame per datagram, no retransmission below the protocol.
"""

from __future__ import annotations

import heapq
import random
import socket
from dataclasses import dataclass
from typing import Optional

from .network import plain_int

ENDPOINTS = ("a", "b")


@dataclass(frozen=True)
class ChannelConfig:
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    corrupt_prob: float = 0.0
    reorder_prob: float = 0.0
    latency_ticks: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "corrupt_prob", "reorder_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        # nan would run as latency 0, 1.5 as 2, and inf deliver nothing
        latency = plain_int(self.latency_ticks, "latency_ticks")
        if latency < 0:
            raise ValueError("latency_ticks must be non-negative")
        object.__setattr__(self, "latency_ticks", latency)


@dataclass
class ChannelStats:
    frames_sent: int = 0
    frames_delivered: int = 0
    bytes_sent: int = 0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    reordered: int = 0


class SimulatedLink:
    """Bidirectional impairment-injecting link between endpoints 'a' and 'b'.

    Single-owner: one driver loop calls send/poll with a monotone tick.
    Everything is a pure function of (config, traffic, ticks) because all
    randomness comes from the seeded generator.
    """

    def __init__(self, config: ChannelConfig = ChannelConfig()):
        self.config = config
        self.stats = ChannelStats()
        self._rng = random.Random(config.rng_seed)
        self._seq = 0
        # per destination: a heap of (deliver_tick, seq, datagram), popped in (tick, seq) order
        self._queues: dict[str, list[tuple[int, int, bytes]]] = {"a": [], "b": []}

    @staticmethod
    def _peer(endpoint: str) -> str:
        if endpoint not in ENDPOINTS:
            raise ValueError(f"endpoint must be one of {ENDPOINTS}")
        return "b" if endpoint == "a" else "a"

    def _flip_one_bit(self, data: bytes) -> bytes:
        pos = self._rng.randrange(len(data) * 8)
        buf = bytearray(data)
        buf[pos // 8] ^= 1 << (pos % 8)
        return bytes(buf)

    def send(self, endpoint: str, data: bytes, now_ticks: int) -> None:
        """Queue a datagram from ``endpoint`` toward its peer."""
        if not data:
            raise ValueError("cannot send an empty datagram")
        queue = self._queues[self._peer(endpoint)]
        cfg, stats, draw = self.config, self.stats, self._rng.random
        stats.frames_sent += 1
        stats.bytes_sent += len(data)

        if draw() < cfg.drop_prob:
            stats.dropped += 1
            return
        copies = 1
        if draw() < cfg.dup_prob:
            copies = 2
            stats.duplicated += 1
        for copy in range(copies):
            datagram = data
            if draw() < cfg.corrupt_prob:
                datagram = self._flip_one_bit(datagram)
                stats.corrupted += 1
            tick = now_ticks + cfg.latency_ticks + copy
            if draw() < cfg.reorder_prob:
                tick += self._rng.randint(1, 3)
                stats.reordered += 1
            heapq.heappush(queue, (tick, self._seq, datagram))
            self._seq += 1

    def poll(self, endpoint: str, now_ticks: int) -> list[bytes]:
        """All datagrams due at ``endpoint`` by ``now_ticks``, in (tick, seq) order."""
        if endpoint not in ENDPOINTS:
            raise ValueError(f"endpoint must be one of {ENDPOINTS}")
        queue = self._queues[endpoint]
        delivered = []
        while queue and queue[0][0] <= now_ticks:
            delivered.append(heapq.heappop(queue)[2])
        self.stats.frames_delivered += len(delivered)
        return delivered


class UdpTransport:
    """One endpoint of a datagram socket pair.

    send() may be called from any thread; receive() blocks up to its
    timeout.  A listening endpoint learns its peer from the first datagram;
    then, like a connecting one, it drops datagrams from other addresses.
    """

    def __init__(
        self,
        local: tuple[str, int],
        remote: Optional[tuple[str, int]] = None,
    ):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(local)
        if remote is not None:  # numeric, as recvfrom reports the peer
            remote = socket.getaddrinfo(*remote, socket.AF_INET, socket.SOCK_DGRAM)[0][4]
        self._remote = remote

    @property
    def local_address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def send(self, data: bytes) -> None:
        if self._remote is None:
            raise RuntimeError("peer address not known yet")
        self._sock.sendto(data, self._remote)

    def receive(self, timeout: float) -> Optional[bytes]:
        """Next datagram from the peer, or None on timeout or on a datagram from another address."""
        self._sock.settimeout(timeout)
        try:
            data, addr = self._sock.recvfrom(65536)
        except socket.timeout:
            return None
        if self._remote is None:
            self._remote = addr
        elif addr != self._remote:
            return None
        return data

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "UdpTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
