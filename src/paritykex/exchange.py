"""One endpoint host for both roles, and the loops that drive it.

An ``Endpoint`` runs the state machine of either role: it sends frames
through a ``send`` callable and keeps the retransmission deadline in ticks.
``run_over_link`` moves two endpoints across a SimulatedLink in a
deterministic tick loop; ``run_exchange`` builds them from a master seed and
is the engine behind the protocol-mode trial runner, the acceptance tests and
the CLI's simulated mode.  ``run_udp`` drives one endpoint over real
datagrams, one process (or thread) per side, with ticks of ``tick_ms``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Literal, Optional

from .channel import ChannelConfig, ChannelStats, SimulatedLink, UdpTransport
from .frames import FrameError, decode_frame, encode_frame
from .keycodec import SessionKey
from .network import init_network
from .protocol import (
    Action,
    DeliverKey,
    Event,
    Fail,
    FrameArrived,
    ProtocolConfig,
    ReceiverState,
    SendFrame,
    SenderState,
    SetTimer,
    Start,
    TimerFired,
    receiver_advance,
    sender_advance,
)
from .rng import seed_from_bytes

Role = Literal["sender", "receiver"]


def derive_seed(master_seed: bytes, label: str) -> bytes:
    """Stable 16-byte sub-seed for one role or trial."""
    return hashlib.sha256(master_seed + b"/" + label.encode()).digest()[:16]


class Endpoint:
    """One side of an exchange: state machine, generator, timer and result.

    ``seed`` draws the network, then drives the generator the machine uses.
    ``send(datagram, now)`` carries every encoded frame away; ``now`` is the
    current tick, which a link uses and a socket ignores.  ``run_over_link``
    sets ``send`` itself, so endpoints bound for a link are built without it.
    """

    def __init__(self, role: Role, cfg: ProtocolConfig, seed: bytes,
                 send: Optional[Callable[[bytes, float], None]] = None):
        net, self.rng = init_network(cfg.params, seed_from_bytes(seed))
        if role == "sender":
            self.state = SenderState(net=net)
            self.advance = sender_advance
        else:
            self.state = ReceiverState(net=net)
            self.advance = receiver_advance
        self.cfg = cfg
        self.send = send
        self.deadline: Optional[float] = None
        self.key: Optional[SessionKey] = None
        self.fail_reason: Optional[str] = None

    @property
    def settled(self) -> bool:
        return self.state.phase in ("established", "failed")

    def feed(self, event: Event, now: float) -> tuple[Action, ...]:
        """Advance the machine by one event and carry out its actions."""
        self.state, actions, self.rng = self.advance(self.state, event, self.cfg, self.rng)
        for action in actions:
            if isinstance(action, SendFrame):
                self.send(encode_frame(action.frame), now)
            elif isinstance(action, SetTimer):
                self.deadline = now + action.ticks
            elif isinstance(action, DeliverKey):
                self.key = action.session
            elif isinstance(action, Fail):
                self.fail_reason = action.reason
        if self.settled:
            self.deadline = None
        return actions

    def receive(self, datagram: bytes, now: float) -> bool:
        """Feed one datagram; False when it does not decode and is dropped."""
        try:
            frame = decode_frame(datagram)
        except FrameError:
            return False
        self.feed(FrameArrived(frame), now)
        return True

    def expire(self, now: float) -> None:
        """Fire the retransmission timer if its deadline has passed."""
        if self.deadline is not None and now >= self.deadline:
            self.deadline = None
            self.feed(TimerFired(), now)


@dataclass
class ExchangeOutcome:
    """End-to-end result of one driven exchange."""

    established: bool
    fail_reason: Optional[str]
    sender_key: Optional[SessionKey]
    receiver_key: Optional[SessionKey]
    rounds: int
    iterations: int
    ticks: int
    channel: ChannelStats
    decode_failures: int
    sender: SenderState
    receiver: ReceiverState


def run_over_link(
    sender: Endpoint,
    receiver: Endpoint,
    link: SimulatedLink,
    iteration_cap: int,
) -> ExchangeOutcome:
    """Tick loop: deliver due datagrams, fire due timers, advance the clock.

    The sender talks on the link as "a" and the receiver as "b"; this binds
    their ``send``.  The run stops when both sides settle, either side fails,
    or the sender has opened more than ``iteration_cap`` rounds.
    """
    cfg = sender.cfg
    sender.send = partial(link.send, "a")
    receiver.send = partial(link.send, "b")
    hosts = (("a", sender), ("b", receiver))
    decode_failures = 0
    now = 0
    sender.feed(Start(), now)
    # generous horizon: every round costs at most a timeout plus slack
    tick_limit = (iteration_cap + cfg.max_attempts + 4) * (cfg.timeout_ticks + 4)
    while now < tick_limit:
        for name, host in hosts:
            for datagram in link.poll(name, now):
                if not host.receive(datagram, now):
                    decode_failures += 1
        for _, host in hosts:
            host.expire(now)
        phases = (sender.state.phase, receiver.state.phase)
        if "failed" in phases or phases == ("established", "established"):
            break
        if sender.state.rounds > iteration_cap:
            break
        now += 1

    return ExchangeOutcome(
        established=sender.state.phase == receiver.state.phase == "established",
        fail_reason=sender.fail_reason or receiver.fail_reason,
        sender_key=sender.key,
        receiver_key=receiver.key,
        rounds=sender.state.rounds,
        iterations=sender.state.iterations,
        ticks=now,
        channel=link.stats,
        decode_failures=decode_failures,
        sender=sender.state,
        receiver=receiver.state,
    )


def run_exchange(
    cfg: ProtocolConfig,
    master_seed: bytes,
    channel_config: ChannelConfig = ChannelConfig(),
    iteration_cap: int = 20_000,
    receiver_cfg: Optional[ProtocolConfig] = None,
) -> ExchangeOutcome:
    """Drive one full key exchange over a simulated link.

    ``receiver_cfg`` lets tests hand the two sides diverging configs (for
    example a mutated secret code); by default both share ``cfg``.  See
    ``run_over_link`` for when the run stops.
    """
    sender = Endpoint("sender", cfg, derive_seed(master_seed, "sender"))
    receiver = Endpoint("receiver", receiver_cfg or cfg, derive_seed(master_seed, "receiver"))
    return run_over_link(sender, receiver, SimulatedLink(channel_config), iteration_cap)


# --- real-datagram runners ------------------------------------------------


def run_udp(
    role: Role,
    cfg: ProtocolConfig,
    seed: bytes,
    transport: UdpTransport,
    tick_ms: float = 1.0,
    overall_timeout: float = 120.0,
):
    """Run one endpoint over UDP until it settles; a tick is ``tick_ms`` ms.

    Returns the final state, the delivered key and the failure reason.
    """
    host = Endpoint(role, cfg, seed, lambda datagram, now: transport.send(datagram))
    t0 = time.monotonic()

    def now() -> float:
        return (time.monotonic() - t0) * 1000.0 / tick_ms

    if role == "sender":
        host.feed(Start(), now())
    while not host.settled:
        if time.monotonic() - t0 > overall_timeout:
            host.fail_reason = host.fail_reason or "overall timeout"
            break
        wait = 0.05
        if host.deadline is not None:
            wait = max(0.0, min(wait, (host.deadline - now()) * tick_ms / 1000.0))
        datagram = transport.receive(timeout=max(wait, 1e-4))
        if datagram is not None:
            host.receive(datagram, now())
        host.expire(now())
    return host.state, host.key, host.fail_reason
