"""Shared helpers for protocol-level tests: config factory and a recording host."""

from paritykex.channel import ChannelConfig, SimulatedLink
from paritykex.exchange import Endpoint, derive_seed, run_over_link
from paritykex.network import TpmParams
from paritykex.protocol import FrameArrived, ProtocolConfig, SendFrame


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


def fresh(role, cfg, seed):
    """The initial state and generator of an endpoint, for single-step tests."""
    endpoint = Endpoint(role, cfg, seed)
    return endpoint.state, endpoint.rng


class RecordingEndpoint(Endpoint):
    """Endpoint that logs every frame it sends on ``wire`` as (name, frame),
    "a" for the sender and "b" for the receiver, and shows each arriving frame
    to ``on_delivery(endpoint, frame)`` first, so tests can snapshot its state
    (and, through ``peer``, the other side's) or replay the frame against it."""

    def __init__(self, role, cfg, seed, wire, on_delivery=None):
        super().__init__(role, cfg, seed)
        self.name = "a" if role == "sender" else "b"
        self.wire = wire
        self.on_delivery = on_delivery
        self.peer = None

    def feed(self, event, now):
        if self.on_delivery is not None and isinstance(event, FrameArrived):
            self.on_delivery(self, event.frame)
        actions = super().feed(event, now)
        self.wire.extend((self.name, a.frame) for a in actions if isinstance(a, SendFrame))
        return actions


def drive(cfg, master_seed, channel=ChannelConfig(), cap=8000, receiver_cfg=None,
          on_delivery=None):
    """Run one exchange like ``run_exchange`` but record the wire.

    Returns the outcome and the list of (name, frame) sent, "a" being the
    sender and "b" the receiver.
    """
    wire = []
    sender = RecordingEndpoint("sender", cfg, derive_seed(master_seed, "sender"),
                               wire, on_delivery)
    receiver = RecordingEndpoint("receiver", receiver_cfg or cfg,
                                 derive_seed(master_seed, "receiver"), wire, on_delivery)
    sender.peer, receiver.peer = receiver, sender
    return run_over_link(sender, receiver, SimulatedLink(channel), cap), wire
