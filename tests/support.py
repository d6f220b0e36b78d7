"""Shared helpers for protocol-level tests: config factory and a recording host."""

from paritykex.channel import ChannelConfig, SimulatedLink
from paritykex.exchange import Endpoint, derive_seed, run_over_link
from paritykex.frames import Frame
from paritykex.network import TpmParams
from paritykex.protocol import ProtocolConfig, sender_advance, state_digest


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
    """The initial state of an endpoint, for single-step tests."""
    return Endpoint(role, cfg, seed).state


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
        if self.on_delivery is not None and isinstance(event, Frame):
            self.on_delivery(self, event)
        frame = super().feed(event, now)
        if frame is not None:
            self.wire.append((self.name, frame))
        return frame


def replay_is_inert(endpoint, frame):
    """Deliver ``frame`` to ``endpoint``'s state, then deliver it again.

    When the first delivery was accepted (it sent a frame or changed the state),
    assert that the repeat changes neither the state nor its generator (the
    digest hashes the generator's words) and that it only makes the receiver
    send its reply again, and return True;
    return False when the first delivery did nothing.  Neither delivery
    touches the endpoint.
    """
    state, advance, cfg = endpoint.state, endpoint.advance, endpoint.cfg
    new_state, sent = advance(state, frame, cfg)
    if sent is None and state_digest(new_state) == state_digest(state):
        return False
    replayed, resent = advance(new_state, frame, cfg)
    assert state_digest(replayed) == state_digest(new_state)
    assert resent == (None if advance is sender_advance else sent)
    return True


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
