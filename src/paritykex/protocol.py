"""Sender and receiver state machines for key generation and certification.

Both machines are pure transition functions, ``(state, event, config) ->
(state, frame)``, whose state holds the generator, the key and the failure
reason; each step returns the one frame it sends, or None.  The host sends
that frame onto a channel and feeds each arriving frame, like a TimerFired,
back in.  The machines never touch a transport, which keeps every run
replayable and lets tests assert that replayed frames change nothing.

Retransmission is stop-and-wait (RFC 1350): the host arms the sender's timer
at each send, and on a timeout the sender re-sends the frame it last sent,
unchanged.  The receiver answers a repeat of the last id it accepted with the
reply it already sent, changing nothing, and ignores lower ids; so a lost
reply never makes one side learn without the other.

Flow per synchronization round: the sender draws a fresh input seed,
evaluates, and sends SYN{seed, tau, probe} where the probe is a SHA-256
digest of its whole weight bank, bound to the seed and the frame id.  The
receiver takes a higher id than the last as a new frame, then builds the
same digest from its own bank and compares.  A match means the banks are
equal: the receiver picks a group index, derives the session key from its
bank salted with it, answers FIN_SYN{index} and waits for certification.
Otherwise it derives the same inputs from the seed, compares outputs,
learns on agreement (ACK_SYN) or not (NAK_SYN).  The SYN the sender holds
names the round: its next frame's id is one above it, and on an ACK the
sender learns toward its tau with the masks and signs it kept beside it.

Certification: the sender proves itself first by sending AUTH with an HMAC
of the session key under its secret code; the receiver verifies, proves
itself back the same way under its own code, and both sides settle as
established.  Equal banks give equal keys, so a rejected AUTH can only mean
the codes differ, and it fails the run.
"""

from __future__ import annotations

import hashlib
import hmac
import logging
from dataclasses import dataclass
from typing import Literal, Optional, Union

from .frames import AckSyn, Auth, FinSyn, Frame, NakSyn, Syn, encode_frame
from .keycodec import KEY_BYTES, SessionKey, extract_key, serialize_weights
from .network import LEARNING_RULES, LearningRule, TpmNetwork, TpmParams, plain_int
from .network import forward_planes, learn_planes
from .rng import MASK64, RngState, input_masks, next_word, next_words

logger = logging.getLogger(__name__)

Phase = Literal["idle", "synchronizing", "certifying", "established", "failed"]

# FIN_SYN carries the key group index in one byte.
MAX_KEY_GROUPS = 256


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything both endpoints must agree on before a session."""

    params: TpmParams
    ssc: bytes
    rsc: bytes
    rule: LearningRule = "random_walk"
    timeout_ticks: int = 500
    max_attempts: int = 5

    def __post_init__(self) -> None:
        # a str code of 16 characters would synchronize and then crash the run at its first AUTH
        if not all(isinstance(code, bytes) and len(code) == KEY_BYTES for code in (self.ssc, self.rsc)):
            raise ValueError("secret codes must be bytes of length 16")
        if self.rule not in LEARNING_RULES:
            raise ValueError(f"unknown learning rule: {self.rule!r}")
        # an inf timeout never fired and a nan one ended the run at tick 0
        for name in ("timeout_ticks", "max_attempts"):
            value = plain_int(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
            object.__setattr__(self, name, value)
        if self.params.l < 1:
            raise ValueError("synaptic depth l must be at least 1 for a key exchange")
        if self.params.k * self.params.n < KEY_BYTES:
            raise ValueError("k*n must be at least 16 to name a key group")
        if self.params.k * self.params.n > KEY_BYTES * MAX_KEY_GROUPS:
            raise ValueError(
                f"k*n must be at most {KEY_BYTES * MAX_KEY_GROUPS}: "
                "the FIN_SYN key group index is one byte"
            )


# --- events --------------------------------------------------------------


@dataclass(frozen=True)
class Start:
    """Kick the sender into its first round."""


@dataclass(frozen=True)
class TimerFired:
    """The host's retransmission timer expired."""


Event = Union[Start, TimerFired, Frame]


# --- endpoint states ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SenderState:
    """The sender's state.  ``sent`` is the frame it last sent: the next frame's id is one
    above it.  In a round, ``sent`` is the SYN, whose tau is the output both sides learn
    toward, and ``inputs`` and ``sigmas`` are that round's input masks and unit signs."""

    net: TpmNetwork
    rng: RngState
    phase: Phase = "idle"
    attempts: int = 0
    session: Optional[SessionKey] = None
    sent: Optional[Frame] = None
    inputs: Optional[list[int]] = None
    sigmas: Optional[list[int]] = None
    rounds: int = 0
    iterations: int = 0
    fail_reason: Optional[str] = None


@dataclass(frozen=True, eq=False)
class ReceiverState:
    net: TpmNetwork
    rng: RngState
    phase: Phase = "idle"
    last_seen_id: int = -1
    reply: Optional[Frame] = None
    session: Optional[SessionKey] = None
    cert_failures: int = 0
    iterations: int = 0
    fail_reason: Optional[str] = None


def _evolve(state, **changes):
    """``dataclasses.replace`` for the endpoint states, without re-running __init__."""
    new = object.__new__(type(state))
    new.__dict__.update(state.__dict__, **changes)
    return new


def integrity_check(frame: Frame, last_seen_id: int) -> bool:
    """A new frame has an id above the last one accepted; a lower id is stale."""
    return frame.frame_id > last_seen_id


def sync_probe(net: TpmNetwork, seed: bytes, frame_id: int) -> bytes:
    """The SYN probe: SHA-256 over the whole bank's bit planes, bound to the SYN's seed and id.

    Equal probes mean equal banks, barring a SHA-256 collision; the seed and
    id make each round's probe fresh.  Each plane enters as ``ceil(n/8)`` bytes, which the
    bank's ``unit_data`` holds.
    """
    message = [b"paritykex probe", seed, frame_id.to_bytes(4, "big")]
    message += [planes for _, planes in net.unit_data]
    return hashlib.sha256(b"".join(message)).digest()[:KEY_BYTES]


# The sender's AUTH and the receiver's reply differ in label, so equal codes cannot reflect.
SENDER_AUTH, RECEIVER_AUTH = b"paritykex auth sender", b"paritykex auth receiver"


def auth_code(code: bytes, label: bytes, session: SessionKey, frame_id: int) -> bytes:
    """An AUTH field: HMAC-SHA256 under a secret code of a label, the key and the AUTH's id."""
    message = label + session.key + frame_id.to_bytes(4, "big")
    return hmac.new(code, message, hashlib.sha256).digest()[:KEY_BYTES]


def state_digest(state: Union[SenderState, ReceiverState]) -> str:
    """Canonical hash of an endpoint state, for replay checks.  It hashes the type, the phase,
    the generator words, the counters (``iterations``; the sender's ``attempts`` and ``rounds``;
    the receiver's ``last_seen_id`` and ``cert_failures``), the failure reason, the weights as
    little-endian int32 whatever the host's byte order, the session key and iv, and the frame
    the state last sent (the sender's ``sent``, the receiver's ``reply``) as its wire bytes.
    The sender's ``inputs`` and ``sigmas`` are left out: its SYN and its bank determine them."""
    if isinstance(state, SenderState):
        counters, last = (state.attempts, state.rounds), state.sent
    else:
        counters, last = (state.last_seen_id, state.cert_failures), state.reply
    session = None if state.session is None else (state.session.key, state.session.iv)
    fields = (type(state).__name__, state.phase, state.rng.s0, state.rng.s1, state.iterations, *counters,
              state.fail_reason, session, None if last is None else encode_frame(last))
    # the repr of ints, strs, bytes and None reads the same on every host and ends before the weights
    weights = state.net.weights.astype("<i4", copy=False).tobytes()
    return hashlib.sha256(repr(fields).encode() + weights).hexdigest()


# --- sender --------------------------------------------------------------


def _sender_new_round(state: SenderState, cfg: ProtocolConfig, net: TpmNetwork,
                      iterations: int) -> tuple[SenderState, Optional[Frame]]:
    """Open a round on ``net``, the bank after the last round's learning step, if any."""
    frame_id = 0 if state.sent is None else state.sent.frame_id + 1
    (s0, s1), rng = next_words(state.rng, 2)
    seed = (s0 << 64 | s1).to_bytes(16, "big")
    inputs = input_masks(s0, s1, cfg.params.k, cfg.params.n)[0]
    sigmas, tau = forward_planes(net, inputs)
    frame = Syn(frame_id, seed, tau, sync_probe(net, seed, frame_id))
    state = _evolve(
        state,
        net=net,
        rng=rng,
        iterations=iterations,
        phase="synchronizing",
        attempts=1,
        sent=frame,
        inputs=inputs,
        sigmas=sigmas,
        rounds=state.rounds + 1,
    )
    return state, frame


def sender_advance(state: SenderState, event: Event,
                   cfg: ProtocolConfig) -> tuple[SenderState, Optional[Frame]]:
    """Advance the sender; see the module docstring for the flow."""
    if state.phase in ("established", "failed"):
        return state, None

    if isinstance(event, Start):
        if state.phase != "idle":
            logger.debug("sender: Start ignored in phase %s", state.phase)
            return state, None
        return _sender_new_round(state, cfg, state.net, state.iterations)

    sent = state.sent
    if sent is None:
        logger.debug("sender: %s ignored before Start", type(event).__name__)
        return state, None

    if isinstance(event, TimerFired):
        if state.attempts >= cfg.max_attempts:
            return _evolve(state, phase="failed", fail_reason="attempts exceeded"), None
        # rounds counts every SYN sent, re-sends included
        rounds = state.rounds + isinstance(sent, Syn)
        state = _evolve(state, attempts=state.attempts + 1, rounds=rounds)
        return state, sent

    if event.frame_id != sent.frame_id:
        logger.debug("sender: stale frame id %d ignored", event.frame_id)
        return state, None

    if state.phase == "synchronizing":
        if isinstance(event, AckSyn):
            # peer agreed and learned; learn toward the common output, the SYN's tau
            net = learn_planes(state.net, state.inputs, state.sigmas, sent.tau, cfg.rule)
            return _sender_new_round(state, cfg, net, state.iterations + 1)
        if isinstance(event, NakSyn):
            return _sender_new_round(state, cfg, state.net, state.iterations)
        if isinstance(event, FinSyn):
            session = extract_key(serialize_weights(state.net), event.iv)
            frame_id = sent.frame_id + 1
            auth = Auth(frame_id, auth_code(cfg.ssc, SENDER_AUTH, session, frame_id))
            state = _evolve(state, phase="certifying", attempts=1, session=session,
                            sent=auth, inputs=None, sigmas=None)
            return state, auth
        logger.debug("sender: %s ignored while synchronizing", type(event).__name__)
        return state, None

    if isinstance(event, Auth):
        assert state.session is not None
        expected = auth_code(cfg.rsc, RECEIVER_AUTH, state.session, event.frame_id)
        if hmac.compare_digest(event.ek_code, expected):
            return _evolve(state, phase="established", attempts=0), None
        return _evolve(state, phase="failed", fail_reason="peer certification failed"), None
    logger.debug("sender: %s ignored while certifying", type(event).__name__)
    return state, None


# --- receiver ------------------------------------------------------------


def _receiver_learning_reply(
    state: ReceiverState, syn: Syn, cfg: ProtocolConfig
) -> tuple[TpmNetwork, int, Frame]:
    """The receiver's bank and iteration count after a SYN whose probe missed, and its reply."""
    seed = int.from_bytes(syn.seed, "big")
    inputs = input_masks(seed >> 64, seed & MASK64, cfg.params.k, cfg.params.n)[0]
    sigmas, tau = forward_planes(state.net, inputs)
    if tau == syn.tau:
        net = learn_planes(state.net, inputs, sigmas, tau, cfg.rule)
        return net, state.iterations + 1, AckSyn(syn.frame_id, tau)
    return state.net, state.iterations, NakSyn(syn.frame_id, tau)


def receiver_advance(state: ReceiverState, event: Event,
                     cfg: ProtocolConfig) -> tuple[ReceiverState, Optional[Frame]]:
    """Advance the receiver; it is purely reactive (no timers of its own)."""
    if state.phase == "failed" or not isinstance(event, Frame):
        return state, None

    if event.frame_id == state.last_seen_id:
        # a re-sent frame whose reply was lost: answer it again, change nothing
        assert state.reply is not None
        return state, state.reply
    if not integrity_check(event, state.last_seen_id):
        logger.debug("receiver: stale frame id %d ignored", event.frame_id)
        return state, None

    if isinstance(event, Syn):
        if state.session is not None:
            logger.debug("receiver: SYN ignored after a key offer")
            return state, None
        net, rng, iterations, session, phase = state.net, state.rng, state.iterations, None, "synchronizing"
        if sync_probe(net, event.seed, event.frame_id) == event.ek_st:
            word, rng = next_word(rng)
            iv = word % (cfg.params.k * cfg.params.n // KEY_BYTES)
            session, phase = extract_key(serialize_weights(net), iv), "certifying"
            reply = FinSyn(event.frame_id, iv)
        else:
            net, iterations, reply = _receiver_learning_reply(state, event, cfg)
        state = _evolve(state, net=net, rng=rng, iterations=iterations, phase=phase,
                        session=session, last_seen_id=event.frame_id, reply=reply)
        return state, reply

    if isinstance(event, Auth):
        if state.phase != "certifying":
            logger.debug("receiver: AUTH ignored in phase %s", state.phase)
            return state, None
        assert state.session is not None
        expected = auth_code(cfg.ssc, SENDER_AUTH, state.session, event.frame_id)
        if not hmac.compare_digest(event.ek_code, expected):
            state = _evolve(state, phase="failed", fail_reason="peer certification failed",
                            session=None, cert_failures=1, last_seen_id=event.frame_id)
            return state, None
        reply = Auth(event.frame_id, auth_code(cfg.rsc, RECEIVER_AUTH, state.session, event.frame_id))
        state = _evolve(state, phase="established", last_seen_id=event.frame_id, reply=reply)
        return state, reply

    logger.debug("receiver: %s ignored", type(event).__name__)
    return state, None
