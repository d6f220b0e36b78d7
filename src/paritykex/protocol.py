"""Sender and receiver state machines for key generation and certification.

Both machines are pure transition functions: ``(state, event, config, rng)
-> (state, actions, rng)``.  They never touch a transport; the host routes
SendFrame actions onto a channel and feeds FrameArrived / TimerFired events
back in.  That keeps every run replayable and lets tests assert that
replayed frames change nothing.

Flow per synchronization round: the sender draws a fresh input seed,
evaluates, and sends SYN{seed, tau, E(probe)} where the probe is the public
constant encrypted under the first 128 bits of its serialized weights.  The
receiver checks frame integrity (strictly increasing ids), then builds the
same probe from its own first 128 weight bits and compares.  A match means
the visible weights agree: the receiver picks a key group, answers FIN_SYN and
waits for certification.  Otherwise it derives the same inputs from the
seed, compares outputs, learns on agreement (ACK_SYN) or not (NAK_SYN).

Certification: the sender proves itself first by sending AUTH with its
secret code encrypted under the session key; the receiver verifies, proves
itself back the same way, and both sides deliver the key.

The 128-bit probe only covers the first 16 serialized weights, so it can
pass while later groups still differ.  Certification catches that case:
the receiver rejects the AUTH, answers NAK_SYN, and both sides drop back
to synchronizing (the receiver holds off further FIN_SYN for a quarantine
of learning rounds so the retry actually converges).  Repeated rejections
exhaust ``max_attempts`` and fail the run.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, replace
from typing import Literal, Optional, Union

import numpy as np

from .frames import AckSyn, Auth, FinSyn, Frame, NakSyn, Syn
from .keycodec import (
    KEY_BYTES,
    SessionKey,
    extract_key,
    key_group_count,
    otp_transform,
    serialize_weights,
)
from .network import (
    Evaluation,
    LearningRule,
    TpmNetwork,
    TpmParams,
    apply_learning,
    evaluate,
)
from .rng import RngState, draw_inputs, next_bytes, next_word, seed_from_bytes

logger = logging.getLogger(__name__)

Phase = Literal["idle", "synchronizing", "await_fin", "certifying", "established", "failed"]

# Public constant whose encryption serves as the synchronization probe.
DEFAULT_SYNC_PROBE = b"SYNC-TEST-VECTOR"

SeedMode = Literal["in-frame", "pre-shared"]

# FIN_SYN carries the key group index in one byte.
MAX_KEY_GROUPS = 256


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything both endpoints must agree on before a session."""

    params: TpmParams
    ssc: bytes
    rsc: bytes
    rule: LearningRule = "random_walk"
    st: bytes = DEFAULT_SYNC_PROBE
    timeout_ticks: int = 500
    max_attempts: int = 5
    seed_mode: SeedMode = "in-frame"
    shared_seed: Optional[bytes] = None
    # learning rounds the receiver waits after a rejected certification
    # before offering FIN_SYN again
    resync_rounds: int = 32

    def __post_init__(self) -> None:
        if len(self.ssc) != KEY_BYTES or len(self.rsc) != KEY_BYTES:
            raise ValueError("secret codes must be 16 bytes")
        if len(self.st) != KEY_BYTES:
            raise ValueError("sync probe must be 16 bytes")
        if self.timeout_ticks < 1:
            raise ValueError("timeout_ticks must be at least 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.resync_rounds < 0:
            raise ValueError("resync_rounds must be non-negative")
        if self.params.l < 1:
            raise ValueError("synaptic depth l must be at least 1 for a key exchange")
        if self.params.k * self.params.n < KEY_BYTES:
            raise ValueError("k*n must be at least 16 to carve a 128-bit key")
        if self.params.k * self.params.n > KEY_BYTES * MAX_KEY_GROUPS:
            raise ValueError(
                f"k*n must be at most {KEY_BYTES * MAX_KEY_GROUPS}: "
                "the FIN_SYN key group index is one byte"
            )
        if self.seed_mode not in ("in-frame", "pre-shared"):
            raise ValueError(f"unknown seed mode: {self.seed_mode!r}")
        if self.seed_mode == "pre-shared":
            if self.shared_seed is None or len(self.shared_seed) != 16:
                raise ValueError("pre-shared mode needs a 16-byte shared_seed")


# --- events and actions -------------------------------------------------


@dataclass(frozen=True)
class Start:
    """Kick the sender into its first round."""


@dataclass(frozen=True)
class TimerFired:
    """The host's retransmission timer expired."""


@dataclass(frozen=True)
class FrameArrived:
    frame: Frame


Event = Union[Start, TimerFired, FrameArrived]


@dataclass(frozen=True)
class SendFrame:
    frame: Frame


@dataclass(frozen=True)
class SetTimer:
    ticks: int


@dataclass(frozen=True)
class DeliverKey:
    session: SessionKey


@dataclass(frozen=True)
class Fail:
    reason: str


Action = Union[SendFrame, SetTimer, DeliverKey, Fail]


# --- endpoint states ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class PendingRound:
    """The sender's outstanding SYN: id plus the inputs it was built from."""

    frame_id: int
    inputs: np.ndarray
    evaluation: Evaluation


@dataclass(frozen=True, eq=False)
class SenderState:
    net: TpmNetwork
    phase: Phase = "idle"
    next_id: int = 0
    attempts: int = 0
    timer: Optional[int] = None
    session: Optional[SessionKey] = None
    pending: Optional[PendingRound] = None
    auth_id: Optional[int] = None
    rounds: int = 0
    iterations: int = 0
    input_stream: Optional[RngState] = None
    stream_round: int = 0


@dataclass(frozen=True, eq=False)
class ReceiverState:
    net: TpmNetwork
    phase: Phase = "idle"
    last_seen_id: int = -1
    timer: Optional[int] = None
    session: Optional[SessionKey] = None
    cert_failures: int = 0
    fin_holdoff: int = 0
    iterations: int = 0
    input_stream: Optional[RngState] = None
    stream_round: int = 0


def integrity_check(frame: Frame, last_seen_id: int) -> bool:
    """Accept only strictly increasing ids: kills replays and reordering."""
    return frame.frame_id > last_seen_id


def sync_probe(material: bytes, st: bytes) -> bytes:
    """Encrypt the probe constant under the first 128 serialized weight bits.

    The sender puts this block in its SYN; the receiver computes it from
    its own weights and compares, which is the same test as decrypting the
    received block because the transform is self-inverse.  Material shorter
    than 128 bits raises ValueError.
    """
    return otp_transform(material[:KEY_BYTES], st)


def state_digest(state: Union[SenderState, ReceiverState]) -> str:
    """Canonical hash of an endpoint state, for replay-immunity checks."""
    h = hashlib.sha256()
    h.update(type(state).__name__.encode())
    h.update(state.phase.encode())
    h.update(state.net.weights.tobytes())
    for number in (
        state.iterations,
        state.stream_round,
        -1 if state.timer is None else state.timer,
    ):
        h.update(int(number).to_bytes(8, "big", signed=True))
    if state.session is not None:
        h.update(state.session.key + bytes([state.session.iv]))
    if isinstance(state, SenderState):
        h.update(int(state.next_id).to_bytes(8, "big"))
        h.update(int(state.attempts).to_bytes(8, "big"))
        h.update(int(state.rounds).to_bytes(8, "big"))
        h.update(int(-1 if state.auth_id is None else state.auth_id).to_bytes(8, "big", signed=True))
        if state.pending is not None:
            h.update(int(state.pending.frame_id).to_bytes(8, "big"))
            h.update(np.asarray(state.pending.inputs).tobytes())
    else:
        h.update(int(state.last_seen_id).to_bytes(8, "big", signed=True))
        h.update(int(state.cert_failures).to_bytes(8, "big"))
        h.update(int(state.fin_holdoff).to_bytes(8, "big"))
    return h.hexdigest()


# --- shared input derivation ---------------------------------------------


def _round_inputs(
    cfg: ProtocolConfig,
    seed: bytes,
    round_id: int,
    stream: Optional[RngState],
    stream_round: int,
) -> tuple[np.ndarray, Optional[RngState], int]:
    """Inputs for one round, plus the advanced pre-shared stream cache.

    In-frame mode seeds a fresh generator from the transmitted seed.  In
    pre-shared mode both sides index one shared stream by round id, so a
    lost round never desynchronizes them.
    """
    p = cfg.params
    if cfg.seed_mode == "in-frame":
        inputs, _ = draw_inputs(seed_from_bytes(seed), p.k, p.n)
        return inputs, stream, stream_round
    if stream is None or stream_round > round_id:
        stream = seed_from_bytes(cfg.shared_seed or b"")
        stream_round = 0
    while stream_round < round_id:
        _, stream = draw_inputs(stream, p.k, p.n)
        stream_round += 1
    inputs, advanced = draw_inputs(stream, p.k, p.n)
    return inputs, advanced, stream_round + 1


# --- sender --------------------------------------------------------------


def _sender_new_round(
    state: SenderState, cfg: ProtocolConfig, rng: RngState
) -> tuple[SenderState, tuple[Action, ...], RngState]:
    frame_id = state.next_id
    if cfg.seed_mode == "in-frame":
        seed, rng = next_bytes(rng, 16)
    else:
        seed = bytes(16)
    inputs, stream, stream_round = _round_inputs(
        cfg, seed, frame_id, state.input_stream, state.stream_round
    )
    evaluation = evaluate(state.net, inputs)
    probe = sync_probe(serialize_weights(state.net), cfg.st)
    frame = Frame(frame_id, Syn(seed=seed, tau=evaluation.tau, ek_st=probe))
    state = replace(
        state,
        phase="synchronizing",
        next_id=frame_id + 1,
        attempts=state.attempts + 1,
        timer=cfg.timeout_ticks,
        pending=PendingRound(frame_id, inputs, evaluation),
        auth_id=None,
        rounds=state.rounds + 1,
        input_stream=stream,
        stream_round=stream_round,
    )
    return state, (SendFrame(frame), SetTimer(cfg.timeout_ticks)), rng


def _sender_send_auth(
    state: SenderState, cfg: ProtocolConfig
) -> tuple[SenderState, tuple[Action, ...]]:
    assert state.session is not None
    frame_id = state.next_id
    frame = Frame(frame_id, Auth(ek_code=otp_transform(state.session.key, cfg.ssc)))
    state = replace(
        state,
        phase="certifying",
        next_id=frame_id + 1,
        attempts=state.attempts + 1,
        timer=cfg.timeout_ticks,
        pending=None,
        auth_id=frame_id,
    )
    return state, (SendFrame(frame), SetTimer(cfg.timeout_ticks))


def sender_advance(
    state: SenderState, event: Event, cfg: ProtocolConfig, rng: RngState
) -> tuple[SenderState, tuple[Action, ...], RngState]:
    """Advance the sender; see the module docstring for the flow."""
    if state.phase in ("established", "failed"):
        return state, (), rng

    if isinstance(event, Start):
        if state.phase != "idle":
            logger.debug("sender: Start ignored in phase %s", state.phase)
            return state, (), rng
        return _sender_new_round(replace(state, attempts=0), cfg, rng)

    if isinstance(event, TimerFired):
        if state.phase not in ("synchronizing", "certifying"):
            return state, (), rng
        if state.attempts >= cfg.max_attempts:
            return (
                replace(state, phase="failed", timer=None),
                (Fail("attempts exceeded"),),
                rng,
            )
        if state.phase == "certifying":
            state, actions = _sender_send_auth(state, cfg)
            return state, actions, rng
        return _sender_new_round(state, cfg, rng)

    frame = event.frame
    payload = frame.payload

    if state.phase == "synchronizing":
        if state.pending is None or frame.frame_id != state.pending.frame_id:
            logger.debug("sender: stale frame id %d ignored", frame.frame_id)
            return state, (), rng
        if isinstance(payload, AckSyn):
            # peer agreed and learned; learn toward the common output
            net = apply_learning(
                state.net,
                state.pending.inputs,
                state.pending.evaluation,
                state.pending.evaluation.tau,
                cfg.rule,
            )
            state = replace(
                state, net=net, attempts=0, iterations=state.iterations + 1
            )
            return _sender_new_round(state, cfg, rng)
        if isinstance(payload, NakSyn):
            return _sender_new_round(replace(state, attempts=0), cfg, rng)
        if isinstance(payload, FinSyn):
            material = serialize_weights(state.net)
            if not 0 <= payload.iv < key_group_count(material):
                logger.debug("sender: FIN_SYN with bad group %d ignored", payload.iv)
                return state, (), rng
            session = extract_key(material, payload.iv)
            state, actions = _sender_send_auth(
                replace(state, session=session, attempts=0), cfg
            )
            return state, actions, rng
        logger.debug("sender: %s ignored while synchronizing", type(payload).__name__)
        return state, (), rng

    if state.phase == "certifying":
        if frame.frame_id != state.auth_id:
            logger.debug("sender: stale frame id %d ignored", frame.frame_id)
            return state, (), rng
        if isinstance(payload, Auth):
            assert state.session is not None
            if otp_transform(state.session.key, payload.ek_code) == cfg.rsc:
                session = state.session
                state = replace(state, phase="established", timer=None, attempts=0)
                return state, (DeliverKey(session),), rng
            state = replace(state, phase="failed", timer=None)
            return state, (Fail("peer certification failed"),), rng
        if isinstance(payload, NakSyn):
            # receiver rejected our certification: the probe matched but the
            # chosen key group did not; resume synchronizing
            state = replace(state, session=None, attempts=0)
            return _sender_new_round(state, cfg, rng)
        logger.debug("sender: %s ignored while certifying", type(payload).__name__)
        return state, (), rng

    logger.debug("sender: frame ignored in phase %s", state.phase)
    return state, (), rng


# --- receiver ------------------------------------------------------------


def _receiver_learning_reply(
    state: ReceiverState, frame: Frame, syn: Syn, cfg: ProtocolConfig
) -> tuple[ReceiverState, tuple[Action, ...]]:
    inputs, stream, stream_round = _round_inputs(
        cfg, syn.seed, frame.frame_id, state.input_stream, state.stream_round
    )
    evaluation = evaluate(state.net, inputs)
    state = replace(state, input_stream=stream, stream_round=stream_round)
    if evaluation.tau == syn.tau:
        net = apply_learning(state.net, inputs, evaluation, syn.tau, cfg.rule)
        state = replace(state, net=net, iterations=state.iterations + 1)
        reply: Frame = Frame(frame.frame_id, AckSyn(tau=evaluation.tau))
    else:
        reply = Frame(frame.frame_id, NakSyn(tau=evaluation.tau))
    return state, (SendFrame(reply),)


def receiver_advance(
    state: ReceiverState, event: Event, cfg: ProtocolConfig, rng: RngState
) -> tuple[ReceiverState, tuple[Action, ...], RngState]:
    """Advance the receiver; it is purely reactive (no timers of its own)."""
    if state.phase == "failed":
        return state, (), rng
    if not isinstance(event, FrameArrived):
        return state, (), rng

    frame = event.frame
    payload = frame.payload
    if not integrity_check(frame, state.last_seen_id):
        logger.debug("receiver: frame id %d failed integrity, ignored", frame.frame_id)
        return state, (), rng

    if isinstance(payload, Syn):
        if state.phase == "established":
            logger.debug("receiver: SYN ignored after establishment")
            return state, (), rng
        state = replace(state, last_seen_id=frame.frame_id)
        if state.phase == "idle":
            state = replace(state, phase="synchronizing")
        material = serialize_weights(state.net)
        synced = sync_probe(material, cfg.st) == payload.ek_st

        if synced and state.session is not None:
            # FIN_SYN or AUTH got lost; repeat the standing offer
            return state, (SendFrame(Frame(frame.frame_id, FinSyn(state.session.iv))),), rng
        if not synced and state.session is not None:
            # the probe stopped matching: the earlier offer was premature
            state = replace(state, session=None, phase="synchronizing")
        if synced and state.fin_holdoff == 0:
            word, rng = next_word(rng)
            iv = word % key_group_count(material)
            session = extract_key(material, iv)
            state = replace(state, phase="certifying", session=session)
            return state, (SendFrame(Frame(frame.frame_id, FinSyn(iv))),), rng
        if synced:
            # quarantined after a rejected certification: keep learning
            state = replace(state, fin_holdoff=state.fin_holdoff - 1)
        new_state, actions = _receiver_learning_reply(state, frame, payload, cfg)
        return new_state, actions, rng

    if isinstance(payload, Auth):
        state = replace(state, last_seen_id=frame.frame_id)
        if state.session is None:
            # no live key offer; tell the sender to resume synchronizing
            return state, (SendFrame(Frame(frame.frame_id, NakSyn(tau=1))),), rng
        if otp_transform(state.session.key, payload.ek_code) == cfg.ssc:
            reply = Frame(frame.frame_id, Auth(otp_transform(state.session.key, cfg.rsc)))
            actions: tuple[Action, ...] = (SendFrame(reply),)
            if state.phase != "established":
                actions = actions + (DeliverKey(state.session),)
            state = replace(state, phase="established")
            return state, actions, rng
        failures = state.cert_failures + 1
        if failures >= cfg.max_attempts:
            state = replace(state, phase="failed", session=None, cert_failures=failures)
            return state, (Fail("peer certification failed"),), rng
        # quarantine doubles per rejection so retries track convergence
        holdoff = cfg.resync_rounds << min(failures - 1, 4)
        state = replace(
            state,
            phase="synchronizing",
            session=None,
            cert_failures=failures,
            fin_holdoff=holdoff,
        )
        return state, (SendFrame(Frame(frame.frame_id, NakSyn(tau=1))),), rng

    logger.debug("receiver: %s ignored", type(payload).__name__)
    return state, (), rng
