"""Endpoint state machines: flow, integrity gating, certification, replay."""

import numpy as np
import pytest

from support import config, drive, fresh

from paritykex.channel import ChannelConfig
from paritykex.exchange import run_exchange
from paritykex.frames import AckSyn, Auth, FinSyn, Frame, NakSyn, Syn
from paritykex.keycodec import extract_key, otp_transform, serialize_weights
from paritykex.network import TpmNetwork, TpmParams, evaluate, init_network
from paritykex.protocol import (
    DeliverKey,
    Fail,
    FrameArrived,
    ProtocolConfig,
    SendFrame,
    Start,
    TimerFired,
    integrity_check,
    receiver_advance,
    sender_advance,
    state_digest,
    sync_probe,
)
from paritykex.rng import draw_inputs, seed_from_bytes


# --- integrity and sync test -------------------------------------------------


def test_integrity_check_monotone():
    frame = Frame(5, AckSyn(tau=1))
    assert not integrity_check(frame, 5)
    assert integrity_check(Frame(6, AckSyn(tau=1)), 5)
    assert not integrity_check(Frame(3, AckSyn(tau=1)), 5)


def probe_of(net, st=b"SYNC-TEST-VECTOR"):
    return sync_probe(serialize_weights(net), st)


def test_sync_test_roundtrip():
    params = TpmParams(k=3, n=32, l=3)
    net, _ = init_network(params, seed_from_bytes(b"sync-test-seed-0"))
    st = b"SYNC-TEST-VECTOR"
    probe = probe_of(net, st)
    assert probe == probe_of(TpmNetwork(params, net.weights.copy()), st)
    # the probe hides the constant under the weights and reveals it again
    assert otp_transform(serialize_weights(net)[:16], probe) == st


def test_sync_test_sensitive_to_first_weights():
    params = TpmParams(k=3, n=32, l=3)
    net, _ = init_network(params, seed_from_bytes(b"sync-test-seed-1"))
    weights = net.weights.copy()
    weights[0, 0] = -weights[0, 0] if weights[0, 0] != 0 else 1
    other = TpmNetwork(params, weights)
    assert probe_of(other) != probe_of(net)


def test_sync_test_blind_to_later_weights():
    # nets that agree only on the first 16 weights still pass; nets that
    # agree only on the later weights must fail
    params = TpmParams(k=3, n=32, l=3)
    net, _ = init_network(params, seed_from_bytes(b"sync-test-seed-2"))
    agree_later = net.weights.copy()
    agree_later[0, :16] = np.clip(agree_later[0, :16] + 1, -3, 3)
    if np.array_equal(agree_later, net.weights):
        agree_later[0, 0] = -3
    assert probe_of(TpmNetwork(params, agree_later)) != probe_of(net)

    agree_first = net.weights.copy()
    agree_first[2, :] = np.clip(agree_first[2, :] + 1, -3, 3)
    assert probe_of(TpmNetwork(params, agree_first)) == probe_of(net)


def test_sync_test_needs_enough_weights():
    params = TpmParams(k=1, n=4, l=1)
    net, _ = init_network(params, seed_from_bytes(b"sync-test-seed-3"))
    with pytest.raises(ValueError):
        probe_of(net, bytes(16))


# --- config validation --------------------------------------------------------


def test_config_validation():
    params = TpmParams(k=3, n=32, l=2)
    with pytest.raises(ValueError):
        ProtocolConfig(params=params, ssc=b"short", rsc=b"receiv-secret-0!")
    with pytest.raises(ValueError):
        ProtocolConfig(params=params, ssc=b"sender-secret-0!", rsc=b"receiv-secret-0!",
                       timeout_ticks=0)
    with pytest.raises(ValueError):
        ProtocolConfig(params=TpmParams(k=1, n=4, l=1), ssc=b"sender-secret-0!",
                       rsc=b"receiv-secret-0!")
    with pytest.raises(ValueError):
        ProtocolConfig(params=params, ssc=b"sender-secret-0!", rsc=b"receiv-secret-0!",
                       seed_mode="pre-shared")


def test_config_rejects_depth_zero():
    # every weight would be 0, so the exchange "establishes" an all-zero key
    with pytest.raises(ValueError, match="depth"):
        config(l=0)


def test_config_rejects_more_key_groups_than_a_byte_indexes():
    # 4096 weights make 256 key groups, the most a one-byte FIN_SYN iv names;
    # at k=1, n=8192 the receiver picked an iv above 255 and the run crashed
    codes = dict(ssc=b"sender-secret-0!", rsc=b"receiv-secret-0!")
    ProtocolConfig(params=TpmParams(k=1, n=4096, l=1), **codes)
    for n in (4097, 8192):
        with pytest.raises(ValueError, match="one byte"):
            ProtocolConfig(params=TpmParams(k=1, n=n, l=1), **codes)


# --- end-to-end over a lossless link ------------------------------------------


def test_lossless_exchange_full_trace():
    cfg = config(l=2)
    outcome, wire = drive(cfg, b"trace-seed-0000!")
    assert outcome.sender.phase == "established"
    assert outcome.receiver.phase == "established"
    assert outcome.sender_key is not None and outcome.sender_key == outcome.receiver_key

    sender_ids = [f.frame_id for side, f in wire if side == "a"]
    assert sender_ids == sorted(sender_ids)
    assert len(set(sender_ids)) == len(sender_ids)

    # receiver echoes the id of the frame it answers
    by_id = {}
    for side, frame in wire:
        by_id.setdefault(frame.frame_id, []).append((side, frame))
    for frame_id, entries in by_id.items():
        sides = [s for s, _ in entries]
        if "b" in sides:
            assert "a" in sides

    kinds = {type(f.payload).__name__ for _, f in wire}
    assert {"Syn", "FinSyn", "Auth"} <= kinds


def test_exchange_outcome_keys_match():
    cfg = config(l=3, n=32)
    outcome = run_exchange(cfg, master_seed=b"outcome-seed-00!", iteration_cap=8000)
    assert outcome.established
    assert outcome.sender_key == outcome.receiver_key
    assert outcome.sender_key is not None
    assert 0 <= outcome.sender_key.iv < 6


def test_phases_stay_within_the_documented_set():
    seen = set()

    def watch(endpoint, frame):
        seen.update((endpoint.state.phase, endpoint.peer.state.phase))

    outcome, _ = drive(config(l=2), b"phase-watch-seed", on_delivery=watch)
    seen.update((outcome.sender.phase, outcome.receiver.phase))
    assert seen <= {"idle", "synchronizing", "certifying", "established"}
    assert {"synchronizing", "certifying", "established"} <= seen


# --- targeted transitions ------------------------------------------------------


def build_sender(cfg, seed=b"sender-unit-test"):
    state, rng = fresh("sender", cfg, seed)
    state, actions, rng = sender_advance(state, Start(), cfg, rng)
    frame = next(a.frame for a in actions if isinstance(a, SendFrame))
    return state, rng, frame


def test_sender_start_emits_syn_and_timer():
    cfg = config()
    state, rng, frame = build_sender(cfg)
    assert state.phase == "synchronizing"
    assert isinstance(frame.payload, Syn)
    assert frame.frame_id == 0
    assert state.next_id == 1
    assert state.attempts == 1


def test_sender_ack_applies_learning_and_opens_next_round():
    cfg = config()
    state, rng, syn = build_sender(cfg)
    before = state.net.active_weights.copy()
    ack = Frame(syn.frame_id, AckSyn(tau=syn.payload.tau))
    state2, actions, _ = sender_advance(state, FrameArrived(ack), cfg, rng)
    assert state2.iterations == 1
    assert any(isinstance(a, SendFrame) for a in actions)
    # the agreed round must move at least one unit (some sigma equals tau)
    moved = not np.array_equal(state2.net.active_weights, before)
    ev = state.pending.evaluation
    assert moved == bool(np.any(ev.sigmas == ev.tau))


def test_sender_nak_keeps_weights():
    cfg = config()
    state, rng, syn = build_sender(cfg)
    nak = Frame(syn.frame_id, NakSyn(tau=-syn.payload.tau))
    state2, actions, _ = sender_advance(state, FrameArrived(nak), cfg, rng)
    assert np.array_equal(state2.net.weights, state.net.weights)
    assert state2.rounds == state.rounds + 1


def test_sender_ignores_stale_ids():
    cfg = config()
    state, rng, syn = build_sender(cfg)
    stale = Frame(syn.frame_id + 1, AckSyn(tau=1))
    digest = state_digest(state)
    state2, actions, rng2 = sender_advance(state, FrameArrived(stale), cfg, rng)
    assert state_digest(state2) == digest
    assert actions == ()
    assert rng2 == rng


def test_sender_fin_extracts_key_and_sends_auth():
    cfg = config()
    state, rng, syn = build_sender(cfg)
    fin = Frame(syn.frame_id, FinSyn(iv=4))
    state2, actions, _ = sender_advance(state, FrameArrived(fin), cfg, rng)
    assert state2.phase == "certifying"
    expected = extract_key(serialize_weights(state.net), 4)
    assert state2.session == expected
    auth = next(a.frame for a in actions if isinstance(a, SendFrame))
    assert isinstance(auth.payload, Auth)
    assert otp_transform(expected.key, auth.payload.ek_code) == cfg.ssc


def test_sender_rejects_out_of_range_iv():
    cfg = config()
    state, rng, syn = build_sender(cfg)
    digest = state_digest(state)
    fin = Frame(syn.frame_id, FinSyn(iv=6))
    state2, actions, _ = sender_advance(state, FrameArrived(fin), cfg, rng)
    assert state_digest(state2) == digest
    assert actions == ()


def test_sender_timeout_retries_then_fails():
    cfg = config(max_attempts=3)
    state, rng, _ = build_sender(cfg)
    for expected_attempts in (2, 3):
        state, actions, rng = sender_advance(state, TimerFired(), cfg, rng)
        assert state.attempts == expected_attempts
        assert any(isinstance(a, SendFrame) for a in actions)
    state, actions, rng = sender_advance(state, TimerFired(), cfg, rng)
    assert state.phase == "failed"
    assert any(isinstance(a, Fail) for a in actions)


def test_sender_auth_reply_verification():
    cfg = config()
    state, rng, syn = build_sender(cfg)
    fin = Frame(syn.frame_id, FinSyn(iv=0))
    state, actions, rng = sender_advance(state, FrameArrived(fin), cfg, rng)
    auth = next(a.frame for a in actions if isinstance(a, SendFrame))
    session = state.session

    good = Frame(auth.frame_id, Auth(otp_transform(session.key, cfg.rsc)))
    done, actions, _ = sender_advance(state, FrameArrived(good), cfg, rng)
    assert done.phase == "established"
    assert any(isinstance(a, DeliverKey) for a in actions)

    bad = Frame(auth.frame_id, Auth(otp_transform(session.key, b"tampered-code-0!"))),
    failed, actions, _ = sender_advance(state, FrameArrived(bad[0]), cfg, rng)
    assert failed.phase == "failed"
    assert any(isinstance(a, Fail) for a in actions)


def receiver_with_syn(cfg, seed=b"receiver-unittes"):
    """A receiver plus a SYN crafted from a fresh sender round."""
    rstate, rrng = fresh("receiver", cfg, seed)
    sstate, srng = fresh("sender", cfg, b"peer-sender-seed")
    sstate, actions, srng = sender_advance(sstate, Start(), cfg, srng)
    syn = next(a.frame for a in actions if isinstance(a, SendFrame))
    return rstate, rrng, sstate, syn


def test_receiver_tau_mismatch_naks_without_update():
    cfg = config()
    rstate, rrng, sstate, syn = receiver_with_syn(cfg)
    inputs, _ = draw_inputs(seed_from_bytes(syn.payload.seed), 3, 32)
    ev = evaluate(rstate.net, inputs)
    flipped = Frame(syn.frame_id, Syn(syn.payload.seed, -ev.tau, syn.payload.ek_st))
    state2, actions, _ = receiver_advance(rstate, FrameArrived(flipped), cfg, rrng)
    reply = next(a.frame for a in actions if isinstance(a, SendFrame))
    assert isinstance(reply.payload, NakSyn)
    assert reply.frame_id == syn.frame_id
    assert np.array_equal(state2.net.weights, rstate.net.weights)
    assert state2.iterations == 0


def test_receiver_tau_match_acks_and_learns():
    cfg = config()
    rstate, rrng, sstate, syn = receiver_with_syn(cfg)
    inputs, _ = draw_inputs(seed_from_bytes(syn.payload.seed), 3, 32)
    ev = evaluate(rstate.net, inputs)
    agreeing = Frame(syn.frame_id, Syn(syn.payload.seed, ev.tau, syn.payload.ek_st))
    state2, actions, _ = receiver_advance(rstate, FrameArrived(agreeing), cfg, rrng)
    reply = next(a.frame for a in actions if isinstance(a, SendFrame))
    assert isinstance(reply.payload, AckSyn)
    assert reply.frame_id == syn.frame_id
    assert state2.iterations == 1
    assert state2.last_seen_id == syn.frame_id


def test_receiver_replay_rejected():
    cfg = config()
    rstate, rrng, sstate, syn = receiver_with_syn(cfg)
    state2, actions, rng2 = receiver_advance(rstate, FrameArrived(syn), cfg, rrng)
    digest = state_digest(state2)
    state3, actions3, rng3 = receiver_advance(state2, FrameArrived(syn), cfg, rng2)
    assert state_digest(state3) == digest
    assert actions3 == ()
    assert rng3 == rng2


def test_receiver_synced_syn_triggers_fin_and_key():
    cfg = config()
    rstate, rrng, _, _ = receiver_with_syn(cfg)
    probe = sync_probe(serialize_weights(rstate.net), cfg.st)
    syn = Frame(3, Syn(seed=bytes(16), tau=1, ek_st=probe))
    state2, actions, rng2 = receiver_advance(rstate, FrameArrived(syn), cfg, rrng)
    assert state2.phase == "certifying"
    assert state2.session is not None
    fin = next(a.frame for a in actions if isinstance(a, SendFrame))
    assert isinstance(fin.payload, FinSyn)
    assert fin.payload.iv == state2.session.iv
    assert rng2 != rrng  # consumed a word picking the group

    # a repeated synced SYN (say FIN was lost) repeats the same offer
    syn2 = Frame(4, Syn(seed=bytes(16), tau=1, ek_st=probe))
    state3, actions3, _ = receiver_advance(state2, FrameArrived(syn2), cfg, rng2)
    fin2 = next(a.frame for a in actions3 if isinstance(a, SendFrame))
    assert fin2.payload.iv == fin.payload.iv
    assert state3.session == state2.session


def test_receiver_auth_verification_and_rejection():
    cfg = config(max_attempts=3)
    rstate, rrng, _, _ = receiver_with_syn(cfg)
    probe = sync_probe(serialize_weights(rstate.net), cfg.st)
    syn = Frame(3, Syn(seed=bytes(16), tau=1, ek_st=probe))
    state, actions, rng = receiver_advance(rstate, FrameArrived(syn), cfg, rrng)
    session = state.session

    good = Frame(5, Auth(otp_transform(session.key, cfg.ssc)))
    est, actions, rng2 = receiver_advance(state, FrameArrived(good), cfg, rng)
    assert est.phase == "established"
    reply = next(a.frame for a in actions if isinstance(a, SendFrame))
    assert otp_transform(session.key, reply.payload.ek_code) == cfg.rsc
    assert any(isinstance(a, DeliverKey) for a in actions)

    # rejection path: wrong code sends NAK, drops the offer, quarantines
    bad = Frame(5, Auth(otp_transform(session.key, b"wrong-secret-00!")))
    rej, actions, _ = receiver_advance(state, FrameArrived(bad), cfg, rng)
    assert rej.phase == "synchronizing"
    assert rej.session is None
    assert rej.cert_failures == 1
    assert rej.fin_holdoff == cfg.resync_rounds
    reply = next(a.frame for a in actions if isinstance(a, SendFrame))
    assert isinstance(reply.payload, NakSyn)

    # repeated rejections eventually fail
    state_loop = state
    rng_loop = rng
    for i in range(cfg.max_attempts):
        frame = Frame(10 + i, Auth(otp_transform(session.key, b"wrong-secret-00!")))
        state_loop, actions, rng_loop = receiver_advance(
            state_loop, FrameArrived(frame), cfg, rng_loop
        )
        if state_loop.phase == "failed":
            break
        # restore a live offer for the next attempt
        state_loop = type(state_loop)(
            **{**state_loop.__dict__, "session": session, "phase": "certifying"}
        )
    assert state_loop.phase == "failed"


def test_receiver_auth_without_offer_naks():
    cfg = config()
    rstate, rrng, _, _ = receiver_with_syn(cfg)
    auth = Frame(9, Auth(bytes(16)))
    state2, actions, _ = receiver_advance(rstate, FrameArrived(auth), cfg, rrng)
    assert state2.phase in ("idle", "synchronizing")
    reply = next(a.frame for a in actions if isinstance(a, SendFrame))
    assert isinstance(reply.payload, NakSyn)
    assert reply.frame_id == 9


def test_sender_nak_during_certification_resumes_sync():
    cfg = config()
    state, rng, syn = build_sender(cfg)
    fin = Frame(syn.frame_id, FinSyn(iv=1))
    state, actions, rng = sender_advance(state, FrameArrived(fin), cfg, rng)
    auth = next(a.frame for a in actions if isinstance(a, SendFrame))
    assert state.phase == "certifying"
    nak = Frame(auth.frame_id, NakSyn(tau=1))
    state2, actions, _ = sender_advance(state, FrameArrived(nak), cfg, rng)
    assert state2.phase == "synchronizing"
    assert state2.session is None
    assert any(isinstance(a.frame.payload, Syn) for a in actions if isinstance(a, SendFrame))


def test_established_sender_ignores_everything():
    cfg = config(l=1, n=16)
    outcome = run_exchange(cfg, master_seed=b"established-ign!", iteration_cap=8000)
    assert outcome.established
    state = outcome.sender
    digest = state_digest(state)
    for event in (TimerFired(), FrameArrived(Frame(999999, AckSyn(tau=1)))):
        state2, actions, _ = sender_advance(state, event, cfg, seed_from_bytes(b"x" * 16))
        assert state_digest(state2) == digest
        assert actions == ()


def test_pre_shared_mode_and_stream_indexing():
    cfg = config(
        l=2,
        seed_mode="pre-shared",
        shared_seed=b"shared-input-str",
    )
    outcome = run_exchange(cfg, master_seed=b"pre-shared-mode!", iteration_cap=8000)
    assert outcome.established
    assert outcome.sender_key == outcome.receiver_key
    # SYN frames carry a zero seed in this mode
    assert outcome.sender.stream_round > 0

    lossy = ChannelConfig(drop_prob=0.15, rng_seed=3)
    outcome = run_exchange(
        cfg, master_seed=b"pre-shared-lossy", channel_config=lossy, iteration_cap=8000
    )
    assert outcome.established
    assert outcome.sender_key == outcome.receiver_key


def test_replay_every_delivered_frame_changes_nothing():
    cfg = config(l=1, n=16)

    def replay(endpoint, frame):
        state, advance, endpoint_cfg, rng = (
            endpoint.state, endpoint.advance, endpoint.cfg, endpoint.rng
        )
        # process, then re-deliver against the new state
        new_state, actions, new_rng = advance(state, FrameArrived(frame), endpoint_cfg, rng)
        replayed, actions2, rng2 = advance(new_state, FrameArrived(frame), endpoint_cfg, new_rng)
        if actions:  # frame was accepted: replay must be inert
            assert state_digest(replayed) == state_digest(new_state)
            assert actions2 == ()
            assert rng2 == new_rng

    outcome, _ = drive(cfg, b"replay-check-00!", on_delivery=replay)
    assert outcome.sender.phase == "established"
