"""Endpoint state machines: flow, integrity gating, certification, replay."""

import dataclasses
from typing import get_args

import numpy as np
import pytest

from support import config, drive, fresh, replay_is_inert

from paritykex.channel import ChannelConfig
from paritykex.exchange import derive_seed, run_exchange
from paritykex.frames import AckSyn, Auth, FinSyn, Frame, NakSyn, Syn, encode_frame
from paritykex.keycodec import extract_key, serialize_weights
from paritykex.network import TpmNetwork, TpmParams, evaluate, forward_planes, init_network, learn_planes
from paritykex.protocol import (
    RECEIVER_AUTH,
    SENDER_AUTH,
    Phase,
    ProtocolConfig,
    Start,
    TimerFired,
    auth_code,
    integrity_check,
    receiver_advance,
    sender_advance,
    state_digest,
    sync_probe,
)
from paritykex.rng import MASK64, RngState, draw_inputs, input_masks, seed_from_bytes


# --- integrity and sync test -------------------------------------------------


def test_integrity_check_monotone():
    frame = AckSyn(5, tau=1)
    assert not integrity_check(frame, 5)
    assert integrity_check(AckSyn(6, tau=1), 5)
    assert not integrity_check(AckSyn(3, tau=1), 5)


SEED = bytes(range(16))


def probe_of(net, seed=SEED, frame_id=3):
    return sync_probe(net, seed, frame_id)


def test_sync_test_roundtrip():
    params = TpmParams(k=3, n=32, l=3)
    net, _ = init_network(params, seed_from_bytes(b"sync-test-seed-0"))
    probe = probe_of(net)
    assert len(probe) == 16
    assert probe == probe_of(TpmNetwork(params, net.weights.copy()))
    # the probe bytes, each plane as 4 little-endian bytes, computed from the planes as the reference
    unit_data = tuple((params.l * params.n - sum(plane.bit_count() << b for b, plane in enumerate(unit)),
                       b"".join(plane.to_bytes(4, "little") for plane in unit)) for unit in net.planes)
    assert probe == probe_of(TpmNetwork._of_planes(params, net.planes, unit_data))
    # the probe is a digest, not the weights under a public constant
    assert bytes(a ^ b for a, b in zip(probe, b"SYNC-TEST-VECTOR")) != serialize_weights(net)[:16]


def test_sync_test_sensitive_to_first_weights():
    params = TpmParams(k=3, n=32, l=3)
    net, _ = init_network(params, seed_from_bytes(b"sync-test-seed-1"))
    weights = net.weights.copy()
    weights[0, 0] = -weights[0, 0] if weights[0, 0] != 0 else 1
    other = TpmNetwork(params, weights)
    assert probe_of(other) != probe_of(net)


@pytest.mark.parametrize("k, n, l", [(3, 32, 3), (2, 13, 1), (1, 16, 7)])
def test_sync_test_sensitive_to_every_weight(k, n, l):
    # the first-16-weights probe passed on banks that differed only later
    params = TpmParams(k=k, n=n, l=l)
    net, _ = init_network(params, seed_from_bytes(b"sync-test-seed-2"))
    probe = probe_of(net)
    for i, j in np.ndindex(k, n):
        weights = net.weights.copy()
        weights[i, j] = weights[i, j] - 1 if weights[i, j] > -l else l
        assert probe_of(TpmNetwork(params, weights)) != probe, (i, j)


def test_sync_test_sensitive_to_seed_and_frame_id():
    # the same bank gives a fresh probe every round: two probes do not show
    # whether the bank changed between them, and none replays into a later round
    params = TpmParams(k=3, n=32, l=3)
    net, _ = init_network(params, seed_from_bytes(b"sync-test-seed-4"))
    probes = {probe_of(net, seed, frame_id)
              for seed in (SEED, bytes(16), SEED[::-1]) for frame_id in (0, 1, 3, 2**32 - 1)}
    assert len(probes) == 12


def test_sync_test_needs_enough_weights():
    # any bank has a probe, but a key exchange needs one 16-weight key group
    params = TpmParams(k=1, n=4, l=1)
    net, _ = init_network(params, seed_from_bytes(b"sync-test-seed-3"))
    assert len(probe_of(net)) == 16
    with pytest.raises(ValueError, match="at least 16"):
        ProtocolConfig(params=params, ssc=b"sender-secret-0!", rsc=b"receiv-secret-0!")


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
    # an inf timeout made a lossy run loop forever, a nan one ended it at tick 0 with no reason
    for bad in (dict(timeout_ticks=float("inf")), dict(timeout_ticks=float("nan")),
                dict(timeout_ticks=16.0), dict(max_attempts=float("inf")), dict(max_attempts=True)):
        with pytest.raises(ValueError, match="integer"):
            config(**bad)
    assert type(config(timeout_ticks=np.int64(16), max_attempts=np.int32(3)).max_attempts) is int
    # a str code of 16 characters would synchronize and then crash the run at its first AUTH
    for codes in (dict(ssc="a" * 16), dict(rsc="b" * 16), dict(ssc=list(range(16)))):
        with pytest.raises(ValueError, match="secret codes"):
            config(**codes)


def test_config_rejects_unknown_rule():
    # accepted before; the exchange then raised at its first agreeing step
    with pytest.raises(ValueError, match="rule"):
        config(rule="bogus")


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

    kinds = {type(f).__name__ for _, f in wire}
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
    # a phase declared but never entered fails here; "failed" is entered by the failure tests
    assert get_args(Phase) == ("idle", "synchronizing", "certifying", "established", "failed")
    assert seen <= {"idle", "synchronizing", "certifying", "established"}
    assert {"synchronizing", "certifying", "established"} <= seen


def xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def test_wire_observer_learns_no_key_or_code():
    # A passive observer of clean exchanges tries the old ways in: the SYN
    # probe was the first 16 weight bytes XORed with a public constant (the
    # key itself whenever the receiver picked group 0), and AUTH carried the
    # key XORed with the secret code.  None of them may give the key, ssc or
    # rsc, and every established run must end with bit-equal banks.
    cfg = config(l=3)
    for i in range(60):
        outcome, wire = drive(cfg, derive_seed(bytes(16), f"x{i}"))
        assert outcome.established, i
        key = outcome.sender_key.key
        assert np.array_equal(outcome.sender.net.weights, outcome.receiver.net.weights), i
        for side, frame in wire:
            if isinstance(frame, Syn):
                assert xor(frame.ek_st, b"SYNC-TEST-VECTOR") != key, i
            if isinstance(frame, Auth):
                assert xor(frame.ek_code, key) != (cfg.ssc if side == "a" else cfg.rsc), i


# --- targeted transitions ------------------------------------------------------


def build_sender(cfg, seed=b"sender-unit-test"):
    return sender_advance(fresh("sender", cfg, seed), Start(), cfg)


def test_sender_start_emits_syn_and_timer():
    cfg = config()
    state, frame = build_sender(cfg)
    assert state.phase == "synchronizing"
    assert isinstance(frame, Syn)
    assert frame.frame_id == 0 and state.sent is frame
    assert state.attempts == 1


def test_sender_ack_applies_learning_and_opens_next_round():
    cfg = config()
    state, syn = build_sender(cfg)
    before = state.net.weights.copy()
    ack = AckSyn(syn.frame_id, tau=syn.tau)
    state2, frame = sender_advance(state, ack, cfg)
    assert state2.iterations == 1
    assert isinstance(frame, Frame)
    # the agreed round must move at least one unit (some sigma equals tau)
    moved = not np.array_equal(state2.net.weights, before)
    assert moved == (syn.tau in state.sigmas)


def test_sender_nak_keeps_weights():
    cfg = config()
    state, syn = build_sender(cfg)
    nak = NakSyn(syn.frame_id, tau=-syn.tau)
    state2, frame = sender_advance(state, nak, cfg)
    assert np.array_equal(state2.net.weights, state.net.weights)
    assert state2.rounds == state.rounds + 1


def test_sender_ignores_stale_ids():
    cfg = config()
    state, syn = build_sender(cfg)
    stale = AckSyn(syn.frame_id + 1, tau=1)
    digest = state_digest(state)
    state2, frame = sender_advance(state, stale, cfg)
    assert state_digest(state2) == digest
    assert frame is None


def test_state_digest_hashes_little_endian_int32():
    # a big-endian host holds int32 arrays as '>i4'; the digest must hash the same bytes there
    state, _ = build_sender(config())
    digest = state_digest(state)
    swapped = TpmNetwork(state.net.params, state.net.weights)
    swapped.__dict__["weights"] = state.net.weights.astype(">i4")
    replaced = dataclasses.replace(state, net=swapped)
    # the digest reads the big-endian weights, whose native bytes differ from the little-endian ones
    assert replaced.net.weights.dtype.byteorder == ">" and np.array_equal(replaced.net.weights, state.net.weights)
    assert replaced.net.weights.tobytes() != state.net.weights.tobytes()
    assert state_digest(replaced) == digest


@pytest.mark.parametrize("field", ["rng", "reply", "fail_reason"])
def test_state_digest_covers_generator_reply_and_fail_reason(field):
    # the generator and the reply steer later steps, and the failure reason is the outcome:
    # two states that differ only there are two states
    cfg = config()
    rstate, _, syn = receiver_with_syn(cfg)
    state, reply = receiver_advance(rstate, syn, cfg)
    other = {
        "rng": RngState(state.rng.s0 ^ 1, state.rng.s1),
        "reply": FinSyn(reply.frame_id, iv=0),
        "fail_reason": "peer certification failed",
    }[field]
    assert state_digest(dataclasses.replace(state, **{field: other})) != state_digest(state)


def test_sender_fin_extracts_key_and_sends_auth():
    cfg = config()
    state, syn = build_sender(cfg)
    fin = FinSyn(syn.frame_id, iv=4)
    state2, auth = sender_advance(state, fin, cfg)
    assert state2.phase == "certifying"
    expected = extract_key(serialize_weights(state.net), 4)
    assert state2.session == expected
    assert isinstance(auth, Auth)
    assert auth.ek_code == auth_code(cfg.ssc, SENDER_AUTH, expected, auth.frame_id)


def test_sender_accepts_any_iv_byte():
    # the group index only salts the key, so every byte value is a valid one
    cfg = config()
    state, syn = build_sender(cfg)
    for iv in (6, 255):
        fin = FinSyn(syn.frame_id, iv=iv)
        state2, frame = sender_advance(state, fin, cfg)
        assert state2.phase == "certifying"
        assert state2.session == extract_key(serialize_weights(state.net), iv)


def test_sender_timeout_retries_then_fails():
    cfg = config(max_attempts=3)
    state, _ = build_sender(cfg)
    for expected_attempts in (2, 3):
        state, frame = sender_advance(state, TimerFired(), cfg)
        assert state.attempts == expected_attempts
        assert state.fail_reason is None
        assert isinstance(frame, Frame)
    state, frame = sender_advance(state, TimerFired(), cfg)
    assert state.phase == "failed"
    assert state.fail_reason == "attempts exceeded"
    assert frame is None


def test_sender_timeout_resends_the_same_frame():
    # a re-sent SYN is a round sent again, a re-sent AUTH is not; neither draws.  Each new
    # frame's id is one above the last, and an ACK learns with the SYN's masks, signs and tau.
    cfg = config()
    state, syn = build_sender(cfg)
    state, nak_round = sender_advance(state, NakSyn(syn.frame_id, -syn.tau), cfg)
    assert nak_round.frame_id == syn.frame_id + 1 and isinstance(nak_round, Syn)
    seed = int.from_bytes(nak_round.seed, "big")
    masks = input_masks(seed >> 64, seed & MASK64, cfg.params.k, cfg.params.n)[0]
    sigmas, tau = forward_planes(state.net, masks)
    assert tau == nak_round.tau
    learned = learn_planes(state.net, masks, sigmas, tau, cfg.rule)
    state, syn = sender_advance(state, AckSyn(nak_round.frame_id, tau), cfg)
    assert syn.frame_id == nak_round.frame_id + 1 and isinstance(syn, Syn)
    assert np.array_equal(state.net.weights, learned.weights) and state.net.planes == learned.planes

    resent, frame = sender_advance(state, TimerFired(), cfg)
    assert encode_frame(frame) == encode_frame(syn)
    assert (resent.rounds, resent.attempts, resent.rng) == (state.rounds + 1, 2, state.rng)

    fin = FinSyn(syn.frame_id, iv=2)
    state, auth = sender_advance(resent, fin, cfg)
    resent, frame = sender_advance(state, TimerFired(), cfg)
    assert isinstance(auth, Auth) and auth.frame_id == syn.frame_id + 1
    assert encode_frame(frame) == encode_frame(auth)
    assert (resent.rounds, resent.attempts, resent.rng) == (state.rounds, 2, state.rng)


def test_sender_auth_reply_verification():
    cfg = config()
    state, syn = build_sender(cfg)
    fin = FinSyn(syn.frame_id, iv=0)
    state, auth = sender_advance(state, fin, cfg)
    session = state.session

    good = Auth(auth.frame_id, auth_code(cfg.rsc, RECEIVER_AUTH, session, auth.frame_id))
    done, frame = sender_advance(state, good, cfg)
    assert done.phase == "established"
    assert (done.session, done.fail_reason, frame) == (session, None, None)

    # a wrong code, the sender's own AUTH reflected back, or a reply bound
    # to another frame id all fail
    for code, label, frame_id in ((b"tampered-code-0!", RECEIVER_AUTH, auth.frame_id),
                                  (cfg.ssc, SENDER_AUTH, auth.frame_id),
                                  (cfg.rsc, RECEIVER_AUTH, auth.frame_id + 1)):
        bad = Auth(auth.frame_id, auth_code(code, label, session, frame_id))
        failed, frame = sender_advance(state, bad, cfg)
        assert failed.phase == "failed"
        assert failed.fail_reason == "peer certification failed"
        assert frame is None


def receiver_with_syn(cfg, seed=b"receiver-unittes"):
    """A receiver plus a SYN crafted from a fresh sender round."""
    rstate = fresh("receiver", cfg, seed)
    sstate, syn = sender_advance(fresh("sender", cfg, b"peer-sender-seed"), Start(), cfg)
    return rstate, sstate, syn


def test_receiver_tau_mismatch_naks_without_update():
    cfg = config()
    rstate, sstate, syn = receiver_with_syn(cfg)
    inputs, _ = draw_inputs(seed_from_bytes(syn.seed), 3, 32)
    ev = evaluate(rstate.net, inputs)
    flipped = Syn(syn.frame_id, syn.seed, -ev.tau, syn.ek_st)
    state2, reply = receiver_advance(rstate, flipped, cfg)
    assert isinstance(reply, NakSyn)
    assert reply.frame_id == syn.frame_id
    assert np.array_equal(state2.net.weights, rstate.net.weights)
    assert state2.iterations == 0


def test_receiver_tau_match_acks_and_learns():
    cfg = config()
    rstate, sstate, syn = receiver_with_syn(cfg)
    inputs, _ = draw_inputs(seed_from_bytes(syn.seed), 3, 32)
    ev = evaluate(rstate.net, inputs)
    agreeing = Syn(syn.frame_id, syn.seed, ev.tau, syn.ek_st)
    state2, reply = receiver_advance(rstate, agreeing, cfg)
    assert isinstance(reply, AckSyn)
    assert reply.frame_id == syn.frame_id
    assert state2.iterations == 1
    assert state2.last_seen_id == syn.frame_id


def test_receiver_replay_rejected():
    # a repeat changes nothing and gets only the reply already sent
    cfg = config()
    rstate, sstate, syn = receiver_with_syn(cfg)
    state2, reply = receiver_advance(rstate, syn, cfg)
    digest = state_digest(state2)
    state3, reply3 = receiver_advance(state2, syn, cfg)
    assert state_digest(state3) == digest
    assert reply3 == reply and isinstance(reply3, Frame)


def synced_syn(net, frame_id):
    """A SYN whose probe matches ``net``."""
    return Syn(frame_id, seed=bytes(16), tau=1, ek_st=sync_probe(net, bytes(16), frame_id))


def test_receiver_synced_syn_triggers_fin_and_key():
    cfg = config()
    rstate, _, _ = receiver_with_syn(cfg)
    syn = synced_syn(rstate.net, 3)
    state2, fin = receiver_advance(rstate, syn, cfg)
    assert state2.phase == "certifying"
    assert state2.session is not None
    assert isinstance(fin, FinSyn)
    assert fin.iv == state2.session.iv
    assert 0 <= fin.iv < 6
    assert state2.session == extract_key(serialize_weights(rstate.net), fin.iv)
    assert state2.rng != rstate.rng  # consumed a word picking the group

    # a repeat of SYN 3 (say FIN was lost) gets the identical FIN_SYN and no
    # new draw; a synced SYN with a new id, after the offer, is ignored
    digest = state_digest(state2)
    for repeat, expected in ((syn, fin), (synced_syn(rstate.net, 4), None)):
        state3, frame3 = receiver_advance(state2, repeat, cfg)
        assert frame3 == expected
        assert state_digest(state3) == digest


def test_receiver_auth_verification_and_rejection():
    cfg = config()
    rstate, _, _ = receiver_with_syn(cfg)
    state, frame = receiver_advance(rstate, synced_syn(rstate.net, 3), cfg)
    session = state.session

    good = Auth(5, auth_code(cfg.ssc, SENDER_AUTH, session, 5))
    est, reply = receiver_advance(state, good, cfg)
    assert est.phase == "established"
    assert (est.session, est.fail_reason) == (session, None)
    assert reply.frame_id == 5
    assert reply.ek_code == auth_code(cfg.rsc, RECEIVER_AUTH, session, 5)

    # equal banks give equal keys, so one rejected AUTH is final: a wrong
    # code, or the right code bound to another frame id
    for bad in (auth_code(b"wrong-secret-00!", SENDER_AUTH, session, 5),
                auth_code(cfg.ssc, SENDER_AUTH, session, 4)):
        rej, frame = receiver_advance(state, Auth(5, bad), cfg)
        assert rej.phase == "failed"
        assert rej.fail_reason == "peer certification failed"
        assert rej.session is None
        assert rej.cert_failures == 1
        assert frame is None


def test_receiver_ignores_auth_without_offer():
    cfg = config()
    rstate, _, _ = receiver_with_syn(cfg)
    auth = Auth(9, bytes(16))
    digest = state_digest(rstate)
    state2, frame = receiver_advance(rstate, auth, cfg)
    assert state_digest(state2) == digest
    assert frame is None


def test_sender_ignores_nak_during_certification():
    cfg = config()
    state, syn = build_sender(cfg)
    fin = FinSyn(syn.frame_id, iv=1)
    state, auth = sender_advance(state, fin, cfg)
    assert state.phase == "certifying"
    digest = state_digest(state)
    nak = NakSyn(auth.frame_id, tau=1)
    state2, frame = sender_advance(state, nak, cfg)
    assert state_digest(state2) == digest
    assert frame is None


def test_established_sender_ignores_everything():
    cfg = config(l=1, n=16)
    outcome = run_exchange(cfg, master_seed=b"established-ign!", iteration_cap=8000)
    assert outcome.established
    state = outcome.sender
    digest = state_digest(state)
    for event in (TimerFired(), AckSyn(999999, tau=1)):
        state2, frame = sender_advance(state, event, cfg)
        assert state_digest(state2) == digest
        assert frame is None


def test_replay_every_delivered_frame_changes_nothing():
    checked = []
    outcome, _ = drive(config(l=1, n=16), b"replay-check-00!",
                       on_delivery=lambda endpoint, frame: checked.append(replay_is_inert(endpoint, frame)))
    assert outcome.sender.phase == "established"
    assert any(checked)


@pytest.mark.parametrize("l, rule, channel", [
    (2, "random_walk", ChannelConfig()),
    (2, "hebbian", ChannelConfig()),
    (1, "anti_hebbian", ChannelConfig(drop_prob=0.1, dup_prob=0.05, corrupt_prob=0.02,
                                      reorder_prob=0.05, rng_seed=11)),
])
def test_transitions_are_pure_and_banks_stay_valid(l, rule, channel):
    cfg = config(l=l, rule=rule)
    delivered = []

    def check(endpoint, frame):
        state = endpoint.state
        digest = state_digest(state)
        new_state, _ = endpoint.advance(state, frame, endpoint.cfg)
        assert state_digest(state) == digest
        for w in (state.net.weights, new_state.net.weights):
            assert w.dtype == np.int32 and not w.flags.writeable and w.shape == (3, 32)
            assert -l <= w.min() and w.max() <= l
        delivered.append(frame)

    outcome, _ = drive(cfg, b"purity-check-00!", channel, on_delivery=check)
    assert outcome.established
    assert len(delivered) >= outcome.iterations > 0
