"""Network evaluation, learning rules, clamping, and overlap metrics."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from paritykex.keycodec import encode_weight, serialize_weights
from paritykex.network import (
    LEARNING_RULES,
    TpmNetwork,
    TpmParams,
    apply_learning,
    evaluate,
    forward,
    forward_planes,
    init_network,
    init_network_lanes,
    is_synchronized,
    learn,
    learn_planes,
    order_params,
)
from paritykex.exchange import run_exchange
from paritykex.protocol import ProtocolConfig, SenderState, state_digest
from paritykex.rng import MASK64, PER_LANE_MAX, draw_inputs, input_masks, seed_from_bytes, seed_lanes


def make_net(weights, l):
    w = np.asarray(weights, dtype=np.int32)
    k, n = w.shape
    return TpmNetwork(TpmParams(k=k, n=n, l=l), w)


# --- params and init -------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        TpmParams(k=0, n=1, l=1)
    with pytest.raises(ValueError):
        TpmParams(k=1, n=0, l=1)
    with pytest.raises(ValueError):
        TpmParams(k=1, n=1, l=128)
    with pytest.raises(ValueError):
        TpmParams(k=1, n=1, l=-1)
    # each of these was accepted, then crashed inside run_exchange
    for bad in ((3.0, 32, 3), (3, 32, 3.0), (True, 32, 3), (3, "32", 3)):
        with pytest.raises(ValueError, match="integer"):
            TpmParams(*bad)


def test_numpy_integer_params_are_plain_ints_and_give_the_same_key():
    # numpy int64 params overflowed in init_network
    params = TpmParams(np.int64(3), np.int64(32), np.int64(3))
    assert params == TpmParams(3, 32, 3)
    assert all(type(v) is int for v in (params.k, params.n, params.l))
    codes = dict(ssc=b"sender-secret-0!", rsc=b"receiv-secret-0!")
    outcomes = [run_exchange(ProtocolConfig(p, **codes), b"numpy-int-seed-0")
                for p in (params, TpmParams(3, 32, 3))]
    assert outcomes[0].established
    assert outcomes[0].sender_key == outcomes[1].sender_key
    assert outcomes[0].rounds == outcomes[1].rounds


def test_network_rejects_weights_beyond_the_bound_at_dtype_extremes():
    # abs() maps a signed dtype's most negative value to itself, so an
    # abs-based bound check let these banks through at l = 3
    for dtype in (np.int32, np.int8):
        w = np.zeros((3, 32), dtype=dtype)
        w[1, 5] = np.iinfo(dtype).min
        with pytest.raises(ValueError, match="bound"):
            TpmNetwork(TpmParams(k=3, n=32, l=3), w)


def test_network_rejects_non_integer_weights():
    # a float bank passed the bound check and failed later, in serialize_weights
    with pytest.raises(ValueError, match="integer"):
        TpmNetwork(TpmParams(k=3, n=32, l=3), np.full((3, 32), 1.5))


def test_network_stores_a_read_only_int32_copy():
    # the bank kept the caller's array: it made that array read-only, and an int64 bank
    # hashed to another state digest than the same int32 bank
    params = TpmParams(k=3, n=8, l=3)
    values = np.random.default_rng(19).integers(-3, 4, size=(3, 8))
    digests = set()
    for dtype in (np.int64, np.int32, np.int8):
        w = values.astype(dtype)
        net = TpmNetwork(params, w)
        assert net.weights.dtype == np.int32 and not net.weights.flags.writeable
        assert w.flags.writeable
        w[0, 0] = 3 if w[0, 0] != 3 else -3
        assert np.array_equal(net.weights, values)
        digests.add(state_digest(SenderState(net, seed_from_bytes(bytes(16)))))
    assert len(digests) == 1


def test_init_depth_zero_gives_zero_weight():
    net, _ = init_network(TpmParams(k=1, n=1, l=0), seed_from_bytes(b"any-seed-at-all!"))
    assert net.weights.shape == (1, 1)
    assert net.weights[0, 0] == 0


def test_init_deterministic():
    params = TpmParams(k=3, n=32, l=5)
    a, _ = init_network(params, seed_from_bytes(b"same-seed-twice!"))
    b, _ = init_network(params, seed_from_bytes(b"same-seed-twice!"))
    assert np.array_equal(a.weights, b.weights)


def test_init_returns_advanced_state():
    params = TpmParams(k=2, n=4, l=3)
    rng0 = seed_from_bytes(b"advance-check-00")
    net1, rng1 = init_network(params, rng0)
    net2, rng2 = init_network(params, rng1)
    assert rng1 != rng0 and rng2 != rng1
    assert not np.array_equal(net1.weights, net2.weights)


@pytest.mark.parametrize("k,n,l", [(3, 32, 3), (2, 5, 0), (1, 7, 127), (4, 16, 1)])
def test_init_lanes_match_init_network(k, n, l):
    params = TpmParams(k=k, n=n, l=l)
    seeds = [bytes(16), b"\xff" * 16] + [np.random.default_rng(i).bytes(16) for i in range(20)]
    for count in (4, len(seeds)):  # lanes held as (s0, s1) pairs, then as PackedLanes
        state = seed_lanes(seeds[:count])
        scalars = [seed_from_bytes(seed) for seed in seeds[:count]]
        for _ in range(2):  # consecutive networks, as a trial draws them
            banks, state = init_network_lanes(params, state)
            assert banks.shape == (count, k, n)
            for lane, rng in enumerate(scalars):
                net, scalars[lane] = init_network(params, rng)
                assert np.array_equal(banks[lane], net.weights)
        if count > PER_LANE_MAX:
            state = [(state.s0 >> 64 * t & MASK64, state.s1 >> 64 * t & MASK64) for t in range(state.lanes)]
        assert state == [(st.s0, st.s1) for st in scalars]


def test_init_weights_within_bound():
    net, _ = init_network(TpmParams(k=4, n=16, l=2), seed_from_bytes(b"bound-check-seed"))
    assert np.all(np.abs(net.weights) <= 2)


def test_init_uniform_histogram():
    # weight histogram over many fresh networks is uniform on 2l+1 values
    params = TpmParams(k=3, n=32, l=127)
    rng = seed_from_bytes(b"uniformity-seed!")
    counts = np.zeros(255, dtype=np.int64)
    networks = 10_000
    for _ in range(networks):
        net, rng = init_network(params, rng)
        counts += np.bincount((net.weights.ravel() + 127), minlength=255)
    expected = counts.sum() / 255.0
    chi = float(((counts - expected) ** 2 / expected).sum())
    p = stats.chi2.sf(chi, df=254)
    assert p > 0.01, f"chi2={chi:.1f} p={p:.4f}"


# --- evaluate ---------------------------------------------------------------


def test_evaluate_all_ones():
    net = make_net([[1, 1], [1, 1]], l=1)
    ev = evaluate(net, np.ones((2, 2), dtype=int))
    assert list(ev.sigmas) == [1, 1]
    assert ev.tau == 1


def test_evaluate_zero_field_is_negative():
    net = make_net([[1, -1]], l=1)
    ev = evaluate(net, np.array([[1, 1]]))
    assert ev.sigmas[0] == -1
    assert ev.tau == -1


def test_evaluate_tau_is_product_of_recomputed_signs():
    params = TpmParams(k=3, n=17, l=4)
    rng = seed_from_bytes(b"recompute-oracle")
    for _ in range(50):
        net, rng = init_network(params, rng)
        inputs, rng = draw_inputs(rng, 3, 17)
        ev = evaluate(net, inputs)
        prod = 1
        for i in range(3):
            total = sum(
                int(net.weights[i, j]) * int(inputs[i, j]) for j in range(17)
            )
            sign = 1 if total > 0 else -1
            assert ev.sigmas[i] == sign
            prod *= sign
        assert ev.tau == prod


def test_evaluate_shape_checked():
    net = make_net([[1, 1], [1, 1]], l=1)
    with pytest.raises(ValueError):
        evaluate(net, np.ones((2, 3), dtype=int))
    with pytest.raises(ValueError):
        evaluate(net, np.array([[1, 2], [1, 1]]))


def test_evaluate_pure():
    net = make_net([[1, 0, -1]], l=1)
    x = np.array([[1, -1, 1]])
    a = evaluate(net, x)
    b = evaluate(net, x)
    assert np.array_equal(a.sigmas, b.sigmas)
    assert a.tau == b.tau


# --- apply_learning ---------------------------------------------------------


def test_disagreement_is_idle():
    net = make_net([[1, 1]], l=2)
    x = np.array([[1, 1]])
    ev = evaluate(net, x)
    updated = apply_learning(net, x, ev, -ev.tau, "hebbian")
    assert np.array_equal(updated.weights, net.weights)


def test_random_walk_clamps_at_bound():
    net = make_net([[1]], l=1)
    x = np.array([[1]])
    ev = evaluate(net, x)
    assert ev.sigmas[0] == 1 and ev.tau == 1
    updated = apply_learning(net, x, ev, 1, "random_walk")
    assert updated.weights[0, 0] == 1


def test_hebbian_hand_computed():
    net = make_net([[0, 0]], l=3)
    x = np.array([[1, -1]])
    ev = evaluate(net, x)
    assert ev.sigmas[0] == -1 and ev.tau == -1
    updated = apply_learning(net, x, ev, -1, "hebbian")
    assert list(updated.weights[0]) == [-1, 1]


def test_anti_hebbian_direction():
    net = make_net([[0, 0]], l=3)
    x = np.array([[1, -1]])
    ev = evaluate(net, x)
    updated = apply_learning(net, x, ev, -1, "anti_hebbian")
    assert list(updated.weights[0]) == [1, -1]


def test_update_gate_only_matching_units():
    # only rows whose sign equals the common output move
    params = TpmParams(k=3, n=16, l=3)
    rng = seed_from_bytes(b"update-gate-seed")
    moved_checked = 0
    for _ in range(100):
        net, rng = init_network(params, rng)
        inputs, rng = draw_inputs(rng, 3, 16)
        ev = evaluate(net, inputs)
        updated = apply_learning(net, inputs, ev, ev.tau, "random_walk")
        for i in range(3):
            row_moved = not np.array_equal(
                updated.weights[i], net.weights[i]
            )
            if ev.sigmas[i] != ev.tau:
                assert not row_moved
            else:
                moved_checked += 1
    assert moved_checked > 0


def test_clamp_invariant_over_many_steps():
    params = TpmParams(k=3, n=8, l=2)
    rng = seed_from_bytes(b"clamp-invariant!")
    net, rng = init_network(params, rng)
    for _ in range(500):
        inputs, rng = draw_inputs(rng, 3, 8)
        ev = evaluate(net, inputs)
        net = apply_learning(net, inputs, ev, ev.tau, "hebbian")
        assert np.all(np.abs(net.weights) <= 2)


def test_synchronized_state_is_absorbing():
    params = TpmParams(k=3, n=16, l=3)
    rng = seed_from_bytes(b"absorbing-check!")
    net, rng = init_network(params, rng)
    twin = TpmNetwork(params, net.weights.copy())
    for rule in ("hebbian", "anti_hebbian", "random_walk"):
        a, b = net, twin
        for _ in range(200):
            inputs, rng = draw_inputs(rng, 3, 16)
            ev_a, ev_b = evaluate(a, inputs), evaluate(b, inputs)
            assert ev_a.tau == ev_b.tau
            a = apply_learning(a, inputs, ev_a, ev_b.tau, rule)
            b = apply_learning(b, inputs, ev_b, ev_a.tau, rule)
            assert is_synchronized(a, b)


def test_unknown_rule_rejected():
    net = make_net([[1, 1]], l=2)
    x = np.array([[1, 1]])
    ev = evaluate(net, x)
    with pytest.raises(ValueError):
        apply_learning(net, x, ev, ev.tau, "perceptron")


# --- step kernel ---------------------------------------------------------------


@pytest.mark.parametrize("rule", ["hebbian", "anti_hebbian", "random_walk"])
def test_kernel_matches_scalar_wrappers_lane_by_lane(rule):
    params = TpmParams(k=3, n=8, l=2)
    rng = seed_from_bytes(b"kernel-stack-00!")
    w = np.empty((2, 3, 3, 8), dtype=np.int32)
    x = np.empty_like(w)
    for lane in np.ndindex(2, 3):
        net, rng = init_network(params, rng)
        w[lane] = net.weights
        x[lane], rng = draw_inputs(rng, 3, 8)
    # a unit whose inputs cancel its weights exactly: its sum is zero
    w[1, 0, 0] = x[1, 0, 0] * np.array([1, -1] * 4)
    moves = np.array([[True, False, True], [True, True, False]])

    sums, sigmas, tau = forward(w, x)
    learned = learn(w, x, sigmas, tau, moves, rule, params.l)
    assert sums[1, 0, 0] == 0 and sigmas[1, 0, 0] == -1
    assert set(tau.flat) == {-1, 1}

    for lane in np.ndindex(2, 3):
        net = TpmNetwork(params, w[lane].copy())
        ev = evaluate(net, x[lane])
        assert np.array_equal(ev.sigmas, sigmas[lane])
        assert ev.tau == tau[lane]
        # the peer announces the same output exactly where the lane moves
        tau_other = ev.tau if moves[lane] else -ev.tau
        expected = apply_learning(net, x[lane], ev, tau_other, rule)
        assert np.array_equal(learned[lane], expected.weights)
        assert moves[lane] != np.array_equal(learned[lane], w[lane])


@pytest.mark.parametrize("rule", LEARNING_RULES)
def test_kernel_on_a_bank_stack_equals_calling_it_bank_by_bank(rule):
    # the lockstep engine's call: banks A, B, E of 4 lanes, with A's tau and a
    # per-lane moves flag of shape (lanes,) broadcast over the bank axis
    l = 2
    gen = np.random.default_rng(20261019)
    w = gen.integers(-l, l + 1, size=(3, 4, 3, 8), dtype=np.int32)
    x = gen.choice(np.array([-1, 1], dtype=np.int32), size=(4, 3, 8))
    w[1, 0, 0] = x[0, 0] * np.array([1, -1] * 4)  # a unit whose sum is zero
    w[0, 1], w[0, 2] = l, -l  # A's banks of two lanes at the upper and the lower bound
    moves = np.array([True, True, True, False])

    sums, sigmas, tau = forward(w, x)
    learned = learn(w, x, sigmas, tau[0], moves, rule, l)
    assert sums[1, 0, 0] == 0 and sigmas[1, 0, 0] == -1
    for bank in range(3):
        expected = forward(w[bank], x)
        for got, want in zip((sums[bank], sigmas[bank], tau[bank]), expected):
            assert np.array_equal(got, want)
        assert np.array_equal(learned[bank], learn(w[bank], x, sigmas[bank], tau[0], moves, rule, l))
    assert np.array_equal(learned[:, 3], w[:, 3])  # the lane that does not move
    # A always has a unit whose sign is tau; at a bound its weights step inward or stay clamped
    for lane, bound in ((1, l), (2, -l)):
        unit = np.flatnonzero(sigmas[0, lane] == tau[0, lane])[0]
        assert set(learned[0, lane, unit].tolist()) == {bound, bound - np.sign(bound)}


@pytest.mark.parametrize("rule", LEARNING_RULES)
def test_kernel_keeps_the_dtype_of_an_int32_stack(rule):
    # hebbian and anti_hebbian multiplied the mask by the int64 tau and returned int64
    l = 3
    gen = np.random.default_rng(18)
    w = gen.integers(-l, l + 1, size=(3, 5, 3, 8), dtype=np.int32)
    x = gen.choice(np.array([-1, 1], dtype=np.int32), size=(5, 3, 8))
    moves = np.array([True, False, True, True, False])
    _, sigmas, tau = forward(w, x)
    learned = learn(w, x, sigmas, tau[0], moves, rule, l)
    assert learned.dtype == w.dtype

    t = tau[0][:, None].astype(np.int64)
    step = {"hebbian": t, "anti_hebbian": -t, "random_walk": 1}[rule]
    gate = (sigmas == t) & moves[:, None]
    expected = np.clip(w.astype(np.int64) + x * (gate * step)[..., None], -l, l)
    assert np.array_equal(learned, expected)


def test_random_walk_marginal_stays_uniform():
    # paired random-walk learning leaves the weight marginal uniform
    params = TpmParams(k=3, n=16, l=2)
    rng = seed_from_bytes(b"rw-uniform-seed!")
    net_a, rng = init_network(params, rng)
    net_b, rng = init_network(params, rng)
    counts = np.zeros(5, dtype=np.int64)
    for step in range(4000):
        inputs, rng = draw_inputs(rng, 3, 16)
        ev_a, ev_b = evaluate(net_a, inputs), evaluate(net_b, inputs)
        if ev_a.tau == ev_b.tau:
            net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, "random_walk")
            net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, "random_walk")
        if step >= 500 and step % 20 == 0:
            counts += np.bincount(net_a.weights.ravel() + 2, minlength=5)
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 0.2) < 0.05), freq


def test_hebbian_overweights_boundaries():
    params = TpmParams(k=1, n=8, l=1)
    rng = seed_from_bytes(b"hebbian-boundary")
    net, rng = init_network(params, rng)
    counts = np.zeros(3, dtype=np.int64)
    for step in range(4000):
        inputs, rng = draw_inputs(rng, 1, 8)
        ev = evaluate(net, inputs)
        net = apply_learning(net, inputs, ev, ev.tau, "hebbian")
        if step >= 500:
            counts += np.bincount(net.weights.ravel() + 1, minlength=3)
    freq = counts / counts.sum()
    assert freq[0] > 1 / 3 and freq[2] > 1 / 3, freq


# --- order params and synchronization --------------------------------------


def test_order_params_identical_rows():
    net = make_net([[1, 2, -1]], l=2)
    twin = make_net([[1, 2, -1]], l=2)
    op = order_params(net, twin, 0)
    assert op.rho == pytest.approx(1.0)
    assert op.q_a == pytest.approx(op.q_b)


def test_order_params_orthogonal_rows():
    op = order_params(make_net([[1, 1]], l=1), make_net([[1, -1]], l=1), 0)
    assert op.r == 0.0
    assert op.rho == 0.0


def test_order_params_zero_row_undefined():
    op = order_params(make_net([[0, 0]], l=1), make_net([[1, 1]], l=1), 0)
    assert op.rho is None
    assert op.q_a == 0.0


def test_order_params_matches_bruteforce():
    params = TpmParams(k=2, n=32, l=4)
    rng = seed_from_bytes(b"bruteforce-rho-0")
    net_a, rng = init_network(params, rng)
    net_b, rng = init_network(params, rng)
    for unit in range(2):
        op = order_params(net_a, net_b, unit)
        wa = [int(v) for v in net_a.weights[unit]]
        wb = [int(v) for v in net_b.weights[unit]]
        q_a = sum(v * v for v in wa) / 32
        q_b = sum(v * v for v in wb) / 32
        r = sum(x * y for x, y in zip(wa, wb)) / 32
        assert op.q_a == pytest.approx(q_a, abs=1e-12)
        assert op.q_b == pytest.approx(q_b, abs=1e-12)
        assert op.r == pytest.approx(r, abs=1e-12)
        assert op.rho == pytest.approx(r / math.sqrt(q_a * q_b), abs=1e-12)


def test_is_synchronized_detects_single_difference():
    net = make_net([[1, 2], [0, -1]], l=2)
    twin = make_net([[1, 2], [0, -1]], l=2)
    assert is_synchronized(net, twin)
    other = make_net([[1, 2], [0, 0]], l=2)
    assert not is_synchronized(net, other)


def test_is_synchronized_requires_identical_params():
    with pytest.raises(ValueError):
        is_synchronized(make_net([[1, 1]], l=1), make_net([[1, 1]], l=2))


def test_full_run_reaches_and_keeps_synchronization():
    params = TpmParams(k=3, n=16, l=2)
    rng = seed_from_bytes(b"full-sync-run-00")
    net_a, rng = init_network(params, rng)
    net_b, rng = init_network(params, rng)
    for _ in range(50_000):
        if is_synchronized(net_a, net_b):
            break
        inputs, rng = draw_inputs(rng, 3, 16)
        ev_a, ev_b = evaluate(net_a, inputs), evaluate(net_b, inputs)
        if ev_a.tau == ev_b.tau:
            net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, "random_walk")
            net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, "random_walk")
    assert is_synchronized(net_a, net_b)
    for unit in range(3):
        rho = order_params(net_a, net_b, unit).rho
        assert rho is None or rho == pytest.approx(1.0)
    for _ in range(100):
        inputs, rng = draw_inputs(rng, 3, 16)
        ev_a, ev_b = evaluate(net_a, inputs), evaluate(net_b, inputs)
        net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, "random_walk")
        net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, "random_walk")
        assert is_synchronized(net_a, net_b)


# --- the bit-plane kernel of the protocol round ---------------------------------

PLANE_SHAPES = [(k, n, l) for k in (1, 3, 4) for n in (1, 7, 8, 13, 32, 33, 64)
                for l in (1, 2, 3, 5, 64, 127)]


def _of_planes(params, planes):
    """A bank held as ``planes`` only."""
    return TpmNetwork._of_planes(params, planes, None)


def masks_of(x):
    """The n-bit input masks of a (k, n) +-1 matrix: bit j of mask i set where x[i, j] = +1."""
    return [sum(1 << j for j, v in enumerate(row) if v > 0) for row in x.tolist()]


def zero_sum_bank(gen, x, l):
    """A random bank whose every unit sum over ``x`` is 0: shrink weights pushing the sum away."""
    w = gen.integers(-l, l + 1, size=x.shape)
    for row, xs in zip(w, x):
        total = int(row @ xs)
        for j in gen.permutation(len(row)):
            if total and row[j] and (row[j] * xs[j] > 0) == (total > 0):
                cut = min(abs(int(row[j])), abs(total)) * np.sign(row[j])
                row[j] -= cut
                total -= int(cut * xs[j])
        assert total == 0
    return w


def cross_check_banks(gen, k, n, l):
    """(weights, inputs) pairs: uniform banks, banks saturated at +-l and zero-sum banks."""
    for kind in ("uniform", "saturated", "zero sums"):
        for _ in range(8):
            x = gen.choice([-1, 1], size=(k, n))
            if kind == "uniform":
                w = gen.integers(-l, l + 1, size=(k, n))
            elif kind == "saturated":
                w = gen.choice([-l, l], size=(k, n))
            else:
                w = zero_sum_bank(gen, x, l)
            yield w.astype(np.int32), x


def test_plane_kernel_matches_the_array_kernel():
    gen = np.random.default_rng(20261019)
    banks = 0
    for k, n, l in PLANE_SHAPES:
        params = TpmParams(k, n, l)
        for w, x in cross_check_banks(gen, k, n, l):
            net = _of_planes(params, TpmNetwork(params, w).planes)
            masks = masks_of(x)
            _, sigmas, tau = forward(w, x)
            assert forward_planes(net, masks) == (sigmas.tolist(), int(tau))
            for rule in LEARNING_RULES:
                expected = learn(w, x, sigmas, tau, True, rule, l)
                assert np.array_equal(learn_planes(net, masks, sigmas.tolist(), int(tau), rule).weights,
                                      expected), (k, n, l, rule)
            banks += 1
    assert banks >= 3000


@pytest.mark.parametrize("rule", LEARNING_RULES)
def test_plane_kernel_tracks_the_array_kernel_over_long_runs(rule):
    # long enough for weights to pile up at both bounds
    for k, n, l in ((3, 32, 1), (2, 13, 3), (4, 33, 5)):
        params = TpmParams(k, n, l)
        net, rng = init_network(params, seed_from_bytes(b"plane-long-run-0"))
        w = net.weights
        for _ in range(300):
            masks = input_masks(rng.s0, rng.s1, k, n)[0]
            x, rng = draw_inputs(rng, k, n)
            assert masks == masks_of(x)
            _, sigmas, tau = forward(w, x)
            w = learn(w, x, sigmas, tau, True, rule, l)
            net = learn_planes(net, masks, *forward_planes(net, masks), rule)
            assert np.array_equal(net.weights, w)


# PLANE_SHAPES has no l = 0: depth-0 banks have no planes at all
@pytest.mark.parametrize("k, n, l", PLANE_SHAPES[::5] + [(1, 1, 0), (3, 13, 0), (2, 64, 0), (3, 7, 1),
                                                          (2, 13, 3), (4, 33, 127)])
def test_weights_round_trip_through_planes(k, n, l):
    params = TpmParams(k, n, l)
    w = np.random.default_rng(k * 1000 + n * 10 + l).integers(-l, l + 1, size=(k, n), dtype=np.int32)
    back = _of_planes(params, TpmNetwork(params, w.copy()).planes)
    assert len(back.planes) == k and {len(unit) for unit in back.planes} == {(2 * l).bit_length()}
    assert back.weights.dtype == np.int32 and not back.weights.flags.writeable
    assert np.array_equal(back.weights, w)
    material = bytes(encode_weight(int(v)) for v in w.ravel())
    assert serialize_weights(back) == material


def bank_holding(l, value):
    """Planes of a (2, 5) bank at depth l whose unit 1, weight 3 holds w + l = value; every other
    weight is 0."""
    depth = (2 * l).bit_length()
    planes = [[(l >> b & 1) * 0b11111 for b in range(depth)] for _ in range(2)]
    for b in range(depth):
        planes[1][b] = planes[1][b] & ~(1 << 3) | (value >> b & 1) << 3
    return tuple(tuple(unit) for unit in planes)


@pytest.mark.parametrize("l", [1, 2, 3, 5, 64, 127])
def test_plane_bank_above_the_bound_is_rejected(l):
    # planes decode to the extremes +-l; a bank above +l is stopped where weights enter
    params = TpmParams(2, 5, l)
    assert _of_planes(params, bank_holding(l, 2 * l)).weights[1, 3] == l
    assert _of_planes(params, bank_holding(l, 0)).weights[1, 3] == -l
    w = np.zeros((2, 5), dtype=np.int32)
    w[1, 3] = l + 1
    with pytest.raises(ValueError, match="bound"):
        TpmNetwork(params, w)


@pytest.mark.parametrize("l", [1, 2, 3, 5, 64, 127])
def test_learning_rejects_a_moved_unit_above_the_bound(l):
    # a unit at +l or -l moves and stays clamped, so learn_planes never leaves the bound
    params = TpmParams(2, 5, l)
    full = 0b11111
    net = _of_planes(params, bank_holding(l, 2 * l))
    assert learn_planes(net, [full, full], [1, 1], 1, "random_walk").weights[1, 3] == l
    net = _of_planes(params, bank_holding(l, 0))
    assert learn_planes(net, [0, 0], [1, 1], 1, "random_walk").weights[1, 3] == -l


# n = 2 at l = 1..7 (every layout of 2 to 4 planes), n = 1 at the two deepest layouts the byte codec allows
EXHAUSTIVE_PLANE_SHAPES = [(2, l) for l in range(1, 8)] + [(1, 64), (1, 127)]


def test_plane_kernel_matches_the_array_kernel_on_every_small_bank():
    # learn_planes' results are not bound-checked, so this shows by exhaustion that they stay in
    # [-l, +l]: every bank, input, tau and rule of each shape
    cases = 0
    for n, l in EXHAUSTIVE_PLANE_SHAPES:
        params, rows = TpmParams(1, n, l), list(itertools.product(range(-l, l + 1), repeat=n))
        # bit j of plane b is bit b of w[j] + l
        planes_of = {row: (tuple(sum((v + l >> b & 1) << j for j, v in enumerate(row))
                                 for b in range((2 * l).bit_length())),) for row in rows}
        for row in rows:
            w, net = np.array([row], dtype=np.int32), _of_planes(params, planes_of[row])
            for mask in range(1 << n):
                x = np.array([[1 if mask >> j & 1 else -1 for j in range(n)]])
                for tau in (1, -1):
                    for rule in LEARNING_RULES:
                        expected = learn(w, x, np.array([tau]), tau, True, rule, l)
                        learned = learn_planes(net, [mask], [tau], tau, rule)
                        case = (n, l, row, mask, tau, rule)
                        assert np.array_equal(learned.weights, expected), case
                        assert learned.planes == planes_of[tuple(expected[0].tolist())], case
                        cases += 1
    assert cases == 20904


@pytest.mark.parametrize("rule", LEARNING_RULES)
def test_learned_banks_carry_the_unit_data_a_fresh_bank_computes(rule):
    # learn_planes builds the moved units' forward constants and probe bytes and
    # copies the others; after many steps they must equal a recomputation
    for k, n, l in PLANE_SHAPES:
        params = TpmParams(k, n, l)
        net, rng = init_network(params, seed_from_bytes(b"unit-data-run-00"))
        s0, s1 = rng.s0, rng.s1
        for _ in range(300):
            masks, s0, s1 = input_masks(s0, s1, k, n)
            net = learn_planes(net, masks, *forward_planes(net, masks), rule)
        fresh = _of_planes(params, net.planes)
        assert net.unit_data == fresh.unit_data, (k, n, l)
        # l*n - sum_b 2^b |P_b| = -sum(w): the constants agree with the bank the probe bytes decode to
        assert [constant for constant, _ in net.unit_data] == (-net.weights.sum(axis=1)).tolist()
        width = -(-n // 8)
        for unit, (constant, probe) in zip(fresh.planes, fresh.unit_data):
            assert constant == l * n - sum(plane.bit_count() << b for b, plane in enumerate(unit))
            assert probe == b"".join(plane.to_bytes(width, "little") for plane in unit)
