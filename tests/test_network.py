"""Network evaluation, learning rules, clamping, and overlap metrics."""

import math

import numpy as np
import pytest
from scipy import stats

from paritykex.network import (
    TpmNetwork,
    TpmParams,
    apply_learning,
    evaluate,
    init_network,
    is_synchronized,
    order_params,
)
from paritykex.rng import draw_inputs, seed_from_bytes


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
    assert np.allclose(ev.fields, [math.sqrt(2), math.sqrt(2)])
    assert list(ev.sigmas) == [1, 1]
    assert ev.tau == 1


def test_evaluate_zero_field_is_negative():
    net = make_net([[1, -1]], l=1)
    ev = evaluate(net, np.array([[1, 1]]))
    assert ev.fields[0] == 0
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
                int(net.active_weights[i, j]) * int(inputs[i, j]) for j in range(17)
            )
            sign = 1 if total > 0 else -1
            assert ev.sigmas[i] == sign
            assert abs(ev.fields[i] - total / math.sqrt(17)) < 1e-12
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
    assert np.array_equal(a.fields, b.fields)
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
    assert updated.active_weights[0, 0] == 1


def test_hebbian_hand_computed():
    net = make_net([[0, 0]], l=3)
    x = np.array([[1, -1]])
    ev = evaluate(net, x)
    assert ev.sigmas[0] == -1 and ev.tau == -1
    updated = apply_learning(net, x, ev, -1, "hebbian")
    assert list(updated.active_weights[0]) == [-1, 1]


def test_anti_hebbian_direction():
    net = make_net([[0, 0]], l=3)
    x = np.array([[1, -1]])
    ev = evaluate(net, x)
    updated = apply_learning(net, x, ev, -1, "anti_hebbian")
    assert list(updated.active_weights[0]) == [1, -1]


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
                updated.active_weights[i], net.active_weights[i]
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
            counts += np.bincount(net_a.active_weights.ravel() + 2, minlength=5)
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
            counts += np.bincount(net.active_weights.ravel() + 1, minlength=3)
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
        wa = [int(v) for v in net_a.active_weights[unit]]
        wb = [int(v) for v in net_b.active_weights[unit]]
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
