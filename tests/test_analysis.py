"""Closed-form laws, Monte-Carlo runners, attacker model, CSV output."""

import math

import numpy as np
import pytest

from paritykex.analysis import (
    CSV_COLUMNS,
    chi_square,
    expected_q,
    initial_norm,
    joint_distribution,
    keyspace_size,
    run_attack_trials,
    run_single_trial,
    run_sync_trials,
    sigma_agreement_prob,
    stationary_distribution,
    step_kinds,
    write_sweep_csv,
)
from paritykex.exchange import derive_seed, run_exchange
from paritykex.network import (
    Evaluation,
    TpmNetwork,
    TpmParams,
    apply_learning,
    evaluate,
    init_network,
    is_synchronized,
    order_params,
)
from paritykex.protocol import ProtocolConfig
from paritykex.rng import draw_inputs, seed_from_bytes


# --- agreement probability --------------------------------------------------


def test_agreement_prob_at_zero_weight():
    assert sigma_agreement_prob(0, 32, 1.0) == 0.5


def test_agreement_prob_symmetry_and_direction():
    for w in (1, 2, 3):
        p_pos = sigma_agreement_prob(w, 64, 4.0)
        p_neg = sigma_agreement_prob(-w, 64, 4.0)
        assert p_pos > 0.5
        assert p_pos + p_neg == pytest.approx(1.0, abs=1e-15)


def test_agreement_prob_domain_checked():
    with pytest.raises(ValueError):
        sigma_agreement_prob(4, 4, 1.0)


def test_agreement_prob_matches_fresh_input_frequency():
    # fixed weight row, iid inputs: the law's own estimand
    rng = np.random.default_rng(2024)
    n, l = 100, 3
    row = rng.integers(-l, l + 1, size=n)
    row[0], row[1], row[2] = -2, 0, 3  # designated probes
    q = float(row @ row) / n
    draws = 100_000
    hits = {0: 0, 1: 0, 2: 0}
    for _ in range(draws):
        x = rng.integers(0, 2, size=n) * 2 - 1
        sign = int(np.sign(row @ x)) or -1
        for j in hits:
            hits[j] += sign * x[j] == 1
    for j, w in ((0, -2), (1, 0), (2, 3)):
        model = sigma_agreement_prob(w, n, q)
        se = math.sqrt(model * (1 - model) / draws)
        assert abs(hits[j] / draws - model) < 3 * se


# --- stationary law -----------------------------------------------------------


def test_stationary_distribution_normalized_and_symmetric():
    dist = stationary_distribution(3, 32, 4.8)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(dist >= 0)
    assert np.allclose(dist, dist[::-1], atol=1e-15)


def test_stationary_distribution_uniform_limit():
    dist = stationary_distribution(3, 10**8, 4.0)
    assert np.all(np.abs(dist - 1 / 7) < 1e-3)


def test_stationary_distribution_domain_checked():
    with pytest.raises(ValueError):
        stationary_distribution(3, 2, 1.0)


def test_stationary_distribution_weights_boundaries_at_small_n():
    dist = stationary_distribution(1, 16, expected_q(1, 16))
    assert dist[0] > dist[1] and dist[2] > dist[1]


# --- norms and fixed point ------------------------------------------------------


def test_initial_norm_values():
    assert initial_norm(3) == 2.0
    assert initial_norm(0) == 0.0


def test_initial_norm_matches_sampled_norms():
    params = TpmParams(k=1, n=100, l=3)
    rng = seed_from_bytes(b"norm-sampling-00")
    norms = []
    for _ in range(10_000):
        net, rng = init_network(params, rng)
        w = net.active_weights[0].astype(float)
        norms.append(math.sqrt(float(w @ w) / 100))
    assert abs(np.mean(norms) - initial_norm(3)) / initial_norm(3) < 0.01


def test_expected_q_is_a_fixed_point():
    q = expected_q(3, 32)
    dist = stationary_distribution(3, 32, q)
    w = np.arange(-3, 4)
    residual = abs(q - float(np.dot(w * w, dist)))
    assert residual < 1e-9


def test_expected_q_uniform_limit():
    assert abs(expected_q(3, 10**14) - 4.0) < 1e-6


def test_expected_q_validates():
    with pytest.raises(ValueError):
        expected_q(0, 32)


# --- joint distribution -----------------------------------------------------------


def test_joint_distribution_identical_nets_diagonal():
    params = TpmParams(k=2, n=24, l=2)
    net, _ = init_network(params, seed_from_bytes(b"joint-diag-seed!"))
    twin = TpmNetwork(params, net.weights.copy())
    joint = joint_distribution(net, twin, 0)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)
    off_diagonal = joint - np.diag(np.diag(joint))
    assert np.all(off_diagonal == 0)


def test_joint_distribution_moments_match_order_params():
    params = TpmParams(k=3, n=32, l=3)
    rng = seed_from_bytes(b"joint-moments-0!")
    net_a, rng = init_network(params, rng)
    net_b, rng = init_network(params, rng)
    values = np.arange(-3, 4, dtype=float)
    for unit in range(3):
        joint = joint_distribution(net_a, net_b, unit)
        op = order_params(net_a, net_b, unit)
        q_a = float(((values**2)[:, None] * joint).sum())
        q_b = float(((values**2)[None, :] * joint).sum())
        r = float((values[:, None] * values[None, :] * joint).sum())
        assert q_a == pytest.approx(op.q_a, abs=1e-12)
        assert q_b == pytest.approx(op.q_b, abs=1e-12)
        assert r == pytest.approx(op.r, abs=1e-12)


# --- step classification -----------------------------------------------------------


def test_step_kinds_against_peer():
    params = TpmParams(k=3, n=16, l=3)
    rng = seed_from_bytes(b"step-kind-seed00")
    seen = set()
    for _ in range(300):
        net_a, rng = init_network(params, rng)
        net_b, rng = init_network(params, rng)
        inputs, rng = draw_inputs(rng, 3, 16)
        ev_a, ev_b = evaluate(net_a, inputs), evaluate(net_b, inputs)
        kinds = step_kinds(ev_a, ev_b)
        if ev_a.tau != ev_b.tau:
            assert kinds == ("idle",) * 3
        else:
            for i, kind in enumerate(kinds):
                if ev_a.sigmas[i] != ev_b.sigmas[i]:
                    assert kind == "repulsive"
                elif ev_a.sigmas[i] == ev_a.tau:
                    assert kind == "attractive"
                else:
                    assert kind == "no_move"
        seen.update(kinds)
    assert {"idle", "attractive", "repulsive", "no_move"} <= seen


def test_step_kinds_hand_computed():
    def ev(sigmas):
        return Evaluation(fields=np.zeros(len(sigmas)), sigmas=np.array(sigmas),
                          tau=int(np.prod(sigmas)))

    mine = ev([1, 1, -1, -1])
    assert step_kinds(mine, ev([1, -1, 1, -1])) == (
        "attractive", "repulsive", "repulsive", "no_move"
    )
    assert step_kinds(mine, ev([1, 1, 1, -1])) == ("idle",) * 4


# --- key space and chi-square -------------------------------------------------------


def test_keyspace_examples():
    assert keyspace_size(1, 1, 1) == 3
    assert keyspace_size(3, 4, 0) == 1
    big = keyspace_size(3, 100, 3)
    assert big == 7**300
    assert len(str(big)) == 254
    assert str(big)[0] == "3"


def test_chi_square_uniform_is_zero():
    assert chi_square([100] * 256) == 0.0


def test_chi_square_point_mass_closed_form():
    histogram = [0] * 256
    histogram[17] = 1000
    assert chi_square(histogram) == pytest.approx(255 * 1000)


def test_chi_square_validates():
    with pytest.raises(ValueError):
        chi_square([0] * 256)
    with pytest.raises(ValueError):
        chi_square([1] * 255)


# --- trial runners -------------------------------------------------------------------


def test_single_trial_synchronizes_and_records_rho():
    stats = run_single_trial(
        TpmParams(3, 16, 2), "random_walk", b"single-trial-00!", 10**6, record_rho=True
    )
    assert stats.synced
    assert stats.iterations > 0
    assert len(stats.rho_trajectory) == stats.iterations
    assert stats.rho_trajectory[-1] == pytest.approx(1.0)


def test_sync_trials_reproducible():
    a = run_sync_trials(3, 16, 2, "random_walk", 20, "direct", 10**5, b"repro-seed-0001")
    b = run_sync_trials(3, 16, 2, "random_walk", 20, "direct", 10**5, b"repro-seed-0001")
    assert a == b
    assert a.synced_fraction == 1.0
    assert a.trials == 20


def test_sync_trials_validate():
    with pytest.raises(ValueError):
        run_sync_trials(3, 16, 2, "random_walk", 0)
    with pytest.raises(ValueError):
        run_sync_trials(3, 16, 2, "random_walk", 1, "telepathy")


def test_protocol_mode_reports_bytes():
    result = run_sync_trials(3, 32, 1, "random_walk", 5, "protocol", 8000, b"proto-trials-0!")
    assert result.synced_fraction == 1.0
    assert result.mean_bytes is not None and result.mean_bytes > 0


def test_protocol_trial_accounting_matches_channel():
    # one protocol trial equals a directly driven exchange, byte for byte
    master = b"accounting-seed!"
    result = run_sync_trials(3, 32, 1, "random_walk", 1, "protocol", 8000, master)
    cfg = ProtocolConfig(
        params=TpmParams(3, 32, 1),
        ssc=derive_seed(master, "ssc"),
        rsc=derive_seed(master, "rsc"),
        rule="random_walk",
        timeout_ticks=16,
        max_attempts=12,
    )
    outcome = run_exchange(cfg, master_seed=derive_seed(master, "trial-0"), iteration_cap=8000)
    assert outcome.established
    assert result.mean_bytes == outcome.channel.bytes_sent
    assert result.mean_iter == outcome.rounds


def test_attacker_runner_reports_rates():
    result = run_attack_trials(3, 16, 1, "random_walk", 30, 2000, b"attack-tests-00!")
    assert result.attacker_success_rate is not None
    assert 0.0 <= result.attacker_success_rate <= 1.0
    assert result.mean_attacker_iter is not None
    assert result.mean_attacker_iter >= result.mean_iter


def test_listener_with_identical_start_tracks_forever():
    # degenerate control: an eavesdropper starting from the partner's exact
    # weights follows the same trajectory and never diverges
    params = TpmParams(3, 16, 2)
    rng = seed_from_bytes(b"degenerate-ctrl!")
    net_a, rng = init_network(params, rng)
    net_b, rng = init_network(params, rng)
    net_e = TpmNetwork(params, net_a.weights.copy())
    for _ in range(3000):
        if is_synchronized(net_a, net_b):
            break
        inputs, rng = draw_inputs(rng, 3, 16)
        ev_a = evaluate(net_a, inputs)
        ev_b = evaluate(net_b, inputs)
        if ev_a.tau == ev_b.tau:
            ev_e = evaluate(net_e, inputs)
            listener_view = Evaluation(fields=ev_e.fields, sigmas=ev_e.sigmas, tau=ev_a.tau)
            net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, "random_walk")
            net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, "random_walk")
            net_e = apply_learning(net_e, inputs, listener_view, ev_b.tau, "random_walk")
        assert is_synchronized(net_e, net_a)


def test_csv_columns_and_determinism(tmp_path):
    results = [
        run_sync_trials(3, 16, l, "random_walk", 5, "direct", 10**5, b"csv-test-seed-0!")
        for l in (1, 2)
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_sweep_csv(results, str(path_a))
    write_sweep_csv(results, str(path_b))
    content = path_a.read_bytes()
    assert content == path_b.read_bytes()
    header = content.decode().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert len(content.decode().splitlines()) == 3
