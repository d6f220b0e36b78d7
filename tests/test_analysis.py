"""Closed-form laws, Monte-Carlo runners, attacker model, CSV output."""

import math

import numpy as np
import pytest

from paritykex import analysis
from paritykex.analysis import (
    CSV_COLUMNS,
    _lockstep_trials,
    chi_square,
    expected_q,
    initial_norm,
    keyspace_size,
    run_attack_trials,
    run_single_trial,
    run_sync_trials,
    sigma_agreement_prob,
    stationary_distribution,
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
)
from paritykex.protocol import ProtocolConfig
from paritykex.rng import PER_LANE_MAX, draw_inputs, seed_from_bytes


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
        w = net.weights[0].astype(float)
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
    stats = run_single_trial(TpmParams(3, 16, 2), "random_walk", b"single-trial-00!", 10**6)
    assert stats.synced
    assert stats.iterations > 0


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


@pytest.fixture
def no_trial_work(monkeypatch):
    """Make starting any trial fail, so a runner must check its arguments first."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(analysis, "seed_lanes", no_work)  # both modes' lanes start here


def test_sync_trials_reject_bad_arguments_before_any_work(no_trial_work):
    for mode in ("direct", "protocol"):
        # a cap of 0 runs no learning step, so only the entry check can catch the rule
        with pytest.raises(ValueError, match="rule"):
            run_sync_trials(3, 16, 2, "bogus", 2, mode, 0, b"validate-sync-00")
        with pytest.raises(ValueError, match="trials"):
            run_sync_trials(3, 16, 2, "random_walk", 0, mode, 10, b"validate-sync-00")
        # trials=2.0 raised TypeError after the check and trials=True ran one trial
        for trials in (2.0, True, "2"):
            with pytest.raises(ValueError, match="trials"):
                run_sync_trials(3, 16, 2, "random_walk", trials, mode, 10, b"validate-sync-00")


def test_attack_trials_reject_bad_arguments_before_any_work(no_trial_work):
    with pytest.raises(ValueError, match="rule"):
        run_attack_trials(3, 16, 2, "bogus", 2, 100, b"validate-attack0")
    with pytest.raises(ValueError, match="trials"):
        run_attack_trials(3, 16, 2, "random_walk", 0, 100, b"validate-attack0")
    for trials in (2.0, True, "2"):
        with pytest.raises(ValueError, match="trials"):
            run_attack_trials(3, 16, 2, "random_walk", trials, 100, b"validate-attack0")


def test_runners_reject_a_negative_cap_before_any_work(no_trial_work):
    # a negative cap would run no step and still be reported as the mean time
    for mode in ("direct", "protocol"):
        with pytest.raises(ValueError, match="iteration_cap"):
            run_sync_trials(3, 16, 1, "random_walk", 3, mode, -5, b"validate-sync-00")
    with pytest.raises(ValueError, match="iteration_cap"):
        run_attack_trials(3, 16, 1, "random_walk", 3, -5, b"validate-attack0")


def test_runners_reject_a_cap_that_is_not_an_integer_before_any_work(no_trial_work):
    # an inf or nan cap ran uncapped (an attack at l=6 never returned), and a cap of 2.5
    # was reported as the mean of trials that never synchronized
    for cap in (float("inf"), float("nan"), 2.5, True):
        for mode in ("direct", "protocol"):
            with pytest.raises(ValueError, match="iteration_cap"):
                run_sync_trials(3, 16, 1, "random_walk", 3, mode, cap, b"validate-sync-00")
        with pytest.raises(ValueError, match="iteration_cap"):
            run_attack_trials(3, 32, 6, "random_walk", 1, cap, b"validate-attack0")


def test_numpy_integer_trials_and_cap_run_as_plain_ints():
    plain = run_sync_trials(3, 16, 1, "random_walk", 3, "direct", 40, b"validate-sync-00")
    numpy_ints = run_sync_trials(3, 16, 1, "random_walk", np.int64(3), "direct", np.int64(40),
                                 b"validate-sync-00")
    assert numpy_ints == plain


# --- lockstep engine against the scalar oracle --------------------------------------


def listener_oracle(params, rule, seed, cap):
    """One listener trial, step by step with the scalar network functions.

    Returns the step at which A first matched B and the one at which E first
    matched A (None when not within ``cap``), both checked after every step.
    """
    rng = seed_from_bytes(seed)
    net_a, rng = init_network(params, rng)
    net_b, rng = init_network(params, rng)
    net_e, rng = init_network(params, rng)
    ab_time = e_time = None
    iterations = 0
    while iterations < cap and (ab_time is None or e_time is None):
        inputs, rng = draw_inputs(rng, params.k, params.n)
        ev_a = evaluate(net_a, inputs)
        ev_b = evaluate(net_b, inputs)
        if ev_a.tau == ev_b.tau:
            ev_e = evaluate(net_e, inputs)
            net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, rule)
            net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, rule)
            # the eavesdropper adopts the announced output as its own
            listener_view = Evaluation(sigmas=ev_e.sigmas, tau=ev_a.tau)
            net_e = apply_learning(net_e, inputs, listener_view, ev_b.tau, rule)
        iterations += 1
        if ab_time is None and is_synchronized(net_a, net_b):
            ab_time = iterations
        if e_time is None and is_synchronized(net_e, net_a):
            e_time = iterations
    return ab_time, e_time


# (params, trials, cap): trials of very different lengths, some cut at the cap,
# banks that start equal (l=0, every weight 0), a batch of one trial, and more
# trials than PER_LANE_MAX, whose lanes draw from PackedLanes
ENGINE_CASES = [
    (TpmParams(3, 16, 2), 12, 150),
    (TpmParams(2, 8, 1), 10, 10**4),
    (TpmParams(3, 16, 0), 3, 50),
    (TpmParams(3, 16, 2), 1, 10**4),
    (TpmParams(3, 16, 2), 24, 150),
]


@pytest.mark.parametrize("rule", ["random_walk", "hebbian", "anti_hebbian"])
@pytest.mark.parametrize("params,trials,cap", ENGINE_CASES)
def test_lockstep_sync_trials_match_run_single_trial(rule, params, trials, cap):
    seeds = [derive_seed(b"engine-oracle-00", f"trial-{i}") for i in range(trials)]
    (times,) = _lockstep_trials(params, rule, seeds, cap)
    for seed, time in zip(seeds, times):
        stats = run_single_trial(params, rule, seed, cap)
        assert (cap if time is None else time, time is not None) == (stats.iterations, stats.synced)
    if params.l == 0:
        assert times == [0] * trials


def test_lockstep_sync_cases_cover_the_cap():
    seeds = [derive_seed(b"engine-oracle-00", f"trial-{i}") for i in range(12)]
    (times,) = _lockstep_trials(TpmParams(3, 16, 2), "random_walk", seeds, 150)
    assert None in times and any(t is not None for t in times)


@pytest.mark.parametrize("rule", ["random_walk", "hebbian", "anti_hebbian"])
@pytest.mark.parametrize("params,trials,cap", ENGINE_CASES)
def test_lockstep_listener_matches_the_scalar_loop(rule, params, trials, cap):
    seeds = [derive_seed(b"engine-oracle-00", f"attack-{i}") for i in range(trials)]
    ab_times, e_times = _lockstep_trials(params, rule, seeds, cap, listener=True)
    expected = [listener_oracle(params, rule, seed, cap) for seed in seeds]
    assert list(zip(ab_times, e_times)) == expected
    result = run_attack_trials(params.k, params.n, params.l, rule, trials, cap, b"engine-oracle-00")
    wins = [ab is not None and e is not None and e <= ab for ab, e in expected]
    assert result.attacker_success_rate == sum(wins) / trials
    if params.l == 0:  # every bank is all-zero; matches are looked for after the first step
        assert expected == [(1, 1)] * trials


def test_lockstep_listener_cases_cover_wins_ties_losses_and_the_cap():
    seeds = [derive_seed(b"engine-oracle-00", f"attack-{i}") for i in range(12)]
    outcomes = [listener_oracle(TpmParams(3, 16, 2), "random_walk", seed, 150) for seed in seeds]
    assert (None, None) in outcomes
    assert any(ab is not None and e is None for ab, e in outcomes)
    outcomes = [listener_oracle(TpmParams(2, 8, 1), "hebbian", seed, 10**4) for seed in seeds[:10]]
    assert {(e > ab) - (e < ab) for ab, e in outcomes} == {-1, 0, 1}


def test_protocol_mode_reports_bytes():
    result = run_sync_trials(3, 32, 1, "random_walk", 5, "protocol", 8000, b"proto-trials-0!")
    assert result.synced_fraction == 1.0
    assert result.mean_bytes is not None and result.mean_bytes > 0


def test_protocol_trial_accounting_matches_channel():
    # the lockstep protocol trials against the exchanges run_exchange drives from the same trial
    # seeds over a lossless link: rounds, establishment and bytes on the wire, trial for trial
    master, trials = b"accounting-seed!", PER_LANE_MAX + 4
    for rule in ("hebbian", "anti_hebbian", "random_walk"):
        cfg = ProtocolConfig(TpmParams(3, 16, 1), derive_seed(master, "ssc"), derive_seed(master, "rsc"),
                             rule, timeout_ticks=16, max_attempts=12)
        established = {}
        for cap in (0, 1, 30, 20_000):
            outcomes = [run_exchange(cfg, derive_seed(master, f"trial-{i}"), iteration_cap=cap)
                        for i in range(trials)]
            assert all(o.decode_failures == 0 and o.fail_reason is None for o in outcomes)
            established[cap] = sum(o.established for o in outcomes)
            for count in (5, trials):  # lanes as (s0, s1) pairs, then packed
                expected = analysis._aggregate(
                    3, 16, 1, rule, [o.rounds for o in outcomes[:count]],
                    [o.established for o in outcomes[:count]],
                    [o.channel.bytes_sent for o in outcomes[:count]])
                assert run_sync_trials(3, 16, 1, rule, count, "protocol", cap, master) == expected
        # the caps leave every trial, some trials and no trial unestablished
        assert established[0] == established[1] == 0
        assert 0 < established[30] < trials == established[20_000]


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
            listener_view = Evaluation(sigmas=ev_e.sigmas, tau=ev_a.tau)
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
