"""End-to-end acceptance suite.

Each test exercises one headline behavior at a frozen tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them all).  Statistical checks use fixed master seeds so every run is
bit-reproducible; caps and tolerances are pinned in the constants below.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from support import config, drive, replay_is_inert

import paritykex as px
from paritykex.analysis import run_attack_trials, run_sync_trials
from paritykex.channel import ChannelConfig
from paritykex.exchange import derive_seed, run_exchange
from paritykex.frames import decode_frame, encode_frame
from paritykex.rng import next_bytes, seed_from_bytes
from test_frames import random_frame

# Iteration cap for full-protocol runs at k=3, n=32, l<=5.  A 300-trial
# pilot of the bare learning loop topped out at 2469 rounds (l=5); the cap
# is ~3x that so capped runs indicate a real failure, not bad luck.
EXCHANGE_ROUND_CAP = 8000

# Cap for attacker trials.  The partners almost always finish well under it:
# 0 of 20,000 l = 5 listener trials needed more than 4,000 steps (the 10,000
# that the benchmark's attack-listener workload draws at run seeds 1-100,
# rounds 0-24, and 10,000 fresh ones), a rate with a Wilson 95% interval of
# [0, 1.9e-4].  One that does is trial 2 of round 13 at run seed 1102.  Such a
# trial counts as unsynchronized; a listener that has not caught up by then is
# counted at the cap.
ATTACK_CAP = 4000

RESULTS = []


def report(criterion: str, passed: bool, detail: str) -> bool:
    line = f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    RESULTS.append(line)
    print("\n" + line)
    return passed


@pytest.fixture(scope="module")
def depth_sweep():
    """Shared 200-trial synchronization-time sweep over l = 1..6."""
    t0 = time.time()
    results = [
        run_sync_trials(3, 32, l, "random_walk", 200, "direct", 10**6,
                        derive_seed(b"acceptance-suite", f"depth-{l}"))
        for l in range(1, 7)
    ]
    return results, time.time() - t0


def test_criterion_1_key_agreement():
    t0 = time.time()
    established = 0
    agreeing = 0
    equal_banks = 0
    total = 0
    for l in (3, 5):
        cfg = config(l=l, n=32, max_attempts=12)
        for i in range(100):
            total += 1
            outcome = run_exchange(
                cfg,
                master_seed=derive_seed(b"acceptance-suite", f"agree-{l}-{i}"),
                iteration_cap=EXCHANGE_ROUND_CAP,
            )
            if outcome.established:
                established += 1
                agreeing += outcome.sender_key == outcome.receiver_key is not None
                equal_banks += px.is_synchronized(outcome.sender.net, outcome.receiver.net)
    elapsed = time.time() - t0
    ok = agreeing == equal_banks == established and established >= 0.99 * total and elapsed < 60
    report(
        "criterion 1",
        ok,
        f"{established}/{total} established, {agreeing} with identical keys, "
        f"{equal_banks} with bit-equal banks, {elapsed:.0f}s",
    )
    assert agreeing == established, "an established run yielded differing keys"
    assert equal_banks == established, "an established run ended with differing banks"
    assert established >= 0.99 * total
    assert elapsed < 60


def _depth_fit(means):
    """Fit ln m against ln l (power law) and against l (exponential), l = 1, 2, ...

    Returns the power-law exponent and the residual sum of squares of each fit.
    """
    depths = np.arange(1, len(means) + 1, dtype=float)
    log_means = np.log(means)

    def fit(x):
        slope, intercept = np.polyfit(x, log_means, 1)
        return float(slope), float(np.sum((log_means - (slope * x + intercept)) ** 2))

    exponent, rss_power = fit(np.log(depths))
    _, rss_exp = fit(depths)
    return exponent, rss_power, rss_exp


def test_criterion_2_depth_trend(depth_sweep):
    # Ruttor, Kinzel & Kanter, "Dynamics of neural cryptography", PRE 75
    # 056104 (2007): the mean synchronization time of the tree parity machine
    # grows as l^2, so the fitted exponent must lie in a band around 2 and a
    # power law must fit the means better than an exponential does.
    results, elapsed = depth_sweep
    means = [r.mean_iter for r in results]
    ratios = [means[i + 1] / means[i] for i in range(5)]
    increasing = all(means[i + 1] > means[i] for i in range(5))
    exponent, rss_power, rss_exp = _depth_fit(means)
    quadratic = 1.5 <= exponent <= 2.5 and rss_power < rss_exp
    ok = increasing and quadratic and elapsed < 300
    fit = (
        f"ratios={[round(r, 2) for r in ratios]}, fitted exponent {exponent:.2f} "
        f"(l^2 law of Ruttor et al. 2007: 2, band [1.5, 2.5]), residual sum of squares "
        f"power law {rss_power:.3f} vs exponential {rss_exp:.3f}"
    )
    report(
        "criterion 2",
        ok,
        f"means={[round(m, 1) for m in means]} {fit}, {elapsed:.0f}s",
    )
    assert increasing, f"mean iterations not strictly increasing: {means}"
    assert elapsed < 300
    assert quadratic, f"mean iterations do not grow as ~l^2: {fit}"


def test_criterion_3_width_trend(depth_sweep):
    l_results, _ = depth_sweep
    depth_ratio = l_results[4].mean_iter / l_results[2].mean_iter  # l=5 over l=3
    t0 = time.time()
    results = [
        run_sync_trials(3, n, 5, "random_walk", 200, "direct", 10**6,
                        derive_seed(b"acceptance-suite", f"width-{n}"))
        for n in (16, 32, 64, 128)
    ]
    elapsed = time.time() - t0
    means = [r.mean_iter for r in results]
    nondecreasing = all(means[i + 1] >= means[i] for i in range(3))
    width_ratio = means[3] / means[0]
    ok = nondecreasing and width_ratio < depth_ratio
    report(
        "criterion 3",
        ok,
        f"means={[round(m, 1) for m in means]} width ratio {width_ratio:.2f} "
        f"< depth ratio {depth_ratio:.2f}, {elapsed:.0f}s",
    )
    assert nondecreasing, means
    assert width_ratio < depth_ratio


def _hebbian_unit_run(seed: int, l: int, n: int, steps: int):
    """Single-unit boundary-drift simulation: the independent oracle."""
    rng = np.random.default_rng(seed)
    w = rng.integers(-l, l + 1, size=n).astype(np.int64)
    trajectory = []
    probe = []  # (w at position 0, sign * x at position 0)
    for _ in range(steps):
        x = rng.integers(0, 2, size=n) * 2 - 1
        sign = int(np.sign(w @ x)) or -1
        probe.append((int(w[0]), sign * x[0] == 1))
        w = np.clip(w + sign * x, -l, l)
        trajectory.append(w.copy())
    return trajectory, probe


def test_criterion_4_weight_distribution_law():
    t0 = time.time()
    l, n, steps, burn = 1, 16, 100_000, 2000
    trajectory, probe = _hebbian_unit_run(20_240_101, l, n, steps)
    q = px.expected_q(l, n)
    model = px.stationary_distribution(l, n, q)

    # histogram over decorrelated snapshots vs the stationary law
    snapshots = trajectory[burn::100]
    counts = np.zeros(2 * l + 1)
    for row in snapshots:
        counts += np.bincount(row + l, minlength=2 * l + 1)
    chi = float(((counts - model * counts.sum()) ** 2 / (model * counts.sum())).sum())
    p_value = float(stats.chi2.sf(chi, df=2 * l))

    # per-weight agreement frequency at one synapse, batch-mean errors
    batches = 50
    records = probe[burn:]
    per_w_ok = []
    gaps = []
    for wv in range(-l, l + 1):
        hits = [hit for value, hit in records if value == wv]
        freq = sum(hits) / len(hits)
        batch_freqs = []
        size = len(records) // batches
        for b in range(batches):
            chunk = [hit for value, hit in records[b * size : (b + 1) * size] if value == wv]
            if chunk:
                batch_freqs.append(sum(chunk) / len(chunk))
        se = float(np.std(batch_freqs, ddof=1)) / math.sqrt(len(batch_freqs))
        gap = abs(freq - px.sigma_agreement_prob(wv, n, q))
        gaps.append(round(float(gap), 4))
        per_w_ok.append(gap < 3 * se)
    elapsed = time.time() - t0
    ok = p_value > 0.01 and all(per_w_ok) and elapsed < 60
    report(
        "criterion 4",
        ok,
        f"histogram p={p_value:.3f}, agreement gaps {gaps} all within 3 sigma, {elapsed:.0f}s",
    )
    assert p_value > 0.01
    assert all(per_w_ok)
    assert elapsed < 60


def test_criterion_5_second_moment_consistency():
    exact_norm = px.initial_norm(3)
    # uniform limit: the fixed point approaches l(l+1)/3 like 1/sqrt(n)
    deviations = [abs(px.expected_q(3, n) - 4.0) for n in (10**8, 10**11, 10**14)]
    limit_ok = deviations[-1] < 1e-6 and deviations[0] > deviations[1] > deviations[2]

    trajectory, _ = _hebbian_unit_run(20_240_202, 3, 32, 100_000)
    sim_q = float(np.mean([row @ row for row in trajectory[5000:]])) / 32
    model_q = px.expected_q(3, 32)
    rel_gap = abs(model_q - sim_q) / sim_q
    ok = exact_norm == 2.0 and limit_ok and rel_gap < 0.05
    report(
        "criterion 5",
        ok,
        f"initial_norm(3)={exact_norm}, uniform-limit deviation {deviations[-1]:.1e}, "
        f"fixed point {model_q:.3f} vs simulated {sim_q:.3f} ({rel_gap:.1%})",
    )
    assert exact_norm == 2.0
    assert limit_ok
    assert rel_gap < 0.05


def test_criterion_6_keyspace_size():
    size = px.keyspace_size(3, 100, 3)
    digits = len(str(size))
    ok = size == 7**300 and digits == 254 and str(size)[0] == "3"
    report("criterion 6", ok, f"(2l+1)^(k*n) = 7^300, {digits} digits, leading {str(size)[0]}")
    assert size == 7**300
    assert digits == 254
    assert str(size)[0] == "3"


def test_criterion_7_listener_resistance():
    t0 = time.time()
    outcomes = {}
    for l in (1, 5):
        outcomes[l] = run_attack_trials(
            3, 32, l, "random_walk", 500, ATTACK_CAP,
            derive_seed(b"acceptance-suite", f"listen-{l}"),
        )
    elapsed = time.time() - t0
    rate_1 = outcomes[1].attacker_success_rate
    rate_5 = outcomes[5].attacker_success_rate
    slower = all(
        outcomes[l].mean_iter < outcomes[l].mean_attacker_iter for l in (1, 5)
    )
    ok = rate_5 < rate_1 and slower and elapsed < 600
    report(
        "criterion 7",
        ok,
        f"success {rate_1:.3f} (l=1) -> {rate_5:.3f} (l=5); partners always faster "
        f"than the listener; {elapsed:.0f}s",
    )
    assert rate_5 < rate_1
    assert slower
    assert elapsed < 600


def test_criterion_8_robust_establishment_under_impairments():
    # A lost frame costs only its re-send: the sender re-sends the same frame
    # and the receiver answers a repeat from its cached reply, so both sides
    # learn exactly the same steps.  Shallow and narrow first, many runs.
    t0 = time.time()
    cfg = config(l=1, n=16, max_attempts=10, timeout_ticks=8)
    established = 0
    runs = 200
    for i in range(runs):
        channel = ChannelConfig(
            drop_prob=0.1, dup_prob=0.05, corrupt_prob=0.02, rng_seed=5000 + i
        )
        outcome = run_exchange(
            cfg,
            master_seed=derive_seed(b"acceptance-suite", f"impair-{i}"),
            channel_config=channel,
            iteration_cap=20_000,
        )
        established += outcome.established
        # CRC must reject exactly the corrupted deliveries
        assert outcome.decode_failures == outcome.channel.corrupted
        if outcome.established:
            assert outcome.sender_key == outcome.receiver_key
            assert outcome.sender.iterations == outcome.receiver.iterations

    # the default depth on the benchmark's impaired link: every run establishes,
    # with the lossless run's steps and key, and the median rounds stay within
    # 1/(1-p)^2 of lossless, p being the one-way loss
    deep = config(l=3, n=32, max_attempts=12, timeout_ticks=16)
    deep_runs = 40
    impaired_rounds, clean_rounds = [], []
    for i in range(deep_runs):
        channel = ChannelConfig(drop_prob=0.1, dup_prob=0.05, corrupt_prob=0.02,
                                reorder_prob=0.05, rng_seed=6000 + i)
        master = derive_seed(b"acceptance-suite", f"impair-l3-{i}")
        outcome = run_exchange(deep, master, channel, EXCHANGE_ROUND_CAP)
        clean = run_exchange(deep, master, iteration_cap=EXCHANGE_ROUND_CAP)
        assert outcome.established, i
        assert outcome.sender.iterations == outcome.receiver.iterations == clean.iterations, i
        assert outcome.sender_key == outcome.receiver_key == clean.sender_key, i
        impaired_rounds.append(outcome.rounds)
        clean_rounds.append(clean.rounds)
    bound = 1 / ((1 - 0.1) * (1 - 0.02)) ** 2
    ratio = float(np.median(impaired_rounds) / np.median(clean_rounds))

    # replay immunity: re-delivering any accepted frame changes nothing, and
    # the receiver only sends its replies again
    replays = {"checked": 0}

    def replay(endpoint, frame):
        replays["checked"] += replay_is_inert(endpoint, frame)

    outcome, _ = drive(config(l=2, n=16), b"replay-acceptance", on_delivery=replay)
    assert outcome.sender.phase == "established"
    elapsed = time.time() - t0
    ok = established >= 0.95 * runs and ratio <= bound
    report(
        "criterion 8",
        ok,
        f"{established}/{runs} established under drop 0.1 / dup 0.05 / corrupt 0.02; "
        f"{deep_runs}/{deep_runs} at l=3 on the benchmark link with the lossless steps, "
        f"median rounds x{ratio:.3f} of lossless (bound {bound:.3f}); "
        f"all corrupted frames CRC-rejected; {replays['checked']} replays inert; {elapsed:.0f}s",
    )
    assert established >= 0.95 * runs
    assert ratio <= bound


def test_criterion_9_mutual_certification():
    t0 = time.time()
    cfg = config(l=2, n=32, max_attempts=6)

    def flipped(value: bytes) -> bytes:
        return bytes(b ^ 0xFF for b in value)

    arms = {
        "sender ssc": (replace(cfg, ssc=flipped(cfg.ssc)), cfg, "receiver"),
        "receiver ssc": (cfg, replace(cfg, ssc=flipped(cfg.ssc)), "receiver"),
        "sender rsc": (replace(cfg, rsc=flipped(cfg.rsc)), cfg, "sender"),
        "receiver rsc": (cfg, replace(cfg, rsc=flipped(cfg.rsc)), "sender"),
    }
    failures = {}
    for arm, (sender_cfg, receiver_cfg, verifier) in arms.items():
        failed = 0
        for i in range(50):
            outcome = run_exchange(
                sender_cfg,
                master_seed=derive_seed(b"acceptance-suite", f"cert-{arm}-{i}"),
                iteration_cap=EXCHANGE_ROUND_CAP,
                receiver_cfg=receiver_cfg,
            )
            side = outcome.sender if verifier == "sender" else outcome.receiver
            failed += (not outcome.established) and side.phase == "failed"
        failures[arm] = failed

    matched = 0
    for i in range(50):
        outcome = run_exchange(
            cfg,
            master_seed=derive_seed(b"acceptance-suite", f"cert-good-{i}"),
            iteration_cap=EXCHANGE_ROUND_CAP,
        )
        matched += outcome.established
    elapsed = time.time() - t0
    ok = all(v == 50 for v in failures.values()) and matched == 50
    report(
        "criterion 9",
        ok,
        f"mutated codes fail on the verifying side {sorted(failures.values())}/50 per arm; "
        f"matched codes {matched}/50 established; {elapsed:.0f}s",
    )
    assert all(v == 50 for v in failures.values()), failures
    assert matched == 50


def test_criterion_10_codec_exactness_and_stream_quality():
    t0 = time.time()
    for w in range(-127, 128):
        assert px.decode_weight(px.encode_weight(w)) == w

    rng = random.Random(0xACCE97)
    for _ in range(10_000):
        frame = random_frame(rng)
        assert decode_frame(encode_frame(frame)) == frame

    table = {
        px.Syn(0, bytes(16), 1, bytes(16)): 0b0000,
        px.FinSyn(0, 0): 0b0001,
        px.AckSyn(0, 1): 0b0010,
        px.NakSyn(0, 1): 0b0011,
        px.Auth(0, bytes(16)): 0b0100,
    }
    codes_ok = all(frame.command == code for frame, code in table.items())

    data, _ = next_bytes(seed_from_bytes(b"CHI-SQUARE-SEED!"), 10**6)
    histogram = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    statistic = px.chi_square(histogram)
    low, high = stats.chi2.ppf(0.01, 255), stats.chi2.ppf(0.99, 255)
    elapsed = time.time() - t0
    ok = codes_ok and low < statistic < high
    report(
        "criterion 10",
        ok,
        f"codec round-trips exact; command codes fixed; generator bytes chi2 "
        f"{statistic:.1f} in [{low:.1f}, {high:.1f}]; {elapsed:.0f}s",
    )
    assert codes_ok
    assert low < statistic < high
