"""The benchmark's own tests: every correctness check rejects a wrong output.

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import paritykex as px  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def exchange():
    work = wl.ExchangeWorkload(px, seed=7, impaired=True)
    outcome = px.run_exchange(work.cfg, wl.derive(7, "exchange", 0), work.channel(0))
    assert wl.exchange_failure(outcome) is None
    assert wl.exchange_problems(outcome, work.l) == []
    return outcome, work.l


def with_banks(outcome, sender_w, receiver_w):
    side = lambda w: SimpleNamespace(net=SimpleNamespace(active_weights=w))  # noqa: E731
    return replace(outcome, sender=side(sender_w), receiver=side(receiver_w))


def test_mismatched_keys_are_rejected(exchange):
    outcome, l = exchange
    key = outcome.receiver_key
    other = px.SessionKey(key=bytes(b ^ 1 for b in key.key), iv=key.iv)
    assert "sender and receiver keys differ" in wl.exchange_problems(replace(outcome, receiver_key=other), l)
    assert wl.exchange_problems(replace(outcome, receiver_key=None), l)


def test_banks_differing_in_a_verified_group_are_rejected(exchange):
    outcome, l = exchange
    w = np.array(outcome.sender.net.active_weights)
    for group in {0, outcome.sender_key.iv}:
        bad = w.copy().reshape(-1)
        bad[16 * group] = -bad[16 * group] if bad[16 * group] else 1
        problems = wl.exchange_problems(with_banks(outcome, w, bad.reshape(w.shape)), l)
        assert f"final banks differ in verified group {group}" in problems


def test_unequal_banks_are_counted(exchange):
    outcome, _ = exchange
    w = np.array(outcome.sender.net.active_weights)
    bad = w.copy()
    bad[-1, -1] = -bad[-1, -1] if bad[-1, -1] else 1
    assert not wl.unequal_banks(with_banks(outcome, w, w))
    assert wl.unequal_banks(with_banks(outcome, w, bad))


def test_weight_outside_depth_is_rejected(exchange):
    outcome, l = exchange
    w = np.array(outcome.sender.net.active_weights)
    w[2, 5] = l + 1
    assert any("outside" in p for p in wl.exchange_problems(with_banks(outcome, w, w.copy()), l))


def test_decode_failures_must_match_corrupted_datagrams(exchange):
    outcome, l = exchange
    for delta in (-1, 1):
        wrong = replace(outcome, decode_failures=outcome.decode_failures + delta)
        if outcome.decode_failures + delta >= 0:
            assert any("decode failures" in p for p in wl.exchange_problems(wrong, l))


def test_shared_keys_are_rejected():
    assert wl.duplicate_keys([b"a" * 16, b"b" * 16]) == []
    assert wl.duplicate_keys([b"a" * 16, b"b" * 16, b"a" * 16])


def test_capped_exchange_is_a_failure_with_a_reason():
    cfg = wl.ExchangeWorkload(px, seed=3, impaired=False).cfg
    outcome = px.run_exchange(cfg, wl.derive(3, "capped"), iteration_cap=5)
    assert not outcome.established and outcome.fail_reason is None
    assert wl.exchange_failure(outcome, cap=5) == "iteration cap"


def sweep_point(mean, trials=4):
    return SimpleNamespace(mean_iter=mean, trials=trials)


def test_sweep_means_must_rise_strictly():
    rising = {1: [sweep_point(40)], 2: [sweep_point(120)], 3: [sweep_point(300), sweep_point(280)]}
    assert wl.sweep_problems(rising) == []
    flat = {1: [sweep_point(40)], 2: [sweep_point(120)], 3: [sweep_point(120)]}
    assert wl.sweep_problems(flat)


def listener_point(partner, listener, trials=4):
    return SimpleNamespace(mean_iter=partner, mean_attacker_iter=listener, trials=trials)


def test_listener_faster_than_partners_is_rejected():
    assert wl.listener_problems({1: [listener_point(30, 80), listener_point(40, 60)]}) == []
    assert wl.listener_problems({1: [listener_point(30, 80), listener_point(90, 20)]})


@pytest.mark.parametrize("rule", ["random_walk", "hebbian", "anti_hebbian"])
def test_reference_matches_sync_trials_and_rejects_an_off_by_one(rule):
    master = wl.derive(11, "reference", rule)
    result = px.run_sync_trials(wl.K, wl.N, 2, rule, 3, "direct", 20_000, master)
    assert wl.sweep_reference_problems(result, 2, master, 3, 20_000, rule) == []
    off = replace(result, mean_iter=result.mean_iter + 1 / 3)
    assert wl.sweep_reference_problems(off, 2, master, 3, 20_000, rule)


def test_reference_matches_the_listener_and_rejects_an_off_by_one():
    for l, trials, cap in ((1, 6, 4000), (3, 2, 300)):
        master = wl.derive(5, "listener", l)
        result = px.run_attack_trials(wl.K, wl.N, l, wl.RULE, trials, cap, master)
        runs = wl.listener_reference(l, master, trials, cap)
        assert wl.listener_reference_problems(result, l, runs, cap) == []
        off = replace(result, mean_iter=result.mean_iter + 1 / trials)
        assert wl.listener_reference_problems(off, l, runs, cap)
        won = replace(result, attacker_success_rate=1.0 - result.attacker_success_rate)
        assert wl.listener_reference_problems(won, l, runs, cap)


def test_listener_loop_iterations_come_from_the_aggregates_only_when_they_fix_them():
    cases = 0
    for i in range(6):
        master = wl.derive(9, "loops", i)
        for l, trials, cap in ((1, 2, 4000), (4, 1, 300)):
            result = px.run_attack_trials(wl.K, wl.N, l, wl.RULE, trials, cap, master)
            loops = sum(t.loop_iterations(cap) for t in wl.listener_reference(l, master, trials, cap))
            fixed = wl.listener_loop_iterations(result)
            if fixed is not None:
                assert fixed == loops
                cases += 1
            else:
                assert 0 < result.attacker_success_rate < 1 or result.synced_fraction < 1
    assert cases


def test_reference_generator_weights_and_signs():
    seed = bytes(range(1, 17))
    gen, state = reference.Xorshift128Plus(seed), px.seed_from_bytes(seed)
    for _ in range(5):
        word, state = px.next_word(state)
        assert gen.word() == word
    gen, state = reference.Xorshift128Plus(seed), px.seed_from_bytes(seed)
    net, state = px.init_network(px.TpmParams(k=3, n=32, l=4), state)
    assert np.array_equal(gen.weights(3, 32, 4), net.active_weights)
    x, state = px.draw_inputs(state, 3, 32)
    assert np.array_equal(gen.inputs(3, 32), x)
    zero_field = np.array([[1, -1], [1, 1]])
    assert list(reference.signs(zero_field, np.ones((2, 2), dtype=int))) == [-1, 1]


def test_run_prints_one_result_line():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sweep-depth",
         "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(wl.SWEEP_DEPTHS) * wl.SWEEP_TRIALS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match():
    assert run.WORKLOAD_NAMES == tuple(wl.WORKLOADS)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-depth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
