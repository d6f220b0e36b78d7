"""Golden values: fixed seeds must keep giving these exact keys, counts and bytes.

The determinism tests compare two runs of the same build, so a change that
alters both runs alike passes them.  These values were recorded once and
pin the generator order, weight init, learning, probe, key slicing, frame
sizes, the tick loop and the trial aggregates across refactors.
"""

import hashlib
from dataclasses import replace

import pytest

from paritykex import (
    ChannelConfig,
    ProtocolConfig,
    TpmParams,
    derive_seed,
    expected_q,
    run_attack_trials,
    run_exchange,
    run_single_trial,
    run_sync_trials,
    serialize_weights,
    state_digest,
    write_sweep_csv,
)

MASTER = b"golden-master-00"
IMPAIRED = ChannelConfig(
    drop_prob=0.1, dup_prob=0.05, corrupt_prob=0.02, reorder_prob=0.05, rng_seed=20261018
)


def config(l):
    return ProtocolConfig(
        params=TpmParams(k=3, n=32, l=l),
        ssc=derive_seed(MASTER, "ssc"),
        rsc=derive_seed(MASTER, "rsc"),
        rule="random_walk",
        timeout_ticks=16,
        max_attempts=12,
    )


def summary(outcome):
    assert outcome.established
    assert outcome.sender_key == outcome.receiver_key
    return (
        outcome.sender_key.key.hex(),
        outcome.sender_key.iv,
        outcome.rounds,
        outcome.iterations,
        outcome.ticks,
        outcome.channel.bytes_sent,
        outcome.decode_failures,
    )


def test_clean_exchange_golden():
    outcome = run_exchange(config(3), b"golden-clean-l3!")
    assert summary(outcome) == ("82000100820383028282018300020003", 5, 165, 109, 166, 8630, 0)
    assert state_digest(outcome.sender) == (
        "f463e5ae74ae41b111f3d9bcf7cdc4b31b4253386f705b799f7dacd895f9dc3c"
    )
    assert state_digest(outcome.receiver) == (
        "99eeca7f459a1362591ec0a91f49a09eaf2608cc66bde7af0786320f9e5d6bbf"
    )
    banks = serialize_weights(outcome.sender.net) + serialize_weights(outcome.receiver.net)
    assert hashlib.sha256(banks).hexdigest() == (
        "0a9fb446215d23565747fcaf2d80955845e9bff5cc36a94a39aa4dda6fa42b5c"
    )


def test_impaired_exchange_golden():
    outcome = run_exchange(config(1), b"golden-impaired!", IMPAIRED)
    assert summary(outcome) == ("01810100000101810001010001018101", 0, 118, 60, 563, 6051, 4)
    ch = outcome.channel
    assert (ch.frames_sent, ch.frames_delivered, ch.dropped, ch.duplicated, ch.corrupted,
            ch.reordered) == (223, 212, 23, 12, 4, 13)
    assert state_digest(outcome.sender) == (
        "a025d355847e8284b3ded595a7271911f463df7b5ae070ac6b9dbe2ec5f0f3da"
    )
    assert state_digest(outcome.receiver) == (
        "f052e4ecdea05890491efefb57530a8ea0a177f1b986a467a8c155f3b21c988a"
    )


# The learning kernel returns int64 banks for these two rules; the digests
# pin the int32 banks the endpoints keep.
OTHER_RULES = {
    "hebbian": (
        b"golden-hebbian-3",
        ("83028282810102028183018381830303", 2, 364, 226, 366, 19013, 0),
        "c0c16b4fd8d5c0a2907bb4f631be317bf16896ece540fe8d05cee99c776c173a",
        "02e555a86649b143c4f2584500b5ce17aa911e4c0beba2e1f1a1f5496ab15f0e",
    ),
    "anti_hebbian": (
        b"golden-anti-heb3",
        ("83010281020003010100818200018101", 5, 447, 316, 451, 23399, 0),
        "822ae29e04889f43d41f38fc9938ea52f245033a495df14ad8bc720d0391caf1",
        "6d9bed4d6ec43a9b5d02ec4274ccbf6ee194ce0c3f07832f4e9a5d8af46e4c8d",
    ),
}


@pytest.mark.parametrize("rule", sorted(OTHER_RULES))
def test_clean_exchange_golden_other_rules(rule):
    master, expected, sender_digest, receiver_digest = OTHER_RULES[rule]
    outcome = run_exchange(replace(config(3), rule=rule), master)
    assert summary(outcome) == expected
    assert state_digest(outcome.sender) == sender_digest
    assert state_digest(outcome.receiver) == receiver_digest


def test_trial_aggregates_and_csv_golden(tmp_path):
    direct = run_sync_trials(3, 16, 2, "random_walk", 4, "direct", 10**6, b"golden-sweep-000")
    protocol = run_sync_trials(3, 16, 1, "random_walk", 3, "protocol", 20_000, b"golden-proto-000")
    attack = run_attack_trials(3, 16, 1, "random_walk", 4, 2000, b"golden-attack-00")

    def fields(r):
        return (r.trials, r.mean_iter, r.median_iter, r.stddev_iter, r.mean_bytes,
                r.attacker_success_rate, r.mean_attacker_iter, r.synced_fraction)

    assert fields(direct) == (4, 162.25, 155.5, 45.76775611716179, None, None, None, 1.0)
    assert fields(protocol) == (3, 28.0, 29.0, 8.602325267042627, 1506.0, None, None, 1.0)
    assert fields(attack) == (4, 31.25, 34.0, 7.562241731127087, None, 0.5, 41.5, 1.0)

    path = tmp_path / "golden.csv"
    write_sweep_csv([direct, protocol, attack], str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "b8f2e6c6feebfd34d8d7f32f920a23c93369c947dc83196de4d52388a9e06180"
    )


# run_single_trial is the scalar oracle the lockstep engine is checked against.
SINGLE_TRIALS = {
    "random_walk": (b"golden-single-rw", 86),
    "hebbian": (b"golden-single-hb", 88),
    "anti_hebbian": (b"golden-single-ah", 141),
}


@pytest.mark.parametrize("rule", sorted(SINGLE_TRIALS))
def test_single_trial_golden(rule):
    seed, iterations = SINGLE_TRIALS[rule]
    stats = run_single_trial(TpmParams(3, 16, 2), rule, seed)
    assert (stats.iterations, stats.synced) == (iterations, True)
    capped = run_single_trial(TpmParams(3, 16, 2), rule, seed, 50)
    assert (capped.iterations, capped.synced) == (50, False)


def test_expected_q_golden():
    assert expected_q(3, 32) == 4.84264969828763
