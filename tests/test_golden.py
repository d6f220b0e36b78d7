"""Golden values: fixed seeds must keep giving these exact keys, counts and bytes.

The determinism tests compare two runs of the same build, so a change that
alters both runs alike passes them.  These values were recorded once and
pin the generator order, weight init, learning, probe, key derivation, frame
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
    assert summary(outcome) == ("1a22bd04a762b9dc422f26bb4731c968", 5, 198, 141, 199, 10346, 0)
    assert state_digest(outcome.sender) == (
        "d91291be4d9823771ebce699729cb210b94e92c0146168b478f1e04b1605f76d"
    )
    assert state_digest(outcome.receiver) == (
        "67a1f09be8b5027c4b80b78e5222295ea92c4e744beec960a4875816ae02d5b8"
    )
    banks = serialize_weights(outcome.sender.net) + serialize_weights(outcome.receiver.net)
    assert hashlib.sha256(banks).hexdigest() == (
        "52ea1565da0b6c9143baac2bbb6563eb091ac9dee10e84fdd9e72d5edbb3527b"
    )


def test_impaired_exchange_golden():
    outcome = run_exchange(config(1), b"golden-impaired!", IMPAIRED)
    assert summary(outcome) == ("442628e899ed62198cc1f8713717d3bd", 1, 69, 30, 360, 3518, 4)
    ch = outcome.channel
    assert (ch.frames_sent, ch.frames_delivered, ch.dropped, ch.duplicated, ch.corrupted,
            ch.reordered) == (128, 119, 15, 6, 4, 7)
    assert state_digest(outcome.sender) == (
        "08151f3bf22ed3ac335f523d210798a7c6ff7419fe5db8b56c72f2ae3b5ebe1c"
    )
    assert state_digest(outcome.receiver) == (
        "0cc95a4571c335ea01e741daff8b40bde5b4960d39186da63a6d020536defae4"
    )


# The learning kernel returns int64 banks for these two rules; the digests
# pin the int32 banks the endpoints keep.
OTHER_RULES = {
    "hebbian": (
        b"golden-hebbian-3",
        ("af018f3ab0442edb06d490b57b566337", 5, 358, 216, 359, 18666, 0),
        "dec23873b3e2048acd19291d4a46507147a481d77d7e4c19098f586d82e27dcf",
        "6ae6b153640151c52b185f8f19539831dc83f69fea9d21097462082e5329dbb6",
    ),
    "anti_hebbian": (
        b"golden-anti-heb3",
        ("84c8d132c90c72ad38b430bf62b2e984", 4, 326, 218, 327, 17002, 0),
        "ca283aff0bcdba30ba2f0ae222f05833169340f85f5d37caec16aa7bdb678fd0",
        "f58ac40ddb8ad4734ad0488af1b38961f635923b966ad8bef27893bcb536e012",
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
    assert fields(protocol) == (3, 29.0, 29.0, 7.3484692283495345, 1558.0, None, None, 1.0)
    assert fields(attack) == (4, 31.25, 34.0, 7.562241731127087, None, 0.5, 41.5, 1.0)

    path = tmp_path / "golden.csv"
    write_sweep_csv([direct, protocol, attack], str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "898118de6f3d0ebd643a44dc512f225d6dc94627835ccebd1865f670589d566b"
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


# One digest per exchange over everything a fixed seed must reproduce.  The
# depths cover banks of 2 (l=1), 3 (l=2, 3) and 4 (l=5, 7) bits per weight;
# the k=2, n=13 banks have units whose planes are not whole bytes; the
# "impaired" cases run over the benchmark's impaired link.  Anti-hebbian
# partners at l >= 5 practically never synchronize, so those two run over a
# link that loses 40% of the frames until the sender gives up.  Every case
# ends settled.
BENCH_LINK = dict(drop_prob=0.1, dup_prob=0.05, corrupt_prob=0.02, reorder_prob=0.05)
FAILING_LINK = dict(drop_prob=0.4)
BATCH_CAP = 3000


def batch_cases():
    for rule in ("random_walk", "hebbian", "anti_hebbian"):
        for l in (1, 2, 3, 5, 7):
            failing = rule == "anti_hebbian" and l >= 5
            yield f"{rule}-k3n32l{l}", 3, 32, l, rule, FAILING_LINK if failing else None
        for l in (1, 3):
            yield f"{rule}-k2n13l{l}", 2, 13, l, rule, None
    for l, rule, link_seed in ((1, "random_walk", 1), (1, "random_walk", 2), (1, "hebbian", 3),
                               (3, "random_walk", 4), (1, "anti_hebbian", 5)):
        yield f"impaired-{rule}-l{l}-{link_seed}", 3, 32, l, rule, dict(BENCH_LINK, rng_seed=link_seed)


def exchange_digest(outcome):
    h = hashlib.sha256()
    for key in (outcome.sender_key, outcome.receiver_key):
        h.update(b"-" if key is None else key.key + bytes([key.iv]))
    for number in (outcome.rounds, outcome.iterations, outcome.ticks, outcome.decode_failures):
        h.update(number.to_bytes(8, "big"))
    for state in (outcome.sender, outcome.receiver):
        h.update(state_digest(state).encode())
        h.update(serialize_weights(state.net))
    return h.hexdigest()


BATCH_DIGESTS = {
    "random_walk-k3n32l1": "41a1823a4a2066aa70038585d6bcc27ff2bdfe8b260ca904bf20cb75c43e6f5d",
    "random_walk-k3n32l2": "beaa7c56c98ecd893c770a0e3025bce5bfe09a8d55a24a3ad435515d05df0926",
    "random_walk-k3n32l3": "751d1605246bd753ab34d9f1c3aaa61e4d20f448763b1e3b1fe59457f3c5be95",
    "random_walk-k3n32l5": "c02f86dbd6d3641a93053318d042f9a99c0fbdfd1983afa2d9a5ef1b61e69156",
    "random_walk-k3n32l7": "e4306c31eddbb07006e800f739a3c060cb6e510f51820646a479fa08b12e6326",
    "random_walk-k2n13l1": "decfd3e24441c9afdd06040529b3ffafcffc2a6463cc1d25e962829c11c8bc2b",
    "random_walk-k2n13l3": "9488b1fc286a7aafe48975b8ae9b578e713f9c502a8f2ae9d9a53b2096572d19",
    "hebbian-k3n32l1": "4c9b89a2da2d3c37e82ba916f74ac2bc47692b1697221b5538429b6a9ad0eb70",
    "hebbian-k3n32l2": "26404dcc37d58a8ad90ce448d383b5c80dcefe5fe74965eeebb2380d134e7dfb",
    "hebbian-k3n32l3": "12d1db6b251f9be0f9bf7b88993b32d52cf729eab3cb4e4a104141c0ef604079",
    "hebbian-k3n32l5": "1ba5e760f54e1211d62ea8f7a4b4e2dce712d9a2d8922b6a0f5cdae0f0b4aac4",
    "hebbian-k3n32l7": "693382d588da938cfb020b3eac697eba440ef8681bdc40f5eae45eb1c0fda6c8",
    "hebbian-k2n13l1": "f50a5f504c8f1343495162de5fd24938e1bff4064cd583e2d9a7dcf18a321320",
    "hebbian-k2n13l3": "b0396b08e29c45acc277dc0d3b267b1d4153515a88d485db34eaa138c926d398",
    "anti_hebbian-k3n32l1": "7ea99c95fa363817eabc30de9354526187ce30c964aaa3fd7ea0a4ee8e043399",
    "anti_hebbian-k3n32l2": "0b9c79c9f77e4a54fca441fb6992f1c299a10e91291b22b08f1a2af37dcf6bbc",
    "anti_hebbian-k3n32l3": "0c564480143190c574f6ca1bbcda9af202813f9708bc2ed0efe64d859738e18c",
    "anti_hebbian-k3n32l5": "fc393fcfe1817fda15eb315e1a4aee74f7528518c0ed75a5e0ec8c2ce49225bc",
    "anti_hebbian-k3n32l7": "a410f3283f8e8eef2a605f147dc874949243e9bc2469d59add5a86f2945d0370",
    "anti_hebbian-k2n13l1": "b6014f8739fc50c23c1766f59ee449fb504afc7ba444cdee024699c79d56bdb4",
    "anti_hebbian-k2n13l3": "08e212aa3f60efac047ca04a449f97e44569c21cf4a165cfdf1931c0ef3bf8b3",
    "impaired-random_walk-l1-1": "339b50fcb27ac162edbb90a7571a36fd2c9a408a33a99dbe11e89c89423c13fa",
    "impaired-random_walk-l1-2": "769155e64b450fea37bedc215e05d5d007b80fb8da5dbcad54e2edfd06812d07",
    "impaired-hebbian-l1-3": "ef02c340420a2bce890b85b53d873a776eb7e7f1b6b0d440ffe4c2e9f34b7e4f",
    "impaired-random_walk-l3-4": "7d3d3ea9c4a6aa0f3c126d998cc5a2d93d081889bf6f422d9dcff039b20d621f",
    "impaired-anti_hebbian-l1-5": "e158db8dd5bd3ca0d6cd4a727d9a187ba56a1e70f06335c462426388f1ab6d34",
}


def test_exchange_batch_golden():
    digests = {}
    for name, k, n, l, rule, link in batch_cases():
        cfg = replace(config(l), params=TpmParams(k=k, n=n, l=l), rule=rule)
        outcome = run_exchange(cfg, f"golden-batch-{name}".encode(), ChannelConfig(**link or {}), BATCH_CAP)
        assert outcome.sender.phase in ("established", "failed"), name
        digests[name] = exchange_digest(outcome)
    assert digests == BATCH_DIGESTS
