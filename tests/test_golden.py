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


# One digest per exchange over everything a fixed seed must reproduce.  The
# depths cover banks of 2 (l=1), 3 (l=2, 3) and 4 (l=5, 7) bits per weight;
# the k=2, n=13 banks have units that are not whole bytes and a 16-weight
# probe that spans both units; the "impaired" cases run over the benchmark's
# impaired link.  Anti-hebbian partners at l >= 5 practically never
# synchronize, so those two run over a link that loses 40% of the frames
# until the sender gives up.  Every case ends settled.
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
    "random_walk-k3n32l1": "3d51cf5ac3c51977a1df439fd74912fee88653ed574e113f63e13ee6bceafde4",
    "random_walk-k3n32l2": "03e59a5e24ffa50df7f3b48bee8d7a8bdd12840e6a8c798bb5a0b1f47aea1fde",
    "random_walk-k3n32l3": "c9c25fce7c13ead142d051a59b209df7d471772bd7bc432278e65fbfde98140b",
    "random_walk-k3n32l5": "31e1993bcf78e1f0a9c3ae06f5417e28cafdd40cd37f79034099a57d53755015",
    "random_walk-k3n32l7": "24c699cc6802dda0a30d4ab0ad38f358247538c69d81cb26b218a9b69b823198",
    "random_walk-k2n13l1": "9724c7bae40786433a1e71e3ba90ea8fdbf33e47a023cfb2f5db4166551c30b8",
    "random_walk-k2n13l3": "568e201da2a43ef9316d36c5225220e640bfa24ba19556c49d94e0e631fb7ad4",
    "hebbian-k3n32l1": "33963fb695752f6fd66cb1febc9fc596df739c4ec28f46492c5aa072cd80cfd4",
    "hebbian-k3n32l2": "eb06085d4628ab6ee025857df2dd56c66678d04a1114dc8f6537f612dd64b1a5",
    "hebbian-k3n32l3": "811077b1a3b45abb38b81f73d69944a481193a550bad85332c4d1bee8ff753aa",
    "hebbian-k3n32l5": "de8dce38c9a0f5a6f3198c71ec879f377813a6f390767b515109568f2bd15f33",
    "hebbian-k3n32l7": "2696c7ccaee04e4cb83a3975fafbccf2ed9a7bfcdc0cf3ea07758319e33028c8",
    "hebbian-k2n13l1": "efb2a6ddac1abe81d1fe12952248f430ab5e8375d169d1d3ff1a18b5e357ec66",
    "hebbian-k2n13l3": "9d3051a7c7d7edcfc74e54c187f2018bc42ad3cff9abf89d08e9ead6f99debdb",
    "anti_hebbian-k3n32l1": "484f1919bcb42603e7d8a542b4bcb747f8b45175e569fe77f8c95d43f1e3f8c7",
    "anti_hebbian-k3n32l2": "910227b339b316ffa74747454f8469a367101f56dbc5cc9c99a87b5d247eeeab",
    "anti_hebbian-k3n32l3": "8d6b7a0fbe75bd799984a4c90bba99ff6d81b560dc57abe66a1cd0d9a87bb367",
    "anti_hebbian-k3n32l5": "e4c682840a1ed9d4a18fa9b75e42784386881013235b5e01c4f134e1189887a3",
    "anti_hebbian-k3n32l7": "516fd03c20e74fad1505bb20643859e33b674afce3c624d248432f60df4073bc",
    "anti_hebbian-k2n13l1": "b04c3124edb49bc29603ebb7363b57380ab09cbe814ef465215a659e5aaf6a5e",
    "anti_hebbian-k2n13l3": "80b3b94d1acf86d707ad55a2cf0cd5d8f68ae0fcfd1e307d81b3728c14694b09",
    "impaired-random_walk-l1-1": "de1c5c0d5d0a08b717bd2722ad47b99f727ca424b72267b9e98fa82c508aab45",
    "impaired-random_walk-l1-2": "010fd279e387ac885e4f649e4a85ade7eb99b8d0fdabd7236ccaa7637fd2edff",
    "impaired-hebbian-l1-3": "6def341b2a8e6eeeb56ae27fcf19263711843cae45c3c3b75bcd186346c24159",
    "impaired-random_walk-l3-4": "75293c417f753d96c275dfe2620cd0ca474b5f85ab41dc9665cdb4bc64f0c603",
    "impaired-anti_hebbian-l1-5": "a8a4ddd3b69b8ea59a1a261bd61fd6f513b7768a4b63bdf712fe8aa51c13fa83",
}


def test_exchange_batch_golden():
    digests = {}
    for name, k, n, l, rule, link in batch_cases():
        cfg = replace(config(l), params=TpmParams(k=k, n=n, l=l), rule=rule)
        outcome = run_exchange(cfg, f"golden-batch-{name}".encode(), ChannelConfig(**link or {}), BATCH_CAP)
        assert outcome.sender.phase in ("established", "failed"), name
        digests[name] = exchange_digest(outcome)
    assert digests == BATCH_DIGESTS
