"""The four workloads: inputs built from the seed, timed rounds, correctness checks.

Each workload is a closed loop with one caller.  A round is a fixed set of
operations, so every run attempts whole rounds:

* ``exchange-clean`` / ``exchange-impaired``: one ``run_exchange`` a round;
  an operation is one exchange.
* ``sweep-depth``: one ``run_sync_trials`` call of ``SWEEP_TRIALS`` direct
  trials at each depth in ``SWEEP_DEPTHS``; an operation is one trial.
* ``attack-listener``: one ``run_attack_trials`` call of ``ATTACK_TRIALS``
  trials at each depth in ``ATTACK_DEPTHS``; an operation is one trial.

Checks run on the results outside the timed window.  ``problems`` collects
outputs that are wrong; ``failures`` collects operations that did not
finish (with a reason), which do not make the run incorrect.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import reference

K, N = 3, 32
RULE = "random_walk"

EXCHANGE_DEPTH = 3
IMPAIRED_DEPTH = 1
IMPAIRMENTS = dict(drop_prob=0.1, dup_prob=0.05, corrupt_prob=0.02, reorder_prob=0.05)
EXCHANGE_CAP = 20_000  # run_exchange's default iteration cap
MIN_EXCHANGES = 100  # so that even the printed 90th percentile has ten exchanges beyond it

SWEEP_DEPTHS = (1, 2, 3, 4)
# The callers pass 60 (demos/05) to 200 (acceptance criteria 2 and 3, the CLI
# default) trials a call.  200 at each depth would make one round of ~30 s,
# longer than a run; 16 leaves about ten rounds in a 25 s run for the
# percentiles over rounds and still gives a batched engine 16 trials of each
# depth to run together.
SWEEP_TRIALS = 16
SWEEP_CAP = 10**6  # run_sync_trials' default cap; every trial ends far below it

# Criterion 7 of the acceptance suite, like the CLI's default, runs 500 trials
# at each of l=1 (the listener catches up in most trials) and l=5 (it never
# does, so every trial runs to the cap), and demos/04 runs 300 a depth.  The
# benchmark keeps those depths, that cap and equal counts at each depth.  An
# l=5 trial takes ~1 s, so a call holds 4 trials: a round of ~4 s leaves
# about six rounds in a 25 s run.
ATTACK_DEPTHS = (1, 5)
ATTACK_TRIALS = 4
ATTACK_CAP = 4000


def derive(seed: int, *labels) -> bytes:
    """16 bytes of workload input, a function of the run seed and labels only."""
    text = "/".join(str(x) for x in (seed, *labels))
    return hashlib.sha256(text.encode()).digest()[:16]


# --- checks -------------------------------------------------------------


def exchange_failure(outcome, cap: int = EXCHANGE_CAP) -> Optional[str]:
    """Why an exchange did not establish, or None when it did.

    ``run_exchange`` leaves ``fail_reason`` as None when it stops at its
    iteration cap, so that case is named here.
    """
    if outcome.established:
        return None
    if outcome.fail_reason:
        return outcome.fail_reason
    return "iteration cap" if outcome.rounds > cap else "stopped without a reason"


def exchange_problems(outcome, l: int) -> list[str]:
    """Properties any sound established exchange has."""
    problems = []
    sk, rk = outcome.sender_key, outcome.receiver_key
    if sk is None or rk is None or sk.key != rk.key or sk.iv != rk.iv:
        problems.append("sender and receiver keys differ")
    wa = np.asarray(outcome.sender.net.active_weights).reshape(-1)
    wb = np.asarray(outcome.receiver.net.active_weights).reshape(-1)
    if wa.shape != wb.shape:
        problems.append("final active banks differ in size")
        return problems
    # The protocol verifies two 16-weight groups of the banks: the first one
    # through the SYN probe and the key group through certification.  Those
    # must agree; the rest of the banks may still differ (see unequal_banks).
    iv = sk.iv if sk is not None else 0
    for group in sorted({0, iv}):
        part = slice(16 * group, 16 * group + 16)
        if not np.array_equal(wa[part], wb[part]):
            problems.append(f"final banks differ in verified group {group}")
    for side, w in (("sender", wa), ("receiver", wb)):
        if w.size and int(np.abs(w).max()) > l:
            problems.append(f"{side} weight outside [-{l}, {l}]")
    ch = outcome.channel
    in_flight = ch.frames_sent - ch.dropped + ch.duplicated - ch.frames_delivered
    # CRC-32 catches every single-bit flip, so each corrupted datagram that
    # was delivered fails to decode and no intact one does.  Datagrams still
    # queued when the exchange ends were counted but never delivered; with
    # none queued the two counts must be equal.
    if not ch.corrupted - in_flight <= outcome.decode_failures <= ch.corrupted:
        problems.append(
            f"decode failures {outcome.decode_failures} do not match "
            f"{ch.corrupted} corrupted datagrams ({in_flight} undelivered)"
        )
    return problems


def unequal_banks(outcome) -> bool:
    """True when the final active banks differ anywhere."""
    return not np.array_equal(outcome.sender.net.active_weights, outcome.receiver.net.active_weights)


def duplicate_keys(keys: list[bytes]) -> list[str]:
    count = Counter(keys)
    return [f"key {key.hex()} established {n} times" for key, n in count.items() if n > 1]


def sweep_problems(results_by_depth: dict[int, list]) -> list[str]:
    """Mean synchronization time must rise strictly with the depth."""
    means = []
    for l in sorted(results_by_depth):
        rs = results_by_depth[l]
        total = sum(r.mean_iter * r.trials for r in rs)
        means.append((l, total / sum(r.trials for r in rs)))
    return [
        f"mean iterations do not rise from l={a} ({ma:.1f}) to l={b} ({mb:.1f})"
        for (a, ma), (b, mb) in zip(means, means[1:])
        if not mb > ma
    ]


def listener_problems(results_by_depth: dict[int, list]) -> list[str]:
    """On average the partners must finish before the listener, at every depth."""
    problems = []
    for l, rs in sorted(results_by_depth.items()):
        trials = sum(r.trials for r in rs)
        partners = sum(r.mean_iter * r.trials for r in rs) / trials
        listener = sum(r.mean_attacker_iter * r.trials for r in rs) / trials
        if not partners < listener:
            problems.append(
                f"l={l}: partners {partners:.1f} iterations, listener {listener:.1f}"
            )
    return problems


def result_fields(r) -> tuple:
    """The aggregates of a ``SweepResult`` that the reference engine recomputes."""
    return (r.trials, r.mean_iter, r.median_iter, r.stddev_iter, r.synced_fraction,
            r.attacker_success_rate, r.mean_attacker_iter)


def expected_fields(iters, synced, listener_won=None, listener_iters=None) -> tuple:
    """``result_fields`` of per-trial outcomes, aggregated as ``analysis`` documents."""
    trials = len(iters)
    return (
        trials,
        statistics.fmean(iters),
        float(statistics.median(iters)),
        statistics.pstdev(iters) if trials > 1 else 0.0,
        sum(synced) / trials,
        None if listener_won is None else sum(listener_won) / trials,
        None if listener_iters is None else statistics.fmean(listener_iters),
    )


def sweep_reference_problems(
    result, l: int, master: bytes, trials: int, cap: int, rule: str = RULE
) -> list[str]:
    """Recompute every trial of one ``run_sync_trials`` call; aggregates must match exactly."""
    runs = [
        reference.sync_trial(K, N, l, rule, reference.trial_seed(master, f"trial-{i}"), cap)
        for i in range(trials)
    ]
    expected = expected_fields([it for it, _ in runs], [ok for _, ok in runs])
    got = result_fields(result)
    if got != expected:
        return [f"l={l}: run_sync_trials gave {got}, reference {expected}"]
    return []


def listener_reference(l: int, master: bytes, trials: int, cap: int) -> list[reference.ListenerTrial]:
    """Recompute every trial of one ``run_attack_trials`` call."""
    return [
        reference.listener_trial(K, N, l, RULE, reference.trial_seed(master, f"attack-{i}"), cap)
        for i in range(trials)
    ]


def listener_reference_problems(result, l: int, runs: list[reference.ListenerTrial], cap: int) -> list[str]:
    """The call's aggregates must equal those of the recomputed trials exactly."""
    expected = expected_fields(
        [cap if t.partner_iterations is None else t.partner_iterations for t in runs],
        [t.partner_iterations is not None for t in runs],
        [t.listener_won for t in runs],
        [cap if t.listener_iterations is None else t.listener_iterations for t in runs],
    )
    got = result_fields(result)
    if got != expected:
        return [f"l={l}: run_attack_trials gave {got}, reference {expected}"]
    return []


def listener_loop_iterations(result) -> Optional[int]:
    """Iterations the trials of one call ran, when its aggregates fix them.

    A trial runs until the partners and the listener have both matched, or
    to the cap.  If the listener won no trial and the partners matched in
    each, every trial ran until the listener matched or the cap: its
    listener time.  If the listener won every trial, every trial ran until
    the partners matched.  Otherwise the aggregates do not say which trials
    the listener won, and the answer is None.
    """
    if result.synced_fraction == 1.0 and result.attacker_success_rate == 0.0:
        return round(result.mean_attacker_iter * result.trials)
    if result.attacker_success_rate == 1.0:
        return round(result.mean_iter * result.trials)
    return None


# --- workloads ----------------------------------------------------------


@dataclass
class Tally:
    """What a run measured and found."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    # one (seconds inside the timed calls, loop iterations, operations) per round;
    # the iterations of an exchange are its protocol rounds
    rounds: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def op_seconds(self) -> float:
        return sum(r[0] for r in self.rounds)

    @property
    def iterations(self) -> int:
        return sum(r[1] for r in self.rounds)


class Workload:
    """A closed loop: ``run_round`` times each call of ``calls`` in turn."""

    done_minimum = True

    def __init__(self, px, seed: int):
        self.px = px
        self.seed = seed
        self.tally = Tally()
        self.first_round: list = []

    def run_round(self, after_op=None) -> None:
        """Run one round; ``after_op(seconds)`` runs after each timed call."""
        index = len(self.tally.rounds)
        results = []
        spent = 0.0
        for call, l, master in self.calls(index):
            t0 = time.perf_counter()
            result = call()
            dt = time.perf_counter() - t0
            spent += dt
            if after_op is not None:
                after_op(dt)
            results.append((l, master, result))
        iterations, ops = self.record(results)
        self.tally.rounds.append((spent, iterations, ops))
        if index == 0:
            self.first_round = results


class ExchangeWorkload(Workload):
    def __init__(self, px, seed: int, impaired: bool):
        super().__init__(px, seed)
        self.impaired = impaired
        self.l = IMPAIRED_DEPTH if impaired else EXCHANGE_DEPTH
        self.cfg = px.ProtocolConfig(
            params=px.TpmParams(k=K, n=N, l=self.l),
            ssc=derive(seed, "ssc"),
            rsc=derive(seed, "rsc"),
            rule=RULE,
            timeout_ticks=16,
            max_attempts=12,
        )
        self.clean = px.ChannelConfig()
        self.keys: list[bytes] = []

    @property
    def done_minimum(self) -> bool:
        return self.tally.attempted >= MIN_EXCHANGES

    def channel(self, index: int):
        if not self.impaired:
            return self.clean
        link_seed = int.from_bytes(derive(self.seed, "link", index)[:8], "big")
        return self.px.ChannelConfig(**IMPAIRMENTS, rng_seed=link_seed)

    def calls(self, index: int):
        master = derive(self.seed, "exchange", index)
        channel = self.channel(index)
        run = self.px.run_exchange
        yield (lambda: run(self.cfg, master, channel)), self.l, master

    def record(self, results) -> tuple[int, int]:
        (_, _, outcome), = results
        t = self.tally
        t.attempted += 1
        c = t.counts
        c["learning_steps"] += outcome.iterations
        c["ticks"] += outcome.ticks
        c["wire_bytes"] += outcome.channel.bytes_sent
        for name in ("dropped", "duplicated", "corrupted", "reordered"):
            c[name] += getattr(outcome.channel, name)
        reason = exchange_failure(outcome)
        if reason is not None:
            t.failures[reason] += 1
        else:
            t.problems.extend(exchange_problems(outcome, self.l))
            c["established"] += 1
            c["unequal_banks"] += unequal_banks(outcome)
            self.keys.append(outcome.sender_key.key)
        return outcome.rounds, 1

    def finish(self) -> None:
        self.tally.problems.extend(duplicate_keys(self.keys))


class SweepWorkload(Workload):
    def __init__(self, px, seed: int):
        super().__init__(px, seed)
        self.by_depth: dict[int, list] = {l: [] for l in SWEEP_DEPTHS}

    def calls(self, index: int):
        run = self.px.run_sync_trials
        for l in SWEEP_DEPTHS:
            master = derive(self.seed, "sweep", index, l)
            yield (lambda l=l, m=master: run(K, N, l, RULE, SWEEP_TRIALS, "direct", SWEEP_CAP, m)), l, master

    def record(self, results) -> tuple[int, int]:
        t = self.tally
        trials = iterations = 0
        for l, _, r in results:
            trials += r.trials
            t.attempted += r.trials
            iterations += round(r.mean_iter * r.trials)
            unsynced = r.trials - round(r.synced_fraction * r.trials)
            if unsynced:
                t.failures["not synchronized within the cap"] += unsynced
            self.by_depth[l].append(r)
        return iterations, trials

    def finish(self) -> None:
        t = self.tally
        t.problems.extend(sweep_problems(self.by_depth))
        for l, master, r in self.first_round:
            t.problems.extend(sweep_reference_problems(r, l, master, SWEEP_TRIALS, SWEEP_CAP))


class ListenerWorkload(Workload):
    def __init__(self, px, seed: int):
        super().__init__(px, seed)
        self.by_depth: dict[int, list] = {l: [] for l in ATTACK_DEPTHS}

    def calls(self, index: int):
        run = self.px.run_attack_trials
        for l in ATTACK_DEPTHS:
            master = derive(self.seed, "listen", index, l)
            yield (lambda l=l, m=master: run(K, N, l, RULE, ATTACK_TRIALS, ATTACK_CAP, m)), l, master

    def record(self, results) -> tuple[int, int]:
        """Count the trials; the reference engine recomputes every call of the
        first round, and any later call whose loop iterations the aggregates
        do not fix (at l=1 the listener wins some trials and not others)."""
        t = self.tally
        first_round = not t.rounds
        trials = iterations = 0
        for l, master, r in results:
            trials += r.trials
            t.attempted += r.trials
            unsynced = r.trials - round(r.synced_fraction * r.trials)
            if unsynced:
                t.failures["partners not synchronized within the cap"] += unsynced
            self.by_depth[l].append(r)
            loops = listener_loop_iterations(r)
            if loops is None or first_round:
                runs = listener_reference(l, master, r.trials, ATTACK_CAP)
                t.problems.extend(listener_reference_problems(r, l, runs, ATTACK_CAP))
                loops = sum(run.loop_iterations(ATTACK_CAP) for run in runs)
            iterations += loops
        return iterations, trials

    def finish(self) -> None:
        self.tally.problems.extend(listener_problems(self.by_depth))


WORKLOADS = {
    "exchange-clean": lambda px, seed: ExchangeWorkload(px, seed, impaired=False),
    "exchange-impaired": lambda px, seed: ExchangeWorkload(px, seed, impaired=True),
    "sweep-depth": SweepWorkload,
    "attack-listener": ListenerWorkload,
}
