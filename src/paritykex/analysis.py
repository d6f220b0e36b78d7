"""Analytic weight-distribution laws, Monte-Carlo runners, attacker model.

The closed forms here describe hebbian-style dynamics of one hidden unit:
the probability that a unit's sign agrees with one input, the stationary
weight law that follows from it by detailed balance, and the
self-consistent second moment.  Note the sqrt(2) inside the erf arguments:
the agreement event is a Gaussian tail of a sum with variance n*q - w^2,
so the error function takes w / sqrt(2 * (n*q - w^2)).  (Writing the same
law without the factor overstates the drift; the Monte-Carlo checks in the
test suite pin the normalization down.)

The trial runners own everything stochastic: each trial derives its own
seed from the master seed, so sweeps are bit-reproducible.  The trials of
one call, in either mode, and the listener trials run in lockstep: the
banks of all T trials are held as one (banks, T, k, n) array with one lane
per trial and a lane-wise generator, every bank of every lane takes its
step in one kernel call, and a trial leaves the batch when it ends.  Each
lane draws exactly what a scalar trial from the same seed draws, so the
counts are those of ``run_single_trial`` and of the scalar
``evaluate``/``apply_learning`` loop, trial for trial; in protocol mode,
those of an exchange over a lossless link.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .exchange import derive_seed
from .frames import CMD_ACK_SYN, CMD_AUTH, CMD_SYN, FRAME_LEN
from .network import (
    LEARNING_RULES,
    LearningRule,
    TpmParams,
    apply_learning,
    evaluate,
    forward,
    init_network,
    init_network_lanes,
    is_synchronized,
    learn,
    plain_int,
)
from .protocol import ProtocolConfig
from .rng import draw_inputs, draw_inputs_lanes, keep_lanes, lanes_from_words, next_words_lanes
from .rng import seed_from_bytes, seed_lanes

TrialMode = Literal["direct", "protocol"]

DEFAULT_ITERATION_CAP = 10**6
Q_TOL, Q_MAX_ITER = 1e-10, 10_000  # convergence bounds of expected_q's fixed-point search

CSV_COLUMNS = (
    "k",
    "n",
    "l",
    "rule",
    "trials",
    "mean_iter",
    "median_iter",
    "stddev_iter",
    "mean_bytes",
    "attacker_success",
)


@dataclass
class SyncTrialStats:
    """Per-trial record of one synchronization run."""

    iterations: int
    synced: bool


@dataclass
class SweepResult:
    """Aggregate over ``trials`` runs at one parameter point."""

    k: int
    n: int
    l: int
    rule: LearningRule
    trials: int
    mean_iter: float
    median_iter: float
    stddev_iter: float
    mean_bytes: Optional[float] = None
    attacker_success_rate: Optional[float] = None
    mean_attacker_iter: Optional[float] = None
    synced_fraction: float = 1.0


# --- closed forms ---------------------------------------------------------


def sigma_agreement_prob(w: int, n: int, q: float) -> float:
    """Probability that a unit's sign times one input is +1, given that
    input's weight ``w`` and the unit's mean squared weight ``q``."""
    spread = n * q - w * w
    if spread <= 0:
        raise ValueError("requires n*q > w^2")
    return 0.5 * (1.0 + math.erf(w / math.sqrt(2.0 * spread)))


def stationary_distribution(l: int, n: int, q: float) -> np.ndarray:
    """Stationary weight law over [-l, +l] under hebbian-style drift.

    Follows from detailed balance with the agreement probability above:
    P(w+1)/P(w) = p(w) / (1 - p(w+1)).  Symmetric in w and normalized.
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    if n * q <= l * l:
        raise ValueError("requires n*q > l^2")
    values = np.empty(2 * l + 1, dtype=float)
    for w in range(-l, l + 1):
        prod = 1.0
        for m in range(1, abs(w) + 1):
            prod *= sigma_agreement_prob(m - 1, n, q) / (1.0 - sigma_agreement_prob(m, n, q))
        values[w + l] = prod
    return values / values.sum()


def initial_norm(l: int) -> float:
    """Root-mean-square length of a fresh uniform weight row: sqrt(l(l+1)/3)."""
    if l < 0:
        raise ValueError("l must be non-negative")
    return math.sqrt(l * (l + 1) / 3.0)


def expected_q(l: int, n: int) -> float:
    """Self-consistent mean squared weight: the fixed point of
    q = sum_w w^2 P(w; q), found by damped iteration from l(l+1)/3."""
    if l < 1 or n < 1:
        raise ValueError("l and n must be at least 1")
    q = l * (l + 1) / 3.0
    for _ in range(Q_MAX_ITER):
        dist = stationary_distribution(l, n, q)
        w = np.arange(-l, l + 1)
        target = float(np.dot(w * w, dist))
        new_q = 0.5 * q + 0.5 * target
        if abs(new_q - q) < Q_TOL:
            return new_q
        q = new_q
    raise RuntimeError("fixed-point iteration for q did not converge")


def keyspace_size(k: int, n: int, l: int) -> int:
    """Exact count of weight configurations: (2l+1) ** (k*n)."""
    if k < 1 or n < 1 or l < 0:
        raise ValueError("k and n must be at least 1, l non-negative")
    return (2 * l + 1) ** (k * n)


def chi_square(histogram: Sequence[int]) -> float:
    """Chi-square statistic of a 256-bin byte histogram against uniform."""
    counts = np.asarray(histogram, dtype=float)
    if counts.shape != (256,):
        raise ValueError("histogram must have exactly 256 bins")
    total = counts.sum()
    if total <= 0:
        raise ValueError("histogram is empty")
    expected = total / 256.0
    return float(((counts - expected) ** 2 / expected).sum())


# --- trial runners ---------------------------------------------------------


def run_single_trial(
    params: TpmParams,
    rule: LearningRule,
    seed: bytes,
    iteration_cap: int = DEFAULT_ITERATION_CAP,
) -> SyncTrialStats:
    """One bare mutual-learning run: the scalar oracle of the lockstep engine."""
    rng = seed_from_bytes(seed)
    net_a, rng = init_network(params, rng)
    net_b, rng = init_network(params, rng)
    iterations = 0
    synced = is_synchronized(net_a, net_b)
    while not synced and iterations < iteration_cap:
        inputs, rng = draw_inputs(rng, params.k, params.n)
        ev_a = evaluate(net_a, inputs)
        ev_b = evaluate(net_b, inputs)
        if ev_a.tau == ev_b.tau:
            net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, rule)
            net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, rule)
        iterations += 1
        synced = is_synchronized(net_a, net_b)
    return SyncTrialStats(iterations=iterations, synced=synced)


def _lockstep_trials(
    params: TpmParams,
    rule: LearningRule,
    seeds: Sequence[bytes],
    iteration_cap: int,
    listener: bool = False,
    protocol: bool = False,
) -> list[list[Optional[int]]]:
    """Run one bare mutual-learning trial per seed, all in lockstep.

    Lane t draws networks A and B (and, with ``listener``, E) and then each
    step's inputs from the generator seeded with ``seeds[t]``, as a scalar
    trial does: ``seed_lanes`` holds the lanes' generators, per lane up to
    ``PER_LANE_MAX`` lanes and packed beyond, ``init_network_lanes`` and
    ``draw_inputs_lanes`` draw for every lane in one call each, and lanes
    leave with ``keep_lanes``.  The banks are one (banks, lanes, k, n)
    stack, and a step is one ``forward`` and one ``learn`` call, the kernel
    of the scalar ``evaluate``/``apply_learning``, on all of it: when A and
    B announce the same output, every bank learns toward A's output, so the
    passive listener E adopts it as its own.

    Returns, per trial, the step count at which A first matched B and, with
    a listener, a second list with the one at which E first matched A; None
    where that did not happen within ``iteration_cap`` steps.  Without a
    listener a trial ends when A matches B, checked before every step, so
    banks that start equal take 0 steps.  With one it ends when both
    matches have happened, checked after every step.

    With ``protocol``, lane t runs the banks of an exchange from ``seeds[t]``:
    A and B are drawn from its "sender" and "receiver" sub-seeds, and each
    step's inputs from the generator seeded with the two words A's generator
    draws next, the round's SYN seed, as the two endpoints draw them.
    """
    p = params
    w = np.empty((3 if listener else 2, len(seeds), p.k, p.n), dtype=np.int32)  # A, B, E
    if protocol:  # A's generator goes on to draw the SYN seeds
        w[1], _ = init_network_lanes(p, seed_lanes([derive_seed(s, "receiver") for s in seeds]))
        w[0], state = init_network_lanes(p, seed_lanes([derive_seed(s, "sender") for s in seeds]))
    else:
        state = seed_lanes(seeds)
        for bank in w:
            bank[...], state = init_network_lanes(p, state)
    times = np.full((len(w) - 1, len(seeds)), -1)  # rows: (A, B) and (E, A)
    waiting = times < 0  # times[:, lanes] < 0, kept in step with the lanes
    lanes = np.arange(len(seeds))  # trial index of each lane still in the batch
    iterations = 0
    while lanes.size:
        if iterations or not listener:
            first = (w[1:] == w[0]).all(axis=(2, 3)) & waiting
            if first.any():
                rows, cols = first.nonzero()
                times[rows, lanes[cols]] = iterations
                waiting &= ~first
                keep = waiting.any(axis=0)
                w, waiting, lanes = w[:, keep], waiting[:, keep], lanes[keep]
                state = keep_lanes(state, keep)
        if iterations >= iteration_cap or not lanes.size:
            break
        if protocol:  # the inputs the round's SYN seed draws
            syn_seeds, state = next_words_lanes(state, 2)
            x, _ = draw_inputs_lanes(lanes_from_words(syn_seeds), p.k, p.n)
        else:
            x, state = draw_inputs_lanes(state, p.k, p.n)
        _, sigmas, tau = forward(w, x)
        w = learn(w, x, sigmas, tau[0], tau[0] == tau[1], rule, p.l)
        iterations += 1
    return [[t if t >= 0 else None for t in row] for row in times.tolist()]


def check_point(k: int, n: int, l: int, rule: LearningRule, trials: int, iteration_cap: int,
                mode: TrialMode = "direct") -> tuple[TpmParams, int, int]:
    """Reject a parameter point with ValueError before any trial runs; return its params,
    ``trials`` and ``iteration_cap``, the last two as plain ints."""
    if rule not in LEARNING_RULES:
        raise ValueError(f"unknown learning rule: {rule!r}")
    # an inf or nan cap would run uncapped, 2.5 be reported as a mean, and trials=True run one trial
    trials, iteration_cap = plain_int(trials, "trials"), plain_int(iteration_cap, "iteration_cap")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if iteration_cap < 0:
        raise ValueError("iteration_cap must be non-negative")
    if mode not in ("direct", "protocol"):
        raise ValueError(f"unknown mode: {mode!r}")
    params = TpmParams(k=k, n=n, l=l)
    if mode == "protocol":  # raises for a shape an exchange cannot run
        ProtocolConfig(params, bytes(16), bytes(16), rule)
    return params, trials, iteration_cap


def _aggregate(
    k: int,
    n: int,
    l: int,
    rule: LearningRule,
    iteration_counts: list[int],
    synced_flags: list[bool],
    bytes_counts: Optional[list[int]] = None,
    attacker_successes: Optional[list[bool]] = None,
    attacker_iters: Optional[list[int]] = None,
) -> SweepResult:
    return SweepResult(
        k=k,
        n=n,
        l=l,
        rule=rule,
        trials=len(iteration_counts),
        mean_iter=statistics.fmean(iteration_counts),
        median_iter=float(statistics.median(iteration_counts)),
        stddev_iter=statistics.pstdev(iteration_counts) if len(iteration_counts) > 1 else 0.0,
        mean_bytes=statistics.fmean(bytes_counts) if bytes_counts else None,
        attacker_success_rate=(
            sum(attacker_successes) / len(attacker_successes)
            if attacker_successes is not None
            else None
        ),
        mean_attacker_iter=(
            statistics.fmean(attacker_iters) if attacker_iters else None
        ),
        synced_fraction=sum(synced_flags) / len(synced_flags),
    )


def run_sync_trials(
    k: int,
    n: int,
    l: int,
    rule: LearningRule,
    trials: int,
    mode: TrialMode = "direct",
    iteration_cap: int = DEFAULT_ITERATION_CAP,
    master_seed: bytes = bytes(16),
) -> SweepResult:
    """Monte-Carlo synchronization times at one parameter point.

    Direct mode runs the bare learning loop.  Protocol mode gives the rounds,
    outcome and bytes on the wire of full exchanges from the same trial seeds
    over a lossless link, but runs their banks on the lockstep engine; the
    bytes come from the frame sizes.
    """
    params, trials, iteration_cap = check_point(k, n, l, rule, trials, iteration_cap, mode)
    seeds = [derive_seed(master_seed, f"trial-{index}") for index in range(trials)]
    (times,) = _lockstep_trials(params, rule, seeds, iteration_cap, protocol=mode == "protocol")
    if mode == "direct":
        # an unsynchronized trial ran every step the cap allowed
        counts = [iteration_cap if t is None else t for t in times]
        return _aggregate(k, n, l, rule, counts, [t is not None for t in times])
    # round t + 1 finds the banks equal after t steps; the run stops once the sender opens round cap + 1
    rounds = [iteration_cap + 1 if t is None else t + 1 for t in times]
    # every round is a SYN and a one-byte reply, and an established exchange adds two AUTHs
    syn_reply, auths = FRAME_LEN[CMD_SYN] + FRAME_LEN[CMD_ACK_SYN], 2 * FRAME_LEN[CMD_AUTH]
    established = [r <= iteration_cap for r in rounds]
    sent = [r * syn_reply + auths * e for r, e in zip(rounds, established)]
    return _aggregate(k, n, l, rule, rounds, established, sent)


def run_attack_trials(
    k: int,
    n: int,
    l: int,
    rule: LearningRule,
    trials: int,
    iteration_cap: int = DEFAULT_ITERATION_CAP,
    master_seed: bytes = bytes(16),
) -> SweepResult:
    """Passive listen-and-learn attacker against the bare exchange.

    A third network E sees every (inputs, tau_a, tau_b) and, whenever the
    partners agree, updates its own units whose sign matches tau_a using
    the same rule.  A trial is an attacker success when E matches A no
    later than A and B match each other; the exchange keeps running (the
    synchronized partners keep agreeing) until E catches up or the cap
    ends the trial.  E is the optional third bank of the lockstep engine
    that also runs the direct-mode trials, so all trials of a call run
    together and each leaves the batch when both matches have happened.
    """
    params, trials, iteration_cap = check_point(k, n, l, rule, trials, iteration_cap)
    seeds = [derive_seed(master_seed, f"attack-{index}") for index in range(trials)]
    ab_times, e_times = _lockstep_trials(params, rule, seeds, iteration_cap, listener=True)
    return _aggregate(
        k,
        n,
        l,
        rule,
        [iteration_cap if t is None else t for t in ab_times],
        [t is not None for t in ab_times],
        attacker_successes=[
            ab is not None and e is not None and e <= ab for ab, e in zip(ab_times, e_times)
        ],
        attacker_iters=[iteration_cap if t is None else t for t in e_times],
    )


def write_sweep_csv(results: Sequence[SweepResult], path: str) -> None:
    """One CSV row per parameter point, fixed column order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            values = [getattr(r, "attacker_success_rate" if c == "attacker_success" else c)
                      for c in CSV_COLUMNS]
            # k, n, l, rule and trials as they are, the measured means with six decimals
            writer.writerow(values[:5] + ["" if v is None else f"{v:.6f}" for v in values[5:]])
