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
seed from the master seed, so sweeps are bit-reproducible and trivially
parallelizable.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

import numpy as np

from .exchange import derive_seed, run_exchange
from .network import (
    Evaluation,
    LearningRule,
    TpmNetwork,
    TpmParams,
    apply_learning,
    evaluate,
    init_network,
    is_synchronized,
    order_params,
)
from .protocol import ProtocolConfig
from .rng import draw_inputs, seed_from_bytes

TrialMode = Literal["direct", "protocol"]

# Per-unit classification of a paired update step.
StepKind = Literal["attractive", "repulsive", "no_move", "idle"]

DEFAULT_ITERATION_CAP = 10**6

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
    bytes_exchanged: int
    synced: bool
    rho_trajectory: list[float] = field(default_factory=list)


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

    def up(m: int) -> float:
        return math.erf(m / math.sqrt(2.0 * (n * q - m * m)))

    values = np.empty(2 * l + 1, dtype=float)
    for w in range(-l, l + 1):
        prod = 1.0
        for m in range(1, abs(w) + 1):
            prod *= (1.0 + up(m - 1)) / (1.0 - up(m))
        values[w + l] = prod
    return values / values.sum()


def initial_norm(l: int) -> float:
    """Root-mean-square length of a fresh uniform weight row: sqrt(l(l+1)/3)."""
    if l < 0:
        raise ValueError("l must be non-negative")
    return math.sqrt(l * (l + 1) / 3.0)


def expected_q(l: int, n: int, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Self-consistent mean squared weight: the fixed point of
    q = sum_w w^2 P(w; q), found by damped iteration from l(l+1)/3."""
    if l < 1 or n < 1:
        raise ValueError("l and n must be at least 1")
    q = l * (l + 1) / 3.0
    for _ in range(max_iter):
        dist = stationary_distribution(l, n, q)
        w = np.arange(-l, l + 1)
        target = float(np.dot(w * w, dist))
        new_q = 0.5 * q + 0.5 * target
        if abs(new_q - q) < tol:
            return new_q
        q = new_q
    raise RuntimeError("fixed-point iteration for q did not converge")


def joint_distribution(
    net_a: TpmNetwork, net_b: TpmNetwork, unit: int
) -> np.ndarray:
    """Empirical (2l+1)x(2l+1) law of weight pairs at one unit.

    Entry [a+l, b+l] is the fraction of positions where A holds a and B
    holds b; its moments reproduce order_params exactly.
    """
    if net_a.params != net_b.params:
        raise ValueError("networks must share identical params")
    if not 0 <= unit < net_a.params.k:
        raise ValueError("unit index out of range")
    l = net_a.params.l
    n = net_a.params.n
    wa = net_a.weights[unit]
    wb = net_b.weights[unit]
    matrix = np.zeros((2 * l + 1, 2 * l + 1), dtype=float)
    for a, b in zip(wa, wb):
        matrix[a + l, b + l] += 1.0
    return matrix / n


def step_kinds(eval_self: Evaluation, eval_other: Evaluation) -> tuple[StepKind, ...]:
    """Classify each hidden unit of one paired learning step, seen from self.

    Every unit is "idle" when the outputs differ.  Otherwise a unit whose
    sign differs from the peer's is "repulsive" (only one side moves), one
    whose sign equals the common output on both sides is "attractive", and
    one whose sign differs from it on both sides is "no_move".
    """
    tau = eval_self.tau
    if tau != eval_other.tau:
        return ("idle",) * len(eval_self.sigmas)
    kinds: list[StepKind] = []
    for mine, theirs in zip(eval_self.sigmas, eval_other.sigmas):
        if mine != theirs:
            kinds.append("repulsive")
        elif mine == tau:
            kinds.append("attractive")
        else:
            kinds.append("no_move")
    return tuple(kinds)


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


def _mean_rho(net_a: TpmNetwork, net_b: TpmNetwork) -> float:
    rhos = []
    for unit in range(net_a.params.k):
        rho = order_params(net_a, net_b, unit).rho
        if rho is not None:
            rhos.append(rho)
    return sum(rhos) / len(rhos) if rhos else 0.0


def run_single_trial(
    params: TpmParams,
    rule: LearningRule,
    seed: bytes,
    iteration_cap: int = DEFAULT_ITERATION_CAP,
    record_rho: bool = False,
) -> SyncTrialStats:
    """One bare mutual-learning run: two local networks, shared inputs."""
    rng = seed_from_bytes(seed)
    net_a, rng = init_network(params, rng)
    net_b, rng = init_network(params, rng)
    trajectory: list[float] = []
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
        if record_rho:
            trajectory.append(_mean_rho(net_a, net_b))
        synced = is_synchronized(net_a, net_b)
    return SyncTrialStats(
        iterations=iterations,
        bytes_exchanged=0,
        synced=synced,
        rho_trajectory=trajectory,
    )


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


def _protocol_config(params: TpmParams, rule: LearningRule, master_seed: bytes) -> ProtocolConfig:
    return ProtocolConfig(
        params=params,
        ssc=derive_seed(master_seed, "ssc"),
        rsc=derive_seed(master_seed, "rsc"),
        rule=rule,
        timeout_ticks=16,
        max_attempts=12,
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

    Direct mode runs the bare learning loop; protocol mode drives two full
    endpoints over a lossless simulated link and also reports the bytes on
    the wire.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    params = TpmParams(k=k, n=n, l=l)
    iteration_counts: list[int] = []
    synced_flags: list[bool] = []
    bytes_counts: list[int] = []
    if mode == "direct":
        for index in range(trials):
            stats = run_single_trial(
                params, rule, derive_seed(master_seed, f"trial-{index}"), iteration_cap
            )
            iteration_counts.append(stats.iterations)
            synced_flags.append(stats.synced)
        return _aggregate(k, n, l, rule, iteration_counts, synced_flags)
    if mode != "protocol":
        raise ValueError(f"unknown mode: {mode!r}")
    cfg = _protocol_config(params, rule, master_seed)
    for index in range(trials):
        outcome = run_exchange(
            cfg,
            master_seed=derive_seed(master_seed, f"trial-{index}"),
            iteration_cap=iteration_cap,
        )
        iteration_counts.append(outcome.rounds)
        synced_flags.append(outcome.established)
        bytes_counts.append(outcome.channel.bytes_sent)
    return _aggregate(k, n, l, rule, iteration_counts, synced_flags, bytes_counts)


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
    ends the trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    params = TpmParams(k=k, n=n, l=l)
    ab_iters: list[int] = []
    e_iters: list[int] = []
    successes: list[bool] = []
    synced_flags: list[bool] = []
    for index in range(trials):
        rng = seed_from_bytes(derive_seed(master_seed, f"attack-{index}"))
        net_a, rng = init_network(params, rng)
        net_b, rng = init_network(params, rng)
        net_e, rng = init_network(params, rng)
        ab_time: Optional[int] = None
        e_time: Optional[int] = None
        iterations = 0
        while iterations < iteration_cap and (ab_time is None or e_time is None):
            inputs, rng = draw_inputs(rng, k, n)
            ev_a = evaluate(net_a, inputs)
            ev_b = evaluate(net_b, inputs)
            if ev_a.tau == ev_b.tau:
                ev_e = evaluate(net_e, inputs)
                net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, rule)
                net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, rule)
                # the eavesdropper adopts the announced output as its own
                listener_view = Evaluation(
                    fields=ev_e.fields, sigmas=ev_e.sigmas, tau=ev_a.tau
                )
                net_e = apply_learning(net_e, inputs, listener_view, ev_b.tau, rule)
            iterations += 1
            if ab_time is None and is_synchronized(net_a, net_b):
                ab_time = iterations
            if e_time is None and is_synchronized(net_e, net_a):
                e_time = iterations
        ab_iters.append(ab_time if ab_time is not None else iteration_cap)
        e_iters.append(e_time if e_time is not None else iteration_cap)
        synced_flags.append(ab_time is not None)
        successes.append(
            e_time is not None and ab_time is not None and e_time <= ab_time
        )
    return _aggregate(
        k,
        n,
        l,
        rule,
        ab_iters,
        synced_flags,
        attacker_successes=successes,
        attacker_iters=e_iters,
    )


def write_sweep_csv(results: Sequence[SweepResult], path: str) -> None:
    """One CSV row per parameter point, fixed column order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            writer.writerow(
                [
                    r.k,
                    r.n,
                    r.l,
                    r.rule,
                    r.trials,
                    f"{r.mean_iter:.6f}",
                    f"{r.median_iter:.6f}",
                    f"{r.stddev_iter:.6f}",
                    "" if r.mean_bytes is None else f"{r.mean_bytes:.6f}",
                    ""
                    if r.attacker_success_rate is None
                    else f"{r.attacker_success_rate:.6f}",
                ]
            )
