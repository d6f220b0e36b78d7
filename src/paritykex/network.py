"""Bounded-integer parity machine: evaluation, mutual-learning rules, metrics.

The network is one bank of k hidden units with n inputs each.  Weights are
integers clamped to [-l, +l].

Every operation here is a pure function: networks are immutable values and
updates return fresh instances, so trials can run concurrently without
sharing anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .rng import RngState, next_word

LearningRule = Literal["hebbian", "anti_hebbian", "random_walk"]
LEARNING_RULES: tuple[LearningRule, ...] = ("hebbian", "anti_hebbian", "random_walk")

# Weight magnitudes must fit the 7-bit field of the byte codec.
MAX_DEPTH = 127


@dataclass(frozen=True)
class TpmParams:
    """Public architecture parameters.

    k: hidden units; n: inputs per hidden unit; l: synaptic depth
    (weights live in [-l, +l]).
    """

    k: int
    n: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be at least 1")
        if self.l < 0:
            raise ValueError("synaptic depth l must be non-negative")
        if self.l > MAX_DEPTH:
            raise ValueError(f"synaptic depth l must be <= {MAX_DEPTH}")


@dataclass(frozen=True, eq=False)
class TpmNetwork:
    """Immutable weight state: integer matrix of shape (k, n)."""

    params: TpmParams
    weights: np.ndarray

    def __post_init__(self) -> None:
        p = self.params
        if self.weights.shape != (p.k, p.n):
            raise ValueError("weight matrix shape does not match params")
        if np.any(np.abs(self.weights) > p.l):
            raise ValueError("weights exceed the synaptic depth bound")
        self.weights.setflags(write=False)

    @property
    def active_weights(self) -> np.ndarray:
        """The (k, n) weight bank; the same array as ``weights``."""
        return self.weights


@dataclass(frozen=True, eq=False)
class Evaluation:
    """Forward pass result: local fields, unit signs, parity output."""

    fields: np.ndarray
    sigmas: np.ndarray
    tau: int


@dataclass(frozen=True)
class OrderParams:
    """Second-moment overlap statistics of one hidden unit pair.

    ``rho`` is None when either weight row is all-zero, where the
    normalized overlap is undefined.
    """

    q_a: float
    q_b: float
    r: float
    rho: Optional[float]


def init_network(params: TpmParams, rng: RngState) -> tuple[TpmNetwork, RngState]:
    """Draw every weight uniformly from the 2l+1 integers in [-l, +l].

    One generator word is consumed per weight (row-major order), so
    identical (params, rng) always yield identical networks.
    """
    p = params
    span = 2 * p.l + 1
    flat = np.empty(p.k * p.n, dtype=np.int32)
    for i in range(flat.size):
        word, rng = next_word(rng)
        flat[i] = word % span - p.l
    return TpmNetwork(params, flat.reshape(p.k, p.n)), rng


def _check_inputs(params: TpmParams, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs)
    if inputs.shape != (params.k, params.n):
        raise ValueError(
            f"inputs must have shape ({params.k}, {params.n}), got {inputs.shape}"
        )
    if not np.all(np.abs(inputs) == 1):
        raise ValueError("inputs must be +-1 valued")
    return inputs.astype(np.int64, copy=False)


def evaluate(net: TpmNetwork, inputs: np.ndarray) -> Evaluation:
    """Forward pass.

    fields[i] = (1/sqrt(n)) * sum_j w[i,j] * x[i,j]; sigmas are the signs
    with the zero field mapped to -1 so the output stays binary; tau is
    the product of the signs.
    """
    x = _check_inputs(net.params, inputs)
    sums = (net.weights.astype(np.int64) * x).sum(axis=1)
    fields = sums / math.sqrt(net.params.n)
    sigmas = np.where(sums > 0, 1, -1).astype(np.int32)
    tau = int(np.prod(sigmas))
    return Evaluation(fields=fields, sigmas=sigmas, tau=tau)


def apply_learning(
    net: TpmNetwork,
    inputs: np.ndarray,
    eval_self: Evaluation,
    tau_other: int,
    rule: LearningRule,
) -> TpmNetwork:
    """One mutual-learning step against a peer's announced output.

    If the announced outputs differ nothing moves.  Otherwise only units
    whose sign matches the common output update: hebbian adds tau*x,
    anti_hebbian subtracts tau*x, random_walk adds x; the result is clamped
    back into [-l, +l].
    """
    if rule not in LEARNING_RULES:
        raise ValueError(f"unknown learning rule: {rule!r}")
    x = _check_inputs(net.params, inputs)
    tau_self = eval_self.tau

    if tau_self != tau_other:
        return net

    mask = (eval_self.sigmas == tau_self).astype(np.int32)
    if rule == "hebbian":
        delta = tau_self * x
    elif rule == "anti_hebbian":
        delta = -tau_self * x
    else:
        delta = x
    updated = np.clip(
        net.weights + delta * mask[:, None], -net.params.l, net.params.l
    ).astype(np.int32)
    return TpmNetwork(net.params, updated)


def order_params(net_a: TpmNetwork, net_b: TpmNetwork, unit: int) -> OrderParams:
    """Self- and cross-moments of one unit's weight rows.

    q_a = (1/n) sum w_a^2, q_b likewise, r = (1/n) sum w_a*w_b, and
    rho = r / sqrt(q_a*q_b) when both norms are nonzero.
    """
    if net_a.params != net_b.params:
        raise ValueError("networks must share identical params")
    if not 0 <= unit < net_a.params.k:
        raise ValueError("unit index out of range")
    n = net_a.params.n
    wa = net_a.weights[unit].astype(np.int64)
    wb = net_b.weights[unit].astype(np.int64)
    q_a = float(np.dot(wa, wa)) / n
    q_b = float(np.dot(wb, wb)) / n
    r = float(np.dot(wa, wb)) / n
    if q_a > 0 and q_b > 0:
        rho: Optional[float] = r / math.sqrt(q_a * q_b)
    else:
        rho = None
    return OrderParams(q_a=q_a, q_b=q_b, r=r, rho=rho)


def is_synchronized(net_a: TpmNetwork, net_b: TpmNetwork) -> bool:
    """True iff the weight banks are element-wise equal."""
    if net_a.params != net_b.params:
        raise ValueError("networks must share identical params")
    return bool(np.array_equal(net_a.weights, net_b.weights))
