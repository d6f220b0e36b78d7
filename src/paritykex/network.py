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

from .rng import RngState, next_words, next_words_lanes

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
        p, w = self.params, self.weights
        if w.dtype.kind not in "iu":
            raise ValueError("weights must have an integer dtype")
        if w.shape != (p.k, p.n):
            raise ValueError("weight matrix shape does not match params")
        # min/max, not abs: abs wraps the most negative value of a signed dtype
        if not (w.min() >= -p.l and w.max() <= p.l):
            raise ValueError("weights exceed the synaptic depth bound")
        w.setflags(write=False)

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

    @classmethod
    def of(cls, w: np.ndarray, x: np.ndarray) -> "Evaluation":
        """The forward pass of bank ``w`` on inputs ``x``, which are trusted to be +-1."""
        sums, sigmas, tau = forward(w, x)
        return cls(fields=sums / math.sqrt(w.shape[-1]), sigmas=sigmas.astype(np.int32), tau=int(tau))


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
    words, rng = next_words(rng, p.k * p.n)
    flat = np.array([word % span - p.l for word in words], dtype=np.int32)
    return TpmNetwork(params, flat.reshape(p.k, p.n)), rng


def init_network_lanes(params: TpmParams, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lane-wise ``init_network``: a (T, k, n) weight array from a (2, T) state.

    Lane t holds the weights ``init_network`` draws from lane t's state.
    """
    p = params
    words, state = next_words_lanes(state, p.k * p.n)
    flat = (words % np.uint64(2 * p.l + 1)).astype(np.int32) - p.l
    return flat.reshape(-1, p.k, p.n), state


def _check_inputs(params: TpmParams, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs)
    if inputs.shape != (params.k, params.n):
        raise ValueError(
            f"inputs must have shape ({params.k}, {params.n}), got {inputs.shape}"
        )
    if not np.all(np.abs(inputs) == 1):
        raise ValueError("inputs must be +-1 valued")
    return inputs.astype(np.int64, copy=False)


def forward(w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass of a stack of banks: weights and inputs of shape (..., k, n).

    Returns the integer sums over each unit's inputs, the unit signs (a zero
    sum maps to -1 so the output stays binary) and tau, their product; the
    sums and signs have shape (..., k) and tau has shape (...).
    """
    sums = (w * x).sum(axis=-1)
    sigmas = np.where(sums > 0, 1, -1)
    return sums, sigmas, sigmas.prod(axis=-1)


def learn(
    w: np.ndarray, x: np.ndarray, sigmas: np.ndarray, tau, moves, rule: LearningRule, l: int
) -> np.ndarray:
    """One learning step of a stack of banks toward the common output ``tau``.

    Where ``moves`` holds, the units whose sign equals tau update: hebbian
    adds tau*x, anti_hebbian subtracts tau*x, random_walk adds x; the result
    is clamped back into [-l, +l].  ``tau`` and ``moves`` have the shape of
    the stack, (...), and broadcast over its units.
    """
    tau = np.asarray(tau)[..., None]
    moving = (sigmas == tau) & np.asarray(moves)[..., None]
    if rule == "hebbian":
        moving = moving * tau
    elif rule == "anti_hebbian":
        moving = moving * -tau
    return np.minimum(np.maximum(w + x * moving[..., None], -l), l)


def evaluate(net: TpmNetwork, inputs: np.ndarray) -> Evaluation:
    """Forward pass.

    fields[i] = (1/sqrt(n)) * sum_j w[i,j] * x[i,j]; sigmas and tau are
    those of ``forward``.
    """
    return Evaluation.of(net.weights, _check_inputs(net.params, inputs))


def apply_learning(
    net: TpmNetwork,
    inputs: np.ndarray,
    eval_self: Evaluation,
    tau_other: int,
    rule: LearningRule,
) -> TpmNetwork:
    """One mutual-learning step against a peer's announced output.

    If the announced outputs differ nothing moves; otherwise ``learn``
    updates the units whose sign matches the common output.
    """
    if rule not in LEARNING_RULES:
        raise ValueError(f"unknown learning rule: {rule!r}")
    x = _check_inputs(net.params, inputs)
    if eval_self.tau != tau_other:
        return net
    updated = learn(net.weights, x, eval_self.sigmas, eval_self.tau, True, rule, net.params.l)
    return TpmNetwork(net.params, updated.astype(np.int32))


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
