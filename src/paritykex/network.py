"""Bounded-integer parity machine: evaluation, mutual-learning rules, metrics.

The network is one bank of k hidden units with n inputs each.  Weights are
integers clamped to [-l, +l].

Every operation here is a pure function: networks are immutable values and
updates return fresh instances, so trials can run concurrently without
sharing anything.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Literal, Optional

import numpy as np

from .rng import LaneStates, RngState, next_words, next_words_lanes

LearningRule = Literal["hebbian", "anti_hebbian", "random_walk"]
LEARNING_RULES: tuple[LearningRule, ...] = ("hebbian", "anti_hebbian", "random_walk")

# Weight magnitudes must fit the 7-bit field of the byte codec.
MAX_DEPTH = 127


def plain_int(value, name: str) -> int:
    """``value`` as a Python int; a numpy integer passes, a bool, float or other type is a ValueError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


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
        # plain ints: a float, a bool or a numpy integer crashed mid-run, not here
        for name in ("k", "n", "l"):
            object.__setattr__(self, name, plain_int(getattr(self, name), name))
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be at least 1")
        if self.l < 0:
            raise ValueError("synaptic depth l must be non-negative")
        if self.l > MAX_DEPTH:
            raise ValueError(f"synaptic depth l must be <= {MAX_DEPTH}")


class TpmNetwork:
    """Weight bank of shape (k, n), held as bit ``planes`` (per unit, ``(2l).bit_length()`` n-bit
    ints, bit j of plane b being bit b of w[j] + l) and ``unit_data`` (per unit, ``forward_planes``'
    constant and the ``sync_probe`` bytes, each plane as ``ceil(n/8)`` little-endian bytes), which
    both constructors set; ``weights`` is decoded from the plane bytes on first read.  Every
    single-bank operation runs on the planes, which ``init_network`` draws and ``learn_planes``
    hands from each bank to the next.  The bound
    [-l, +l] is enforced once, where outside weights enter (``__init__``); a drawn bank is in it
    by construction, and ``learn_planes`` keeps a bank inside it."""

    def __init__(self, params: TpmParams, weights: np.ndarray):
        p, w = params, weights
        if w.dtype.kind not in "iu":
            raise ValueError("weights must have an integer dtype")
        if w.shape != (p.k, p.n):
            raise ValueError("weight matrix shape does not match params")
        # min/max, not abs: abs wraps the most negative value of a signed dtype
        if not (w.min() >= -p.l and w.max() <= p.l):
            raise ValueError("weights exceed the synaptic depth bound")
        # w + l lies in [0, 2l] and 2l < 256, so even a narrow dtype's wrapped sum casts to the offset
        self.params = params
        self.planes, self.unit_data = _plane_form(p, (w + p.l).astype(np.uint8))

    @classmethod
    def _of_planes(cls, params: TpmParams, planes, unit_data) -> "TpmNetwork":
        """``planes`` and their ``unit_data``, taken on trust: every caller passes a bank in the bound."""
        net = object.__new__(cls)
        net.params, net.planes, net.unit_data = params, planes, unit_data
        return net

    @cached_property
    def weights(self) -> np.ndarray:
        """The read-only int32 (k, n) bank, decoded from the plane bytes in ``unit_data``."""
        p = self.params
        depth = (2 * p.l).bit_length()
        raw = np.frombuffer(b"".join([probe for _, probe in self.unit_data]), np.uint8)
        bits = np.unpackbits(raw.reshape(p.k, depth, -(-p.n // 8)), axis=2, count=p.n, bitorder="little")
        w = (1 << np.arange(depth, dtype=np.int32)) @ bits - p.l
        w.setflags(write=False)
        return w

    @property
    def active_weights(self) -> np.ndarray:
        """The (k, n) weight bank; the same array as ``weights``."""
        return self.weights


@dataclass(frozen=True, eq=False)
class Evaluation:
    """Forward pass result: unit signs and parity output."""

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


_SHIFTS = np.arange(8, dtype=np.uint8)[:, None]  # one row per plane of the deepest bank, 2 * MAX_DEPTH < 2^8


def _plane_form(params: TpmParams, offsets: np.ndarray) -> tuple[tuple, tuple]:
    """``planes`` and ``unit_data`` of the bank whose offsets w + l are the (k, n) uint8 ``offsets``:
    every unit's planes packed in one ``np.packbits`` pass over a (k, depth, n) bit array."""
    l, n = params.l, params.n
    depth, width = (2 * l).bit_length(), -(-n // 8)
    raw = np.packbits(offsets[:, None, :] >> _SHIFTS[:depth] & 1, axis=2, bitorder="little").tobytes()
    size, planes, data = depth * width, [], []
    for i in range(params.k):
        probe = raw[i * size:(i + 1) * size]
        unit = tuple([int.from_bytes(probe[b:b + width], "little") for b in range(0, size, width)])
        planes.append(unit)
        # forward_planes' constant l*n - sum_b 2^b |P_b|, which is -sum(w)
        data.append((l * n - sum([plane.bit_count() << b for b, plane in enumerate(unit)]), probe))
    return tuple(planes), tuple(data)


def init_network(params: TpmParams, rng: RngState) -> tuple[TpmNetwork, RngState]:
    """Draw every weight uniformly from the 2l+1 integers in [-l, +l].

    One generator word is consumed per weight (row-major order), so
    identical (params, rng) always yield identical networks.
    """
    p = params
    words, rng = next_words(rng, p.k * p.n)
    # each offset w + l lies in [0, 2l], so the bank is in its bound as drawn and takes its planes unchecked
    offsets = (np.array(words, np.uint64) % np.uint64(2 * p.l + 1)).astype(np.uint8).reshape(p.k, p.n)
    return TpmNetwork._of_planes(p, *_plane_form(p, offsets)), rng


def init_network_lanes(params: TpmParams, state: LaneStates) -> tuple[np.ndarray, LaneStates]:
    """Lane-wise ``init_network``: a (lanes, k, n) weight array; lane t holds the weights
    ``init_network`` draws from lane t's state."""
    p = params
    words, state = next_words_lanes(state, p.k * p.n)
    flat = (words % np.uint64(2 * p.l + 1)).astype(np.int32) - p.l
    return flat.reshape(-1, p.k, p.n), state


def _input_masks(params: TpmParams, inputs: np.ndarray) -> list[int]:
    """The n-bit masks of a (k, n) +-1 ``inputs`` matrix: bit j of mask i set where entry (i, j) is +1."""
    inputs = np.asarray(inputs)
    if inputs.shape != (params.k, params.n):
        raise ValueError(
            f"inputs must have shape ({params.k}, {params.n}), got {inputs.shape}"
        )
    if not np.all(np.abs(inputs) == 1):
        raise ValueError("inputs must be +-1 valued")
    width = -(-params.n // 8)
    raw = np.packbits(inputs > 0, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def forward(w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass of a stack of banks: weights (..., k, n) and inputs that broadcast to them.

    Returns the integer sums over each unit's inputs, the unit signs (a zero
    sum maps to -1 so the output stays binary) and tau, their product; the
    sums and signs have shape (..., k) and tau has shape (...).
    """
    sums = np.einsum("...kn,...kn->...k", w, x)
    sigmas = np.where(sums > 0, 1, -1)
    return sums, sigmas, sigmas.prod(axis=-1)


def learn(
    w: np.ndarray, x: np.ndarray, sigmas: np.ndarray, tau, moves, rule: LearningRule, l: int
) -> np.ndarray:
    """One learning step of a stack of banks toward the common output ``tau``.

    Where ``moves`` holds, the units whose sign equals tau update: hebbian
    adds tau*x, anti_hebbian subtracts tau*x, random_walk adds x; the result
    is clamped back into [-l, +l].  ``tau`` and ``moves`` have the shape of
    the stack, (...), or of its trailing axes, and broadcast over the leading
    bank axes and over the units: one (T,) tau steers a (banks, T, k, n) stack.
    """
    tau = np.asarray(tau)[..., None]
    moving = ((sigmas == tau) & np.asarray(moves)[..., None]).astype(w.dtype)
    # in place, so the int64 tau does not widen the mask, nor the bank, past the weights' dtype
    if rule == "hebbian":
        moving *= tau
    elif rule == "anti_hebbian":
        moving *= -tau
    moved = w + x * moving[..., None]
    return np.clip(moved, -l, l, out=moved)


def forward_planes(net: TpmNetwork, masks) -> tuple[list[int], int]:
    """``forward``'s signs and tau for one bank; bit j of ``masks[i]`` set means x[i, j] = +1.

    With u = w + l in planes P_b: sum_j w_j x_j = sum_b 2^b (2|P_b & m| - |P_b|) - l (2|m| - n),
    which is the unit's ``unit_data`` constant - 2l|m| + sum_b 2^(b+1) |P_b & m|.
    """
    l2 = 2 * net.params.l
    sigmas = []
    for unit, (total, _), mask in zip(net.planes, net.unit_data, masks):
        total -= l2 * mask.bit_count()
        b = 1
        for plane in unit:
            total += (plane & mask).bit_count() << b
            b += 1
        sigmas.append(1 if total > 0 else -1)
    return sigmas, math.prod(sigmas)


@lru_cache(maxsize=None)
def _top_planes(l: int) -> tuple[int, ...]:
    """The planes b where bit b of 2l is set: a weight is at +l where its bit is set in each."""
    return tuple(b for b in range((2 * l).bit_length()) if 2 * l >> b & 1)


def learn_planes(net: TpmNetwork, masks, sigmas, tau: int, rule: LearningRule) -> TpmNetwork:
    """``learn`` for one bank on its bit planes, on a step where both sides announced ``tau``:
    a ripple carry or borrow through the planes, dropped where w is already +l or -l (the clamp).

    The same loop builds each moved unit's ``unit_data``; unmoved units keep theirs.  A bank
    in [-l, +l] stays in it, so the result needs no bound check.
    """
    p = net.params
    full, width, tops = (1 << p.n) - 1, -(-p.n // 8), _top_planes(p.l)
    step = tau if rule == "hebbian" else -tau if rule == "anti_hebbian" else 1
    units, data = list(net.planes), list(net.unit_data)
    for i, sigma in enumerate(sigmas):
        if sigma != tau:
            continue
        unit, mask = units[i], masks[i]
        up = mask if step > 0 else full ^ mask
        # no w + l exceeds 2l, so one holding every bit of 2l equals it
        at_top, nonzero = full, 0
        for b in tops:
            at_top &= unit[b]
        for plane in unit:
            nonzero |= plane
        carry, borrow = up & ~at_top, (full ^ up) & nonzero
        # the carried weights rise by one and the borrowing ones fall by one
        total = data[i][0] - carry.bit_count() + borrow.bit_count()
        moved, packed = [], 0
        for b, plane in enumerate(unit):
            new = plane ^ (carry | borrow)
            carry &= plane
            borrow &= ~plane
            moved.append(new)
            packed |= new << 8 * width * b
        units[i] = tuple(moved)
        data[i] = (total, packed.to_bytes(width * len(moved), "little"))
    return TpmNetwork._of_planes(p, tuple(units), tuple(data))


def evaluate(net: TpmNetwork, inputs: np.ndarray) -> Evaluation:
    """Forward pass: the unit signs and tau of ``forward``, run on the bank's planes."""
    sigmas, tau = forward_planes(net, _input_masks(net.params, inputs))
    return Evaluation(np.array(sigmas, np.int32), tau)


def apply_learning(
    net: TpmNetwork,
    inputs: np.ndarray,
    eval_self: Evaluation,
    tau_other: int,
    rule: LearningRule,
) -> TpmNetwork:
    """One mutual-learning step against a peer's announced output.

    If the announced outputs differ nothing moves; otherwise ``learn_planes``
    updates the units whose sign matches the common output.
    """
    if rule not in LEARNING_RULES:
        raise ValueError(f"unknown learning rule: {rule!r}")
    sigmas = np.asarray(eval_self.sigmas)
    if sigmas.shape != (net.params.k,):
        raise ValueError(f"evaluation must hold {net.params.k} unit signs, got shape {sigmas.shape}")
    masks = _input_masks(net.params, inputs)
    if eval_self.tau != tau_other:
        return net
    return learn_planes(net, masks, sigmas.tolist(), eval_self.tau, rule)


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
    """True iff the weight banks are element-wise equal: equal offsets w + l have equal planes."""
    if net_a.params != net_b.params:
        raise ValueError("networks must share identical params")
    return net_a.planes == net_b.planes
