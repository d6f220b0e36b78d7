"""Reference engine for the lab workloads, written from the documented method.

It shares no code with ``paritykex``: the generator, the weight draw, the
forward pass, the three learning rules and both trial loops are rebuilt
here from the README and the analysis docstrings, so that a faster engine
in the package can be checked trial for trial against them.

* xorshift128+ on two 64-bit words; a 16-byte seed gives s0 (first 8 bytes)
  and s1 (last 8 bytes), both big-endian.
* Inputs consume ceil(k*n/64) whole words, LSB-first within a word,
  row-major, bit 1 -> +1 and bit 0 -> -1.
* A network draws one word per weight, row-major: w = word mod (2l+1) - l.
* A unit's sign is +1 for a positive field and -1 otherwise (zero -> -1);
  the output is the product of the signs.
* When the two announced outputs agree, the units whose sign equals the
  output move: hebbian by +tau*x, anti_hebbian by -tau*x, random_walk by +x,
  then clamp to [-l, l].
* Trial ``i`` of a run seeded with ``master`` uses the 16-byte seed
  sha256(master + b"/" + label)[:16], label ``trial-i`` (bare exchange) or
  ``attack-i`` (listener).  Networks A, B (and the listener E) are drawn in
  that order from one generator, which then draws every round's inputs.
* The listener sees inputs and both outputs; when the partners agree it
  moves its own units whose sign equals tau_A, by the partners' rule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

MASK64 = (1 << 64) - 1


class Xorshift128Plus:
    """The shared generator, as a mutable object."""

    def __init__(self, seed: bytes):
        if len(seed) != 16:
            raise ValueError("seed must be 16 bytes")
        self.s0 = int.from_bytes(seed[:8], "big")
        self.s1 = int.from_bytes(seed[8:], "big")
        if self.s0 == 0 and self.s1 == 0:
            raise ValueError("the all-zero seed is not used by the lab runners")

    def word(self) -> int:
        t = self.s0
        t ^= (t << 23) & MASK64
        t ^= t >> 17
        t ^= self.s1
        t ^= self.s1 >> 26
        self.s0, self.s1 = self.s1, t
        return (self.s0 + t) & MASK64

    def inputs(self, k: int, n: int) -> np.ndarray:
        nwords = -(-(k * n) // 64)
        bits = [
            1 if (word >> b) & 1 else -1
            for word in (self.word() for _ in range(nwords))
            for b in range(64)
        ]
        return np.array(bits[: k * n], dtype=np.int64).reshape(k, n)

    def weights(self, k: int, n: int, l: int) -> np.ndarray:
        span = 2 * l + 1
        flat = [self.word() % span - l for _ in range(k * n)]
        return np.array(flat, dtype=np.int64).reshape(k, n)


def trial_seed(master: bytes, label: str) -> bytes:
    return hashlib.sha256(master + b"/" + label.encode()).digest()[:16]


def signs(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unit signs; a zero field counts as -1."""
    return np.where((w * x).sum(axis=1) > 0, 1, -1)


def output(sigma: np.ndarray) -> int:
    return int(np.prod(sigma))


def learn(w: np.ndarray, x: np.ndarray, sigma: np.ndarray, tau: int, rule: str, l: int):
    """Move the units whose sign equals ``tau``; clamp to [-l, l]."""
    if rule == "hebbian":
        delta = tau * x
    elif rule == "anti_hebbian":
        delta = -tau * x
    elif rule == "random_walk":
        delta = x
    else:
        raise ValueError(f"unknown rule {rule!r}")
    mask = (sigma == tau)[:, None]
    return np.clip(w + delta * mask, -l, l)


def sync_trial(k: int, n: int, l: int, rule: str, seed: bytes, cap: int) -> tuple[int, bool]:
    """One bare exchange: (iterations, synchronized)."""
    gen = Xorshift128Plus(seed)
    a = gen.weights(k, n, l)
    b = gen.weights(k, n, l)
    iterations = 0
    while not np.array_equal(a, b) and iterations < cap:
        x = gen.inputs(k, n)
        sa, sb = signs(a, x), signs(b, x)
        ta, tb = output(sa), output(sb)
        if ta == tb:
            a = learn(a, x, sa, ta, rule, l)
            b = learn(b, x, sb, tb, rule, l)
        iterations += 1
    return iterations, bool(np.array_equal(a, b))


@dataclass(frozen=True)
class ListenerTrial:
    partner_iterations: Optional[int]  # None when the partners hit the cap
    listener_iterations: Optional[int]  # None when the listener hit the cap

    @property
    def listener_won(self) -> bool:
        p, e = self.partner_iterations, self.listener_iterations
        return p is not None and e is not None and e <= p

    def loop_iterations(self, cap: int) -> int:
        """Iterations the trial ran: until the partners and the listener had both matched, or the cap."""
        p, e = self.partner_iterations, self.listener_iterations
        return cap if p is None or e is None else max(p, e)


def listener_trial(k: int, n: int, l: int, rule: str, seed: bytes, cap: int) -> ListenerTrial:
    """One bare exchange with a passive listener, run until both catch up."""
    gen = Xorshift128Plus(seed)
    a = gen.weights(k, n, l)
    b = gen.weights(k, n, l)
    e = gen.weights(k, n, l)
    ab_time: Optional[int] = None
    e_time: Optional[int] = None
    iterations = 0
    while iterations < cap and (ab_time is None or e_time is None):
        x = gen.inputs(k, n)
        sa, sb = signs(a, x), signs(b, x)
        ta, tb = output(sa), output(sb)
        if ta == tb:
            se = signs(e, x)
            a = learn(a, x, sa, ta, rule, l)
            b = learn(b, x, sb, tb, rule, l)
            e = learn(e, x, se, ta, rule, l)
        iterations += 1
        if ab_time is None and np.array_equal(a, b):
            ab_time = iterations
        if e_time is None and np.array_equal(e, a):
            e_time = iterations
    return ListenerTrial(ab_time, e_time)
