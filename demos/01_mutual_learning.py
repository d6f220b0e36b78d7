"""Two parity machines synchronizing by mutual learning.

Both networks see the same random inputs, announce only their parity
outputs, and update toward each other whenever the outputs agree.  The
normalized per-unit overlap climbs from near zero to exactly 1, after
which the state is absorbing: further shared updates preserve equality.
"""

import numpy as np

from paritykex import (
    TpmParams,
    apply_learning,
    draw_inputs,
    evaluate,
    init_network,
    is_synchronized,
    order_params,
    run_single_trial,
    seed_from_bytes,
)

params = TpmParams(k=3, n=32, l=3)
rng = seed_from_bytes(b"mutual-learning!")
net_a, rng = init_network(params, rng)
net_b, rng = init_network(params, rng)

print(f"architecture: k={params.k} units, n={params.n} inputs each, "
      f"weights in [-{params.l}, +{params.l}]")
print(f"{'round':>6} {'agree':>6} {'rho(unit 0..2)':>24}")

rounds = 0
agreements = 0
while not is_synchronized(net_a, net_b):
    inputs, rng = draw_inputs(rng, params.k, params.n)
    ev_a = evaluate(net_a, inputs)
    ev_b = evaluate(net_b, inputs)
    if ev_a.tau == ev_b.tau:
        agreements += 1
        net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, "random_walk")
        net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, "random_walk")
    rounds += 1
    if rounds % 50 == 0 or is_synchronized(net_a, net_b):
        rhos = [order_params(net_a, net_b, u).rho for u in range(params.k)]
        print(f"{rounds:>6} {agreements:>6}   "
              + "  ".join("  n/a" if r is None else f"{r:+.3f}" for r in rhos))

print(f"\nsynchronized after {rounds} rounds ({agreements} with matching outputs)")
assert np.array_equal(net_a.weights, net_b.weights)

print("\nthe synchronized state is absorbing:")
for _ in range(200):
    inputs, rng = draw_inputs(rng, params.k, params.n)
    ev_a = evaluate(net_a, inputs)
    ev_b = evaluate(net_b, inputs)
    net_a = apply_learning(net_a, inputs, ev_a, ev_b.tau, "random_walk")
    net_b = apply_learning(net_b, inputs, ev_b, ev_a.tau, "random_walk")
assert is_synchronized(net_a, net_b)
print("  200 further shared updates kept the weight banks identical")

print("\nmean rounds to synchronize (20 trials each rule, same architecture):")
for rule in ("hebbian", "anti_hebbian", "random_walk"):
    iters = [
        run_single_trial(params, rule, bytes([i]) * 16, 10**6).iterations
        for i in range(20)
    ]
    print(f"  {rule:>12}: {np.mean(iters):7.1f}  (min {min(iters)}, max {max(iters)})")
