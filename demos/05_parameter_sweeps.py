"""Synchronization-time scaling in depth and width, written as CSV.

Mean rounds to synchronize grow roughly quadratically with the weight
bound l (the security dial) but only mildly with the per-unit input count
n (the key-material dial).  Protocol mode drives two real endpoints over
a simulated lossless link and also accounts the bytes on the wire.
"""

import math

import numpy as np

from paritykex import run_sync_trials, write_sweep_csv

trials = 60
print(f"depth sweep, k=3, n=32, {trials} trials per point:")
depth_results = []
for l in range(1, 6):
    r = run_sync_trials(3, 32, l, "random_walk", trials, "direct", 10**6,
                        b"demo-sweep-seed!")
    depth_results.append(r)
    print(f"  l={l}: mean {r.mean_iter:8.1f}  median {r.median_iter:8.1f}  "
          f"stddev {r.stddev_iter:8.1f}")
ratios = [depth_results[i + 1].mean_iter / depth_results[i].mean_iter for i in range(4)]
print("  successive mean ratios:", [round(r, 2) for r in ratios])

# Ruttor, Kinzel & Kanter, "Dynamics of neural cryptography", PRE 75 056104
# (2007): the mean synchronization time grows as l^2.  The fitted exponent is
# the slope of ln(mean) against ln(l).  anti_hebbian is left out: from l=6 on
# its trials rarely synchronize (none of 20 within 10^5 steps at l=6), so a
# 200-trial point runs to the 10^6 cap for minutes.
fit_depths = range(1, 13)
fit_trials = 200
print(f"\nwider depth fit, k=3, n=32, l=1..12, {fit_trials} trials per point:")
for rule in ("random_walk", "hebbian"):
    means = [run_sync_trials(3, 32, l, rule, fit_trials, "direct", 10**6,
                             b"demo-sweep-seed!").mean_iter for l in fit_depths]
    exponent = np.polyfit([math.log(l) for l in fit_depths], np.log(means), 1)[0]
    print(f"  {rule:>11}: means {[round(m) for m in means]}")
    print(f"  {'':>11}  fitted exponent of ln(mean) against ln(l): {exponent:.2f} (l^2 law: 2)")

print(f"\nwidth sweep, k=3, l=3, {trials} trials per point:")
width_results = []
for n in (16, 32, 64, 128):
    r = run_sync_trials(3, n, 3, "random_walk", trials, "direct", 10**6,
                        b"demo-sweep-seed!")
    width_results.append(r)
    print(f"  n={n:>3}: mean {r.mean_iter:8.1f}")

print("\nprotocol mode (an exchange's rounds over a lossless link) also counts bytes:")
r = run_sync_trials(3, 32, 2, "random_walk", 10, "protocol", 20_000, b"demo-sweep-seed!")
print(f"  l=2: mean {r.mean_iter:.1f} rounds, mean {r.mean_bytes:.0f} bytes on the wire")

write_sweep_csv(depth_results + width_results, "sweep_demo.csv")
print("\nwrote sweep_demo.csv with the fixed column set:")
with open("sweep_demo.csv") as fh:
    print(" ", fh.readline().strip())
    print(" ", fh.readline().strip())
