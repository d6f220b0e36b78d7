"""Run one paritykex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exchange-clean --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` wraps each layer's public functions in spans and prints the per-layer
metrics instead, writing the spans under ``perfbench/results/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

This file imports nothing beyond what parsing the arguments needs before it
times the set-up: the package's first import is cold, numpy included.  The
rest of the benchmark (``measure.py``) loads after it.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("exchange-clean", "exchange-impaired", "sweep-depth", "attack-listener")


def timed_setup(workload: str, seed: int):
    """Import the package and build the workload's configs and seeds: (px, wl, seconds)."""
    t0 = time.perf_counter()
    px = importlib.import_module("paritykex")
    if not os.path.abspath(px.__file__).startswith(SRC + os.sep):
        raise ImportError(f"paritykex imported from {px.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](px, seed)
    return px, wl, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one cold set-up sample in a fresh process; measure.py starts these
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        px, wl, setup_seconds = timed_setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import paritykex from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_seconds))
        return 0

    import measure

    return measure.run(args, px, wl, setup_seconds)


if __name__ == "__main__":
    sys.exit(main())
