"""The timed loop of one run, its calibration, its metrics and its result line.

``run.py`` times the package's cold import and the workload's set-up, then
hands over to ``run`` here.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

SETUP_REPEATS = 9  # the run's own set-up plus this many less one fresh processes
LOOP_LIMIT_S = 120.0  # keeps a run, checks included, well inside three minutes
CAL_SEED = bytes(range(1, 17))
CAL_SHARE = 0.05
CAL_REFERENCE_S = 0.005  # about one calibration sample on the reference machine


def setup_samples(args, first: float) -> list[float]:
    """Cold set-up times: this run's own, then one from each of several fresh processes.

    Each probe process imports the package and builds the workload exactly
    as this one did, from nothing, and prints the time it took.  They run
    one at a time, before the timed loop.
    """
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99), linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Calibration:
    """The machine's speed during the run, sampled between the operations.

    One sample is one fixed trial of the benchmark's reference engine, which
    shares no code with the package.  Samples take about ``CAL_SHARE`` of the
    run, spread evenly over it, and run with the garbage collector off, so
    that collections the package's own objects cause are not divided out.
    ``scale`` converts a wall time measured in this run to the time it would
    take at the speed where one sample lasts ``CAL_REFERENCE_S``.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.debt = 0.0
        self.sample()  # warm-up, not kept
        self.samples.clear()

    def sample(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference.sync_trial(3, 32, 1, "random_walk", CAL_SEED, 10**6)
            dt = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.samples.append(dt)
        return dt

    def after_op(self, seconds: float) -> None:
        self.debt += CAL_SHARE * seconds
        while self.debt > 0:
            self.debt -= self.sample()

    @property
    def scale(self) -> float:
        if not self.samples:
            self.sample()
        return CAL_REFERENCE_S / statistics.fmean(self.samples)


def end_to_end(wl, setup_s: float, scale: float) -> dict:
    """Loop times are scaled to the reference speed.

    ``round_us`` is a total over the run, like the calibration it is scaled
    by; the percentiles and ``rounds_per_exchange`` are taken over rounds,
    since the exchange lengths on an impaired link have a heavy tail.  That
    tail is also why the upper percentile is the 75th: over a 25 s run the
    90th spread by more than 20% between seeds on ``exchange-impaired``.
    Set-up time is left as measured: it is mostly import work, which the
    calibration sample does not resemble.
    """
    rounds = wl.tally.rounds
    per_op_ms = [seconds * 1000 * scale / ops for seconds, _, ops in rounds]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "exchange_ms_p50": (percentile(per_op_ms, 50), "ms"),
        "exchange_ms_p75": (percentile(per_op_ms, 75), "ms"),
        "round_us": (wl.tally.op_seconds / wl.tally.iterations * 1e6 * scale, "us"),
        "rounds_per_exchange": (statistics.median(it / ops for _, it, ops in rounds), "rounds"),
    }


def per_layer(wl, tracer) -> dict:
    """Span metrics plus the counts read at the layer boundaries, per operation."""
    t = wl.tally
    per_op = t.attempted
    c, tc = t.counts, tracer.counts
    polls = tracer.stats["channel.SimulatedLink.poll"][0]
    out = tracer.layer_metrics(per_op)
    out.update(
        {
            "protocol.learn_ratio": (c["learning_steps"] / t.iterations if c["learning_steps"] else 0.0, "ratio"),
            "protocol.unequal_banks_ratio": (
                c["unequal_banks"] / c["established"] if c["established"] else 0.0, "ratio"),
            "protocol.timer_fires": (tc["protocol.timer_fires"] / per_op, "count/op"),
            "protocol.cert_rejects": (tc["protocol.cert_rejects"] / per_op, "count/op"),
            "frames.decode_errors.integrity": (tc["frames.decode_errors.integrity"] / per_op, "count/op"),
            "frames.decode_errors.truncated": (tc["frames.decode_errors.truncated"] / per_op, "count/op"),
            "frames.decode_errors.protocol": (tc["frames.decode_errors.protocol"] / per_op, "count/op"),
            "channel.poll.empty_ratio": (tc["channel.poll.empty"] / polls if polls else 0.0, "ratio"),
            "channel.dropped": (c["dropped"] / per_op, "count/op"),
            "channel.duplicated": (c["duplicated"] / per_op, "count/op"),
            "channel.corrupted": (c["corrupted"] / per_op, "count/op"),
            "channel.reordered": (c["reordered"] / per_op, "count/op"),
            "channel.wire_bytes": (c["wire_bytes"] / per_op, "bytes/op"),
            "exchange.ticks": (c["ticks"] / per_op, "ticks/op"),
            "exchange.ticks_per_round": (c["ticks"] / t.iterations if c["ticks"] else 0.0, "ticks/round"),
        }
    )
    return out


def run(args, px, wl, first_setup: float) -> int:
    """Measure set-up, run whole rounds for ``args.seconds``, check and print."""
    setups = setup_samples(args, first_setup)
    setup_s = statistics.median(setups)

    calibration = Calibration()
    tracer = None
    after_op = calibration.after_op
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(px)

        def after_op(seconds: float) -> None:
            tracer.next_op()
            calibration.after_op(seconds)

    start = time.perf_counter()
    while True:
        wl.run_round(after_op)
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and wl.done_minimum) or elapsed >= LOOP_LIMIT_S:
            break
    wl.finish()

    t = wl.tally
    if tracer is None:
        metrics = end_to_end(wl, setup_s, calibration.scale)
    else:
        metrics = per_layer(wl, tracer)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.trace.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "ops": t.attempted,
                            "op_seconds": t.op_seconds, "iterations": t.iterations})
        print(f"trace written to {os.path.relpath(path, ROOT)}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {t.attempted} operations "
          f"in {len(t.rounds)} rounds, {t.iterations} iterations, {t.op_seconds:.2f} s timed")
    per_op_ms = sorted(seconds * 1000 / ops for seconds, _, ops in t.rounds)
    print(f"unscaled: {t.attempted / t.op_seconds:.3f} operations/s, "
          f"{t.op_seconds / t.iterations * 1e6:.1f} us/iteration, p90 {percentile(per_op_ms, 90):.1f} ms, "
          f"mean {t.iterations / t.attempted:.1f} iterations/operation")
    print("setup: " + " ".join(f"{s:.4f}" for s in setups) + f" s, median {setup_s:.4f} s")
    print(f"calibration: {len(calibration.samples)} samples, mean "
          f"{statistics.fmean(calibration.samples) * 1000:.3f} ms, scale {calibration.scale:.4f}; "
          f"scaled {t.op_seconds / t.iterations * 1e6 * calibration.scale:.1f} us/iteration")
    for reason, n in sorted(t.failures.items()):
        print(f"FAILED {n}: {reason}")
    for problem in t.problems:
        print(f"WRONG: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not t.problems,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
