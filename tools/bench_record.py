"""Record benchmark medians, with the machine they ran on, as a BENCH_<pr>.json file.

    python3 tools/bench_record.py --out BENCH_7.json --seeds 701 702 703 \
        --base ../parent-checkout --workloads exchange-clean sweep-depth

Each run is one ``perfbench/run.py --workload W --seed S --seconds T`` in a
fresh process, one at a time.  The last line a run prints is its JSON result;
the file keeps every run, and one row per (label, workload) with the median
of each metric over its seeds.  With ``--base``, every seed runs once in
that checkout (label "parent") and once in this one (label "change"), the
two alternating which goes first, and each workload gets a per-metric count
of the pairs the change won, in the direction ``BENCHMARK.json`` declares,
and each side's share of failed operations over those pairs.
An existing ``--out`` file is extended: its runs are kept, and the file is
rewritten after every run with the rows recomputed over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def machine_info() -> dict:
    """The cores, Python, numpy and platform a record was made on."""
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def commit_of(checkout: str) -> str:
    out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def medians(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    return {name: {"median": statistics.median(r["metrics"][name]["value"] for r in runs),
                   "unit": names[name]["unit"]} for name in names}


def pair_wins(runs: list[dict], workload: str) -> dict:
    """Per end-to-end metric: the pairs (same seed) where the change did better; and per side,
    the share of the operations its paired runs attempted that failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    by_seed = {}
    for r in runs:
        if r["workload"] == workload:
            by_seed.setdefault(r["seed"], {})[r["label"]] = r
    pairs = [sides for sides in by_seed.values() if {"parent", "change"} <= sides.keys()]
    wins = {}
    for name, direction in better.items():
        if pairs and name in pairs[0]["change"]["metrics"]:
            sign = 1 if direction == "lower" else -1
            won = sum(sign * (p["parent"]["metrics"][name]["value"] - p["change"]["metrics"][name]["value"]) > 0
                      for p in pairs)
            wins[name] = f"{won}/{len(pairs)}"
    if pairs:
        wins["failed_share"] = {side: sum(p[side]["failed"] for p in pairs) / sum(p[side]["attempted"] for p in pairs)
                                for side in ("parent", "change")}
    return wins


def write(path: str, runs: list[dict]) -> None:
    rows = []
    for workload, label, trace in sorted({(r["workload"], r["label"], r["trace"]) for r in runs}):
        mine = [r for r in runs if (r["workload"], r["label"], r["trace"]) == (workload, label, trace)]
        rows.append({"label": label, "commit": mine[-1]["commit"], "workload": workload, "trace": trace,
                     "seeds": [r["seed"] for r in mine], "all_correct": all(r["correct"] for r in mine),
                     "attempted": sum(r["attempted"] for r in mine), "failed": sum(r["failed"] for r in mine),
                     "metrics": medians(mine)})
    untraced = [r for r in runs if not r["trace"]]
    record = {
        "machine": machine_info(),
        "rows": rows,
        "pair_wins": {w: pair_wins(untraced, w) for w in sorted({r["workload"] for r in untraced})},
        "runs": runs,
    }
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="BENCH_<pr>.json to write")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", help="checkout of the parent commit, run alternately with this one")
    args = ap.parse_args(argv)

    sides = [("change", ROOT)] + ([("parent", os.path.abspath(args.base))] if args.base else [])
    runs = []
    if os.path.exists(args.out):
        with open(args.out) as handle:
            runs = json.load(handle)["runs"]
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            for label, checkout in sides[i % 2:] + sides[:i % 2]:
                result = run_once(checkout, workload, seed, args.seconds, args.trace)
                runs.append({"label": label, "commit": commit_of(checkout), "workload": workload,
                             "seed": seed, "seconds": args.seconds, "trace": args.trace, **result})
                value = result["metrics"].get("round_us", {}).get("value")
                print(f"{workload} seed {seed} {label}: correct {result['correct']}, failed "
                      f"{result['failed']}, round_us {value}", file=sys.stderr)
                write(args.out, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
