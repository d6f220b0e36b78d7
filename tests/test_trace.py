"""The benchmark's traced mode still runs against the package.

``--trace 1`` wraps every function named in ``perfbench/spans.py`` by its
module path, so a rename or removal in the package that the untraced run
never touches makes the traced run raise.  The run writes its spans under
``perfbench/results/``, which git ignores.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_sweep_depth_run_is_correct():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sweep-depth",
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["analysis.run_sync_trials.calls"]["value"] > 0
