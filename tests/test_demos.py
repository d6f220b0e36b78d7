"""The demos run end to end against the package and say what they claim.

Each demo runs as its own process in an empty working directory, with the
package's ``src`` directory first on the import path.  Demos 04 and 05 are
long-running sweeps and are left to be run by hand.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEMOS = {
    "01_mutual_learning.py": ["synchronized after", "kept the weight banks identical"],
    "02_key_exchange.py": ["=== lossless channel ===", "every corrupted frame was rejected",
                           "peer certification failed"],
    "03_weight_distribution.py": ["boundary weights are over-represented"],
    "06_wire_format.py": ["336/336 corrupted copies raised the integrity error"],
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    for phrase in DEMOS[demo]:
        assert phrase in run.stdout
    assert list(tmp_path.iterdir()) == []  # the demo wrote no file
