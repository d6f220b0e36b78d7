"""tools/layer_bench.py: one JSON line with a median for every layer row of a protocol round
and of the lockstep trial engine."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROWS = {
    "rng.next_word", "rng.input_masks",
    "network.init", "network.forward_planes", "network.learn_planes", "protocol.sync_probe",
    "frames.encode_frame.syn", "frames.encode_frame.ack", "frames.decode_frame.syn", "frames.decode_frame.ack",
    "protocol.sender_advance", "protocol.receiver_advance",
    "channel.send_and_poll", "channel.poll_empty", "keycodec.key_material", "exchange.round",
    "rng.draw_inputs_lanes.4", "rng.draw_inputs_lanes.16", "rng.draw_inputs_lanes.500",
    "analysis.lockstep_step",
}


def test_layer_bench_prints_every_row_with_its_seed_parameters_and_machine():
    command = [sys.executable, os.path.join(ROOT, "tools", "layer_bench.py"), "--repeat", "2", "--number", "3"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record["rows"]) == ROWS
    assert all(value > 0 for value in record["rows"].values())
    assert record["unit"] == "us" and record["seed"] == 18
    assert record["params"] == {"k": 3, "n": 32, "l": 3, "rule": "random_walk"}
    assert (record["repeat"], record["number"]) == (2, 3)
    assert set(record["machine"]) == {"cores", "python", "numpy", "platform"}


def test_layer_bench_rejects_an_empty_timing():
    command = [sys.executable, os.path.join(ROOT, "tools", "layer_bench.py"), "--number", "0"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2 and "--number" in out.stderr


def test_layer_bench_base_times_two_checkouts_in_alternating_pairs():
    # this checkout against itself: every row on both sides, and a win count per pair
    command = [sys.executable, os.path.join(ROOT, "tools", "layer_bench.py"),
               "--base", ROOT, "--repeat", "2", "--number", "3"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["base"] == ROOT
    assert set(record["rows"]) == set(record["base_rows"]) == set(record["won"]) == ROWS
    assert all(value > 0 for side in ("rows", "base_rows") for value in record[side].values())
    assert all(0 <= count <= 2 for count in record["won"].values())
    assert (record["repeat"], record["number"]) == (2, 3)
    assert set(record["machine"]) == {"cores", "python", "numpy", "platform"}


def test_layer_bench_base_must_hold_the_tool(tmp_path):
    command = [sys.executable, os.path.join(ROOT, "tools", "layer_bench.py"), "--base", str(tmp_path)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2 and "--base" in out.stderr
