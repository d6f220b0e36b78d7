"""tools/bench_record.py: medians per (workload, label) and pair wins, from synthetic runs."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def run(label, seed, round_us, rss, correct=True, failed=0, attempted=10):
    metrics = {"round_us": {"value": round_us, "unit": "us"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"label": label, "commit": "c", "workload": "w", "seed": seed, "seconds": 1, "trace": 0,
            "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def test_rows_hold_medians_and_pairs_count_wins_in_the_declared_direction(tmp_path):
    runs = [
        run("parent", 1, 100.0, 30.0), run("change", 1, 70.0, 31.0),
        run("change", 2, 75.0, 29.0), run("parent", 2, 110.0, 30.0),
        run("parent", 3, 90.0, 30.0, failed=1, attempted=20), run("change", 3, 95.0, 30.0, failed=2),
        run("change", 4, 1.0, 1.0, failed=5),  # no parent run of seed 4: not a pair
    ]
    path = tmp_path / "BENCH.json"
    bench_record.write(str(path), runs)
    record = json.loads(path.read_text())

    rows = {row["label"]: row for row in record["rows"]}
    assert rows["parent"]["seeds"] == [1, 2, 3]
    assert rows["parent"]["metrics"]["round_us"] == {"median": 100.0, "unit": "us"}
    assert rows["change"]["metrics"]["round_us"]["median"] == 72.5
    assert rows["change"]["failed"] == 7 and rows["change"]["all_correct"]
    assert (rows["parent"]["attempted"], rows["change"]["attempted"]) == (40, 40)
    # lower is better for both metrics in BENCHMARK.json; a tie wins nothing; the
    # failed shares count the paired runs only
    assert record["pair_wins"]["w"] == {"round_us": "2/3", "peak_rss_mb": "1/3",
                                        "failed_share": {"parent": 1 / 40, "change": 2 / 30}}
    assert set(record["machine"]) == {"cores", "python", "numpy", "platform"}
    assert record["runs"] == runs
