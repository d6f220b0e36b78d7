"""Command-line harness: exit codes, outputs, reproducibility."""

import socket
import subprocess
import sys

import pytest

from paritykex.cli import main

SEED = "000102030405060708090a0b0c0d0e0f"


def test_exchange_success_prints_matching_keys(capsys):
    code = main(["exchange", "--k", "3", "--n", "32", "--l", "2", "--seed", SEED])
    out = capsys.readouterr().out
    assert code == 0
    lines = dict(
        line.split(":", 1) for line in out.strip().splitlines() if ":" in line
    )
    assert lines["sender key"].strip() == lines["receiver key"].strip()
    assert len(lines["sender key"].strip()) == 32
    assert "master seed" not in out  # explicit seed is not re-printed


def test_exchange_reports_run_stats(capsys):
    code = main(["exchange", "--l", "1", "--n", "16", "--seed", SEED])
    out = capsys.readouterr().out
    assert code == 0
    assert "rounds:" in out and "bytes:" in out and "iv:" in out


def test_exchange_generates_and_prints_seed_when_missing(capsys):
    code = main(["exchange", "--l", "1", "--n", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert "master seed:" in out


def test_exchange_corrupt_ssc_fails(capsys):
    code = main(["exchange", "--l", "2", "--corrupt-ssc", "--seed", SEED])
    out = capsys.readouterr().out
    assert code == 1
    assert "failed" in out


def test_exchange_corrupt_rsc_fails(capsys):
    code = main(["exchange", "--l", "2", "--corrupt-rsc", "--seed", SEED])
    assert code == 1


def test_exchange_lossy_channel_flags(capsys):
    code = main(
        ["exchange", "--l", "1", "--n", "16", "--seed", SEED,
         "--drop", "0.1", "--dup", "0.05", "--corrupt", "0.02", "--max-attempts", "10"]
    )
    assert code == 0


def test_usage_error_on_unknown_vary():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--vary", "q", "--from", "1", "--to", "2"])
    assert excinfo.value.code == 2


def test_usage_error_on_conflicting_transports():
    with pytest.raises(SystemExit) as excinfo:
        main(["exchange", "--listen", "127.0.0.1:1", "--connect", "127.0.0.1:2"])
    assert excinfo.value.code == 2


def test_usage_error_on_bad_seed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["exchange", "--seed", "zz"])
    assert excinfo.value.code == 2
    assert "hex" in capsys.readouterr().err


def test_usage_error_on_bad_params(capsys):
    code = main(["exchange", "--k", "0", "--seed", SEED])
    assert code == 2
    assert main(["exchange", "--l", "0", "--seed", SEED]) == 2


def test_udp_mode_requires_explicit_seed(capsys):
    code = main(["exchange", "--listen", "127.0.0.1:39999"])
    assert code == 2


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    args = ["sweep", "--vary", "l", "--from", "1", "--to", "2", "--trials", "5",
            "--n", "16", "--seed", SEED]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0]
    assert header.startswith("k,n,l,rule,trials,mean_iter")


def test_sweep_range_validation(capsys):
    assert main(["sweep", "--vary", "l", "--from", "3", "--to", "1", "--seed", SEED]) == 2


def test_attack_writes_csv(tmp_path, capsys):
    out = tmp_path / "attack.csv"
    code = main(
        ["attack", "--n", "16", "--l-values", "1", "--trials", "5", "--cap", "2000",
         "--seed", SEED, "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[9] != ""  # attacker_success column populated


def test_vectors_outputs_golden_content(tmp_path, capsys):
    code = main(["vectors", "--out-dir", str(tmp_path)])
    assert code == 0
    generator = (tmp_path / "generator_vectors.txt").read_text()
    assert (
        "000102030405060708090a0b0c0d0e0f -> 1193145395979718" in generator.replace("  ", " ")
    )
    frames = (tmp_path / "frame_vectors.txt").read_text()
    assert "6a0e32b4" in frames  # golden SYN checksum


def test_output_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PARITYKEX_OUT_DIR", str(tmp_path))
    code = main(["vectors"])
    assert code == 0
    assert (tmp_path / "generator_vectors.txt").exists()


@pytest.mark.slow
def test_udp_processes_exchange_keys(tmp_path):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    listen = subprocess.Popen(
        [sys.executable, "-m", "paritykex.cli", "exchange", "--l", "1", "--n", "16",
         "--seed", SEED, "--listen", f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        connect = subprocess.run(
            [sys.executable, "-m", "paritykex.cli", "exchange", "--l", "1", "--n", "16",
             "--seed", SEED, "--connect", f"127.0.0.1:{port}"],
            capture_output=True, text=True, timeout=90,
        )
        listen_out, _ = listen.communicate(timeout=90)
    finally:
        listen.kill()
    assert connect.returncode == 0, connect.stderr
    assert listen.returncode == 0
    key_lines = [l for l in (connect.stdout + listen_out).splitlines() if l.startswith("key:")]
    assert len(key_lines) == 2
    assert key_lines[0] == key_lines[1]
