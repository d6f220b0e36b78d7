"""Command-line harness: exit codes, outputs, reproducibility."""

import re
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


def test_usage_error_on_negative_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for args in (["attack", "--n", "16", "--l", "1", "--trials", "3"],
                 ["sweep", "--vary", "l", "--from", "1", "--to", "1", "--trials", "3"],
                 ["exchange"]):
        assert main(args + ["--cap", "-5", "--seed", SEED]) == 2
        captured = capsys.readouterr()
        assert "--cap" in captured.err
        assert "mean" not in captured.out
    assert list(tmp_path.iterdir()) == []  # no CSV written


@pytest.mark.parametrize("mode", ["--listen", "--connect"])
def test_usage_error_on_port_out_of_range(monkeypatch, capsys, mode):
    # port 70000 died with an OverflowError traceback from bind/sendto
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    with pytest.raises(SystemExit) as excinfo:
        main(["exchange", mode, "127.0.0.1:70000", "--seed", SEED])
    assert excinfo.value.code == 2
    assert "0-65535" in capsys.readouterr().err


def test_udp_mode_requires_explicit_seed(capsys):
    code = main(["exchange", "--listen", "127.0.0.1:39999"])
    assert code == 2


@pytest.mark.parametrize("tick_ms", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("mode", ["--listen", "--connect"])
def test_udp_mode_rejects_nonpositive_tick_ms(monkeypatch, capsys, mode, tick_ms):
    # --tick-ms 0 died with a ZeroDivisionError (exit 1); a negative tick ran the clock backwards;
    # an infinite one stopped it, so no retransmission timer fired
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    assert main(["exchange", mode, "127.0.0.1:39999", "--seed", SEED, f"--tick-ms={tick_ms}"]) == 2
    assert "error: --tick-ms must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--corrupt-ssc", "--corrupt-rsc"])
def test_listener_rejects_the_corrupt_code_flags(monkeypatch, capsys, flag):
    # the listener is the receiver, which never applied the sender's corrupted codes, so it established
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    assert main(["exchange", "--listen", "127.0.0.1:39999", "--seed", SEED, flag]) == 2
    assert "use them with --connect" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--drop=0.1", "--dup=0.1", "--corrupt=0.1", "--reorder=0.1", "--latency=2"])
@pytest.mark.parametrize("mode", ["--listen", "--connect"])
def test_udp_mode_rejects_the_link_impairment_flags(monkeypatch, capsys, mode, flag):
    # UDP mode runs over the real network, so these flags were silently ignored
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    assert main(["exchange", mode, "127.0.0.1:39999", "--seed", SEED, flag]) == 2
    err = capsys.readouterr().err
    assert flag.split("=")[0] in err and "simulated link only" in err


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


@pytest.mark.parametrize("args", [
    ["attack", "--l-values", "200", "--trials", "2"],
    ["sweep", "--vary", "l", "--from", "1", "--to", "2", "--trials", "0"],
    ["sweep", "--vary", "n", "--from", "1", "--to", "2", "--trials", "2", "--mode", "protocol"],
    ["exchange", "--drop", "2"],
])
def test_usage_error_on_bad_point_params(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(args + ["--seed", SEED]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_sweep_checks_every_point_before_running_any(tmp_path, monkeypatch, capsys):
    # l=126 and l=127 are valid, l=128 is not: nothing may run or be written
    monkeypatch.chdir(tmp_path)
    args = ["sweep", "--vary", "l", "--from", "126", "--to", "128", "--trials", "1",
            "--cap", "5", "--seed", SEED]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: synaptic depth l must be <= 127\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("args", [
    ["sweep", "--vary", "l", "--from", "1", "--to", "2", "--trials", "3", "--n", "16"],
    ["attack", "--n", "16", "--l-values", "1,2", "--trials", "3", "--cap", "2000"],
])
def test_sweep_and_attack_print_each_points_wall_time_and_rate(args, tmp_path, capsys):
    assert main(args + ["--seed", SEED, "--out", str(tmp_path / "out.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    timed = [re.search(r" wall \d+\.\d{3}s (\d+\.\d) trials/s$", line) for line in lines[:2]]
    assert all(timed) and all(float(match[1]) > 0 for match in timed), lines
    assert lines[2].startswith("wrote ")


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


def run_udp_pair(*connect_flags):
    """Run a --listen process and a --connect one, given ``connect_flags``, on a free local
    port; return the listener's and then the connector's (return code, stdout, stderr)."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    command = [sys.executable, "-m", "paritykex.cli", "exchange", "--l", "1", "--n", "16", "--seed", SEED]
    listen = subprocess.Popen(command + ["--listen", f"127.0.0.1:{port}"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        connect = subprocess.run(command + ["--connect", f"127.0.0.1:{port}", *connect_flags],
                                 capture_output=True, text=True, timeout=90)
        listen_out, listen_err = listen.communicate(timeout=90)
    finally:
        listen.kill()
    return (listen.returncode, listen_out, listen_err), (connect.returncode, connect.stdout, connect.stderr)


@pytest.mark.slow
def test_udp_processes_exchange_keys():
    (listen_code, listen_out, _), (connect_code, connect_out, connect_err) = run_udp_pair()
    assert connect_code == 0, connect_err
    assert listen_code == 0
    key_lines = [l for l in (connect_out + listen_out).splitlines() if l.startswith("key:")]
    assert len(key_lines) == 2
    assert key_lines[0] == key_lines[1]


@pytest.mark.slow
def test_udp_corrupt_sender_code_fails_both_processes():
    # the listener rejects the connector's AUTH; the connector, unanswered, gives up
    (listen_code, listen_out, listen_err), (connect_code, connect_out, _) = run_udp_pair("--corrupt-ssc")
    assert (listen_code, connect_code) == (1, 1), listen_err
    assert listen_out.strip() == "failed: peer certification failed"
    assert connect_out.startswith("failed:") and "key:" not in connect_out
