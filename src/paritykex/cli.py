"""Command-line harness: run exchanges, sweeps, attacker evaluations, vectors.

Exit codes: 0 success, 1 runtime or protocol failure, 2 usage error.  Every
stochastic subcommand takes --seed (32 hex chars); without it a fresh seed
is drawn and printed, so any run can be reproduced afterwards.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .analysis import check_point, run_attack_trials, run_sync_trials, write_sweep_csv
from .channel import ChannelConfig, UdpTransport
from .exchange import derive_seed, run_exchange, run_udp
from .frames import AckSyn, Auth, FinSyn, NakSyn, Syn, encode_frame
from .network import LEARNING_RULES, TpmParams
from .protocol import ProtocolConfig
from .rng import next_words, seed_from_bytes

OUTPUT_DIR_ENV = "PARITYKEX_OUT_DIR"


def _out_path(name: str) -> str:
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), name)


def _seed_bytes(value: str | None) -> tuple[bytes, bool]:
    """Parse --seed, or draw one; returns (seed, was_generated)."""
    if value is None:
        return os.urandom(16), True
    try:
        seed = bytes.fromhex(value)
    except ValueError:
        seed = b""
    if len(seed) != 16:
        print("error: --seed must be 32 hex characters", file=sys.stderr)
        raise SystemExit(2)
    return seed, False


def _host_port(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT with a port in 0-65535, got {value!r}")
    return host, int(port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritykex",
        description="Neural key exchange by parity-machine synchronization",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_network_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=int, default=3, help="hidden units per layer")
        p.add_argument("--n", type=int, default=32, help="inputs per hidden unit")
        p.add_argument("--l", type=int, default=3, help="synaptic depth (weight bound)")
        p.add_argument("--rule", choices=LEARNING_RULES, default="random_walk")
        p.add_argument("--seed", help="master seed, 32 hex chars")
        p.add_argument("--cap", type=int, default=20000, help="iteration cap per run")

    ex = sub.add_parser("exchange", help="run one full key exchange")
    add_network_args(ex)
    ex.add_argument("--timeout", type=int, default=16, help="retransmission timeout in ticks")
    ex.add_argument("--max-attempts", type=int, default=12)
    ex.add_argument("--drop", type=float, default=0.0, help="channel drop probability")
    ex.add_argument("--dup", type=float, default=0.0, help="channel duplication probability")
    ex.add_argument("--corrupt", type=float, default=0.0, help="channel bit-flip probability")
    ex.add_argument("--reorder", type=float, default=0.0, help="channel reorder probability")
    ex.add_argument("--latency", type=int, default=0, help="channel latency in ticks")
    ex.add_argument("--corrupt-ssc", action="store_true", help="test flag: break the sender code")
    ex.add_argument("--corrupt-rsc", action="store_true", help="test flag: break the receiver code")
    transport = ex.add_mutually_exclusive_group()
    transport.add_argument("--listen", type=_host_port, metavar="HOST:PORT",
                           help="run the responding endpoint over UDP")
    transport.add_argument("--connect", type=_host_port, metavar="HOST:PORT",
                           help="run the initiating endpoint over UDP")
    ex.add_argument("--tick-ms", type=float, default=1.0, help="milliseconds per tick (UDP mode)")

    sw = sub.add_parser("sweep", help="Monte-Carlo synchronization-time sweep to CSV")
    add_network_args(sw)
    sw.add_argument("--vary", choices=("l", "n"), required=True)
    sw.add_argument("--from", dest="start", type=int, required=True)
    sw.add_argument("--to", dest="stop", type=int, required=True)
    sw.add_argument("--step", type=int, default=1)
    sw.add_argument("--trials", type=int, default=200)
    sw.add_argument("--mode", choices=("direct", "protocol"), default="direct")
    sw.add_argument("--out", default=None, help="output CSV path")

    at = sub.add_parser("attack", help="passive-eavesdropper evaluation to CSV")
    add_network_args(at)
    at.add_argument("--l-values", default=None,
                    help="comma-separated depths to evaluate (default: --l)")
    at.add_argument("--trials", type=int, default=500)
    at.add_argument("--out", default=None, help="output CSV path")

    ve = sub.add_parser("vectors", help="write generator and frame golden vectors")
    ve.add_argument("--out-dir", default=None)
    return parser


def _run_exchange(args: argparse.Namespace) -> int:
    seed, generated = _seed_bytes(args.seed)
    if (args.listen or args.connect) and generated:
        print("error: UDP mode needs an explicit shared --seed", file=sys.stderr)
        return 2
    if generated:
        print(f"master seed: {seed.hex()}")
    try:
        cfg = ProtocolConfig(
            params=TpmParams(k=args.k, n=args.n, l=args.l),
            ssc=derive_seed(seed, "ssc"),
            rsc=derive_seed(seed, "rsc"),
            rule=args.rule,
            timeout_ticks=args.timeout,
            max_attempts=args.max_attempts,
        )
        channel = ChannelConfig(
            drop_prob=args.drop,
            dup_prob=args.dup,
            corrupt_prob=args.corrupt,
            reorder_prob=args.reorder,
            latency_ticks=args.latency,
            rng_seed=int.from_bytes(derive_seed(seed, "channel")[:8], "big"),
        )
        if args.listen or args.connect:
            # an infinite tick would hold the clock at 0, so no retransmission timer could fire
            if not 0 < args.tick_ms < float("inf"):
                raise ValueError(f"--tick-ms must be positive and finite, got {args.tick_ms}")
            impaired = [f"--{f}" for f in ("drop", "dup", "corrupt", "reorder", "latency") if getattr(args, f)]
            if impaired:
                raise ValueError(f"{', '.join(impaired)}: link impairments act on the simulated link only, not in UDP mode")
        if args.listen and (args.corrupt_ssc or args.corrupt_rsc):
            raise ValueError("--corrupt-ssc and --corrupt-rsc break the sender's codes: use them with --connect")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def corrupted(cfg: ProtocolConfig) -> ProtocolConfig:
        from dataclasses import replace
        if args.corrupt_ssc:
            cfg = replace(cfg, ssc=bytes(b ^ 0xFF for b in cfg.ssc))
        if args.corrupt_rsc:
            cfg = replace(cfg, rsc=bytes(b ^ 0xFF for b in cfg.rsc))
        return cfg

    if args.listen or args.connect:
        role = "receiver" if args.listen else "sender"
        try:  # the listener rejected the corrupt-code flags, so corrupted(cfg) is its cfg
            with UdpTransport(args.listen or ("0.0.0.0", 0), remote=args.connect) as transport:
                state, key, fail = run_udp(role, corrupted(cfg), derive_seed(seed, role), transport, args.tick_ms)
        except OSError as exc:
            print(f"error: transport: {exc}", file=sys.stderr)
            return 1
        if state.phase != "established" or key is None:
            print(f"failed: {fail or state.phase}")
            return 1
        print(f"key: {key.key.hex()}")
        print(f"iv: {key.iv}")
        return 0

    outcome = run_exchange(
        corrupted(cfg),
        master_seed=seed,
        channel_config=channel,
        iteration_cap=args.cap,
        receiver_cfg=cfg,
    )
    if not outcome.established or outcome.sender_key is None:
        print(f"failed: {outcome.fail_reason or 'iteration cap exceeded'}")
        return 1
    assert outcome.receiver_key is not None
    print(f"sender key:   {outcome.sender_key.key.hex()}")
    print(f"receiver key: {outcome.receiver_key.key.hex()}")
    print(f"iv: {outcome.sender_key.iv}")
    print(f"rounds: {outcome.rounds}  iterations: {outcome.iterations}  "
          f"bytes: {outcome.channel.bytes_sent}")
    return 0


def _run_points(args: argparse.Namespace, error: str | None, points, mode, run, default_out) -> int:
    """Shared body of sweep and attack: reject a usage ``error`` or a bad point before any
    runs, then print ``run(seed, *point)``'s line per ``(label, n, l)`` point, with the point's
    wall time and trials/s, and write CSV."""
    seed, generated = _seed_bytes(args.seed)
    if generated:
        print(f"master seed: {seed.hex()}")
    try:
        for _, n, l in points:
            check_point(args.k, n, l, args.rule, args.trials, args.cap, mode)
    except ValueError as exc:
        error = str(exc)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    results = []
    for point in points:
        start = time.perf_counter()
        result, line = run(seed, *point)
        wall = time.perf_counter() - start
        results.append(result)
        print(f"{line} wall {wall:.3f}s {result.trials / wall:.1f} trials/s")
    out = args.out or _out_path(default_out)
    try:
        write_sweep_csv(results, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    def run(seed: bytes, value: int, n: int, l: int):
        r = run_sync_trials(args.k, n, l, args.rule, args.trials, args.mode, args.cap,
                            derive_seed(seed, f"sweep-{args.vary}-{value}"))
        return r, (f"{args.vary}={value}: mean {r.mean_iter:.1f} "
                   f"median {r.median_iter:.1f} synced {r.synced_fraction:.3f}")

    bad = args.start < 1 or args.stop < args.start or args.step < 1
    values = () if bad else range(args.start, args.stop + 1, args.step)
    points = [(v, args.n, v) if args.vary == "l" else (v, v, args.l) for v in values]
    return _run_points(args, "bad sweep range" if bad else None, points, args.mode, run, "sweep.csv")


def _run_attack(args: argparse.Namespace) -> int:
    try:
        l_values = [int(v) for v in (args.l_values or str(args.l)).split(",")]
        error = None
    except ValueError:
        l_values, error = [], "--l-values must be comma-separated integers"

    def run(seed: bytes, label: int, n: int, l: int):
        r = run_attack_trials(args.k, n, l, args.rule, args.trials, args.cap,
                              derive_seed(seed, f"attack-{l}"))
        return r, (f"l={l}: attacker success {r.attacker_success_rate:.4f} "
                   f"AB mean {r.mean_iter:.1f} listener mean {r.mean_attacker_iter:.1f}")

    return _run_points(args, error, [(l, args.n, l) for l in l_values], "direct", run, "attack.csv")


GENERATOR_VECTOR_SEEDS = (
    bytes(range(16)),
    bytes(16),
    bytes.fromhex("deadbeefcafebabe0123456789abcdef"),
)


def _run_vectors(args: argparse.Namespace) -> int:
    out_dir = args.out_dir or os.environ.get(OUTPUT_DIR_ENV, ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
        gen_path = os.path.join(out_dir, "generator_vectors.txt")
        with open(gen_path, "w") as fh:
            fh.write("# generator conformance vectors\n")
            fh.write("# seed (16 bytes hex) -> first 8 output words (hex, big-endian)\n")
            for seed in GENERATOR_VECTOR_SEEDS:
                words, _ = next_words(seed_from_bytes(seed), 8)
                fh.write(seed.hex() + " -> " + " ".join(f"{w:016x}" for w in words) + "\n")
        frame_path = os.path.join(out_dir, "frame_vectors.txt")
        samples = [
            Syn(frame_id=0, seed=bytes(range(16)), tau=1, ek_st=bytes(range(16, 32))),
            AckSyn(frame_id=1, tau=-1),
            NakSyn(frame_id=2, tau=1),
            FinSyn(frame_id=7, iv=5),
            Auth(frame_id=8, ek_code=bytes(range(32, 48))),
        ]
        with open(frame_path, "w") as fh:
            fh.write("# frame codec conformance vectors\n")
            fh.write("# frame -> wire bytes (hex)\n")
            for frame in samples:
                fh.write(f"{frame!r} -> {encode_frame(frame).hex()}\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {gen_path}")
    print(f"wrote {frame_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand != "vectors" and args.cap < 0:
        print("error: --cap must be non-negative", file=sys.stderr)
        return 2
    if args.subcommand == "exchange":
        return _run_exchange(args)
    if args.subcommand == "sweep":
        return _run_sweep(args)
    if args.subcommand == "attack":
        return _run_attack(args)
    return _run_vectors(args)


if __name__ == "__main__":
    sys.exit(main())
