"""Time each layer of one protocol round in isolation and print one JSON line of median µs.

    python3 tools/layer_bench.py [--repeat 9] [--number 2000] [--base DIR]

The rows are the layer rows of ROADMAP aim 1 at k=3, n=32, l=3 (random_walk):
the generator word and the SYN seed's input masks; ``init_network`` with the
new bank's first ``planes`` and ``unit_data`` read; ``forward_planes``,
``learn_planes`` and ``sync_probe`` on one bank; ``encode_frame`` and
``decode_frame`` of a ``Syn`` and an ``AckSyn``, each message one ``Frame``
object that carries its id; one ``sender_advance`` step (an ACK in,
the next SYN out) and one ``receiver_advance`` step (a SYN in, an ACK out);
one ``SimulatedLink`` send with the poll that delivers it, and a poll of an
empty queue; ``serialize_weights`` and ``extract_key`` on a bank held as planes;
one lossless round through two ``Endpoint``s over a ``SimulatedLink``, the
host's share beside the two machine steps: the SYN out, the ACK back, each
polled, decoded and fed, and the sender's next SYN polled off the link (so the
row holds one send and one poll more than a round of ``run_over_link``).
The lockstep trial engine's rows: ``draw_inputs_lanes`` at 4 and at 16 lanes
(the listener's and the sweep's trials a call in perfbench, both drawn per
lane) and at 500 (criterion 7's trials a call, drawn packed), and one whole
step of the (3, 4, 3, 32) listener stack (banks, lanes, k, n) as
``_lockstep_trials`` runs it: the lane draw, ``forward``, ``learn`` and the
match comparison.
Every input is built from ``SEED``; each call repeats the same work (the two
rows that read a bank's first-read caches build a new bank each call), and a
row is the median over ``--repeat`` timings of ``--number`` calls.
The package is imported from this checkout's ``src``.

A shift of the machine's speed for a whole process moves every timing in it,
so one run's rows do not compare with another run's.  ``--base DIR`` compares
two checkouts in pairs instead: each of the ``--repeat`` timings of a row runs
in a fresh process, alternately with DIR's ``tools/layer_bench.py`` and with
this checkout's, the side that runs first alternating from pair to pair.  The
JSON line holds each side's median per row (``base_rows`` for DIR, ``rows``
here) and, for the rows both have, the number of pairs this checkout ran
faster (``won``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import timeit
from functools import partial

import numpy as np

from bench_record import machine_info

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K, N, L, RULE, SEED = 3, 32, 3, "random_walk", 18


def layer_calls() -> dict:
    """Name -> zero-argument callable doing one call of that layer on fixed inputs."""
    from paritykex import channel, exchange, frames, keycodec, network, protocol, rng

    params = network.TpmParams(K, N, L)
    cfg = protocol.ProtocolConfig(params, ssc=b"layer-bench-ssc!", rsc=b"layer-bench-rsc!",
                                  rule=RULE, timeout_ticks=16, max_attempts=12)
    state = rng.seed_from_bytes(SEED.to_bytes(16, "big"))
    net, state = network.init_network(params, state)
    peer, state = network.init_network(params, state)
    (s0, s1), state = rng.next_words(state, 2)
    seed_bytes = (s0 << 64 | s1).to_bytes(16, "big")
    masks = rng.input_masks(s0, s1, K, N)[0]
    sigmas, tau = network.forward_planes(net, masks)

    sender, _ = protocol.sender_advance(protocol.SenderState(net, state), protocol.Start(), cfg)
    syn = sender.sent
    ack = frames.AckSyn(syn.frame_id, syn.tau)
    # the receiver's SYN carries the receiver's own output, so the step learns and ACKs
    peer_tau = network.forward_planes(peer, sender.inputs)[1]
    peer_syn = frames.Syn(syn.frame_id, syn.seed, peer_tau, syn.ek_st)
    receiver = protocol.ReceiverState(peer, state)
    syn_wire, ack_wire = frames.encode_frame(syn), frames.encode_frame(ack)
    link = channel.SimulatedLink()

    # a receiver bank whose output on the SYN's inputs agrees with the sender's, so it learns and ACKs
    ack_bank, draws = peer, state
    while network.forward_planes(ack_bank, sender.inputs)[1] != syn.tau:
        ack_bank, draws = network.init_network(params, draws)
    agreeing = protocol.ReceiverState(ack_bank, state)
    round_link = channel.SimulatedLink()
    host_a = exchange.Endpoint("sender", cfg, bytes(16), partial(round_link.send, "a"))
    host_b = exchange.Endpoint("receiver", cfg, bytes(16), partial(round_link.send, "b"))

    def exchange_round():
        host_a.state, host_b.state = sender, agreeing
        host_a.send(syn_wire, 0)
        for datagram in round_link.poll("b", 0):
            host_b.receive(datagram, 0)
        for datagram in round_link.poll("a", 0):
            host_a.receive(datagram, 0)
        return round_link.poll("b", 0)  # the next SYN, so that every call starts from an empty link

    def init_bank():
        bank, _ = network.init_network(params, state)
        return bank.planes, bank.unit_data

    def key_material():
        # a bank as learn_planes leaves it: planes and unit_data, no weights read yet
        bank = network.TpmNetwork._of_planes(params, net.planes, net.unit_data)
        return keycodec.extract_key(keycodec.serialize_weights(bank), 0)

    master = SEED.to_bytes(16, "big")
    lane_seeds = [exchange.derive_seed(master, f"lane-{t}") for t in range(500)]
    lane_states = {count: rng.seed_lanes(lane_seeds[:count]) for count in (4, 16, 500)}
    stack, generators = [], lane_states[4]
    for _ in range(3):  # A, B and E, drawn one after another from each lane's generator
        bank, generators = network.init_network_lanes(params, generators)
        stack.append(bank)
    stack = np.stack(stack)  # (banks, lanes, k, n)

    def lockstep_step():
        x, _ = rng.draw_inputs_lanes(lane_states[4], K, N)
        _, sigmas, taus = network.forward(stack, x)
        learned = network.learn(stack, x, sigmas, taus[0], taus[0] == taus[1], RULE, L)
        return (learned[1:] == learned[0]).all(axis=(2, 3))

    def send_and_poll():
        link.send("a", syn_wire, 0)
        return link.poll("b", 0)

    return {
        "rng.next_word": lambda: rng.next_word(state),
        "rng.input_masks": lambda: rng.input_masks(s0, s1, K, N),
        "network.init": init_bank,
        "network.forward_planes": lambda: network.forward_planes(net, masks),
        "network.learn_planes": lambda: network.learn_planes(net, masks, sigmas, tau, RULE),
        "protocol.sync_probe": lambda: protocol.sync_probe(net, seed_bytes, syn.frame_id),
        "frames.encode_frame.syn": lambda: frames.encode_frame(syn),
        "frames.encode_frame.ack": lambda: frames.encode_frame(ack),
        "frames.decode_frame.syn": lambda: frames.decode_frame(syn_wire),
        "frames.decode_frame.ack": lambda: frames.decode_frame(ack_wire),
        "protocol.sender_advance": lambda: protocol.sender_advance(sender, ack, cfg),
        "protocol.receiver_advance": lambda: protocol.receiver_advance(receiver, peer_syn, cfg),
        "channel.send_and_poll": send_and_poll,
        "channel.poll_empty": lambda: link.poll("b", 0),
        "keycodec.key_material": key_material,
        "exchange.round": exchange_round,
        "rng.draw_inputs_lanes.4": lambda: rng.draw_inputs_lanes(lane_states[4], K, N),
        "rng.draw_inputs_lanes.16": lambda: rng.draw_inputs_lanes(lane_states[16], K, N),
        "rng.draw_inputs_lanes.500": lambda: rng.draw_inputs_lanes(lane_states[500], K, N),
        "analysis.lockstep_step": lockstep_step,
    }


def timed_rows(repeat: int, number: int) -> dict:
    """Each row's median µs over ``repeat`` timings of ``number`` calls, all in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    rows = {}
    for name, call in layer_calls().items():
        call()  # fill the bank's first-read caches before timing
        times = timeit.repeat(call, repeat=repeat, number=number)
        rows[name] = round(statistics.median(times) / number * 1e6, 3)
    return rows


def paired_rows(base: str, repeat: int, number: int) -> dict:
    """``repeat`` alternating pairs of one-timing runs of ``base``'s tool and this one: medians and wins."""
    tools = {"base": os.path.join(base, "tools", "layer_bench.py"), "here": os.path.abspath(__file__)}
    runs = {"base": [], "here": []}
    for pair in range(repeat):
        for side in ("base", "here") if pair % 2 == 0 else ("here", "base"):
            command = [sys.executable, tools[side], "--repeat", "1", "--number", str(number)]
            out = subprocess.run(command, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(out.stdout)["rows"])
    medians = {side: {name: round(statistics.median(run[name] for run in timed), 3) for name in timed[0]}
               for side, timed in runs.items()}
    won = {name: sum(here[name] < base[name] for base, here in zip(runs["base"], runs["here"]))
           for name in medians["here"] if name in medians["base"]}
    return {"base": base, "base_rows": medians["base"], "rows": medians["here"], "won": won}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=9, help="timings per row; the row is their median")
    ap.add_argument("--number", type=int, default=2000, help="calls per timing")
    ap.add_argument("--base", metavar="DIR", help="another checkout to time against, in alternating pairs")
    args = ap.parse_args(argv)
    if args.repeat < 1 or args.number < 1:
        ap.error("--repeat and --number must be at least 1")
    if args.base is None:
        record = {"rows": timed_rows(args.repeat, args.number)}
    elif os.path.isfile(os.path.join(args.base, "tools", "layer_bench.py")):
        record = paired_rows(args.base, args.repeat, args.number)
    else:
        ap.error(f"--base {args.base} holds no tools/layer_bench.py")
    print(json.dumps({
        "unit": "us", **record, "seed": SEED,
        "params": {"k": K, "n": N, "l": L, "rule": RULE},
        "repeat": args.repeat, "number": args.number,
        "machine": machine_info(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
