"""Outside-in spans around the public functions of each ``paritykex`` layer.

``Tracer.install`` replaces each traced function in every ``paritykex``
module namespace that holds it, so a call made through the calling module's
global (``paritykex.protocol.evaluate``, ``paritykex.exchange.decode_frame``,
...) enters a span.  Nothing in the package changes on disk.

A span's self time is its duration minus the durations of its direct child
spans; one thread runs everything, so children never overlap.  Calls and
self times are summed for every span name.  The spans themselves (name,
operation, start, end, parent) are kept in memory for the first
``KEEP_OPS`` operations only, so that a long traced run stays small, and
are written out when the run ends.  The bookkeeping a wrapper does outside
its own clock readings is charged to the caller's span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (layer, attribute in that layer's module)
TRACED = (
    ("rng", "draw_inputs"),
    ("rng", "next_bytes"),
    ("network", "init_network"),
    ("network", "evaluate"),
    ("network", "apply_learning"),
    ("network", "is_synchronized"),
    ("keycodec", "serialize_weights"),
    ("keycodec", "otp_transform"),
    ("keycodec", "extract_key"),
    ("frames", "encode_frame"),
    ("frames", "decode_frame"),
    ("protocol", "sender_advance"),
    ("protocol", "receiver_advance"),
    ("channel", "SimulatedLink.send"),
    ("channel", "SimulatedLink.poll"),
    ("exchange", "run_exchange"),
    ("analysis", "run_sync_trials"),
    ("analysis", "run_single_trial"),
    ("analysis", "run_attack_trials"),
)

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, attr in TRACED)
KEEP_OPS = 2  # operations whose spans are kept and written out


class Tracer:
    def __init__(self):
        self.op = 0
        self.keep = True
        self.stats = {name: [0, 0] for name in SPAN_NAMES}  # calls, self ns
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, op, start, end, depth
        self._stack: list[int] = []  # child ns of each open span

    def _wrap(self, name, fn, observe=None):
        stats, stack, spans, clock, tracer = self.stats[name], self._stack, self.spans, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(args, exc)
                raise
            finally:
                end = clock()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                if tracer.keep:
                    spans.append((name, tracer.op, start, end, len(stack)))
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observers(self, px):
        """Counters read at the layer boundaries, where the work happens."""
        counts = self.counts
        frames = px.frames
        errors = (
            (frames.FrameIntegrityError, "frames.decode_errors.integrity"),
            (frames.FrameTruncatedError, "frames.decode_errors.truncated"),
            (frames.FrameProtocolError, "frames.decode_errors.protocol"),
        )
        timer = px.protocol.TimerFired

        def decode(args, result):
            for cls, key in errors:
                if isinstance(result, cls):
                    counts[key] += 1

        def sender(args, result):
            if isinstance(args[1], timer):
                counts["protocol.timer_fires"] += 1

        def receiver(args, result):
            if not isinstance(result, BaseException) and result[0].cert_failures > args[0].cert_failures:
                counts["protocol.cert_rejects"] += 1

        def poll(args, result):
            if not result:
                counts["channel.poll.empty"] += 1

        return {
            "frames.decode_frame": decode,
            "protocol.sender_advance": sender,
            "protocol.receiver_advance": receiver,
            "channel.SimulatedLink.poll": poll,
        }

    def install(self, px) -> None:
        """Wrap every traced function wherever a ``paritykex`` module holds it."""
        modules = [m for name, m in sys.modules.items() if name == "paritykex" or name.startswith("paritykex.")]
        observers = self._observers(px)
        for layer, attr in TRACED:
            name = f"{layer}.{attr}"
            owner = getattr(px, layer)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method), observers.get(name)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def next_op(self) -> None:
        self.op += 1
        self.keep = self.op < KEEP_OPS

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Calls per operation and mean self time per call, for every span name."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            calls, self_ns = self.stats[name]
            out[f"{name}.calls"] = (calls / ops, "calls/op")
            out[f"{name}.self_us"] = (self_ns / calls / 1000 if calls else 0.0, "us")
        return out

    def write(self, path: str, extra: dict) -> None:
        """Write the kept spans, one JSON object a line, then the totals."""
        ordered = sorted(self.spans, key=lambda s: (s[2], s[4]))
        open_ids: list[int] = []  # span id open at each depth
        with open(path, "w") as handle:
            for span_id, (name, op, start, end, depth) in enumerate(ordered):
                del open_ids[depth:]
                parent = open_ids[-1] if open_ids else -1
                open_ids.append(span_id)
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name, "op": op,
                                         "start_ns": start, "end_ns": end}) + "\n")
            totals = {name: {"calls": c, "self_us": ns / 1000} for name, (c, ns) in self.stats.items()}
            handle.write(json.dumps({"totals": totals, "counts": dict(self.counts), **extra}) + "\n")
