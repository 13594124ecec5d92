"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are recorded from the benchmark's side only: while a traced operation
runs, every public function that a layer module imports from another layer is
replaced in that module's namespace by a wrapper that records a span, and so
is every public function and method of the entry layers (``harness`` and
``datapath``), which call each other and are called by the benchmark. Nothing under ``src/``
is edited; the original functions are put back when the operation ends.

Each span records its name, start, end, parent span, thread and run id. The
parent is the innermost open span of the same thread; a worker thread with no
open span of its own (the harness thread pool) takes the innermost open span
of the thread that started the run. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("channel", "beamspace", "numerics", "equalizer", "datapath", "harness")
# layers whose own public functions are boundaries too: the benchmark calls them
# and they call each other (threshold_sweep -> snr_operating_point, ...)
ENTRY_LAYERS = ("harness", "datapath")
ROOT = "bench.op"
COUNTER = "trace.counter"


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    pkg, _, leaf = mod.rpartition(".")
    return leaf if pkg == "spadesim" and leaf in LAYERS else None


def _digest(*parts: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p)
    return h.digest()


def _matrix_bytes(m) -> bytes:
    entries = getattr(m, "entries", m)
    return np.ascontiguousarray(entries).tobytes()


def _channel_key(args, kwargs, result) -> bytes:
    return _digest(_matrix_bytes(result))


def _lmmse_key(args, kwargs, result) -> bytes:
    H = args[0] if args else kwargs["H"]
    N0 = args[1] if len(args) > 1 else kwargs["N0"]
    return _digest(_matrix_bytes(H), repr(float(N0)).encode())


# distinct-argument counters: useful work is the share of calls with a new key
DISTINCT_KEYS = {
    "channel.draw_channel_matrix": _channel_key,
    "equalizer.compute_lmmse": _lmmse_key,
}


def _transform_name(args, kwargs) -> str:
    # the weight side calls the exact DFT, the input side the radix-4 FFT
    cfg = next((a for a in (*args[1:], *kwargs.values()) if hasattr(a, "exact")), None)
    return "beamspace.to_beamspace." + ("exact" if cfg is None or cfg.exact else "radix4")


class Recorder:
    """In-memory span store with install/uninstall of the boundary wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []  # (run, id, parent, name, t0_ns, t1_ns, thread)
        self.keys: dict[str, set] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._root_stack: list[int] = []
        self._run = 0

    def _stack(self) -> list[int]:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _open(self, stack):
        sid = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            parent = root[-1] if root else 0
        stack.append(sid)
        return sid, parent

    def wrap(self, name: str, fn):
        record = self.spans.append
        clock = time.perf_counter_ns
        key_of = DISTINCT_KEYS.get(name)
        named = _transform_name if name == "beamspace.to_beamspace" else None

        def span(*args, **kwargs):
            stack = self._stack()
            sid, parent = self._open(stack)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((self._run, sid, parent, named(args, kwargs) if named else name,
                        t0, t1, threading.get_ident()))
            if key_of is not None:
                # hashing is the benchmark's cost: give it its own span
                self.keys[name].add(key_of(args, kwargs, result))
                record((self._run, next(self._ids), parent, COUNTER, t1, clock(),
                        threading.get_ident()))
            return result

        return span

    def install(self, modules) -> list[tuple]:
        """Wrap the boundary functions in each layer module; returns undo records.

        Public methods of the entry layers' own classes are wrapped as well
        (``MuteTrace.mute_count`` is datapath work the benchmark calls).
        """
        patched = []

        def patch(holder, attr, name, fn):
            setattr(holder, attr, self.wrap(name, fn))
            patched.append((holder, attr, fn))

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                owner = _layer_of(obj)
                if owner is None or (owner == layer and layer not in ENTRY_LAYERS):
                    continue
                if isinstance(obj, types.FunctionType):
                    patch(mod, attr, f"{owner}.{attr}", obj)
                elif isinstance(obj, type) and owner == layer:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            patch(obj, meth, f"{owner}.{attr}.{meth}", fn)
        return patched

    @staticmethod
    def uninstall(patched) -> None:
        for holder, attr, obj in reversed(patched):
            setattr(holder, attr, obj)

    def run(self, run_id: int, modules, fn):
        """Call ``fn`` traced under a root span; returns (result, wall_s)."""
        self._run = run_id
        # made up front: worker threads only add to them
        self.keys = {name: set() for name in DISTINCT_KEYS}
        patched = self.install(modules)
        stack = self._stack()
        self._root_stack = stack
        sid, parent = self._open(stack)
        t0 = time.perf_counter_ns()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((run_id, sid, parent, ROOT, t0, t1, threading.get_ident()))
            self._root_stack = []
            self.uninstall(patched)
        return result, (t1 - t0) / 1e9

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write("run,id,parent,name,start_ns,end_ns,thread\n")
            for s in self.spans:
                f.write(",".join(str(v) for v in s) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s[2]].append((s[4], s[5]))
    out = {}
    for _run, sid, _parent, _name, t0, t1, _thread in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, keys, blocks_name: str, probe_vectors: int) -> dict[str, float]:
    """Per-layer figures of one traced operation (the spans of one run id)."""
    selfs = self_times(spans)
    by_id = {s[1]: s for s in spans}
    dur = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    layer_self = defaultdict(int)
    kernel_calls = 0
    grid_draws = 0
    for s in spans:
        name = s[3]
        dur[name] += s[5] - s[4]
        own[name] += selfs[s[1]]
        calls[name] += 1
        layer_self[name.partition(".")[0]] += selfs[s[1]]
        parent = by_id.get(s[2])
        if parent is None:
            continue
        if name.startswith("equalizer.") and parent[3].startswith("datapath."):
            kernel_calls += 1
        if name == "channel.draw_channel_matrix" and _has_ancestor(s, "harness.activity_grid", by_id):
            grid_draws += 1
    wall = dur[ROOT]
    blocks = max(calls[blocks_name], 1)

    def per_block_ms(ns):
        return ns / blocks / 1e6

    def ratio(name):
        return len(keys.get(name, ())) / calls[name] if calls[name] else 1.0

    m = {
        "harness.blocks": calls[blocks_name],
        "channel.draw_channel_matrix.ms_per_block": per_block_ms(dur["channel.draw_channel_matrix"]),
        "channel.draw_channel_matrix.calls": calls["channel.draw_channel_matrix"],
        "channel.draw_channel_matrix.distinct_ratio": ratio("channel.draw_channel_matrix"),
        "channel.qam_modulate.ms_per_block": per_block_ms(dur["channel.qam_modulate"]),
        "channel.qam_demodulate.ms_per_block": per_block_ms(dur["channel.qam_demodulate"]),
        "beamspace.to_beamspace.radix4.ms_per_block": per_block_ms(dur["beamspace.to_beamspace.radix4"]),
        "beamspace.to_beamspace.exact.ms_per_block": per_block_ms(dur["beamspace.to_beamspace.exact"]),
        "equalizer.compute_lmmse.ms_per_block": per_block_ms(dur["equalizer.compute_lmmse"]),
        "equalizer.compute_lmmse.calls": calls["equalizer.compute_lmmse"],
        "equalizer.compute_lmmse.distinct_ratio": ratio("equalizer.compute_lmmse"),
        "equalizer.scale_rows.ms_per_block": per_block_ms(dur["equalizer.scale_rows"]),
        "equalizer.build_weights.ms_per_block": per_block_ms(dur["equalizer.build_weights"]),
        "equalizer.equalize_block.self_ms_per_block": per_block_ms(own["equalizer.equalize_block"]),
        "equalizer.equalize_tagged.us_per_vector": (
            dur["equalizer.equalize_tagged"] / calls["equalizer.equalize_tagged"] / 1e3
            if calls["equalizer.equalize_tagged"] else 0.0),
        "datapath.kernel_calls": kernel_calls,
        "datapath.simulate_stream.self_s": own["datapath.simulate_stream"] / 1e9,
        "numerics.quantize_raw.ms_per_block": per_block_ms(dur["numerics.quantize_raw"]),
        "numerics.quantize_raw.calls": calls["numerics.quantize_raw"],
        "harness.activity_grid.s": dur["harness.activity_grid"] / 1e9,
        "harness.activity_grid.draws": grid_draws,
        "harness.snr_operating_point.s": dur["harness.snr_operating_point"] / 1e9,
        "harness.probe_vectors": probe_vectors,
        "harness.render_report.ms": dur["harness.render_report"] / 1e6,
        "harness.emit_sweep.ms": dur["harness.emit_sweep"] / 1e6,
        "trace.wall_ms_per_block": per_block_ms(wall),
        "trace.self_sum_pct": 100.0 * sum(selfs.values()) / wall if wall else 0.0,
        "trace.spans": len(spans),
    }
    for layer in LAYERS + ("bench", "trace"):
        m[f"{layer}.self_ms_per_block"] = per_block_ms(layer_self[layer])
    return m


def _has_ancestor(span, name, by_id) -> bool:
    p = by_id.get(span[2])
    while p is not None:
        if p[3] == name:
            return True
        p = by_id.get(p[2])
    return False
