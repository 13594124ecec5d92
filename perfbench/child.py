"""One workload process: set up, run timed operations, print one JSON line.

Started by ``run.py`` with the BLAS thread pools pinned to one thread. The
``setup`` phase only measures set-up time, ``time`` runs untraced operations
for the given number of seconds, and ``trace`` alternates untraced and traced
operations of the same seed to give per-layer figures and the tracing
overhead. Set-up time counts from the moment the parent started the process
(``--spawned``, a ``time.monotonic()`` reading) to the first timed call.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")


def import_program():
    sys.path.insert(0, SRC)
    import spadesim
    if not os.path.abspath(spadesim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"spadesim imported from {spadesim.__file__}, not from {SRC}")


class Gate:
    """Output gate: each operation's digest must equal the expected one.

    The expected digest is the stored reference for this seed when there is
    one; otherwise it is the first operation's digest, so every later
    operation (traced or not) must reproduce it. Exceptions, digest
    mismatches and broken invariants all count as failed operations.
    """

    def __init__(self, expected: str | None, how: str):
        self.expected = expected
        self.reference = how
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stats = None
        self.digest = None

    def record(self, wl, out) -> None:
        self.attempted += 1
        digest, stats, problems = wl.check(out)
        if self.expected is None:
            self.expected = digest
        if digest != self.expected:
            problems = problems + [f"digest {digest[:16]} != expected {self.expected[:16]}"]
        if self.digest is None:
            self.digest, self.stats = digest, stats
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def error(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append("".join(traceback.format_exception_only(type(exc), exc)).strip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--phase", choices=["setup", "time", "trace"], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--expect", help="expected output digest (overrides the stored reference)")
    args = ap.parse_args(argv)

    import_program()
    import workloads  # noqa: E402  (needs spadesim on the path)
    from calibrate import probe  # noqa: E402
    from spans import Recorder, layer_metrics  # noqa: E402

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.size, OUT_DIR)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "setup_probe_s": statistics.median(probe() for _ in range(3))}
    if args.phase == "setup":
        print(json.dumps(result))
        return 0

    info = versions()
    expected, how = stored_reference(args.workload, args.size, args.seed,
                                     info["fingerprint"], workloads.params_digest(wl.p))
    if args.expect:
        expected, how = args.expect, "given on the command line"

    gate = Gate(expected, how)
    walls, probes, traced_walls, layer = [], [], [], []
    vectors = None
    first_out = first_rss = None
    recorder = Recorder() if args.phase == "trace" else None
    # serial workloads alternate their operations over the allowed CPUs, so a
    # slow phase of one CPU (a busy neighbour on a shared host) hits only part
    # of the samples; a worker pool keeps every CPU
    cpus = sorted(os.sched_getaffinity(0))
    rotate = len(cpus) > 1 and wl.p.get("workers", 1) == 1
    deadline = time.monotonic() + args.seconds
    run_id = 0
    for step in itertools.count():
        step_start = time.monotonic()
        if rotate:
            os.sched_setaffinity(0, {cpus[step % len(cpus)]})
        try:
            before = probe()
            t0 = time.perf_counter()
            out = wl.call()
            walls.append(time.perf_counter() - t0)
            probes.append((before + probe()) / 2)
            vectors = wl.vectors(out)
            gate.record(wl, out)
            if first_out is None:
                # the workload's peak: set-up plus one operation; later repeats
                # only add allocator fragmentation, which varies run to run
                first_out, first_rss = out, _peak_rss_mib()
            if recorder is not None:
                run_id += 1
                first_span = len(recorder.spans)
                out, wall = recorder.run(run_id, workloads.MODULES, wl.call)
                traced_walls.append(wall)
                gate.record(wl, out)
                layer.append(layer_metrics(recorder.spans[first_span:], recorder.keys,
                                           wl.blocks_span, wl.probe_vectors(out)))
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            gate.error(exc)
        now = time.monotonic()
        if now + (now - step_start) > deadline:
            break
    os.sched_setaffinity(0, cpus)
    if first_out is not None:
        problems = wl.oracle(first_out)
        if problems:
            gate.failed = gate.attempted
            gate.problems.extend(problems)

    result.update({
        "attempted": gate.attempted, "failed": gate.failed, "problems": gate.problems[:10],
        "digest": gate.digest, "reference": gate.reference, "stats": gate.stats,
        "walls": walls, "probes": probes, "vectors_per_op": vectors,
        "params": wl.p, "meta": workloads.META[args.workload], "versions": info,
        "peak_rss_mib": first_rss if first_rss is not None else _peak_rss_mib(),
        "run_peak_rss_mib": _peak_rss_mib(),
    })
    if recorder is not None:
        recorder.write(os.path.join(OUT_DIR, f"spans-{args.workload}.csv"))
        result["layer"] = {k: statistics.median(m[k] for m in layer) for k in layer[0]} if layer else {}
        result["traced_walls"] = traced_walls
    print(json.dumps(result))
    return 0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions() -> dict:
    """Library versions, plus a fingerprint of everything a bit-exact output
    may depend on: interpreter, NumPy and BLAS builds, and the CPU features
    that select their kernels."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        features = sorted(k for k, on in __cpu_features__.items() if on)
    except ImportError:
        features = None
    info = {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}
    basis = [platform.machine(), platform.python_version(), info, features]
    info["fingerprint"] = hashlib.sha256(json.dumps(basis, sort_keys=True).encode()).hexdigest()[:16]
    return info


def stored_reference(workload: str, size: str, seed: int, fingerprint: str,
                     params: str) -> tuple[str | None, str]:
    """(digest, how) from reference.json, for the platform and parameters that made it."""
    if size != "full" or not os.path.exists(REFERENCE):
        return None, "first-op"
    with open(REFERENCE, encoding="ascii") as f:
        ref = json.load(f)
    if ref.get("fingerprint") != fingerprint:
        return None, "first-op (reference.json is from another platform)"
    table = ref["workloads"].get(workload, {})
    if table.get("params") != params:
        return None, "first-op (reference.json has other workload parameters)"
    digest = table["digests"].get(str(seed))
    return digest, ("stored" if digest else "first-op (no stored digest for this seed)")


if __name__ == "__main__":
    sys.exit(main())
