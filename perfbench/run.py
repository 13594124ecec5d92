"""spadesim benchmark: entry point.

    python3 perfbench/run.py --workload ber-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A single-process, closed-loop benchmark: each workload process calls the
library's public functions one operation at a time, waiting for each to
finish. With ``--trace 0`` the last stdout line holds the end-to-end metrics
(tracing off; host times put on a steady scale by ``calibrate.py``); with
``--trace 1`` it holds the per-layer metrics of a separate traced run. The line before it records provenance, workload
parameters and the simulated statistics of the output, so that a diff of two
results shows what moved. Run from the root of a source checkout: the program
is imported from ``src/`` there and nowhere else.

``--smoke`` runs every workload at a tiny size, untraced and traced, checks
that every metric named in BENCHMARK.json is emitted with its unit and that
the output gate trips on a wrong digest, and prints each metric with the
gate's verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import scale
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "spadesim")

PER_LAYER = {
    "harness.blocks": "count",
    "channel.draw_channel_matrix.ms_per_block": "ms",
    "channel.draw_channel_matrix.calls": "count",
    "channel.draw_channel_matrix.distinct_ratio": "ratio",
    "channel.qam_modulate.ms_per_block": "ms",
    "channel.qam_demodulate.ms_per_block": "ms",
    "beamspace.to_beamspace.radix4.ms_per_block": "ms",
    "beamspace.to_beamspace.exact.ms_per_block": "ms",
    "equalizer.compute_lmmse.ms_per_block": "ms",
    "equalizer.compute_lmmse.calls": "count",
    "equalizer.compute_lmmse.distinct_ratio": "ratio",
    "equalizer.scale_rows.ms_per_block": "ms",
    "equalizer.build_weights.ms_per_block": "ms",
    "equalizer.equalize_block.self_ms_per_block": "ms",
    "equalizer.equalize_tagged.us_per_vector": "us",
    "datapath.kernel_calls": "count",
    "datapath.simulate_stream.self_s": "s",
    "numerics.quantize_raw.ms_per_block": "ms",
    "numerics.quantize_raw.calls": "count",
    "harness.self_ms_per_block": "ms",
    "harness.activity_grid.s": "s",
    "harness.activity_grid.draws": "count",
    "harness.snr_operating_point.s": "s",
    "harness.probe_vectors": "count",
    "harness.render_report.ms": "ms",
    "harness.emit_sweep.ms": "ms",
    "channel.self_ms_per_block": "ms",
    "beamspace.self_ms_per_block": "ms",
    "numerics.self_ms_per_block": "ms",
    "equalizer.self_ms_per_block": "ms",
    "datapath.self_ms_per_block": "ms",
    "bench.self_ms_per_block": "ms",
    "trace.self_ms_per_block": "ms",
    "trace.wall_ms_per_block": "ms",
    "trace.self_sum_pct": "%",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}
WORKLOADS = ("ber-default", "ber-antenna-long", "sweep-small", "stream-trace")
SETUP_PROCESSES = 6  # extra set-up-only processes; setup_s is the median of these and the timed one
RUN_BUDGET_S = 175.0  # a run and every process it starts end within this
# one BLAS thread per process, so the thread count is the workload's `workers`
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _child(workload, seed, seconds, phase, size, deadline, expect=None, cpu=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--phase", phase, "--size", size]
    if expect:
        cmd += ["--expect", expect]
    env = dict(os.environ, **PINNED_ENV)
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    spawned = time.monotonic()
    timeout = deadline - spawned
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout,
                              preexec_fn=pin)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {phase} process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {phase} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, size="full", setup_processes=SETUP_PROCESSES):
    """Run one workload; returns (summary line, result line) as dicts."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        main = _child(workload, seed, seconds, "trace", size, deadline)
        # traced and untraced operations run in pairs on the same CPU
        overhead = 100.0 * (statistics.median(
            t / u for t, u in zip(main["traced_walls"], main["walls"])) - 1.0)
        layer = dict(main["layer"], **{"trace.overhead_pct": overhead})
        metrics = {k: _metric(layer[k], unit) for k, unit in PER_LAYER.items()}
        setups = [main]
    else:
        # set-up-only processes take turns on the CPUs, like the timed operations
        cpus = sorted(os.sched_getaffinity(0))
        setups = [_child(workload, seed, seconds, "setup", size, deadline, cpu=cpus[i % len(cpus)])
                  for i in range(setup_processes)]
        main = _child(workload, seed, seconds, "time", size, deadline)
        setups.append(main)
        wall = statistics.median(map(scale, main["walls"], main["probes"]))
        metrics = {
            "vectors_per_s": _metric(main["vectors_per_op"] / wall, "1/s"),
            "wall_s": _metric(wall, "s"),
            "setup_s": _metric(statistics.median(scale(c["setup_s"], c["setup_probe_s"])
                                                 for c in setups), "s"),
            "peak_rss_mib": _metric(main["peak_rss_mib"], "MiB"),
        }
    correct = main["failed"] == 0 and main["attempted"] >= 1
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace), "size": size,
        "params": main["params"], **main["meta"],
        "provenance": dict(provenance(), **main["versions"]),
        "operations": len(main["walls"]), "vectors_per_op": main["vectors_per_op"],
        "host_wall_s": main["walls"], "probe_s": main["probes"],
        "host_setup_s": [c["setup_s"] for c in setups],
        "run_peak_rss_mib": main["run_peak_rss_mib"],
        "setup_probe_s": [c["setup_probe_s"] for c in setups],
        "gate": {"reference": main["reference"], "digest": main["digest"],
                 "problems": main["problems"]},
        "stats": main["stats"],
    }
    result = {"correct": correct, "attempted": main["attempted"], "failed": main["failed"],
              "metrics": metrics}
    return summary, result


def provenance() -> dict:
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC_PACKAGE):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    src.update(f.read())
    return {
        "git_commit": _git_commit(), "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "thread_env": PINNED_ENV,
    }


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="ascii") as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="ascii") as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="ascii") as f:
            for line in f:
                sha, _, name = line.strip().partition(" ")
                if name == ref[5:]:
                    return sha
    return None


def smoke() -> int:
    """Tiny-size run of every workload, untraced and traced, plus a gate trip."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            summary, result = run(workload, 1, 0.5, trace, size="tiny", setup_processes=1)
            emitted = result["metrics"]
            faults = [f"missing {n}" for n in wanted[trace] if n not in emitted]
            faults += [f"unit of {n}" for n, u in wanted[trace].items()
                       if n in emitted and emitted[n]["unit"] != u]
            if trace:
                busy = {layer for layer in LAYERS
                        if emitted[f"{layer}.self_ms_per_block"]["value"] > 0}
                if busy != set(summary["modules"]):
                    faults.append(f"layers run {sorted(busy)} != declared {summary['modules']}")
                # serial runs: the self times of all spans add up to the traced wall time
                if summary["params"].get("workers", 1) == 1 and \
                        abs(emitted["trace.self_sum_pct"]["value"] - 100.0) > 1e-6:
                    faults.append("self times do not add up to the traced wall time")
            ok &= result["correct"] and not faults
            print(f"== {workload} trace={trace}: gate={'pass' if result['correct'] else 'FAIL'} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"reference={summary['gate']['reference']}" + "".join(f"; {i}" for i in faults))
            for name, m in emitted.items():
                print(f"   {name:48s} {m['value']:>14.6g} {m['unit']}")
    bad = "0" * 64
    main = _child("ber-default", 1, 0.5, "time", "tiny", time.monotonic() + RUN_BUDGET_S,
                  expect=bad)
    tripped = main["failed"] == main["attempted"] >= 1
    ok &= tripped
    print(f"== gate with a wrong reference digest: failed={main['failed']}/{main['attempted']} "
          f"-> {'trips as it must' if tripped else 'DID NOT TRIP'}")
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny-size self-test of every workload")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no spadesim sources at {SRC_PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        summary, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="ascii") as f:
        json.dump({"summary": summary, "result": result}, f, indent=1)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
