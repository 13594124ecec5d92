"""The four benchmark workloads: their inputs, the timed call, and the output gate.

Every workload is built from ``--seed`` alone and does the same amount of
simulated work for any seed: BER points stop on a fixed vector count (the
error target is out of reach), every sweep probe runs exactly one wave of
blocks, and the stream has a fixed length. The timed call includes the report
emission a user waits for; hashing and checking the output happen after it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from spadesim import beamspace, channel, datapath, equalizer, harness, numerics

MODULES = {m.__name__.rpartition(".")[2]: m
           for m in (channel, beamspace, numerics, equalizer, datapath, harness)}

UNREACHABLE_ERRORS = 1 << 62

# name -> simulation parameters at full size; TINY overrides them for the
# smoke test. Every parameter is part of the stored digests' key.
SPECS = {
    "ber-default": dict(
        kind="ber", mode="lmmse-spade", channel="los", snr_db=[8.0, 12.0],
        B=64, U=16, M=16, vectors_per_block=100, workers=1, vectors_per_point=2000),
    "ber-antenna-long": dict(
        kind="ber", mode="lmmse-a", channel="nlos", snr_db=[10.0, 14.0],
        B=64, U=16, M=16, vectors_per_block=1000, workers=2, vectors_per_point=8000),
    # every probe is one block (probe_cap = vectors_per_block), so the work is
    # the same for every seed
    "sweep-small": dict(
        kind="sweep", mode="lmmse-spade", channel="los", grid_points=4,
        B=64, U=16, M=16, vectors_per_block=100, workers=1,
        target_ber=0.01, activity_draws=20, vectors_per_draw=2, probe_cap=100),
    "stream-trace": dict(
        kind="stream", channel="los", snr_db=10.0, B=64, U=16, M=16, vectors=10000),
}

TINY = {
    "ber-default": dict(vectors_per_point=200),
    "ber-antenna-long": dict(vectors_per_point=2000),
    "sweep-small": dict(grid_points=2, activity_draws=4),
    "stream-trace": dict(vectors=200),
}

# Why each workload was chosen, the layers its timed call runs, and the
# per-layer metrics predicted not to move on it whatever a change does to the
# mechanism they measure on other workloads.
_NOT_DATAPATH = ["equalizer.equalize_tagged.us_per_vector", "datapath.kernel_calls",
                 "datapath.simulate_stream.self_s"]
_NO_SWEEP = ["channel.draw_channel_matrix.distinct_ratio",
             "equalizer.compute_lmmse.distinct_ratio",
             "harness.activity_grid.s", "harness.snr_operating_point.s"]
META = {
    "ber-default": dict(
        why="the fixed cost per block dominates: channel synthesis and the radix-4 input "
            "transform, where vectorizing either shows",
        modules=["harness", "channel", "beamspace", "numerics", "equalizer"],
        unchanged=_NO_SWEEP + _NOT_DATAPATH),
    "ber-antenna-long": dict(
        why="transform and skipping are bypassed and channel cost is spread over 1000 "
            "vectors: the block loop, worker pool, RNG draws, QAM and quantize dominate",
        modules=["harness", "channel", "numerics", "equalizer"],
        unchanged=["beamspace.to_beamspace.radix4.ms_per_block",
                   "beamspace.to_beamspace.exact.ms_per_block"] + _NO_SWEEP + _NOT_DATAPATH),
    "sweep-small": dict(
        why="threshold-independent work is redone for every pair: channels and LMMSE "
            "solves repeat, which is what a sweep prefix cache removes",
        modules=["harness", "channel", "beamspace", "numerics", "equalizer"],
        unchanged=["channel.qam_modulate.ms_per_block",
                   "channel.qam_demodulate.ms_per_block"] + _NOT_DATAPATH),
    "stream-trace": dict(
        why="the only caller of simulate_stream: one masked MVM and one dense mute mask "
            "per vector, so time and memory grow with the stream",
        modules=["datapath", "equalizer"],
        unchanged=["channel.draw_channel_matrix.ms_per_block",
                   "equalizer.compute_lmmse.ms_per_block", "equalizer.scale_rows.ms_per_block",
                   "equalizer.build_weights.ms_per_block",
                   "equalizer.equalize_block.self_ms_per_block", "harness.self_ms_per_block"]),
}


def params(name: str, size: str) -> dict:
    p = dict(SPECS[name])
    if size == "tiny":
        p.update(TINY[name])
    return p


def params_digest(p: dict) -> str:
    return hashlib.sha256(json.dumps(p, sort_keys=True).encode()).hexdigest()[:16]


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _warm_twiddles(B: int) -> None:
    # fills the radix-4 twiddle cache so the first timed call does not pay for it
    tw = beamspace.TwiddleConfig(exact=False, twiddle_fmt=numerics.TWIDDLE_FMT)
    beamspace.to_beamspace(np.zeros((B, 1), dtype=np.complex128), tw)


class Workload:
    """A seeded workload: ``call()`` is the timed section, ``check()`` the gate."""

    blocks_span = "channel.draw_channel_matrix"

    def __init__(self, name: str, seed: int, size: str, scratch_dir: str):
        self.name = name
        self.seed = seed
        self.p = params(name, size)
        self.scratch_dir = scratch_dir

    def vectors(self, out) -> int:
        raise NotImplementedError

    def probe_vectors(self, out) -> int:
        return 0

    def oracle(self, out) -> list[str]:
        """Problems found by a second, independent path to the same output."""
        return []


class BerWorkload(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        p = self.p
        self.cfg = harness.RunConfig(B=p["B"], U=p["U"], M=p["M"], channel=p["channel"],
                                     seed=self.seed, vectors_per_block=p["vectors_per_block"],
                                     workers=p["workers"])
        self.stop = harness.StopRule(target_errors=UNREACHABLE_ERRORS,
                                     max_vectors=p["vectors_per_point"])
        _warm_twiddles(p["B"])

    def call(self):
        report = harness.run_ber(self.cfg, self.p["snr_db"], self.p["mode"], self.stop)
        return report, harness.render_report(report, "csv")

    def vectors(self, out) -> int:
        return sum(pt.trials for pt in out[0].points)

    def check(self, out):
        report, text = out
        p = self.p
        bits_per_vector = p["U"] * int(math.log2(p["M"]))
        problems = []
        for pt in report.points:
            if pt.trials != p["vectors_per_point"]:
                problems.append(f"{pt.snr_db} dB: {pt.trials} vectors, expected {p['vectors_per_point']}")
            if not 0 <= pt.bit_errors <= pt.trials * bits_per_vector:
                problems.append(f"{pt.snr_db} dB: bit_errors {pt.bit_errors} out of range")
            if not 0.0 <= pt.activity_min <= pt.activity_mean <= pt.activity_max <= 1.0:
                problems.append(f"{pt.snr_db} dB: activity out of order")
            if p["mode"] != "lmmse-spade" and pt.activity_mean != 1.0:
                problems.append(f"{pt.snr_db} dB: activity {pt.activity_mean} without skipping")
        stats = {"points": [{"snr_db": pt.snr_db, "trials": pt.trials,
                             "bit_errors": pt.bit_errors, "activity_mean": pt.activity_mean}
                            for pt in report.points]}
        return _sha256(text.encode("ascii")), stats, problems


class SweepWorkload(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        p = self.p
        self.cfg = harness.RunConfig(B=p["B"], U=p["U"], M=p["M"], channel=p["channel"],
                                     seed=self.seed, vectors_per_block=p["vectors_per_block"],
                                     workers=p["workers"])
        self.grid = np.geomspace(2.0**-9, 2.0**-1, p["grid_points"])
        self.path = os.path.join(self.scratch_dir, f"sweep-{os.getpid()}.csv")
        _warm_twiddles(p["B"])

    def call(self):
        p = self.p
        records = harness.threshold_sweep(
            self.cfg, self.grid, self.grid, mode=p["mode"], target_ber=p["target_ber"],
            activity_draws=p["activity_draws"], vectors_per_draw=p["vectors_per_draw"],
            probe_cap=p["probe_cap"])
        harness.emit_sweep(records, self.path)
        return records

    def probe_vectors(self, records) -> int:
        return sum(v for r in records for _snr, _ber, v in r.ber_curve)

    def vectors(self, records) -> int:
        p = self.p
        return self.probe_vectors(records) + len(records) * p["activity_draws"] * p["vectors_per_draw"]

    def check(self, records):
        with open(self.path, "rb") as f:
            text = f.read()
        os.remove(self.path)
        n = self.p["grid_points"] ** 2
        problems = []
        if len(records) != n:
            problems.append(f"{len(records)} records, expected {n}")
        if any(not 0.0 <= r.mean_activity_rate <= 1.0 for r in records):
            problems.append("activity rate outside [0, 1]")
        if [r.mean_activity_rate for r in records] != sorted(r.mean_activity_rate for r in records):
            problems.append("records not sorted by activity")
        if not any(r.pareto for r in records):
            problems.append("empty Pareto frontier")
        stats = {"records": [{"tau_w": r.tau_w, "tau_y": r.tau_y,
                              "activity_mean": r.mean_activity_rate,
                              "operating_point_db": r.snr_operating_point_db}
                             for r in records]}
        return _sha256(text), stats, problems


class StreamWorkload(Workload):
    """One weight set and a pre-tagged vector stream, built from the seed in setup."""

    blocks_span = "datapath.simulate_stream"

    def __init__(self, *a):
        super().__init__(*a)
        p = self.p
        B, U, M = p["B"], p["U"], p["M"]
        cfg = harness.RunConfig(B=B, U=U, M=M, channel=p["channel"], seed=self.seed)
        fe = cfg.frontend()
        _warm_twiddles(B)
        rng = harness.derive_stream(self.seed, 0xBE, 0, 0)
        H = channel.draw_channel_matrix(p["channel"], B, U, rng)
        n0 = U * cfg.Es / 10 ** (p["snr_db"] / 10.0)
        Hb = channel.ChannelMatrix(beamspace.to_beamspace(H.entries), "beamspace")
        W, alpha = equalizer.scale_rows(equalizer.compute_lmmse(Hb, n0, cfg.Es), cfg.epsilon)
        self.weights = equalizer.build_weights(W, alpha, cfg.tau_w, cfg.weight_fmt, "beamspace")
        bits = rng.integers(0, 2, size=(U, p["vectors"], cfg.bits_per_symbol), dtype=np.uint8)
        y = channel.synth_receive(H, channel.qam_modulate(bits, M, cfg.Es), n0, rng)
        self.y_bar = y
        self.frontend = fe
        Z = beamspace.to_beamspace(fe.gain * y, fe.twiddle)
        self.stream = [equalizer.tag_input(Z[:, i], fe.tau_y, fe.input_fmt)
                       for i in range(p["vectors"])]
        self.gain = fe.gain
        self.pipeline = datapath.PipelineConfig()

    def call(self):
        outputs, cycles, trace, report = datapath.simulate_stream(
            self.weights, self.stream, self.pipeline, save_power=True, gain=self.gain)
        return outputs, cycles, trace.mute_count(), report

    def vectors(self, out) -> int:
        return out[0].shape[0]

    def check(self, out):
        outputs, cycles, mutes, report = out
        p = self.p
        n, U, B = p["vectors"], p["U"], p["B"]
        problems = []
        if outputs.shape != (n, U):
            problems.append(f"outputs shape {outputs.shape}")
        if cycles != U + n + self.pipeline.latency(B):
            problems.append(f"{cycles} cycles, expected U + N + latency")
        if mutes != report.total - report.executed:
            problems.append(f"{mutes} mutes, {report.total - report.executed} skipped products")
        stats = {"cycles": cycles, "mute_count": mutes, "executed": report.executed,
                 "activity_mean": report.activity_rate}
        tail = f"{cycles},{mutes},{report.executed}".encode("ascii")
        return _sha256(np.ascontiguousarray(outputs).tobytes(), tail), stats, problems

    def oracle(self, out) -> list[str]:
        """The datapath must reproduce the equalizer's block path bit for bit."""
        s_hat, report = equalizer.equalize_block("lmmse-spade", None, self.weights,
                                                 self.y_bar, self.frontend)
        problems = []
        if not np.array_equal(out[0], s_hat.T):
            problems.append("simulate_stream outputs differ from equalize_block")
        if out[3].executed != report.executed:
            problems.append("executed count differs from equalize_block")
        return problems


KINDS = {"ber": BerWorkload, "sweep": SweepWorkload, "stream": StreamWorkload}


def build(name: str, seed: int, size: str, scratch_dir: str) -> Workload:
    return KINDS[SPECS[name]["kind"]](name, seed, size, scratch_dir)
