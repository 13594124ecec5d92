"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The LoS threshold-sweep
artifact (activity rate vs SNR operating point CSV) lands in ``artifacts/``.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from spadesim.beamspace import to_beamspace
from spadesim.channel import ChannelMatrix, draw_channel_matrix
from spadesim.cli import main as cli_main
from spadesim.datapath import PipelineConfig, simulate_stream, throughput_bps
from spadesim.equalizer import (
    FrontEnd,
    build_weights,
    compute_lmmse,
    equalize_block,
    equalize_tagged,
    scale_rows,
    tag_input,
)
from spadesim.harness import (
    RunConfig,
    StopRule,
    activity_grid,
    default_grid,
    derive_stream,
    emit_sweep,
    run_ber,
    snr_operating_point,
    threshold_sweep,
)
from spadesim.numerics import INPUT_FMT, WEIGHT_FMT

from reference import q_func
from test_equalizer import oracle_dotp, random_tagged, random_weights

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "artifacts"

FULL = dict(B=64, U=16, M=16, channel="los", seed=1)


def report(n: int, detail: str, elapsed: float, budget_s: float) -> None:
    print(f"\n[criterion {n:02d}] PASS ({elapsed:.1f}s of {budget_s:.0f}s budget) {detail}")
    assert elapsed < budget_s


def test_c01_oracle_equivalence_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for B in (1, 2, 4):
        for U in (1, 2):
            for _ in range(170):
                tau_w = float(rng.uniform(0.0, 1.0))
                tau_y = float(rng.uniform(0.0, 1.0))
                w = random_weights(rng, U, B, tau_w)
                x = random_tagged(rng, B, tau_y)
                for u in range(U):
                    (acc,), executed = equalize_tagged(w[u:u + 1], x, save_power=True)
                    ref, ref_exec = oracle_dotp(w, u, x, save_power=True)
                    assert acc == ref and executed == ref_exec
                checked += 1
    report(1, f"{checked} fixed-point instances match the enumeration oracle exactly",
           time.perf_counter() - t0, 10.0)


def test_c02_zero_threshold_degeneracy():
    t0 = time.perf_counter()
    cfg = RunConfig(**FULL, tau_w=0.0, tau_y=0.0)
    rng = derive_stream(cfg.seed, 99, 0, 0)
    H = draw_channel_matrix("los", 64, 16, rng)
    from spadesim.harness import _build_weights

    _, wb = _build_weights(cfg, H, "lmmse-spade", n0=1.0)
    Y = rng.standard_normal((64, 1000)) + 1j * rng.standard_normal((64, 1000))
    s_spade, r_spade = equalize_block("lmmse-spade", None, wb, Y, cfg.frontend())
    s_b, r_b = equalize_block("lmmse-b", None, wb, Y, cfg.frontend())
    assert np.array_equal(s_spade, s_b)
    assert r_spade.activity_rate == 1.0
    report(2, "1000 vectors bit-identical to lmmse-b, activity exactly 1.0",
           time.perf_counter() - t0, 10.0)


def test_c03_cross_domain_equality_unquantized():
    t0 = time.perf_counter()
    cfg = RunConfig(**FULL, quantized=False)
    fe = cfg.frontend()
    rng = derive_stream(cfg.seed, 98, 0, 0)
    worst = 0.0
    for _ in range(100):
        Hbar = draw_channel_matrix("los", 64, 16, rng)
        Hb = ChannelMatrix(to_beamspace(Hbar.entries), "beamspace")
        Wa, aa = scale_rows(compute_lmmse(Hbar, 0.8, 1.0), cfg.epsilon)
        Wb, ab = scale_rows(compute_lmmse(Hb, 0.8, 1.0), cfg.epsilon)
        wa = build_weights(Wa, aa, 0.0, None, "antenna")
        wb = build_weights(Wb, ab, 0.0, None, "beamspace")
        Y = rng.standard_normal((64, 10)) + 1j * rng.standard_normal((64, 10))
        sa, _ = equalize_block("lmmse-a", wa, None, Y, fe)
        sb, _ = equalize_block("lmmse-b", None, wb, Y, fe)
        worst = max(worst, float(np.abs(sa - sb).max()))
    assert worst < 1e-6
    report(3, f"1000 unquantized trials agree across domains (max |diff| {worst:.2e})",
           time.perf_counter() - t0, 30.0)


def test_c04_skip_error_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    B = 64
    violations = 0
    for _ in range(10_000):
        tau_w = float(rng.uniform(0.0, 0.5))
        tau_y = float(rng.uniform(0.0, 0.5))
        w = random_weights(rng, 1, B, tau_w)
        x = random_tagged(rng, B, tau_y)
        (exact,), _ = equalize_tagged(w[0:1], x, save_power=False)
        (approx,), _ = equalize_tagged(w[0:1], x, save_power=True)
        bound = 2 * B * tau_w * tau_y
        if abs(exact.real - approx.real) > bound or abs(exact.imag - approx.imag) > bound:
            violations += 1
    assert violations == 0
    report(4, "10^4 inner products stay within the 2B*tau_w*tau_y deviation bound",
           time.perf_counter() - t0, 30.0)


def test_c05_activity_monotone_on_default_grid():
    t0 = time.perf_counter()
    cfg = RunConfig(**FULL)
    grid = default_grid()
    rates = activity_grid(cfg, "lmmse-spade", snr_db=11.0, tau_w_grid=grid,
                          tau_y_grid=grid, draws=400, vectors_per_draw=2)
    assert np.all(np.diff(rates, axis=0) <= 0)
    assert np.all(np.diff(rates, axis=1) <= 0)
    report(5, f"8x8 grid monotone on both axes (rates {rates.min():.3f}..{rates.max():.3f})",
           time.perf_counter() - t0, 300.0)


def test_c06_awgn_closed_form():
    t0 = time.perf_counter()
    cfg = RunConfig(B=1, U=1, M=4, vectors_per_block=250, seed=6)
    rep = run_ber(cfg, [0.0, 4.0, 8.0], "lmmse-a", StopRule(target_errors=500, max_vectors=1_000_000))
    details = []
    for pt in rep.points:
        p = q_func(math.sqrt(10 ** (pt.snr_db / 10)))
        se = math.sqrt(p * (1 - p) / (pt.trials * 2))
        assert abs(pt.ber - p) < 3 * se
        details.append(f"{pt.snr_db:.0f}dB:{pt.ber:.4f}~{p:.4f}")
    report(6, "QPSK BER matches Q(sqrt(Es/N0)) within 3 SE at " + ", ".join(details),
           time.perf_counter() - t0, 60.0)


@pytest.fixture(scope="module")
def los_sweep():
    cfg = RunConfig(**FULL)
    records = threshold_sweep(cfg, default_grid(), default_grid(),
                              activity_draws=300, probe_cap=60_000)
    op_a = snr_operating_point(cfg, "lmmse-a", probe_cap=60_000)
    ARTIFACT_DIR.mkdir(exist_ok=True)
    emit_sweep(records, str(ARTIFACT_DIR / "threshold_sweep_los.csv"))
    return records, op_a


def test_c07_trend_reproduction(los_sweep):
    t0 = time.perf_counter()
    records, op_a = los_sweep
    assert op_a is not None
    ok = [r for r in records
          if r.mean_activity_rate <= 0.7
          and r.snr_operating_point_db is not None
          and r.snr_operating_point_db <= op_a + 1.0]
    assert ok, "no grid pair reaches activity <= 0.7 within 1 dB of lmmse-a"
    best = min(ok, key=lambda r: r.mean_activity_rate)
    report(7, f"pair (tau_w={best.tau_w:.4f}, tau_y={best.tau_y:.4f}) reaches activity "
              f"{best.mean_activity_rate:.3f} at {best.snr_operating_point_db - op_a:+.2f} dB "
              f"vs lmmse-a ({op_a:.2f} dB); artifact written",
           time.perf_counter() - t0, 1800.0)


def test_c08_sparsity_ordering(los_sweep):
    t0 = time.perf_counter()
    records, op_a = los_sweep
    ok = [r for r in records
          if r.mean_activity_rate <= 0.7
          and r.snr_operating_point_db is not None
          and r.snr_operating_point_db <= op_a + 1.0]
    best = min(ok, key=lambda r: r.mean_activity_rate)
    snr = best.snr_operating_point_db
    kw = dict(tau_w=best.tau_w, tau_y=best.tau_y)
    los = activity_grid(RunConfig(**FULL, **kw), "lmmse-spade", snr,
                        [best.tau_w], [best.tau_y], draws=1000, per_draw=True)[0, 0]
    nlos_cfg = RunConfig(**{**FULL, "channel": "nlos"}, **kw)
    nlos = activity_grid(nlos_cfg, "lmmse-spade", snr,
                         [best.tau_w], [best.tau_y], draws=1000, per_draw=True)[0, 0]
    diff = nlos - los  # matched seeds: draw i pairs across channel kinds
    margin = diff.mean() - 1.645 * diff.std(ddof=1) / math.sqrt(diff.size)
    assert margin > 0.0
    report(8, f"LoS activity {los.mean():.3f} < NLoS {nlos.mean():.3f} "
              f"(95% one-sided margin {margin:.4f} over 1000 paired draws)",
           time.perf_counter() - t0, 600.0)


def test_c09_throughput_arithmetic():
    t0 = time.perf_counter()
    for clock, reported in [(720e6, 46e9), (600e6, 39e9), (920e6, 58.8e9)]:
        got = throughput_bps(clock, 16, 16)
        assert abs(got - reported) <= 1e9
    assert throughput_bps(720e6, 16, 16) == 46.08e9
    assert throughput_bps(600e6, 16, 16) == 38.4e9
    assert throughput_bps(920e6, 16, 16) == 58.88e9
    report(9, "46.08 / 38.4 / 58.88 Gbps within 1 Gbps of the reported 46 / 39 / 58.8",
           time.perf_counter() - t0, 5.0)


def test_c10_cycle_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    weights = random_weights(rng, 16, 64, tau_w=0.15)
    vectors = [random_tagged(rng, 64, tau_y=0.2) for _ in range(100)]
    outputs, cycles, trace, rep = simulate_stream(weights, vectors, PipelineConfig(), save_power=True)
    assert cycles == 16 + 100 + 4
    for i, x in enumerate(vectors):
        s_hat, _ = equalize_tagged(weights, x, save_power=True)
        assert np.array_equal(outputs[i], s_hat)
    assert trace.mute_count() == rep.total - rep.executed
    report(10, "cycles = U + N + latency and 100 outputs bit-identical to the equalizer",
           time.perf_counter() - t0, 10.0)


def test_c11_determinism_across_workers(tmp_path):
    t0 = time.perf_counter()
    args = ["ber", "--mode", "lmmse-spade", "--b", "64", "--u", "16", "--mod", "16",
            "--channel", "los", "--snr-start", "8", "--snr-stop", "12", "--snr-step", "2",
            "--seed", "17", "--max-vectors", "3000", "--target-errors", "1000000",
            "--format", "csv"]
    out1 = tmp_path / "w1.csv"
    out4 = tmp_path / "w4.csv"
    assert cli_main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert cli_main(args + ["--workers", "4", "--out", str(out4)]) == 0
    b1 = out1.read_bytes()
    b4 = out4.read_bytes()
    assert b1 == b4
    report(11, f"1-worker and 4-worker CSV outputs byte-identical ({len(b1)} bytes)",
           time.perf_counter() - t0, 120.0)
