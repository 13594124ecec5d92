"""Cycle contract, mute accounting, throughput arithmetic, power proxy."""

import numpy as np
import pytest

from spadesim.datapath import (
    PipelineConfig,
    PowerCoeffs,
    effective_throughput,
    power_proxy,
    simulate_stream,
    throughput_bps,
)
from spadesim.equalizer import ActivityReport, equalize_tagged
from spadesim.numerics import QFormat

from reference import mute_mask, mute_trace_csv
from test_equalizer import random_tagged, random_weights


def make_stream(rng, U=4, B=16, n=20, tau=0.1):
    weights = random_weights(rng, U, B, tau_w=tau)
    vectors = [random_tagged(rng, B, tau_y=tau) for _ in range(n)]
    return weights, vectors


def test_cycle_count_default_pipeline():
    rng = np.random.default_rng(61)
    weights, vectors = make_stream(rng, U=16, B=64, n=10)
    _, cycles, _, _ = simulate_stream(weights, vectors, PipelineConfig(), save_power=True)
    # 16-cycle weight load + 10 acceptance cycles + 4-cycle drain
    assert cycles == 16 + 10 + 4


def test_cycle_count_empty_stream():
    rng = np.random.default_rng(62)
    weights, _ = make_stream(rng, U=4, B=16, n=0)
    _, cycles, trace, report = simulate_stream(weights, [], PipelineConfig(), save_power=True)
    assert cycles == 4 + PipelineConfig().latency(16)
    assert trace.mute_count() == 0 and report.total == 0


def test_cycle_count_affine_in_n():
    rng = np.random.default_rng(63)
    weights, vectors = make_stream(rng, n=30)
    counts = []
    for n in (0, 10, 30):
        _, cycles, _, _ = simulate_stream(weights, vectors[:n], PipelineConfig(), True)
        counts.append(cycles)
    assert counts[1] - counts[0] == 10
    assert counts[2] - counts[1] == 20


def test_outputs_match_equalizer_module():
    rng = np.random.default_rng(64)
    weights, vectors = make_stream(rng, U=4, B=16, n=100, tau=0.2)
    outputs, _, _, _ = simulate_stream(weights, vectors, PipelineConfig(), save_power=True)
    for i, x in enumerate(vectors):
        s_hat, _ = equalize_tagged(weights, x, save_power=True)
        assert np.array_equal(outputs[i], s_hat)


def test_mute_count_equals_skipped():
    rng = np.random.default_rng(65)
    weights, vectors = make_stream(rng, n=50, tau=0.3)
    _, _, trace, report = simulate_stream(weights, vectors, PipelineConfig(), save_power=True)
    assert trace.mute_count() == report.total - report.executed
    assert report.executed == sum(int(v) for v in report.per_vector)


def test_mute_trace_csv_and_bitmap(tmp_path):
    rng = np.random.default_rng(66)
    weights, vectors = make_stream(rng, U=2, B=4, n=3, tau=0.5)
    _, _, trace, report = simulate_stream(weights, vectors, PipelineConfig(), save_power=True)
    csv_path = tmp_path / "trace.csv"
    trace.to_csv(str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "cycle,cm,register"
    assert len(lines) - 1 == trace.mute_count()
    npz_path = tmp_path / "trace.npz"
    trace.save_bitmap(str(npz_path))
    loaded = np.load(npz_path)
    assert loaded["cycles"].shape[0] == 3


@pytest.mark.parametrize("save_power", [True, False])
@pytest.mark.parametrize("U,B,n", [(1, 1, 5), (2, 4, 7), (3, 16, 30), (16, 64, 12), (4, 16, 0)])
def test_mute_trace_matches_dense_oracle(tmp_path, save_power, U, B, n):
    rng = np.random.default_rng(1000 * U + 10 * B + n)
    weights = random_weights(rng, U, B, tau_w=0.5)
    vectors = [random_tagged(rng, B, tau_y=2.0) for _ in range(n)]
    _, _, trace, _ = simulate_stream(weights, vectors, PipelineConfig(), save_power)
    masks = [mute_mask(weights, x) if save_power else np.zeros((U, B, 4), dtype=bool)
             for x in vectors]
    cycles = [U + i for i in range(n)]
    assert trace.mute_count() == sum(int(m.sum()) for m in masks)
    trace.to_csv(str(tmp_path / "trace.csv"))
    assert (tmp_path / "trace.csv").read_bytes() == mute_trace_csv(cycles, masks, B).encode("ascii")
    trace.save_bitmap(str(tmp_path / "trace.npz"))
    packed = np.stack([np.packbits(m.reshape(-1)) for m in masks]) if masks \
        else np.empty((0, 0), dtype=np.uint8)
    expected = dict(cycles=np.array(cycles, dtype=np.int64), packed=packed, U=np.array(U),
                    B=np.array(B))
    with np.load(tmp_path / "trace.npz") as saved:
        assert sorted(saved.files) == sorted(expected)
        for name, want in expected.items():
            assert saved[name].dtype == want.dtype and np.array_equal(saved[name], want)


def test_stream_rejects_mixed_lengths_and_formats():
    rng = np.random.default_rng(69)
    weights = random_weights(rng, 2, 16, tau_w=0.1)
    x = random_tagged(rng, 16, tau_y=0.1)
    for other in (random_tagged(rng, 4, tau_y=0.1),
                  random_tagged(rng, 16, tau_y=0.1, fmt=QFormat(10, 7))):
        with pytest.raises(ValueError, match="one length and input format"):
            simulate_stream(weights, [x, other], PipelineConfig(), save_power=True)


def test_no_mutes_without_save_power():
    rng = np.random.default_rng(67)
    weights, vectors = make_stream(rng, n=10, tau=0.5)
    _, _, trace, report = simulate_stream(weights, vectors, PipelineConfig(), save_power=False)
    assert trace.mute_count() == 0
    assert report.activity_rate == 1.0


def test_pipeline_latency_defaults():
    cfg = PipelineConfig()
    assert cfg.latency(64) == 4   # 1 input stage + ceil(6/2) tree stages
    assert cfg.latency(16) == 3
    assert cfg.latency(1) == 1
    assert PipelineConfig(tree_stages=5).latency(64) == 6
    with pytest.raises(ValueError):
        PipelineConfig(input_reg_stages=0, tree_stages=0).latency(4)


def test_throughput_table_values():
    assert throughput_bps(720e6, 16, 16) == pytest.approx(46.08e9)
    assert throughput_bps(600e6, 16, 16) == pytest.approx(38.4e9)
    assert throughput_bps(920e6, 16, 16) == pytest.approx(58.88e9)
    with pytest.raises(ValueError):
        throughput_bps(720e6, 16, 32)


def test_effective_throughput():
    peak = throughput_bps(720e6, 16, 16)
    assert effective_throughput(720e6, 16, 16, 16, latency_cycles=4) == pytest.approx(peak * 16 / 36)
    assert effective_throughput(720e6, 16, 16, 1000, latency_cycles=4) > 0.98 * peak
    assert effective_throughput(720e6, 16, 16, 10**9) == pytest.approx(peak, rel=1e-6)
    with pytest.raises(ValueError):
        effective_throughput(720e6, 16, 16, 0)


def fake_report(rate):
    total = 1000
    return ActivityReport(executed=int(rate * total), total=total,
                          per_vector=np.array([int(rate * total)]))


def test_power_proxy_linear():
    coeffs = PowerCoeffs(fixed=0.0, per_activity=1.0, fft_on=0.0)
    assert power_proxy(fake_report(1.0), coeffs, fft_active=False) == pytest.approx(1.0)
    assert power_proxy(fake_report(0.5), coeffs, fft_active=False) == pytest.approx(0.5)
    assert power_proxy(fake_report(0.62), coeffs, fft_active=False) == pytest.approx(0.62)


def test_power_proxy_fft_term_and_validation():
    coeffs = PowerCoeffs(fixed=0.2, per_activity=0.5, fft_on=0.1)
    base = power_proxy(fake_report(0.8), coeffs, fft_active=False)
    assert power_proxy(fake_report(0.8), coeffs, fft_active=True) == pytest.approx(base + 0.1)
    with pytest.raises(ValueError):
        PowerCoeffs(fixed=-0.1, per_activity=1.0, fft_on=0.0)


def test_power_proxy_saving_bracket_on_los():
    # default coefficients calibrate lmmse-b to the same proxy as lmmse-a
    # (fft term zero, activity 1.0 in both); the saving of the power-saving
    # mode on LoS channels should land in a broad 15..45% bracket
    from spadesim.harness import RunConfig, mean_activity

    cfg = RunConfig(B=64, U=16, M=16, channel="los", seed=1)
    act = mean_activity(cfg, "lmmse-spade", snr_db=11.1, draws=200)
    coeffs = PowerCoeffs()
    full = power_proxy(fake_report(1.0), coeffs, fft_active=True)
    assert full == power_proxy(fake_report(1.0), coeffs, fft_active=False)
    spade = power_proxy(fake_report(act), coeffs, fft_active=True)
    saving = (full - spade) / full
    assert 0.15 <= saving <= 0.45
