"""Monte Carlo harness: determinism, closed-form checks, reports, CLI."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from spadesim import harness
from spadesim.channel import (
    ChannelMatrix,
    bit_errors,
    draw_channel_matrix,
    load_channel,
    qam_index,
    save_channel,
)
from spadesim.cli import _COMMANDS, _effective, _snr_list, build_parser
from spadesim.cli import main as cli_main
from spadesim.beamspace import TwiddleConfig
from spadesim.datapath import (
    PipelineConfig,
    PowerCoeffs,
    effective_throughput,
    power_proxy,
    simulate_stream,
    throughput_bps,
)
from spadesim.equalizer import (
    MODES,
    ActivityReport,
    FrontEnd,
    equalize_block,
    equalize_pairs,
    equalize_tagged,
    front_end,
)
from spadesim.harness import (
    _CHUNK_MATRICES,
    _WAVE_BLOCKS,
    MAX_SNR_POINTS,
    REPORT_FORMATS,
    RunConfig,
    RunReport,
    SnrPoint,
    StopRule,
    _activity_rates,
    activity_grid,
    default_grid,
    derive_stream,
    emit_sweep,
    render_report,
    run_ber,
    snr_operating_point,
    threshold_sweep,
)
from spadesim.numerics import QFormat

from reference import activity_rates_per_draw, q_func, q_func_inv
from test_equalizer import random_tagged, random_weights


def small_cfg(**kw):
    base = dict(B=16, U=4, M=4, vectors_per_block=25, seed=5)
    base.update(kw)
    return RunConfig(**base)


def test_derive_stream_independent_of_order():
    a1 = derive_stream(9, 1, 0, 3).standard_normal(4)
    derive_stream(9, 1, 0, 99).standard_normal(100)  # unrelated stream consumption
    a2 = derive_stream(9, 1, 0, 3).standard_normal(4)
    assert np.array_equal(a1, a2)
    b = derive_stream(9, 1, 0, 4).standard_normal(4)
    assert not np.array_equal(a1, b)


def test_derive_stream_rejects_fields_that_would_alias():
    assert np.array_equal(derive_stream(9, 0xFFFF, 0xFFFF, 2**32 - 1).standard_normal(2),
                          derive_stream(9, 0xFFFF, 0xFFFF, 2**32 - 1).standard_normal(2))
    for purpose, tag, index in [(1, 65536, 0), (1, 0, 2**32), (65536, 0, 0), (1, -1, 0), (1, 0, -1)]:
        with pytest.raises(ValueError):
            derive_stream(9, purpose, tag, index)
    # the key would truncate a float seed to another seed's stream
    for seed in (1.5, np.float64(1.0)):
        with pytest.raises(ValueError, match=r"^stream seed .* is not an integer in "
                                             r"\[0, 18446744073709551615\]$"):
            derive_stream(seed, 1, 0, 0)
    assert np.array_equal(derive_stream(np.uint64(9), 1, 0, 0).standard_normal(2),
                          derive_stream(9, 1, 0, 0).standard_normal(2))


def test_seed_outside_64_bits_is_rejected(capsys):
    # masking would run -1 as 2**64-1 and 2**64 as 0
    assert np.array_equal(derive_stream(2**64 - 1, 1, 0, 0).standard_normal(2),
                          derive_stream(2**64 - 1, 1, 0, 0).standard_normal(2))
    # a float seed would run as the integer below it
    for seed in (-1, 2**64, 1.5, np.float64(1.0)):
        with pytest.raises(ValueError, match="seed"):
            derive_stream(seed, 1, 0, 0)
        with pytest.raises(ValueError, match="seed"):
            small_cfg(seed=seed)
        code = cli_main(["ber", "--b", "4", "--u", "1", "--mod", "4", "--snr-start", "0",
                         "--snr-stop", "0", "--max-vectors", "10", "--seed", str(seed)])
        assert code == 1
        err = capsys.readouterr().err
        # --seed parses with int, so a float never reaches RunConfig
        prefix = "error: seed" if isinstance(seed, int) else "error: --seed"
        assert err.startswith(prefix) and err.count("\n") == 1
    assert small_cfg(seed=np.int64(3)) == small_cfg(seed=3)


def test_run_ber_deterministic_across_worker_counts():
    stop = StopRule(target_errors=200, max_vectors=2000)
    rep1 = run_ber(small_cfg(workers=1), [4.0, 8.0], "lmmse-spade", stop)
    rep4 = run_ber(small_cfg(workers=4), [4.0, 8.0], "lmmse-spade", stop)
    assert render_report(rep1, "csv") == render_report(rep4, "csv")
    assert render_report(rep1, "json") == render_report(rep4, "json")


def test_spade_with_zero_thresholds_equals_lmmse_b():
    stop = StopRule(target_errors=300, max_vectors=2000)
    cfg = small_cfg(tau_w=0.0, tau_y=0.0)
    rep_spade = run_ber(cfg, [6.0], "lmmse-spade", stop)
    rep_b = run_ber(cfg, [6.0], "lmmse-b", stop)
    assert rep_spade.points[0].bit_errors == rep_b.points[0].bit_errors
    assert rep_spade.points[0].trials == rep_b.points[0].trials
    assert rep_spade.points[0].activity_mean == 1.0


def test_ber_point_stops_at_the_first_wave_reaching_the_target():
    # the error target is checked between waves: a point stops after the first
    # wave whose running error count reaches it, not one wave later
    cfg = small_cfg()
    wave = _WAVE_BLOCKS * cfg.vectors_per_block
    first = run_ber(cfg, [4.0], "lmmse-spade", StopRule(1 << 62, wave)).points[0]
    assert first.trials == wave and first.bit_errors > 0
    for target, waves in ((first.bit_errors, 1), (first.bit_errors + 1, 2)):
        pt = run_ber(cfg, [4.0], "lmmse-spade", StopRule(target, 10 * wave)).points[0]
        assert pt.trials == waves * wave


def test_noise_free_ber_is_zero():
    cfg = RunConfig(B=64, U=16, M=16, vectors_per_block=100, seed=2)
    stop = StopRule(target_errors=1, max_vectors=10_000)
    rep = run_ber(cfg, [120.0], "lmmse-a", stop)  # N0 = 16e-12
    assert rep.points[0].bit_errors == 0
    assert rep.points[0].trials == 10_000


def test_awgn_qpsk_matches_q_function():
    cfg = RunConfig(B=1, U=1, M=4, vectors_per_block=200, seed=3)
    stop = StopRule(target_errors=500, max_vectors=200_000)
    rep = run_ber(cfg, [0.0, 4.0], "lmmse-a", stop)
    for pt in rep.points:
        es_n0 = 10 ** (pt.snr_db / 10)
        p = q_func(math.sqrt(es_n0))
        nbits = pt.trials * 2
        se = math.sqrt(p * (1 - p) / nbits)
        assert abs(pt.ber - p) < 3 * se


def test_invalid_inputs():
    with pytest.raises(ValueError):
        run_ber(small_cfg(), [float("nan")], "lmmse-a")
    with pytest.raises(ValueError):
        run_ber(small_cfg(), [0.0], "zf")
    with pytest.raises(ValueError):
        RunConfig(B=15)
    with pytest.raises(ValueError):
        RunConfig(channel="file")
    with pytest.raises(ValueError):
        snr_operating_point(small_cfg(), "lmmse-a", target_ber=0.6)


@pytest.mark.parametrize("search", [
    lambda t: snr_operating_point(small_cfg(), "lmmse-a", target_ber=t),
    lambda t: threshold_sweep(small_cfg(), [0.1], [0.1], target_ber=t),
], ids=["snr_operating_point", "threshold_sweep"])
def test_target_ber_is_a_finite_number_in_its_open_range(search):
    # a string or complex target raised TypeError from the comparison
    for target in ("0.01", 0.01 + 0j, True, 0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError) as exc:
            search(target)
        assert str(exc.value) == f"target_ber {target!r} is not a finite number > 0"
    for target in (0.5, 0.6):
        with pytest.raises(ValueError) as exc:
            search(target)
        assert str(exc.value) == "target_ber must be in (0, 0.5)"


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -3200.0])
def test_snr_without_finite_positive_noise_power_is_rejected(snr_db, capsys, monkeypatch):
    # N0 = U*Es / 10^(snr/10) overflowed at 4000 dB, divided by zero at -4000 dB
    # and was inf at -3200 dB, which failed only in the first block
    def ran(*args, **kwargs):
        pytest.fail("a block ran before every SNR was checked")

    monkeypatch.setattr("spadesim.harness._simulate", ran)
    named = f"SNR {snr_db!r} dB"
    with pytest.raises(ValueError, match=named):
        run_ber(small_cfg(), [0.0, snr_db], "lmmse-a")
    for mode in MODES:
        with pytest.raises(ValueError, match=named):
            activity_grid(small_cfg(), mode, snr_db, [0.1], [0.1], draws=1)
    monkeypatch.undo()
    code = cli_main(["ber", "--b", "4", "--u", "1", "--mod", "4", "--snr-start", f"{snr_db:g}",
                     "--max-vectors", "10"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
def test_non_finite_snr_is_refused_by_name(snr_db, monkeypatch):
    # the SNR's check names it; run_ber's own pass said "invalid SNR list", and a NaN
    # or infinite SNR was reported as one that gives no finite positive noise power N0
    def ran(*args, **kwargs):
        pytest.fail("a block ran before every SNR was checked")

    monkeypatch.setattr("spadesim.harness._simulate", ran)
    with pytest.raises(ValueError) as exc:
        run_ber(small_cfg(), [0.0, snr_db], "lmmse-a")
    assert str(exc.value) == f"SNR {snr_db!r} is not a finite number"


_SNR, _THRESHOLD = "SNR {!r} is not a finite number", "threshold {!r} is not a finite number >= 0"


@pytest.mark.parametrize("call,refused", [
    (lambda v: run_ber(small_cfg(), [0.0, v], "lmmse-a"), _SNR),
    (lambda v: activity_grid(small_cfg(), "lmmse-spade", v, [0.1], [0.1]), _SNR),
    (lambda v: activity_grid(small_cfg(), "lmmse-spade", 10.0, [0.1, v], [0.1]), _THRESHOLD),
    (lambda v: activity_grid(small_cfg(), "lmmse-a", 10.0, [0.1], [v]), _THRESHOLD),
    (lambda v: threshold_sweep(small_cfg(), [v], [0.1], activity_draws=1), _THRESHOLD),
    (lambda v: threshold_sweep(small_cfg(), [0.1], [0.2, v], activity_draws=1), _THRESHOLD),
], ids=["run_ber", "activity_grid-snr", "activity_grid-tau_w", "activity_grid-tau_y",
        "threshold_sweep-tau_w", "threshold_sweep-tau_y"])
def test_bool_snrs_and_grid_thresholds_are_refused(call, refused, monkeypatch):
    # float() turned a bool into 1.0 or 0.0: run_ber ran a point at 1.0 dB,
    # activity_grid measured at it and threshold_sweep swept tau_w = 1.0;
    # run_ber parsed a string SNR, and the other strings raised TypeError
    def ran(*args, **kwargs):
        pytest.fail("a block ran before every input was checked")

    monkeypatch.setattr("spadesim.harness._simulate", ran)
    monkeypatch.setattr("spadesim.harness._block", ran)
    for flag in (True, False, np.bool_(True), "10"):
        with pytest.raises(ValueError) as exc:
            call(flag)
        assert str(exc.value) == refused.format(flag)


@pytest.mark.parametrize("mode", ["lmmse-a", "lmmse-b"])
def test_activity_grid_checks_thresholds_in_modes_that_do_not_skip(mode):
    # a mode that does not skip returned activity 1.0 for any threshold
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError) as exc:
            activity_grid(small_cfg(), mode, 10.0, [0.1], [tau], draws=1)
        assert str(exc.value) == _THRESHOLD.format(tau)


def test_snr_list_beyond_the_stream_tags_is_rejected(tmp_path, capsys, monkeypatch):
    # point i runs on stream tag i, a 16-bit field: point 2**16 failed only
    # after every earlier point had run, and the CLI built its whole list first
    class Ran(Exception):
        pass

    def ran(*args, **kwargs):
        raise Ran

    monkeypatch.setattr("spadesim.harness._simulate", ran)
    with pytest.raises(Ran):
        run_ber(small_cfg(), [0.0] * MAX_SNR_POINTS, "lmmse-a")
    with pytest.raises(ValueError, match=f"SNR list has {MAX_SNR_POINTS + 1} points"):
        run_ber(small_cfg(), [0.0] * (MAX_SNR_POINTS + 1), "lmmse-a")
    last = {"snr_start": 0.0, "snr_stop": MAX_SNR_POINTS - 1.0, "snr_step": 1.0}
    assert len(_snr_list(last)) == MAX_SNR_POINTS
    with pytest.raises(ValueError, match="more than"):
        _snr_list(dict(last, snr_stop=float(MAX_SNR_POINTS)))
    monkeypatch.setattr("spadesim.cli.run_ber", ran)
    for stop, step in (("655.37", "0.01"), ("1", "1e-9")):
        out = tmp_path / "big.csv"
        code = cli_main(["ber", "--b", "4", "--u", "1", "--mod", "4", "--snr-start", "0",
                         "--snr-stop", stop, "--snr-step", step, "--max-vectors", "1",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out.exists()
        assert captured.err == f"error: snr-start, snr-stop and snr-step give more than " \
            f"{MAX_SNR_POINTS} points\n"


def test_activity_grid_rejects_unknown_mode():
    # any mode but lmmse-spade used to read as full activity
    with pytest.raises(ValueError, match="mode"):
        activity_grid(small_cfg(), "nonsense", 10.0, [0.1], [0.1], draws=1)


_MODE_ERROR = "mode must be one of ('lmmse-a', 'lmmse-b', 'lmmse-spade'), got 'zf'"
_QAM_ERROR = "M must be one of (4, 16, 64, 256), got 8"


@pytest.mark.parametrize("call,message", [
    (lambda: run_ber(small_cfg(), [10.0], "zf"), _MODE_ERROR),
    (lambda: snr_operating_point(small_cfg(), "zf"), _MODE_ERROR),
    (lambda: threshold_sweep(small_cfg(), [0.1], [0.1], mode="zf"), _MODE_ERROR),
    (lambda: activity_grid(small_cfg(), "zf", 10.0, [0.1], [0.1], draws=1), _MODE_ERROR),
    (lambda: equalize_block("zf", None, None, np.ones(16)), _MODE_ERROR),
    (lambda: front_end("zf", np.ones(16), FrontEnd()), _MODE_ERROR),
    (lambda: qam_index(np.zeros((2, 3), dtype=np.uint8), 8), _QAM_ERROR),
    (lambda: bit_errors(np.zeros(2, dtype=complex), np.zeros(2, dtype=int), 8, 1.0), _QAM_ERROR),
    (lambda: throughput_bps(720e6, 16, 8), _QAM_ERROR),
    (lambda: RunConfig(M=8), _QAM_ERROR),
    (lambda: run_ber(small_cfg(weight_fmt=QFormat(10, 8)), [10.0], "lmmse-spade"),
     "weight format must span [-1, 1): use frac_bits = total_bits - 1"),
    (lambda: run_ber(small_cfg(weight_fmt=QFormat(32, 31), input_fmt=QFormat(32, 9)), [10.0],
                     "lmmse-spade"), "formats too wide for exact accumulation"),
    (lambda: run_ber(small_cfg(twiddle_fmt="6:4"), [10.0], "lmmse-spade"),
     "twiddle_fmt '6:4' is not a QFormat"),
    (lambda: run_ber(small_cfg(weight_fmt="10:9"), [10.0], "lmmse-spade"),
     "weight_fmt '10:9' is not a QFormat"),
    (lambda: run_ber(small_cfg(input_fmt=None), [10.0], "lmmse-spade"),
     "input_fmt None is not a QFormat"),
], ids=["run_ber", "snr_operating_point", "threshold_sweep", "activity_grid", "equalize_block",
        "front_end", "qam_index", "bit_errors", "throughput_bps", "RunConfig",
        "RunConfig-weight-span", "RunConfig-accumulator", "RunConfig-twiddle_fmt-str",
        "RunConfig-weight_fmt-str", "RunConfig-input_fmt-None"])
def test_every_caller_gives_its_setting_owners_message(call, message, monkeypatch):
    # the mode and the QAM order are each checked by one owner that every caller asks;
    # RunConfig took formats its first block refused (or failed on with AttributeError)
    def ran(*args, **kwargs):
        pytest.fail("a block ran before every setting was checked")

    monkeypatch.setattr("spadesim.harness._simulate", ran)
    monkeypatch.setattr("spadesim.harness._block", ran)
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


_U64 = "[0, 18446744073709551615]"


@pytest.mark.parametrize("call,message", [
    (lambda: PipelineConfig().cycles(16, -1, 64), "N -1 is not an integer >= 0"),
    (lambda: throughput_bps(720e6, 0, 16), "U 0 is not an integer >= 1"),
    (lambda: effective_throughput(720e6, 16, 16, 0, 64),
     "coherence_vectors 0 is not an integer >= 1"),
    (lambda: StopRule(target_errors=-1), "target_errors -1 is not an integer >= 0"),
    (lambda: StopRule(max_vectors=-1), "max_vectors -1 is not an integer >= 0"),
    (lambda: small_cfg(vectors_per_block=0), "vectors_per_block 0 is not an integer >= 1"),
    (lambda: small_cfg(workers=0), "workers 0 is not an integer >= 1"),
    (lambda: small_cfg(seed=-1), f"seed -1 is not an integer in {_U64}"),
    (lambda: small_cfg(seed=2**64), f"seed {2**64} is not an integer in {_U64}"),
    (lambda: snr_operating_point(small_cfg(), "lmmse-a", probe_cap=0),
     "probe_cap 0 is not an integer >= 1"),
    (lambda: RunConfig(B=16, U=0), "U 0 is not an integer in [1, 16]"),
    (lambda: RunConfig(B=16, U=17), "U 17 is not an integer in [1, 16]"),
    (lambda: activity_grid(small_cfg(), "lmmse-spade", 10.0, [0.1], [0.1], draws=0),
     "draws 0 is not an integer >= 1"),
    (lambda: activity_grid(small_cfg(), "lmmse-spade", 10.0, [0.1], [0.1], draws=1,
                           vectors_per_draw=0), "vectors_per_draw 0 is not an integer >= 1"),
    (lambda: threshold_sweep(small_cfg(), [0.1], [0.1], activity_draws=0),
     "activity_draws 0 is not an integer >= 1"),
    (lambda: threshold_sweep(small_cfg(), [0.1], [0.1], activity_draws=1, vectors_per_draw=0),
     "vectors_per_draw 0 is not an integer >= 1"),
    (lambda: derive_stream(-1, 1, 0, 0), f"stream seed -1 is not an integer in {_U64}"),
    (lambda: derive_stream(9, 1 << 16, 0, 0),
     "stream purpose 65536 is not an integer in [0, 65535]"),
    (lambda: derive_stream(9, 1, -1, 0), "stream tag -1 is not an integer in [0, 65535]"),
    (lambda: derive_stream(9, 1, 0, 1 << 32),
     "stream index 4294967296 is not an integer in [0, 4294967295]"),
    (lambda: QFormat(10.0, 9), "total_bits 10.0 is not an integer in [2, 32]"),
    (lambda: QFormat(12.5, 9), "total_bits 12.5 is not an integer in [2, 32]"),
    (lambda: QFormat(1, 0), "total_bits 1 is not an integer in [2, 32]"),
    (lambda: QFormat(33, 10), "total_bits 33 is not an integer in [2, 32]"),
    (lambda: QFormat(10, 9.0), "frac_bits 9.0 is not an integer in [0, 9]"),
    (lambda: QFormat(10, True), "frac_bits True is not an integer in [0, 9]"),
    (lambda: QFormat(10, 10), "frac_bits 10 is not an integer in [0, 9]"),
    (lambda: QFormat(10, -1), "frac_bits -1 is not an integer in [0, 9]"),
], ids=["cycles-N", "throughput_bps-U", "effective_throughput-coherence",
        "StopRule-target_errors", "StopRule-max_vectors", "RunConfig-vectors_per_block",
        "RunConfig-workers", "RunConfig-seed-negative", "RunConfig-seed-wide",
        "snr_operating_point-probe_cap", "RunConfig-U-zero", "RunConfig-U-above-B",
        "activity_grid-draws", "activity_grid-vectors_per_draw", "threshold_sweep-activity_draws",
        "threshold_sweep-vectors_per_draw", "derive_stream-seed", "derive_stream-purpose",
        "derive_stream-tag", "derive_stream-index", "QFormat-total_bits-float",
        "QFormat-total_bits-fraction", "QFormat-total_bits-narrow", "QFormat-total_bits-wide",
        "QFormat-frac_bits-float", "QFormat-frac_bits-bool", "QFormat-frac_bits-wide",
        "QFormat-frac_bits-negative"])
def test_every_integer_setting_gives_its_owners_range_message(call, message):
    # each of these wrote its own range check, in seven wordings; QFormat ran
    # QFormat(10, True) as frac_bits 1 and took a float width until quantizing
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("argv,message", [
    (["datapath", "--coherence", "0"], "coherence_vectors 0 is not an integer >= 1"),
    (["datapath", "--u", "-3"], "U -3 is not an integer in [1, 64]"),
    (["ber", "--max-vectors", "-5"], "max_vectors -5 is not an integer >= 0"),
    (["ber", "--vectors-per-block", "0"], "vectors_per_block 0 is not an integer >= 1"),
    (["ber", "--workers", "0"], "workers 0 is not an integer >= 1"),
    (["ber", "--b", "16", "--u", "17"], "U 17 is not an integer in [1, 16]"),
    (["opoint", "--probe-cap", "0"], "probe_cap 0 is not an integer >= 1"),
    (["sweep", "--activity-draws", "0"], "activity_draws 0 is not an integer >= 1"),
    (["ber", "--input-fmt", "40:9"], "--input-fmt: total_bits 40 is not an integer in [2, 32]"),
], ids=["datapath-coherence", "datapath-u", "ber-max-vectors", "ber-vectors-per-block",
        "ber-workers", "ber-u-above-b", "opoint-probe-cap", "sweep-activity-draws",
        "ber-input-fmt"])
def test_cli_gives_the_owners_range_message(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert cli_main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n" and not out.exists()


@pytest.mark.parametrize("name", ["exact_fft", "quantized"])
def test_run_config_flags_must_be_bools(name):
    # exact_fft="false" was stored and ran the exact DFT; quantized=0 ran float mode
    for value in ("false", 0, 1, 1.0, None):
        with pytest.raises(ValueError) as exc:
            small_cfg(**{name: value})
        assert str(exc.value) == f"{name} {value!r} is not a bool"
    for value in (True, False, np.bool_(True), np.bool_(False)):
        stored = getattr(small_cfg(**{name: value}), name)
        assert type(stored) is bool and stored == value
    assert small_cfg(**{name: np.bool_(False)}) == small_cfg(**{name: False})


def _flag_callers():
    rng = np.random.default_rng(71)
    w, x = random_weights(rng, 4, 16, tau_w=0.3), random_tagged(rng, 16, tau_y=0.3)
    report = equalize_tagged(w, x, True)[1]

    def stream(vectors, v):
        _, cycles, trace, _ = simulate_stream(w, vectors, PipelineConfig(), v)
        return cycles, trace.mute_count()

    return {
        "exact": lambda v: (type(TwiddleConfig(exact=v).exact), TwiddleConfig(exact=v).exact),
        "save_power": lambda v: equalize_pairs(w, x, [(0.3, 0.3)], v)[0][2].tolist(),
        "save_power-tagged": lambda v: int(equalize_tagged(w, x, v)[1]),
        "save_power-stream": lambda v: stream([x, x], v),
        "save_power-empty-stream": lambda v: stream([], v),
        "per_draw": lambda v: activity_grid(small_cfg(), "lmmse-spade", 10.0, [0.1], [0.1],
                                            draws=2, vectors_per_draw=1, per_draw=v).shape,
        "fft_active": lambda v: power_proxy(ActivityReport(np.atleast_1d(report), 256),
                                            PowerCoeffs(fft_on=0.5), v),
    }


@pytest.mark.parametrize("caller", list(_flag_callers()))
def test_every_flag_refuses_what_run_config_refuses(caller):
    # each ran a truthy string or number as its bool: exact="false" ran the
    # exact DFT, save_power="False" skipped products, per_draw="no" returned
    # the per-draw array, fft_active="no" added the transform's power and an
    # empty stream returned its cycles for save_power="x"
    call, name = _flag_callers()[caller], caller.split("-")[0]
    for value in ("false", 0, 1, 1.0, None):
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{name} {value!r} is not a bool"
    for value in (True, False):
        assert call(np.bool_(value)) == call(value)
    assert call(True) != call(False) or caller == "save_power-empty-stream"


def test_probe_cap_below_one_is_rejected(tmp_path, capsys):
    # a zero-vector probe reads BER 0.0, so the search would return the
    # bottom of its range
    for cap in (0, -3):
        with pytest.raises(ValueError, match="probe_cap"):
            snr_operating_point(small_cfg(), "lmmse-a", probe_cap=cap)
        with pytest.raises(ValueError, match="probe_cap"):
            threshold_sweep(small_cfg(), [0.0], [0.0], activity_draws=1, probe_cap=cap)
    assert cli_main(["opoint", "--b", "4", "--u", "1", "--probe-cap", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: probe_cap") and err.count("\n") == 1
    code = cli_main(["sweep", "--b", "4", "--u", "1", "--probe-cap", "0",
                     "--out", str(tmp_path / "s.csv")])
    assert code == 1 and capsys.readouterr().err.startswith("error: probe_cap")


_PROBE_CFG = RunConfig(B=16, U=2, M=4, vectors_per_block=10)


@pytest.mark.parametrize("make,kw,name", [
    pytest.param(small_cfg, dict(seed=True), "seed", id="RunConfig-seed=True"),
    pytest.param(derive_stream, dict(seed=True, purpose=1, tag=0, index=0), "stream seed",
                 id="derive_stream-seed=True"),
    pytest.param(small_cfg, dict(workers=1.5), "workers", id="RunConfig-workers=1.5"),
    pytest.param(small_cfg, dict(vectors_per_block=2.5), "vectors_per_block",
                 id="RunConfig-vectors_per_block=2.5"),
    pytest.param(small_cfg, dict(vectors_per_block=True), "vectors_per_block",
                 id="RunConfig-vectors_per_block=True"),
    pytest.param(small_cfg, dict(M=16.0), "M", id="RunConfig-M=16.0"),
    pytest.param(small_cfg, dict(U=4.0), "U", id="RunConfig-U=4.0"),
    pytest.param(small_cfg, dict(B=16.0), "B", id="RunConfig-B=16.0"),
    pytest.param(StopRule, dict(max_vectors=10.5), "max_vectors", id="StopRule-max_vectors=10.5"),
    pytest.param(StopRule, dict(target_errors=True), "target_errors",
                 id="StopRule-target_errors=True"),
    pytest.param(partial(snr_operating_point, _PROBE_CFG, "lmmse-a"), dict(probe_cap=True),
                 "probe_cap", id="snr_operating_point-probe_cap=True"),
    pytest.param(partial(snr_operating_point, _PROBE_CFG, "lmmse-a"), dict(probe_cap=2.5),
                 "probe_cap", id="snr_operating_point-probe_cap=2.5"),
    pytest.param(partial(threshold_sweep, _PROBE_CFG, [0.0], [0.0]), dict(probe_cap=2.5),
                 "probe_cap", id="threshold_sweep-probe_cap=2.5"),
    pytest.param(partial(activity_grid, _PROBE_CFG, "lmmse-spade", 10.0, [0.0], [0.0]),
                 dict(draws=True), "draws", id="activity_grid-draws=True"),
    pytest.param(partial(activity_grid, _PROBE_CFG, "lmmse-spade", 10.0, [0.0], [0.0]),
                 dict(vectors_per_draw=1.5), "vectors_per_draw",
                 id="activity_grid-vectors_per_draw=1.5"),
    pytest.param(partial(threshold_sweep, _PROBE_CFG, [0.0], [0.0]), dict(activity_draws=2.5),
                 "activity_draws", id="threshold_sweep-activity_draws=2.5"),
    pytest.param(partial(threshold_sweep, _PROBE_CFG, [0.0], [0.0]),
                 dict(vectors_per_draw=1.5), "vectors_per_draw",
                 id="threshold_sweep-vectors_per_draw=1.5"),
])
def test_counts_must_be_integers(make, kw, name):
    # a bool ran as 1 or 0; a float ran or failed deep inside run_ber with a TypeError;
    # probe_cap=True ran 1-vector probes, which read BER 0 and gave -10 dB
    with pytest.raises(ValueError, match=rf"^{name} .* is not an integer"):
        make(**kw)


def test_counts_take_numpy_integers():
    cfg = small_cfg(B=np.int64(16), U=np.int32(4), M=np.int16(4), seed=np.uint64(5),
                    vectors_per_block=np.int64(10), workers=np.uint8(1))
    plain = small_cfg(vectors_per_block=10)
    assert cfg == plain
    stop = StopRule(np.int64(5), np.uint32(7))
    assert stop == StopRule(5, 7)
    # each setting is stored as a plain int, so the report (trials included) holds no
    # NumPy integer: JSON refused one, and both formats have the plain config's bytes
    assert all(type(getattr(cfg, f)) is int
               for f in ("B", "U", "M", "seed", "vectors_per_block", "workers"))
    assert all(type(getattr(stop, f)) is int for f in ("target_errors", "max_vectors"))
    reports = [run_ber(c, [4.0], "lmmse-spade", StopRule(max_vectors=m))
               for c, m in ((cfg, np.int64(25)), (plain, 25))]
    assert type(reports[0].points[0].trials) is int
    for fmt in REPORT_FORMATS:
        assert render_report(reports[0], fmt) == render_report(reports[1], fmt)


@pytest.mark.parametrize("name", ["tau_w", "tau_y"])
def test_thresholds_are_stored_as_floats_and_refuse_bools(name):
    # tau_w=True ran as 1.0 but wrote True into the report; tau_w=1 wrote 1
    for flag in (True, np.True_, False):
        with pytest.raises(ValueError) as exc:
            small_cfg(**{name: flag})
        assert str(exc.value) == f"{name}: " + _THRESHOLD.format(flag)
    cfg = small_cfg(**{name: 1})
    assert type(getattr(cfg, name)) is float and cfg == small_cfg(**{name: 1.0})
    header, row = render_report(run_ber(cfg, [4.0], "lmmse-spade",
                                        StopRule(max_vectors=25))).splitlines()
    assert row.split(",")[header.split(",").index(name)] == "1.0"


def test_stop_rule_rejects_negative_counts(capsys):
    for name, value in (("target_errors", -1), ("max_vectors", -5)):
        with pytest.raises(ValueError) as exc:
            StopRule(**{name: value})
        assert str(exc.value) == f"{name} {value} is not an integer >= 0"
    StopRule(target_errors=0, max_vectors=0)  # zero stays allowed
    for name in ("max_vectors", "target_errors"):
        code = cli_main(["ber", "--" + name.replace("_", "-"), "-5", "--b", "4", "--u", "1",
                         "--snr-start", "10", "--snr-stop", "10"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} -5 is not an integer >= 0\n"


def test_channel_file_injection(tmp_path):
    rng = np.random.default_rng(71)
    cm = draw_channel_matrix("los", 16, 4, rng)
    path = str(tmp_path / "chan.bin")
    save_channel(path, cm, "bin")
    cfg = small_cfg(channel="file", channel_file=path)
    rep = run_ber(cfg, [10.0], "lmmse-b", StopRule(target_errors=50, max_vectors=500))
    assert rep.points[0].trials == 500
    with pytest.raises(ValueError, match="channel file is 16x4, config wants 64x16"):
        small_cfg(B=64, U=16, M=16, channel="file", channel_file=path)


def test_bad_channel_file_is_refused_when_the_config_is_made(tmp_path, capsys):
    cm = draw_channel_matrix("los", 16, 4, np.random.default_rng(71))
    wrong_shape, beamspace = str(tmp_path / "wrong.bin"), str(tmp_path / "beam.bin")
    save_channel(wrong_shape, ChannelMatrix(cm.entries[:, :3], "antenna"), "bin")
    save_channel(beamspace, ChannelMatrix(cm.entries, "beamspace"), "bin")
    for path, message in ((wrong_shape, "channel file is 16x3, config wants 16x4"),
                          (beamspace, "channel file must contain an antenna-domain matrix")):
        with pytest.raises(ValueError, match=message):
            small_cfg(channel="file", channel_file=path)
        code = cli_main(["ber", "--b", "16", "--u", "4", "--mod", "4", "--max-vectors", "10",
                         "--channel", "file", "--channel-file", path, "--out", "-"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_run_config_is_frozen():
    cfg = small_cfg()
    # an assignment would skip the checks made when the config is made
    for name, value in (("B", 5), ("seed", 2), ("channel_file", "chan.bin")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg == small_cfg()


def test_channel_file_is_read_once_per_config(tmp_path, monkeypatch):
    path = str(tmp_path / "chan.bin")
    save_channel(path, draw_channel_matrix("los", 16, 2, np.random.default_rng(3)), "bin")
    reads = []
    monkeypatch.setattr(harness, "load_channel", lambda p: reads.append(p) or load_channel(p))
    cfg = small_cfg(U=2, channel="file", channel_file=path, vectors_per_block=20)
    run_ber(cfg, [10.0], "lmmse-spade", StopRule(max_vectors=20))
    snr_operating_point(cfg, "lmmse-spade", probe_cap=20)
    for _ in range(2):
        activity_grid(cfg, "lmmse-spade", 10.0, [0.1], [0.1], draws=2)
    threshold_sweep(cfg, [0.1], [0.1], activity_draws=2, probe_cap=20)
    assert reads == [path]


def test_channel_file_without_file_channel_is_rejected(capsys):
    # it used to be ignored: the run drew LoS channels
    for channel in ("los", "nlos"):
        with pytest.raises(ValueError, match="channel_file needs channel 'file'"):
            small_cfg(channel=channel, channel_file="chan.csv")
    code = cli_main(["ber", "--b", "4", "--u", "1", "--mod", "4", "--max-vectors", "10",
                     "--channel-file", "/nonexistent.csv", "--out", "-"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: channel_file needs channel 'file'\n"


# ---------------------------------------------------------------------------
# Operating point
# ---------------------------------------------------------------------------

def test_operating_point_qpsk_closed_form():
    cfg = RunConfig(B=1, U=1, M=4, vectors_per_block=200, seed=7)
    op = snr_operating_point(cfg, "lmmse-a", target_ber=0.01, probe_cap=150_000)
    analytic = 10 * math.log10(q_func_inv(0.01) ** 2)
    assert op is not None
    assert abs(op - analytic) < 0.2


def test_operating_point_monotone_in_target():
    cfg = RunConfig(B=1, U=1, M=4, vectors_per_block=200, seed=8)
    op1 = snr_operating_point(cfg, "lmmse-a", target_ber=0.01, probe_cap=60_000)
    op2 = snr_operating_point(cfg, "lmmse-a", target_ber=0.001, probe_cap=60_000)
    assert op2 >= op1


def test_operating_point_zero_threshold_paths_identical():
    cfg = small_cfg(tau_w=0.0, tau_y=0.0)
    kw = dict(target_ber=0.01, probe_cap=20_000)
    op_spade = snr_operating_point(cfg, "lmmse-spade", **kw)
    op_b = snr_operating_point(cfg, "lmmse-b", **kw)
    assert op_spade == op_b  # identical probe streams, bit-identical outputs


def test_operating_point_unreached():
    # saturating thresholds skip every product; the estimates collapse to zero
    cfg = small_cfg(tau_w=1.0, tau_y=8.0)
    op = snr_operating_point(cfg, "lmmse-spade", target_ber=0.01, probe_cap=5_000)
    assert op is None


# ---------------------------------------------------------------------------
# Activity measurement and sweep
# ---------------------------------------------------------------------------

def test_activity_grid_monotone_small():
    cfg = small_cfg()
    grid = default_grid()
    rates = activity_grid(cfg, "lmmse-spade", 10.0, grid, grid, draws=40)
    assert rates.shape == (8, 8)
    assert np.all(np.diff(rates, axis=0) <= 0)
    assert np.all(np.diff(rates, axis=1) <= 0)


def test_activity_cells_match_single_cell_grids():
    # an unsorted grid with a repeated threshold: every cell gathers its own
    # count from the draw's shared count, as if it were measured alone
    cfg = small_cfg()
    tws, tys = [0.3, 0.05, 0.3], [0.2, 0.0]
    kw = dict(draws=6, per_draw=True)
    rates = activity_grid(cfg, "lmmse-spade", 10.0, tws, tys, **kw)
    assert rates.shape == (3, 2, 6)
    for i, tw in enumerate(tws):
        for j, ty in enumerate(tys):
            alone = activity_grid(cfg, "lmmse-spade", 10.0, [tw], [ty], **kw)
            assert np.array_equal(rates[i, j], alone[0, 0])
    assert np.all(rates[:, 1] == 1.0) and not np.array_equal(rates[0, 0], rates[1, 0])
    assert np.array_equal(activity_grid(cfg, "lmmse-b", 10.0, tws, tys, **kw), np.ones((3, 2, 6)))


@pytest.mark.parametrize("snrs", [[10.0], [4.0, 9.5, 20.0]])
@pytest.mark.parametrize("draws", ["1", "cap", "cap+1"])
def test_chunked_activity_matches_one_draw_at_a_time(snrs, draws):
    # one draw, one full chunk and one draw past it: where a chunk ends moves no count
    per_chunk = _CHUNK_MATRICES // len(snrs)
    draws = {"1": 1, "cap": per_chunk, "cap+1": per_chunk + 1}[draws]
    cfg = small_cfg(U=2)
    cells = [(snr, tw, ty) for snr in snrs for tw in (0.0, 0.05, 0.3) for ty in (0.1, 0.5)]
    got = _activity_rates(cfg, "lmmse-spade", cells, draws, 2)
    assert got.tobytes() == activity_rates_per_draw(cfg, cells, draws, 2).tobytes()


def test_activity_matches_run_ber_accounting():
    cfg = small_cfg(tau_w=0.05, tau_y=0.05)
    act = activity_grid(cfg, "lmmse-spade", 10.0, [0.05], [0.05], draws=100, vectors_per_draw=4)[0, 0]
    assert 0.0 < act <= 1.0
    # non-spade modes never skip
    assert activity_grid(cfg, "lmmse-b", 10.0, [0.05], [0.05], draws=5)[0, 0] == 1.0


def test_activity_los_below_nlos():
    snr = 12.0
    kw = dict(draws=300, vectors_per_draw=2)
    cfg = small_cfg(tau_w=0.05, tau_y=0.05)
    los = activity_grid(cfg, "lmmse-spade", snr, [0.05], [0.05], **kw)[0, 0]
    nlos = activity_grid(replace(cfg, channel="nlos"), "lmmse-spade", snr, [0.05], [0.05], **kw)[0, 0]
    assert los < nlos


def test_activity_needs_draws_and_vectors(tmp_path, capsys):
    # an empty draw axis gave a NaN mean activity (and two RuntimeWarnings)
    cfg = small_cfg(B=4, U=1)
    for draws, vectors in ((0, 2), (2, 0), (-1, 2)):
        refused = (f"draws {draws}" if draws < 1 else f"vectors_per_draw {vectors}") \
            + " is not an integer >= 1"
        with pytest.raises(ValueError) as exc:
            activity_grid(cfg, "lmmse-spade", 10.0, [0.1], [0.1], draws=draws,
                          vectors_per_draw=vectors)
        assert str(exc.value) == refused
        with pytest.raises(ValueError) as exc:
            threshold_sweep(cfg, [0.1], [0.1], activity_draws=draws, vectors_per_draw=vectors,
                            probe_cap=200)
        assert str(exc.value) == ("activity_" if draws < 1 else "") + refused
    with pytest.raises(ValueError, match=r"^draws 0 is not an integer >= 1$"):
        activity_grid(cfg, "lmmse-b", 10.0, [0.1], [0.1], draws=0)
    out = tmp_path / "s.csv"
    rc = cli_main(["sweep", "--b", "4", "--u", "1", "--mod", "4", "--tau-w-grid", "0.1",
                   "--tau-y-grid", "0.1", "--activity-draws", "0", "--probe-cap", "200",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and not out.exists()
    assert err == "error: activity_draws 0 is not an integer >= 1\n"


def test_threshold_sweep_tiny(tmp_path):
    cfg = small_cfg()
    records = threshold_sweep(cfg, [0.0, 0.25], [0.0, 0.25], activity_draws=50,
                              probe_cap=10_000)
    assert len(records) == 4
    by_pair = {(r.tau_w, r.tau_y): r for r in records}
    zero = by_pair[(0.0, 0.0)]
    assert zero.mean_activity_rate == 1.0
    assert zero.snr_operating_point_db is not None
    assert zero.ber_curve  # probes recorded
    assert rates_sorted(records)
    assert any(r.pareto for r in records)
    out = tmp_path / "sweep.csv"
    emit_sweep(records, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "tau_w,tau_y,mean_activity_rate,snr_operating_point_db,pareto"
    assert len(lines) == 5


# a small default-grid sweep, written to the CSV at ``path``
_GRID_SWEEP = """
from spadesim.harness import RunConfig, default_grid, emit_sweep, threshold_sweep
cfg = RunConfig(B=16, U=2, M=4, vectors_per_block=20)
emit_sweep(threshold_sweep(cfg, default_grid(), default_grid(), activity_draws=2,
                           probe_cap=20), path)
"""


def test_default_grid_sweep_does_not_depend_on_numpy_simd_level(tmp_path):
    # np.geomspace rounded two of the grid's values one ulp higher on NumPy's
    # AVX2 kernels, and the sweep CSV prints every threshold. The child runs
    # the sweep on the AVX2 kernels; on a host without AVX-512 both do.
    np.testing.assert_array_max_ulp(default_grid(), np.geomspace(2.0**-9, 2.0**-1, 8), maxulp=1)
    here, there = str(tmp_path / "in_process.csv"), str(tmp_path / "avx2.csv")
    exec(_GRID_SWEEP, {"path": here})
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", f"path = {there!r}" + _GRID_SWEEP], env=env,
                   check=True, capture_output=True)
    assert Path(there).read_bytes() == Path(here).read_bytes()


def rates_sorted(records):
    rates = [r.mean_activity_rate for r in records]
    return all(a <= b for a, b in zip(rates, rates[1:]))


def test_zero_pair_operating_point_equals_lmmse_b():
    cfg = small_cfg(tau_w=0.0, tau_y=0.0)
    records = threshold_sweep(cfg, [0.0], [0.0], activity_draws=20, probe_cap=10_000)
    op_b = snr_operating_point(cfg, "lmmse-b", probe_cap=10_000)
    assert records[0].snr_operating_point_db == op_b


def test_saturating_pair_collapses():
    # both thresholds at the top of the grid: almost everything is skipped and
    # the estimates degrade so far that 1% BER is out of reach
    cfg = small_cfg()
    records = threshold_sweep(cfg, [1.0], [1.0], activity_draws=50, probe_cap=4000)
    r = records[0]
    assert r.mean_activity_rate < 0.5
    op_b = snr_operating_point(small_cfg(tau_w=0.0, tau_y=0.0), "lmmse-b", probe_cap=4000)
    assert r.snr_operating_point_db is None or r.snr_operating_point_db > op_b + 3.0


def test_unquantized_modes_share_error_counts():
    cfg = small_cfg(quantized=False)
    stop = StopRule(target_errors=10**9, max_vectors=2000)
    rep_a = run_ber(cfg, [6.0], "lmmse-a", stop)
    rep_b = run_ber(cfg, [6.0], "lmmse-b", stop)
    assert rep_a.points[0].bit_errors == rep_b.points[0].bit_errors


def test_activity_ordering_holds_across_grid():
    grid = default_grid()
    kw = dict(draws=1000, vectors_per_draw=2)
    los = activity_grid(RunConfig(B=64, U=16, M=16, seed=5), "lmmse-spade", 11.0,
                        grid, grid, **kw)
    nlos = activity_grid(RunConfig(B=64, U=16, M=16, seed=5, channel="nlos"),
                         "lmmse-spade", 11.0, grid, grid, **kw)
    assert np.all(los <= nlos)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def fixed_report():
    cfg = RunConfig(B=16, U=4, M=4, seed=9, tau_w=0.0625, tau_y=0.03125)
    points = [
        SnrPoint(snr_db=0.0, trials=1000, bit_errors=123, ber=123 / 8000,
                 activity_mean=0.875, activity_min=0.5, activity_max=1.0),
        SnrPoint(snr_db=2.0, trials=2000, bit_errors=45, ber=45 / 16000,
                 activity_mean=0.8125, activity_min=0.25, activity_max=0.9375),
    ]
    return RunReport(config=cfg, mode="lmmse-spade", points=points)


GOLDEN_CSV = """mode,B,U,M,channel_kind,snr_db,trials,bit_errors,ber,activity_mean,activity_min,activity_max,tau_w,tau_y,seed
lmmse-spade,16,4,4,los,0.0,1000,123,0.015375,0.875,0.5,1.0,0.0625,0.03125,9
lmmse-spade,16,4,4,los,2.0,2000,45,0.0028125,0.8125,0.25,0.9375,0.0625,0.03125,9
"""


def test_report_golden_csv():
    assert render_report(fixed_report(), "csv") == GOLDEN_CSV


def test_report_json_round_trip():
    rep = fixed_report()
    doc = json.loads(render_report(rep, "json"))
    from spadesim.harness import report_rows

    assert doc["rows"] == report_rows(rep)
    assert doc["schema_version"] == 1


def test_report_header_only_for_empty_snr_list():
    rep = run_ber(small_cfg(), [], "lmmse-a")
    text = render_report(rep, "csv")
    assert text.splitlines() == [GOLDEN_CSV.splitlines()[0]]


def test_report_unknown_format():
    with pytest.raises(ValueError):
        render_report(fixed_report(), "xml")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def readme_commands() -> list[list[str]]:
    """The argument lists of the ``spadesim ...`` lines in README's "Command line", continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("spadesim ")]


def test_readme_command_examples_parse():
    # parsed as main() parses them, and nothing run: a renamed or dropped flag fails here
    commands = readme_commands()
    assert sorted(argv[0] for argv in commands) == sorted(_COMMANDS)
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0] and _effective(args)


def test_cli_out_to_missing_directory_is_one_error_line(tmp_path, capsys):
    code = cli_main(["ber", "--b", "4", "--u", "1", "--mod", "4", "--snr-start", "0",
                     "--max-vectors", "10", "--out", str(tmp_path / "missing" / "r.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_ber_writes_csv(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = cli_main([
        "ber", "--mode", "lmmse-spade", "--b", "16", "--u", "4", "--mod", "4",
        "--channel", "los", "--snr-start", "6", "--snr-stop", "8", "--snr-step", "2",
        "--tau-w", "0.0625", "--tau-y", "0.0625", "--seed", "5",
        "--max-vectors", "500", "--target-errors", "100",
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("mode,B,U,M")
    assert len(lines) == 3


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "b=16\nu=4\nmod=4\nchannel=los\nseed=5\nsnr-start=6\nsnr-stop=6\n"
        "max-vectors=250\ntarget-errors=100\ntau-w=0.5\ntau-y=0.0625\n"
    )
    out = tmp_path / "o.csv"
    code = cli_main(["ber", "--config", str(cfg_file), "--tau-w", "0.0625",
                     "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[12] == "0.0625"  # flag overrides the file's tau-w
    assert row[6] == "250"      # file's max-vectors applied


@pytest.mark.parametrize("text", ["10:9:1", "10", ""])
def test_cli_format_names_its_form(text, tmp_path, capsys):
    # "10:9:1" said "too many values to unpack (expected 2)"
    out = tmp_path / "o.csv"
    for flag in ("weight-fmt", "input-fmt", "twiddle-fmt"):
        assert cli_main(["ber", f"--{flag}", text, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: --{flag}: expected T:F, got {text!r}\n"
    cfg_file = tmp_path / "fmt.cfg"
    cfg_file.write_text(f"weight_fmt={text}\n")
    assert cli_main(["ber", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --weight-fmt: expected T:F, got {text!r}\n"


def test_cli_config_key_given_twice_is_rejected(tmp_path, capsys):
    # the last value used to win; both spellings name the same key
    out = tmp_path / "o.csv"
    for lines, key in (("b=4\nb=16\n", "b"), ("max_vectors=10\nmax-vectors=20\n", "max_vectors")):
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("u=1\nmod=4\n" + lines)
        assert cli_main(["ber", "--config", str(cfg_file), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: config key {key!r} given twice\n"


def test_cli_abbreviated_flag_is_rejected(capsys):
    # --snr-sta and --max-vec used to run as --snr-start and --max-vectors
    with pytest.raises(SystemExit) as exc:
        cli_main(["ber", "--b", "4", "--u", "1", "--mod", "4", "--snr-sta", "3", "--max-vec", "10",
                  "--out", "-"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_cli_stdout_and_errors(tmp_path, capsys):
    code = cli_main(["datapath", "--clock-hz", "720e6", "--u", "16", "--mod", "16",
                     "--coherence", "1000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "peak_throughput_gbps=46.08" in out
    code = cli_main(["ber", "--b", "15", "--snr-start", "0", "--snr-stop", "0",
                     "--max-vectors", "100"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "\n" == err[err.index("\n"):]  # single line


def test_cli_config_booleans_are_strict(tmp_path, capsys):
    # any other value used to read as false
    cfg_file = tmp_path / "b.cfg"
    for key, field in (("exact-fft", "exact_fft"), ("float", "float")):
        for text, value in [("true", True), ("YES", True), ("1", True), ("False", False),
                            ("no", False), ("0", False)]:
            cfg_file.write_text(f"{key}={text}\n")
            args = argparse.Namespace(config=str(cfg_file), command="ber")
            assert _effective(args)[field] is value
        for text in ("ture", "", "2", "on"):
            cfg_file.write_text(f"b=4\nu=1\nmod=4\nsnr-start=6\nmax-vectors=10\n{key}={text}\n")
            assert cli_main(["ber", "--config", str(cfg_file)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: --{key}: not a boolean")
            assert captured.err.count("\n") == 1


def test_cli_checks_output_options_before_running(tmp_path, capsys, monkeypatch):
    # a sweep without --out and a config file's unknown report format used to
    # fail only after the whole run
    def ran(*args, **kwargs):
        pytest.fail("the run started before its output options were checked")

    monkeypatch.setattr("spadesim.cli.run_ber", ran)
    monkeypatch.setattr("spadesim.cli.threshold_sweep", ran)
    cfg_file = tmp_path / "x.cfg"
    cfg_file.write_text("b=4\nu=1\nformat=xml\n")
    for argv in (["sweep", "--b", "4", "--u", "1"], ["ber", "--config", str(cfg_file)]):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_subcommands_accept_only_their_options(tmp_path, capsys):
    # opoint used to take the BER stop rule and report format, and every
    # subcommand's config file every key of any subcommand, and ignore them
    argv = ["opoint", "--b", "4", "--u", "1", "--mod", "4", "--mode", "lmmse-a",
            "--probe-cap", "2000"]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--max-vectors", "1", "--target-errors", "0", "--format", "json"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg_file = tmp_path / "op.cfg"
    cfg_file.write_text("coherence=0\nclock-hz=-5\nsnr-step=-1\n")
    assert cli_main(argv + ["--config", str(cfg_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown config key ") and captured.err.count("\n") == 1


def test_snr_list_points_do_not_drift():
    assert _snr_list({"snr_start": 6.0, "snr_stop": 7.0, "snr_step": 0.1}) == \
        [6.0, 6.1, 6.2, 6.3, 6.4, 6.5, 6.6, 6.7, 6.8, 6.9, 7.0]
    assert _snr_list({"snr_start": 0.0, "snr_stop": 10.0}) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert _snr_list({"snr_start": 3.0}) == [3.0]
    assert _snr_list({"snr_start": 5.0, "snr_stop": 4.0, "snr_step": 0.5}) == []
    assert _snr_list({"snr_start": 1.7e308, "snr_stop": -1.7e308}) == []  # a count of -inf
    with pytest.raises(ValueError):
        _snr_list({"snr_start": 0.0, "snr_stop": float("inf")})


def test_cli_opoint(tmp_path, capsys):
    cfg_file = tmp_path / "op.cfg"
    cfg_file.write_text("b=1\nu=1\nmod=4\nchannel=los\nseed=7\ntarget-ber=0.05\n")
    code = cli_main(["opoint", "--config", str(cfg_file), "--mode", "lmmse-a"])
    assert code == 0
    val = float(capsys.readouterr().out.strip())
    analytic = 10 * math.log10(q_func_inv(0.05) ** 2)
    assert abs(val - analytic) < 1.0


def test_cli_sweep_tiny(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli_main([
        "sweep", "--b", "16", "--u", "4", "--mod", "4", "--channel", "los",
        "--seed", "5", "--tau-w-grid", "0.0,0.125", "--tau-y-grid", "0.125",
        "--activity-draws", "30", "--probe-cap", "5000", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


# sha256 of render_report for one small run_ber per mode. The report stream is
# part of the byte contract: a change that moves one of these is a model
# change and updates the pin on purpose.
REPORT_PINS = {
    ("lmmse-a", "csv"): "3db3ed5cf644edbcab0614d896a0ec046c097d83d252c8c63d1538228a357ce9",
    ("lmmse-a", "json"): "d0cee12d4ef825d497380369a89cf09d2f8f8c0c0475a638852e8a0dbc8ce458",
    ("lmmse-b", "csv"): "c8b55a8470e912414c81c858f91262889b60882b8a210dbd527b56d5502fdba3",
    ("lmmse-b", "json"): "289296ea134c45716c1338399c17f9fdcd4d8354e030e82f2094ef06030180ac",
    ("lmmse-spade", "csv"): "1a00cdd28b3bc0ff73dffcce75a0c891ad452ea4f5c621ebad5e6653f25d753e",
    ("lmmse-spade", "json"): "34b5ce8a29d41179628d12f3f29dcc678a30d9039ee4f8b9c8e65044e29778b2",
}


@pytest.mark.parametrize("mode", MODES)
def test_report_bytes_pinned(mode):
    cfg = RunConfig(B=16, U=4, M=16, channel="los", seed=5, vectors_per_block=50)
    rep = run_ber(cfg, [4.0, 10.0], mode, StopRule(target_errors=300, max_vectors=1000))
    for fmt in ("csv", "json"):
        digest = hashlib.sha256(render_report(rep, fmt).encode("ascii")).hexdigest()
        assert digest == REPORT_PINS[mode, fmt], (mode, fmt)


@pytest.mark.parametrize("flag, name", [("--tau-w", "tau_w"), ("--tau-y", "tau_y")])
def test_cli_names_a_threshold_that_overflows_its_format(flag, name, capsys):
    with pytest.raises(ValueError, match=f"^{name}: threshold"):
        small_cfg(**{name: 1e308})
    small_cfg(**{name: 1e308}, quantized=False)  # no format: tau itself, finite
    code = cli_main(["ber", "--b", "4", "--u", "1", "--mod", "4", "--snr-start", "0",
                     "--snr-stop", "0", "--max-vectors", "10", flag, "1e308"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: {name}: threshold 1e+308") and err.count("\n") == 1
