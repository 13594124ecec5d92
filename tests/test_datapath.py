"""Cycle contract, mute accounting, throughput arithmetic, power proxy."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spadesim.datapath import (
    PipelineConfig,
    PowerCoeffs,
    effective_throughput,
    power_proxy,
    simulate_stream,
    throughput_bps,
)
from spadesim.cli import main as cli_main
from spadesim.beamspace import _TILE_COLUMNS, TwiddleConfig, to_beamspace
from spadesim.equalizer import (
    ActivityReport,
    BeamVector,
    FrontEnd,
    equalize_block,
    equalize_tagged,
    tag_input,
    _check_array,
)
from spadesim.harness import RunConfig
from spadesim.numerics import INPUT_FMT, WEIGHT_FMT, QFormat

from reference import mute_mask
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


def test_stream_across_tiles_matches_equalize_block():
    # the stream is stacked and scored in column tiles, the last one partial
    rng = np.random.default_rng(68)
    B, n, fe = 16, 2 * _TILE_COLUMNS + 37, FrontEnd(tau_y=0.3, gain=0.5)
    weights = random_weights(rng, 4, B, tau_w=0.2)
    Y = rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))
    Z = to_beamspace(fe.gain * Y, fe.twiddle)
    vectors = [tag_input(Z[:, i], fe.tau_y, fe.input_fmt) for i in range(n)]
    outputs, _, trace, report = simulate_stream(weights, vectors, PipelineConfig(), True,
                                                gain=fe.gain)
    S, block_report = equalize_block("lmmse-spade", None, weights, Y, fe)
    assert outputs.tobytes() == np.ascontiguousarray(S.T).tobytes()
    assert report.per_vector.tobytes() == block_report.per_vector.tobytes()
    assert 0 < trace.mute_count() == sum(int(mute_mask(weights, x).sum()) for x in vectors)


@pytest.mark.parametrize("save_power", [True, False])
@pytest.mark.parametrize("U,B,n", [(1, 1, 5), (2, 4, 7), (3, 16, 30), (16, 64, 12), (4, 16, 0)])
def test_mute_trace_matches_dense_oracle(save_power, U, B, n):
    rng = np.random.default_rng(1000 * U + 10 * B + n)
    weights = random_weights(rng, U, B, tau_w=0.5)
    vectors = [random_tagged(rng, B, tau_y=2.0) for _ in range(n)]
    _, _, trace, _ = simulate_stream(weights, vectors, PipelineConfig(), save_power)
    masks = [mute_mask(weights, x) if save_power else np.zeros((U, B, 4), dtype=bool)
             for x in vectors]
    assert trace.mute_count() == sum(int(m.sum()) for m in masks)


def test_stream_rejects_mixed_lengths_and_formats():
    rng = np.random.default_rng(69)
    weights = random_weights(rng, 2, 16, tau_w=0.1)
    x = random_tagged(rng, 16, tau_y=0.1)
    for other in (random_tagged(rng, 4, tau_y=0.1),
                  random_tagged(rng, 16, tau_y=0.1, fmt=QFormat(10, 7)),
                  random_tagged(rng, 16, tau_y=0.2)):
        with pytest.raises(ValueError, match="one length and input format"):
            simulate_stream(weights, [x, other], PipelineConfig(), save_power=True)


def test_stream_rejects_a_block_entry():
    # a (B, N) block is N vectors: streamed as one entry it would count one cycle
    rng = np.random.default_rng(69)
    weights = random_weights(rng, 4, 16, tau_w=0.1)
    Y = rng.uniform(-3.9, 3.9, (16, 5)) + 1j * rng.uniform(-3.9, 3.9, (16, 5))
    with pytest.raises(ValueError, match="1-D"):
        simulate_stream(weights, [tag_input(Y, 0.1, INPUT_FMT)], PipelineConfig(), True)


def test_stream_checks_every_vector_before_the_first_tile():
    # the vectors after the first tile, all of one other length, stack alone
    # into a block the equalizer would refuse with its own message
    rng = np.random.default_rng(70)
    weights = random_weights(rng, 2, 16, tau_w=0.1)
    first = [random_tagged(rng, 16, tau_y=0.1) for _ in range(_TILE_COLUMNS)]
    rest = [random_tagged(rng, 4, tau_y=0.1) for _ in range(3)]
    with pytest.raises(ValueError, match="one length and input format"):
        simulate_stream(weights, first + rest, PipelineConfig(), save_power=True)


@pytest.mark.parametrize("quantized", [True, False])
@pytest.mark.parametrize("n", [1, _TILE_COLUMNS - 1, _TILE_COLUMNS, _TILE_COLUMNS + 1,
                               2 * _TILE_COLUMNS + 37])
def test_contiguous_stream_equals_the_block(n, quantized):
    # vectors tagged one by one hold contiguous raws, which each tile joins
    # through their buffers: the bytes and counts are the block's
    rng = np.random.default_rng(n)
    B, U = 16, 4
    fmt = INPUT_FMT if quantized else None
    fe = FrontEnd(input_fmt=fmt, tau_y=0.3, twiddle=TwiddleConfig(exact=not quantized), gain=0.5)
    weights = random_weights(rng, U, B, tau_w=0.2, fmt=WEIGHT_FMT if quantized else None)
    Y = rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))
    Z = to_beamspace(fe.gain * Y, fe.twiddle)
    vectors = [tag_input(Z[:, i], fe.tau_y, fmt) for i in range(n)]
    assert all(x.re.flags.c_contiguous and x.im.flags.c_contiguous for x in vectors)
    outputs, _, _, report = simulate_stream(weights, vectors, PipelineConfig(), True, gain=fe.gain)
    S, block_report = equalize_block("lmmse-spade", None, weights, Y, fe)
    assert outputs.flags.c_contiguous
    assert outputs.tobytes() == np.ascontiguousarray(S.T).tobytes()
    assert report.per_vector.tobytes() == block_report.per_vector.tobytes()


def test_vectors_store_strided_raws_contiguous_and_the_stream_equals_the_block():
    # a strided column of a block is copied when tagged, so every stream
    # vector's raws have a buffer and a tile is one join of them
    rng = np.random.default_rng(72)
    block = rng.standard_normal((16, 5))
    vectors = [BeamVector(re=block[:, i], im=-block[:, i], fmt=None, tau_y=0.0) for i in range(5)]
    assert all(v.re.flags.c_contiguous and v.im.flags.c_contiguous for v in vectors)
    assert all(v.re.dtype == np.float64 for v in vectors)
    weights = random_weights(rng, 4, 16, tau_w=0.0, fmt=None)
    outputs, _, _, report = simulate_stream(weights, vectors, PipelineConfig(), False)
    S, executed = equalize_tagged(weights, BeamVector(re=block, im=-block, fmt=None, tau_y=0.0),
                                  False)
    assert outputs.tobytes() == np.ascontiguousarray(S.T).tobytes()
    assert report.per_vector.tobytes() == executed.tobytes()


def test_stream_of_another_length_reaches_the_equalizers_length_check():
    # a tile's rows take their length from the vectors: four 4-raw vectors
    # would fill one 16-raw row of each part, scored as a 16x1 block
    rng = np.random.default_rng(75)
    weights = random_weights(rng, 2, 16, tau_w=0.1)
    for n in (4, 5):
        vectors = [random_tagged(rng, 4, tau_y=0.1) for _ in range(n)]
        with pytest.raises(ValueError, match="length mismatch"):
            simulate_stream(weights, vectors, PipelineConfig(), save_power=True)


_LAYOUTS = {"contiguous": np.copy, "strided": lambda a: a, "big-endian": lambda a: a.astype(">f8")}


@pytest.mark.parametrize("layouts", [("contiguous", "big-endian"),
                                     ("contiguous", "strided", "big-endian")])
def test_stream_of_mixed_and_byte_swapped_raws_equals_the_block(layouts):
    # one tile's raws in turn: strided raws are copied and '>f8' raws
    # converted when tagged, so the join reads contiguous native float64
    rng = np.random.default_rng(73)
    B, U, n = 16, 4, 40
    weights = random_weights(rng, U, B, tau_w=0.2)
    x = tag_input(rng.uniform(-3.9, 3.9, (B, n)) + 1j * rng.uniform(-3.9, 3.9, (B, n)), 0.3,
                  INPUT_FMT)
    layout = [_LAYOUTS[layouts[i % len(layouts)]] for i in range(n)]
    vectors = [BeamVector(re=layout[i](x.re[:, i]), im=layout[i](x.im[:, i]),
                          fmt=x.fmt, tau_y=x.tau_y) for i in range(n)]
    assert all(v.re.dtype == np.dtype(np.float64) for v in vectors)
    outputs, _, _, report = simulate_stream(weights, vectors, PipelineConfig(), True)
    S, executed = equalize_tagged(weights, x, True)
    assert outputs.tobytes() == np.ascontiguousarray(S.T).tobytes()
    assert report.per_vector.tobytes() == executed.tobytes()


def test_stream_refuses_lengths_that_fill_whole_rows_together():
    # 63 + 65 raws fill two 64-raw rows of one joined buffer; the check pass
    # refuses them before any tile is built
    rng = np.random.default_rng(74)
    weights = random_weights(rng, 4, 64, tau_w=0.1)
    for lengths in ((63, 65), (65, 63)):
        vectors = [random_tagged(rng, B, tau_y=0.1) for B in lengths]
        with pytest.raises(ValueError, match="one length and input format"):
            simulate_stream(weights, vectors, PipelineConfig(), save_power=True)


def test_stream_peak_memory_is_the_output_and_a_few_tiles():
    # only one tile of the stream is stacked and scored at a time
    rng = np.random.default_rng(71)
    B, U, T = 64, 16, _TILE_COLUMNS
    weights = random_weights(rng, U, B, tau_w=0.1)
    vectors = [random_tagged(rng, B, tau_y=0.5) for _ in range(4 * T)]
    simulate_stream(weights, vectors[:2], PipelineConfig(), True)
    tracemalloc.start()
    try:
        outputs = simulate_stream(weights, vectors, PipelineConfig(), True)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= outputs.nbytes + 12 * B * T * 8


def test_no_mutes_without_save_power():
    rng = np.random.default_rng(67)
    weights, vectors = make_stream(rng, n=10, tau=0.5)
    _, _, trace, report = simulate_stream(weights, vectors, PipelineConfig(), save_power=False)
    assert trace.mute_count() == 0
    assert report.activity_rate == 1.0


@pytest.mark.parametrize("n", [0, 5, 2 * _TILE_COLUMNS + 3], ids=["empty", "one-tile", "tiles"])
def test_stream_report_is_its_mute_trace(n):
    # a stream has one activity object: its mute count is its skipped products
    rng = np.random.default_rng(70)
    weights, vectors = make_stream(rng, n=n, tau=0.5)
    _, _, trace, report = simulate_stream(weights, vectors, PipelineConfig(), save_power=True)
    assert trace is report
    assert report.mute_count() == report.total - report.executed
    assert (report.mute_count() > 0) == (n > 0)


def test_pipeline_latency_defaults():
    cfg = PipelineConfig()
    assert cfg.latency(64) == 4   # 1 input stage + ceil(6/2) tree stages
    assert cfg.latency(16) == 3
    assert cfg.latency(4) == 2
    assert cfg.latency(256) == 5
    assert cfg.latency(1) == 1
    # 16-cycle weight load + 10 acceptance cycles + 4-cycle drain
    assert cfg.cycles(16, 10, 64) == 30


def test_throughput_table_values():
    assert throughput_bps(720e6, 16, 16) == pytest.approx(46.08e9)
    assert throughput_bps(600e6, 16, 16) == pytest.approx(38.4e9)
    assert throughput_bps(920e6, 16, 16) == pytest.approx(58.88e9)
    with pytest.raises(ValueError):
        throughput_bps(720e6, 16, 32)


def test_effective_throughput():
    peak = throughput_bps(720e6, 16, 16)
    # the drain latency follows from B: 4 cycles at B=64, 3 at B=16
    assert effective_throughput(720e6, 16, 16, 16, 64) == pytest.approx(peak * 16 / 36)
    assert effective_throughput(720e6, 16, 16, 16, 16) == pytest.approx(peak * 16 / (16 + 16 + 3))
    assert effective_throughput(720e6, 16, 16, 1000, 64) > 0.98 * peak
    assert effective_throughput(720e6, 16, 16, 10**9, 64) == pytest.approx(peak, rel=1e-6)
    with pytest.raises(ValueError):
        effective_throughput(720e6, 16, 16, 0, 64)


def test_arithmetic_rejects_non_physical_inputs(capsys):
    # a negative user count or clock used to give a negative throughput
    for U in (0, -3):
        with pytest.raises(ValueError) as exc:
            throughput_bps(720e6, U, 16)
        assert str(exc.value) == f"U {U} is not an integer >= 1"
        with pytest.raises(ValueError) as exc:
            effective_throughput(720e6, U, 16, 1000, 64)
        assert str(exc.value) == f"U {U} is not an integer in [1, 64]"
    # a bool clock ran as 1 Hz: throughput_bps(True, 16, 16) returned 64
    for clock in (0.0, -5.0, float("inf"), float("nan"), True, np.bool_(True)):
        with pytest.raises(ValueError) as exc:
            throughput_bps(clock, 16, 16)
        assert str(exc.value) == f"clock_hz {clock!r} is not a finite number > 0"
        with pytest.raises(ValueError) as exc:
            effective_throughput(clock, 16, 16, 1000, 64)
        assert str(exc.value) == f"clock_hz {clock!r} is not a finite number > 0"
    for B in (0, -4):
        with pytest.raises(ValueError, match="B must be"):
            PipelineConfig().latency(B)
        with pytest.raises(ValueError, match="B must be"):
            effective_throughput(720e6, 16, 16, 1000, B)
    for argv in (["--u", "-3"], ["--clock-hz", "-5"], ["--clock-hz", "-5", "--b", "0"],
                 ["--b", "5"], ["--b", "16", "--u", "17"]):
        assert cli_main(["datapath", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# (B, U) with B in 0-300 and U in -1 to B + 1
_array_shapes = st.integers(0, 300).flatmap(lambda B: st.tuples(st.just(B), st.integers(-1, B + 1)))


@given(shape=_array_shapes)
@example(shape=(64, 16))
@example(shape=(5, 1))
@example(shape=(16, 17))
@example(shape=(0, 0))
def test_pipeline_refuses_exactly_the_arrays_run_config_refuses(shape):
    B, U = shape
    try:
        RunConfig(B=B, U=U)
    except ValueError as refused:
        with pytest.raises(ValueError) as exc:
            PipelineConfig().cycles(U, 1, B)
        assert str(exc.value) == str(refused)
    else:
        assert PipelineConfig().cycles(U, 1, B) == U + 1 + PipelineConfig().latency(B)


@pytest.mark.parametrize("B,U", [(64, 16.5), (64, True), (64.0, 16), (True, 1), ("64", 16),
                                 (16, None)])
def test_pipeline_refuses_non_integer_arrays_as_run_config_does(B, U):
    # a float or bool B or U passed, or raised a TypeError from the power-of-4 test
    with pytest.raises(ValueError) as refused:
        RunConfig(B=B, U=U)
    for call in (lambda: PipelineConfig().cycles(U, 1, B), lambda: _check_array(B, U)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == str(refused.value)


@pytest.mark.parametrize("N,message", [(16.5, "N 16.5 is not an integer >= 0"),
                                       (True, "N True is not an integer >= 0"),
                                       (-5, "N -5 is not an integer >= 0")],
                         ids=["float", "bool", "negative"])
def test_pipeline_refuses_a_non_count_of_vectors(N, message):
    # cycles(16, 16.5, 64) returned 36.5 and cycles(16, -5, 64) 15
    with pytest.raises(ValueError) as exc:
        PipelineConfig().cycles(16, N, 64)
    assert str(exc.value) == message
    assert PipelineConfig().cycles(16, np.int64(0), 64) == 20


def test_cli_refuses_a_negative_coherence_as_it_refuses_zero(capsys):
    # the cycle count, which refuses a negative N under its own name, is taken
    # after the throughput, which refuses a count below one
    for value in ("0", "-5"):
        assert cli_main(["datapath", "--coherence", value]) == 1
        err = capsys.readouterr().err
        assert err == f"error: coherence_vectors {value} is not an integer >= 1\n"


def test_pipeline_takes_numpy_integers():
    # a B or U read off a NumPy array sizes the pipeline as a Python int does
    assert PipelineConfig().cycles(np.int64(16), 10, np.int32(64)) == 16 + 10 + 4


@pytest.mark.parametrize("call,message", [
    (lambda: PipelineConfig().latency(8), "B must be a power of 4, got 8"),
    (lambda: effective_throughput(720e6, 9, 16, 1000, 5), "B must be a power of 4, got 5"),
    (lambda: simulate_stream(random_weights(np.random.default_rng(0), 17, 16, tau_w=0.1), [],
                             PipelineConfig(), save_power=True),
     "U 17 is not an integer in [1, 16]"),
    (lambda: throughput_bps(720e6, True, 16), "U True is not an integer >= 1"),
    (lambda: throughput_bps(720e6, 2.5, 16), "U 2.5 is not an integer >= 1"),
    (lambda: effective_throughput(720e6, 16, 16, 2.5, 64),
     "coherence_vectors 2.5 is not an integer >= 1"),
    (lambda: effective_throughput(720e6, 16, 16, True, 64),
     "coherence_vectors True is not an integer >= 1"),
], ids=["latency", "effective_throughput", "simulate_stream", "throughput-U=True",
        "throughput-U=2.5", "effective_throughput-coherence=2.5",
        "effective_throughput-coherence=True"])
def test_datapath_refuses_arrays_run_config_refuses(call, message):
    # these returned cycle counts and a throughput for arrays RunConfig refuses;
    # throughput_bps returned 2.88e9 for U=True and 7.2e9 for U=2.5, and a float
    # coherence count was refused under the cycle count's name N
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("argv,lines", [
    ([], ["clock_hz=720000000.0", "latency_cycles=4", "cycles_per_coherence_block=1020",
          "peak_throughput_gbps=46.08", "effective_throughput_gbps=45.17647058823529"]),
    (["--b", "16", "--coherence", "7"],
     ["clock_hz=720000000.0", "latency_cycles=3", "cycles_per_coherence_block=26",
      "peak_throughput_gbps=46.08", "effective_throughput_gbps=12.406153846153847"]),
])
def test_datapath_command_output_pinned(argv, lines, capsys):
    assert cli_main(["datapath", *argv]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def fake_report(rate):
    return ActivityReport(per_vector=np.array([int(rate * 1000)]), products=1000)


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


@pytest.mark.parametrize("field", ["fixed", "per_activity", "fft_on"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_power_coeffs_refuse_non_finite_values(field, value):
    # a NaN coefficient was kept, and power_proxy returned NaN
    with pytest.raises(ValueError) as exc:
        PowerCoeffs(**{field: value})
    assert str(exc.value) == f"power coefficient {field} {value!r} is not a finite number >= 0"


@pytest.mark.parametrize("field", ["fixed", "per_activity", "fft_on"])
def test_power_coeffs_refuse_bools_and_store_floats(field):
    # PowerCoeffs(fixed=True) was stored as True; a string raised TypeError
    for value in (True, np.bool_(False), "0.5"):
        with pytest.raises(ValueError) as exc:
            PowerCoeffs(**{field: value})
        assert str(exc.value) == f"power coefficient {field} {value!r} is not a finite number >= 0"
    for value in (1, np.float32(0.5), np.int64(2)):
        stored = getattr(PowerCoeffs(**{field: value}), field)
        assert type(stored) is float and stored == value
    assert PowerCoeffs(**{field: 1}) == PowerCoeffs(**{field: 1.0})


def test_default_power_coeffs_give_the_readme_savings():
    # README "Default thresholds": 1 - (0.3 + 0.7 a) against lmmse-a at activity 1,
    # at the default pair's measured activities on LoS and NLoS
    coeffs = PowerCoeffs()
    full = power_proxy(fake_report(1.0), coeffs, fft_active=False)
    assert full == pytest.approx(1.0)
    for activity, saving in ((0.40, 0.42), (0.55, 0.315)):
        spade = power_proxy(fake_report(activity), coeffs, fft_active=False)
        assert 1.0 - spade / full == pytest.approx(saving)


def test_power_proxy_saving_bracket_on_los():
    # default coefficients calibrate lmmse-b to the same proxy as lmmse-a
    # (fft term zero, activity 1.0 in both); the saving of the power-saving
    # mode on LoS channels should land in a broad 15..45% bracket
    from spadesim.harness import RunConfig, activity_grid

    cfg = RunConfig(B=64, U=16, M=16, channel="los", seed=1)
    act = activity_grid(cfg, "lmmse-spade", 11.1, [cfg.tau_w], [cfg.tau_y], draws=200)[0, 0]
    coeffs = PowerCoeffs()
    full = power_proxy(fake_report(1.0), coeffs, fft_active=True)
    assert full == power_proxy(fake_report(1.0), coeffs, fft_active=False)
    spade = power_proxy(fake_report(act), coeffs, fft_active=True)
    saving = (full - spade) / full
    assert 0.15 <= saving <= 0.45
