"""Property tests: the vectorized kernels are bit-identical to their oracles.

The stage-wise radix-4 and its column tiles, the GEMM front end, the
batched channel synthesis with two generator calls per user, the receive
noise added part by part in place, the QAM lookup tables, the table-driven
bit-error count, the stacked weight scaling and quantization, the multi-pair
MVM with its shared full products and per-tau_y weight stacks, its column
tiles, the stream stacked and scored one tile at a time, the harness blocks
made as one stack for all their SNRs (one Gram
matrix per block, one solve, noise scaled part by part, one front end) and
the lockstep threshold sweep each replace a per-element, per-stage,
per-call, per-user, per-block, per-SNR, per-pair or whole-block formulation;
every comparison here is byte for byte (``tobytes``, ``repr`` of floats,
file bytes), not within a tolerance; so is the masked product of float raws
in every memory order a caller passes them in. Then come run_ber's contract
(the same report for any worker count, and zero thresholds make lmmse-spade
equal lmmse-b), fuzzed files from outside, which may only raise ``ValueError``,
and fuzzed option values, which parse alike from a flag and from a config
line.
"""

import argparse
import io
import os
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spadesim.beamspace import _TILE_COLUMNS, TwiddleConfig, _radix4, to_beamspace
from spadesim.channel import (
    QAM_ORDERS,
    ChannelMatrix,
    _qam_table,
    bit_errors,
    draw_channel_matrix,
    load_channel,
    qam_index,
    qam_modulate,
    qam_scale,
    save_channel,
    synth_receive,
)
from spadesim.cli import _COMMANDS, _OPTIONS, _effective, _parse_bool, build_parser
from spadesim.cli import main as cli_main
from spadesim.datapath import PipelineConfig, simulate_stream
from spadesim.equalizer import (
    MODES,
    BeamVector,
    EqualizerWeights,
    FrontEnd,
    build_weights,
    compute_lmmse,
    equalize_block,
    equalize_pairs,
    equalize_tagged,
    front_end,
    lmmse_stack,
    scale_rows,
    tag_input,
)
from spadesim.harness import (
    RunConfig,
    StopRule,
    _block,
    activity_grid,
    emit_sweep,
    render_report,
    run_ber,
    threshold_sweep,
)
from spadesim.numerics import INPUT_FMT, TWIDDLE_FMT, WEIGHT_FMT, QFormat

from reference import (
    block_complex,
    draw_channel_matrix_per_user,
    equalize_pairs_untiled,
    lmmse_per_matrix,
    naive_dotp,
    qam_demodulate_formula,
    qam_modulate_formula,
    radix4_recursive,
    synth_receive_complex,
    threshold_sweep_per_pair,
    to_beamspace_untiled,
)

PROPS = settings(max_examples=60, deadline=None)

FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def transform_inputs(draw):
    B = draw(st.sampled_from((1, 4, 16, 64, 256)))
    shape = (B,) if draw(st.booleans()) else (B, draw(st.integers(1, 5)))
    kind = draw(st.sampled_from(("complex", "integer", "zero")))
    if kind == "zero":
        x = np.zeros(shape, dtype=np.complex128)
    elif kind == "integer":
        x = draw(hnp.arrays(np.int64, shape, elements=st.integers(-(1 << 20), 1 << 20)))
    else:
        x = draw(hnp.arrays(np.complex128, shape,
                            elements=st.complex_numbers(max_magnitude=1e6, **FINITE)))
    return x


@PROPS
@given(x=transform_inputs(), fmt=st.sampled_from((TWIDDLE_FMT, QFormat(16, 14), QFormat(30, 27))))
def test_stagewise_radix4_matches_recursion(x, fmt):
    ref = radix4_recursive(x, fmt)
    out = _radix4(x, fmt)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()
    B = x.shape[0]
    scaled = to_beamspace(x, TwiddleConfig(exact=False, twiddle_fmt=fmt))
    assert scaled.tobytes() == (ref / np.sqrt(B)).tobytes()


@st.composite
def wide_transform_inputs(draw):
    """A (B,), (B, N) or (B, D, S, N) block whose columns fall on the tile edges.

    N is 0, 1, T - 1, T, T + 1 or 2T + r for the tile width T; the block is
    complex or real, C- or F-ordered, and some of its parts are signed zeros.
    """
    T = _TILE_COLUMNS
    B = draw(st.sampled_from((1, 4, 16, 64)))
    n = draw(st.sampled_from((0, 1, T - 1, T, T + 1, 2 * T + draw(st.integers(1, T - 1)))))
    shape = draw(st.sampled_from(((B,), (B, n), (B, draw(st.integers(1, 3)),
                                               draw(st.integers(1, 3)), n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape + (2,))
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    x = x.view(np.complex128)[..., 0] if draw(st.booleans()) else x[..., 0].copy()
    return np.asfortranarray(x) if draw(st.booleans()) else x


@PROPS
@given(x=wide_transform_inputs(), fmt=st.sampled_from((TWIDDLE_FMT, QFormat(30, 27))))
def test_tiled_radix4_equals_the_untiled_transform(x, fmt):
    out = to_beamspace(x, TwiddleConfig(exact=False, twiddle_fmt=fmt))
    ref = to_beamspace_untiled(x, fmt)
    assert out.shape == ref.shape and out.dtype == ref.dtype == np.complex128
    assert out.flags.c_contiguous
    assert out.tobytes() == ref.tobytes()


@PROPS
@given(U=st.integers(1, 8), B=st.integers(1, 16), n=st.sampled_from((None, 0, 1, 7, 300)),
       N0=st.one_of(st.floats(1e-300, 1e300), st.sampled_from((0.0, -0.0, 1.0, 0.37))),
       seed=st.integers(0, 2**32 - 1))
def test_synth_receive_equals_the_complex_formula(U, B, n, N0, seed):
    """Noise drawn and added part by part: the bytes of one complex noise array, same stream."""
    rng = np.random.default_rng(seed)
    H = ChannelMatrix(rng.standard_normal((B, U)) + 1j * rng.standard_normal((B, U)), "antenna")
    shape = (U,) if n is None else (U, n)
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    y = synth_receive(H, s, N0, a)
    ref = synth_receive_complex(H.entries, s, N0, b)
    assert y.shape == ref.shape and y.dtype == ref.dtype
    assert y.tobytes() == ref.tobytes()
    assert a.standard_normal(3).tobytes() == b.standard_normal(3).tobytes()


@st.composite
def front_end_inputs(draw):
    """A receive block and a front end: sizes, scales and formats at their edges.

    Most draws quantize with radix-4 twiddles, where ``beamspace_raws`` may
    take its GEMM; the exact FFT and unquantized input take its fallback.
    """
    B = draw(st.sampled_from((4, 16, 64, 256)))
    shape = (B,) if draw(st.booleans()) else (B, draw(st.integers(0, 6)))
    kind = draw(st.sampled_from(("gaussian", "dyadic", "zero", "drawn")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    elif kind == "dyadic":
        # few-bit inputs: many raws land exactly on a .5 rounding boundary
        Y = (rng.integers(-8, 9, shape) + 1j * rng.integers(-8, 9, shape)) / 16
    elif kind == "zero":
        Y = np.zeros(shape, dtype=np.complex128)
        Y.real = np.copysign(Y.real, rng.choice((-1.0, 1.0), shape))
    else:
        Y = draw(hnp.arrays(np.complex128, shape[:1] + tuple(min(n, 2) for n in shape[1:]),
                            elements=st.complex_numbers(max_magnitude=1e6, **FINITE)))
    twiddle = draw(st.sampled_from((TWIDDLE_FMT, QFormat(3, 1), QFormat(16, 14), QFormat(32, 31))))
    exact = draw(st.sampled_from((False, False, False, True)))
    fe = FrontEnd(input_fmt=draw(st.sampled_from((INPUT_FMT, QFormat(8, 7), QFormat(16, 0),
                                                  QFormat(32, 20), None))),
                  tau_y=draw(THRESHOLD), twiddle=TwiddleConfig(exact=exact, twiddle_fmt=twiddle),
                  # the larger gains saturate most raws
                  gain=draw(st.sampled_from((1e-3, 0.25, 1.0, 40.0, 1e5))))
    return Y, fe


@settings(PROPS, max_examples=100)
@given(front_end_inputs(), st.sampled_from(("lmmse-b", "lmmse-spade")))
def test_front_end_raws_equal_the_radix4_path(setup, mode):
    Y, fe = setup
    ref = tag_input(to_beamspace(fe.gain * Y, fe.twiddle), fe.tau_y, fe.input_fmt)
    out = front_end(mode, Y, fe)
    for name in ("re", "im"):
        a, b = getattr(out, name), getattr(ref, name)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()  # zero signs included
    assert out.fmt == ref.fmt and out.tau_y == ref.tau_y


@PROPS
@given(B=st.sampled_from((4, 16, 64)), U=st.integers(1, 4), D=st.integers(1, 3),
       S=st.integers(1, 4), quantized=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_preprocessing_matches_per_matrix(B, U, D, S, quantized, seed):
    # LMMSE matrices of D channels at S noise variances, solved, scaled and
    # quantized as one stack, equal D*S separate passes, matrix by matrix
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((D, B, U)) + 1j * rng.standard_normal((D, B, U))
    n0s = rng.uniform(1e-3, 10.0, S)
    fmt = WEIGHT_FMT if quantized else None
    W, alpha = scale_rows(lmmse_stack(H, n0s, 1.0), 2.0**-10)
    stacked = build_weights(W, alpha, 0.1, fmt, "antenna")
    for d in range(D):
        for s, n0 in enumerate(n0s):
            V = lmmse_per_matrix(H[d], float(n0), 1.0)
            assert compute_lmmse(H[d], float(n0), 1.0).tobytes() == V.tobytes()
            Ws, alphas = scale_rows(V, 2.0**-10)
            one = build_weights(Ws, alphas, 0.1, fmt, "antenna")
            assert W[d, s].tobytes() == Ws.tobytes() and alpha[d, s].tobytes() == alphas.tobytes()
            for name in ("re", "im", "alpha"):
                assert getattr(stacked[d][s], name).tobytes() == getattr(one, name).tobytes()


def _edge_formats(B, data):
    """Weight and input formats exactly at the width _check_accumulator allows."""
    budget = 54 - max(B - 1, 1).bit_length()  # wt + yt with the bound's bit count at 52
    wt = data.draw(st.integers(budget - 32, 32))
    yt = budget - wt
    return QFormat(wt, wt - 1), QFormat(yt, data.draw(st.integers(0, yt - 1)))


def _edge_raws(rng, kind, fmt, shape):
    """Integer raws of ``fmt``: uniform, or only its two extremes."""
    if kind == "random":
        return rng.integers(fmt.min_raw, fmt.max_raw, size=shape, endpoint=True)
    return rng.choice(np.array([fmt.min_raw, fmt.max_raw]), size=shape)


@PROPS
@given(B=st.sampled_from((1, 4, 16, 64, 256)), data=st.data())
def test_accumulator_bound_is_tight(B, data):
    # formats exactly at the width _check_accumulator allows: every sum must
    # still be float64-exact, and one bit more must be refused
    wfmt, yfmt = _edge_formats(B, data)
    U = data.draw(st.integers(1, 3))
    kind = data.draw(st.sampled_from(("peak", "extremes", "random")))
    save_power = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "peak":  # the largest real part: every term min*min - min*max
        wre = wim = np.full((U, B), wfmt.min_raw)
        yre, yim = np.full(B, yfmt.min_raw), np.full(B, yfmt.max_raw)
    else:
        wre, wim = (_edge_raws(rng, kind, wfmt, (U, B)) for _ in range(2))
        yre, yim = (_edge_raws(rng, kind, yfmt, B) for _ in range(2))
    # the comparison bits follow from the thresholds: a raw threshold of 0 sets
    # none, |min_raw| all but the min_raw entries, |min_raw| + 1 all of them
    kw, ky = (data.draw(st.sampled_from((0, -fmt.min_raw, 1 - fmt.min_raw))) for fmt in (wfmt, yfmt))
    w = EqualizerWeights(re=wre, im=wim, fmt=wfmt, alpha=np.ones(U), tau_w=kw / wfmt.scale,
                         domain="beamspace")
    x = BeamVector(re=yre, im=yim, fmt=yfmt, tau_y=ky / yfmt.scale)
    cw_re, cw_im = np.abs(wre) < kw, np.abs(wim) < kw
    cy_re, cy_im = np.abs(yre) < ky, np.abs(yim) < ky
    S, executed = equalize_tagged(w, x, save_power)
    scale = wfmt.scale * yfmt.scale
    total = 0
    for u in range(U):
        acc_re, acc_im, ref_exec = naive_dotp(
            wre[u].tolist(), wim[u].tolist(), cw_re[u].tolist(), cw_im[u].tolist(),
            yre.tolist(), yim.tolist(), cy_re.tolist(), cy_im.tolist(), save_power)
        assert max(abs(acc_re), abs(acc_im)) <= 2**53
        assert S[u] == complex(acc_re / scale, acc_im / scale)
        total += ref_exec
    assert executed == total
    # one bit wider, on whichever operand still fits a QFormat
    if yfmt.total_bits < 32:
        x = replace(x, fmt=QFormat(yfmt.total_bits + 1, yfmt.frac_bits))
    else:
        w = replace(w, fmt=QFormat(wfmt.total_bits + 1, wfmt.frac_bits))
    with pytest.raises(ValueError, match="too wide"):
        equalize_tagged(w, x, save_power)


@PROPS
@given(B=st.sampled_from((1, 4, 16, 64, 256)), data=st.data())
def test_accumulator_bound_holds_in_stacked_products(B, data):
    # the edge formats on a (B, n) block of float64 raws, the kernel's type,
    # with 2-4 pairs in one tau_y group: the group's weight stack is one
    # (k*2U, B) GEMM, and every sum of it must still be float64-exact
    wfmt, yfmt = _edge_formats(B, data)
    U, n, k = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (2, 4), (2, 4)))
    kind = data.draw(st.sampled_from(("peak", "extremes", "random")))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "peak":  # the largest real parts, summed whole when every bit is set
        wre = wim = np.full((U, B), wfmt.min_raw)
        yre, yim = np.full((B, n), yfmt.min_raw), np.full((B, n), yfmt.max_raw)
    else:
        wre, wim = (_edge_raws(rng, kind, wfmt, (U, B)) for _ in range(2))
        yre, yim = (_edge_raws(rng, kind, yfmt, (B, n)) for _ in range(2))
    kws = data.draw(st.lists(st.sampled_from((0, -wfmt.min_raw, 1 - wfmt.min_raw)),
                             min_size=k, max_size=k))
    ky = data.draw(st.sampled_from((0, -yfmt.min_raw, 1 - yfmt.min_raw)))
    w = EqualizerWeights(re=wre.astype(np.float64), im=wim.astype(np.float64), fmt=wfmt,
                         alpha=np.ones(U), tau_w=kws[0] / wfmt.scale, domain="beamspace")
    x = BeamVector(re=yre.astype(np.float64), im=yim.astype(np.float64), fmt=yfmt,
                   tau_y=ky / yfmt.scale)
    pairs = [(kw / wfmt.scale, x.tau_y) for kw in kws]
    [(indices, S, executed)] = equalize_pairs(w, x, pairs, True)
    assert indices == list(range(k))
    scale = wfmt.scale * yfmt.scale
    cy_re, cy_im = np.abs(yre) < ky, np.abs(yim) < ky
    for j, kw in enumerate(kws):
        cw_re, cw_im = np.abs(wre) < kw, np.abs(wim) < kw
        for c in range(n):
            total = 0
            for u in range(U):
                acc_re, acc_im, ref_exec = naive_dotp(
                    wre[u].tolist(), wim[u].tolist(), cw_re[u].tolist(), cw_im[u].tolist(),
                    yre[:, c].tolist(), yim[:, c].tolist(), cy_re[:, c].tolist(),
                    cy_im[:, c].tolist(), True)
                assert S[j, u, c] == complex(acc_re / scale, acc_im / scale)
                total += ref_exec
            assert executed[j, c] == total


@st.composite
def pair_setups(draw):
    """Weights and a tagged vector or block, both from one path, and the pairs to score.

    Thresholds come from a small set, so pairs repeat, include zeros and
    sometimes equal the operands' own thresholds; a grid of pairs puts
    several tau_w on each tau_y.
    """
    B = draw(st.sampled_from((1, 4, 16, 64)))
    U = draw(st.integers(1, 4))
    shape = (B,) if draw(st.booleans()) else (B, draw(st.integers(1, 6)))
    quantized = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taus = st.sampled_from((0.0, 2.0**-9, 0.05, 0.3, 1.0))
    W, alpha = scale_rows(rng.standard_normal((U, B)) + 1j * rng.standard_normal((U, B)), 2.0**-10)
    w = build_weights(W, alpha, draw(taus), WEIGHT_FMT if quantized else None, "beamspace")
    Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = tag_input(draw(st.sampled_from((0.1, 1.0, 4.0))) * Y, draw(taus),
                  INPUT_FMT if quantized else None)
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(taus, taus), min_size=1, max_size=6))
    else:
        tws, tys = (draw(st.lists(taus, min_size=1, max_size=3)) for _ in range(2))
        pairs = [(tw, ty) for ty in tys for tw in tws]
        pairs = draw(st.permutations(pairs))
    return w, x, pairs, draw(st.booleans()), draw(st.sampled_from((1.0, 0.25)))


@PROPS
@given(pair_setups())
def test_shared_full_products_equal_one_call_per_pair(setup):
    w, x, pairs, save_power, gain = setup
    scored = equalize_pairs(w, x, pairs, save_power, gain)
    # one group per distinct tau_y, in order of first appearance, covering every pair once
    assert [pairs[indices[0]][1] for indices, _, _ in scored] == list(dict.fromkeys(
        ty for _, ty in pairs))
    assert sorted(i for indices, _, _ in scored for i in indices) == list(range(len(pairs)))
    for indices, S, executed in scored:
        assert S.shape == (len(indices), w.U, *x.re.shape[1:])
        assert executed.shape == (len(indices), *x.re.shape[1:])
        for j, i in enumerate(indices):
            tw, ty = pairs[i]
            assert ty == pairs[indices[0]][1]
            S1, executed1 = equalize_tagged(replace(w, tau_w=tw), replace(x, tau_y=ty),
                                            save_power, gain)
            assert S[j].shape == S1.shape and S[j].tobytes() == S1.tobytes()
            assert executed[j].shape == executed1.shape
            assert executed[j].tobytes() == executed1.tobytes()


@st.composite
def tile_edge_setups(draw):
    """Weights and a tagged vector or block of 1, T - 1, T, T + 1 or 2T + r columns.

    T is the kernel's tile width. The block's raws are C- or F-ordered (the
    stream joins its vectors into an F-ordered block), float raws too; 1 to
    16 pairs (as many as a 4x4 sweep scores in one call) fall on 1 to 3
    distinct tau_y.
    """
    T = _TILE_COLUMNS
    B = draw(st.sampled_from((1, 4, 16)))
    U = draw(st.integers(1, 4))
    n = draw(st.sampled_from((1, T - 1, T, T + 1, 2 * T + draw(st.integers(1, T - 1)))))
    quantized = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taus = st.sampled_from((0.0, 2.0**-9, 0.05, 0.3, 1.0))
    W, alpha = scale_rows(rng.standard_normal((U, B)) + 1j * rng.standard_normal((U, B)), 2.0**-10)
    w = build_weights(W, alpha, draw(taus), WEIGHT_FMT if quantized else None, "beamspace")
    if n == 1 and draw(st.booleans()):
        Y = rng.standard_normal(B) + 1j * rng.standard_normal(B)
    elif draw(st.booleans()):
        Y = rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))
    else:
        Y = (rng.standard_normal((n, B)) + 1j * rng.standard_normal((n, B))).T
    tys = draw(st.lists(taus, min_size=1, max_size=3, unique=True))
    # often one group sits at the input's own tau_y, where its cached bits are read
    x = tag_input(draw(st.sampled_from((0.1, 1.0, 4.0))) * Y,
                  draw(st.one_of(st.sampled_from(tys), taus)), INPUT_FMT if quantized else None)
    if not Y.flags.c_contiguous:  # tag_input copies float raws C-ordered
        x = replace(x, re=np.asfortranarray(x.re), im=np.asfortranarray(x.im))
    pairs = draw(st.lists(st.tuples(taus, st.sampled_from(tys)), min_size=1, max_size=16))
    return w, x, pairs, draw(st.booleans()), draw(st.sampled_from((1.0, 0.25)))


@PROPS
@given(tile_edge_setups())
def test_column_tiles_equal_the_untiled_kernel(setup):
    w, x, pairs, save_power, gain = setup
    tiled = equalize_pairs(w, x, pairs, save_power, gain)
    whole = equalize_pairs_untiled(w, x, pairs, save_power, gain)
    assert [indices for indices, _, _ in tiled] == [indices for indices, _, _ in whole]
    for (_, S, executed), (_, S1, executed1) in zip(tiled, whole):
        assert S.shape == S1.shape and S.tobytes() == S1.tobytes()
        assert executed.shape == executed1.shape and executed.tobytes() == executed1.tobytes()


_STREAM_TAUS = st.sampled_from((0.0, 2.0**-9, 0.05, 0.3, 1.0))

# the layouts a caller can hand the kernel one float block in: its own copies,
# a column-strided view and a row-strided (B, N) slice, as the harness passes
_FLOAT_LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "every other column": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "slice of a stack": lambda a: np.stack((np.zeros_like(a), a), axis=1)[:, 1],
}


@PROPS
@given(B=st.sampled_from((1, 4, 16, 64)), U=st.integers(1, 16), n=st.none() | st.integers(1, 40),
       save_power=st.booleans(), pairs=st.lists(st.tuples(_STREAM_TAUS, _STREAM_TAUS),
                                                min_size=1, max_size=4),
       gain=st.sampled_from((1.0, 0.25)), seed=st.integers(0, 2**32 - 1))
# OpenBLAS rounds this block's F-ordered float product differently
@example(B=16, U=1, n=7, save_power=False, pairs=[(0.0, 0.0)], gain=1.0, seed=0)
def test_float_products_do_not_depend_on_memory_order(B, U, n, save_power, pairs, gain, seed):
    """A float block's estimates have one set of bytes in every layout its raws come in."""
    U = min(U, B)
    rng = np.random.default_rng(seed)
    W, alpha = scale_rows(rng.standard_normal((U, B)) + 1j * rng.standard_normal((U, B)), 2.0**-10)
    w = build_weights(W, alpha, 0.0, None, "beamspace")
    shape = (B,) if n is None else (B, n)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    scored = {}
    for name, layout in _FLOAT_LAYOUTS.items():
        x = BeamVector(re=layout(re), im=layout(im), fmt=None, tau_y=0.0)
        assert x.re.tobytes() == re.tobytes()
        scored[name] = [(indices, S.tobytes(), executed.tobytes())
                        for indices, S, executed in equalize_pairs(w, x, pairs, save_power, gain)]
    assert all(s == scored["C"] for s in scored.values())


@PROPS
@given(B=st.sampled_from((1, 4, 16, 64)), U=st.integers(1, 16),
       n=st.sampled_from((0, 1, _TILE_COLUMNS - 1, _TILE_COLUMNS, _TILE_COLUMNS + 1))
       | st.integers(2 * _TILE_COLUMNS + 1, 3 * _TILE_COLUMNS - 1),
       quantized=st.booleans(), save_power=st.booleans(), taus=st.tuples(_STREAM_TAUS, _STREAM_TAUS),
       gain=st.sampled_from((1.0, 0.25)), seed=st.integers(0, 2**32 - 1))
# a float stream whose one-column last tile, scored alone, would change its bytes
@example(B=64, U=16, n=_TILE_COLUMNS + 1, quantized=False, save_power=True, taus=(0.05, 0.3),
         gain=1.0, seed=0)
def test_tiled_stream_equals_the_block(B, U, n, quantized, save_power, taus, gain, seed):
    """The stream scored tile by tile has the bytes and counts of its block scored whole.

    N falls on the tile edges (0, 1, T - 1, T, T + 1 or 2T + r for the tile
    width T), raws are quantized or float, and power saving is on or off.
    """
    U = min(U, B)
    rng = np.random.default_rng(seed)
    W, alpha = scale_rows(rng.standard_normal((U, B)) + 1j * rng.standard_normal((U, B)), 2.0**-10)
    w = build_weights(W, alpha, taus[0], WEIGHT_FMT if quantized else None, "beamspace")
    fe = FrontEnd(input_fmt=INPUT_FMT if quantized else None, tau_y=taus[1],
                  twiddle=TwiddleConfig(exact=not quantized), gain=gain)
    Y = rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))
    mode = "lmmse-spade" if save_power else "lmmse-b"
    S, report = equalize_block(mode, None, w, Y, fe)
    x = front_end(mode, Y, fe)
    vectors = [BeamVector(re=x.re[:, i], im=x.im[:, i], fmt=x.fmt, tau_y=x.tau_y)
               for i in range(n)]
    pipeline = PipelineConfig()
    outputs, cycles, trace, stream_report = simulate_stream(w, vectors, pipeline, save_power,
                                                            gain=gain)
    assert outputs.shape == (n, U) and outputs.flags.c_contiguous
    assert outputs.tobytes() == np.ascontiguousarray(S.T).tobytes()
    assert stream_report.per_vector.dtype == report.per_vector.dtype
    assert stream_report.per_vector.tobytes() == report.per_vector.tobytes()
    assert cycles == pipeline.cycles(U, n, B)
    assert trace is stream_report  # the report is the stream's one activity object


@st.composite
def channel_draws(draw):
    kind = draw(st.sampled_from(("los", "nlos")))
    B = draw(st.sampled_from((1, 4, 16, 64)))
    U = draw(st.integers(1, min(B, 16)))
    seed = draw(st.integers(0, 2**63 - 1))
    return kind, B, U, seed


@PROPS
@given(channel_draws())
def test_batched_channel_matches_per_user_synthesis(args):
    kind, B, U, seed = args
    H = draw_channel_matrix(kind, B, U, np.random.default_rng(seed)).entries
    assert H.shape == (B, U) and H.flags.c_contiguous
    assert H.tobytes() == draw_channel_matrix_per_user(kind, B, U, np.random.default_rng(seed)).tobytes()


@PROPS
@given(M=st.sampled_from(QAM_ORDERS), Es=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_qam_table_matches_formula(M, Es, seed):
    k = int(np.log2(M))
    every = (np.arange(M)[:, None] >> np.arange(k - 1, -1, -1)) & 1  # index i's bits, MSB first
    table = _qam_table(M, Es)
    assert not table.flags.writeable
    assert table.tobytes() == qam_modulate_formula(every, M, Es).tobytes()
    bits = np.random.default_rng(seed).integers(0, 2, size=(3, 5, k), dtype=np.uint8)
    out = qam_modulate(bits, M, Es)
    assert out.shape == (3, 5)
    assert out.tobytes() == qam_modulate_formula(bits, M, Es).tobytes()


@PROPS
@given(M=st.sampled_from(QAM_ORDERS), Es=st.floats(1e-3, 1e3), data=st.data())
def test_bit_errors_equal_demodulate_and_compare(M, Es, data):
    m = int(np.sqrt(M))
    c = qam_scale(M, Es)
    # exact midpoints, points beyond the outer levels, saturating and NaN values
    grid = st.integers(-(m + 3), m + 3).map(lambda j: c * j)
    edge = st.sampled_from((np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0, np.nan))
    axis = st.one_of(grid, st.floats(-4.0 * m * c, 4.0 * m * c), edge)
    k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 8))
    re, im = (np.array(data.draw(st.lists(axis, min_size=k * n, max_size=k * n)),
                       dtype=np.float64).reshape(k, n) for _ in range(2))
    symbols = np.empty((k, n), dtype=np.complex128)  # re + 1j * im would turn inf into NaN
    symbols.real, symbols.imag = re, im
    bits = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(
        0, 2, size=(n, int(np.log2(M))), dtype=np.uint8)
    sent = qam_index(bits, M)
    if np.isnan(re).any() or np.isnan(im).any():
        with pytest.raises(ValueError, match="NaN"):
            bit_errors(symbols, sent, M, Es)
        return
    errors = bit_errors(symbols, sent, M, Es)
    assert errors.shape == (k, n) and errors.dtype == np.uint8
    # the formula casts before it clips; clipping the symbols to +-m*c first
    # moves no slice (+m*c is past the top level's upper edge, -m*c below the
    # bottom level's lower one) and keeps the cast finite
    clipped = np.empty_like(symbols)
    clipped.real, clipped.imag = np.clip(re, -m * c, m * c), np.clip(im, -m * c, m * c)
    ref = (bits != qam_demodulate_formula(clipped, M, Es)).sum(axis=-1)
    assert np.array_equal(errors, ref)


N0 = st.one_of(st.floats(1e-3, 1e3), st.sampled_from((5e-324, 1e-300, 1.0)))


@PROPS
@given(cfg=st.builds(RunConfig, B=st.sampled_from((4, 16, 64)), U=st.integers(1, 4),
                     M=st.sampled_from(QAM_ORDERS), channel=st.sampled_from(("los", "nlos")),
                     seed=st.integers(0, 2**64 - 1), quantized=st.booleans(),
                     exact_fft=st.booleans()),
       from_file=st.booleans(), first=st.integers(0, 2**32 - 6), k=st.integers(1, 5),
       n=st.integers(1, 40), mode=st.sampled_from(MODES),
       n0s=st.lists(N0, min_size=1, max_size=4))
@example(cfg=RunConfig(B=16, U=3, seed=5), from_file=False, first=0, k=5, n=2,
         mode="lmmse-spade", n0s=[1.0, 5e-324, 1.0, 1e-300])
def test_receive_matches_complex_noise(cfg, from_file, first, k, n, mode, n0s):
    # k blocks at S SNRs: per block the weights solved and quantized as one
    # stack, the noise scaled part by part and one front end over all k*S give
    # the bytes of each block made alone, and of one weight set per N0, the
    # noise scaled as one complex array and the front end on that block
    H_fixed = None
    if from_file:  # any antenna-domain matrix, as a channel file may hold
        rng = np.random.default_rng(first)
        H_fixed = ChannelMatrix(rng.standard_normal((cfg.B, cfg.U))
                                + 1j * rng.standard_normal((cfg.B, cfg.U)), "antenna")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "chan.bin")
            save_channel(path, H_fixed, "bin")  # the binary dump round-trips exactly
            cfg = replace(cfg, channel="file", channel_file=path)
    indices = range(first, first + k)
    sent, w, x = _block(cfg, mode, 1, 0, indices, n, n0s)
    assert sent.shape == (k, cfg.U, n) and x.re.shape == (cfg.B, k, len(n0s), n)
    for d, index in enumerate(indices):
        (one_sent,), one_w, one_x = _block(cfg, mode, 1, 0, [index], n, n0s)
        ref_sent, ref_w, ref_x = block_complex(cfg, mode, 1, 0, index, n, n0s, H_fixed)
        assert sent[d].tobytes() == one_sent.tobytes() == ref_sent.tobytes()
        for s, ws in enumerate(ref_w):
            for name in ("re", "im", "alpha"):
                got, alone = getattr(w[d][s], name), getattr(one_w[0][s], name)
                assert got.tobytes() == alone.tobytes() == getattr(ws, name).tobytes()
        for part in ("re", "im"):
            want = getattr(ref_x, part).tobytes()
            assert getattr(x, part)[:, d].tobytes() == getattr(one_x, part).tobytes() == want


THRESHOLD = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def sweep_setups(draw):
    """A small sweep: config, both threshold axes and the sweep's own arguments."""
    B = draw(st.sampled_from((4, 16)))
    cfg = RunConfig(B=B, U=draw(st.integers(1, B)), M=draw(st.sampled_from((4, 16))),
                    channel=draw(st.sampled_from(("los", "nlos"))),
                    seed=draw(st.integers(0, 2**64 - 1)), quantized=draw(st.booleans()),
                    exact_fft=draw(st.booleans()), vectors_per_block=draw(st.integers(8, 64)))
    taus = st.lists(THRESHOLD, min_size=1, max_size=3)
    kwargs = dict(mode=draw(st.sampled_from(MODES)), target_ber=draw(st.floats(0.005, 0.2)),
                  activity_draws=draw(st.integers(1, 4)), vectors_per_draw=draw(st.integers(1, 3)),
                  probe_cap=draw(st.integers(1, 400)))
    return cfg, draw(taus), draw(taus), kwargs


def _records(records):
    return repr([(r.tau_w, r.tau_y, r.mean_activity_rate, r.snr_operating_point_db,
                  r.ber_curve, r.pareto) for r in records])


def _sweep_csv(records) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        emit_sweep(records, path)
        with open(path, "rb") as f:
            return f.read()


# pairs of one probe group that leave it after different waves
SPLITTING = (RunConfig(B=16, U=4, M=16, seed=0, vectors_per_block=10), [0.0, 0.1, 0.3],
             [0.0, 0.2, 0.5], dict(probe_cap=400, activity_draws=1, target_ber=0.05))


@settings(max_examples=40)
@given(sweep_setups())
@example(SPLITTING)
def test_lockstep_sweep_matches_per_pair_oracle(setup):
    cfg, tws, tys, kwargs = setup
    lockstep = threshold_sweep(cfg, tws, tys, **kwargs)
    oracle = threshold_sweep_per_pair(cfg, tws, tys, **kwargs)
    assert _records(lockstep) == _records(oracle)
    assert _sweep_csv(lockstep) == _sweep_csv(oracle)


@settings(max_examples=20)
@given(sweep_setups())
def test_sweep_identical_for_any_worker_count(setup):
    cfg, tws, tys, kwargs = setup
    one = threshold_sweep(cfg, tws, tys, **kwargs)
    two = threshold_sweep(replace(cfg, workers=2), tws, tys, **kwargs)
    assert _records(one) == _records(two)


@PROPS
@given(sweep_setups(), st.floats(-5.0, 30.0))
def test_activity_monotone_in_both_thresholds(setup, snr_db):
    cfg, tws, tys, _ = setup
    rates = activity_grid(cfg, "lmmse-spade", snr_db, sorted(tws), sorted(tys), draws=3,
                          per_draw=True)
    assert np.all(np.diff(rates, axis=0) <= 0)
    assert np.all(np.diff(rates, axis=1) <= 0)


@st.composite
def ber_setups(draw):
    """A small BER run: config, SNR list and stop rule."""
    B = draw(st.sampled_from((4, 16)))
    cfg = RunConfig(B=B, U=draw(st.integers(1, B)), M=draw(st.sampled_from((4, 16))),
                    channel=draw(st.sampled_from(("los", "nlos"))),
                    seed=draw(st.integers(0, 2**64 - 1)), quantized=draw(st.booleans()),
                    vectors_per_block=draw(st.integers(1, 64)),
                    tau_w=draw(THRESHOLD), tau_y=draw(THRESHOLD))
    snrs = draw(st.lists(st.floats(-5.0, 30.0), min_size=1, max_size=3))
    stop = StopRule(target_errors=draw(st.integers(0, 300)), max_vectors=draw(st.integers(0, 800)))
    return cfg, snrs, stop


@settings(max_examples=40)
@given(ber_setups(), st.sampled_from(MODES))
def test_run_ber_identical_for_any_worker_count(setup, mode):
    cfg, snrs, stop = setup
    one = run_ber(cfg, snrs, mode, stop)
    two = run_ber(replace(cfg, workers=2), snrs, mode, stop)
    assert repr(one.points) == repr(two.points)
    assert render_report(one, "json") == render_report(two, "json")


@settings(max_examples=40)
@given(ber_setups())
def test_zero_thresholds_make_spade_equal_lmmse_b(setup):
    cfg, snrs, stop = setup
    cfg = replace(cfg, tau_w=0.0, tau_y=0.0)
    spade = run_ber(cfg, snrs, "lmmse-spade", stop)
    plain = run_ber(cfg, snrs, "lmmse-b", stop)
    for s, b in zip(spade.points, plain.points):
        assert (s.trials, s.bit_errors) == (b.trials, b.bit_errors)
        assert s.activity_mean == s.activity_min == s.activity_max == 1.0


# ---------------------------------------------------------------------------
# Files from outside: fuzzed channel dumps and config files
# ---------------------------------------------------------------------------

CSV_CHARS = "0123456789.,-+eEinfa\n #"


@st.composite
def channel_dumps(draw):
    """Bytes for a channel file: noise, or noise behind a real CSV or binary header."""
    kind = draw(st.sampled_from(("bytes", "text", "csv", "bin")))
    if kind == "bytes":
        return draw(st.binary(max_size=300))
    if kind == "text":
        return draw(st.text(max_size=300)).encode("utf-8", "surrogatepass")
    if kind == "csv":
        if draw(st.booleans()):
            domain = draw(st.sampled_from(("antenna", "beamspace", "x")))
            shape = f"{domain},{draw(st.integers(-2, 3))},{draw(st.integers(-2, 3))}\n"
        else:
            shape = draw(st.text(CSV_CHARS, max_size=12))
        return ("domain,B,U\n" + shape + draw(st.sampled_from(("re,im\n", "")))
                + draw(st.text(CSV_CHARS, max_size=200))).encode("ascii")
    head = struct.pack("<BII", draw(st.integers(0, 2)), draw(st.integers(0, 4)),
                       draw(st.integers(0, 4)))
    return b"CHNL" + draw(st.binary(max_size=12) | st.just(head)) + draw(st.binary(max_size=300))


@PROPS
@given(channel_dumps())
def test_fuzzed_channel_dump_raises_only_value_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chan")
        with open(path, "wb") as f:
            f.write(content)
        try:
            cm = load_channel(path)
        except ValueError:
            return
    assert cm.B >= 1 and cm.U >= 1 and np.all(np.isfinite(cm.entries))


CONFIG_KEYS = sorted(_OPTIONS) + ["exact-fft", "max-vectors", "unknown", ""]


@st.composite
def config_files(draw):
    """Bytes for a config file: noise, or key=value lines with fuzzed values."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200) | st.text(max_size=200).map(
            lambda t: t.encode("utf-8", "surrogatepass")))
    lines = draw(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.text(max_size=12)),
                          max_size=6))
    return "\n".join(f"{k}={v}" for k, v in lines).encode("utf-8", "surrogatepass")


@PROPS
@given(config_files())
def test_fuzzed_config_file_raises_only_value_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as f:
            f.write(content)
        try:
            _effective(argparse.Namespace(config=path, command="ber"))
        except ValueError:
            pass


VALUE_OPTIONS = [key for key, o in _OPTIONS.items() if o.parse is not _parse_bool]

# text a config line carries unchanged: no comment mark, no line break, no
# surrounding whitespace (the reader strips it)
config_values = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="#\r\n"),
                        max_size=12).filter(lambda t: t == t.strip()) | st.sampled_from(
    ["4", "-3", "-1e1", "0.5", "1e3", "nan", "10:9", "12", "0.1,0.2", "csv", "xml", "los",
     "lmmse-a"])


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@PROPS
@given(key=st.sampled_from(VALUE_OPTIONS), text=config_values)
@example(key="b", text="x")
@example(key="mode", text="foo")
@example(key="coherence", text="x")
@example(key="out", text="--")
@example(key="snr_stop", text="-1e1")
def test_flag_and_config_values_parse_alike(key, text):
    command = next(name for name, (_, _, keys) in _COMMANDS.items() if key in keys)
    flag = "--" + key.replace("_", "-")
    forms = [[command, f"{flag}={text}"]]
    # a separate token that starts with "-" and is no number reads as a flag
    if not text.startswith("-") or _is_number(text):
        forms.append([command, flag, text])
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{flag[2:]}={text}\n")
        for argv in forms + [[command, "--config", path]]:
            try:
                outcomes.append(repr(_effective(build_parser().parse_args(argv))))
            except ValueError:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli_main(argv)
                outcomes.append((code, out.getvalue(), err.getvalue()))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    if isinstance(outcomes[0], tuple):
        code, out, err = outcomes[0]
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
