"""Property tests: the vectorized kernels are bit-identical to their oracles.

The stage-wise radix-4, the batched channel synthesis, the QAM lookup tables,
the stacked weight scaling and quantization and the lockstep threshold sweep
each replace a per-element, per-user, per-SNR or per-pair formulation; every comparison here
is byte for byte (``tobytes``, ``repr`` of floats, file bytes), not within a
tolerance.
"""

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spadesim.beamspace import TwiddleConfig, _radix4, to_beamspace
from spadesim.channel import (
    MODES,
    QAM_ORDERS,
    PathSet,
    _qam_table,
    draw_channel_matrix,
    draw_profile,
    qam_demodulate,
    qam_modulate,
    qam_scale,
    synth_channel,
)
from spadesim.equalizer import (
    BeamVector,
    EqualizerWeights,
    build_weights,
    compute_lmmse,
    equalize_tagged,
    scale_rows,
)
from spadesim.harness import RunConfig, activity_grid, emit_sweep, threshold_sweep
from spadesim.numerics import TWIDDLE_FMT, WEIGHT_FMT, QFormat

from reference import (
    draw_channel_matrix_per_user,
    naive_dotp,
    qam_demodulate_formula,
    qam_modulate_formula,
    radix4_recursive,
    threshold_sweep_per_pair,
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


@PROPS
@given(B=st.sampled_from((4, 16, 64)), U=st.integers(1, 4), S=st.integers(1, 4),
       quantized=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_preprocessing_matches_per_matrix(B, U, S, quantized, seed):
    # LMMSE matrices at S noise variances, scaled and quantized as one stack,
    # equal S separate passes, matrix by matrix
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((B, U)) + 1j * rng.standard_normal((B, U))
    n0s = rng.uniform(1e-3, 10.0, S)
    fmt = WEIGHT_FMT if quantized else None
    W, alpha = scale_rows(np.stack([compute_lmmse(H, n0, 1.0) for n0 in n0s]), 2.0**-10)
    stacked = build_weights(W, alpha, 0.1, fmt, "antenna")
    for s, n0 in enumerate(n0s):
        Ws, alphas = scale_rows(compute_lmmse(H, float(n0), 1.0), 2.0**-10)
        one = build_weights(Ws, alphas, 0.1, fmt, "antenna")
        assert W[s].tobytes() == Ws.tobytes() and alpha[s].tobytes() == alphas.tobytes()
        for name in ("re", "im", "alpha", "cw_re", "cw_im"):
            assert getattr(stacked[s], name).tobytes() == getattr(one, name).tobytes()


@PROPS
@given(B=st.sampled_from((1, 4, 16, 64, 256)), data=st.data())
def test_accumulator_bound_is_tight(B, data):
    # formats exactly at the width _check_accumulator allows: every sum must
    # still be float64-exact, and one bit more must be refused
    budget = 54 - max(B - 1, 1).bit_length()  # wt + yt with the bound's bit count at 52
    wt = data.draw(st.integers(budget - 32, 32))
    yt = budget - wt
    wfmt, yfmt = QFormat(wt, wt - 1), QFormat(yt, data.draw(st.integers(0, yt - 1)))
    U = data.draw(st.integers(1, 3))
    kind = data.draw(st.sampled_from(("peak", "extremes", "random")))
    save_power = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def raws(fmt, shape):
        if kind == "random":
            return rng.integers(fmt.min_raw, fmt.max_raw, size=shape, endpoint=True)
        return rng.choice(np.array([fmt.min_raw, fmt.max_raw]), size=shape)

    if kind == "peak":  # the largest real part: every term min*min - min*max
        wre = wim = np.full((U, B), wfmt.min_raw)
        yre, yim = np.full(B, yfmt.min_raw), np.full(B, yfmt.max_raw)
    else:
        wre, wim, yre, yim = raws(wfmt, (U, B)), raws(wfmt, (U, B)), raws(yfmt, B), raws(yfmt, B)
    density = data.draw(st.sampled_from((0.0, 0.5, 1.0)))
    cw_re, cw_im = rng.random((2, U, B)) < density
    cy_re, cy_im = rng.random((2, B)) < density
    w = EqualizerWeights(re=wre, im=wim, fmt=wfmt, alpha=np.ones(U), cw_re=cw_re, cw_im=cw_im,
                         tau_w=0.0, domain="beamspace")
    x = BeamVector(re=yre, im=yim, fmt=yfmt, cy_re=cy_re, cy_im=cy_im, tau_y=0.0)
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
    if yt < 32:
        x = replace(x, fmt=QFormat(yt + 1, yfmt.frac_bits))
    else:
        w = replace(w, fmt=QFormat(wt + 1, wt - 1))
    with pytest.raises(ValueError, match="too wide"):
        equalize_tagged(w, x, save_power)


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
    # the public one-user views over the same stream: truncate to B paths, then synthesize
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(U):
        p = draw_profile(kind, rng)
        cols.append(synth_channel(PathSet(gains=p.gains[:B], freqs=p.freqs[:B]), B))
    assert H.tobytes() == np.stack(cols, axis=1).tobytes()


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
def test_qam_slice_table_matches_formula(M, Es, data):
    m = int(np.sqrt(M))
    c = qam_scale(M, Es)
    # integer multiples of the level spacing: odd ones are exact midpoints between
    # levels, those beyond +-(m-1) saturate at the outer levels
    grid = st.integers(-(m + 3), m + 3).map(lambda j: c * j)
    axis = st.one_of(grid, st.floats(-4.0 * m * c, 4.0 * m * c), st.floats(-1e12, 1e12))
    n = data.draw(st.integers(0, 12))
    re = np.array(data.draw(st.lists(axis, min_size=n, max_size=n)), dtype=np.float64)
    im = np.array(data.draw(st.lists(axis, min_size=n, max_size=n)), dtype=np.float64)
    shape = data.draw(st.sampled_from(((n,), (1, n))))
    symbols = (re + 1j * im).reshape(shape)
    out = qam_demodulate(symbols, M, Es)
    ref = qam_demodulate_formula(symbols, M, Es)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


THRESHOLD = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def sweep_setups(draw):
    """A small sweep: config, both threshold axes and the sweep's own arguments."""
    B = draw(st.sampled_from((4, 16)))
    cfg = RunConfig(B=B, U=draw(st.integers(1, B)), M=draw(st.sampled_from((4, 16))),
                    channel=draw(st.sampled_from(("los", "nlos"))),
                    seed=draw(st.integers(0, 2**64 - 1)), quantized=draw(st.booleans()),
                    vectors_per_block=draw(st.integers(8, 64)))
    taus = st.lists(THRESHOLD, min_size=1, max_size=3)
    kwargs = dict(mode=draw(st.sampled_from(MODES)), target_ber=draw(st.floats(0.005, 0.2)),
                  activity_draws=draw(st.integers(1, 4)), vectors_per_draw=draw(st.integers(1, 3)),
                  probe_cap=draw(st.integers(1, 400)), hi_db=draw(st.sampled_from((20.0, 40.0))))
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
             [0.0, 0.2, 0.5], dict(probe_cap=400, activity_draws=1, hi_db=20.0, target_ber=0.05))


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
