"""Equalizer core: LMMSE oracle, row scaling, comparison bits, skip accounting."""

from dataclasses import replace

import numpy as np
import pytest

from spadesim.beamspace import to_beamspace
from spadesim.channel import ChannelMatrix, draw_channel_matrix
from spadesim.channel import bit_errors, qam_index, qam_modulate, qam_scale
from spadesim.datapath import PipelineConfig, simulate_stream
from spadesim.equalizer import (
    BeamVector,
    EqualizerWeights,
    FrontEnd,
    build_weights,
    compute_lmmse,
    equalize_block,
    equalize_pairs,
    equalize_tagged,
    lmmse_stack,
    scale_rows,
    tag_input,
    _comparison_bits,
    _threshold_raw,
)
from spadesim.numerics import INPUT_FMT, WEIGHT_FMT, QFormat

from reference import gray_code_bits, naive_bits, naive_dotp, naive_threshold_raw

EPS = 2.0**-10


def max_abs_component(v) -> float:
    """Largest max(|real|, |imag|) over a complex vector."""
    return float(max(np.abs(v.real).max(), np.abs(v.imag).max()))


def random_weights(rng, U, B, tau_w, fmt=WEIGHT_FMT, domain="beamspace"):
    W = rng.uniform(-0.999, 0.999, (U, B)) + 1j * rng.uniform(-0.999, 0.999, (U, B))
    return build_weights(W, np.ones(U), tau_w, fmt, domain)


def random_tagged(rng, B, tau_y, fmt=INPUT_FMT):
    y = rng.uniform(-3.9, 3.9, B) + 1j * rng.uniform(-3.9, 3.9, B)
    return tag_input(y, tau_y, fmt)


# ---------------------------------------------------------------------------
# LMMSE preprocessing
# ---------------------------------------------------------------------------

def test_lmmse_scalar():
    H = ChannelMatrix(entries=np.array([[1.0 + 0j]]), domain="antenna")
    V = compute_lmmse(H, N0=1.0, Es=1.0)
    assert abs(V[0, 0] - 0.5) < 1e-12


@pytest.mark.parametrize("call", [
    lambda H, n0, es=1.0: compute_lmmse(H, n0, es),
    lambda H, n0, es=1.0: lmmse_stack(np.stack([H, H]), [0.5, n0], es),
], ids=["compute_lmmse", "lmmse_stack"])
def test_lmmse_refuses_a_noise_power_that_is_negative_or_not_finite(call):
    # a negative N0 gave a finite wrong matrix, a NaN or infinite one a NaN
    # matrix and a bool N0 ran as 1.0; Es = NaN gave a NaN matrix, Es = inf
    # dropped the regularization and Es = True ran as 1.0
    rng = np.random.default_rng(46)
    H = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    for n0 in (-1.0, np.nan, np.inf, -np.inf, True, np.bool_(True)):
        with pytest.raises(ValueError) as exc:
            call(H, n0)
        assert str(exc.value) == f"N0 {n0!r} is not a finite number >= 0"
    for es in (0.0, -1.0, np.nan, np.inf, True):
        with pytest.raises(ValueError) as exc:
            call(H, 0.5, es)
        assert str(exc.value) == f"Es {es!r} is not a finite number > 0"


def _cached_then(es):
    qam_modulate(np.zeros((1, 4), dtype=np.int64), 16, 1.0)  # caches the Es = 1.0 table
    return qam_modulate(np.zeros((1, 4), dtype=np.int64), 16, es)


@pytest.mark.parametrize("call", [
    lambda es: qam_scale(16, es),
    lambda es: qam_modulate(np.zeros((3, 2), dtype=np.int64), 4, es),
    _cached_then,
    lambda es: bit_errors(np.array([0.3 + 0.1j]), np.array([1]), 16, es),
], ids=["qam_scale", "qam_modulate", "qam_modulate-cached", "bit_errors"])
def test_qam_refuses_an_es_that_is_not_positive_and_finite(call):
    # Es = NaN gave NaN symbols, -1.0 a RuntimeWarning in sqrt and True ran as
    # 1.0, through the cached Es = 1.0 table too (True hashes as 1.0)
    for es in (0.0, -1.0, np.nan, np.inf, True, "1.0"):
        with pytest.raises(ValueError) as exc:
            call(es)
        assert str(exc.value) == f"Es {es!r} is not a finite number > 0"
    call(np.float64(2.0))


def test_lmmse_near_inverse():
    rng = np.random.default_rng(41)
    H = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    V = compute_lmmse(H, N0=1e-12, Es=1.0)
    assert np.max(np.abs(V @ H - np.eye(8))) < 1e-6


def test_lmmse_cross_domain_identity():
    rng = np.random.default_rng(42)
    Hbar = draw_channel_matrix("los", 64, 16, rng)
    H = ChannelMatrix(to_beamspace(Hbar.entries), "beamspace")
    F = to_beamspace(np.eye(64, dtype=complex))
    V_beam = compute_lmmse(H, N0=0.5, Es=1.0)
    V_ant = compute_lmmse(Hbar, N0=0.5, Es=1.0)
    assert np.max(np.abs(V_beam - V_ant @ F.conj().T)) < 1e-9


def test_lmmse_singular_gram():
    H = ChannelMatrix(entries=np.ones((2, 2), dtype=complex), domain="antenna")
    with pytest.raises(ValueError, match="regularize"):
        compute_lmmse(H, N0=0.0, Es=1.0)


# ---------------------------------------------------------------------------
# Row scaling and comparison bits
# ---------------------------------------------------------------------------

def test_scale_rows_hand_case():
    V = np.array([[0.5 + 0j, -0.25 + 0.75j]])
    W, alpha = scale_rows(V, EPS)
    expected_alpha = 1.0 / (0.75 + EPS)
    assert abs(alpha[0] - expected_alpha) < 1e-12
    assert abs(alpha[0] - 1.33160) < 1e-4
    assert abs(max_abs_component(W[0]) - 0.99870) < 1e-4
    assert max_abs_component(W[0]) < 1.0


def test_scale_rows_zero_row():
    W, alpha = scale_rows(np.zeros((2, 4), dtype=complex), EPS)
    assert alpha[0] == 1.0 / EPS
    assert np.all(W == 0)


def test_scale_rows_always_below_one():
    rng = np.random.default_rng(43)
    V = 10 * (rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32)))
    W, _ = scale_rows(V, EPS)
    for row in W:
        assert max_abs_component(row) < 1.0
    with pytest.raises(ValueError):
        scale_rows(V, 0.0)


def test_scale_rows_refuses_an_epsilon_that_is_not_finite():
    # a NaN epsilon gave NaN alpha, an infinite one zero alpha, True ran as 1.0
    V = np.full((2, 4), 0.5 + 0.25j)
    for eps in (np.nan, np.inf, 0.0, -1.0, -np.inf, True):
        with pytest.raises(ValueError) as exc:
            scale_rows(V, eps)
        assert str(exc.value) == f"epsilon {eps!r} is not a finite number > 0"


def test_build_weights_threshold_extremes():
    rng = np.random.default_rng(44)
    w0 = random_weights(rng, 3, 16, tau_w=0.0)
    assert not any(_comparison_bits(r, w0.tau_w, w0.fmt).any() for r in (w0.re, w0.im))
    w1 = random_weights(rng, 3, 16, tau_w=1.0)
    assert all(_comparison_bits(r, w1.tau_w, w1.fmt).all() for r in (w1.re, w1.im))


def test_build_weights_bits_match_recompute():
    rng = np.random.default_rng(45)
    w = random_weights(rng, 4, 32, tau_w=0.05)
    t = naive_threshold_raw(0.05, WEIGHT_FMT.frac_bits)
    assert t == _threshold_raw(0.05, WEIGHT_FMT)
    assert np.array_equal(_comparison_bits(w.re, w.tau_w, w.fmt), np.abs(w.re) < t)
    assert np.array_equal(_comparison_bits(w.im, w.tau_w, w.fmt), np.abs(w.im) < t)


def test_build_weights_rejects_unscaled():
    with pytest.raises(ValueError, match="scale before loading"):
        build_weights(np.array([[1.0 + 0j]]), np.ones(1), 0.0, WEIGHT_FMT, "antenna")


def test_build_weights_rejects_headroom_format():
    # a format spanning beyond [-1, 1) could quantize a row up to exactly 1.0
    with pytest.raises(ValueError, match="frac_bits = total_bits - 1"):
        build_weights(np.array([[0.999 + 0j]]), np.ones(1), 0.0, QFormat(12, 9), "antenna")


def test_quantized_rows_stay_below_one():
    # 0.99902 rounds up to the format's top code; saturation keeps it below 1
    w = build_weights(np.array([[0.99902 + 0j]]), np.ones(1), 0.0, WEIGHT_FMT, "antenna")
    assert w.re[0, 0] == WEIGHT_FMT.max_raw
    assert max_abs_component((w.re[0] + 1j * w.im[0]) / WEIGHT_FMT.scale) < 1.0


def input_bits(x):
    """An input's (re, im) comparison bits, as the kernel derives them."""
    return [_comparison_bits(r, x.tau_y, x.fmt) for r in (x.re, x.im)]


def test_tag_input_extremes_and_recompute():
    rng = np.random.default_rng(46)
    v = random_tagged(rng, 32, tau_y=0.0)
    assert not any(c.any() for c in input_bits(v))
    z = tag_input(np.zeros(8, dtype=complex), 0.5, INPUT_FMT)
    assert all(c.all() for c in input_bits(z))
    v2 = random_tagged(rng, 32, tau_y=0.07)
    for c, r in zip(input_bits(v2), (v2.re, v2.im)):
        assert np.array_equal(c, naive_bits(r, 0.07, INPUT_FMT))


@pytest.mark.parametrize("fmts", [(WEIGHT_FMT, INPUT_FMT), (None, None)])
@pytest.mark.parametrize("tau", [-2.0**-9, float("nan"), float("inf"), 0.25 + 0j])
def test_bad_threshold_rejected_at_construction(tau, fmts):
    wfmt, yfmt = fmts
    with pytest.raises(ValueError, match="threshold"):
        build_weights(np.array([[0.5 + 0j]]), np.ones(1), tau, wfmt, "antenna")
    with pytest.raises(ValueError, match="threshold"):
        tag_input(np.array([0.5 + 0j]), tau, yfmt)
    w = build_weights(np.array([[0.5 + 0j]]), np.ones(1), 0.0, wfmt, "antenna")
    with pytest.raises(ValueError, match="threshold"):
        replace(w, tau_w=tau)
    with pytest.raises(ValueError, match="threshold"):
        replace(tag_input(np.array([0.5 + 0j]), 0.0, yfmt), tau_y=tau)


def test_threshold_overflowing_its_format_is_a_value_error():
    # tau * scale is infinite: round() of it would raise OverflowError
    with pytest.raises(ValueError, match="threshold 1e\\+308 overflows"):
        tag_input(np.array([0.5 + 0j]), 1e308, INPUT_FMT)
    with pytest.raises(ValueError, match="threshold 1e\\+308 overflows"):
        build_weights(np.array([[0.5 + 0j]]), np.ones(1), 1e308, WEIGHT_FMT, "antenna")
    # finite, and the largest raw of any format: every bit is set
    x = tag_input(np.array([0.5 + 0j]), 1e300, INPUT_FMT)
    assert all(c.all() and np.array_equal(c, naive_bits(r, 1e300, INPUT_FMT))
               for c, r in zip(input_bits(x), (x.re, x.im)))
    # without a format the threshold is tau itself, which is finite
    assert all(c.all() for c in input_bits(tag_input(np.array([0.5 + 0j]), 1e308, None)))


def test_bits_follow_a_new_threshold():
    # input bits read at one threshold never leak into a replaced object at another
    rng = np.random.default_rng(49)
    x = random_tagged(rng, 32, tau_y=0.0)
    assert not any(c.any() for c in input_bits(x))
    x5 = replace(x, tau_y=0.5)
    for c, r in zip(input_bits(x5), (x.re, x.im)):
        assert np.array_equal(c, naive_bits(r, 0.5, INPUT_FMT))
    assert input_bits(x5)[0].any() and not input_bits(x)[0].any()


def test_tag_input_saturates():
    v = tag_input(np.array([100.0 + 0j]), 0.0, INPUT_FMT)
    assert v.re[0] == INPUT_FMT.max_raw


# ---------------------------------------------------------------------------
# The skip-capable inner product
# ---------------------------------------------------------------------------

# Each row runs through the block entry as a one-row weight set, w[u:u + 1];
# with unit alpha and gain its estimate is the accumulator, undescaled.

def oracle_dotp(weights, u, x, save_power):
    t = naive_threshold_raw(weights.tau_w, weights.fmt.frac_bits)
    acc_re, acc_im, executed = naive_dotp(
        [int(r) for r in weights.re[u]], [int(r) for r in weights.im[u]],
        [abs(int(r)) < t for r in weights.re[u]], [abs(int(r)) < t for r in weights.im[u]],
        [int(r) for r in x.re], [int(r) for r in x.im],
        *(list(naive_bits(r, x.tau_y, x.fmt)) for r in (x.re, x.im)), save_power,
    )
    scale = weights.fmt.scale * x.fmt.scale
    return complex(acc_re / scale, acc_im / scale), executed


def test_dotp_save_power_off_is_plain_product():
    rng = np.random.default_rng(47)
    w = random_weights(rng, 2, 64, tau_w=0.3)
    x = random_tagged(rng, 64, tau_y=0.3)
    for u in range(2):
        (acc,), executed = equalize_tagged(w[u:u + 1], x, save_power=False)
        ref, ref_exec = oracle_dotp(w, u, x, save_power=False)
        assert acc == ref
        assert executed == 4 * 64 == ref_exec


def test_dotp_all_bits_set_skips_everything():
    rng = np.random.default_rng(48)
    w = random_weights(rng, 2, 16, tau_w=1.0)
    x = random_tagged(rng, 16, tau_y=4.1)  # above the input format's range
    (acc,), executed = equalize_tagged(w[0:1], x, save_power=True)
    assert acc == 0 and executed == 0


def test_dotp_hand_case_b2():
    w = build_weights(np.array([[0.04 + 0.5j, 0.03 + 0.02j]]), np.ones(1),
                      0.05, WEIGHT_FMT, "beamspace")
    x = tag_input(np.array([0.03 + 0.6j, 0.01 + 0.04j]), 0.05, INPUT_FMT)
    (acc,), executed = equalize_tagged(w[0:1], x, save_power=True)
    ref, ref_exec = oracle_dotp(w, 0, x, save_power=True)
    assert acc == ref
    assert executed == ref_exec == 3  # only b=0's p2/p3/p4 survive


def test_dotp_matches_oracle_randomized():
    rng = np.random.default_rng(49)
    for _ in range(300):
        B = int(rng.integers(1, 5))
        U = int(rng.integers(1, 3))
        tau_w = float(rng.uniform(0, 1.0))
        tau_y = float(rng.uniform(0, 1.0))
        w = random_weights(rng, U, B, tau_w)
        x = random_tagged(rng, B, tau_y)
        for u in range(U):
            (acc,), executed = equalize_tagged(w[u:u + 1], x, save_power=True)
            ref, ref_exec = oracle_dotp(w, u, x, save_power=True)
            assert acc == ref and executed == ref_exec


def test_dotp_length_mismatch():
    rng = np.random.default_rng(50)
    w = random_weights(rng, 1, 8, 0.1)
    x = random_tagged(rng, 4, 0.1)
    with pytest.raises(ValueError, match="length mismatch"):
        equalize_tagged(w[0:1], x, True)


def test_input_rejects_mismatched_parts():
    # a (16, 1) im part would broadcast against a (16, 3) re part into (U, 3) estimates
    with pytest.raises(ValueError, match="re and im must share one shape"):
        BeamVector(re=np.zeros((16, 3)), im=np.zeros((16, 1)), fmt=INPUT_FMT, tau_y=0.1)


def test_weights_reject_mismatched_parts():
    w = random_weights(np.random.default_rng(52), 4, 16, 0.1)
    with pytest.raises(ValueError, match="re and im must share one shape"):
        replace(w, im=w.im[:1])


def test_operands_hold_native_float64_raws():
    # integer or byte-swapped raws become float64 with the same values; float64
    # raws are kept as they are; complex raws used to pass and are refused
    w = random_weights(np.random.default_rng(54), 4, 16, 0.1)
    x = random_tagged(np.random.default_rng(55), 16, 0.1)
    for other in (lambda a: a.astype(np.int64), lambda a: a.astype(">f8"), np.ndarray.tolist):
        w2 = replace(w, re=other(w.re), im=other(w.im))
        x2 = replace(x, re=other(x.re), im=other(x.im))
        for a, b in ((w2, w), (x2, x)):
            assert a.re.dtype == a.im.dtype == np.dtype(np.float64)
            assert a.re.tobytes() == b.re.tobytes() and a.im.tobytes() == b.im.tobytes()
    assert replace(w).re is w.re and replace(x).im is x.im
    with pytest.raises(ValueError, match="weights re and im must be real raws"):
        EqualizerWeights(re=w.re + 0j, im=w.im, fmt=w.fmt, alpha=w.alpha, tau_w=w.tau_w,
                         domain=w.domain)
    with pytest.raises(ValueError, match="input re and im must be real raws"):
        BeamVector(re=x.re, im=x.im.astype(np.complex64), fmt=x.fmt, tau_y=x.tau_y)


def _strided_view(rng):
    # a (B, N) column slice of a wider stack, like the harness's x.re[:, 0, s]
    return rng.standard_normal((16, 3, 5))[:, 0, :]


_STORAGE = {
    "contiguous-1d": (lambda rng: rng.standard_normal(16), "same"),
    "strided-2d-view": (_strided_view, "same"),
    "strided-1d": (lambda rng: rng.standard_normal((16, 5))[:, 1], "copy"),
    "int64": (lambda rng: rng.integers(-512, 512, 16), "float64"),
    "big-endian": (lambda rng: rng.standard_normal((16, 4)).astype(">f8"), "float64"),
    "list": (lambda rng: rng.standard_normal(16).tolist(), "float64"),
    "complex": (lambda rng: rng.standard_normal(16) + 0j, "refused"),
}


@pytest.mark.parametrize("case", list(_STORAGE))
def test_storage_keeps_what_the_stream_and_the_harness_rely_on(case):
    # a stream joins contiguous (B,) buffers; the harness scores strided
    # views of its stacks uncopied; every raw is native float64
    make, kept = _STORAGE[case]
    rng = np.random.default_rng(56)
    re, im = make(rng), make(rng)
    if kept == "refused":
        with pytest.raises(ValueError, match="input re and im must be real raws"):
            BeamVector(re=re, im=im, fmt=None, tau_y=0.0)
        return
    x = BeamVector(re=re, im=im, fmt=None, tau_y=0.0)
    for stored, raw in ((x.re, re), (x.im, im)):
        assert type(stored) is np.ndarray and stored.dtype == np.dtype(np.float64)
        assert stored.dtype.isnative and (stored is raw) == (kept == "same")
        assert stored.ndim != 1 or stored.flags.c_contiguous
        assert stored.tobytes() == np.asarray(raw, dtype=np.float64).tobytes()
    if x.re.ndim == 2:
        w = EqualizerWeights(re=re, im=im, fmt=None, alpha=np.ones(16), tau_w=0.0,
                             domain="beamspace")
        assert (w.re is re) == (kept == "same") and w.re.dtype == np.dtype(np.float64)


def test_operands_with_too_few_axes_are_refused():
    # a 0-d input and 1-D weights used to build, then fail with IndexError
    with pytest.raises(ValueError, match=r"input raws must have 1 or more axes, got shape \(\)"):
        tag_input(np.complex128(0.5 + 0.25j), 0.5, INPUT_FMT)
    w = random_weights(np.random.default_rng(57), 4, 16, 0.1)
    with pytest.raises(ValueError, match=r"weights raws must have 2 or more axes, got shape \(16,\)"):
        replace(w, re=w.re[0], im=w.im[0], alpha=w.alpha[0])
    with pytest.raises(ValueError, match="length mismatch"):
        equalize_block("lmmse-b", None, w, np.complex128(0.5 + 0.25j))


def test_weights_reject_alpha_of_another_shape():
    w = random_weights(np.random.default_rng(53), 4, 16, 0.1)
    with pytest.raises(ValueError, match="one scale factor per weight row"):
        replace(w, alpha=np.ones(1))


def _three_row_weights(seed):
    rng = np.random.default_rng(seed)
    W = rng.uniform(-0.9, 0.9, (3, 16)) + 1j * rng.uniform(-0.9, 0.9, (3, 16))
    return build_weights(W, np.ones(3), 0.1, WEIGHT_FMT, "beamspace"), W


def _weights_made(how, w, W, **changes):
    # the three ways of making weights, each given the same changes to w
    if how == "direct":
        kw = dict(re=w.re, im=w.im, fmt=w.fmt, alpha=w.alpha, tau_w=w.tau_w, domain=w.domain)
        return EqualizerWeights(**{**kw, **changes})
    if how == "replace":
        return replace(w, **changes)
    return build_weights(W, changes.get("alpha", w.alpha), w.tau_w, w.fmt,
                         changes.get("domain", w.domain))


_BAD_WEIGHTS = {
    "domain": (dict(domain="nowhere"), r"domain must be one of \('antenna', 'beamspace'\)"),
    "alpha-negative": (dict(alpha=[1.0, -0.5, 1.0]), "alpha entries must be positive"),
    "alpha-zero": (dict(alpha=[1.0, 0.0, 1.0]), "alpha entries must be positive"),
    "alpha-nan-and-negative": (dict(alpha=[np.nan, -1.0, 1.0]), "alpha entries must be positive"),
    "alpha-nan": (dict(alpha=[1.0, np.nan, 1.0]), "alpha entries must be finite"),
    "alpha-inf": (dict(alpha=[1.0, 1.0, np.inf]), "alpha entries must be finite"),
    "alpha-complex": (dict(alpha=[1.0, 1.0 + 0.5j, 1.0]), "alpha must be real, not complex"),
}


@pytest.mark.parametrize("how", ["direct", "replace", "build_weights"])
@pytest.mark.parametrize("case", list(_BAD_WEIGHTS))
def test_every_way_of_making_weights_refuses_the_same_domain_and_alpha(case, how):
    # only build_weights refused an unknown domain or alpha <= 0; a NaN,
    # infinite or complex alpha passed everywhere (a zero alpha gave inf
    # estimates), and a list alpha made directly raised AttributeError
    w, W = _three_row_weights(58)
    changes, message = _BAD_WEIGHTS[case]
    with pytest.raises(ValueError, match=message):
        _weights_made(how, w, W, **changes)


@pytest.mark.parametrize("how", ["direct", "replace", "build_weights"])
def test_list_and_integer_alpha_are_stored_as_float64(how):
    w, W = _three_row_weights(59)
    for alpha in ([1, 2, 4], np.array([1, 2, 4]), np.array([1.0, 2.0, 4.0], dtype=">f8")):
        got = _weights_made(how, w, W, alpha=alpha).alpha
        assert type(got) is np.ndarray and got.dtype == np.dtype(np.float64)
        assert got.tobytes() == np.array([1.0, 2.0, 4.0]).tobytes()
    assert replace(w).alpha is w.alpha  # a native float64 alpha is kept as it is


def test_skip_error_bound():
    rng = np.random.default_rng(51)
    B, tau_w, tau_y = 64, 0.1, 0.08
    bound = 2 * B * tau_w * tau_y
    for _ in range(200):
        w = random_weights(rng, 1, B, tau_w)
        x = random_tagged(rng, B, tau_y)
        (exact,), _ = equalize_tagged(w[0:1], x, save_power=False)
        (approx,), _ = equalize_tagged(w[0:1], x, save_power=True)
        assert abs(exact.real - approx.real) <= bound
        assert abs(exact.imag - approx.imag) <= bound


def test_executed_monotone_in_thresholds():
    rng = np.random.default_rng(52)
    w_base = rng.uniform(-0.99, 0.99, (1, 64)) + 1j * rng.uniform(-0.99, 0.99, (1, 64))
    y = rng.uniform(-2, 2, 64) + 1j * rng.uniform(-2, 2, 64)
    grid = np.geomspace(2.0**-9, 2.0**-1, 8)
    prev_row = None
    for tw in grid:
        w = build_weights(w_base, np.ones(1), float(tw), WEIGHT_FMT, "beamspace")
        row = []
        for ty in grid:
            x = tag_input(y, float(ty), INPUT_FMT)
            _, executed = equalize_tagged(w[0:1], x, save_power=True)
            row.append(executed)
        assert all(a >= b for a, b in zip(row, row[1:]))  # along tau_y
        if prev_row is not None:
            assert all(p >= c for p, c in zip(prev_row, row))  # along tau_w
        prev_row = row


# ---------------------------------------------------------------------------
# Full equalization
# ---------------------------------------------------------------------------

def scalar_setup(fmt_w=WEIGHT_FMT, fmt_in=INPUT_FMT):
    H = ChannelMatrix(entries=np.array([[1.0 + 0j]]), domain="antenna")
    V = compute_lmmse(H, N0=1.0, Es=1.0)
    W, alpha = scale_rows(V, EPS)
    wa = build_weights(W, alpha, 0.0, fmt_w, "antenna")
    wb = build_weights(W, alpha, 0.0, fmt_w, "beamspace")  # B=1: DFT is identity
    fe = FrontEnd(input_fmt=fmt_in, tau_y=0.0)
    return wa, wb, fe


def _float_setup():
    rng = np.random.default_rng(47)
    W = rng.uniform(-0.9, 0.9, (2, 16)) + 1j * rng.uniform(-0.9, 0.9, (2, 16))
    w = build_weights(W, np.ones(2), 0.1, None, "antenna")
    y = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    return w, y, tag_input(y, 0.1, None)


_GAIN_ENTRIES = {
    "equalize_pairs": lambda w, y, x, g: equalize_pairs(w, x, [(0.1, 0.1)], True, g),
    "equalize_tagged": lambda w, y, x, g: equalize_tagged(w, x, True, g),
    "equalize_block": lambda w, y, x, g: equalize_block("lmmse-a", w, None, y,
                                                        FrontEnd(input_fmt=None, gain=g)),
    "simulate_stream": lambda w, y, x, g: simulate_stream(
        w, [tag_input(y[:, 0], 0.1, None)], PipelineConfig(), True, gain=g),
    "simulate_stream-empty": lambda w, y, x, g: simulate_stream(
        w, [], PipelineConfig(), True, gain=g),
}


@pytest.mark.parametrize("entry", list(_GAIN_ENTRIES))
def test_every_entry_refuses_a_gain_that_is_a_bool_or_not_finite_and_positive(entry):
    # gain 0 gave inf estimates, NaN NaN ones, inf zeros, and True ran as 1.0;
    # a string or complex gain raised TypeError, and an empty stream took them all
    w, y, x = _float_setup()
    for gain in (0.0, -1.0, np.nan, np.inf, True, np.bool_(True), "0.5", 0.5 + 0j):
        with pytest.raises(ValueError) as exc:
            _GAIN_ENTRIES[entry](w, y, x, gain)
        assert str(exc.value) == f"gain {gain!r} is not a finite number > 0"
    _GAIN_ENTRIES[entry](w, y, x, 0.5)


def test_front_end_refuses_a_gain_that_is_not_finite_at_construction():
    # the front end scaled and quantized before the product read the gain:
    # a NaN gain was reported as a non-finite sample, and an infinite one on
    # [1+0j] raised NumPy's RuntimeWarning (inf * 0) first
    wa, _, _ = scalar_setup()
    for gain in (np.nan, np.inf):
        with pytest.raises(ValueError) as exc:
            equalize_block("lmmse-a", wa, None, np.array([1.0 + 0j]), FrontEnd(gain=gain))
        assert str(exc.value) == f"gain {gain!r} is not a finite number > 0"
    fe = FrontEnd(gain=np.float32(0.5))
    assert type(fe.gain) is float and fe == FrontEnd(gain=0.5)


def test_equalize_scalar_lmmse_a():
    wa, _, fe = scalar_setup()
    s, report = equalize_block("lmmse-a", wa, None, np.array([1.0 + 0j]), fe)
    assert abs(s[0] - 0.5) < 2.0**-9
    assert report.activity_rate == 1.0


def test_equalize_scalar_modes_agree():
    wa, wb, fe = scalar_setup()
    sa, _ = equalize_block("lmmse-a", wa, None, np.array([1.0 + 0j]), fe)
    sb, _ = equalize_block("lmmse-b", None, wb, np.array([1.0 + 0j]), fe)
    assert abs(sa[0] - sb[0]) < 1e-9 + 2.0**-9


def test_equalize_mode_domain_mismatch():
    wa, wb, fe = scalar_setup()
    with pytest.raises(ValueError, match="mode/domain mismatch"):
        equalize_block("lmmse-a", wb, None, np.array([1.0 + 0j]), fe)
    with pytest.raises(ValueError, match="mode/domain mismatch"):
        equalize_block("lmmse-spade", None, None, np.array([1.0 + 0j]), fe)
    with pytest.raises(ValueError, match="mode must be"):
        equalize_block("zf", wa, wb, np.array([1.0 + 0j]), fe)


def test_zero_thresholds_make_spade_exact():
    rng = np.random.default_rng(53)
    Hbar = draw_channel_matrix("los", 16, 4, rng)
    H = ChannelMatrix(to_beamspace(Hbar.entries), "beamspace")
    V = compute_lmmse(H, 0.25, 1.0)
    W, alpha = scale_rows(V, EPS)
    wb = build_weights(W, alpha, 0.0, WEIGHT_FMT, "beamspace")
    fe = FrontEnd(input_fmt=INPUT_FMT, tau_y=0.0, gain=0.5)
    Y = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    s_spade, r_spade = equalize_block("lmmse-spade", None, wb, Y, fe)
    s_b, r_b = equalize_block("lmmse-b", None, wb, Y, fe)
    assert np.array_equal(s_spade, s_b)
    assert r_spade.activity_rate == 1.0
    assert np.array_equal(r_spade.per_vector, r_b.per_vector)


def test_mode_equivalence_without_quantization():
    rng = np.random.default_rng(54)
    fe = FrontEnd(input_fmt=None, tau_y=0.0, gain=0.5)
    for _ in range(50):
        Hbar = draw_channel_matrix("nlos", 16, 4, rng)
        Hb = ChannelMatrix(to_beamspace(Hbar.entries), "beamspace")
        Va = compute_lmmse(Hbar, 0.4, 1.0)
        Vb = compute_lmmse(Hb, 0.4, 1.0)
        Wa, aa = scale_rows(Va, EPS)
        Wb, ab = scale_rows(Vb, EPS)
        wa = build_weights(Wa, aa, 0.0, None, "antenna")
        wb = build_weights(Wb, ab, 0.0, None, "beamspace")
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        sa, _ = equalize_block("lmmse-a", wa, None, y, fe)
        sb, _ = equalize_block("lmmse-b", None, wb, y, fe)
        assert np.max(np.abs(sa - sb)) < 1e-6


def test_quantization_flag_mismatch():
    rng = np.random.default_rng(55)
    w = random_weights(rng, 2, 4, 0.1, fmt=None)
    fe = FrontEnd(input_fmt=INPUT_FMT)
    with pytest.raises(ValueError, match="agree on quantization"):
        equalize_block("lmmse-b", None, w, rng.standard_normal(4) + 0j, fe)


@pytest.mark.parametrize("save_power", [True, False])
@pytest.mark.parametrize("fmts", [(WEIGHT_FMT, INPUT_FMT), (None, None)])
def test_empty_block_scores_no_columns(fmts, save_power):
    B, U = 16, 4
    rng = np.random.default_rng(56)
    w = random_weights(rng, U, B, 0.1, fmt=fmts[0])
    x = tag_input(np.zeros((B, 0), dtype=complex), 0.1, fmts[1])
    scored = equalize_pairs(w, x, [(0.1, 0.05), (0.3, 0.2), (0.0, 0.05)], save_power)
    assert [indices for indices, _, _ in scored] == [[0, 2], [1]]
    for indices, S, executed in scored:
        assert S.shape == (len(indices), U, 0) and S.dtype == np.complex128
        assert executed.shape == (len(indices), 0) and executed.dtype == np.int64
    mode = "lmmse-spade" if save_power else "lmmse-b"
    s, report = equalize_block(mode, None, w, np.zeros((B, 0), dtype=complex),
                               FrontEnd(input_fmt=fmts[1], tau_y=0.1))
    assert s.shape == (U, 0)
    assert report.total == 0 and report.activity_rate == 1.0


# ---------------------------------------------------------------------------
# Hard slicing
# ---------------------------------------------------------------------------

def test_slice_round_trip_exact_points():
    for M in (4, 16, 64):
        k = int(np.log2(M))
        rng = np.random.default_rng(56 + M)
        bits = rng.integers(0, 2, size=(6, k), dtype=np.uint8)
        errors = bit_errors(qam_modulate(bits, M, 1.0), qam_index(bits, M), M, 1.0)
        assert not errors.any()


def test_slice_tie_breaks_toward_smaller_point():
    # Es=10 makes the 16-QAM level spacing exactly 2, so ties are float-exact
    # re: tie between levels 1 and 3 -> 1 (index 2); im: tie between -1 and 1 -> -1 (index 1)
    expected = np.array(gray_code_bits(2, 2) + gray_code_bits(1, 2), dtype=np.uint8)
    errors = bit_errors(np.full(16, 2.0 + 0j), np.arange(16), 16, 10.0)
    assert errors.tolist() == [bin(i ^ qam_index(expected, 16)).count("1") for i in range(16)]


def test_slice_high_snr_sanity():
    rng = np.random.default_rng(57)
    n = 10_000
    bits = rng.integers(0, 2, size=(n, 4), dtype=np.uint8)
    symbols = qam_modulate(bits, 16, 1.0)
    n0 = 10 ** (-30 / 10)  # Es/N0 = 30 dB
    noisy = symbols + np.sqrt(n0 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    errors = int(bit_errors(noisy, qam_index(bits, 16), 16, 1.0).sum())
    assert errors < 10
