"""Equalizer core: LMMSE oracle, row scaling, comparison bits, skip accounting."""

import numpy as np
import pytest

from spadesim.beamspace import to_beamspace
from spadesim.channel import ChannelMatrix, draw_channel_matrix
from spadesim.equalizer import (
    FrontEnd,
    build_weights,
    compute_lmmse,
    dump_beam_vector,
    dump_weights,
    equalize_block,
    equalize_tagged,
    scale_rows,
    slice_symbols,
    tag_input,
    _threshold_raw,
)
from spadesim.numerics import INPUT_FMT, WEIGHT_FMT, QFormat, linf_tilde, quantize_raw

from reference import gray_code_bits, naive_dotp, naive_threshold_raw

EPS = 2.0**-10


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
    assert abs(linf_tilde(W[0]) - 0.99870) < 1e-4
    assert linf_tilde(W[0]) < 1.0


def test_scale_rows_zero_row():
    W, alpha = scale_rows(np.zeros((2, 4), dtype=complex), EPS)
    assert alpha[0] == 1.0 / EPS
    assert np.all(W == 0)


def test_scale_rows_always_below_one():
    rng = np.random.default_rng(43)
    V = 10 * (rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32)))
    W, _ = scale_rows(V, EPS)
    for row in W:
        assert linf_tilde(row) < 1.0
    with pytest.raises(ValueError):
        scale_rows(V, 0.0)


def test_build_weights_threshold_extremes():
    rng = np.random.default_rng(44)
    w0 = random_weights(rng, 3, 16, tau_w=0.0)
    assert not w0.cw_re.any() and not w0.cw_im.any()
    w1 = random_weights(rng, 3, 16, tau_w=1.0)
    assert w1.cw_re.all() and w1.cw_im.all()


def test_build_weights_bits_match_recompute():
    rng = np.random.default_rng(45)
    w = random_weights(rng, 4, 32, tau_w=0.05)
    t = naive_threshold_raw(0.05, WEIGHT_FMT.frac_bits)
    assert t == _threshold_raw(0.05, WEIGHT_FMT)
    assert np.array_equal(w.cw_re, np.abs(w.re) < t)
    assert np.array_equal(w.cw_im, np.abs(w.im) < t)


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
    assert linf_tilde(w.as_complex()[0]) < 1.0


def test_tag_input_extremes_and_recompute():
    rng = np.random.default_rng(46)
    v = random_tagged(rng, 32, tau_y=0.0)
    assert not v.cy_re.any() and not v.cy_im.any()
    z = tag_input(np.zeros(8, dtype=complex), 0.5, INPUT_FMT)
    assert z.cy_re.all() and z.cy_im.all()
    v2 = random_tagged(rng, 32, tau_y=0.07)
    t = naive_threshold_raw(0.07, INPUT_FMT.frac_bits)
    assert np.array_equal(v2.cy_re, np.abs(v2.re) < t)
    assert np.array_equal(v2.cy_im, np.abs(v2.im) < t)


def test_tag_input_saturates():
    v = tag_input(np.array([100.0 + 0j]), 0.0, INPUT_FMT)
    assert v.re[0] == INPUT_FMT.max_raw


# ---------------------------------------------------------------------------
# The skip-capable inner product
# ---------------------------------------------------------------------------

# Each row runs through the block entry as a one-row weight set, w[u:u + 1];
# with unit alpha and gain its estimate is the accumulator, undescaled.

def oracle_dotp(weights, u, x, save_power):
    acc_re, acc_im, executed = naive_dotp(
        [int(r) for r in weights.re[u]], [int(r) for r in weights.im[u]],
        list(weights.cw_re[u]), list(weights.cw_im[u]),
        [int(r) for r in x.re], [int(r) for r in x.im],
        list(x.cy_re), list(x.cy_im), save_power,
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


# ---------------------------------------------------------------------------
# Hard slicing
# ---------------------------------------------------------------------------

def test_slice_round_trip_exact_points():
    from spadesim.channel import map_qam

    for M in (4, 16, 64):
        k = int(np.log2(M))
        rng = np.random.default_rng(56 + M)
        bits = rng.integers(0, 2, size=6 * k, dtype=np.uint8)
        sv = map_qam(bits, M, 1.0)
        assert np.array_equal(slice_symbols(sv.symbols, M, 1.0), bits)


def test_slice_tie_breaks_toward_smaller_point():
    # Es=10 makes the 16-QAM level spacing exactly 2, so ties are float-exact
    bits = slice_symbols(np.array([2.0 + 0j]), 16, 10.0)
    # re: tie between levels 1 and 3 -> 1 (index 2); im: tie between -1 and 1 -> -1 (index 1)
    expected = np.array(gray_code_bits(2, 2) + gray_code_bits(1, 2), dtype=np.uint8)
    assert np.array_equal(bits, expected)


def test_slice_high_snr_sanity():
    from spadesim.channel import map_qam

    rng = np.random.default_rng(57)
    n = 10_000
    bits = rng.integers(0, 2, size=4 * n, dtype=np.uint8)
    sv = map_qam(bits, 16, 1.0)
    n0 = 10 ** (-30 / 10)  # Es/N0 = 30 dB
    noisy = sv.symbols + np.sqrt(n0 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    errors = int((slice_symbols(noisy, 16, 1.0) != bits).sum())
    assert errors < 10


# ---------------------------------------------------------------------------
# Debug dumps
# ---------------------------------------------------------------------------

def test_weight_dump_format():
    w = build_weights(np.array([[0.5 - 0.25j]]), np.ones(1), 0.3, WEIGHT_FMT, "antenna")
    lines = dump_weights(w).splitlines()
    assert lines[1] == "u b re im cw_re cw_im"
    # raw 256 -> 100h; raw -128 -> two's complement 380h in 10 bits
    assert lines[2] == "0 0 100 380 0 1"


def test_beam_vector_dump_round_values():
    v = tag_input(np.array([1.0 + 0j]), 0.5, INPUT_FMT)
    lines = dump_beam_vector(v).splitlines()
    assert lines[1] == "b re im cy_re cy_im"
    assert lines[2] == "0 200 000 0 1"


def test_dump_requires_fixed_point():
    rng = np.random.default_rng(58)
    with pytest.raises(ValueError):
        dump_weights(random_weights(rng, 1, 2, 0.1, fmt=None))
