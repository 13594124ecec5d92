"""Fixed-point arithmetic: quantization, exact products, componentwise norm."""

from fractions import Fraction

import numpy as np
import pytest

from spadesim.numerics import QFormat, linf_tilde, quantize_raw

from reference import ComplexFixed, FixedScalar, fixed_mul, nearest_representable, quantize


def test_qformat_validation():
    QFormat(2, 0)
    QFormat(32, 31)
    with pytest.raises(ValueError):
        QFormat(1, 0)
    with pytest.raises(ValueError):
        QFormat(33, 10)
    with pytest.raises(ValueError):
        QFormat(10, 10)
    with pytest.raises(ValueError):
        QFormat(10, -1)


def test_qformat_range():
    fmt = QFormat(10, 9)
    assert fmt.min_value == -1.0
    assert fmt.max_value == 511 / 512
    assert fmt.step == 2**-9


def test_quantize_exact_and_zero():
    fmt = QFormat(10, 9)
    assert quantize(0.5, fmt).raw == 256
    assert quantize(0.5, fmt).value == 0.5
    for total, frac in [(10, 9), (12, 9), (6, 4), (16, 0)]:
        assert quantize(0.0, QFormat(total, frac)).raw == 0


def test_quantize_saturates_against_exhaustive_scan():
    fmt = QFormat(10, 9)
    assert quantize(1.0, fmt).raw == nearest_representable(1.0, 10, 9) == 511
    assert quantize(-5.0, fmt).raw == nearest_representable(-5.0, 10, 9) == -512
    rng = np.random.default_rng(11)
    for x in rng.uniform(-1.5, 1.5, size=200):
        assert quantize(float(x), fmt).raw == nearest_representable(float(x), 10, 9)


def test_quantize_small_format_scan():
    fmt = QFormat(6, 4)
    rng = np.random.default_rng(12)
    for x in rng.uniform(-3.0, 3.0, size=300):
        assert quantize(float(x), fmt).raw == nearest_representable(float(x), 6, 4)


def test_quantize_rejects_non_finite():
    fmt = QFormat(10, 9)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            quantize(bad, fmt)
    with pytest.raises(ValueError, match="non-finite"):
        quantize_raw(np.array([0.0, np.nan]), fmt)


def test_quantize_error_bound_and_saturation():
    fmt = QFormat(12, 9)
    rng = np.random.default_rng(13)
    xs = rng.uniform(fmt.min_value, fmt.max_value, size=2000)
    raws = quantize_raw(xs, fmt)
    err = np.abs(raws / fmt.scale - xs)
    assert err.max() <= 2.0 ** (-fmt.frac_bits - 1) + 1e-15
    assert quantize(100.0, fmt).raw == fmt.max_raw
    assert quantize(-100.0, fmt).raw == fmt.min_raw


def test_quantize_ties_to_even():
    fmt = QFormat(10, 9)
    # 1.5/512 and 2.5/512 are exact halves of the grid
    assert quantize(1.5 / 512, fmt).raw == 2
    assert quantize(2.5 / 512, fmt).raw == 2
    assert quantize(-1.5 / 512, fmt).raw == -2


def test_fixed_mul_trivial():
    a = quantize(0.5, QFormat(10, 9))
    out = fixed_mul(a, a)
    assert out.value == 0.25
    assert out.fmt == QFormat(20, 18)
    zero = quantize(0.0, QFormat(12, 9))
    for x in (-0.7, 0.3, 0.999):
        assert fixed_mul(quantize(x, QFormat(12, 9)), zero).raw == 0


def test_fixed_mul_matches_arbitrary_precision_oracle():
    rng = np.random.default_rng(14)
    fa, fb = QFormat(10, 9), QFormat(12, 9)
    for _ in range(10_000):
        a = FixedScalar(int(rng.integers(fa.min_raw, fa.max_raw + 1)), fa)
        b = FixedScalar(int(rng.integers(fb.min_raw, fb.max_raw + 1)), fb)
        out = fixed_mul(a, b)
        exact = Fraction(a.raw, fa.scale) * Fraction(b.raw, fb.scale)
        assert Fraction(out.raw, out.fmt.scale) == exact
        assert fixed_mul(b, a).raw == out.raw


def test_fixed_scalar_range_check():
    with pytest.raises(ValueError):
        FixedScalar(512, QFormat(10, 9))
    with pytest.raises(ValueError):
        FixedScalar(-513, QFormat(10, 9))


def test_complex_fixed_shares_format():
    fmt = QFormat(10, 9)
    z = ComplexFixed(quantize(0.5, fmt), quantize(-0.25, fmt))
    assert z.value == 0.5 - 0.25j
    with pytest.raises(ValueError):
        ComplexFixed(quantize(0.5, fmt), quantize(0.5, QFormat(12, 9)))


def test_linf_tilde_examples():
    assert linf_tilde([3 + 4j, -5 + 1j]) == 5.0
    assert linf_tilde(np.zeros(8, dtype=complex)) == 0.0
    with pytest.raises(ValueError, match="empty"):
        linf_tilde([])


def test_linf_tilde_matches_brute_force():
    rng = np.random.default_rng(15)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    brute = max(max(abs(z.real), abs(z.imag)) for z in v)
    assert linf_tilde(v) == brute


def test_linf_tilde_scales_with_real_factor():
    rng = np.random.default_rng(16)
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    base = linf_tilde(v)
    assert linf_tilde(4.0 * v) == 4.0 * base  # power of two: exact
    c = 1.7
    assert abs(linf_tilde(c * v) - c * base) < 1e-12
