"""Fixed-point arithmetic: quantization and the raw form."""

import numpy as np
import pytest

from spadesim.equalizer import build_weights, tag_input
from spadesim.numerics import INPUT_FMT, WEIGHT_FMT, QFormat, dequantize, quantize_raw

from reference import nearest_representable


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


def test_qformat_stores_integer_widths_as_int():
    # NumPy widths pass and are stored as int, as every other integer setting is
    fmt = QFormat(np.int64(10), np.uint8(9))
    assert fmt == WEIGHT_FMT and type(fmt.total_bits) is int and type(fmt.frac_bits) is int
    assert quantize_raw(0.5, fmt) == 256


def test_qformat_range():
    fmt = QFormat(10, 9)
    assert (fmt.min_raw, fmt.max_raw, fmt.scale) == (-512, 511, 512)


def test_quantize_exact_and_zero():
    fmt = QFormat(10, 9)
    assert quantize_raw(0.5, fmt) == 256
    assert dequantize(quantize_raw(0.5, fmt), fmt) == 0.5
    for total, frac in [(10, 9), (12, 9), (6, 4), (16, 0)]:
        assert quantize_raw(0.0, QFormat(total, frac)) == 0


def test_quantize_saturates_against_exhaustive_scan():
    fmt = QFormat(10, 9)
    assert quantize_raw(1.0, fmt) == nearest_representable(1.0, 10, 9) == 511
    assert quantize_raw(-5.0, fmt) == nearest_representable(-5.0, 10, 9) == -512
    rng = np.random.default_rng(11)
    for x in rng.uniform(-1.5, 1.5, size=200):
        assert quantize_raw(float(x), fmt) == nearest_representable(float(x), 10, 9)


def test_quantize_small_format_scan():
    fmt = QFormat(6, 4)
    rng = np.random.default_rng(12)
    for x in rng.uniform(-3.0, 3.0, size=300):
        assert quantize_raw(float(x), fmt) == nearest_representable(float(x), 6, 4)


def test_quantize_rejects_non_finite():
    fmt = QFormat(10, 9)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_raw(bad, fmt)
    with pytest.raises(ValueError, match="non-finite"):
        quantize_raw(np.array([0.0, np.nan]), fmt)


def test_quantize_error_bound_and_saturation():
    fmt = QFormat(12, 9)
    rng = np.random.default_rng(13)
    step, lo, hi = 1.0 / fmt.scale, fmt.min_raw / fmt.scale, fmt.max_raw / fmt.scale
    xs = rng.uniform(lo, hi, size=2000)
    raws = quantize_raw(xs, fmt)
    err = np.abs(raws / fmt.scale - xs)
    assert err.max() <= 2.0 ** (-fmt.frac_bits - 1) + 1e-15
    assert quantize_raw(100.0, fmt) == fmt.max_raw
    assert quantize_raw(-100.0, fmt) == fmt.min_raw
    # the raw form: integer-valued float64, zero always +0.0
    assert raws.dtype == np.float64 and np.array_equal(raws, np.trunc(raws))
    near_zero = np.array([-0.0, -step / 4, -np.nextafter(step / 2, 0.0), -step / 2])
    assert not np.signbit(quantize_raw(near_zero, fmt)).any()
    # ties and saturation as the exhaustive scan decides them
    edges = np.array([(k + 0.5) * step for k in range(-6, 6)]
                     + [lo - step / 2, hi + step / 2, 100.0, -100.0])
    assert quantize_raw(edges, fmt).tolist() == [nearest_representable(float(x), 12, 9)
                                                 for x in edges]
    # and the datapath's raws keep it
    w = build_weights(np.full((2, 4), 0.3 - 0.6j), np.ones(2), 0.1, WEIGHT_FMT, "beamspace")
    y = tag_input(np.full((4, 3), -1e-4 + 2.5j), 0.1, INPUT_FMT)
    assert all(a.dtype == np.float64 for a in (w.re, w.im, y.re, y.im))
    assert not np.signbit(y.re).any()


def test_quantize_ties_to_even():
    fmt = QFormat(10, 9)
    # 1.5/512 and 2.5/512 are exact halves of the grid
    assert quantize_raw(1.5 / 512, fmt) == 2
    assert quantize_raw(2.5 / 512, fmt) == 2
    assert quantize_raw(-1.5 / 512, fmt) == -2
