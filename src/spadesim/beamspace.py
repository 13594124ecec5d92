"""Spatial DFT between antenna domain and beamspace.

The exact path is the unitary DFT (forward kernel e^{-j 2 pi m n / B}, natural
output order, 1/sqrt(B) inside the transform). The quantized path mirrors a
fully-unrolled radix-4 decimation-in-time FFT whose twiddle factors are
rounded to a low-resolution fixed-point format; the radix-4 butterfly factors
(+-1, +-j) stay exact, as they cost no multiplier in hardware.

Columns are independent, so :func:`to_beamspace` runs the radix-4 on a wide
block ``_TILE_COLUMNS`` columns at a time, each tile's butterfly passes
staying in cache, and writes each scaled tile into one preallocated C-ordered
output: the bytes of one pass over the whole block, with temporaries of a few
tiles instead of a few blocks.

:func:`beamspace_raws` alone transforms and then quantizes input: one GEMM
with the radix-4 cached as a matrix where a rounding certificate vouches for
the block, else (and off the quantized radix-4 path) it quantizes
:func:`to_beamspace`'s output, so the raws are the same bytes either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numerics import TWIDDLE_FMT, QFormat, _check_flag, dequantize, quantize_complex


# Columns of a block that a wide-block pass works on at once, here and in
# equalizer.equalize_pairs: a 64-row complex tile takes 1 MB and a float64
# pass over it 0.5 MB, within a core's L2 cache. On a 64x10000 stream the
# masked product ran within one width's run-to-run spread at 256 to 2048
# columns and a little slower at 4096 (BENCH_kernel_tiles.json); the radix-4
# took 22 ms at 512 to 1024 columns, 25 ms at 2048, 29 ms at 256 and 34 ms at
# 4096, against 32-40 ms untiled (BENCH_wide_tiles.json).
_TILE_COLUMNS = 1024


def _is_power_of_4(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0 and (int(n).bit_length() - 1) % 2 == 0


@dataclass(frozen=True)
class TwiddleConfig:
    """Transform flavor: exact unitary DFT, or radix-4 with quantized twiddles."""

    exact: bool = True
    twiddle_fmt: QFormat = field(default=TWIDDLE_FMT)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exact", _check_flag("exact", self.exact))


@lru_cache(maxsize=None)
def _quantized_twiddles(n: int, fmt: QFormat):
    k = np.arange(n // 4)
    out = []
    for p in (1, 2, 3):
        re, im = quantize_complex(np.exp(-2j * np.pi * ((p * k) % n) / n), fmt)
        wq = dequantize(re, fmt) + 1j * dequantize(im, fmt)
        wq.setflags(write=False)
        out.append(wq)
    return tuple(out)


@lru_cache(maxsize=None)
def _digit_reversal(n: int) -> np.ndarray:
    """Base-4 digit-reversed order: the leaf order of the decimation-in-time recursion."""
    perm = np.zeros(1, dtype=np.intp)
    while perm.size < n:
        perm = np.concatenate([4 * perm + r for r in range(4)])
    perm.setflags(write=False)
    return perm


def _radix4(x: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Radix-4 DIT FFT, one vectorized butterfly stage per base-4 digit.

    Each stage performs the recursive formulation's exact operations (twiddle
    product ``w * f``, then the four butterfly sums in their written order),
    so the result is bit-identical to it.
    """
    n = x.shape[0]
    tail = x.shape[1:]
    a = x[_digit_reversal(n)].astype(np.complex128, copy=False)
    size = 1
    while size < n:
        w1, w2, w3 = (w.reshape((size,) + (1,) * len(tail)) for w in _quantized_twiddles(4 * size, fmt))
        f = a.reshape((n // (4 * size), 4, size) + tail)
        t0, t1, t2, t3 = f[:, 0], w1 * f[:, 1], w2 * f[:, 2], w3 * f[:, 3]
        j1, j3 = 1j * t1, 1j * t3
        out = np.empty_like(f)
        out[:, 0] = t0 + t1 + t2 + t3
        out[:, 1] = t0 - j1 - t2 + j3
        out[:, 2] = t0 - t1 + t2 - t3
        out[:, 3] = t0 + j1 - t2 - j3
        a = out.reshape((n,) + tail)
        size *= 4
    return a


def _gamma(n: int) -> float:
    # Higham's gamma_n = n u / (1 - n u): bounds the relative error of n roundings
    u = 2.0**-53
    return n * u / (1 - n * u)


@lru_cache(maxsize=None)
def _raw_transform(n: int, fmt: QFormat, frac_bits: int):
    """The radix-4 as one matrix, scaled to input raws, and its rounding certificate.

    Returns (T, coef, limit): T = _radix4(eye(n)) times k = 2**frac_bits /
    sqrt(n), an exact power of two; ``coef * 2 * n * m`` bounds the raw-unit
    gap between the GEMM and the radix-4 on a block whose largest |component|
    is m; ``limit`` caps the m the bound holds for. See :func:`beamspace_raws`.
    """
    k = 2.0**frac_bits / np.sqrt(n)
    T = _radix4(np.eye(n, dtype=np.complex128), fmt)
    T *= k
    T.setflags(write=False)
    stages = 0
    P = 1.0
    while 4**stages < n:
        P *= max(1.0, *(float((np.abs(w.real) + np.abs(w.imag)).max())
                        for w in _quantized_twiddles(4 ** (stages + 1), fmt)))
        stages += 1
    # the factor 2 covers the rounding of E_c's own evaluation
    coef = 2 * k * P * (2 * _gamma(5 * stages) + _gamma(2 * n + 2) * (1 + _gamma(5 * stages)))
    limit = 2.0**1000 / (2 * n * P * max(k, 1.0))
    return T, coef, limit


def beamspace_raws(x: np.ndarray, twiddle: TwiddleConfig, input_fmt: QFormat | None):
    """Beamspace raws (re, im) of a (B,) vector or (B, ...) block: transform, then quantize.

    Byte for byte ``quantize_complex(to_beamspace(x, twiddle), input_fmt)``,
    the one fallback. With quantized input, radix-4 twiddles and a power-of-4
    B, a block the certificate below vouches for is one complex GEMM, v = k T x
    with T = _radix4(eye(B)) and k = scale / sqrt(B), rounded half-even and
    clipped in the float domain (nearest-even, saturating, zeros +0.0).

    Certificate. Write |z|_1 = |Re z| + |Im z| and S_c = sum_j |x_jc|_1. Let P
    be the product over the L = log4(B) stages of the largest |w|_1 of the
    stage's twiddles (at least 1, for the unit butterfly factors); every entry
    of the exact T, one path through the butterflies, has |T_kj|_1 <= P. In
    raw units, both paths stay near the exact k T x:
    - the radix-4: each stage's real output sums terms that each see at most
      five roundings (two in the twiddle product, three in the left-to-right
      sum; the factors +-1, +-j are exact), so a stage computes
      (A + D) a with |D| <= gamma_5 |A|, and L stages give
      |error| <= gamma_5L k P S_c;
    - the cached T: the same radix-4 run on unit vectors, so each entry is off
      by at most gamma_5L P. This is zero when the twiddle products are
      float-exact, but wide twiddle formats (L frac_bits > 52) round them;
    - the GEMM: each real or imaginary output sums 2B real products, so for
      any summation order or FMA use |error| <= gamma_{2B+2} sum_j |kT_kj|_1 |x_jc|_1
      <= gamma_{2B+2} (1 + gamma_5L) k P S_c.
    Their sum, doubled for its own evaluation, is E_c = coef * S_c. A sample
    further than E_c (plus 2**-40 for the rounding of 0.5 - E_c and for
    underflow) from every rounding boundary j + 1/2 rounds the same on both
    paths; the block's largest |component| m, with S_c <= 2 B m, checks the
    whole block at once. Scaling by k and by 1/sqrt(B) is exact (powers of
    two). A block with a sample inside that bound, or with input that is not
    finite or large enough to overflow, takes the fallback whole, which
    raises on a non-finite sample as :func:`quantize_raw` does.
    """
    x = np.asarray(x)
    B = x.shape[0]
    if input_fmt is not None and not twiddle.exact and _is_power_of_4(B):
        z = np.ascontiguousarray(x.reshape(B, -1), dtype=np.complex128)
        T, coef, limit = _raw_transform(B, twiddle.twiddle_fmt, input_fmt.frac_bits)
        zv = z.view(np.float64)
        m = max(zv.max(initial=0.0), -zv.min(initial=0.0))
        if m < limit:
            v = (T @ z).view(np.float64)  # (B, 2N): real and imaginary parts interleaved
            raws = np.rint(v)
            np.subtract(v, raws, out=v)
            np.abs(v, out=v)
            if v.max(initial=0.0) < 0.5 - coef * 2 * B * m - 2.0**-40:
                np.minimum(raws, input_fmt.max_raw, out=raws)
                np.maximum(raws, input_fmt.min_raw, out=raws)
                raws += 0.0  # -0.0 -> +0.0, as quantize_raw gives
                out = v.reshape(2, *z.shape)  # the distances are read: reuse their buffer
                np.copyto(out, raws.reshape(*z.shape, 2).transpose(2, 0, 1))
                return out[0].reshape(x.shape), out[1].reshape(x.shape)
    return quantize_complex(to_beamspace(x, twiddle), input_fmt)


def to_beamspace(y: np.ndarray, cfg: TwiddleConfig = TwiddleConfig()) -> np.ndarray:
    """Transform antenna-domain vector(s) to beamspace along axis 0.

    Accepts shape (B,) or (B, ...). Exact mode matches ``F @ y`` with the unitary
    DFT matrix F[m, n] = e^{-j 2 pi m n / B} / sqrt(B) to machine precision;
    quantized mode runs the radix-4 FFT with rounded twiddles and requires B
    to be a power of 4. Both scale by 1/sqrt(B). The radix-4 returns a
    C-ordered complex array, computed ``_TILE_COLUMNS`` columns of the
    flattened (B, -1) block at a time.
    """
    y = np.asarray(y)
    B = y.shape[0]
    if cfg.exact:
        return np.fft.fft(y, axis=0) / np.sqrt(B)
    if not _is_power_of_4(B):
        raise ValueError(f"radix-4 transform needs a power-of-4 length, got {B}")
    z = y.reshape(B, -1)
    out = np.empty(z.shape, dtype=np.complex128)
    for a in range(0, z.shape[1], _TILE_COLUMNS):
        cols = slice(a, a + _TILE_COLUMNS)
        np.divide(_radix4(z[:, cols], cfg.twiddle_fmt), np.sqrt(B), out=out[:, cols])
    return out.reshape(y.shape)
