"""Spatial DFT between antenna domain and beamspace.

The exact path is the unitary DFT (forward kernel e^{-j 2 pi m n / B}, natural
output order, 1/sqrt(B) inside the transform). The quantized path mirrors a
fully-unrolled radix-4 decimation-in-time FFT whose twiddle factors are
rounded to a low-resolution fixed-point format; the radix-4 butterfly factors
(+-1, +-j) stay exact, as they cost no multiplier in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import _is_power_of_4
from .numerics import TWIDDLE_FMT, QFormat, dequantize, quantize_raw


@dataclass(frozen=True)
class TwiddleConfig:
    """Transform flavor: exact unitary DFT, or radix-4 with quantized twiddles."""

    exact: bool = True
    twiddle_fmt: QFormat = field(default=TWIDDLE_FMT)


def dft_matrix(B: int) -> np.ndarray:
    """Unitary DFT matrix F with F[m, n] = e^{-j 2 pi m n / B} / sqrt(B)."""
    if B < 1:
        raise ValueError("B must be >= 1")
    n = np.arange(B)
    # reduce the index product mod B before exponentiating to keep angles small
    phase = (np.outer(n, n) % B).astype(np.float64)
    return np.exp(-2j * np.pi * phase / B) / np.sqrt(B)


@lru_cache(maxsize=None)
def _quantized_twiddles(n: int, fmt: QFormat):
    k = np.arange(n // 4)
    out = []
    for p in (1, 2, 3):
        w = np.exp(-2j * np.pi * ((p * k) % n) / n)
        wq = dequantize(quantize_raw(w.real, fmt), fmt) + 1j * dequantize(quantize_raw(w.imag, fmt), fmt)
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
        o0, o1, o2, o3 = out[:, 0], out[:, 1], out[:, 2], out[:, 3]
        # each sum accumulates left to right in place, e.g. o1 = t0 - 1j*t1 - t2 + 1j*t3,
        # so large blocks allocate no temporaries
        np.add(t0, t1, out=o0)
        o0 += t2
        o0 += t3
        np.subtract(t0, j1, out=o1)
        o1 -= t2
        o1 += j3
        np.subtract(t0, t1, out=o2)
        o2 += t2
        o2 -= t3
        np.add(t0, j1, out=o3)
        o3 -= t2
        o3 -= j3
        a = out.reshape((n,) + tail)
        size *= 4
    return a


def to_beamspace(y: np.ndarray, cfg: TwiddleConfig = TwiddleConfig()) -> np.ndarray:
    """Transform antenna-domain vector(s) to beamspace along axis 0.

    Accepts shape (B,) or (B, N). Exact mode matches ``dft_matrix(B) @ y`` to
    machine precision; quantized mode runs the radix-4 FFT with rounded
    twiddles and requires B to be a power of 4. Both scale by 1/sqrt(B).
    """
    y = np.asarray(y)
    B = y.shape[0]
    if cfg.exact:
        return np.fft.fft(y, axis=0) / np.sqrt(B)
    if not _is_power_of_4(B):
        raise ValueError(f"radix-4 transform needs a power-of-4 length, got {B}")
    return _radix4(y, cfg.twiddle_fmt) / np.sqrt(B)
