"""Fixed-point arithmetic for the equalizer datapath.

All quantities use signed two's-complement Q-formats. Quantization rounds to
nearest with ties to even and saturates at the representable bounds, which is
the usual behavior of a DSP datapath front end. Multiplication is exact: the
product carries the full combined width, so accumulation never rounds.

A quantized value is held as its raw integer in float64, the type the
datapath computes in: every raw of a format up to 32 bits is float-exact.

The module also owns the integer check of every size, count and seed
(:func:`_check_integer`), as the bottom of the import order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: ``total_bits`` wide with ``frac_bits`` fractional.

    Representable values are ``raw * 2**-frac_bits`` for raw in the
    two's-complement range of ``total_bits``.
    """

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.total_bits <= 32:
            raise ValueError(f"total_bits must be in [2, 32], got {self.total_bits}")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError(f"frac_bits must be in [0, total_bits), got {self.frac_bits}")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def min_raw(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.total_bits - 1)) - 1


def _check_integer(name: str, value, bits: int | None = None) -> None:
    """Refuse a bool or any other non-integer, and with ``bits`` a value outside [0, 2**bits).

    NumPy integers pass. A float count would fail deep inside a run and a
    float seed truncate to another seed's stream; ``True`` would run as 1.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or bits is not None and not 0 <= value < 1 << bits):
        raise ValueError(f"{name} {value!r} is not an integer"
                         + ("" if bits is None else f" in [0, 2**{bits})"))


# Defaults used throughout the artifact; every one of these is configurable.
WEIGHT_FMT = QFormat(10, 9)   # equalizer weights, range just inside [-1, 1)
INPUT_FMT = QFormat(12, 9)    # receive-vector components after input scaling
TWIDDLE_FMT = QFormat(6, 4)   # low-resolution FFT twiddle factors


def quantize_raw(x, fmt: QFormat) -> np.ndarray:
    """Quantize reals to integer-valued float64 raws (nearest-even, saturating, zero +0.0)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite sample")
    raw = np.round(x * fmt.scale)
    # Clip in the float domain: the raw bounds (<= 2**31) are float-exact.
    return np.clip(raw, fmt.min_raw, fmt.max_raw) + 0.0  # -0.0 -> +0.0


def quantize_complex(z, fmt: QFormat | None) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) raws of a complex array; without a format (quantization off), copies."""
    z = np.asarray(z, dtype=np.complex128)
    if fmt is None:
        return z.real.copy(), z.imag.copy()
    return quantize_raw(z.real, fmt), quantize_raw(z.imag, fmt)


def dequantize(raw, fmt: QFormat) -> np.ndarray:
    """Raw integers back to floats. Exact for any format up to 52 bits."""
    return np.asarray(raw, dtype=np.float64) / fmt.scale

