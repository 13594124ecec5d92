"""Fixed-point arithmetic for the equalizer datapath.

All quantities use signed two's-complement Q-formats. Quantization rounds to
nearest with ties to even and saturates at the representable bounds, which is
the usual behavior of a DSP datapath front end. Multiplication is exact: the
product carries the full combined width, so accumulation never rounds.

A quantized value is held as its raw integer in float64, the type the
datapath computes in: every raw of a format up to 32 bits is float-exact.

The module also owns the check of every integer size, count, seed and
width and of its range (:func:`_check_integer`), of every real-valued
setting (:func:`_check_real`) and of every flag (:func:`_check_flag`), as
the bottom of the import order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_REALS = (int, float, np.integer, np.floating)  # the types _check_real takes


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: ``total_bits`` wide with ``frac_bits`` fractional.

    Representable values are ``raw * 2**-frac_bits`` for raw in the
    two's-complement range of ``total_bits``. Both widths are stored as
    ``int``, ``total_bits`` in [2, 32] and ``frac_bits`` below it.
    """

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_bits", _check_integer("total_bits", self.total_bits, 2, 32))
        object.__setattr__(self, "frac_bits",
                           _check_integer("frac_bits", self.frac_bits, 0, self.total_bits - 1))

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def min_raw(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.total_bits - 1)) - 1


def _check_integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an ``int``; a bool, any other non-integer or one outside [lo, hi] raises.

    NumPy integers pass. A float count would fail deep inside a run and a
    float seed truncate to another seed's stream; ``True`` would run as 1.
    The message names the setting, its value and the accepted range.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or lo is not None and value < lo or hi is not None and value > hi):
        accepted = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ValueError(f"{name} {value!r} is not an integer{accepted}")
    return int(value)


def _check_real(name: str, value, lo: float | None = None, strict: bool = False) -> float:
    """``value`` as a finite ``float`` at least ``lo`` (above it if ``strict``), else ``ValueError``.

    Python and NumPy ints and floats pass; a bool, any other type and an int
    beyond the float range are refused. The message is :func:`_check_integer`'s.
    """
    try:
        x = float(value) if isinstance(value, _REALS) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    if not (math.isfinite(x) and (lo is None or (x > lo if strict else x >= lo))):
        accepted = "" if lo is None else f" {'>' if strict else '>='} {lo}"
        raise ValueError(f"{name} {value!r} is not a finite number{accepted}")
    return x


def _check_flag(name: str, value) -> bool:
    """``value`` as a ``bool`` (``np.bool_`` passes); a truthy ``"false"`` or 1 raises ``ValueError``."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} {value!r} is not a bool")
    return bool(value)


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

