"""Cycle-level model of the equalizer array: weight load, streaming, muting.

The array accepts one input vector per clock cycle after a U-cycle weight
loading phase; results drain through the pipeline latency. Arithmetic is the
equalizer module's, bit for bit - this layer only adds timing, and reads the
multiplier input registers muted over the stream off its activity report.
A quantized stream is scored one column tile of the equalizer's width at a
time, so besides its (N, U) outputs it holds only one tile's gathered inputs
and temporaries, however long it is; a float stream is one block, as the
equalizer scores float raws. A tile's rows are one join of its vectors' raw
buffers: every (B,) :class:`BeamVector` stores contiguous native float64
raws, and the equalizer owns the layout it scores in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _bits_per_symbol
from .equalizer import (
    ActivityReport,
    BeamVector,
    EqualizerWeights,
    _check_array,
    _column_tiles,
    equalize_tagged,
)
from .numerics import _check_flag, _check_integer, _check_real


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline depth of the multiplier array and its adder tree; refuses what RunConfig refuses."""

    def latency(self, B: int) -> int:
        """Drain cycles: one input register stage, then one register per two adder layers."""
        _check_array(B, 1)
        return 1 + math.ceil(math.log2(B) / 2)

    def cycles(self, U: int, N: int, B: int) -> int:
        """Cycles of one coherence block: U weight loads, N accepted vectors, then the drain."""
        _check_array(B, U)
        _check_integer("N", N, 0)
        return U + N + self.latency(B)


def simulate_stream(weights: EqualizerWeights, vectors, cfg: PipelineConfig,
                    save_power: bool, gain: float = 1.0):
    """Stream tagged vectors through the array, one accepted per cycle.

    Each vector must be one 1-D vector, not a block, and all must share one
    length, input format and threshold; the gain and ``save_power``, an
    empty stream's too, and the whole stream are checked before any is
    scored. The vectors are then scored as (B, T) blocks of the equalizer's
    column-tile width T (float raws as one block, as the equalizer scores
    them), each written into its rows of the outputs, so only one tile of
    the stream is ever gathered. A tile's (T, B) rows of each part are one join of its
    vectors' raw buffers (B their own length, so the equalizer reports a
    mismatch with the weights). Returns (outputs, cycles, report, report):
    outputs is (N, U) estimates bit-identical to the equalizer module,
    cycles is ``cfg.cycles(U, N, B)``, and the report, in the mute trace's
    slot too, counts the muted registers (:meth:`ActivityReport.mute_count`).
    """
    gain = _check_real("gain", gain, 0, strict=True)
    save_power = _check_flag("save_power", save_power)
    vectors = list(vectors)
    U, B, n = weights.U, weights.B, len(vectors)
    outputs = np.empty((n, U), dtype=np.complex128)
    per_vector = np.empty(n, dtype=np.int64)
    if vectors:
        fmt, tau_y, shape = vectors[0].fmt, vectors[0].tau_y, vectors[0].re.shape
        mixed = "stream vectors must be 1-D and share one length and input format and one tau_y"
        if len(shape) != 1:
            raise ValueError(mixed)
        for x in vectors:
            if x.re.shape != shape or x.tau_y != tau_y or (x.fmt is not fmt and x.fmt != fmt):
                raise ValueError(mixed)
        for rows in _column_tiles(n, fmt is not None):
            tile = vectors[rows]  # each part's (T, B) rows, viewed as its (B, T) block
            re, im = (np.frombuffer(b"".join(raws), np.float64).reshape(len(tile), -1).T
                      for raws in ([x.re for x in tile], [x.im for x in tile]))
            block = BeamVector(re=re, im=im, fmt=fmt, tau_y=tau_y)
            S, per_vector[rows] = equalize_tagged(weights, block, save_power, gain=gain)
            outputs[rows] = S.T
    report = ActivityReport(per_vector, 4 * B * U)
    return outputs, cfg.cycles(U, n, B), report, report


def throughput_bps(clock_hz: float, U: int, M: int) -> float:
    """Steady-state equalization throughput: U log2(M) bits per clock."""
    bits = _bits_per_symbol(M)
    _check_integer("U", U, 1)
    return U * bits * _check_real("clock_hz", clock_hz, 0, strict=True)


def effective_throughput(clock_hz: float, U: int, M: int, coherence_vectors: int,
                         B: int) -> float:
    """Throughput once the weight reload and the B-input drain per coherence block are amortized."""
    _check_array(B, U)
    _check_integer("coherence_vectors", coherence_vectors, 1)
    peak = throughput_bps(clock_hz, U, M)
    return peak * coherence_vectors / PipelineConfig().cycles(U, coherence_vectors, B)


@dataclass(frozen=True)
class PowerCoeffs:
    """Linear power-proxy coefficients; dimensionless unless user-calibrated."""

    fixed: float = 0.3
    per_activity: float = 0.7
    fft_on: float = 0.0

    def __post_init__(self) -> None:
        # a NaN or infinite coefficient would make every power proxy NaN or infinite
        for name in ("fixed", "per_activity", "fft_on"):
            object.__setattr__(self, name,
                               _check_real(f"power coefficient {name}", getattr(self, name), 0))


def power_proxy(report: ActivityReport, coeffs: PowerCoeffs, fft_active: bool) -> float:
    """Relative power estimate from the multiplier activity rate."""
    p = coeffs.fixed + coeffs.per_activity * report.activity_rate
    if _check_flag("fft_active", fft_active):
        p += coeffs.fft_on
    return p
