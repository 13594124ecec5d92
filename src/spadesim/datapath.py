"""Cycle-level model of the equalizer array: weight load, streaming, muting.

The array accepts one input vector per clock cycle after a U-cycle weight
loading phase; results drain through the pipeline latency. Arithmetic is the
equalizer module's, bit for bit - this layer only adds timing and a trace of
which multiplier input registers were muted on which cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import QAM_ORDERS
from .equalizer import ActivityReport, BeamVector, EqualizerWeights, equalize_tagged


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline depth of the multiplier array and its adder tree."""

    input_reg_stages: int = 1
    tree_stages: int | None = None  # None: one register per two adder layers
    clock_hz: float = 720e6

    def latency(self, B: int) -> int:
        tree = self.tree_stages
        if tree is None:
            tree = math.ceil(math.log2(B) / 2) if B > 1 else 0
        lat = self.input_reg_stages + tree
        if lat < 1:
            raise ValueError("pipeline latency must be at least 1 cycle")
        return lat


class MuteTrace:
    """Per-cycle record of disabled multiplier input registers.

    A register is disabled in a cycle iff power saving is on and both of its
    operands' comparison bits are set. The trace keeps the weights' (U, B)
    comparison bits once (cleared without power saving) and the (B, N) input
    bits of the accepted vectors, and derives each cycle's (U, B, 4) mask
    when asked.
    """

    def __init__(self, cw_re: np.ndarray, cw_im: np.ndarray, cy_re: np.ndarray,
                 cy_im: np.ndarray, first_cycle: int):
        self.U, self.B = cw_re.shape
        self.cw_re, self.cw_im = cw_re, cw_im
        self.cy_re, self.cy_im = cy_re, cy_im
        self.cycles = first_cycle + np.arange(cy_re.shape[1], dtype=np.int64)

    def _mask(self, i: int) -> np.ndarray:
        # register indices within one complex multiplier: the four real
        # products (w_re*y_re, w_im*y_im, w_re*y_im, w_im*y_re)
        yre, yim = self.cy_re[:, i], self.cy_im[:, i]
        return np.stack([self.cw_re & yre, self.cw_im & yim,
                         self.cw_re & yim, self.cw_im & yre], axis=-1)

    def mute_count(self) -> int:
        # every register pairs one weight bit with one input bit, so the count
        # is the dot of the per-column counts of set bits
        w = self.cw_re.sum(axis=0) + self.cw_im.sum(axis=0)
        y = self.cy_re.sum(axis=1) + self.cy_im.sum(axis=1)
        return int(w @ y)

    def to_csv(self, path: str) -> None:
        """Summary CSV of mute events: one row per (cycle, CM index, register)."""
        with open(path, "w", encoding="ascii") as f:
            f.write("cycle,cm,register\n")
            for i, cycle in enumerate(self.cycles):
                us, bs, regs = np.nonzero(self._mask(i))
                for u, b, r in zip(us, bs, regs):
                    f.write(f"{cycle},{u * self.B + b},{r}\n")

    def save_bitmap(self, path: str) -> None:
        """Compressed packed-bit dump of the per-cycle masks."""
        n = self.cycles.size
        packed = np.stack([np.packbits(self._mask(i).reshape(-1)) for i in range(n)]) if n \
            else np.empty((0, 0), dtype=np.uint8)
        np.savez_compressed(path, cycles=self.cycles, packed=packed, U=self.U, B=self.B)


def simulate_stream(weights: EqualizerWeights, vectors, cfg: PipelineConfig,
                    save_power: bool, gain: float = 1.0):
    """Stream tagged vectors through the array, one accepted per cycle.

    The vectors run as one (B, N) block through the equalizer, so they must
    share one length and input format. Returns (outputs, cycles, trace,
    report): outputs is (N, U) estimates bit-identical to the equalizer
    module, cycles counts the U-cycle weight load plus N acceptance cycles
    plus the drain latency.
    """
    vectors = list(vectors)
    U, B, n = weights.U, weights.B, len(vectors)
    if len({(x.re.shape, x.fmt) for x in vectors}) > 1:
        raise ValueError("stream vectors must share one length and input format")
    if vectors:
        def stacked(name):
            return np.stack([getattr(x, name) for x in vectors], axis=1)

        block = BeamVector(re=stacked("re"), im=stacked("im"), fmt=vectors[0].fmt,
                           cy_re=stacked("cy_re"), cy_im=stacked("cy_im"), tau_y=vectors[0].tau_y)
        S, per_vector = equalize_tagged(weights, block, save_power, gain=gain)
        cy_re, cy_im = block.cy_re, block.cy_im
    else:
        S, per_vector = np.empty((U, 0), dtype=np.complex128), np.empty(0, dtype=np.int64)
        cy_re = cy_im = np.empty((B, 0), dtype=bool)
    cw_re, cw_im = (weights.cw_re, weights.cw_im) if save_power \
        else (np.zeros((U, B), dtype=bool),) * 2
    trace = MuteTrace(cw_re, cw_im, cy_re, cy_im, first_cycle=U)
    cycles = U + n + cfg.latency(B)
    report = ActivityReport(
        executed=int(per_vector.sum()),
        total=4 * B * U * n,
        per_vector=per_vector,
    )
    return np.ascontiguousarray(S.T), cycles, trace, report


def throughput_bps(clock_hz: float, U: int, M: int) -> float:
    """Steady-state equalization throughput: U log2(M) bits per clock."""
    if M not in QAM_ORDERS:
        raise ValueError(f"M must be one of {QAM_ORDERS}, got {M}")
    return U * math.log2(M) * clock_hz


def effective_throughput(clock_hz: float, U: int, M: int, coherence_vectors: int,
                         latency_cycles: int = 4) -> float:
    """Throughput once the U-cycle weight reload per coherence block is amortized."""
    if coherence_vectors < 1:
        raise ValueError("coherence_vectors must be >= 1")
    peak = throughput_bps(clock_hz, U, M)
    return peak * coherence_vectors / (coherence_vectors + U + latency_cycles)


@dataclass(frozen=True)
class PowerCoeffs:
    """Linear power-proxy coefficients; dimensionless unless user-calibrated."""

    fixed: float = 0.3
    per_activity: float = 0.7
    fft_on: float = 0.0

    def __post_init__(self) -> None:
        if self.fixed < 0 or self.per_activity < 0 or self.fft_on < 0:
            raise ValueError("power coefficients must be nonnegative")


def power_proxy(report: ActivityReport, coeffs: PowerCoeffs, fft_active: bool) -> float:
    """Relative power estimate from the multiplier activity rate."""
    p = coeffs.fixed + coeffs.per_activity * report.activity_rate
    if fft_active:
        p += coeffs.fft_on
    return p
