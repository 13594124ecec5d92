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

# register indices within one complex multiplier: the four real products
# (w_re*y_re, w_im*y_im, w_re*y_im, w_im*y_re)
REGISTERS_PER_CM = 4


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

    One (U, B, 4) boolean mask per accepted vector; a register is disabled in
    a cycle iff power saving is on and both of its operands' comparison bits
    are set.
    """

    def __init__(self, U: int, B: int):
        self.U = U
        self.B = B
        self.cycles: list[int] = []
        self.masks: list[np.ndarray] = []

    def record(self, cycle: int, mask: np.ndarray) -> None:
        self.cycles.append(cycle)
        self.masks.append(mask)

    def mute_count(self) -> int:
        return int(sum(int(m.sum()) for m in self.masks))

    def to_csv(self, path: str) -> None:
        """Summary CSV of mute events: one row per (cycle, CM index, register)."""
        with open(path, "w", encoding="ascii") as f:
            f.write("cycle,cm,register\n")
            for cycle, mask in zip(self.cycles, self.masks):
                us, bs, regs = np.nonzero(mask)
                for u, b, r in zip(us, bs, regs):
                    f.write(f"{cycle},{u * self.B + b},{r}\n")

    def save_bitmap(self, path: str) -> None:
        """Compressed packed-bit dump of the per-cycle masks."""
        packed = np.stack([np.packbits(m.reshape(-1)) for m in self.masks]) if self.masks \
            else np.empty((0, 0), dtype=np.uint8)
        np.savez_compressed(path, cycles=np.asarray(self.cycles, dtype=np.int64),
                            packed=packed, U=self.U, B=self.B)


def _mute_mask(weights: EqualizerWeights, x: BeamVector) -> np.ndarray:
    mask = np.empty((weights.U, weights.B, REGISTERS_PER_CM), dtype=bool)
    mask[:, :, 0] = weights.cw_re & x.cy_re[None, :]
    mask[:, :, 1] = weights.cw_im & x.cy_im[None, :]
    mask[:, :, 2] = weights.cw_re & x.cy_im[None, :]
    mask[:, :, 3] = weights.cw_im & x.cy_re[None, :]
    return mask


def simulate_stream(weights: EqualizerWeights, vectors, cfg: PipelineConfig,
                    save_power: bool, gain: float = 1.0):
    """Stream tagged vectors through the array, one accepted per cycle.

    Returns (outputs, cycles, trace, report): outputs is (N, U) estimates
    bit-identical to the equalizer module, cycles counts the U-cycle weight
    load plus N acceptance cycles plus the drain latency.
    """
    vectors = list(vectors)
    n = len(vectors)
    trace = MuteTrace(weights.U, weights.B)
    outputs = np.empty((n, weights.U), dtype=np.complex128)
    per_vector = np.empty(n, dtype=np.int64)
    for i, x in enumerate(vectors):
        s_hat, executed = equalize_tagged(weights, x, save_power, gain=gain)
        outputs[i] = s_hat
        per_vector[i] = executed
        if save_power:
            trace.record(weights.U + i, _mute_mask(weights, x))
        else:
            trace.record(weights.U + i, np.zeros((weights.U, weights.B, REGISTERS_PER_CM), dtype=bool))
    cycles = weights.U + n + cfg.latency(weights.B)
    report = ActivityReport(
        executed=int(per_vector.sum()),
        total=4 * weights.B * weights.U * n,
        per_vector=per_vector,
    )
    return outputs, cycles, trace, report


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
