"""LMMSE preprocessing, row scaling, and the skip-capable matrix-vector multiply.

Preprocessing (the LMMSE matrix) runs in floating point, standing in for an
external preprocessing engine. The equalization datapath itself is modeled
bit-accurately: weights and inputs are quantized, each complex multiply
decomposes into four real products, and in power-saving mode a real product is
skipped (contributing exactly zero) whenever the comparison bits of both of
its operands are set. Accumulation is exact, with no intermediate rounding.

Internally the integer raws are carried through float64 matrix products; every
intermediate is an integer below 2**52, so the results are bit-exact and
independent of summation order. A width guard enforces that precondition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .beamspace import TwiddleConfig, to_beamspace
from .channel import MODES, ChannelMatrix, qam_demodulate
from .numerics import INPUT_FMT, QFormat, quantize_raw

DOMAINS = ("antenna", "beamspace")


@dataclass(frozen=True)
class EqualizerWeights:
    """Quantized, row-scaled equalization matrix with threshold comparison bits.

    ``re``/``im`` hold integer raws in ``fmt`` (or plain floats when ``fmt`` is
    None, the quantization-disabled mode). ``alpha`` holds the per-row scale
    factors applied before quantization; estimates are descaled by it.
    """

    re: np.ndarray
    im: np.ndarray
    fmt: QFormat | None
    alpha: np.ndarray
    cw_re: np.ndarray
    cw_im: np.ndarray
    tau_w: float
    domain: str

    @property
    def U(self) -> int:
        return self.re.shape[-2]

    @property
    def B(self) -> int:
        return self.re.shape[-1]

    def __getitem__(self, i) -> "EqualizerWeights":
        """Matrix ``i`` of a stack built by :func:`build_weights`."""
        return replace(self, re=self.re[i], im=self.im[i], alpha=self.alpha[i],
                       cw_re=self.cw_re[i], cw_im=self.cw_im[i])

    def as_complex(self) -> np.ndarray:
        if self.fmt is None:
            return self.re + 1j * self.im
        return (self.re + 1j * self.im) / self.fmt.scale

    def retag(self, tau_w: float) -> "EqualizerWeights":
        """The same raws with comparison bits against another threshold."""
        return replace(self, cw_re=_comparison_bits(self.re, tau_w, self.fmt),
                       cw_im=_comparison_bits(self.im, tau_w, self.fmt), tau_w=tau_w)


@dataclass(frozen=True)
class BeamVector:
    """A quantized (B,) input vector or (B, N) block with its threshold comparison bits."""

    re: np.ndarray
    im: np.ndarray
    fmt: QFormat | None
    cy_re: np.ndarray
    cy_im: np.ndarray
    tau_y: float

    @property
    def B(self) -> int:
        return self.re.shape[0]

    def as_complex(self) -> np.ndarray:
        if self.fmt is None:
            return self.re + 1j * self.im
        return (self.re + 1j * self.im) / self.fmt.scale


@dataclass
class ActivityReport:
    """Executed-multiplication accounting for one or more matrix-vector products."""

    executed: int
    total: int
    per_vector: np.ndarray

    @property
    def activity_rate(self) -> float:
        return self.executed / self.total if self.total else 1.0

    def merge(self, other: "ActivityReport") -> "ActivityReport":
        return ActivityReport(
            executed=self.executed + other.executed,
            total=self.total + other.total,
            per_vector=np.concatenate([self.per_vector, other.per_vector]),
        )


@dataclass(frozen=True)
class FrontEnd:
    """Input-side configuration shared by all equalization calls of a run."""

    input_fmt: QFormat | None = field(default=INPUT_FMT)
    tau_y: float = 0.0
    twiddle: TwiddleConfig = field(default_factory=TwiddleConfig)
    gain: float = 1.0


def compute_lmmse(H, N0: float, Es: float) -> np.ndarray:
    """LMMSE equalization matrix (H^H H + (N0/Es) I)^-1 H^H in floating point."""
    Hm = H.entries if isinstance(H, ChannelMatrix) else np.asarray(H)
    if Es <= 0:
        raise ValueError("Es must be positive")
    U = Hm.shape[1]
    G = Hm.conj().T @ Hm + (N0 / Es) * np.eye(U)
    if N0 == 0.0 and np.linalg.cond(G) > 1e14:
        raise ValueError("regularize or raise N0")
    try:
        return np.linalg.solve(G, Hm.conj().T)
    except np.linalg.LinAlgError as exc:
        raise ValueError("regularize or raise N0") from exc


def scale_rows(V: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to componentwise magnitude just below one.

    Returns (W, alpha) with W = diag(alpha) V and
    alpha_u = 1 / (max-abs-component of row u + epsilon); a stack of matrices
    is scaled matrix by matrix.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    V = np.asarray(V, dtype=np.complex128)
    mags = np.maximum(np.abs(V.real).max(axis=-1), np.abs(V.imag).max(axis=-1))
    alpha = 1.0 / (mags + epsilon)
    return alpha[..., None] * V, alpha


def _threshold_raw(tau: float, fmt: QFormat | None) -> int | float:
    """Threshold snapped to the format's fractional grid (nearest-even).

    Deliberately not clamped to the storage range: the comparator's threshold
    register is one bit wider, so tau = 1.0 can sit above every stored value.
    Without a format (quantization disabled) the threshold is tau itself.
    """
    if not (np.isfinite(tau) and tau >= 0):
        raise ValueError("threshold must be finite and nonnegative")
    return tau if fmt is None else round(tau * fmt.scale)


def _comparison_bits(raw: np.ndarray, tau: float, fmt: QFormat | None) -> np.ndarray:
    """Comparison bits of quantized values: magnitude strictly below the threshold."""
    return np.abs(raw) < _threshold_raw(tau, fmt)


def build_weights(W_real: np.ndarray, alpha: np.ndarray, tau_w: float,
                  fmt: QFormat | None, domain: str) -> EqualizerWeights:
    """Quantize a row-scaled matrix and precompute its weight comparison bits.

    A (..., U, B) stack of matrices, with (..., U) scale factors, gives one
    stacked set of weights; index it to get each matrix's.
    """
    W_real = np.asarray(W_real, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=np.float64)
    if domain not in DOMAINS:
        raise ValueError(f"domain must be one of {DOMAINS}")
    if np.any(alpha <= 0):
        raise ValueError("alpha entries must be positive")
    mags = np.maximum(np.abs(W_real.real).max(axis=-1), np.abs(W_real.imag).max(axis=-1))
    if np.any(mags >= 1.0):
        raise ValueError("scale before loading")
    if fmt is not None:
        # the row-scaling guarantee only survives quantization when the format
        # spans exactly [-1, 1): saturation then pins rows strictly below one
        if fmt.frac_bits != fmt.total_bits - 1:
            raise ValueError("weight format must span [-1, 1): use frac_bits = total_bits - 1")
        re = quantize_raw(W_real.real, fmt)
        im = quantize_raw(W_real.imag, fmt)
    else:
        re = W_real.real.copy()
        im = W_real.imag.copy()
    return EqualizerWeights(re=re, im=im, fmt=fmt, alpha=alpha,
                            cw_re=_comparison_bits(re, tau_w, fmt),
                            cw_im=_comparison_bits(im, tau_w, fmt), tau_w=tau_w, domain=domain)


def tag_input(y_raw: np.ndarray, tau_y: float, fmt: QFormat | None) -> BeamVector:
    """Quantize a (B,) input vector or (B, N) block and compute its comparison bits.

    The integer raws are held as float64, the type the MVM computes in.
    """
    y_raw = np.asarray(y_raw, dtype=np.complex128)
    if fmt is not None:
        re = quantize_raw(y_raw.real, fmt).astype(np.float64)
        im = quantize_raw(y_raw.imag, fmt).astype(np.float64)
    else:
        re = y_raw.real.copy()
        im = y_raw.imag.copy()
    return BeamVector(re=re, im=im, fmt=fmt, cy_re=_comparison_bits(re, tau_y, fmt),
                      cy_im=_comparison_bits(im, tau_y, fmt), tau_y=tau_y)


def _check_accumulator(wfmt: QFormat, yfmt: QFormat, B: int) -> None:
    # products are < 2**(wt+yt-2); B-term sums must stay float64-exact
    bits = wfmt.total_bits + yfmt.total_bits - 2 + max(B - 1, 1).bit_length()
    if bits > 52:
        raise ValueError("formats too wide for exact accumulation")


def _masked_mvm(wre, wim, cwR, cwI, yre, yim, cyR, cyI, save_power: bool, B: int):
    """Core accumulate: four real products per entry, skipped ones contribute zero.

    Skip masks are separable (weight bit AND input bit), so the skipped part of
    each sum is itself a matrix product of masked factors. All inputs are
    float64; with integer-valued raws every intermediate is exact.
    """
    full_re = wre @ yre - wim @ yim
    full_im = wre @ yim + wim @ yre
    if not save_power:
        executed = np.full(full_re.shape, 4 * B, dtype=np.int64)
        return full_re, full_im, executed
    mwR = cwR.astype(np.float64)
    mwI = cwI.astype(np.float64)
    myR = cyR.astype(np.float64)
    myI = cyI.astype(np.float64)
    wreR = wre * mwR
    wimI = wim * mwI
    yreR = yre * myR
    yimI = yim * myI
    acc_re = full_re - wreR @ yreR + wimI @ yimI
    acc_im = full_im - wreR @ yimI - wimI @ yreR
    # 0/1 masks in float64: the four skip counts sum exactly in one product;
    # summed in place, since the input-side masks are as large as the block
    mwR += mwI
    myR += myI
    skipped = mwR @ myR
    executed = (4 * B - skipped).astype(np.int64)
    return acc_re, acc_im, executed


def equalize_tagged(weights: EqualizerWeights, x: BeamVector, save_power: bool,
                    gain: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Masked matrix-vector product of a tagged (B,) vector or (B, N) block, descaled.

    The one entry into the datapath's arithmetic. Returns the (U,) or (U, N)
    estimates and the executed real multiplications per vector (4BU minus the
    skipped ones), shaped () or (N,) to match.
    """
    if x.B != weights.B:
        raise ValueError("length mismatch")
    if (weights.fmt is None) != (x.fmt is None):
        raise ValueError("weights and input must agree on quantization")
    if weights.fmt is not None:
        _check_accumulator(weights.fmt, x.fmt, weights.B)
    cols = x.re.shape[1:]
    acc_re, acc_im, executed = _masked_mvm(
        np.asarray(weights.re, dtype=np.float64), np.asarray(weights.im, dtype=np.float64),
        weights.cw_re, weights.cw_im,
        np.asarray(x.re, dtype=np.float64).reshape(x.B, -1),
        np.asarray(x.im, dtype=np.float64).reshape(x.B, -1),
        x.cy_re.reshape(x.B, -1), x.cy_im.reshape(x.B, -1),
        save_power, weights.B,
    )
    vs = 1.0 if weights.fmt is None else 1.0 / (weights.fmt.scale * x.fmt.scale)
    S = (acc_re + 1j * acc_im) * vs / (weights.alpha[:, None] * gain)
    return S.reshape((weights.U, *cols)), executed.sum(axis=0).reshape(cols)


def equalize_block(mode: str, weights_ant: EqualizerWeights | None,
                   weights_beam: EqualizerWeights | None, y_bar: np.ndarray,
                   frontend: FrontEnd = FrontEnd()) -> tuple[np.ndarray, ActivityReport]:
    """Equalize a block of antenna-domain receive vectors in the selected mode.

    lmmse-a uses the antenna-domain weights on the input directly (transform
    bypassed); lmmse-b transforms to beamspace; lmmse-spade additionally
    activates multiplication skipping. ``y_bar`` is (B,) or (B, N).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "lmmse-a":
        w = weights_ant
        wanted = "antenna"
    else:
        w = weights_beam
        wanted = "beamspace"
    if w is None or w.domain != wanted:
        raise ValueError(f"mode/domain mismatch: {mode} needs {wanted} weights")
    if (frontend.input_fmt is not None) != (w.fmt is not None):
        raise ValueError("weights and input must agree on quantization")

    Y = np.asarray(y_bar, dtype=np.complex128)
    if Y.shape[0] != w.B:
        raise ValueError("length mismatch")
    S, executed = equalize_tagged(w, front_end(mode, Y, frontend),
                                  save_power=(mode == "lmmse-spade"), gain=frontend.gain)
    per_vector = executed.reshape(-1)
    report = ActivityReport(
        executed=int(per_vector.sum()),
        total=4 * w.B * w.U * per_vector.size,
        per_vector=per_vector,
    )
    return S, report


def front_end(mode: str, Y: np.ndarray, frontend: FrontEnd) -> BeamVector:
    """Tagged input of a (B,) vector or (B, N) block of antenna-domain receive vectors.

    Scales by the front-end gain, transforms to beamspace unless the mode
    bypasses the transform, then quantizes to the input format and tags
    against ``frontend.tau_y``.
    """
    Z = frontend.gain * Y
    if mode != "lmmse-a":
        Z = to_beamspace(Z, frontend.twiddle)
    return tag_input(Z, frontend.tau_y, frontend.input_fmt)


def slice_symbols(s_hat: np.ndarray, M: int, Es: float) -> np.ndarray:
    """Hard-decide symbol estimates back to the bit string they encode."""
    s_hat = np.asarray(s_hat)
    if s_hat.ndim != 1:
        raise ValueError("slice_symbols expects a 1-D vector of estimates")
    return qam_demodulate(s_hat, M, Es).reshape(-1)


# ---------------------------------------------------------------------------
# Debug dumps (hex raws plus comparison bits) for cross-implementation diffing
# ---------------------------------------------------------------------------

def _hex(raw: int, fmt: QFormat) -> str:
    width = (fmt.total_bits + 3) // 4
    return format(int(raw) & ((1 << fmt.total_bits) - 1), f"0{width}x")


def dump_weights(w: EqualizerWeights) -> str:
    if w.fmt is None:
        raise ValueError("debug dump requires fixed-point weights")
    lines = [f"# weights domain={w.domain} fmt={w.fmt} tau_w={w.tau_w!r}", "u b re im cw_re cw_im"]
    for u in range(w.U):
        for b in range(w.B):
            lines.append(
                f"{u} {b} {_hex(w.re[u, b], w.fmt)} {_hex(w.im[u, b], w.fmt)} "
                f"{int(w.cw_re[u, b])} {int(w.cw_im[u, b])}"
            )
    return "\n".join(lines) + "\n"


def dump_beam_vector(v: BeamVector) -> str:
    if v.fmt is None:
        raise ValueError("debug dump requires a fixed-point vector")
    lines = [f"# input fmt={v.fmt} tau_y={v.tau_y!r}", "b re im cy_re cy_im"]
    for b in range(v.B):
        lines.append(
            f"{b} {_hex(v.re[b], v.fmt)} {_hex(v.im[b], v.fmt)} "
            f"{int(v.cy_re[b])} {int(v.cy_im[b])}"
        )
    return "\n".join(lines) + "\n"
