"""LMMSE preprocessing, row scaling, and the skip-capable matrix-vector multiply.

A mode means one row of ``_MODE_RULES``: its domain and whether it skips,
read by :func:`_mode_rule`. :func:`_check_array` refuses an array shape the
model does not cover. Every other module asks these two.

Preprocessing (the LMMSE matrix) runs in floating point, standing in for an
external preprocessing engine. The equalization datapath itself is modeled
bit-accurately: weights and inputs are quantized, each complex multiply
decomposes into four real products, and in power-saving mode a real product is
skipped (contributing exactly zero) whenever the comparison bits of both of
its operands are set; each bit is derived from its raw, threshold and format
where it is read. Accumulation is exact, with no intermediate rounding. The
masked product is written once, in :func:`equalize_pairs`; every other entry
(:func:`equalize_tagged`, :func:`equalize_block`) reaches it there.

Weights and inputs hold their integer raws as float64 (see
:func:`numerics.quantize_raw`), the type of the matrix products; every
intermediate is an integer below 2**52, so the results are bit-exact and
independent of summation order. A width guard enforces that precondition.
The same exactness lets :func:`equalize_pairs` score a long quantized block
in column tiles of ``beamspace._TILE_COLUMNS`` (the radix-4's tile width
too), each pass over a tile staying in cache and writing its columns of the
outputs in place, with the bytes of one pass over the whole block, and
multiply a (k, 2, U, B) stack of quantized weights as one 2-D (k*2U, B)
GEMM. Unquantized raws are scored C-ordered as one tile, each (U, B) matrix
its own call: OpenBLAS rounds a float product's columns differently with the
width of the call, its rows with the row count and both with the operand's
memory order. So the masked product alone owns operand layout: its bytes
never depend on the memory order a caller passes.
Estimates are descaled by multiplying each part by ``vs / (alpha * gain)``
(``vs`` the power of two that turns raw products into values), which has the
bytes of dividing the complex accumulator by the real ``alpha * gain``: NumPy
computes that division as a multiply by the reciprocal.

The input front end (gain, transform, input quantization) takes its
beamspace raws from :func:`beamspace.beamspace_raws`, which owns transforming
and then quantizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .beamspace import _TILE_COLUMNS, TwiddleConfig, _is_power_of_4, beamspace_raws
from .channel import DOMAINS, ChannelMatrix
from .numerics import (INPUT_FMT, QFormat, _check_flag, _check_integer, _check_real,
                       quantize_complex)

_MODE_RULES = {"lmmse-a": ("antenna", False), "lmmse-b": ("beamspace", False),
               "lmmse-spade": ("beamspace", True)}
MODES = tuple(_MODE_RULES)


def _mode_rule(mode: str) -> tuple[str, bool]:
    """The mode's (domain, skips) in ``_MODE_RULES``; an unknown mode raises ``ValueError``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return _MODE_RULES[mode]


def _check_array(B: int, U: int) -> None:
    """Refuse an array the model does not cover.

    That is B not an integer power of 4, or U not an integer in [1, B].
    RunConfig and PipelineConfig both refuse through here, with one message.
    """
    _check_integer("B", B)
    if not _is_power_of_4(B):
        raise ValueError(f"B must be a power of 4, got {B}")
    _check_integer("U", U, 1, B)


def _store_float_raws(operand, name: str, ndim: int) -> None:
    """Store an operand's ``re`` and ``im`` as native float64 arrays of one shape.

    Each raw is stored as ``np.asarray(raw, dtype=np.float64)``, C-ordered if
    1-D: a native float64 array is kept as the same object, except that a
    strided 1-D raw is copied, since a stream joins its vectors' buffers. A
    wider raw keeps its layout: the masked product owns that. Complex raws
    are refused, since converting them would drop their imaginary parts, and
    so are raws with fewer than ``ndim`` axes.
    """
    re, im = np.asarray(operand.re), np.asarray(operand.im)
    if re.dtype.kind == "c" or im.dtype.kind == "c":
        raise ValueError(f"{name} re and im must be real raws, not complex")
    if re.shape != im.shape:
        raise ValueError(f"{name} re and im must share one shape")
    if re.ndim < ndim:
        raise ValueError(f"{name} raws must have {ndim} or more axes, got shape {re.shape}")
    order = "C" if re.ndim == 1 else "K"
    object.__setattr__(operand, "re", np.asarray(re, dtype=np.float64, order=order))
    object.__setattr__(operand, "im", np.asarray(im, dtype=np.float64, order=order))


@dataclass(frozen=True)
class EqualizerWeights:
    """Quantized, row-scaled equalization matrix and its comparison threshold.

    ``re``/``im`` hold (U, B) or stacked native float64 raws in ``fmt`` (plain
    floats when ``fmt`` is None, the quantization-disabled mode). ``alpha``
    holds the per-row scale factors applied before quantization; estimates are
    descaled by it. Its comparison bits are computed where read, by
    :func:`_comparison_bits`. The constructor owns every invariant, so
    :func:`build_weights`, ``replace`` and indexing refuse what it refuses:

    - ``domain`` is one of ``DOMAINS``, and ``tau_w`` passes :func:`_threshold_raw`;
    - real raws and ``alpha`` of another type are converted, complex ones refused;
    - ``alpha`` has shape ``re.shape[:-1]`` and positive, finite entries.
    """

    re: np.ndarray
    im: np.ndarray
    fmt: QFormat | None
    alpha: np.ndarray
    tau_w: float
    domain: str

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}")
        _threshold_raw(self.tau_w, self.fmt)
        _store_float_raws(self, "weights", 2)
        if np.asarray(self.alpha).dtype.kind == "c":
            raise ValueError("alpha must be real, not complex")
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=np.float64))
        if self.alpha.shape != self.re.shape[:-1]:
            raise ValueError("alpha must hold one scale factor per weight row")
        # fmin skips NaN, as np.any(alpha <= 0) does; max keeps it
        if self.alpha.size and np.fmin.reduce(self.alpha, axis=None) <= 0:
            raise ValueError("alpha entries must be positive")
        if self.alpha.size and not self.alpha.max() < math.inf:
            raise ValueError("alpha entries must be finite")

    @property
    def U(self) -> int:
        return self.re.shape[-2]

    @property
    def B(self) -> int:
        return self.re.shape[-1]

    def __getitem__(self, i) -> "EqualizerWeights":
        """Matrix ``i`` of a stack built by :func:`build_weights`."""
        return replace(self, re=self.re[i], im=self.im[i], alpha=self.alpha[i])


@dataclass(frozen=True)
class BeamVector:
    """A quantized (B,) input vector or (B, ...) block of them; its bits follow from ``tau_y``.

    ``re``/``im`` hold native float64 raws, as :class:`EqualizerWeights` does.
    """

    re: np.ndarray
    im: np.ndarray
    fmt: QFormat | None
    tau_y: float

    def __post_init__(self) -> None:
        _threshold_raw(self.tau_y, self.fmt)
        _store_float_raws(self, "input", 1)

    @property
    def B(self) -> int:
        return self.re.shape[0]


@dataclass
class ActivityReport:
    """Executed real multiplications per vector, out of ``products`` (4BU) each."""

    per_vector: np.ndarray
    products: int

    @property
    def executed(self) -> int:
        return int(self.per_vector.sum())

    @property
    def total(self) -> int:
        return self.products * self.per_vector.size

    @property
    def activity_rate(self) -> float:
        return self.executed / self.total if self.total else 1.0

    def mute_count(self) -> int:
        """Multiplier input registers muted: one per skipped real product."""
        return self.total - self.executed


@dataclass(frozen=True)
class FrontEnd:
    """Input-side configuration shared by all equalization calls of a run; checks its gain."""

    input_fmt: QFormat | None = field(default=INPUT_FMT)
    tau_y: float = 0.0
    twiddle: TwiddleConfig = field(default_factory=TwiddleConfig)
    gain: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain", _check_real("gain", self.gain, 0, strict=True))


def compute_lmmse(H, N0: float, Es: float) -> np.ndarray:
    """LMMSE equalization matrix (H^H H + (N0/Es) I)^-1 H^H in floating point."""
    Hm = H.entries if isinstance(H, ChannelMatrix) else np.asarray(H)
    return lmmse_stack(Hm[None], [N0], Es)[0, 0]


def lmmse_stack(H: np.ndarray, n0s, Es: float) -> np.ndarray:
    """LMMSE matrices of a (D, B, U) stack of channels at S noise powers, (D, S, U, B).

    Each channel's Gram matrix H^H H is formed once; the D x S regularized
    systems are then one stacked ``np.linalg.solve``, which runs the same
    LAPACK solve matrix by matrix, so matrix (d, s) has the bytes of
    solving channel d at ``n0s[s]`` alone.
    """
    Es = _check_real("Es", Es, 0, strict=True)
    n0 = np.array([_check_real("N0", v, 0) for v in n0s], dtype=np.float64)
    Hh = H.conj().swapaxes(-1, -2)
    U = H.shape[-1]
    G = (Hh @ H)[:, None] + (n0 / Es)[:, None, None] * np.eye(U)
    if np.any(n0 == 0.0) and np.any(np.linalg.cond(G[:, n0 == 0.0]) > 1e14):
        raise ValueError("regularize or raise N0")
    try:
        return np.linalg.solve(G, Hh[:, None])
    except np.linalg.LinAlgError as exc:
        raise ValueError("regularize or raise N0") from exc


def scale_rows(V: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to componentwise magnitude just below one.

    Returns (W, alpha) with W = diag(alpha) V and
    alpha_u = 1 / (max-abs-component of row u + epsilon); a stack of matrices
    is scaled matrix by matrix.
    """
    epsilon = _check_real("epsilon", epsilon, 0, strict=True)
    V = np.asarray(V, dtype=np.complex128)
    mags = np.maximum(np.abs(V.real).max(axis=-1), np.abs(V.imag).max(axis=-1))
    alpha = 1.0 / (mags + epsilon)
    return alpha[..., None] * V, alpha


def _threshold_raw(tau: float, fmt: QFormat | None) -> int | float:
    """Threshold snapped to the format's fractional grid (nearest-even).

    Deliberately not clamped to the storage range: the comparator's threshold
    register is one bit wider, so tau = 1.0 can sit above every stored value.
    Without a format (quantization disabled) the threshold is tau itself, as
    a ``float``; :func:`numerics._check_real` checks it.
    """
    tau = _check_real("threshold", tau, 0)
    if fmt is None:
        return tau
    raw = tau * fmt.scale
    if not math.isfinite(raw):
        raise ValueError(f"threshold {tau!r} overflows its format's raw")
    return round(raw)


def _comparison_bits(raw: np.ndarray, tau: float, fmt: QFormat | None) -> np.ndarray:
    """Comparison bits of quantized values: magnitude strictly below the threshold."""
    return np.abs(raw) < _threshold_raw(tau, fmt)


def _check_weight_span(fmt: QFormat | None) -> None:
    # the row-scaling guarantee only survives quantization when the format
    # spans exactly [-1, 1): saturation then pins rows strictly below one
    if fmt is not None and fmt.frac_bits != fmt.total_bits - 1:
        raise ValueError("weight format must span [-1, 1): use frac_bits = total_bits - 1")


def build_weights(W_real: np.ndarray, alpha: np.ndarray, tau_w: float,
                  fmt: QFormat | None, domain: str) -> EqualizerWeights:
    """Quantize a row-scaled matrix; its comparison bits follow from ``tau_w``.

    A (..., U, B) stack of matrices, with (..., U) scale factors, gives one
    stacked set of weights; index it to get each matrix's.
    """
    W_real = np.asarray(W_real, dtype=np.complex128)
    mags = np.maximum(np.abs(W_real.real).max(axis=-1), np.abs(W_real.imag).max(axis=-1))
    if np.any(mags >= 1.0):
        raise ValueError("scale before loading")
    _check_weight_span(fmt)
    re, im = quantize_complex(W_real, fmt)
    return EqualizerWeights(re=re, im=im, fmt=fmt, alpha=alpha, tau_w=tau_w, domain=domain)


def tag_input(y_raw: np.ndarray, tau_y: float, fmt: QFormat | None) -> BeamVector:
    """Quantize a (B,) input vector or (B, ...) block; its comparison bits follow from ``tau_y``."""
    re, im = quantize_complex(y_raw, fmt)
    return BeamVector(re=re, im=im, fmt=fmt, tau_y=tau_y)


def _check_accumulator(wfmt: QFormat, yfmt: QFormat, B: int) -> None:
    # products are <= 2**(wt+yt-2) in magnitude (min_raw * min_raw reaches it);
    # B-term sums must stay float64-exact. Every GEMM of equalize_pairs sums
    # over K = B terms, however many rows it stacks.
    bits = wfmt.total_bits + yfmt.total_bits - 2 + max(B - 1, 1).bit_length()
    if bits > 52:
        raise ValueError("formats too wide for exact accumulation")


def _skippable(raws, tau: float, fmt: QFormat | None):
    """Raws whose comparison bit is set, the others zeroed, and the set bits per entry.

    ``raws`` is an (re, im) pair of equal shape, its bits read at ``tau`` in
    ``fmt``. Returns the masked (re, im) raws and the count of set bits (0, 1
    or 2) of each entry, float64 and in the raws' memory layout.
    """
    m_re, m_im = (_comparison_bits(r, tau, fmt).astype(np.float64) for r in raws)
    masked = (raws[0] * m_re, raws[1] * m_im)
    m_re += m_im
    return masked, m_re


def _column_tiles(n: int, quantized: bool) -> list[slice]:
    """Column slices in which a masked product scores an n-column block.

    Quantized raws are scored ``_TILE_COLUMNS`` columns at a time, float raws
    as one slice (none when n is 0); see :func:`equalize_pairs` for why.
    """
    step = _TILE_COLUMNS if quantized else n + 1
    return [slice(a, a + step) for a in range(0, n, step)]


def equalize_pairs(weights: EqualizerWeights, x: BeamVector, taus: list, save_power: bool,
                   gain: float = 1.0) -> list[tuple[list, np.ndarray, np.ndarray]]:
    """:func:`equalize_tagged` of one tagged (B,) vector or (B, N) block at each (tau_w, tau_y).

    The raws do not depend on the thresholds, so the four full products are
    computed once. The pairs are scored in groups of one distinct ``tau_y``,
    in order of first appearance: the group's inputs are masked once, each
    distinct ``tau_w``'s weights once per call, and the group's masked
    weights are stacked into one product. A quantized block wider than
    ``_TILE_COLUMNS`` is scored one column tile at a time, so each tile's
    passes stay in cache; each tile writes its columns of every group's
    output, with the bytes of scoring the block whole. Returns one
    (indices, S, executed) per group: the indices into ``taus`` of its k
    pairs, their (k, U, ...) estimates and their (k, ...) executed
    products. Entry j of a group equals ``equalize_tagged(replace(weights,
    tau_w=tw), replace(x, tau_y=ty), save_power, gain)`` for
    ``taus[indices[j]] == (tw, ty)``, byte for byte. Every entry's gain and
    ``save_power`` flag are checked here, by :mod:`numerics`.
    """
    gain = _check_real("gain", gain, 0, strict=True)
    save_power = _check_flag("save_power", save_power)
    if x.B != weights.B:
        raise ValueError("length mismatch")
    if (weights.fmt is None) != (x.fmt is None):
        raise ValueError("weights and input must agree on quantization")
    if weights.fmt is not None:
        _check_accumulator(weights.fmt, x.fmt, weights.B)
    wre, wim = weights.re, weights.im
    groups = {}  # distinct tau_y -> the indices of its pairs
    w_skip = {}  # distinct tau_w -> its skippable weight raws and per-column counts
    for i, (tau_w, tau_y) in enumerate(taus):
        _threshold_raw(tau_w, weights.fmt)
        _threshold_raw(tau_y, x.fmt)
        groups.setdefault(tau_y, []).append(i)
        if save_power and tau_w not in w_skip:
            wm, counts = _skippable((wre, wim), tau_w, weights.fmt)
            w_skip[tau_w] = np.stack(wm)[None], counts.sum(axis=0)[None]
    quantized = weights.fmt is not None
    yre, yim = x.re.reshape(x.B, -1), x.im.reshape(x.B, -1)
    if not quantized:  # see below: OpenBLAS rounds a float product by its layout too
        yre, yim = np.ascontiguousarray(yre), np.ascontiguousarray(yim)
    n = yre.shape[1]
    products = 4 * wre.size
    vs = 1.0 if weights.fmt is None else 1.0 / (weights.fmt.scale * x.fmt.scale)
    # An estimate is acc * vs / (alpha * gain). NumPy divides a complex number
    # by a real s as (x + y*0) * (1/s), and vs is a power of two, so
    # multiplying each part of acc by coef gives the bytes of that division.
    coef = vs * (1.0 / (weights.alpha * gain))[:, None]
    out = [(np.empty((len(indices), weights.U, n), dtype=np.complex128),
            np.full((len(indices), n), products, dtype=np.int64)) for indices in groups.values()]
    # Quantized raws are integers below 2**52, so every tiling, grouping of
    # rows and memory order gives the same bytes: a block is scored in column
    # tiles, in the caller's layout, and each (..., U, B) stack of matrices is
    # one 2-D GEMM. Float raws are scored C-ordered as one tile (none if the
    # block is empty), each matrix its own (U, B) @ (B, N) call, as a stacked
    # matmul makes it: OpenBLAS rounds a float product differently with its
    # operand's memory order (C- and F-ordered copies of one block gave other
    # bytes in 45 of 60 random blocks at B=64, U=16), a narrower last tile's
    # columns (1024-column tiles changed float64 GEMM bytes in 39 of 300
    # random (U, B, N > 1024) shapes) and a matrix's rows with the row count
    # ([a; b] @ c changed a's or b's bytes in 102 of 300 random shapes, the
    # stacked matmul in none).

    def product(w, v):  # (..., U, B) @ (B, N)
        if quantized:
            return (w.reshape(-1, w.shape[-1]) @ v).reshape(*w.shape[:-1], v.shape[1])
        return w @ v

    w_full = np.stack((wre, wim))
    for cols in _column_tiles(n, quantized):
        y = yre[:, cols], yim[:, cols]
        p_re, p_im = product(w_full, y[0]), product(w_full, y[1])  # [wre; wim] @ yre, @ yim
        full_re, full_im = p_re[0] - p_im[1], p_im[0] + p_re[1]
        for (tau_y, indices), (S, executed) in zip(groups.items(), out):
            acc_re, acc_im = full_re, full_im
            if save_power:
                # Skip masks are separable (weight bit AND input bit): the
                # skipped part of each sum is a product of masked factors, and
                # a vector's skipped count the dot of the per-column counts.
                # The stack is built one group at a time: stacking every
                # group's up front made 16 pairs in 4 groups of a 64x100
                # block about 12% slower.
                wm, w_counts = map(np.concatenate, zip(*(w_skip[taus[i][0]] for i in indices)))
                ym, y_counts = _skippable(y, tau_y, x.fmt)
                by_re = product(wm, ym[0])  # wre*mw_re @ yre*my_re and wim*mw_im @ yre*my_re
                by_im = product(wm, ym[1])
                acc_re = full_re - by_re[:, 0]
                acc_re += by_im[:, 1]
                acc_im = full_im - by_im[:, 0]
                acc_im -= by_re[:, 1]
                executed[:, cols] = products - w_counts @ y_counts
            tile = S[:, :, cols]
            np.multiply(acc_re, coef, out=tile.real)
            np.multiply(acc_im, coef, out=tile.imag)
    shape = x.re.shape[1:]
    return [(indices, S.reshape((len(indices), weights.U, *shape)),
             executed.reshape((len(indices), *shape)))
            for indices, (S, executed) in zip(groups.values(), out)]


def equalize_tagged(weights: EqualizerWeights, x: BeamVector, save_power: bool,
                    gain: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Masked matrix-vector product of a tagged (B,) vector or (B, N) block, descaled.

    The one-pair case of :func:`equalize_pairs`, at the operands' own
    thresholds; comparison bits are read only with ``save_power``. Returns the
    (U,) or (U, N) estimates and the executed real multiplications per vector
    (4BU minus the skipped ones), shaped () or (N,) to match.
    """
    [(_, S, executed)] = equalize_pairs(weights, x, [(weights.tau_w, x.tau_y)], save_power, gain)
    return S[0], executed[0, ...]


def equalize_block(mode: str, weights_ant: EqualizerWeights | None,
                   weights_beam: EqualizerWeights | None, y_bar: np.ndarray,
                   frontend: FrontEnd = FrontEnd()) -> tuple[np.ndarray, ActivityReport]:
    """Equalize a block of antenna-domain receive vectors in the selected mode.

    lmmse-a uses the antenna-domain weights on the input directly (transform
    bypassed); lmmse-b transforms to beamspace; lmmse-spade additionally
    activates multiplication skipping. ``y_bar`` is (B,) or (B, N).
    """
    domain, skips = _mode_rule(mode)
    w = weights_ant if domain == "antenna" else weights_beam
    if w is None or w.domain != domain:
        raise ValueError(f"mode/domain mismatch: {mode} needs {domain} weights")

    Y = np.asarray(y_bar, dtype=np.complex128)
    if Y.ndim == 0 or Y.shape[0] != w.B:
        raise ValueError("length mismatch")
    S, executed = equalize_tagged(w, front_end(mode, Y, frontend), save_power=skips,
                                  gain=frontend.gain)
    return S, ActivityReport(executed.reshape(-1), 4 * w.B * w.U)


def front_end(mode: str, Y: np.ndarray, frontend: FrontEnd) -> BeamVector:
    """Tagged input of antenna-domain receive vectors, (B,) or a (B, ...) block of any shape.

    Scales by the front-end gain, then quantizes to the input format and
    tags against ``frontend.tau_y``: directly where the mode bypasses the
    transform, through :func:`beamspace_raws` otherwise, which transforms
    to beamspace first and decides when its certified GEMM applies.
    """
    Z = frontend.gain * Y
    fmt = frontend.input_fmt
    if _mode_rule(mode)[0] == "antenna":
        return tag_input(Z, frontend.tau_y, fmt)
    re, im = beamspace_raws(Z, frontend.twiddle, fmt)
    return BeamVector(re=re, im=im, fmt=fmt, tau_y=frontend.tau_y)

