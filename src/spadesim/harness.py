"""Monte Carlo BER engine, SNR operating-point search, and threshold sweeps.

Randomness is counter-based: every coherence block derives its own Philox
stream from (master seed, purpose, tag, block index), so results are
reproducible bit for bit regardless of how many workers process the blocks.
Blocks are scheduled in fixed-size waves and merged in block order; the
stopping rule is evaluated between waves, which keeps the set of simulated
blocks independent of the worker count.

One block loop, :func:`_simulate`, runs every simulated point: a BER point
of :func:`run_ber` and each threshold pair's probe in a sweep round. Points
differ only in their (N0, tau_w, tau_y) and in the rule that retires them.
One function, :func:`_block`, makes every block that loop and the activity
measurement use: the draws, the weights and the tagged input at each SNR.
The loop asks it for one block at a time; the activity measurement for a
chunk of draws, which it finishes as one stack (one solve, one quantization,
one front end), each draw's bytes those of making it alone.
Every operating-point search bisects one fixed SNR range, ``_SEARCH_LO_DB``
to ``_SEARCH_HI_DB``, down to ``_SEARCH_TOL_DB``.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

import numpy as np

from .beamspace import TwiddleConfig, to_beamspace
from .channel import (
    _bits_per_symbol,
    _qam_table,
    bit_errors,
    draw_channel_matrix,
    load_channel,
    qam_index,
)
from .equalizer import (
    FrontEnd,
    build_weights,
    equalize_pairs,
    front_end,
    lmmse_stack,
    scale_rows,
    _check_accumulator,
    _check_array,
    _check_weight_span,
    _comparison_bits,
    _mode_rule,
    _threshold_raw,
)
from .numerics import (INPUT_FMT, TWIDDLE_FMT, WEIGHT_FMT, QFormat, _check_flag, _check_integer,
                       _check_real)

# Threshold pair used by default in lmmse-spade runs; picked from the
# artifact's own 8x8 sweep on LoS channels (lowest mean activity among pairs
# within 1 dB of the antenna-domain operating point), then snapped to exact
# binary fractions of the weight/input formats. Measured on LoS 64x16 16-QAM:
# activity 0.40 at no operating-point penalty. See README for the procedure.
DEFAULT_TAU_W = 53 / 512
DEFAULT_TAU_Y = 1 / 2

CHANNEL_KINDS = ("los", "nlos", "file")
REPORT_FORMATS = ("csv", "json")

_P_BER = 1
_P_ACTIVITY = 2
_P_PROBE = 3

_WAVE_BLOCKS = 8
# an activity chunk finishes this many weight matrices (draws x SNRs) at once,
# or one draw when a draw alone holds more
_CHUNK_MATRICES = 32
# the operating-point search bisects this SNR range, in dB, down to this width
_SEARCH_LO_DB, _SEARCH_HI_DB, _SEARCH_TOL_DB = -10.0, 40.0, 0.1
MAX_SNR_POINTS = 1 << 16  # run_ber runs point i on stream tag i, a 16-bit field


def derive_stream(seed: int, purpose: int, tag: int, index: int) -> np.random.Generator:
    """Independent Philox stream keyed by (seed, purpose, tag, index).

    The seed fills one 64-bit key word; purpose, tag and index are packed into
    16, 16 and 32 bits of the other. A value that does not fit, or a float or
    bool the key would convert, would alias another stream, so it raises.
    """
    for name, value, bits in (("seed", seed, 64), ("purpose", purpose, 16), ("tag", tag, 16),
                              ("index", index, 32)):
        _check_integer(f"stream {name}", value, 0, (1 << bits) - 1)
    hi = (purpose << 48) | (tag << 32) | index
    key = np.array([seed, hi], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class StopRule:
    """Stop a BER point at this many bit errors or this many vectors, each stored as an ``int``."""

    target_errors: int = 500
    max_vectors: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("target_errors", "max_vectors"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), 0))


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run needs besides the mode and the SNR list.

    Frozen: every setting, the channel file's matrix included, is read and
    checked once, when the config is made, and stored as what it means:
    counts and the seed as ``int`` (NumPy integers pass), thresholds as
    ``float`` (a bool is refused), the two flags as ``bool`` (``np.bool_``
    passes; a string or a number is refused). The formats must be
    ``QFormat``s; with ``quantized`` on, they must pass the checks the first
    block would make: the weight format's span and exact accumulation at B.
    """

    B: int = 64
    U: int = 16
    M: int = 16
    Es: ClassVar[float] = 1.0  # symbol energy, fixed by the SNR convention
    channel: str = "los"
    channel_file: str | None = None
    tau_w: float = DEFAULT_TAU_W
    tau_y: float = DEFAULT_TAU_Y
    seed: int = 1
    weight_fmt: QFormat = WEIGHT_FMT
    input_fmt: QFormat = INPUT_FMT
    twiddle_fmt: QFormat = TWIDDLE_FMT
    exact_fft: bool = False
    quantized: bool = True
    epsilon: ClassVar[float] = 2.0**-10  # row-scaling guard, see scale_rows
    vectors_per_block: int = 100
    workers: int = 1

    def __post_init__(self) -> None:
        for name, lo, hi in (("seed", 0, (1 << 64) - 1), ("M", None, None),
                             ("vectors_per_block", 1, None), ("workers", 1, None)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), lo, hi))
        _check_array(self.B, self.U)  # checks that B and U are integers too
        for name in ("B", "U"):
            object.__setattr__(self, name, int(getattr(self, name)))
        _bits_per_symbol(self.M)
        if self.channel not in CHANNEL_KINDS:
            raise ValueError(f"channel must be one of {CHANNEL_KINDS}")
        if self.channel == "file" and not self.channel_file:
            raise ValueError("channel 'file' needs channel_file")
        if self.channel_file is not None and self.channel != "file":
            raise ValueError("channel_file needs channel 'file'")
        for name in ("exact_fft", "quantized"):
            object.__setattr__(self, name, _check_flag(name, getattr(self, name)))
        for name in ("weight_fmt", "input_fmt", "twiddle_fmt"):
            if not isinstance(getattr(self, name), QFormat):
                raise ValueError(f"{name} {getattr(self, name)!r} is not a QFormat")
        if self.quantized:
            _check_weight_span(self.weight_fmt)
            _check_accumulator(self.weight_fmt, self.input_fmt, self.B)
        for name, fmt in (("tau_w", self.weight_fmt), ("tau_y", self.input_fmt)):
            try:
                _threshold_raw(getattr(self, name), fmt if self.quantized else None)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            object.__setattr__(self, name, float(getattr(self, name)))
        fixed = None
        if self.channel == "file":
            fixed = load_channel(self.channel_file)
            if fixed.domain != "antenna":
                raise ValueError("channel file must contain an antenna-domain matrix")
            if fixed.B != self.B or fixed.U != self.U:
                raise ValueError(f"channel file is {fixed.B}x{fixed.U}, config wants {self.B}x{self.U}")
        object.__setattr__(self, "_fixed_channel", fixed)

    @property
    def bits_per_symbol(self) -> int:
        return _bits_per_symbol(self.M)

    @property
    def input_gain(self) -> float:
        # scales receive vectors to O(1) so they fit the input format
        return 1.0 / math.sqrt(self.U * self.Es)

    def frontend(self) -> FrontEnd:
        twiddle = TwiddleConfig(exact=self.exact_fft or not self.quantized,
                                twiddle_fmt=self.twiddle_fmt)
        return FrontEnd(input_fmt=self.input_fmt if self.quantized else None, tau_y=self.tau_y,
                        twiddle=twiddle, gain=self.input_gain)


@dataclass
class SnrPoint:
    snr_db: float
    trials: int
    bit_errors: int
    ber: float
    activity_mean: float
    activity_min: float
    activity_max: float


@dataclass
class RunReport:
    config: RunConfig
    mode: str
    points: list[SnrPoint]


@dataclass
class SweepRecord:
    tau_w: float
    tau_y: float
    mean_activity_rate: float
    snr_operating_point_db: float | None
    ber_curve: list[tuple[float, float, int]] = field(default_factory=list)
    pareto: bool = False


def _block(cfg: RunConfig, mode: str, purpose: int, tag: int, indices, n_vectors: int, n0s: list):
    """Coherence blocks ``indices``, D of them, each at S SNRs: (sent, weights, x).

    Each block draws its channel (unless from a file), its bits, kept as the
    (U, N) symbol indices they select, and the real and imaginary parts of
    its unit-variance noise from its own stream, in that order; ``sent``
    stacks them, (D, U, N). The D blocks are then finished as one stack: in
    the mode's domain, one Gram matrix per block and one solve of all D x S
    LMMSE systems, scaled and quantized as one (D, S) stack of weights at
    ``cfg.tau_w`` (``w[d, s]``; ``replace(w[d, s], tau_w=...)`` gives another
    threshold on the same raws). ``x`` is the tagged (B, D, S, N) input,
    ``x.re[:, d, s]`` block d's at N0 ``n0s[s]``, from one call to
    ``cfg.frontend()``; the noise is scaled part by part, which gives the
    bytes of scaling it as one complex array. Every matrix and column has
    the bytes of making its block alone at its own N0.
    """
    D, S, B, U = len(indices), len(n0s), cfg.B, cfg.U
    domain, _ = _mode_rule(mode)
    table = _qam_table(cfg.M, cfg.Es)
    H = np.empty((D, B, U), dtype=np.complex128)
    sent = np.empty((D, U, n_vectors), dtype=np.int64)
    y_bar = np.empty((D, B, n_vectors), dtype=np.complex128)
    noise_re = np.empty((D, B, n_vectors))
    noise_im = np.empty((D, B, n_vectors))
    fixed = cfg._fixed_channel
    for d, index in enumerate(indices):
        rng = derive_stream(cfg.seed, purpose, tag, index)
        H[d] = (fixed if fixed is not None
                else draw_channel_matrix(cfg.channel, B, U, rng)).entries
        bits = rng.integers(0, 2, size=(U, n_vectors, cfg.bits_per_symbol), dtype=np.uint8)
        sent[d] = qam_index(bits, cfg.M)
        np.matmul(H[d], table[sent[d]], out=y_bar[d])
        rng.standard_normal(out=noise_re[d])
        rng.standard_normal(out=noise_im[d])
    if domain == "beamspace":
        H = to_beamspace(H.swapaxes(0, 1)).swapaxes(0, 1)
    # release each intermediate once read, and the noise-free blocks and the
    # noise before the front end: with large blocks and several workers, or
    # long activity chunks, the smaller working set is faster
    V = lmmse_stack(H, n0s, cfg.Es)
    del H
    W, alpha = scale_rows(V, cfg.epsilon)
    del V
    weights = build_weights(W, alpha, cfg.tau_w, cfg.weight_fmt if cfg.quantized else None, domain)
    del W
    sigma = np.sqrt(np.array(n0s) / 2.0)[:, None]
    Y = np.empty((B, D, S, n_vectors), dtype=np.complex128)
    np.multiply(noise_re.swapaxes(0, 1)[:, :, None], sigma, out=Y.real)
    np.multiply(noise_im.swapaxes(0, 1)[:, :, None], sigma, out=Y.imag)
    Y += y_bar.swapaxes(0, 1)[:, :, None]
    del y_bar, noise_re, noise_im
    return sent, weights, front_end(mode, Y, cfg.frontend())


def _waves(block_size: int, cap: int):
    """Blocks as (index, vectors) in waves of up to _WAVE_BLOCKS, until cap vectors are planned.

    Callers evaluate their stopping rule between waves, which keeps the set of
    simulated blocks independent of the worker count.
    """
    block_idx = planned = 0
    while planned < cap:
        wave = []
        while len(wave) < _WAVE_BLOCKS and planned < cap:
            size = min(block_size, cap - planned)
            wave.append((block_idx, size))
            block_idx += 1
            planned += size
        yield wave


@contextmanager
def _block_map(workers: int):
    """A map over one wave's blocks that yields results in block order."""
    if workers == 1:
        yield map
    else:
        with ThreadPoolExecutor(workers) as pool:
            yield pool.map


def _simulate(cfg: RunConfig, mode: str, purpose: int, tag: int, points: list, cap: int,
              done, block_map) -> list[SnrPoint]:
    """Simulate points on shared blocks until each is done or cap vectors are spent.

    ``points`` holds one (n0, tau_w, tau_y) per point. Every point runs the
    same waves of the same blocks (stream ``purpose``, ``tag``): each block
    is made once, by :func:`_block` at the distinct N0s of the live points.
    Per distinct N0, one :func:`equalize_pairs` call then scores the block at
    each of that N0's points' (tau_w, tau_y): the full products once, the
    masked terms once per distinct tau_y for all of its points, and their
    bit errors as one table lookup against the sent symbol indices
    (:func:`channel.bit_errors`). So a point sees the blocks it would see alone.
    Before each wave, ``done(errors, vectors)`` retires a point. Returns one
    SnrPoint per point, its ``snr_db`` left for the caller.

    A round's cost thus follows its distinct N0s, which vary from seed to
    seed in a sweep; see README for the measured spread.
    """
    save_power, gain = _mode_rule(mode)[1], cfg.input_gain
    # errors, vectors, executed products: sum, min and max per vector
    stats = [[0, 0, 0, math.inf, -math.inf] for _ in points]
    for wave in _waves(cfg.vectors_per_block, cap):
        live = [i for i, st in enumerate(stats) if not done(st[0], st[1])]
        if not live:
            break
        groups = {}  # distinct N0 -> its live points, in order of first appearance
        for i in live:
            groups.setdefault(points[i][0], []).append(i)

        def run(args, groups=groups):
            block_idx, n = args
            (sent,), w, x = _block(cfg, mode, purpose, tag, [block_idx], n, list(groups))
            scored = {}
            for s, group in enumerate(groups.values()):
                xs = replace(x, re=x.re[:, 0, s], im=x.im[:, 0, s])
                taus = [points[i][1:] for i in group]
                for pairs, S, executed in equalize_pairs(w[0, s], xs, taus, save_power, gain):
                    # per pair: bit errors, vectors, executed products' sum, min and max
                    errors = bit_errors(S, sent, cfg.M, cfg.Es).reshape(len(pairs), -1).sum(1)
                    for j, err, ex_sum, ex_min, ex_max in zip(
                            pairs, errors.tolist(), executed.sum(1).tolist(),
                            executed.min(1).tolist(), executed.max(1).tolist()):
                        scored[group[j]] = (err, n, ex_sum, ex_min, ex_max)
            return scored

        for scored in block_map(run, wave):
            for i, (err, vectors, exec_sum, exec_min, exec_max) in scored.items():
                st = stats[i]
                st[0] += err
                st[1] += vectors
                st[2] += exec_sum
                st[3] = min(st[3], exec_min)
                st[4] = max(st[4], exec_max)
    nbits = cfg.U * cfg.bits_per_symbol
    per_mvm = 4 * cfg.B * cfg.U
    return [SnrPoint(snr_db=float("nan"), trials=vectors, bit_errors=errors,
                     ber=errors / (nbits * vectors) if vectors else 0.0,
                     activity_mean=exec_sum / (per_mvm * vectors) if vectors else 1.0,
                     activity_min=exec_min / per_mvm if vectors else 1.0,
                     activity_max=exec_max / per_mvm if vectors else 1.0)
            for errors, vectors, exec_sum, exec_min, exec_max in stats]


def _n0_for_snr(cfg: RunConfig, snr_db: float) -> float:
    # SNR convention: per-antenna receive SNR = U * Es / N0
    snr_db = _check_real("SNR", snr_db)
    try:
        n0 = cfg.U * cfg.Es / 10 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        n0 = math.nan
    # a zero or infinite N0 would fail later, as noise that is not finite
    if not (math.isfinite(n0) and n0 > 0):
        raise ValueError(f"SNR {snr_db!r} dB gives no finite positive noise power N0")
    return n0


def run_ber(config: RunConfig, snr_list_db, mode: str, stop: StopRule | None = None) -> RunReport:
    """Uncoded BER at each SNR: fresh channel per coherence block, hard slicing."""
    _mode_rule(mode)
    snr_list = list(snr_list_db)
    if len(snr_list) > MAX_SNR_POINTS:
        raise ValueError(f"SNR list has {len(snr_list)} points, more than {MAX_SNR_POINTS}")
    n0s = [_n0_for_snr(config, snr_db) for snr_db in snr_list]  # refuses a bool before float()
    snr_list = [float(s) for s in snr_list]
    stop = stop or StopRule()
    points = []
    with _block_map(config.workers) as block_map:
        for i, (snr_db, n0) in enumerate(zip(snr_list, n0s)):
            [pt] = _simulate(config, mode, _P_BER, i, [(n0, config.tau_w, config.tau_y)],
                             stop.max_vectors, lambda errors, _: errors >= stop.target_errors,
                             block_map)
            pt.snr_db = snr_db
            points.append(pt)
    return RunReport(config=config, mode=mode, points=points)


# ---------------------------------------------------------------------------
# SNR operating point (bisection with confidence-gated probes)
# ---------------------------------------------------------------------------

def _wilson(errors: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = errors / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return center - half, center + half


def _bisection():
    """Operating-point search: yields each probe SNR and is sent that probe's side.

    Returns None when even the top of the range stays above the target, its
    bottom when that is already below it, else the final bracket's upper end.
    """
    if (yield _SEARCH_HI_DB) == "above":
        return None
    if (yield _SEARCH_LO_DB) == "below":
        return _SEARCH_LO_DB
    lo, hi = _SEARCH_LO_DB, _SEARCH_HI_DB
    while hi - lo > _SEARCH_TOL_DB:
        mid = 0.5 * (lo + hi)
        if (yield mid) == "above":
            lo = mid
        else:
            hi = mid
    return hi


def _operating_points(cfg: RunConfig, mode: str, pairs: list, target: float,
                      probe_cap: int) -> list[tuple[float | None, list]]:
    """Bisect every threshold pair's operating point in lockstep.

    Probe k of every pair uses stream tag k, so round k probes all pairs still
    searching on shared blocks. Returns the operating point and the (snr, ber,
    vectors) probe list of each pair.
    """
    if not _check_real("target_ber", target, 0, strict=True) < 0.5:
        raise ValueError("target_ber must be in (0, 0.5)")
    _check_integer("probe_cap", probe_cap, 1)
    _mode_rule(mode)
    nbits = cfg.U * cfg.bits_per_symbol

    def decided(errors: int, vectors: int) -> bool:
        lo, hi = _wilson(errors, nbits * vectors)
        return hi < target or lo > target

    searches = [_bisection() for _ in pairs]
    pending = {i: next(search) for i, search in enumerate(searches)}
    curves = [[] for _ in pairs]
    ops = [None] * len(pairs)
    tag = 0
    with _block_map(cfg.workers) as block_map:
        while pending:
            order = list(pending)
            probed = _simulate(cfg, mode, _P_PROBE, tag,
                               [(_n0_for_snr(cfg, pending[i]), *pairs[i]) for i in order],
                               probe_cap, decided, block_map)
            for i, pt in zip(order, probed):
                # the Wilson interval holds the estimate, so a decided probe's
                # side is the estimate's side too
                side = "below" if pt.ber <= target else "above"
                curves[i].append((pending[i], pt.ber, pt.trials))
                try:
                    pending[i] = searches[i].send(side)
                except StopIteration as done:
                    ops[i] = done.value
                    del pending[i]
            tag += 1
    return list(zip(ops, curves))


def snr_operating_point(config: RunConfig, mode: str, target_ber: float = 0.01,
                        probe_cap: int = 200_000, curve: list | None = None) -> float | None:
    """Minimum SNR reaching the target BER, or None when unreached in range."""
    [(op, probes)] = _operating_points(config, mode, [(config.tau_w, config.tau_y)], target_ber,
                                       probe_cap)
    if curve is not None:
        curve.extend(probes)
    return op


# ---------------------------------------------------------------------------
# Activity-rate measurement and the threshold-pair sweep
# ---------------------------------------------------------------------------

def default_grid() -> np.ndarray:
    """Default 8-point logarithmic threshold grid over [2^-9, 2^-1].

    These are ``np.geomspace(2.0**-9, 2.0**-1, 8)`` on NumPy's AVX-512
    kernels, written out: its real ``exp`` and ``log2`` round the fifth and
    sixth values one ulp higher on the AVX2 kernels, and the sweep artifact
    prints each threshold.
    """
    return np.array([0.001953125, 0.0043128496627883265, 0.009523544173472464,
                     0.021029690509880555, 0.04643732153552962, 0.1025419195009547,
                     0.2264309160659765, 0.5])


def activity_grid(config: RunConfig, mode: str, snr_db: float, tau_w_grid,
                  tau_y_grid, draws: int = 1000, vectors_per_draw: int = 2,
                  per_draw: bool = False):
    """Mean multiplier activity rate for every threshold pair, matched seeds.

    Channel, symbol, and noise realizations depend only on (seed, draw index),
    so the measurement is pointwise monotone along both grid axes. Returns an
    (nw, ny) array, or (nw, ny, draws) with ``per_draw``; see
    :func:`_activity_rates`.
    """
    _check_integer("draws", draws, 1)  # an activity mean over no draws or no vectors is 0/0
    _check_integer("vectors_per_draw", vectors_per_draw, 1)
    per_draw = _check_flag("per_draw", per_draw)
    _n0_for_snr(config, snr_db)  # in every mode, not only where the draws need N0
    tau_w_grid = [_threshold_raw(t, None) for t in tau_w_grid]
    tau_y_grid = [_threshold_raw(t, None) for t in tau_y_grid]
    cells = [(snr_db, tw, ty) for tw in tau_w_grid for ty in tau_y_grid]
    rates = _activity_rates(config, mode, cells, draws, vectors_per_draw)
    rates = rates.reshape(len(tau_w_grid), len(tau_y_grid), draws)
    return rates if per_draw else rates.mean(axis=2)


def _activity_rates(config: RunConfig, mode: str, cells: list, draws: int,
                    vectors_per_draw: int) -> np.ndarray:
    """Per-draw activity of each (snr_db, tau_w, tau_y) cell, a (cells, draws) array.

    A mode that does not skip executes every product. Each draw is drawn
    once, from its own stream, and finished for all the cells' distinct
    SNRs. Draws are made in chunks of up to ``_CHUNK_MATRICES`` weight
    matrices (draws x distinct SNRs, at least one draw), each chunk by one
    :func:`_block` call, so memory is bounded by one chunk whatever the draw
    count. Skipping is separable, so a vector's skipped count is the dot of
    the per-column counts of set weight and input bits, the equalizer's
    :func:`_comparison_bits`; one ``einsum`` per chunk counts every (draw,
    SNR, tau_w, tau_y) of the distinct values, and each cell gathers its
    own. The counts are integers, so where a chunk ends moves none of them.
    """
    if not _mode_rule(mode)[1] or not cells:
        return np.ones((len(cells), draws))
    # the distinct values of each axis, and each cell's index into them
    (snrs, s_at), (tws, w_at), (tys, y_at) = (
        np.unique(axis, return_inverse=True) for axis in np.array(cells, dtype=float).T)
    n0s = [_n0_for_snr(config, snr_db) for snr_db in snrs.tolist()]

    def set_bits(z, taus, axis):
        # per-column counts of set comparison bits, one row per threshold
        return np.stack([_comparison_bits(z.re, t, z.fmt).sum(axis)
                         + _comparison_bits(z.im, t, z.fmt).sum(axis) for t in taus.tolist()])

    skipped = np.empty((len(cells), draws))
    per_chunk = max(1, _CHUNK_MATRICES // len(n0s))
    for start in range(0, draws, per_chunk):
        chunk = range(start, min(start + per_chunk, draws))
        _, w, x = _block(config, mode, _P_ACTIVITY, 0, chunk, vectors_per_draw, n0s)
        # (threshold, draw, SNR, column) for the (D, S, U, B) weights and
        # (threshold, column, draw, SNR) for the (B, D, S, N) inputs
        counts = np.einsum("wdsb,ybds->swyd", set_bits(w, tws, 2), set_bits(x, tys, 3))
        skipped[:, chunk.start:chunk.stop] = counts[s_at, w_at, y_at]
    total = 4 * config.B * config.U * vectors_per_draw
    return (total - skipped) / total


def threshold_sweep(config: RunConfig, tau_w_grid, tau_y_grid,
                    mode: str = "lmmse-spade", target_ber: float = 0.01,
                    activity_draws: int = 1000, vectors_per_draw: int = 2,
                    probe_cap: int = 100_000) -> list[SweepRecord]:
    """Operating point and activity for every threshold pair, sorted by activity.

    Activity is measured at each pair's own operating point (at the top of the
    probe range when the target is unreached). Records on the activity/SNR
    Pareto frontier are flagged.

    All pairs bisect in lockstep (see :func:`_operating_points`), so each
    block is drawn once per probe round, not once per pair, and its weights
    are computed once per probe SNR; activity is measured as one cell per
    pair, at its activity SNR, all cells sharing each draw.
    """
    _check_integer("activity_draws", activity_draws, 1)
    _check_integer("vectors_per_draw", vectors_per_draw, 1)
    pairs = [(_threshold_raw(tw, None), _threshold_raw(ty, None))
             for tw in tau_w_grid for ty in tau_y_grid]
    searched = _operating_points(config, mode, pairs, target_ber, probe_cap)
    cells = [(_SEARCH_HI_DB if op is None else op, tw, ty)
             for (tw, ty), (op, _) in zip(pairs, searched)]
    activity = _activity_rates(config, mode, cells, activity_draws, vectors_per_draw).mean(axis=1)
    records = [SweepRecord(tau_w=tw, tau_y=ty, mean_activity_rate=float(act),
                           snr_operating_point_db=op, ber_curve=curve)
               for (tw, ty), (op, curve), act in zip(pairs, searched, activity)]
    records.sort(key=lambda r: (r.mean_activity_rate, r.tau_w, r.tau_y))
    op_of = lambda r: math.inf if r.snr_operating_point_db is None else r.snr_operating_point_db
    for r in records:
        # dominated: another record no worse on both axes and better on one
        r.pareto = not any(
            o.mean_activity_rate <= r.mean_activity_rate and op_of(o) <= op_of(r)
            and (o.mean_activity_rate, op_of(o)) != (r.mean_activity_rate, op_of(r))
            for o in records)
    return records


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

_CSV_HEADER = ("mode,B,U,M,channel_kind,snr_db,trials,bit_errors,ber,"
               "activity_mean,activity_min,activity_max,tau_w,tau_y,seed")


def report_rows(report: RunReport) -> list[dict]:
    """One row per point: the run's settings, then the point's fields, named as CSV columns."""
    cfg = report.config
    run = {"mode": report.mode, "B": cfg.B, "U": cfg.U, "M": cfg.M, "channel_kind": cfg.channel,
           "tau_w": cfg.tau_w, "tau_y": cfg.tau_y, "seed": cfg.seed}
    return [{**run, **asdict(p)} for p in report.points]


def _csv_cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def render_report(report: RunReport, fmt: str = "csv") -> str:
    """Serialize a run report in one of ``REPORT_FORMATS``; byte-stable for a fixed report."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    rows = report_rows(report)
    if fmt == "json":
        return json.dumps({"schema_version": 1, "rows": rows}, sort_keys=True, indent=2) + "\n"
    lines = [_CSV_HEADER]
    for row in rows:
        lines.append(",".join(_csv_cell(row[k]) for k in _CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def emit_sweep(records: list[SweepRecord], path: str) -> None:
    """CSV artifact of a threshold sweep (activity vs operating point)."""
    with open(path, "w", encoding="ascii") as f:
        f.write("tau_w,tau_y,mean_activity_rate,snr_operating_point_db,pareto\n")
        for r in records:
            op = "unreached" if r.snr_operating_point_db is None else repr(r.snr_operating_point_db)
            f.write(f"{r.tau_w!r},{r.tau_y!r},{r.mean_activity_rate!r},{op},{int(r.pareto)}\n")
