"""Monte Carlo BER engine, SNR operating-point search, and threshold sweeps.

Randomness is counter-based: every coherence block derives its own Philox
stream from (master seed, purpose, tag, block index), so results are
reproducible bit for bit regardless of how many workers process the blocks.
Blocks are scheduled in fixed-size waves and merged in block order; the
stopping rule is evaluated between waves, which keeps the set of simulated
blocks independent of the worker count.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .beamspace import TwiddleConfig, to_beamspace
from .channel import (
    MODES,
    ChannelMatrix,
    SystemConfig,
    draw_channel_matrix,
    load_channel,
    qam_demodulate,
    qam_modulate,
)
from .equalizer import (
    BeamVector,
    EqualizerWeights,
    FrontEnd,
    build_weights,
    compute_lmmse,
    equalize_tagged,
    front_end,
    scale_rows,
    _threshold_raw,
)
from .numerics import INPUT_FMT, TWIDDLE_FMT, WEIGHT_FMT, QFormat

# Threshold pair used by default in lmmse-spade runs; picked from the
# artifact's own 8x8 sweep on LoS channels (lowest mean activity among pairs
# within 1 dB of the antenna-domain operating point), then snapped to exact
# binary fractions of the weight/input formats. Measured on LoS 64x16 16-QAM:
# activity 0.40 at no operating-point penalty. See README for the procedure.
DEFAULT_TAU_W = 53 / 512
DEFAULT_TAU_Y = 1 / 2

CHANNEL_KINDS = ("los", "nlos", "file")

_P_BER = 1
_P_ACTIVITY = 2
_P_PROBE = 3

_WAVE_BLOCKS = 8


def derive_stream(seed: int, purpose: int, tag: int, index: int) -> np.random.Generator:
    """Independent Philox stream keyed by (seed, purpose, tag, index).

    The seed fills one 64-bit key word; purpose, tag and index are packed into
    16, 16 and 32 bits of the other. A value that does not fit would alias
    another stream, so it raises.
    """
    for name, value, bits in (("seed", seed, 64), ("purpose", purpose, 16), ("tag", tag, 16),
                              ("index", index, 32)):
        if not 0 <= value < 1 << bits:
            raise ValueError(f"stream {name} {value} outside [0, 2**{bits})")
    hi = (purpose << 48) | (tag << 32) | index
    key = np.array([seed, hi], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class StopRule:
    """Stop a BER point at this many bit errors or this many vectors."""

    target_errors: int = 500
    max_vectors: int = 1_000_000


@dataclass
class RunConfig:
    """Everything a simulation run needs besides the mode and the SNR list."""

    B: int = 64
    U: int = 16
    M: int = 16
    Es: float = 1.0
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
    epsilon: float = 2.0**-10
    vectors_per_block: int = 100
    workers: int = 1

    def __post_init__(self) -> None:
        # dimension/order checks are SystemConfig's; instantiate one to run them
        SystemConfig(B=self.B, U=self.U, M=self.M, Es=self.Es, N0=1.0,
                     mode="lmmse-b", seed=self.seed)
        if self.channel not in CHANNEL_KINDS:
            raise ValueError(f"channel must be one of {CHANNEL_KINDS}")
        if self.channel == "file" and not self.channel_file:
            raise ValueError("channel 'file' needs channel_file")
        if self.vectors_per_block < 1 or self.workers < 1:
            raise ValueError("vectors_per_block and workers must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.M))

    @property
    def input_gain(self) -> float:
        # scales receive vectors to O(1) so they fit the input format
        return 1.0 / math.sqrt(self.U * self.Es)

    def frontend(self) -> FrontEnd:
        if not self.quantized:
            return FrontEnd(input_fmt=None, tau_y=self.tau_y,
                            twiddle=TwiddleConfig(exact=True), gain=self.input_gain)
        twiddle = TwiddleConfig(exact=True) if self.exact_fft \
            else TwiddleConfig(exact=False, twiddle_fmt=self.twiddle_fmt)
        return FrontEnd(input_fmt=self.input_fmt, tau_y=self.tau_y,
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
    seed: int
    wall_time_s: float


@dataclass
class SweepRecord:
    tau_w: float
    tau_y: float
    mean_activity_rate: float
    snr_operating_point_db: float | None
    ber_curve: list[tuple[float, float, int]] = field(default_factory=list)
    pareto: bool = False


def _load_fixed_channel(cfg: RunConfig) -> ChannelMatrix | None:
    if cfg.channel != "file":
        return None
    cm = load_channel(cfg.channel_file)
    if cm.domain != "antenna":
        raise ValueError("channel file must contain an antenna-domain matrix")
    if cm.B != cfg.B or cm.U != cfg.U:
        raise ValueError(f"channel file is {cm.B}x{cm.U}, config wants {cfg.B}x{cfg.U}")
    return cm


def _build_weights(cfg: RunConfig, H: ChannelMatrix, mode: str, n0: float):
    """(antenna, beamspace) weights of an antenna-domain channel; the mode's other one is None."""
    Hd = H if mode == "lmmse-a" else ChannelMatrix(to_beamspace(H.entries), "beamspace")
    W, a = scale_rows(compute_lmmse(Hd, n0, cfg.Es), cfg.epsilon)
    w = build_weights(W, a, cfg.tau_w, cfg.weight_fmt if cfg.quantized else None, Hd.domain)
    return (w, None) if mode == "lmmse-a" else (None, w)


def _draw_block(cfg: RunConfig, mode: str, purpose: int, tag: int, block_idx: int,
                n_vectors: int, H_fixed: ChannelMatrix | None):
    """Everything of one coherence block that no SNR reaches.

    Draws the channel (in the domain the mode equalizes in), the bits, the
    noise-free receive block and the unit-variance complex noise. Every SNR
    probed on this block takes its weights from :func:`_block_weights` and its
    receive vectors from :func:`_receive`.
    """
    rng = derive_stream(cfg.seed, purpose, tag, block_idx)
    H = H_fixed if H_fixed is not None else draw_channel_matrix(cfg.channel, cfg.B, cfg.U, rng)
    Hd = H if mode == "lmmse-a" else ChannelMatrix(to_beamspace(H.entries), "beamspace")
    bits = rng.integers(0, 2, size=(cfg.U, n_vectors, cfg.bits_per_symbol), dtype=np.uint8)
    y_bar = H.entries @ qam_modulate(bits, cfg.M, cfg.Es)
    noise = rng.standard_normal(y_bar.shape) + 1j * rng.standard_normal(y_bar.shape)
    return Hd, bits, y_bar, noise


def _block_weights(cfg: RunConfig, drawn, n0s: list):
    """Quantized weights of a drawn block at each of S SNRs, scaled and quantized as one stack.

    Index s gives the weights at SNR s, tagged against ``cfg.tau_w`` (retag
    them for another threshold; the raws do not depend on it).
    """
    Hd = drawn[0]
    V = np.stack([compute_lmmse(Hd, n0, cfg.Es) for n0 in n0s])
    W, alpha = scale_rows(V, cfg.epsilon)
    return build_weights(W, alpha, cfg.tau_w, cfg.weight_fmt if cfg.quantized else None, Hd.domain)


def _receive(drawn, n0s: list) -> np.ndarray:
    """The drawn block's receive vectors at each of S SNRs, side by side: (B, S*N).

    The front end transforms and quantizes column by column, so one call on
    this serves every SNR.
    """
    _, _, y_bar, noise = drawn
    n0 = np.array(n0s)
    Y = noise[:, None] * np.sqrt(n0 / 2.0)[:, None]
    Y += y_bar[:, None]
    Y[:, n0 == 0.0] = y_bar[:, None]  # no noise at all, not a zero-scaled one
    return Y.reshape(y_bar.shape[0], -1)


def _score(cfg: RunConfig, mode: str, bits: np.ndarray, w: EqualizerWeights, x: BeamVector,
           gain: float) -> tuple[int, np.ndarray]:
    """Bit errors and executed products per vector of one tagged block."""
    S, per_vec = equalize_tagged(w, x, save_power=(mode == "lmmse-spade"), gain=gain)
    return int((bits != qam_demodulate(S, cfg.M, cfg.Es)).sum()), per_vec


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


def _ber_point(cfg: RunConfig, mode: str, n0: float, purpose: int, tag: int,
               stop: StopRule, H_fixed: ChannelMatrix | None):
    fe = cfg.frontend()

    def run(args):
        drawn = _draw_block(cfg, mode, purpose, tag, args[0], args[1], H_fixed)
        bits, w, Y = drawn[1], _block_weights(cfg, drawn, [n0])[0], _receive(drawn, [n0])
        # release the noise-free block and the noise before the front end: with
        # large blocks and several workers, the smaller working set is faster
        del drawn
        return _score(cfg, mode, bits, w, front_end(mode, Y, fe), fe.gain)

    errors = 0
    vectors = 0
    exec_sum = 0
    exec_min = math.inf
    exec_max = -math.inf
    with _block_map(cfg.workers) as block_map:
        for wave in _waves(cfg.vectors_per_block, stop.max_vectors):
            if errors >= stop.target_errors:
                break
            for err, per_vec in block_map(run, wave):
                errors += err
                vectors += per_vec.size
                exec_sum += int(per_vec.sum())
                exec_min = min(exec_min, int(per_vec.min()))
                exec_max = max(exec_max, int(per_vec.max()))
    nbits = cfg.U * cfg.bits_per_symbol * vectors
    per_mvm = 4 * cfg.B * cfg.U
    return SnrPoint(
        snr_db=float("nan"),  # caller fills in
        trials=vectors,
        bit_errors=errors,
        ber=errors / nbits if nbits else 0.0,
        activity_mean=exec_sum / (per_mvm * vectors) if vectors else 1.0,
        activity_min=exec_min / per_mvm if vectors else 1.0,
        activity_max=exec_max / per_mvm if vectors else 1.0,
    )


def _n0_for_snr(cfg: RunConfig, snr_db: float) -> float:
    # SNR convention: per-antenna receive SNR = U * Es / N0
    return cfg.U * cfg.Es / 10 ** (snr_db / 10.0)


def run_ber(config: RunConfig, snr_list_db, mode: str, stop: StopRule | None = None) -> RunReport:
    """Uncoded BER at each SNR: fresh channel per coherence block, hard slicing."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    snr_list = [float(s) for s in snr_list_db]
    if any(not math.isfinite(s) for s in snr_list):
        raise ValueError("invalid SNR list")
    stop = stop or StopRule()
    H_fixed = _load_fixed_channel(config)
    t0 = time.perf_counter()
    points = []
    for i, snr_db in enumerate(snr_list):
        pt = _ber_point(config, mode, _n0_for_snr(config, snr_db), _P_BER, i, stop, H_fixed)
        pt.snr_db = snr_db
        points.append(pt)
    return RunReport(config=config, mode=mode, points=points, seed=config.seed,
                     wall_time_s=time.perf_counter() - t0)


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


def _probe_round(cfg: RunConfig, mode: str, tag: int, probes: list, target: float,
                 probe_cap: int, H_fixed: ChannelMatrix | None, block_map):
    """Probe threshold pairs until each 95% interval excludes the target BER.

    ``probes`` holds one (snr_db, tau_w, tau_y) per pair. Every probe of the
    round runs the same waves of the same blocks (stream tag ``tag``): each
    block is drawn once (channel, bits, noise) and its weights are computed
    once per probe SNR, as one stack. Each pair still undecided then adds the
    noise at its SNR, runs the front end (which tags the inputs at its tau_y),
    retags the weights at its tau_w and scores the block, so a pair sees the
    blocks it would see alone. Returns (side, ber, vectors) per pair.

    The front end runs per pair even where pairs share an SNR. It costs about
    0.4 ms per 64x100 block, more than a pair's scoring; shared, it made a
    round's cost follow the number of distinct SNRs among its pairs, which
    changes from seed to seed, instead of the number of pairs probed.
    """
    fe = cfg.frontend()
    n0s = [_n0_for_snr(cfg, snr_db) for snr_db, _, _ in probes]
    outcome = [None] * len(probes)
    errors = [0] * len(probes)
    nbits = 0
    vectors = 0
    active = list(range(len(probes)))
    for wave in _waves(cfg.vectors_per_block, probe_cap):
        def run(args, live=tuple(active)):
            drawn = _draw_block(cfg, mode, _P_PROBE, tag, args[0], args[1], H_fixed)
            at = {n0: s for s, n0 in enumerate(dict.fromkeys(n0s[i] for i in live))}
            w = _block_weights(cfg, drawn, list(at))
            block_errors = []
            for i in live:
                _, tau_w, tau_y = probes[i]
                x = front_end(mode, _receive(drawn, [n0s[i]]), replace(fe, tau_y=tau_y))
                block_errors.append(_score(cfg, mode, drawn[1], w[at[n0s[i]]].retag(tau_w), x,
                                           fe.gain)[0])
            return block_errors

        for block_errors in block_map(run, wave):
            for i, err in zip(active, block_errors):
                errors[i] += err
        n = sum(size for _, size in wave)
        vectors += n
        nbits += cfg.U * cfg.bits_per_symbol * n
        for i in active:
            lo, hi = _wilson(errors[i], nbits)
            if hi < target:
                outcome[i] = ("below", errors[i] / nbits, vectors)
            elif lo > target:
                outcome[i] = ("above", errors[i] / nbits, vectors)
        active = [i for i in active if outcome[i] is None]
        if not active:
            break
    for i in active:
        ber = errors[i] / nbits if nbits else 0.0
        outcome[i] = ("below" if ber <= target else "above", ber, vectors)
    return outcome


def _bisection(lo_db: float, hi_db: float, tol_db: float):
    """Operating-point search: yields each probe SNR and is sent that probe's side.

    Returns None when even hi_db stays above the target, lo_db when lo_db is
    already below it, else the upper end of the final bracket.
    """
    if (yield hi_db) == "above":
        return None
    if (yield lo_db) == "below":
        return lo_db
    lo, hi = lo_db, hi_db
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if (yield mid) == "above":
            lo = mid
        else:
            hi = mid
    return hi


def _operating_points(cfg: RunConfig, mode: str, pairs: list, target: float, lo_db: float,
                      hi_db: float, tol_db: float, probe_cap: int,
                      H_fixed: ChannelMatrix | None) -> list[tuple[float | None, list]]:
    """Bisect every threshold pair's operating point in lockstep.

    Probe k of every pair uses stream tag k, so round k probes all pairs still
    searching on shared blocks. Returns the operating point and the (snr, ber,
    vectors) probe list of each pair.
    """
    if not 0.0 < target < 0.5:
        raise ValueError("target_ber must be in (0, 0.5)")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    searches = [_bisection(lo_db, hi_db, tol_db) for _ in pairs]
    pending = {i: next(search) for i, search in enumerate(searches)}
    curves = [[] for _ in pairs]
    ops = [None] * len(pairs)
    tag = 0
    with _block_map(cfg.workers) as block_map:
        while pending:
            order = list(pending)
            outcomes = _probe_round(cfg, mode, tag, [(pending[i], *pairs[i]) for i in order],
                                    target, probe_cap, H_fixed, block_map)
            for i, (side, ber, vectors) in zip(order, outcomes):
                curves[i].append((pending[i], ber, vectors))
                try:
                    pending[i] = searches[i].send(side)
                except StopIteration as done:
                    ops[i] = done.value
                    del pending[i]
            tag += 1
    return list(zip(ops, curves))


def snr_operating_point(config: RunConfig, mode: str, target_ber: float = 0.01,
                        lo_db: float = -10.0, hi_db: float = 40.0,
                        tol_db: float = 0.1, probe_cap: int = 200_000,
                        curve: list | None = None) -> float | None:
    """Minimum SNR reaching the target BER, or None when unreached in range."""
    [(op, probes)] = _operating_points(config, mode, [(config.tau_w, config.tau_y)], target_ber,
                                       lo_db, hi_db, tol_db, probe_cap,
                                       _load_fixed_channel(config))
    if curve is not None:
        curve.extend(probes)
    return op


# ---------------------------------------------------------------------------
# Activity-rate measurement and the threshold-pair sweep
# ---------------------------------------------------------------------------

def default_grid() -> np.ndarray:
    """Default 8-point logarithmic threshold grid over [2^-9, 2^-1]."""
    return np.geomspace(2.0**-9, 2.0**-1, 8)


def activity_grid(config: RunConfig, mode: str, snr_db: float, tau_w_grid,
                  tau_y_grid, draws: int = 1000, vectors_per_draw: int = 2,
                  per_draw: bool = False):
    """Mean multiplier activity rate for every threshold pair, matched seeds.

    Channel, symbol, and noise realizations depend only on (seed, draw index),
    so the measurement is pointwise monotone along both grid axes. Counting
    uses the separability of the skip predicate: skipped products per column
    reduce to a dot product of per-column bit counts.
    """
    tau_w_grid = [float(t) for t in tau_w_grid]
    tau_y_grid = [float(t) for t in tau_y_grid]
    nw, ny = len(tau_w_grid), len(tau_y_grid)
    if mode != "lmmse-spade":
        ones = np.ones((nw, ny, draws)) if per_draw else np.ones((nw, ny))
        return ones
    [rates] = _activity_rates(config, [(snr_db, tau_w_grid, tau_y_grid)], draws,
                              vectors_per_draw, _load_fixed_channel(config))
    return rates if per_draw else rates.mean(axis=2)


def _activity_rates(config: RunConfig, grids: list, draws: int, vectors_per_draw: int,
                    H_fixed: ChannelMatrix | None) -> list[np.ndarray]:
    """Per-draw lmmse-spade activity, an (nw, ny, draws) array per (snr_db, tau_w, tau_y) grid.

    Each draw is drawn once and finished for all the grids' SNRs at once.
    """
    fe = config.frontend()
    wfmt = config.weight_fmt if config.quantized else None
    # every grid's thresholds index into one list per axis, compared at once
    tw_all = list(dict.fromkeys(t for _, tws, _ in grids for t in tws))
    ty_all = list(dict.fromkeys(t for _, _, tys in grids for t in tys))
    w_thr = np.array([_threshold_raw(t, wfmt) for t in tw_all])[:, None, None, None]
    y_thr = np.array([_threshold_raw(t, fe.input_fmt) for t in ty_all])[:, None, None, None]
    picks = [np.ix_([tw_all.index(t) for t in tws], [ty_all.index(t) for t in tys])
             for _, tws, tys in grids]
    n0s = [_n0_for_snr(config, snr_db) for snr_db, _, _ in grids]
    per_mvm_total = 4 * config.B * config.U * vectors_per_draw
    rates = [np.zeros((len(tws), len(tys), draws)) for _, tws, tys in grids]
    for d in range(draws):
        drawn = _draw_block(config, "lmmse-spade", _P_ACTIVITY, 0, d, vectors_per_draw, H_fixed)
        w = _block_weights(config, drawn, n0s)
        x = front_end("lmmse-spade", _receive(drawn, n0s), fe)
        yre, yim = (z.reshape(config.B, len(n0s), -1) for z in (x.re, x.im))
        # per-column counts of set bits, (threshold, SNR, column) for the
        # weights and (threshold, column, SNR) for the inputs; the skipped total
        # of a pair is the dot of its two count rows
        w_counts = (np.abs(w.re) < w_thr).sum(axis=2) + (np.abs(w.im) < w_thr).sum(axis=2)
        y_counts = (np.abs(yre) < y_thr).sum(axis=3) + (np.abs(yim) < y_thr).sum(axis=3)
        skipped = np.einsum("wsb,ybs->swy", w_counts, y_counts)
        active = (per_mvm_total - skipped) / per_mvm_total
        for pick, act, r in zip(picks, active, rates):
            r[:, :, d] = act[pick]
    return rates


def mean_activity(config: RunConfig, mode: str, snr_db: float, draws: int = 1000,
                  vectors_per_draw: int = 2) -> float:
    """Mean activity rate at the config's own threshold pair."""
    grid = activity_grid(config, mode, snr_db, [config.tau_w], [config.tau_y],
                         draws=draws, vectors_per_draw=vectors_per_draw)
    return float(grid[0, 0])


def threshold_sweep(config: RunConfig, tau_w_grid, tau_y_grid,
                    mode: str = "lmmse-spade", target_ber: float = 0.01,
                    activity_draws: int = 1000, vectors_per_draw: int = 2,
                    probe_cap: int = 100_000, hi_db: float = 40.0) -> list[SweepRecord]:
    """Operating point and activity for every threshold pair, sorted by activity.

    Activity is measured at each pair's own operating point (at the top of the
    probe range when the target is unreached). Records on the activity/SNR
    Pareto frontier are flagged.

    All pairs bisect in lockstep (see :func:`_operating_points`), so each
    block is drawn once per probe round, not once per pair, and its weights
    are computed once per probe SNR; activity is measured on one grid per
    distinct activity SNR, all grids sharing each draw.
    """
    pairs = [(float(tw), float(ty)) for tw in tau_w_grid for ty in tau_y_grid]
    H_fixed = _load_fixed_channel(config)
    searched = _operating_points(config, mode, pairs, target_ber, -10.0, hi_db, 0.1, probe_cap,
                                 H_fixed)
    act_snrs = [hi_db if op is None else op for op, _ in searched]
    grids = {}
    for (tw, ty), snr in zip(pairs, act_snrs):
        tws, tys = grids.setdefault(snr, ({}, {}))
        tws.setdefault(tw, len(tws))
        tys.setdefault(ty, len(tys))
    if mode == "lmmse-spade":
        rates = _activity_rates(config, [(snr, list(tws), list(tys))
                                         for snr, (tws, tys) in grids.items()],
                                activity_draws, vectors_per_draw, H_fixed)
        means = dict(zip(grids, (r.mean(axis=2) for r in rates)))
        activity = [float(means[snr][grids[snr][0][tw], grids[snr][1][ty]])
                    for (tw, ty), snr in zip(pairs, act_snrs)]
    else:
        activity = [1.0] * len(pairs)
    records = [SweepRecord(tau_w=tw, tau_y=ty, mean_activity_rate=act,
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
    cfg = report.config
    rows = []
    for p in report.points:
        rows.append({
            "mode": report.mode,
            "B": cfg.B,
            "U": cfg.U,
            "M": cfg.M,
            "channel_kind": cfg.channel,
            "snr_db": p.snr_db,
            "trials": p.trials,
            "bit_errors": p.bit_errors,
            "ber": p.ber,
            "activity_mean": p.activity_mean,
            "activity_min": p.activity_min,
            "activity_max": p.activity_max,
            "tau_w": cfg.tau_w,
            "tau_y": cfg.tau_y,
            "seed": report.seed,
        })
    return rows


def _csv_cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def render_report(report: RunReport, fmt: str = "csv") -> str:
    """Serialize a run report; byte-stable for a fixed report."""
    rows = report_rows(report)
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for row in rows:
            lines.append(",".join(_csv_cell(row[k]) for k in _CSV_HEADER.split(",")))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"schema_version": 1, "rows": rows}, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(report: RunReport, path: str, fmt: str = "csv") -> None:
    """Write a run report to a file; see :func:`render_report`."""
    text = render_report(report, fmt)
    with open(path, "w", encoding="ascii") as f:
        f.write(text)


def load_report_json(path: str) -> list[dict]:
    with open(path, "r", encoding="ascii") as f:
        doc = json.load(f)
    if doc.get("schema_version") != 1:
        raise ValueError("unsupported report schema")
    return doc["rows"]


def emit_sweep(records: list[SweepRecord], path: str) -> None:
    """CSV artifact of a threshold sweep (activity vs operating point)."""
    with open(path, "w", encoding="ascii") as f:
        f.write("tau_w,tau_y,mean_activity_rate,snr_operating_point_db,pareto\n")
        for r in records:
            op = "unreached" if r.snr_operating_point_db is None else repr(r.snr_operating_point_db)
            f.write(f"{r.tau_w!r},{r.tau_y!r},{r.mean_activity_rate!r},{op},{int(r.pareto)}\n")
