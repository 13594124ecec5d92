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
    FrontEnd,
    build_weights,
    compute_lmmse,
    equalize_block,
    scale_rows,
    _threshold_raw,
)
from .numerics import INPUT_FMT, TWIDDLE_FMT, WEIGHT_FMT, QFormat, quantize_raw

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
_M64 = (1 << 64) - 1


def derive_stream(seed: int, purpose: int, tag: int, index: int) -> np.random.Generator:
    """Independent Philox stream keyed by (seed, purpose, tag, index).

    purpose, tag and index are packed into 16, 16 and 32 bits of one key word;
    a value that does not fit would alias another stream, so it raises.
    """
    for name, value, bits in (("purpose", purpose, 16), ("tag", tag, 16), ("index", index, 32)):
        if not 0 <= value < 1 << bits:
            raise ValueError(f"stream {name} {value} outside [0, 2**{bits})")
    hi = (purpose << 48) | (tag << 32) | index
    key = np.array([seed & _M64, hi], dtype=np.uint64)
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
    fmt = cfg.weight_fmt if cfg.quantized else None
    if mode == "lmmse-a":
        V = compute_lmmse(H, n0, cfg.Es)
        W, a = scale_rows(V, cfg.epsilon)
        return build_weights(W, a, cfg.tau_w, fmt, "antenna"), None
    Hb = ChannelMatrix(to_beamspace(H.entries), "beamspace")
    V = compute_lmmse(Hb, n0, cfg.Es)
    W, a = scale_rows(V, cfg.epsilon)
    return None, build_weights(W, a, cfg.tau_w, fmt, "beamspace")


def _run_block(cfg: RunConfig, mode: str, n0: float, purpose: int, tag: int,
               block_idx: int, n_vectors: int, H_fixed: ChannelMatrix | None):
    """One coherence block: draw channel, preprocess once, equalize a burst."""
    rng = derive_stream(cfg.seed, purpose, tag, block_idx)
    H = H_fixed if H_fixed is not None else draw_channel_matrix(cfg.channel, cfg.B, cfg.U, rng)
    wa, wb = _build_weights(cfg, H, mode, n0)
    k = cfg.bits_per_symbol
    bits = rng.integers(0, 2, size=(cfg.U, n_vectors, k), dtype=np.uint8)
    symbols = qam_modulate(bits, cfg.M, cfg.Es)
    y_bar = H.entries @ symbols
    if n0 > 0.0:
        noise = rng.standard_normal(y_bar.shape) + 1j * rng.standard_normal(y_bar.shape)
        y_bar = y_bar + noise * math.sqrt(n0 / 2.0)
    s_hat, report = equalize_block(mode, wa, wb, y_bar, cfg.frontend())
    bits_hat = qam_demodulate(s_hat, cfg.M, cfg.Es)
    errors = int((bits != bits_hat).sum())
    per_vec = report.per_vector
    return (errors, cfg.U * k * n_vectors, n_vectors,
            int(per_vec.sum()), int(per_vec.min()), int(per_vec.max()))


def _ber_point(cfg: RunConfig, mode: str, n0: float, purpose: int, tag: int,
               stop: StopRule, H_fixed: ChannelMatrix | None):
    errors = 0
    nbits = 0
    vectors = 0
    exec_sum = 0
    exec_min = None
    exec_max = None
    block_idx = 0
    pool = ThreadPoolExecutor(cfg.workers) if cfg.workers > 1 else None
    try:
        while vectors < stop.max_vectors and errors < stop.target_errors:
            wave = []
            planned = vectors
            for _ in range(_WAVE_BLOCKS):
                size = min(cfg.vectors_per_block, stop.max_vectors - planned)
                if size == 0:
                    break
                wave.append((block_idx, size))
                block_idx += 1
                planned += size
            run = lambda args: _run_block(cfg, mode, n0, purpose, tag, args[0], args[1], H_fixed)
            results = list(pool.map(run, wave)) if pool else [run(a) for a in wave]
            for err, nb, nv, es, emin, emax in results:
                errors += err
                nbits += nb
                vectors += nv
                exec_sum += es
                exec_min = emin if exec_min is None else min(exec_min, emin)
                exec_max = emax if exec_max is None else max(exec_max, emax)
    finally:
        if pool:
            pool.shutdown()
    per_mvm = 4 * cfg.B * cfg.U
    return SnrPoint(
        snr_db=float("nan"),  # caller fills in
        trials=vectors,
        bit_errors=errors,
        ber=errors / nbits if nbits else 0.0,
        activity_mean=exec_sum / (per_mvm * vectors) if vectors else 1.0,
        activity_min=(exec_min / per_mvm) if exec_min is not None else 1.0,
        activity_max=(exec_max / per_mvm) if exec_max is not None else 1.0,
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
        n0 = _n0_for_snr(config, snr_db)
        SystemConfig(B=config.B, U=config.U, M=config.M, Es=config.Es,
                     N0=n0, mode=mode, seed=config.seed)
        pt = _ber_point(config, mode, n0, _P_BER, i, stop, H_fixed)
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


def _probe(cfg: RunConfig, mode: str, snr_db: float, tag: int, target: float,
           probe_cap: int, H_fixed: ChannelMatrix | None):
    """Run trials at one SNR until the 95% interval excludes the target BER."""
    n0 = _n0_for_snr(cfg, snr_db)
    errors = 0
    nbits = 0
    vectors = 0
    block_idx = 0
    pool = ThreadPoolExecutor(cfg.workers) if cfg.workers > 1 else None
    try:
        while vectors < probe_cap:
            wave = []
            planned = vectors
            for _ in range(_WAVE_BLOCKS):
                size = min(cfg.vectors_per_block, probe_cap - planned)
                if size == 0:
                    break
                wave.append((block_idx, size))
                block_idx += 1
                planned += size
            run = lambda args: _run_block(cfg, mode, n0, _P_PROBE, tag, args[0], args[1], H_fixed)
            results = list(pool.map(run, wave)) if pool else [run(a) for a in wave]
            for err, nb, nv, *_ in results:
                errors += err
                nbits += nb
                vectors += nv
            lo, hi = _wilson(errors, nbits)
            if hi < target:
                return "below", errors / nbits, vectors
            if lo > target:
                return "above", errors / nbits, vectors
    finally:
        if pool:
            pool.shutdown()
    ber = errors / nbits if nbits else 0.0
    return ("below" if ber <= target else "above"), ber, vectors


def snr_operating_point(config: RunConfig, mode: str, target_ber: float = 0.01,
                        lo_db: float = -10.0, hi_db: float = 40.0,
                        tol_db: float = 0.1, probe_cap: int = 200_000,
                        curve: list | None = None) -> float | None:
    """Minimum SNR reaching the target BER, or None when unreached in range."""
    if not 0.0 < target_ber < 0.5:
        raise ValueError("target_ber must be in (0, 0.5)")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    H_fixed = _load_fixed_channel(config)
    tag = 0

    def probe(snr):
        nonlocal tag
        side, ber, vectors = _probe(config, mode, snr, tag, target_ber, probe_cap, H_fixed)
        if curve is not None:
            curve.append((snr, ber, vectors))
        tag += 1
        return side

    if probe(hi_db) == "above":
        return None
    if probe(lo_db) == "below":
        return lo_db
    lo, hi = lo_db, hi_db
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if probe(mid) == "above":
            lo = mid
        else:
            hi = mid
    return hi


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
    n0 = _n0_for_snr(config, snr_db)
    H_fixed = _load_fixed_channel(config)
    fe = config.frontend()
    k = config.bits_per_symbol
    per_mvm_total = 4 * config.B * config.U * vectors_per_draw
    rates = np.zeros((nw, ny, draws))
    for d in range(draws):
        rng = derive_stream(config.seed, _P_ACTIVITY, 0, d)
        H = H_fixed if H_fixed is not None else draw_channel_matrix(config.channel, config.B, config.U, rng)
        Hb = ChannelMatrix(to_beamspace(H.entries), "beamspace")
        V = compute_lmmse(Hb, n0, config.Es)
        W, _alpha = scale_rows(V, config.epsilon)
        bits = rng.integers(0, 2, size=(config.U, vectors_per_draw, k), dtype=np.uint8)
        symbols = qam_modulate(bits, config.M, config.Es)
        y_bar = H.entries @ symbols
        if n0 > 0.0:
            noise = rng.standard_normal(y_bar.shape) + 1j * rng.standard_normal(y_bar.shape)
            y_bar = y_bar + noise * math.sqrt(n0 / 2.0)
        X = to_beamspace(config.input_gain * y_bar, fe.twiddle)
        if config.quantized:
            wre = np.abs(quantize_raw(W.real, config.weight_fmt))
            wim = np.abs(quantize_raw(W.imag, config.weight_fmt))
            xre = np.abs(quantize_raw(X.real, config.input_fmt))
            xim = np.abs(quantize_raw(X.imag, config.input_fmt))
            w_thresh = [_threshold_raw(t, config.weight_fmt) for t in tau_w_grid]
            y_thresh = [_threshold_raw(t, config.input_fmt) for t in tau_y_grid]
        else:
            wre, wim = np.abs(W.real), np.abs(W.imag)
            xre, xim = np.abs(X.real), np.abs(X.imag)
            w_thresh, y_thresh = tau_w_grid, tau_y_grid
        # per-column counts of set bits; the skipped total for a pair is their dot
        w_counts = [(wre < t).sum(axis=0) + (wim < t).sum(axis=0) for t in w_thresh]
        y_counts = [(xre < t).sum(axis=1) + (xim < t).sum(axis=1) for t in y_thresh]
        for iw, wc in enumerate(w_counts):
            for iy, yc in enumerate(y_counts):
                skipped = int(wc @ yc)
                rates[iw, iy, d] = (per_mvm_total - skipped) / per_mvm_total
    return rates if per_draw else rates.mean(axis=2)


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
    """
    records = []
    for tw in tau_w_grid:
        for ty in tau_y_grid:
            cfg = replace(config, tau_w=float(tw), tau_y=float(ty))
            curve: list[tuple[float, float, int]] = []
            op = snr_operating_point(cfg, mode, target_ber, hi_db=hi_db,
                                     probe_cap=probe_cap, curve=curve)
            act_snr = op if op is not None else hi_db
            act = mean_activity(cfg, mode, act_snr, draws=activity_draws,
                                vectors_per_draw=vectors_per_draw)
            records.append(SweepRecord(tau_w=float(tw), tau_y=float(ty),
                                       mean_activity_rate=act,
                                       snr_operating_point_db=op,
                                       ber_curve=curve))
    records.sort(key=lambda r: (r.mean_activity_rate, r.tau_w, r.tau_y))
    for r in records:
        r_op = math.inf if r.snr_operating_point_db is None else r.snr_operating_point_db
        r.pareto = not any(
            (o.mean_activity_rate <= r.mean_activity_rate)
            and ((math.inf if o.snr_operating_point_db is None else o.snr_operating_point_db) <= r_op)
            and (
                o.mean_activity_rate < r.mean_activity_rate
                or (math.inf if o.snr_operating_point_db is None else o.snr_operating_point_db) < r_op
            )
            for o in records
        )
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
