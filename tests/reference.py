"""Independent oracles for the test suite.

Everything here is deliberately naive: scalar loops, Python integers, direct
formulas. Nothing imports the production kernels it checks.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


def q_func(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_func_inv(p: float) -> float:
    return -NormalDist().inv_cdf(p)


def nearest_representable(x: float, total_bits: int, frac_bits: int):
    """Exhaustive scan of a format's value set for the nearest (ties to even raw)."""
    raws = range(-(1 << (total_bits - 1)), (1 << (total_bits - 1)))
    scale = 1 << frac_bits
    best_raw = None
    best_err = None
    for raw in raws:
        err = abs(raw / scale - x)
        if best_err is None or err < best_err or (err == best_err and raw % 2 == 0):
            best_raw, best_err = raw, err
    return best_raw


def dft_oracle_matrix(B: int) -> np.ndarray:
    """Direct double-loop unitary DFT matrix."""
    F = np.empty((B, B), dtype=complex)
    for m in range(B):
        for n in range(B):
            F[m, n] = np.exp(-2j * np.pi * m * n / B)
    return F / np.sqrt(B)


def naive_dotp(w_re, w_im, cw_re, cw_im, y_re, y_im, cy_re, cy_im, save_power):
    """Enumerate all 4B real products of one row with Python integers.

    Inputs are raw integers (or floats in unquantized mode) plus the four bit
    vectors. Returns (acc_re, acc_im, executed).
    """
    acc_re = 0
    acc_im = 0
    executed = 0
    B = len(y_re)
    for b in range(B):
        # p1 = wR*yR, p2 = wI*yI, p3 = wR*yI, p4 = wI*yR
        products = [
            (w_re[b], y_re[b], cw_re[b] and cy_re[b]),
            (w_im[b], y_im[b], cw_im[b] and cy_im[b]),
            (w_re[b], y_im[b], cw_re[b] and cy_im[b]),
            (w_im[b], y_re[b], cw_im[b] and cy_re[b]),
        ]
        vals = []
        for op_a, op_b, skip in products:
            if save_power and skip:
                vals.append(0)
            else:
                vals.append(op_a * op_b)
                executed += 1
        acc_re += vals[0] - vals[1]
        acc_im += vals[2] + vals[3]
    return acc_re, acc_im, executed


def mute_mask(weights, x) -> np.ndarray:
    """Dense (U, B, 4) mute mask of one tagged vector: register r of CM (u, b) is
    muted iff both operands' comparison bits are set, in the product order
    (w_re*y_re, w_im*y_im, w_re*y_im, w_im*y_re)."""
    mask = np.empty((weights.U, weights.B, 4), dtype=bool)
    mask[:, :, 0] = weights.cw_re & x.cy_re[None, :]
    mask[:, :, 1] = weights.cw_im & x.cy_im[None, :]
    mask[:, :, 2] = weights.cw_re & x.cy_im[None, :]
    mask[:, :, 3] = weights.cw_im & x.cy_re[None, :]
    return mask


def mute_trace_csv(cycles, masks, B: int) -> str:
    """The mute-trace CSV written from dense per-cycle masks, one row per muted register."""
    lines = ["cycle,cm,register"]
    for cycle, mask in zip(cycles, masks):
        for u, b, r in zip(*np.nonzero(mask)):
            lines.append(f"{cycle},{u * B + b},{r}")
    return "\n".join(lines) + "\n"


def naive_threshold_raw(tau: float, frac_bits: int) -> int:
    """Round-half-even of tau * 2^frac via the fraction's exact halves."""
    scaled = tau * (1 << frac_bits)
    floor = math.floor(scaled)
    rem = scaled - floor
    if rem > 0.5:
        return floor + 1
    if rem < 0.5:
        return floor
    return floor if floor % 2 == 0 else floor + 1


def gray_code_bits(index: int, nbits: int) -> list[int]:
    g = index ^ (index >> 1)
    return [(g >> (nbits - 1 - i)) & 1 for i in range(nbits)]


def qam_constellation(M: int, Es: float) -> dict[tuple[int, ...], complex]:
    """Every bit pattern's constellation point, built from first principles."""
    m = int(round(math.sqrt(M)))
    half = int(math.log2(M)) // 2
    scale = math.sqrt(3.0 * Es / (2.0 * (M - 1)))
    points = {}
    for i in range(m):
        for q in range(m):
            bits = tuple(gray_code_bits(i, half) + gray_code_bits(q, half))
            points[bits] = scale * complex(2 * i - (m - 1), 2 * q - (m - 1))
    return points


def radix4_recursive(x: np.ndarray, twiddle_fmt) -> np.ndarray:
    """Recursive radix-4 DIT FFT with quantized twiddles, unnormalized.

    The formulation the stage-wise production kernel must match bit for bit:
    split into the four x[r::4] subsequences, transform each, apply the
    quantized twiddles, combine with the exact +-1/+-j butterfly.
    """
    from spadesim.numerics import dequantize, quantize_raw

    n = x.shape[0]
    if n == 1:
        return x.astype(np.complex128)
    f0, f1, f2, f3 = (radix4_recursive(x[r::4], twiddle_fmt) for r in range(4))
    k = np.arange(n // 4)
    tw = []
    for p in (1, 2, 3):
        w = np.exp(-2j * np.pi * ((p * k) % n) / n)
        wq = dequantize(quantize_raw(w.real, twiddle_fmt), twiddle_fmt) \
            + 1j * dequantize(quantize_raw(w.imag, twiddle_fmt), twiddle_fmt)
        tw.append(wq.reshape((-1,) + (1,) * (x.ndim - 1)))
    w1, w2, w3 = tw
    t0, t1, t2, t3 = f0, w1 * f1, w2 * f2, w3 * f3
    return np.concatenate(
        [
            t0 + t1 + t2 + t3,
            t0 - 1j * t1 - t2 + 1j * t3,
            t0 - t1 + t2 - t3,
            t0 + 1j * t1 - t2 - 1j * t3,
        ],
        axis=0,
    )


def draw_channel_matrix_per_user(kind: str, B: int, U: int, rng: np.random.Generator) -> np.ndarray:
    """One user at a time: draw the profile, truncate to B paths, synthesize, normalize.

    Profiles: "los" is a dominant path 10 dB above two Rayleigh reflections,
    "nlos" twelve Rayleigh paths decaying 3 dB per index. Returns the B x U
    antenna-domain entries with every column at squared norm B.
    """
    cols = []
    n = np.arange(B)
    for _ in range(U):
        if kind == "los":
            reflect = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)
            dominant_power = 10 ** (10.0 / 10) * np.sum(np.abs(reflect) ** 2)
            phase = rng.uniform(0.0, 2 * np.pi)
            gains = np.concatenate(([np.sqrt(dominant_power) * np.exp(1j * phase)], reflect))
            freqs = rng.uniform(-np.pi, np.pi, size=3)
        elif kind == "nlos":
            sigma = np.sqrt(10 ** (-3.0 * np.arange(12) / 10))
            gains = sigma * (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / np.sqrt(2)
            freqs = rng.uniform(-np.pi, np.pi, size=12)
        else:
            raise ValueError(f"unknown profile kind {kind!r}")
        gains, freqs = gains[:B], freqs[:B]
        h = np.exp(1j * np.outer(n, freqs)) @ gains
        cols.append(h * (np.sqrt(B) / np.linalg.norm(h)))
    return np.stack(cols, axis=1)


def qam_modulate_formula(bitgroups: np.ndarray, M: int, Es: float) -> np.ndarray:
    """Gray-mapped square QAM evaluated per symbol: scale * (li + 1j*lq)."""
    k = int(math.log2(M))
    m = int(round(math.sqrt(M)))
    half = k // 2
    bitgroups = np.asarray(bitgroups)
    weights = 1 << np.arange(half - 1, -1, -1)

    def level(g):
        n = g.copy()
        for shift in (1, 2, 4, 8, 16):
            n ^= n >> shift
        return 2 * n - (m - 1)

    li = level((bitgroups[..., :half] * weights).sum(axis=-1))
    lq = level((bitgroups[..., half:] * weights).sum(axis=-1))
    return np.sqrt(3.0 * Es / (2.0 * (M - 1))) * (li + 1j * lq)


def qam_demodulate_formula(symbols: np.ndarray, M: int, Es: float) -> np.ndarray:
    """Hard slicing per axis: nearest level index (ties to the lower level), Gray-encoded, shifted out MSB first."""
    m = int(round(math.sqrt(M)))
    half = int(math.log2(M)) // 2
    c = math.sqrt(3.0 * Es / (2.0 * (M - 1)))
    symbols = np.asarray(symbols)

    def axis_bits(x):
        idx = np.ceil((x / c + (m - 1)) / 2.0 - 0.5).astype(np.int64)
        idx = np.clip(idx, 0, m - 1)
        g = idx ^ (idx >> 1)
        shifts = np.arange(half - 1, -1, -1)
        return ((g[..., None] >> shifts) & 1).astype(np.uint8)

    return np.concatenate([axis_bits(symbols.real), axis_bits(symbols.imag)], axis=-1)


def _probe_per_pair(cfg, mode, snr_db, tag, target, probe_cap):
    """One pair's probe: waves of blocks, each block equalized on its own, until the
    95% Wilson interval excludes the target BER or probe_cap vectors are spent."""
    from spadesim.channel import draw_channel_matrix, qam_demodulate, qam_modulate
    from spadesim.equalizer import equalize_block
    from spadesim.harness import _P_PROBE, _WAVE_BLOCKS, _build_weights, _wilson, derive_stream

    n0 = cfg.U * cfg.Es / 10 ** (snr_db / 10.0)
    k = cfg.bits_per_symbol
    errors = nbits = vectors = block_idx = 0
    while vectors < probe_cap:
        for _ in range(_WAVE_BLOCKS):
            size = min(cfg.vectors_per_block, probe_cap - vectors)
            if size == 0:
                break
            rng = derive_stream(cfg.seed, _P_PROBE, tag, block_idx)
            H = draw_channel_matrix(cfg.channel, cfg.B, cfg.U, rng)
            wa, wb = _build_weights(cfg, H, mode, n0)
            bits = rng.integers(0, 2, size=(cfg.U, size, k), dtype=np.uint8)
            y = H.entries @ qam_modulate(bits, cfg.M, cfg.Es)
            noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
            s_hat, _ = equalize_block(mode, wa, wb, y + noise * math.sqrt(n0 / 2.0), cfg.frontend())
            errors += int((bits != qam_demodulate(s_hat, cfg.M, cfg.Es)).sum())
            nbits += cfg.U * k * size
            vectors += size
            block_idx += 1
        lo, hi = _wilson(errors, nbits)
        if hi < target:
            return "below", errors / nbits, vectors
        if lo > target:
            return "above", errors / nbits, vectors
    ber = errors / nbits if nbits else 0.0
    return ("below" if ber <= target else "above"), ber, vectors


def threshold_sweep_per_pair(config, tau_w_grid, tau_y_grid, mode="lmmse-spade", target_ber=0.01,
                             activity_draws=1000, vectors_per_draw=2, probe_cap=100_000,
                             hi_db=40.0):
    """One bisection and one activity measurement per threshold pair, nothing shared.

    What the lockstep sweep must reproduce record for record: each probe k uses
    stream tag k and runs its own blocks. Sorted by activity, Pareto frontier
    flagged. Drawn channels only (no channel file).
    """
    from dataclasses import replace

    from spadesim.harness import SweepRecord, mean_activity

    records = []
    for tw in tau_w_grid:
        for ty in tau_y_grid:
            cfg = replace(config, tau_w=float(tw), tau_y=float(ty))
            curve = []

            def probe(snr):
                side, ber, vectors = _probe_per_pair(cfg, mode, snr, len(curve), target_ber,
                                                     probe_cap)
                curve.append((snr, ber, vectors))
                return side

            lo, hi = -10.0, hi_db
            if probe(hi) == "above":
                op = None
            elif probe(lo) == "below":
                op = lo
            else:
                while hi - lo > 0.1:
                    mid = 0.5 * (lo + hi)
                    if probe(mid) == "above":
                        lo = mid
                    else:
                        hi = mid
                op = hi
            act = mean_activity(cfg, mode, hi_db if op is None else op, draws=activity_draws,
                                vectors_per_draw=vectors_per_draw)
            records.append(SweepRecord(tau_w=float(tw), tau_y=float(ty), mean_activity_rate=act,
                                       snr_operating_point_db=op, ber_curve=curve))
    records.sort(key=lambda r: (r.mean_activity_rate, r.tau_w, r.tau_y))
    op_of = lambda r: math.inf if r.snr_operating_point_db is None else r.snr_operating_point_db
    for r in records:
        r.pareto = not any(
            o.mean_activity_rate <= r.mean_activity_rate and op_of(o) <= op_of(r)
            and (o.mean_activity_rate < r.mean_activity_rate or op_of(o) < op_of(r))
            for o in records)
    return records
