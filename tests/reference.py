"""Independent oracles for the test suite.

Everything here is deliberately naive: scalar loops, Python integers, direct
formulas. Nothing imports the production kernels it checks.
``weights_for_mode`` is a helper, not an oracle: it calls the production
quantizer and row scaling for tests that check something else.
``equalize_pairs_untiled`` and ``to_beamspace_untiled`` are the masked
product and the radix-4 transform as they were before column tiling, kept
whole to check the tiled kernels' bytes against.
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


def lmmse_per_matrix(Hm: np.ndarray, n0: float, Es: float) -> np.ndarray:
    """One LMMSE matrix, (H^H H + (N0/Es) I)^-1 H^H, with its own Gram matrix and solve."""
    G = Hm.conj().T @ Hm + (n0 / Es) * np.eye(Hm.shape[1])
    return np.linalg.solve(G, Hm.conj().T)


def weights_for_mode(cfg, H, mode: str, n0: float):
    """(antenna, beamspace) weights of an antenna-domain channel; the mode's other one is None."""
    from spadesim.beamspace import to_beamspace
    from spadesim.equalizer import build_weights, scale_rows

    Hm = H.entries if mode == "lmmse-a" else to_beamspace(H.entries)
    W, a = scale_rows(lmmse_per_matrix(Hm, n0, cfg.Es), cfg.epsilon)
    domain = "antenna" if mode == "lmmse-a" else "beamspace"
    w = build_weights(W, a, cfg.tau_w, cfg.weight_fmt if cfg.quantized else None, domain)
    return (w, None) if mode == "lmmse-a" else (None, w)


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


def equalize_pairs_untiled(weights, x, taus: list, save_power: bool, gain: float = 1.0):
    """:func:`spadesim.equalizer.equalize_pairs` over the whole block at once, untiled.

    The full products, the per-``tau_y`` masking, the stacked masked
    products, the skip counts and the descale each run once on all the
    block's columns; the comparison bits come from :func:`naive_bits`, and
    the raws are masked and the set bits counted here, not by the kernel.
    Float raws are multiplied C-ordered, as the kernel scores them (a float
    GEMM's bytes depend on its operand's memory order). Returns what
    ``equalize_pairs`` returns.
    """
    from spadesim.equalizer import _check_accumulator, _threshold_raw

    def skippable(raws, tau, fmt):
        # (re, im) raws with unset bits zeroed, and the set bits (0-2) per entry
        bits = [naive_bits(r, tau, fmt) for r in raws]
        return [r * b for r, b in zip(raws, bits)], bits[0].astype(np.int64) + bits[1]

    if x.B != weights.B:
        raise ValueError("length mismatch")
    if (weights.fmt is None) != (x.fmt is None):
        raise ValueError("weights and input must agree on quantization")
    if weights.fmt is not None:
        _check_accumulator(weights.fmt, x.fmt, weights.B)
    cols = x.re.shape[1:]
    wre, wim = weights.re, weights.im
    yre, yim = x.re.reshape(x.B, -1), x.im.reshape(x.B, -1)
    if weights.fmt is None:
        yre, yim = np.ascontiguousarray(yre), np.ascontiguousarray(yim)
    full_re, full_im = wre @ yre - wim @ yim, wre @ yim + wim @ yre
    products = 4 * wre.size
    vs = 1.0 if weights.fmt is None else 1.0 / (weights.fmt.scale * x.fmt.scale)
    groups = {}
    w_skip = {}
    for i, (tau_w, tau_y) in enumerate(taus):
        _threshold_raw(tau_w, weights.fmt)
        _threshold_raw(tau_y, x.fmt)
        groups.setdefault(tau_y, []).append(i)
        if save_power and tau_w not in w_skip:
            wm, counts = skippable((wre, wim), tau_w, weights.fmt)
            w_skip[tau_w] = np.stack(wm)[None], counts.sum(axis=0)[None]
    out = []
    for tau_y, indices in groups.items():
        k = len(indices)
        if not save_power:
            acc_re, acc_im = (np.broadcast_to(a, (k, *a.shape)) for a in (full_re, full_im))
            executed = np.full((k, full_re.shape[1]), products, dtype=np.int64)
        else:
            parts = [w_skip[taus[i][0]] for i in indices]
            wm, w_counts = parts[0] if k == 1 else tuple(map(np.concatenate, zip(*parts)))
            ym, y_counts = skippable((yre, yim), tau_y, x.fmt)
            by_re = wm @ ym[0]
            by_im = wm @ ym[1]
            acc_re = full_re - by_re[:, 0] + by_im[:, 1]
            acc_im = full_im - by_im[:, 0] - by_re[:, 1]
            executed = (products - w_counts @ y_counts).astype(np.int64)
        S = (acc_re + 1j * acc_im) * vs / (weights.alpha[:, None] * gain)
        out.append((indices, S.reshape((k, weights.U, *cols)), executed.reshape((k, *cols))))
    return out


def naive_bits(raw, tau: float, fmt) -> np.ndarray:
    """Comparison bits: magnitude strictly below tau, snapped to the format's grid if any."""
    return np.abs(raw) < (tau if fmt is None else naive_threshold_raw(tau, fmt.frac_bits))


def mute_mask(weights, x) -> np.ndarray:
    """Dense (U, B, 4) mute mask of one tagged vector: register r of CM (u, b) is
    muted iff both operands' comparison bits are set, in the product order
    (w_re*y_re, w_im*y_im, w_re*y_im, w_im*y_re)."""
    cw_re, cw_im = (naive_bits(r, weights.tau_w, weights.fmt) for r in (weights.re, weights.im))
    cy_re, cy_im = (naive_bits(r, x.tau_y, x.fmt)[None, :] for r in (x.re, x.im))
    mask = np.empty((weights.U, weights.B, 4), dtype=bool)
    mask[:, :, 0] = cw_re & cy_re
    mask[:, :, 1] = cw_im & cy_im
    mask[:, :, 2] = cw_re & cy_im
    mask[:, :, 3] = cw_im & cy_re
    return mask


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


def to_beamspace_untiled(y: np.ndarray, twiddle_fmt) -> np.ndarray:
    """The scaled radix-4 of :func:`spadesim.beamspace.to_beamspace`, run on the whole block.

    Every butterfly stage runs once over all of the (B, ...) block's columns,
    then the result is divided by sqrt(B).
    """
    from spadesim.beamspace import _radix4

    y = np.asarray(y)
    return _radix4(y, twiddle_fmt) / np.sqrt(y.shape[0])


def synth_receive_complex(Hm: np.ndarray, s: np.ndarray, N0: float, rng: np.random.Generator):
    """H s plus complex noise built whole: ``(re + 1j * im) * sqrt(N0 / 2)``, re drawn first."""
    clean = Hm @ s
    if N0 == 0.0:
        return clean
    noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    return clean + noise * np.sqrt(N0 / 2.0)


def draw_channel_matrix_per_user(kind: str, B: int, U: int, rng: np.random.Generator) -> np.ndarray:
    """One user at a time: draw the profile, truncate to B paths, synthesize, normalize.

    Profiles: "los" is a dominant path 10 dB above two Rayleigh reflections,
    "nlos" twelve Rayleigh paths decaying 3 dB per index. Each user makes
    one generator call per part (real gains, imaginary gains, then LoS's
    phase and the frequencies through ``uniform``) and is normalized by
    ``np.linalg.norm``. Returns the B x U antenna-domain entries with every
    column at squared norm B.
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


def block_complex(cfg, mode: str, purpose: int, tag: int, index: int, n: int, n0s: list,
                  H_fixed=None):
    """A harness block the plain way: (sent, weights per N0, tagged (B, S, N) input).

    Draws the channel (four generator calls per user, see
    :func:`draw_channel_matrix_per_user`) unless ``H_fixed`` is given, then
    the bits and the noise from the block's own stream, solves and quantizes
    one weight set per N0, builds the noise as one complex array and runs
    the front end on the receive block.
    """
    from spadesim.channel import ChannelMatrix, qam_index, qam_modulate
    from spadesim.equalizer import front_end
    from spadesim.harness import derive_stream

    rng = derive_stream(cfg.seed, purpose, tag, index)
    H = H_fixed if H_fixed is not None else ChannelMatrix(
        draw_channel_matrix_per_user(cfg.channel, cfg.B, cfg.U, rng), "antenna")
    bits = rng.integers(0, 2, size=(cfg.U, n, cfg.bits_per_symbol), dtype=np.uint8)
    y_bar = H.entries @ qam_modulate(bits, cfg.M, cfg.Es)
    noise = rng.standard_normal(y_bar.shape) + 1j * rng.standard_normal(y_bar.shape)
    weights = [weights_for_mode(cfg, H, mode, n0)[mode != "lmmse-a"] for n0 in n0s]
    Y = noise[:, None] * np.sqrt(np.array(n0s) / 2.0)[:, None]
    Y += y_bar[:, None]
    return qam_index(bits, cfg.M), weights, front_end(mode, Y, cfg.frontend())


def activity_rates_per_draw(cfg, cells: list, draws: int, vectors_per_draw: int, H_fixed=None):
    """lmmse-spade activity of each (snr_db, tau_w, tau_y) cell per draw, one draw at a time.

    Each draw is made alone (:func:`block_complex`) at the cells' distinct
    SNRs; its skips are counted for every distinct SNR and threshold with one
    ``einsum`` over the per-column counts of set weight and input bits, and
    each cell gathers its own. Returns a (cells, draws) array.
    """
    from spadesim.harness import _P_ACTIVITY

    fe = cfg.frontend()
    wfmt = cfg.weight_fmt if cfg.quantized else None

    def thresholds(taus, fmt):
        raws = [t if fmt is None else naive_threshold_raw(t, fmt.frac_bits) for t in taus]
        return np.array(raws)[:, None, None, None]

    (snrs, s_at), (tws, w_at), (tys, y_at) = (
        np.unique(axis, return_inverse=True) for axis in np.array(cells, dtype=float).T)
    w_thr, y_thr = thresholds(tws.tolist(), wfmt), thresholds(tys.tolist(), fe.input_fmt)
    n0s = [cfg.U * cfg.Es / 10 ** (snr_db / 10.0) for snr_db in snrs.tolist()]
    skipped = np.empty((len(cells), draws))
    for d in range(draws):
        _, w, x = block_complex(cfg, "lmmse-spade", _P_ACTIVITY, 0, d, vectors_per_draw, n0s,
                                H_fixed)
        w_re, w_im = np.stack([ws.re for ws in w]), np.stack([ws.im for ws in w])
        w_counts = (np.abs(w_re) < w_thr).sum(axis=2) + (np.abs(w_im) < w_thr).sum(axis=2)
        y_counts = (np.abs(x.re) < y_thr).sum(axis=3) + (np.abs(x.im) < y_thr).sum(axis=3)
        skipped[:, d] = np.einsum("wsb,ybs->swy", w_counts, y_counts)[s_at, w_at, y_at]
    total = 4 * cfg.B * cfg.U * vectors_per_draw
    return (total - skipped) / total


def _probe_per_pair(cfg, mode, snr_db, tag, target, probe_cap):
    """One pair's probe: waves of blocks, each block equalized on its own, until the
    95% Wilson interval excludes the target BER or probe_cap vectors are spent."""
    from spadesim.channel import draw_channel_matrix, qam_modulate
    from spadesim.equalizer import equalize_block
    from spadesim.harness import _P_PROBE, _WAVE_BLOCKS, _wilson, derive_stream

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
            wa, wb = weights_for_mode(cfg, H, mode, n0)
            bits = rng.integers(0, 2, size=(cfg.U, size, k), dtype=np.uint8)
            y = H.entries @ qam_modulate(bits, cfg.M, cfg.Es)
            noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
            s_hat, _ = equalize_block(mode, wa, wb, y + noise * math.sqrt(n0 / 2.0), cfg.frontend())
            errors += int((bits != qam_demodulate_formula(s_hat, cfg.M, cfg.Es)).sum())
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
                             activity_draws=1000, vectors_per_draw=2, probe_cap=100_000):
    """One bisection and one activity measurement per threshold pair, nothing shared.

    What the lockstep sweep must reproduce record for record: each probe k uses
    stream tag k and runs its own blocks. Sorted by activity, Pareto frontier
    flagged. Each search bisects [-10, 40] dB down to 0.1 dB. Drawn channels
    only (no channel file).
    """
    from dataclasses import replace

    from spadesim.harness import SweepRecord, activity_grid

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

            lo, hi = -10.0, 40.0
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
            act = float(activity_grid(cfg, mode, 40.0 if op is None else op, [cfg.tau_w],
                                      [cfg.tau_y], draws=activity_draws,
                                      vectors_per_draw=vectors_per_draw)[0, 0])
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
