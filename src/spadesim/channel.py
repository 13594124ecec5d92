"""Synthetic mmWave channels, QAM symbol mapping, and noisy receive vectors.

Channels are planar-wave superpositions: each user's column is a sum of a few
complex sinusoids with continuous (off-grid) spatial frequencies, rescaled so
every column carries squared norm B. Two parametric profiles stand in for a
full ray-tracing channel generator: a Rician-like line-of-sight profile and a
richer non-line-of-sight profile.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, log2

import numpy as np

from .numerics import _check_real

QAM_ORDERS = (4, 16, 64, 256)
# a binary channel dump codes each domain as its index here: antenna 0, beamspace 1
DOMAINS = ("antenna", "beamspace")


def _bits_per_symbol(M: int) -> int:
    """Bits per symbol of a supported QAM order; any other M raises ``ValueError``."""
    if M not in QAM_ORDERS:
        raise ValueError(f"M must be one of {QAM_ORDERS}, got {M}")
    return int(log2(M))


@dataclass(frozen=True)
class ChannelMatrix:
    """B x U channel matrix tagged with its domain, one of ``DOMAINS``."""

    entries: np.ndarray
    domain: str

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-D matrix")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        object.__setattr__(self, "entries", entries)

    @property
    def B(self) -> int:
        return self.entries.shape[0]

    @property
    def U(self) -> int:
        return self.entries.shape[1]


def _synth(gains: np.ndarray, freqs: np.ndarray, B: int) -> np.ndarray:
    """Superpose each row's paths, sum_p g_p e^{j n f_p}; rows rescaled to squared norm B.

    ``gains`` and ``freqs`` are (U, P); the result is (U, B). Each row's
    squared norm is two BLAS dots, re.re + im.im, the sum ``np.linalg.norm``
    takes of one complex row.
    """
    n = np.arange(B)
    E = np.exp(1j * (n[:, None] * freqs[:, None, :]))
    h = np.matmul(E, gains[..., None])[..., 0]
    norms = np.sqrt([re.dot(re) + im.dot(im) for re, im in zip(h.real, h.imag)])
    if np.any(norms == 0.0):
        raise ValueError("degenerate channel")
    return h * (np.sqrt(B) / norms)[:, None]


# Profile constants: LoS has one dominant path 10 dB above the combined
# reflections; NLoS spreads power over 12 paths decaying 3 dB per index.
LOS_PATHS = 3
LOS_DOMINANCE_DB = 10.0
NLOS_PATHS = 12
NLOS_DECAY_DB = 3.0


# Per user: the Rayleigh gains (LoS: the reflections) and the (low, high)
# range of each uniform (LoS: the dominant path's phase, then the frequencies).
_RAYLEIGH_PATHS = {"los": LOS_PATHS - 1, "nlos": NLOS_PATHS}
_UNIFORM_RANGES = {
    "los": (np.array([0.0] + [-np.pi] * LOS_PATHS), np.array([2 * np.pi] + [np.pi] * LOS_PATHS)),
    "nlos": (np.full(NLOS_PATHS, -np.pi), np.full(NLOS_PATHS, np.pi)),
}


def _draw_paths(kind: str, U: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """U independent profile draws as (U, P) gains and frequencies.

    Each user makes two generator calls, user after user (the stream is part
    of the reproducibility contract): one ``standard_normal`` for the real
    then the imaginary parts of its Rayleigh gains, and one ``random`` for
    its uniforms. A generator yields its values one after another, so these
    are the values of one call per part. The uniforms are mapped with
    ``uniform``'s own arithmetic, ``low + (high - low) * u``, and the gain
    arithmetic runs on all users at once.
    """
    if kind not in _RAYLEIGH_PATHS:
        raise ValueError(f"unknown profile kind {kind!r}")
    P, (low, high) = _RAYLEIGH_PATHS[kind], _UNIFORM_RANGES[kind]
    z = np.empty((U, 2 * P))
    u = np.empty((U, low.size))
    for i in range(U):
        rng.standard_normal(out=z[i])
        rng.random(out=u[i])
    u = low + (high - low) * u
    rayleigh = z[:, :P] + 1j * z[:, P:]
    if kind == "los":
        reflect = rayleigh / np.sqrt(2)
        dominant_power = 10 ** (LOS_DOMINANCE_DB / 10) * np.sum(np.abs(reflect) ** 2, axis=1)
        dominant = np.sqrt(dominant_power) * np.exp(1j * u[:, 0])
        return np.concatenate((dominant[:, None], reflect), axis=1), u[:, 1:]
    sigma = np.sqrt(10 ** (-NLOS_DECAY_DB * np.arange(NLOS_PATHS) / 10))
    return sigma * rayleigh / np.sqrt(2), u


def draw_channel_matrix(kind: str, B: int, U: int, rng: np.random.Generator) -> ChannelMatrix:
    """Independent per-user profile draws assembled into an antenna-domain matrix.

    Arrays smaller than a profile's path count resolve only the leading paths
    (for LoS that is the dominant one), so profiles are truncated to B.
    """
    gains, freqs = _draw_paths(kind, U, rng)
    h = _synth(gains[:, :B], freqs[:, :B], B)
    return ChannelMatrix(entries=np.ascontiguousarray(h.T), domain="antenna")


# ---------------------------------------------------------------------------
# Gray-mapped square QAM
# ---------------------------------------------------------------------------

def _gray_encode(n: np.ndarray) -> np.ndarray:
    return n ^ (n >> 1)


def _gray_decode(g: np.ndarray) -> np.ndarray:
    n = np.asarray(g).copy()
    for shift in (1, 2, 4, 8, 16):
        n ^= n >> shift
    return n


def qam_scale(M: int, Es: float) -> float:
    """Per-axis level spacing factor giving average symbol energy Es (> 0, finite)."""
    return np.sqrt(3.0 * _check_real("Es", Es, 0, strict=True) / (2.0 * (M - 1)))


@lru_cache(maxsize=64)
def _qam_table(M: int, Es: float) -> np.ndarray:
    """Read-only constellation indexed by the symbol's bits read as an integer (MSB first)."""
    m = isqrt(M)
    half = _bits_per_symbol(M) // 2
    idx = np.arange(M)
    li = 2 * _gray_decode(idx >> half) - (m - 1)
    lq = 2 * _gray_decode(idx & (m - 1)) - (m - 1)
    table = qam_scale(M, Es) * (li + 1j * lq)
    table.setflags(write=False)
    return table


def qam_index(bitgroups: np.ndarray, M: int) -> np.ndarray:
    """Each bit group (last axis, MSB first, I bits then Q bits) read as an integer: its symbol index."""
    k = _bits_per_symbol(M)
    bitgroups = np.asarray(bitgroups)
    if bitgroups.shape[-1] != k:
        raise ValueError(f"expected {k} bits per symbol, got {bitgroups.shape[-1]}")
    return bitgroups @ (1 << np.arange(k - 1, -1, -1))


def qam_modulate(bitgroups: np.ndarray, M: int, Es: float) -> np.ndarray:
    """Map bit groups (last axis, MSB first, I bits then Q bits) to symbols."""
    # checked before the cached table, where True would hit the Es = 1.0 entry
    return _qam_table(M, _check_real("Es", Es, 0, strict=True))[qam_index(bitgroups, M)]


@lru_cache(maxsize=8)
def _error_table(M: int) -> np.ndarray:
    """Read-only (M, M) bit errors between a sliced point and a sent symbol index.

    Row ``li * m + lq`` is the constellation point at level indices (li, lq),
    column ``i`` the symbol index ``i``; the entry counts the bits in which
    the point's Gray bits differ from ``i``'s.
    """
    m = isqrt(M)
    k = _bits_per_symbol(M)
    g = _gray_encode(np.arange(m))
    point = ((g[:, None] << (k // 2)) | g).reshape(-1, 1)
    table = (((point ^ np.arange(M)) >> np.arange(k)[:, None, None]) & 1).sum(axis=0)
    table = table.astype(np.uint8)
    table.setflags(write=False)
    return table


def _level_indices(symbols: np.ndarray, M: int, Es: float) -> np.ndarray:
    """Sliced level index of each symbol per axis, (..., 2) for (I, Q), each in 0 .. sqrt(M) - 1.

    ``ceil(v - 0.5)`` rounds to the nearest level with ties toward the lower
    one. It is clipped before the integer cast, so values beyond the outer
    levels, infinite or overflowing ones too, saturate instead of wrapping.
    """
    symbols = np.asarray(symbols)
    v = np.ascontiguousarray(symbols, dtype=np.complex128).view(np.float64)
    if np.isnan(v).any():
        raise ValueError("cannot slice NaN estimates")
    m = isqrt(M)
    with np.errstate(over="ignore"):
        t = v / qam_scale(M, Es)
    t += m - 1
    t /= 2.0
    t -= 0.5
    np.clip(t, 0, m - 1, out=t)
    return np.ceil(t, out=t).astype(np.int64).reshape(symbols.shape + (2,))


def bit_errors(symbols: np.ndarray, index: np.ndarray, M: int, Es: float) -> np.ndarray:
    """Bit errors of each hard-sliced symbol against the symbol index that was sent.

    Each axis slices to its nearest constellation level, an exact midpoint to
    the lower level; values beyond the outer levels, infinite ones too,
    saturate there, and a NaN raises ``ValueError``. The sliced point's Gray
    bits are compared with ``index`` (as :func:`qam_index` reads the sent
    bits), giving a uint8 array of the broadcast shape of ``symbols`` and
    ``index``. An index outside [0, M) raises ``ValueError``: it would read
    another row of the error table.
    """
    _bits_per_symbol(M)  # checks M
    index = np.asarray(index)
    if index.size and not 0 <= index.min() <= index.max() < M:
        raise ValueError(f"symbol indices must be in [0, {M})")
    levels = _level_indices(symbols, M, Es)
    point = levels[..., 0] * isqrt(M) + levels[..., 1]
    return _error_table(M).reshape(-1)[point * M + index]


def synth_receive(H, s, N0: float, rng: np.random.Generator) -> np.ndarray:
    """Noisy antenna-domain receive vector(s): H s plus complex Gaussian noise.

    Noise components are circularly symmetric with total variance N0 (so N0/2
    per real dimension). ``s`` may be (U,) or (U, N) for a block. N0 must be
    finite and at least 0, else ``ValueError``; N0 = 0 (or -0.0) returns the
    noise-free H s and draws nothing.

    The generator draws the real parts of the noise, then the imaginary
    parts, into one real buffer; each part is scaled by sqrt(N0/2) and added
    into its part of H s in place. That gives the bytes of ``H s + (re + 1j *
    im) * sqrt(N0/2)`` (see ``harness._block``), with one real temporary of
    half the output's size where the complex noise took three of its size.
    """
    N0 = _check_real("N0", N0, 0)
    Hm = H.entries if isinstance(H, ChannelMatrix) else np.asarray(H)
    s = np.asarray(s)
    clean = Hm @ s
    if N0 == 0.0:
        return clean
    y = clean.astype(np.complex128, copy=False)
    sigma = np.sqrt(N0 / 2.0)
    part = rng.standard_normal(y.shape)
    part *= sigma
    y.real += part
    rng.standard_normal(out=part)
    part *= sigma
    y.imag += part
    return y


# ---------------------------------------------------------------------------
# Channel import/export (CSV or columnar binary), for injecting external data
# ---------------------------------------------------------------------------

_MAGIC = b"CHNL"


def save_channel(path: str, cm: ChannelMatrix, fmt: str = "csv") -> None:
    """Dump a channel matrix: header (domain, B, U) then column-major re/im doubles."""
    flat = cm.entries.T.reshape(-1)  # column-major: all of column 0, then 1, ...
    if fmt == "csv":
        with open(path, "w", encoding="ascii") as f:
            f.write("domain,B,U\n")
            f.write(f"{cm.domain},{cm.B},{cm.U}\n")
            f.write("re,im\n")
            for z in flat:
                f.write(f"{float(z.real)!r},{float(z.imag)!r}\n")
    elif fmt == "bin":
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<BII", DOMAINS.index(cm.domain), cm.B, cm.U))
            interleaved = np.empty(2 * flat.size, dtype="<f8")
            interleaved[0::2] = flat.real
            interleaved[1::2] = flat.imag
            f.write(interleaved.tobytes())
    else:
        raise ValueError(f"unknown channel dump format {fmt!r}")


def load_channel(path: str) -> ChannelMatrix:
    """Read a channel matrix written by :func:`save_channel` (either format).

    The file is read once. A binary dump is ``CHNL``, a 9-byte header (domain
    code, B, U) and the ``<f8`` body of whole (re, im) pairs, read as ``<c16``.
    A CSV dump is ASCII; its non-blank stripped lines are ``domain,B,U``, the
    shape line, exactly ``re,im``, then one ``re,im`` row per entry. Either
    way every entry loads as saved, signed zeros included. B and U must be at
    least 1, there must be B*U entries, all finite, and the domain must be
    ``antenna`` or ``beamspace``; anything else raises ``ValueError``.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] == _MAGIC:
        header, body = data[4:13], data[13:]
        if len(header) != 9 or len(body) % 16:
            raise ValueError("channel dump truncated")
        code, B, U = struct.unpack("<BII", header)
        domain = DOMAINS[code] if code < len(DOMAINS) else f"code {code}"
        flat = np.frombuffer(body, dtype="<c16").astype(np.complex128)
    else:
        lines = [ln.strip() for ln in data.decode("ascii").splitlines() if ln.strip()]
        if lines[:1] != ["domain,B,U"]:
            raise ValueError("not a channel dump")
        if len(lines) < 3:
            raise ValueError("channel dump truncated")
        if lines[2] != "re,im":
            raise ValueError(f"channel dump's third line must be 're,im', got {lines[2]!r}")
        domain, b_s, u_s = lines[1].split(",")
        B, U = int(b_s), int(u_s)
        flat = np.array([complex(float(r), float(i)) for r, i in (ln.split(",") for ln in lines[3:])])
    if B < 1 or U < 1:
        raise ValueError("channel dump has no entries")
    if flat.size != B * U:
        raise ValueError("channel dump truncated")
    if not np.all(np.isfinite(flat)):
        raise ValueError("channel entries must be finite")
    return ChannelMatrix(entries=flat.reshape(U, B).T, domain=domain)
