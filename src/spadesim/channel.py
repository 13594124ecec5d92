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

MODES = ("lmmse-a", "lmmse-b", "lmmse-spade")
QAM_ORDERS = (4, 16, 64, 256)


def _is_power_of_4(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0 and (n.bit_length() - 1) % 2 == 0


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and operating point of one simulated uplink."""

    B: int = 64
    U: int = 16
    M: int = 16
    Es: float = 1.0
    N0: float = 1.0
    mode: str = "lmmse-spade"
    seed: int = 1

    def __post_init__(self) -> None:
        if not _is_power_of_4(self.B):
            raise ValueError(f"B must be a power of 4, got {self.B}")
        if not 1 <= self.U <= self.B:
            raise ValueError(f"U must be in [1, B], got {self.U}")
        if self.M not in QAM_ORDERS:
            raise ValueError(f"M must be one of {QAM_ORDERS}, got {self.M}")
        if self.Es <= 0:
            raise ValueError("Es must be positive")
        if self.N0 < 0:
            raise ValueError("N0 must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def bits_per_symbol(self) -> int:
        return int(log2(self.M))


@dataclass(frozen=True)
class PathSet:
    """Propagation paths for one user: complex gains and spatial frequencies."""

    gains: np.ndarray
    freqs: np.ndarray

    def __post_init__(self) -> None:
        gains = np.asarray(self.gains, dtype=np.complex128)
        freqs = np.asarray(self.freqs, dtype=np.float64)
        if gains.ndim != 1 or freqs.shape != gains.shape or gains.size == 0:
            raise ValueError("gains and freqs must be equal-length non-empty 1-D arrays")
        if np.any(freqs < -np.pi) or np.any(freqs >= np.pi):
            raise ValueError("spatial frequencies must lie in [-pi, pi)")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "freqs", freqs)

    def __len__(self) -> int:
        return self.gains.size


@dataclass(frozen=True)
class ChannelMatrix:
    """B x U channel matrix tagged with its domain ("antenna" or "beamspace")."""

    entries: np.ndarray
    domain: str

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-D matrix")
        if self.domain not in ("antenna", "beamspace"):
            raise ValueError(f"unknown domain {self.domain!r}")
        object.__setattr__(self, "entries", entries)

    @property
    def B(self) -> int:
        return self.entries.shape[0]

    @property
    def U(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SymbolVector:
    """Constellation points for one channel use plus the bits they encode."""

    symbols: np.ndarray
    bits: np.ndarray


def steering(phi: float, B: int) -> np.ndarray:
    """Array response [1, e^{j phi}, ..., e^{j (B-1) phi}] of a B-element ULA."""
    if B < 1:
        raise ValueError("B must be >= 1")
    return np.exp(1j * phi * np.arange(B))


def _synth(gains: np.ndarray, freqs: np.ndarray, B: int) -> np.ndarray:
    """Superpose each row's path steering vectors; rows rescaled to squared norm B.

    ``gains`` and ``freqs`` are (U, P); the result is (U, B). The norm is taken
    one row at a time, as a batched norm would sum in another order.
    """
    n = np.arange(B)
    E = np.exp(1j * (n[:, None] * freqs[:, None, :]))
    h = np.matmul(E, gains[..., None])[..., 0]
    norms = np.array([np.linalg.norm(row) for row in h])
    if np.any(norms == 0.0):
        raise ValueError("degenerate channel")
    return h * (np.sqrt(B) / norms)[:, None]


def synth_channel(paths: PathSet, B: int) -> np.ndarray:
    """Superpose the path steering vectors and rescale to squared norm B."""
    if len(paths) > B:
        raise ValueError("more paths than antennas")
    return _synth(paths.gains[None], paths.freqs[None], B)[0]


# Profile constants: LoS has one dominant path 10 dB above the combined
# reflections; NLoS spreads power over 12 paths decaying 3 dB per index.
LOS_PATHS = 3
LOS_DOMINANCE_DB = 10.0
NLOS_PATHS = 12
NLOS_DECAY_DB = 3.0


def _draw_paths(kind: str, U: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """U independent profile draws as (U, P) gains and frequencies.

    The generator calls run user by user in a fixed order (the stream is part
    of the reproducibility contract); the gain arithmetic then runs on all
    users at once.
    """
    if kind == "los":
        re = np.empty((U, 2))
        im = np.empty((U, 2))
        phase = np.empty(U)
        freqs = np.empty((U, LOS_PATHS))
        for u in range(U):
            re[u] = rng.standard_normal(2)
            im[u] = rng.standard_normal(2)
            phase[u] = rng.uniform(0.0, 2 * np.pi)
            freqs[u] = rng.uniform(-np.pi, np.pi, size=LOS_PATHS)
        reflect = (re + 1j * im) / np.sqrt(2)
        dominant_power = 10 ** (LOS_DOMINANCE_DB / 10) * np.sum(np.abs(reflect) ** 2, axis=1)
        dominant = np.sqrt(dominant_power) * np.exp(1j * phase)
        gains = np.concatenate((dominant[:, None], reflect), axis=1)
    elif kind == "nlos":
        re = np.empty((U, NLOS_PATHS))
        im = np.empty((U, NLOS_PATHS))
        freqs = np.empty((U, NLOS_PATHS))
        for u in range(U):
            re[u] = rng.standard_normal(NLOS_PATHS)
            im[u] = rng.standard_normal(NLOS_PATHS)
            freqs[u] = rng.uniform(-np.pi, np.pi, size=NLOS_PATHS)
        sigma = np.sqrt(10 ** (-NLOS_DECAY_DB * np.arange(NLOS_PATHS) / 10))
        gains = sigma * (re + 1j * im) / np.sqrt(2)
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return gains, freqs


def draw_profile(kind: str, rng: np.random.Generator) -> PathSet:
    """Draw one user's paths from the "los" or "nlos" parametric profile."""
    gains, freqs = _draw_paths(kind, 1, rng)
    return PathSet(gains=gains[0], freqs=freqs[0])


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
    """Per-axis level spacing factor giving average symbol energy Es."""
    return np.sqrt(3.0 * Es / (2.0 * (M - 1)))


@lru_cache(maxsize=64)
def _qam_table(M: int, Es: float) -> np.ndarray:
    """Read-only constellation indexed by the symbol's bits read as an integer (MSB first)."""
    m = isqrt(M)
    half = int(log2(M)) // 2
    idx = np.arange(M)
    li = 2 * _gray_decode(idx >> half) - (m - 1)
    lq = 2 * _gray_decode(idx & (m - 1)) - (m - 1)
    table = qam_scale(M, Es) * (li + 1j * lq)
    table.setflags(write=False)
    return table


def qam_modulate(bitgroups: np.ndarray, M: int, Es: float) -> np.ndarray:
    """Map bit groups (last axis, MSB first, I bits then Q bits) to symbols."""
    if M not in QAM_ORDERS:
        raise ValueError(f"M must be one of {QAM_ORDERS}, got {M}")
    k = int(log2(M))
    bitgroups = np.asarray(bitgroups)
    if bitgroups.shape[-1] != k:
        raise ValueError(f"expected {k} bits per symbol, got {bitgroups.shape[-1]}")
    return _qam_table(M, Es)[bitgroups @ (1 << np.arange(k - 1, -1, -1))]


@lru_cache(maxsize=8)
def _slice_table(m: int, half: int) -> np.ndarray:
    """Read-only (m, half) bits of each level index's Gray code, MSB first."""
    g = _gray_encode(np.arange(m))
    table = ((g[:, None] >> np.arange(half - 1, -1, -1)) & 1).astype(np.uint8)
    table.setflags(write=False)
    return table


def qam_demodulate(symbols: np.ndarray, M: int, Es: float) -> np.ndarray:
    """Hard-slice symbols to bit groups (inverse of :func:`qam_modulate`).

    The nearest constellation point decides; exact midpoints resolve toward
    the lexicographically smaller (re, im) point.
    """
    if M not in QAM_ORDERS:
        raise ValueError(f"M must be one of {QAM_ORDERS}, got {M}")
    symbols = np.asarray(symbols)
    m = isqrt(M)
    c = qam_scale(M, Es)
    k = int(log2(M))
    table = _slice_table(m, k // 2)
    # one level index per axis; ceil(v - 0.5) rounds to nearest with ties toward the lower
    # level. It is clipped before the integer cast, so estimates beyond the outer levels,
    # infinite or overflowing ones too, saturate instead of wrapping.
    v = np.stack((symbols.real, symbols.imag), axis=-1)
    if np.isnan(v).any():
        raise ValueError("cannot slice NaN estimates")
    with np.errstate(over="ignore"):
        idx = np.ceil(np.clip((v / c + (m - 1)) / 2.0 - 0.5, 0, m - 1)).astype(np.int64)
    return table[idx].reshape(symbols.shape + (k,))


def map_qam(bits, M: int, Es: float) -> SymbolVector:
    """Map a flat bit string onto Gray-coded square M-QAM with energy Es."""
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    k = int(log2(M))
    if bits.size % k != 0:
        raise ValueError(f"bit count {bits.size} not divisible by log2(M)={k}")
    symbols = qam_modulate(bits.reshape(-1, k), M, Es)
    return SymbolVector(symbols=symbols, bits=bits)


def synth_receive(H, s, N0: float, rng: np.random.Generator) -> np.ndarray:
    """Noisy antenna-domain receive vector(s): H s plus complex Gaussian noise.

    Noise components are circularly symmetric with total variance N0 (so N0/2
    per real dimension). ``s`` may be (U,) or (U, N) for a block.
    """
    Hm = H.entries if isinstance(H, ChannelMatrix) else np.asarray(H)
    s = np.asarray(s)
    clean = Hm @ s
    if N0 == 0.0:
        return clean
    noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    return clean + noise * np.sqrt(N0 / 2.0)


# ---------------------------------------------------------------------------
# Channel import/export (CSV or columnar binary), for injecting external data
# ---------------------------------------------------------------------------

_MAGIC = b"CHNL"
_DOMAIN_CODE = {"antenna": 0, "beamspace": 1}
_DOMAIN_NAME = {v: k for k, v in _DOMAIN_CODE.items()}


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
            f.write(struct.pack("<BII", _DOMAIN_CODE[cm.domain], cm.B, cm.U))
            interleaved = np.empty(2 * flat.size, dtype="<f8")
            interleaved[0::2] = flat.real
            interleaved[1::2] = flat.imag
            f.write(interleaved.tobytes())
    else:
        raise ValueError(f"unknown channel dump format {fmt!r}")


def load_channel(path: str) -> ChannelMatrix:
    """Read a channel matrix written by :func:`save_channel` (either format).

    A malformed dump (truncated header or body, unknown domain, non-finite
    entries) raises ``ValueError``.
    """
    with open(path, "rb") as f:
        head = f.read(4)
    if head == _MAGIC:
        with open(path, "rb") as f:
            f.read(4)
            header = f.read(9)
            data = np.frombuffer(f.read(), dtype="<f8")
        if len(header) != 9:
            raise ValueError("channel dump truncated")
        code, B, U = struct.unpack("<BII", header)
        if code not in _DOMAIN_NAME:
            raise ValueError(f"unknown channel domain code {code}")
        if data.size != 2 * B * U:
            raise ValueError("channel dump truncated")
        flat = data[0::2] + 1j * data[1::2]
        entries, domain = flat.reshape(U, B).T, _DOMAIN_NAME[code]
    else:
        with open(path, "r", encoding="ascii") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
        if not lines or lines[0] != "domain,B,U":
            raise ValueError("not a channel dump")
        domain, b_s, u_s = lines[1].split(",")
        B, U = int(b_s), int(u_s)
        vals = [complex(float(r), float(i)) for r, i in (ln.split(",") for ln in lines[3:])]
        if len(vals) != B * U:
            raise ValueError("channel dump truncated")
        entries = np.array(vals).reshape(U, B).T
    if not np.all(np.isfinite(entries)):
        raise ValueError("channel entries must be finite")
    return ChannelMatrix(entries=entries, domain=domain)
