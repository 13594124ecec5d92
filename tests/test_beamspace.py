"""Spatial DFT: unitarity, conventions, the quantized-twiddle radix-4 path and its GEMM form."""

import tracemalloc

import numpy as np
import pytest

from spadesim import beamspace
from spadesim.beamspace import _TILE_COLUMNS, TwiddleConfig, to_beamspace
from spadesim.equalizer import FrontEnd, front_end, tag_input
from spadesim.harness import RunConfig, StopRule, run_ber
from spadesim.numerics import QFormat

from reference import dft_oracle_matrix


def test_dft_impulse():
    out = to_beamspace(np.array([1, 0, 0, 0], dtype=complex))
    assert np.allclose(out, 0.5 * np.ones(4), atol=1e-12)


def test_dft_unitary():
    for B in (1, 4, 16, 64):
        F = to_beamspace(np.eye(B, dtype=complex))
        assert np.max(np.abs(F @ F.conj().T - np.eye(B))) < 1e-12


def test_dft_matches_direct_formula():
    F = to_beamspace(np.eye(32, dtype=complex))
    assert np.max(np.abs(F - dft_oracle_matrix(32))) < 1e-12


def test_dft_norm_preservation():
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert abs(np.linalg.norm(to_beamspace(x)) - np.linalg.norm(x)) < 1e-9


def test_exact_mode_matches_matrix_multiply():
    rng = np.random.default_rng(32)
    B = 64
    F = dft_oracle_matrix(B)
    X = rng.standard_normal((B, 1000)) + 1j * rng.standard_normal((B, 1000))
    out = to_beamspace(X)
    assert np.max(np.abs(out - F @ X)) < 1e-9


def test_on_grid_beam_lands_in_bin_5():
    B = 64
    x = np.exp(1j * (2 * np.pi * 5 / B) * np.arange(B)) / np.sqrt(B)
    y = to_beamspace(x)
    assert abs(abs(y[5]) - 1.0) < 1e-9
    assert np.max(np.abs(np.delete(y, 5))) < 1e-9


def test_zero_vector():
    assert np.array_equal(to_beamspace(np.zeros(16, dtype=complex)), np.zeros(16, dtype=complex))
    cfg = TwiddleConfig(exact=False)
    assert np.allclose(to_beamspace(np.zeros(16, dtype=complex), cfg), 0.0)


def test_radix4_high_resolution_twiddles_match_exact():
    rng = np.random.default_rng(33)
    cfg = TwiddleConfig(exact=False, twiddle_fmt=QFormat(30, 27))
    for B in (1, 4, 16, 64, 256):
        x = rng.standard_normal(B) + 1j * rng.standard_normal(B)
        assert np.max(np.abs(to_beamspace(x, cfg) - to_beamspace(x))) < 1e-6


def test_radix4_batch_matches_single():
    rng = np.random.default_rng(34)
    cfg = TwiddleConfig(exact=False)
    X = rng.standard_normal((64, 7)) + 1j * rng.standard_normal((64, 7))
    batch = to_beamspace(X, cfg)
    for j in range(7):
        assert np.array_equal(batch[:, j], to_beamspace(X[:, j], cfg))


def test_radix4_peak_memory_is_the_output_and_a_few_tiles():
    # each butterfly stage's temporaries are a tile's, not the block's
    B, T = 64, _TILE_COLUMNS
    cfg = TwiddleConfig(exact=False)
    rng = np.random.default_rng(38)
    Y = rng.standard_normal((B, 4 * T)) + 1j * rng.standard_normal((B, 4 * T))
    to_beamspace(Y[:, :1], cfg)  # fills the twiddle and digit-reversal caches
    tracemalloc.start()
    try:
        out = to_beamspace(Y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 6 * B * T * 16


def test_radix4_rejects_non_power_of_4():
    cfg = TwiddleConfig(exact=False)
    for B in (2, 8, 32, 48):
        with pytest.raises(ValueError, match="power-of-4"):
            to_beamspace(np.zeros(B, dtype=complex), cfg)
        # through the front end too, quantized or not: the GEMM does not apply
        for fmt in (QFormat(12, 9), None):
            with pytest.raises(ValueError) as exc:
                front_end("lmmse-b", np.zeros(B, dtype=complex), FrontEnd(input_fmt=fmt, twiddle=cfg))
            assert str(exc.value) == f"radix-4 transform needs a power-of-4 length, got {B}"


def test_quantized_twiddle_error_bound():
    # loose analytic bound: per-output error <= B * 2^-frac for unit-norm input
    rng = np.random.default_rng(35)
    B = 64
    cfg = TwiddleConfig(exact=False)
    bound = B * 2.0 ** (-cfg.twiddle_fmt.frac_bits)
    for _ in range(50):
        x = rng.standard_normal(B) + 1j * rng.standard_normal(B)
        x /= np.linalg.norm(x)
        err = np.abs(to_beamspace(x, cfg) - to_beamspace(x)).max()
        assert err <= bound


def _near_tie_blocks(B, fe, rng, count=12, N=40):
    """Dyadic blocks whose raws sit exactly on .5 boundaries, most of them nudged off.

    Every entry of the front end's GEMM operator is a multiple of 2**-e, so
    integer inputs times 2**(e - 1) make every raw a multiple of 1/2, and
    about half of them ties. A relative nudge of 1e-16 to 1e-14 moves a raw
    off its tie by about as much as the radix-4 and the GEMM round, where the
    two can disagree.
    """
    T = beamspace._raw_transform(B, fe.twiddle.twiddle_fmt, fe.input_fmt.frac_bits)[0]
    e = next(e for e in range(-64, 64) if np.all(np.mod(T.view(np.float64) * 2.0**e, 1.0) == 0))
    for i in range(count):
        Y = (rng.integers(-64, 65, (B, N)) + 1j * rng.integers(-64, 65, (B, N))) * 2.0**(e - 1)
        if i % 4:
            nudge = rng.choice((-1.0, 1.0), (B, N)) * 10.0 ** rng.uniform(-16, -14, (B, N))
            Y = Y + Y * nudge
        yield Y


@pytest.mark.parametrize("B", (4, 16, 64))
def test_front_end_near_ties_match_the_radix4(B):
    fe = FrontEnd(input_fmt=QFormat(32, 24), twiddle=TwiddleConfig(exact=False), gain=1.0)
    rng = np.random.default_rng(36 + B)
    for Y in _near_tie_blocks(B, fe, rng):
        ref = tag_input(to_beamspace(Y, fe.twiddle), 0.0, fe.input_fmt)
        out = front_end("lmmse-b", Y, fe)
        assert out.re.tobytes() == ref.re.tobytes()
        assert out.im.tobytes() == ref.im.tobytes()


def test_front_end_on_gaussian_blocks_never_falls_back(monkeypatch):
    # a certificate that always failed would stay bit-exact and only run slower
    cfg = RunConfig()
    fe = cfg.frontend()
    beamspace._raw_transform(cfg.B, cfg.twiddle_fmt, cfg.input_fmt.frac_bits)  # built with the radix-4

    def forbidden(*args):
        raise AssertionError("the front end fell back to the radix-4")

    monkeypatch.setattr(beamspace, "_radix4", forbidden)
    rng = np.random.default_rng(37)
    for _ in range(30):
        Y = 4 * (rng.standard_normal((64, 100)) + 1j * rng.standard_normal((64, 100)))
        front_end("lmmse-spade", Y, fe)
    run_ber(cfg, [4.0, 12.0], "lmmse-spade", StopRule(target_errors=10**9, max_vectors=1000))
