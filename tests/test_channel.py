"""Channel synthesis, QAM mapping, receive-vector statistics, and dumps."""

import tracemalloc

import numpy as np
import pytest

from spadesim.beamspace import to_beamspace
from spadesim.channel import (
    ChannelMatrix,
    _draw_paths,
    _synth,
    draw_channel_matrix,
    bit_errors,
    load_channel,
    qam_index,
    qam_modulate,
    save_channel,
    synth_receive,
)
from spadesim.harness import RunConfig

from reference import qam_constellation


def test_system_config_invariants():
    # RunConfig holds no mode or N0: run_ber checks the mode (test_harness)
    # and derives N0 from each SNR
    RunConfig(B=64, U=16, M=16, seed=3)
    RunConfig(B=1, U=1, M=4, seed=0)
    with pytest.raises(ValueError):
        RunConfig(B=32)  # not a power of 4
    with pytest.raises(ValueError):
        RunConfig(B=16, U=17)
    with pytest.raises(ValueError):
        RunConfig(M=8)


def synth_one(gains, freqs, B):
    """One user's channel from its path gains and spatial frequencies."""
    return _synth(np.array([gains], dtype=complex), np.array([freqs], dtype=float), B)[0]


def test_steering_trivial():
    # a single unit-gain path is the array response [1, e^{j phi}, ..., e^{j (B-1) phi}]
    assert np.array_equal(synth_one([1.0 + 0j], [0.0], 4), np.ones(4, dtype=complex))
    assert np.array_equal(synth_one([1.0 + 0j], [1.234], 1), np.ones(1, dtype=complex))
    with pytest.raises(ValueError):
        synth_one([1.0 + 0j], [0.0], 0)


def test_steering_entries_unit_magnitude():
    v = synth_one([1.0 + 0j], [0.7718], 64)
    assert np.max(np.abs(np.abs(v) - 1.0)) <= 1e-15


def test_steering_on_grid_orthogonality():
    B = 64
    for k, m in [(3, 7), (0, 1), (10, 53)]:
        a = synth_one([1.0 + 0j], [2 * np.pi * k / B], B)
        b = synth_one([1.0 + 0j], [2 * np.pi * m / B], B)
        assert abs(np.vdot(a, b)) < 1e-9


def test_synth_channel_single_path():
    h = synth_one([1.0 + 0j], [0.0], B=8)
    assert np.allclose(h, np.ones(8), atol=1e-12)
    assert abs(np.linalg.norm(h) ** 2 - 8) < 1e-9


def test_synth_channel_matches_independent_summation():
    gains, freqs = [0.8 - 0.1j, -0.3 + 0.4j], [0.31, -2.2]
    B = 16
    n = np.arange(B)
    expected = gains[0] * np.exp(1j * 0.31 * n) + gains[1] * np.exp(1j * -2.2 * n)
    expected *= np.sqrt(B) / np.linalg.norm(expected)
    assert np.allclose(synth_one(gains, freqs, B), expected, atol=1e-12)


def test_synth_channel_on_grid_beam():
    B, k = 64, 5
    h = synth_one([1.0 + 0j], [2 * np.pi * k / B], B)
    beams = to_beamspace(h)
    # single on-grid path concentrates all energy in one DFT bin
    assert abs(abs(beams[k]) - np.sqrt(B)) < 1e-9
    rest = np.delete(np.abs(beams), k)
    assert rest.max() < 1e-9


def test_synth_channel_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        synth_one([0.0 + 0j, 0.0 + 0j], [0.1, 0.2], B=4)


def test_norm_invariant_over_profiles():
    rng = np.random.default_rng(21)
    for kind in ("los", "nlos"):
        for _ in range(50):
            h = _synth(*_draw_paths(kind, 1, rng), B=64)[0]
            assert abs(np.linalg.norm(h) ** 2 - 64) < 1e-9


def test_draw_profile_structure():
    rng = np.random.default_rng(22)
    [los], _ = _draw_paths("los", 1, rng)
    assert len(los) == 3
    # dominant path holds 10 dB more power than the reflections combined
    ratio = abs(los[0]) ** 2 / np.sum(np.abs(los[1:]) ** 2)
    assert abs(10 * np.log10(ratio) - 10.0) < 1e-9
    [nlos], _ = _draw_paths("nlos", 1, rng)
    assert len(nlos) == 12
    with pytest.raises(ValueError):
        _draw_paths("urban", 1, rng)


def test_los_beamspace_sparser_than_nlos():
    # energy share of the 8 strongest beams, averaged over many draws
    B, draws = 64, 10_000
    rng = np.random.default_rng(23)
    shares = {}
    for kind in ("los", "nlos"):
        total = 0.0
        for _ in range(draws):
            h = _synth(*_draw_paths(kind, 1, rng), B)[0]
            p = np.abs(np.fft.fft(h) / np.sqrt(B)) ** 2
            p.sort()
            total += p[-8:].sum() / p.sum()
        shares[kind] = total / draws
    assert shares["los"] > shares["nlos"]


def test_map_qam_energy_and_gray_structure():
    symbols = qam_modulate(np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)]), 16, 1.0)
    assert abs(np.mean(np.abs(symbols) ** 2) - 1.0) < 1e-12
    # independently constructed Gray constellation agrees point by point
    oracle = qam_constellation(16, 1.0)
    for bits, point in oracle.items():
        got = qam_modulate(np.array([bits]), 16, 1.0)[0]
        assert abs(got - point) < 1e-12


def test_qpsk_equal_magnitudes():
    pts = [qam_modulate(np.array([b]), 4, 1.0)[0] for b in ([0, 0], [0, 1], [1, 0], [1, 1])]
    mags = [abs(p) for p in pts]
    assert max(mags) - min(mags) < 1e-12
    assert len({(round(p.real, 9), round(p.imag, 9)) for p in pts}) == 4


def errors_against_every_index(symbol: complex, M: int) -> np.ndarray:
    """``bit_errors`` of one symbol against each of the M symbol indices: it names the sliced point."""
    return bit_errors(np.full(M, symbol), np.arange(M), M, 1.0)


@pytest.mark.parametrize("M", [4, 16, 64, 256])
def test_qam_round_trip_all_points(M):
    # every constellation point slices to itself: against symbol index j, the
    # point of index i counts the bits in which i and j differ
    symbols = qam_modulate((np.arange(M)[:, None] >> np.arange(int(np.log2(M)) - 1, -1, -1)) & 1,
                           M, 1.0)
    errors = bit_errors(symbols[:, None], np.arange(M)[None, :], M, 1.0)
    hamming = [[bin(i ^ j).count("1") for j in range(M)] for i in range(M)]
    assert errors.tolist() == hamming


@pytest.mark.parametrize("M", [4, 16, 64, 256])
def test_qam_demodulate_saturates_beyond_outer_levels(M):
    # far beyond the outer levels, finite or not, an estimate slices like one just past them
    edge = 2.0 * np.sqrt(M)  # past the outer level at Es=1
    for far in (1e19, 1e308, np.inf):
        for re, im in ((far, 0.0), (-far, 0.0), (0.0, far), (0.0, -far), (far, -far)):
            near = complex(np.sign(re) * edge, np.sign(im) * edge)
            got = errors_against_every_index(complex(re, im), M)
            assert np.array_equal(got, errors_against_every_index(near, M))
    top, bottom = (errors_against_every_index(complex(v, 0.0), M) for v in (np.inf, -1e19))
    assert not np.array_equal(top, bottom)


def test_qam_demodulate_rejects_nan():
    sent = qam_index(np.zeros((2, 4), dtype=np.uint8), 16)
    for s in (complex(np.nan, 0.0), complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            bit_errors(np.array([0.5 + 0.5j, s]), sent, 16, 1.0)


@pytest.mark.parametrize("M", [4, 16, 64, 256])
def test_bit_errors_refuse_indices_outside_the_constellation(M):
    # an index outside [0, M) would read another row of the error table
    symbols = np.full(3, 0.5 + 0.5j)
    for bad in ([M, 0, 1], [0, M + 5, 1], [0, 1, -1]):
        with pytest.raises(ValueError, match=rf"\[0, {M}\)"):
            bit_errors(symbols, np.array(bad), M, 1.0)
    assert bit_errors(symbols, np.array([0, M - 1, 1]), M, 1.0).shape == (3,)
    assert bit_errors(np.empty(0, complex), np.empty(0, np.int64), M, 1.0).size == 0


def test_map_qam_validation():
    with pytest.raises(ValueError):
        qam_modulate(np.zeros((1, 4), dtype=np.uint8), 8, 1.0)
    with pytest.raises(ValueError):
        qam_modulate(np.zeros((1, 3), dtype=np.uint8), 4, 1.0)


def test_synth_receive_noise_free():
    rng = np.random.default_rng(24)
    H = draw_channel_matrix("los", 16, 4, rng)
    s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(synth_receive(H, s, 0.0, rng), H.entries @ s)
    one = ChannelMatrix(entries=np.ones((1, 1), dtype=complex), domain="antenna")
    assert np.array_equal(synth_receive(one, np.array([1.0 + 0j]), 0.0, rng), np.array([1.0 + 0j]))


@pytest.mark.parametrize("n0", (-1.0, -0.0, np.inf, np.nan, True))
def test_synth_receive_checks_the_noise_power(n0):
    rng = np.random.default_rng(27)
    H = draw_channel_matrix("los", 16, 4, rng)
    s = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    state = rng.bit_generator.state
    if n0 == 0.0:  # -0.0 is the noise-free case, and draws nothing
        assert synth_receive(H, s, n0, rng).tobytes() == (H.entries @ s).tobytes()
    else:
        with pytest.raises(ValueError) as exc:
            synth_receive(H, s, n0, rng)
        assert str(exc.value) == f"N0 {n0!r} is not a finite number >= 0"
    assert rng.bit_generator.state == state


def test_synth_receive_peak_memory():
    # the noise is drawn into one real buffer, half the output's bytes
    rng = np.random.default_rng(28)
    H = draw_channel_matrix("los", 64, 16, rng)
    s = rng.standard_normal((16, 4096)) + 1j * rng.standard_normal((16, 4096))
    synth_receive(H, s[:, :1], 0.5, rng)
    tracemalloc.start()
    try:
        y = synth_receive(H, s, 0.5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * y.nbytes


def test_synth_receive_noise_variance():
    rng = np.random.default_rng(25)
    n0 = 0.37
    H = ChannelMatrix(entries=np.zeros((4, 1), dtype=complex), domain="antenna")
    y = synth_receive(H, np.zeros((1, 100_000), dtype=complex), n0, rng)
    var = np.mean(np.abs(y) ** 2, axis=1)
    assert np.all(np.abs(var - n0) < 0.02 * n0)


def test_receive_snr_matches_convention():
    # per-antenna SNR should equal U*Es/N0 within 0.2 dB
    B, U, Es = 16, 4, 1.0
    n0 = 2.0
    rng = np.random.default_rng(26)
    sig_power = 0.0
    draws = 10_000
    for _ in range(draws):
        H = draw_channel_matrix("nlos", B, U, rng)
        s = qam_modulate(rng.integers(0, 2, size=(U, 4), dtype=np.uint8), 16, Es)
        sig_power += np.mean(np.abs(H.entries @ s) ** 2)
    snr_est = (sig_power / draws) / n0
    snr_cfg = U * Es / n0
    assert abs(10 * np.log10(snr_est / snr_cfg)) < 0.2


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_channel_dump_round_trip(fmt, tmp_path):
    rng = np.random.default_rng(27)
    cm = draw_channel_matrix("los", 16, 3, rng)
    path = str(tmp_path / f"chan.{fmt}")
    save_channel(path, cm, fmt)
    back = load_channel(path)
    assert back.domain == cm.domain
    assert back.entries.tobytes() == cm.entries.tobytes()


@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("re,im", [(-0.0, 1.0), (-0.0, -0.0), (1.0, -0.0)])
def test_channel_dump_keeps_signed_zeros(fmt, re, im, tmp_path):
    entries = np.empty((2, 1), dtype=np.complex128)  # re + 1j * im would lose the signs
    entries.real, entries.imag = [[re], [0.5]], [[im], [-0.5]]
    cm = ChannelMatrix(entries, "antenna")
    path = str(tmp_path / f"chan.{fmt}")
    save_channel(path, cm, fmt)
    assert load_channel(path).entries.tobytes() == entries.tobytes()


def _bin_header(code, B, U):
    import struct
    return b"CHNL" + struct.pack("<BII", code, B, U)


@pytest.mark.parametrize("name,content", [
    ("truncated_header.bin", _bin_header(0, 4, 1)[:8]),
    ("unknown_domain.bin", _bin_header(7, 1, 1) + np.zeros(2, dtype="<f8").tobytes()),
    ("nan_entry.csv", b"domain,B,U\nantenna,1,1\nre,im\nnan,0.0\n"),
    ("header_only.csv", b"domain,B,U\n"),
    ("negative_shape.csv", b"domain,B,U\nantenna,-1,-1\nre,im\n1.0,0.0\n"),
    ("empty_shape.bin", _bin_header(0, 0, 3)),
    ("half_pair.bin", _bin_header(0, 1, 1) + np.zeros(3, dtype="<f8").tobytes()),
    ("wrong_third_line.csv", b"domain,B,U\nantenna,1,1\nfoo,bar\n1.0,2.0\n"),
    ("no_re_im_line.csv", b"domain,B,U\nantenna,1,1\n1.0,2.0\n3.0,4.0\n"),
])
def test_load_channel_rejects_malformed_dump(name, content, tmp_path):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ValueError):
        load_channel(str(path))
