"""Channel synthesis, QAM mapping, receive-vector statistics, and dumps."""

import numpy as np
import pytest

from spadesim.beamspace import to_beamspace
from spadesim.channel import (
    ChannelMatrix,
    PathSet,
    SystemConfig,
    draw_channel_matrix,
    draw_profile,
    load_channel,
    map_qam,
    qam_demodulate,
    qam_modulate,
    save_channel,
    steering,
    synth_channel,
    synth_receive,
)

from reference import qam_constellation


def test_system_config_invariants():
    SystemConfig(B=64, U=16, M=16, Es=1.0, N0=0.5, mode="lmmse-spade", seed=3)
    SystemConfig(B=1, U=1, M=4, Es=1.0, N0=0.0, mode="lmmse-a", seed=0)
    with pytest.raises(ValueError):
        SystemConfig(B=32)  # not a power of 4
    with pytest.raises(ValueError):
        SystemConfig(B=16, U=17)
    with pytest.raises(ValueError):
        SystemConfig(M=8)
    with pytest.raises(ValueError):
        SystemConfig(mode="zf")


def test_steering_trivial():
    assert np.array_equal(steering(0.0, 4), np.ones(4, dtype=complex))
    assert np.array_equal(steering(1.234, 1), np.ones(1, dtype=complex))
    with pytest.raises(ValueError):
        steering(0.0, 0)


def test_steering_entries_unit_magnitude():
    v = steering(0.7718, 64)
    assert np.max(np.abs(np.abs(v) - 1.0)) <= 1e-15


def test_steering_on_grid_orthogonality():
    B = 64
    for k, m in [(3, 7), (0, 1), (10, 53)]:
        a = steering(2 * np.pi * k / B, B)
        b = steering(2 * np.pi * m / B, B)
        assert abs(np.vdot(a, b)) < 1e-9


def test_synth_channel_single_path():
    h = synth_channel(PathSet(gains=[1.0 + 0j], freqs=[0.0]), B=8)
    assert np.allclose(h, np.ones(8), atol=1e-12)
    assert abs(np.linalg.norm(h) ** 2 - 8) < 1e-9


def test_synth_channel_matches_independent_summation():
    paths = PathSet(gains=[0.8 - 0.1j, -0.3 + 0.4j], freqs=[0.31, -2.2])
    B = 16
    expected = paths.gains[0] * steering(0.31, B) + paths.gains[1] * steering(-2.2, B)
    expected *= np.sqrt(B) / np.linalg.norm(expected)
    assert np.allclose(synth_channel(paths, B), expected, atol=1e-12)


def test_synth_channel_on_grid_beam():
    B, k = 64, 5
    h = synth_channel(PathSet(gains=[1.0 + 0j], freqs=[2 * np.pi * k / B]), B)
    beams = to_beamspace(h)
    # single on-grid path concentrates all energy in one DFT bin
    assert abs(abs(beams[k]) - np.sqrt(B)) < 1e-9
    rest = np.delete(np.abs(beams), k)
    assert rest.max() < 1e-9


def test_synth_channel_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        synth_channel(PathSet(gains=[0.0 + 0j, 0.0 + 0j], freqs=[0.1, 0.2]), B=4)
    with pytest.raises(ValueError):
        synth_channel(PathSet(gains=np.ones(5, dtype=complex), freqs=np.zeros(5)), B=4)


def test_norm_invariant_over_profiles():
    rng = np.random.default_rng(21)
    for kind in ("los", "nlos"):
        for _ in range(50):
            h = synth_channel(draw_profile(kind, rng), B=64)
            assert abs(np.linalg.norm(h) ** 2 - 64) < 1e-9


def test_draw_profile_structure():
    rng = np.random.default_rng(22)
    los = draw_profile("los", rng)
    assert len(los) == 3
    # dominant path holds 10 dB more power than the reflections combined
    ratio = abs(los.gains[0]) ** 2 / np.sum(np.abs(los.gains[1:]) ** 2)
    assert abs(10 * np.log10(ratio) - 10.0) < 1e-9
    nlos = draw_profile("nlos", rng)
    assert len(nlos) == 12
    with pytest.raises(ValueError):
        draw_profile("urban", rng)


def test_los_beamspace_sparser_than_nlos():
    # energy share of the 8 strongest beams, averaged over many draws
    B, draws = 64, 10_000
    rng = np.random.default_rng(23)
    shares = {}
    for kind in ("los", "nlos"):
        total = 0.0
        for _ in range(draws):
            h = synth_channel(draw_profile(kind, rng), B)
            p = np.abs(np.fft.fft(h) / np.sqrt(B)) ** 2
            p.sort()
            total += p[-8:].sum() / p.sum()
        shares[kind] = total / draws
    assert shares["los"] > shares["nlos"]


def test_map_qam_energy_and_gray_structure():
    sv = map_qam(np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)]).reshape(-1), 16, 1.0)
    assert abs(np.mean(np.abs(sv.symbols) ** 2) - 1.0) < 1e-12
    # independently constructed Gray constellation agrees point by point
    oracle = qam_constellation(16, 1.0)
    for bits, point in oracle.items():
        got = map_qam(np.array(bits), 16, 1.0).symbols[0]
        assert abs(got - point) < 1e-12


def test_qpsk_equal_magnitudes():
    pts = [map_qam(np.array(b), 4, 1.0).symbols[0] for b in ([0, 0], [0, 1], [1, 0], [1, 1])]
    mags = [abs(p) for p in pts]
    assert max(mags) - min(mags) < 1e-12
    assert len({(round(p.real, 9), round(p.imag, 9)) for p in pts}) == 4


@pytest.mark.parametrize("M", [4, 16, 64, 256])
def test_qam_round_trip_all_points(M):
    k = int(np.log2(M))
    all_bits = np.array([[(i >> (k - 1 - j)) & 1 for j in range(k)] for i in range(M)], dtype=np.uint8)
    symbols = qam_modulate(all_bits, M, 1.0)
    back = qam_demodulate(symbols, M, 1.0)
    assert np.array_equal(all_bits, back)


@pytest.mark.parametrize("M", [4, 16, 64, 256])
def test_qam_demodulate_saturates_beyond_outer_levels(M):
    # far beyond the outer levels, finite or not, an estimate slices like one just past them
    edge = 2.0 * np.sqrt(M)  # past the outer level at Es=1
    for far in (1e19, 1e308, np.inf):
        for re, im in ((far, 0.0), (-far, 0.0), (0.0, far), (0.0, -far), (far, -far)):
            near = complex(np.sign(re) * edge, np.sign(im) * edge)
            got = qam_demodulate(np.array([complex(re, im)]), M, 1.0)
            assert np.array_equal(got, qam_demodulate(np.array([near]), M, 1.0))
    top, bottom = (qam_demodulate(np.array([complex(v, 0.0)]), M, 1.0) for v in (np.inf, -1e19))
    assert not np.array_equal(top, bottom)


def test_qam_demodulate_rejects_nan():
    for s in (complex(np.nan, 0.0), complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            qam_demodulate(np.array([0.5 + 0.5j, s]), 16, 1.0)


def test_map_qam_validation():
    with pytest.raises(ValueError):
        map_qam(np.zeros(4, dtype=np.uint8), 8, 1.0)
    with pytest.raises(ValueError):
        map_qam(np.zeros(3, dtype=np.uint8), 4, 1.0)


def test_synth_receive_noise_free():
    rng = np.random.default_rng(24)
    H = draw_channel_matrix("los", 16, 4, rng)
    s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(synth_receive(H, s, 0.0, rng), H.entries @ s)
    one = ChannelMatrix(entries=np.ones((1, 1), dtype=complex), domain="antenna")
    assert np.array_equal(synth_receive(one, np.array([1.0 + 0j]), 0.0, rng), np.array([1.0 + 0j]))


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
        s = map_qam(rng.integers(0, 2, size=U * 4, dtype=np.uint8), 16, Es).symbols
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
    assert np.array_equal(back.entries, cm.entries)


def _bin_header(code, B, U):
    import struct
    return b"CHNL" + struct.pack("<BII", code, B, U)


@pytest.mark.parametrize("name,content", [
    ("truncated_header.bin", _bin_header(0, 4, 1)[:8]),
    ("unknown_domain.bin", _bin_header(7, 1, 1) + np.zeros(2, dtype="<f8").tobytes()),
    ("nan_entry.csv", b"domain,B,U\nantenna,1,1\nre,im\nnan,0.0\n"),
])
def test_load_channel_rejects_malformed_dump(name, content, tmp_path):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ValueError):
        load_channel(str(path))
