"""Property tests: the vectorized kernels are bit-identical to their oracles.

The stage-wise radix-4, the batched channel synthesis and the QAM lookup table
each replace a per-element or per-user formulation; every comparison here is
byte for byte (``tobytes``), not within a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spadesim.beamspace import TwiddleConfig, _radix4, to_beamspace
from spadesim.channel import (
    QAM_ORDERS,
    PathSet,
    _qam_table,
    draw_channel_matrix,
    draw_profile,
    qam_modulate,
    synth_channel,
)
from spadesim.numerics import TWIDDLE_FMT, QFormat

from reference import draw_channel_matrix_per_user, qam_modulate_formula, radix4_recursive

PROPS = settings(max_examples=60, deadline=None)

FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def transform_inputs(draw):
    B = draw(st.sampled_from((1, 4, 16, 64, 256)))
    shape = (B,) if draw(st.booleans()) else (B, draw(st.integers(1, 5)))
    kind = draw(st.sampled_from(("complex", "integer", "zero")))
    if kind == "zero":
        x = np.zeros(shape, dtype=np.complex128)
    elif kind == "integer":
        x = draw(hnp.arrays(np.int64, shape, elements=st.integers(-(1 << 20), 1 << 20)))
    else:
        x = draw(hnp.arrays(np.complex128, shape,
                            elements=st.complex_numbers(max_magnitude=1e6, **FINITE)))
    return x


@PROPS
@given(x=transform_inputs(), fmt=st.sampled_from((TWIDDLE_FMT, QFormat(16, 14), QFormat(30, 27))))
def test_stagewise_radix4_matches_recursion(x, fmt):
    ref = radix4_recursive(x, fmt)
    out = _radix4(x, fmt)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()
    B = x.shape[0]
    scaled = to_beamspace(x, TwiddleConfig(exact=False, twiddle_fmt=fmt))
    assert scaled.tobytes() == (ref / np.sqrt(B)).tobytes()


@st.composite
def channel_draws(draw):
    kind = draw(st.sampled_from(("los", "nlos")))
    B = draw(st.sampled_from((1, 4, 16, 64)))
    U = draw(st.integers(1, min(B, 16)))
    seed = draw(st.integers(0, 2**63 - 1))
    return kind, B, U, seed


@PROPS
@given(channel_draws())
def test_batched_channel_matches_per_user_synthesis(args):
    kind, B, U, seed = args
    H = draw_channel_matrix(kind, B, U, np.random.default_rng(seed)).entries
    assert H.shape == (B, U) and H.flags.c_contiguous
    assert H.tobytes() == draw_channel_matrix_per_user(kind, B, U, np.random.default_rng(seed)).tobytes()
    # the public one-user views over the same stream: truncate to B paths, then synthesize
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(U):
        p = draw_profile(kind, rng)
        cols.append(synth_channel(PathSet(gains=p.gains[:B], freqs=p.freqs[:B]), B))
    assert H.tobytes() == np.stack(cols, axis=1).tobytes()


@PROPS
@given(M=st.sampled_from(QAM_ORDERS), Es=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_qam_table_matches_formula(M, Es, seed):
    k = int(np.log2(M))
    every = (np.arange(M)[:, None] >> np.arange(k - 1, -1, -1)) & 1  # index i's bits, MSB first
    table = _qam_table(M, Es)
    assert not table.flags.writeable
    assert table.tobytes() == qam_modulate_formula(every, M, Es).tobytes()
    bits = np.random.default_rng(seed).integers(0, 2, size=(3, 5, k), dtype=np.uint8)
    out = qam_modulate(bits, M, Es)
    assert out.shape == (3, 5)
    assert out.tobytes() == qam_modulate_formula(bits, M, Es).tobytes()

