"""Bit-accurate model of a sparsity-adaptive beamspace LMMSE equalizer.

The package models the equalization datapath of a massive MU-MIMO uplink
receiver that skips real-valued multiplications whose operand magnitudes both
fall below configurable thresholds, plus the Monte Carlo machinery to measure
what that skipping costs in BER and buys in multiplier activity.
"""

from .beamspace import TwiddleConfig, to_beamspace
from .channel import (
    ChannelMatrix,
    draw_channel_matrix,
    load_channel,
    save_channel,
    synth_receive,
)
from .datapath import (
    PipelineConfig,
    PowerCoeffs,
    effective_throughput,
    power_proxy,
    simulate_stream,
    throughput_bps,
)
from .equalizer import (
    ActivityReport,
    BeamVector,
    EqualizerWeights,
    FrontEnd,
    build_weights,
    compute_lmmse,
    equalize_block,
    scale_rows,
    tag_input,
)
from .harness import (
    RunConfig,
    RunReport,
    StopRule,
    SweepRecord,
    activity_grid,
    default_grid,
    derive_stream,
    emit_sweep,
    render_report,
    run_ber,
    snr_operating_point,
    threshold_sweep,
)
from .numerics import (
    INPUT_FMT,
    TWIDDLE_FMT,
    WEIGHT_FMT,
    QFormat,
)

__version__ = "0.1.0"
