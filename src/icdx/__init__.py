"""Crosstalk removal for two-color heterodyne interferometry.

The pipeline: synthesize or acquire a two-channel heterodyne record,
whiten it, separate the channels with fixed-point ICA, demodulate each
recovered carrier to an unwrapped phase track, and combine the tracks
into line-integrated electron density. A frequency diplexer applies the
same separation idea to cleaning up short FIR band splits.
"""

from .demod import (
    DensitySeries,
    PhaseSeries,
    PhaseTrackingLostError,
    demodulate,
    line_integrated_density,
    unwrap,
)
from .diplexer import (
    FirFilter,
    design_fir_bandpass,
    design_fir_lowpass,
    diplex,
    filter_signal,
    fir_split,
)
from .fastica import (
    Assignment,
    ConvergenceError,
    FastIcaConfig,
    IdentificationError,
    SeparationResult,
    contrast_eval,
    contrast_primitive,
    fit,
    gaussian_reference,
    identify_components,
    separate,
    unmix,
)
from .fileio import ConfigError, FormatError, read_kv, read_signal, write_kv, write_signal
from .metrics import (
    carrier_band,
    cross_tone_residual_db,
    envelope_depth,
    format_metric_value,
    isr,
    parse_metric_value,
    signed_permutation_error,
    snr,
    tone_band,
)
from .preprocess import (
    RankDeficientError,
    WhiteningTransform,
    center,
    covariance,
    eigendecompose,
    whiten,
)
from .signalgen import (
    CLASSICAL_ELECTRON_RADIUS_M,
    InterferometerParams,
    MultichannelSignal,
    PhaseTrack,
    add_awgn,
    apply_crosstalk,
    make_scenario_tracks,
    quantize_adc,
    synth_clean_pair,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CLASSICAL_ELECTRON_RADIUS_M",
    "ConfigError",
    "ConvergenceError",
    "DensitySeries",
    "FastIcaConfig",
    "FirFilter",
    "FormatError",
    "IdentificationError",
    "InterferometerParams",
    "MultichannelSignal",
    "PhaseSeries",
    "PhaseTrack",
    "PhaseTrackingLostError",
    "RankDeficientError",
    "SeparationResult",
    "WhiteningTransform",
    "add_awgn",
    "apply_crosstalk",
    "carrier_band",
    "center",
    "contrast_eval",
    "contrast_primitive",
    "covariance",
    "cross_tone_residual_db",
    "demodulate",
    "design_fir_bandpass",
    "design_fir_lowpass",
    "diplex",
    "eigendecompose",
    "envelope_depth",
    "filter_signal",
    "fir_split",
    "fit",
    "format_metric_value",
    "gaussian_reference",
    "identify_components",
    "isr",
    "parse_metric_value",
    "line_integrated_density",
    "make_scenario_tracks",
    "quantize_adc",
    "read_kv",
    "read_signal",
    "separate",
    "signed_permutation_error",
    "snr",
    "synth_clean_pair",
    "tone_band",
    "unmix",
    "unwrap",
    "whiten",
    "write_kv",
    "write_signal",
]
