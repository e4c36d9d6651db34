"""Shared fixtures-in-spirit for the test suite.

Expected values in the tests come from independent oracles: library
routines the code under test does not call (numpy.unwrap,
numpy.savetxt), closed-form hand arithmetic frozen as literals,
higher-order quadrature, or seeded Monte Carlo with a control variate.
Helpers here only build inputs and measure outputs; they never
re-derive the quantities under test with the implementation being
tested.
"""

from __future__ import annotations

import numpy as np

import icdx

DEFAULT_COUPLING = np.array([[1.0, 0.4], [0.3, 1.0]])
STRONG_COUPLING = np.array([[1.0, 0.9], [0.9, 1.0]])
CARRIER_1 = 1.0e6
CARRIER_2 = 1.1e6
RATE = 8.0e6


def hann_band_power_db(
    x: np.ndarray, own: float, other: float, rate: float, half_bins: int = 4,
) -> float:
    """Independent FFT leakage measurement (Hann window, band sums)."""
    n = x.shape[0]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    spectrum = np.abs(np.fft.rfft(x * window)) ** 2
    bin_hz = rate / n

    def band(freq: float) -> float:
        center = int(round(freq / bin_hz))
        return float(np.sum(spectrum[max(center - half_bins, 0): center + half_bins + 1]))

    return 10.0 * np.log10(band(other) / band(own))


def same_residual(a: float, b: float) -> bool:
    """Two cross-tone residuals in dB that differ by rounding only.

    Within 1e-9 dB above -100 dB; below, foreign powers within 1e-20 of
    the own power, where a dB difference magnifies rounding of a power
    that small.
    """
    if max(a, b) > -100.0:
        return abs(a - b) <= 1e-9
    return abs(10.0 ** (a / 10.0) - 10.0 ** (b / 10.0)) <= 1e-20


def scenario_pair(
    kind: str = "shot-ramp",
    n: int = 2**18,
    coupling: np.ndarray | None = None,
    snr_db: float | None = None,
    noise_seed: int = 0,
):
    """Params, tracks, clean pair, and mixed pair for a scenario."""
    params = icdx.InterferometerParams()
    track1, track2 = icdx.make_scenario_tracks(kind, n, RATE, params)
    clean = icdx.synth_clean_pair(params, track1, track2)
    mixed = icdx.apply_crosstalk(
        clean, DEFAULT_COUPLING if coupling is None else coupling)
    if snr_db is not None:
        mixed = icdx.add_awgn(mixed, snr_db, noise_seed)
    return params, (track1, track2), clean, mixed


def two_tone_clean(n: int = 2**18) -> icdx.MultichannelSignal:
    """Unit-amplitude pure carriers (zero phase tracks)."""
    params = icdx.InterferometerParams()
    track1, track2 = icdx.make_scenario_tracks("quiet", n, RATE, params)
    return icdx.synth_clean_pair(params, track1, track2)


def separate(mixed: icdx.MultichannelSignal, seed: int = 0, **cfg_kw):
    """icdx.separate on the default carriers; returns (corrected, result, transform)."""
    return icdx.separate(mixed, icdx.FastIcaConfig(seed=seed, **cfg_kw),
                         {"ch1": CARRIER_1, "ch2": CARRIER_2})


def aligned_gain(result, transform, coupling, source_rms):
    """Gain matrix component slots x true sources, assignment applied."""
    gain = result.w @ transform.whitener @ coupling @ np.diag(source_rms)
    asg = result.assignment
    return np.array([asg.signs[s] * gain[asg.perm[s]] for s in range(len(asg.perm))])


def relative_rms(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean((estimate - truth) ** 2))
                 / np.sqrt(np.mean(truth**2)))
