"""Separation and demodulation quality measures.

All ratios are reported in dB. Perfect outcomes hit true infinities
(zero residual power); those are kept as IEEE infinities in memory and
mapped to explicit text sentinels by the serialization helpers, never
written as bare floating-point inf.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .signalgen import as_channel

__all__ = [
    "best_fit_scale",
    "cross_tone_residual_db",
    "envelope_depth",
    "format_metric_value",
    "isr",
    "parse_metric_value",
    "signed_permutation_error",
    "snr",
]

# Relative power below which a residual counts as identically zero.
_ZERO_RESIDUAL = 1e-24

_NEG_INF_TOKEN = "neg-inf"
_POS_INF_TOKEN = "pos-inf"


def _series(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a 1-D series with at least 2 samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _pair(estimated, truth) -> tuple[np.ndarray, np.ndarray]:
    """Both series validated, with equal shapes."""
    e = _series(estimated, "estimated")
    t = _series(truth, "truth")
    if e.shape != t.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {t.shape}")
    return e, t


def _fit(e: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """(c, t.t) with c = e.t / t.t the least-squares scale of truth t in e."""
    tt = float(t @ t)
    if tt == 0.0:
        raise ValueError("truth is identically zero")
    return float(e @ t) / tt, tt


def best_fit_scale(estimated, truth) -> float:
    """Least-squares scalar c minimizing |estimated - c * truth|."""
    return _fit(*_pair(estimated, truth))[0]


def isr(estimated, truth) -> float:
    """Interference-to-signal ratio in dB after the best scalar fit.

    The estimated series is decomposed as c * truth + residual with c
    the least-squares scale; the return value is
    10 log10(P_residual / P_fit). A residual below 1e-24 of the fitted
    power returns -inf (exact recovery up to scale); an estimate
    orthogonal to the truth returns +inf.
    """
    e, t = _pair(estimated, truth)
    c, tt = _fit(e, t)
    if float(e @ e) == 0.0:
        raise ValueError("estimated is identically zero")
    fit_power = c * c * tt
    residual = e - c * t
    residual_power = float(residual @ residual)
    if fit_power == 0.0:
        return math.inf
    if residual_power <= _ZERO_RESIDUAL * fit_power:
        return -math.inf
    return 10.0 * math.log10(residual_power / fit_power)


def snr(estimated, truth) -> float:
    """Signal-to-noise ratio of an estimate against its ground truth, dB.

    10 log10(P_truth / P_error) with error = estimated - truth (no
    rescaling: calibration errors count as noise). Returns +inf for an
    exact match.
    """
    e, t = _pair(estimated, truth)
    signal_power = float(np.mean(t * t))
    if signal_power == 0.0:
        raise ValueError("truth is identically zero")
    error_power = float(np.mean((e - t) ** 2))
    if error_power <= _ZERO_RESIDUAL * signal_power:
        return math.inf
    return 10.0 * math.log10(signal_power / error_power)


def envelope_depth(
    channel,
    carrier: float,
    sample_rate: float | None = None,
    band_frac: float = 0.6,
    edge_trim: float = 0.02,
) -> float:
    """Modulation depth (max - min) / (max + min) of the carrier envelope.

    The envelope is the magnitude of the analytic signal restricted to
    the band carrier * (1 +- band_frac), computed by FFT masking, so
    beats from a nearby contaminating tone register at full strength.
    A fraction edge_trim of samples is dropped from each end before
    taking the extrema (FFT masking rings at the record edges). The
    result lies in [0, 1]: 0 for a clean constant-amplitude carrier,
    approaching 1 when interference beats the envelope through zero.
    """
    data, rate = as_channel(channel, sample_rate)
    data = _series(data, "channel")
    if not (0.0 < carrier < 0.5 * rate):
        raise ValueError(f"carrier must be in (0, {0.5 * rate}), got {carrier}")
    if not (0.0 < band_frac < 1.0):
        raise ValueError(f"band_frac must be in (0, 1), got {band_frac}")
    if not (0.0 <= edge_trim < 0.5):
        raise ValueError(f"edge_trim must be in [0, 0.5), got {edge_trim}")

    n = data.shape[0]
    spectrum = np.fft.rfft(data)
    # An even n's Nyquist bin is its own negative twin: keep it out of the band.
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)[: (n + 1) // 2]
    band = np.flatnonzero((freqs > 0) & (np.abs(freqs - carrier) <= band_frac * carrier))
    if band.size == 0:
        raise ValueError("no FFT bins fall inside the carrier band")
    analytic = np.zeros(n, dtype=np.complex128)
    analytic[band] = 2.0 * spectrum[band]
    envelope = np.abs(np.fft.ifft(analytic))
    trim = int(edge_trim * n)
    if trim > 0:
        envelope = envelope[trim: n - trim]
    hi = float(np.max(envelope))
    lo = float(np.min(envelope))
    if hi <= 0.0:
        raise ValueError("channel has no energy in the carrier band")
    return min(max((hi - lo) / (hi + lo), 0.0), 1.0)


def cross_tone_residual_db(
    channel,
    own_freq: float,
    other_freq: float,
    sample_rate: float | None = None,
    half_width_bins: int = 4,
) -> float:
    """Leakage of a foreign tone relative to the channel's own tone, dB.

    Power is summed over a +-half_width_bins FFT band around each tone
    after Hann windowing (the window confines spectral splatter so the
    two bands do not contaminate each other). Returns -inf when the
    foreign band is empty of energy.
    """
    data, rate = as_channel(channel, sample_rate)
    data = _series(data, "channel")
    n = data.shape[0]
    nyquist = 0.5 * rate
    for name, freq in (("own_freq", own_freq), ("other_freq", other_freq)):
        if not (0.0 < freq < nyquist):
            raise ValueError(f"{name} must be in (0, {nyquist}), got {freq}")
    if own_freq == other_freq:
        raise ValueError("own_freq and other_freq must be distinct")

    window = np.hanning(n)
    spectrum = np.abs(np.fft.rfft(data * window)) ** 2
    bin_hz = rate / n

    def band_power(freq: float) -> float:
        center = int(round(freq / bin_hz))
        lo = max(center - half_width_bins, 0)
        hi = min(center + half_width_bins + 1, spectrum.shape[0])
        return float(np.sum(spectrum[lo:hi]))

    own = band_power(own_freq)
    other = band_power(other_freq)
    if own == 0.0:
        raise ValueError("channel has no power at its own tone")
    if other <= _ZERO_RESIDUAL * own:
        return -math.inf
    return 10.0 * math.log10(other / own)


def signed_permutation_error(gain: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Distance of a gain matrix from the nearest signed permutation.

    Searches all permutations (fine for the small channel counts used
    here), choosing the one with the largest total |diagonal|. Returns
    (perm, signs, max_abs_deviation) where deviation is measured entry
    by entry against the signed permutation matrix.
    """
    g = np.asarray(gain, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gain must be square, got shape {g.shape}")
    dim = g.shape[0]
    if dim > 8:
        raise ValueError("permutation search is limited to 8 channels")
    best_perm = None
    best_score = -math.inf
    for perm in permutations(range(dim)):
        score = sum(abs(g[i, perm[i]]) for i in range(dim))
        if score > best_score:
            best_score = score
            best_perm = perm
    signs = tuple(1 if g[i, best_perm[i]] >= 0.0 else -1 for i in range(dim))
    target = np.zeros_like(g)
    for i, (j, s) in enumerate(zip(best_perm, signs)):
        target[i, j] = s
    return best_perm, signs, float(np.max(np.abs(g - target)))


def format_metric_value(value: float) -> str:
    """Serialize a metric, mapping infinities to explicit sentinels."""
    if math.isnan(value):
        raise ValueError("metric values must not be NaN")
    if value == -math.inf:
        return _NEG_INF_TOKEN
    if value == math.inf:
        return _POS_INF_TOKEN
    return repr(float(value))


def parse_metric_value(token: str) -> float:
    """Inverse of format_metric_value."""
    token = token.strip()
    if token == _NEG_INF_TOKEN:
        return -math.inf
    if token == _POS_INF_TOKEN:
        return math.inf
    return float(token)

