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

from .signalgen import _check_frequency, _check_positive, as_channel

__all__ = [
    "carrier_band",
    "cross_tone_residual_db",
    "envelope_depth",
    "format_metric_value",
    "isr",
    "parse_metric_value",
    "signed_permutation_error",
    "snr",
    "tone_band",
]

# Relative power below which a residual counts as identically zero.
_ZERO_RESIDUAL = 1e-24

_TONE_HALF_WIDTH_BINS = 4  # cross_tone_residual_db(): band half-width in FFT bins

_NEG_INF_TOKEN = "neg-inf"
_POS_INF_TOKEN = "pos-inf"


def _pair(estimated, truth) -> tuple[np.ndarray, np.ndarray]:
    """Both series validated, with equal shapes."""
    e, t = as_channel(estimated, "estimated"), as_channel(truth, "truth")
    if e.shape != t.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {t.shape}")
    return e, t


def _fit(e: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """(c, t.t) with c = e.t / t.t the least-squares scale of truth t in e."""
    tt = float(t @ t)
    if tt == 0.0:
        raise ValueError("truth is identically zero")
    return float(e @ t) / tt, tt


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


def carrier_band(
    n: int, sample_rate: float, carrier: float, band_frac: float = 0.6,
) -> slice:
    """The rfft bins of an n-sample record that envelope_depth() keeps.

    Those are the bins above DC and below an even n's Nyquist bin (its
    own negative twin) whose frequency, as np.fft.rfftfreq computes it,
    lies within carrier * (1 +- band_frac). They form one run; each
    edge is decided by the same float arithmetic as rfftfreq's, so no
    frequency array is built. Raises ValueError when no bin qualifies.
    """
    step = 1.0 / (n * (1.0 / sample_rate))  # rfftfreq's bin spacing
    half = band_frac * carrier
    # From one bin outside the estimated edges inward to the exact ones.
    lo = max(math.ceil((carrier - half) / step) - 1, 1)
    hi = min(math.floor((carrier + half) / step) + 1, (n + 1) // 2 - 1)
    while lo <= hi and abs(lo * step - carrier) > half:
        lo += 1
    while hi >= lo and abs(hi * step - carrier) > half:
        hi -= 1
    if lo > hi:
        raise ValueError("no FFT bins fall inside the carrier band")
    return slice(lo, hi + 1)


def envelope_depth(
    channel: np.ndarray,
    carrier: float,
    sample_rate: float,
    band_frac: float = 0.6,
    edge_trim: float = 0.02,
    band_spectrum: np.ndarray | None = None,
) -> float:
    """Modulation depth (max - min) / (max + min) of the carrier envelope.

    The envelope is the magnitude of the analytic signal restricted to
    the band carrier * (1 +- band_frac), computed by FFT masking, so
    beats from a nearby contaminating tone register at full strength.
    A fraction edge_trim of samples is dropped from each end before
    taking the extrema (FFT masking rings at the record edges). The
    result lies in [0, 1]: 0 for a clean constant-amplitude carrier,
    approaching 1 when interference beats the envelope through zero.

    The inverse transform is exact and polyphase. Shifting the band's m
    bins down to bin 0 multiplies the analytic signal by a unit-modulus
    factor, so the envelope is unchanged. With P the largest power of two
    dividing n such that M = n / P >= m, the envelope at samples
    j = P q + r is |ifft_M| of those bins times exp(2 pi i k r / n), one
    length-M transform per phase r, and the extrema are reduced phase by
    phase. No length-n complex array is formed.

    A caller that already has the channel's spectrum passes
    band_spectrum, rfft(channel) on the carrier_band() bins, and the
    forward transform is skipped.
    """
    data, rate = as_channel(channel), _check_positive("sample_rate", sample_rate)
    _check_frequency("carrier", carrier, rate)
    if not (0.0 < band_frac < 1.0):
        raise ValueError(f"band_frac must be in (0, 1), got {band_frac}")
    if not (0.0 <= edge_trim < 0.5):
        raise ValueError(f"edge_trim must be in [0, 0.5), got {edge_trim}")

    n = data.shape[0]
    band = carrier_band(n, rate, carrier, band_frac)
    m = band.stop - band.start
    if band_spectrum is None:
        band_spectrum = np.fft.rfft(data)[band]
    elif np.shape(band_spectrum) != (m,):
        raise ValueError(
            f"band_spectrum must hold the {m} carrier-band "
            f"bins, got shape {np.shape(band_spectrum)}")
    phases = 1
    while n % (2 * phases) == 0 and n // (2 * phases) >= m:
        phases *= 2
    shifted = np.zeros(n // phases, dtype=np.complex128)
    shifted[:m] = band_spectrum
    angle = (2.0 * np.pi / n) * np.arange(m)
    ramp = np.cos(angle) + 1j * np.sin(angle)  # exp(2 pi i k / n)
    trim = int(edge_trim * n)
    analytic, envelope = np.empty_like(shifted), np.empty(shifted.size)
    hi, lo = 0.0, math.inf
    for r in range(phases):
        if r:
            shifted[:m] *= ramp
        # The kept samples trim <= P q + r < n - trim of this phase.
        start, stop = -((r - trim) // phases), -((r + trim - n) // phases)
        if start < stop:
            kept = np.abs(np.fft.ifft(shifted, out=analytic)[start:stop],
                          out=envelope[start:stop])
            hi, lo = max(hi, float(kept.max())), min(lo, float(kept.min()))
    if hi <= 0.0:
        raise ValueError("channel has no energy in the carrier band")
    return min(max((hi - lo) / (hi + lo), 0.0), 1.0)


def _tone_bins(n: int, sample_rate: float, freq: float) -> tuple[np.ndarray, np.ndarray]:
    """(mirrored, index): where a tone's DFT bins lie past Nyquist, and their rfft bins.

    The DFT bins k run over center-5 .. center+5, clipped to -1 .. n//2 + 1,
    modulo n: the +-4-bin band plus the neighbour the periodic-Hann kernel
    reads past each edge. A bin past DC or Nyquist is the mirror
    X[k] = conj(X[n - k]) of an rfft bin.
    """
    center = int(round(freq / (sample_rate / n)))
    lo = max(center - _TONE_HALF_WIDTH_BINS, 0)
    hi = min(center + _TONE_HALF_WIDTH_BINS + 1, n // 2 + 1)
    k = np.arange(lo - 1, hi + 1) % n
    mirrored = k > n // 2
    return mirrored, np.where(mirrored, n - k, k)


def tone_band(n: int, sample_rate: float, freq: float) -> np.ndarray:
    """The rfft bins of an n-sample record that cross_tone_residual_db() reads for a tone.

    Bins past DC or Nyquist appear as the rfft bins they mirror; the
    metric conjugates those itself.
    """
    return _tone_bins(n, sample_rate, freq)[1]


def cross_tone_residual_db(
    channel: np.ndarray,
    own_freq: float,
    other_freq: float,
    sample_rate: float,
    band_spectrum: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Leakage of a foreign tone relative to the channel's own tone, dB.

    Power is summed over a +-4-bin FFT band around each tone
    after Hann windowing (the window confines spectral splatter so the
    two bands do not contaminate each other). Returns -inf when the
    foreign band is empty of energy.

    The window is the periodic (DFT-even) Hann w[n] = 0.5 - 0.5 cos(2 pi n / N),
    applied in the frequency domain: its DFT has three taps, so the windowed
    spectrum at bin k is 0.5 X[k] - 0.25 (X[k-1] + X[k+1]) with X the plain
    DFT, and only the band bins are formed.

    A caller that already has the channel's spectrum passes band_spectrum,
    the pair (own, other) of rfft(channel) on tone_band(n, rate, own_freq)
    and on tone_band(n, rate, other_freq), and the forward transform is
    skipped. Only its bins above DC are read: bin 0 is the sum of the
    channel's samples, so a spectrum equal above DC will do.
    """
    data, rate = as_channel(channel), _check_positive("sample_rate", sample_rate)
    n = data.shape[0]
    for name, freq in (("own_freq", own_freq), ("other_freq", other_freq)):
        _check_frequency(name, freq, rate)
    if own_freq == other_freq:
        raise ValueError("own_freq and other_freq must be distinct")

    bands = [_tone_bins(n, rate, freq) for freq in (own_freq, other_freq)]
    if band_spectrum is None:
        spectrum = np.fft.rfft(data)
        band_spectrum = [spectrum[index] for _, index in bands]
    else:
        shapes = [np.shape(band) for band in band_spectrum]
        if shapes != [index.shape for _, index in bands]:
            raise ValueError(
                f"band_spectrum must hold the {[index.size for _, index in bands]} "
                f"tone-band bins of own_freq and other_freq, got shapes {shapes}")
        dc = data.sum() if any(0 in index for _, index in bands) else 0.0
        band_spectrum = [np.where(index == 0, dc, band)
                         for band, (_, index) in zip(band_spectrum, bands)]

    def band_power(band: np.ndarray, mirrored: np.ndarray) -> float:
        band = np.where(mirrored, np.conj(band), band)
        windowed = 0.5 * band[1:-1] - 0.25 * (band[:-2] + band[2:])
        return float(np.sum(windowed.real**2 + windowed.imag**2))

    own, other = (band_power(band, mirrored)
                  for band, (mirrored, _) in zip(band_spectrum, bands))
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
    if not np.all(np.isfinite(g)):
        raise ValueError("gain must be finite")
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

