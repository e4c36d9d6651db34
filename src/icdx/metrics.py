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

from .signalgen import _check_frequency, _check_positive, _two_lanes, as_channel

__all__ = [
    "carrier_band",
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

_TONE_HALF_WIDTH_BINS = 4  # cross_tone_residual_db(): band half-width in FFT bins
_DFT_PIECE = 1 << 12  # _rfft_bins(): samples per piece of the blocked product
_BAND_FRAC = 0.6  # envelope_depth(): band half-width, relative to the carrier
_EDGE_TRIM = 0.02  # envelope_depth(): samples dropped from each end, relative to n
_ABS_CHUNK = 1 << 14  # envelope_depth(): magnitudes taken per pass, so none is phase-sized

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
    n: int, sample_rate: float, carrier: float, band_frac: float = _BAND_FRAC,
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
    band_spectrum: np.ndarray | None = None,
) -> float:
    """Modulation depth (max - min) / (max + min) of the carrier envelope.

    The envelope is the magnitude of the analytic signal restricted to
    the band carrier * (1 +- 0.6) (_BAND_FRAC), computed by FFT masking,
    so beats from a nearby contaminating tone register at full strength.
    A fraction 0.02 (_EDGE_TRIM) of samples is dropped from each end
    before taking the extrema (FFT masking rings at the record edges). The
    result lies in [0, 1]: 0 for a clean constant-amplitude carrier,
    approaching 1 when interference beats the envelope through zero.

    The inverse transform is exact and polyphase. Shifting the band's m
    bins down to bin 0 multiplies the analytic signal by a unit-modulus
    factor, so the envelope is unchanged. Let P be the largest power of two
    dividing n such that n / P >= m, and Q = 2P phases when 2P divides n
    (Q = P otherwise, odd n included). The envelope at samples j = Q q + r
    is |ifft_L| of those bins times exp(2 pi i k r / n), folded once onto
    L = n / Q bins (bin k + L adds onto bin k; L < m <= 2L when Q = 2P):
    one length-L transform per phase r, the extrema reduced phase by phase.
    The ramp exp(2 pi i k / n) is formed in two halves of its bins on two
    lanes (signalgen._two_lanes), each lane also copying its band. The 2P phases
    then run on the two lanes, the even ones on the calling thread and the
    odd ones on one worker, each lane with its own band copy and one
    length-L buffer inverted in place, so the two hold no more than P
    phases of 2L bins on one thread would. No length-n complex array is
    formed, and the result does not depend on thread timing.

    A caller that already has the channel's spectrum passes
    band_spectrum, rfft(channel) on the carrier_band() bins, and the
    forward transform is skipped.
    """
    data, rate = as_channel(channel), _check_positive("sample_rate", sample_rate)
    _check_frequency("carrier", carrier, rate)

    n = data.shape[0]
    band = carrier_band(n, rate, carrier)
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
    lanes = 2 if n % (2 * phases) == 0 else 1
    phases *= lanes
    size = n // phases
    tail = max(m - size, 0)  # bins folded onto the first ones: size < m <= 2 size with two lanes
    angle = (2.0 * np.pi / n) * np.arange(m)
    ramp = np.empty(m, dtype=np.complex128)  # exp(2 pi i k / n)
    trim = int(_EDGE_TRIM * n)
    # Per lane, views of one block made before the lanes start (freed as one hole):
    # the band times ramp^r, and the phase's bins folded and inverted in place.
    block = np.empty((lanes, m + size), dtype=np.complex128)
    bands, folds = block[:, :m], block[:, m:]
    mags = np.empty((lanes, min(size, _ABS_CHUNK)))

    half = -(-m // 16) * 8  # a multiple of 8 bins: the first half ends on whole SIMD blocks

    def prologue(j: int) -> None:
        """Half j of the ramp, cos and sin each over a contiguous slice, and lane j's band."""
        cut = slice(half * j, half * (j + 1))
        part = ramp[cut]
        part.real, part.imag = np.cos(angle[cut]), np.sin(angle[cut])
        if j < lanes:
            bands[j] = band_spectrum

    _two_lanes(prologue)
    if lanes == 2:
        bands[1] *= ramp
        ramp *= ramp  # a lane steps two phases at a time

    def lane(j: int) -> tuple[float, float]:
        band, folded, mag = bands[j], folds[j], mags[j]
        hi, lo = 0.0, math.inf
        for r in range(j, phases, lanes):
            if r > j:
                band *= ramp
            # The kept samples trim <= Q q + r < n - trim of this phase.
            start, stop = -((r - trim) // phases), -((r + trim - n) // phases)
            if start >= stop:
                continue
            folded[:m] = band[:size]
            folded[m:] = 0.0
            folded[:tail] += band[size:]
            np.fft.ifft(folded, out=folded)
            for a in range(start, stop, mag.size):
                b = min(a + mag.size, stop)
                kept = np.abs(folded[a:b], out=mag[:b - a])
                hi, lo = max(hi, float(kept.max())), min(lo, float(kept.min()))
        return hi, lo

    extrema = _two_lanes(lane) if lanes == 2 else (lane(0),)
    hi, lo = max(e[0] for e in extrema), min(e[1] for e in extrema)
    if hi <= 0.0:
        raise ValueError("channel has no energy in the carrier band")
    return min(max((hi - lo) / (hi + lo), 0.0), 1.0)


def _rfft_bins(rows: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """rfft(row)[bins] of each row of a 2-D array, by direct sums in O(bins x n).

    Twiddle angles are 2 pi ((k t) mod n) / n, reduced exactly in int64. A row's
    _DFT_PIECE-sample pieces share one cos/sin table of the bins, their sums are
    combined with their own twiddles, and the remainder is added. Each row is
    summed alone on the sorted distinct bins, the same bits whatever the bin order.
    """
    n = rows.shape[1]
    keep, where = np.unique(bins, return_inverse=True)

    def twiddles(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        angle = (2.0 * np.pi / n) * ((t[:, None] * keep) % n)
        return np.cos(angle), np.sin(angle)

    split = n - n % (piece := min(n, _DFT_PIECE))
    table = np.hstack(twiddles(np.arange(piece)))
    shift_cos, shift_sin = twiddles(np.arange(0, split, piece))
    tail_cos, tail_sin = twiddles(np.arange(split, n))
    out = np.empty((rows.shape[0], keep.size), dtype=np.complex128)
    for row, dft in zip(rows, out):
        c, s = np.hsplit(row[:split].reshape(-1, piece) @ table, 2)
        dft.real = (shift_cos * c - shift_sin * s).sum(axis=0) + row[split:] @ tail_cos
        dft.imag = -(shift_sin * c + shift_cos * s).sum(axis=0) - row[split:] @ tail_sin
    return out[:, where]


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


def cross_tone_residual_db(
    channel: np.ndarray,
    own_freq: float,
    other_freq: float,
    sample_rate: float,
) -> float:
    """Leakage of a foreign tone relative to the channel's own tone, dB.

    Power is summed over a +-4-bin FFT band around each tone
    after Hann windowing (the window confines spectral splatter so the
    two bands do not contaminate each other). Returns -inf when the
    foreign band is empty of energy.

    The window is the periodic (DFT-even) Hann w[n] = 0.5 - 0.5 cos(2 pi n / N),
    applied in the frequency domain: its DFT has three taps, so the windowed
    spectrum at bin k is 0.5 X[k] - 0.25 (X[k-1] + X[k+1]) with X the plain
    DFT; only X's band bins are formed, as direct sums (_rfft_bins), and they
    are divided by the largest windowed bin before squaring, so no power overflows.
    """
    data, rate = as_channel(channel), _check_positive("sample_rate", sample_rate)
    n = data.shape[0]
    for name, freq in (("own_freq", own_freq), ("other_freq", other_freq)):
        _check_frequency(name, freq, rate)
    if own_freq == other_freq:
        raise ValueError("own_freq and other_freq must be distinct")

    bands = [_tone_bins(n, rate, freq) for freq in (own_freq, other_freq)]
    return _residual_db(data, bands, None)


def _residual_db(data: np.ndarray, bands: list[tuple[np.ndarray, np.ndarray]],
                 band_spectrum: tuple[np.ndarray, np.ndarray] | None) -> float:
    """cross_tone_residual_db() past its checks; bands holds _tone_bins() of both tones.

    A given band_spectrum's bin 0, if any, is replaced by the channel's sum.
    """
    if band_spectrum is None:
        spectrum = _rfft_bins(data[None], np.concatenate([index for _, index in bands]))
        band_spectrum = np.split(spectrum[0], [bands[0][1].size])
    else:
        dc = data.sum() if any(0 in index for _, index in bands) else 0.0
        band_spectrum = [np.where(index == 0, dc, band)
                         for band, (_, index) in zip(band_spectrum, bands)]

    def windowed(band: np.ndarray, mirrored: np.ndarray) -> np.ndarray:
        band = np.where(mirrored, np.conj(band), band)
        return 0.5 * band[1:-1] - 0.25 * (band[:-2] + band[2:])

    own, other = (windowed(band, mirrored) for band, (mirrored, _) in zip(band_spectrum, bands))
    peak = max(np.abs(own).max(), np.abs(other).max()) or 1.0
    own, other = (float(np.sum(np.abs(band / peak) ** 2)) for band in (own, other))
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

