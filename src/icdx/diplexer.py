"""Short FIR band splitting with ICA cleanup of the residual leakage.

A composite of two tones is split by a pair of low-order windowed-sinc
bandpass filters. Filters short enough to be cheap leave each branch
contaminated by the other tone; treating the two branch outputs as a
linearly mixed pair and unmixing them with the fixed-point ICA stage
removes that leakage far below what the FIR alone achieves.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import fastica, metrics
from .signalgen import (Adopted, MultichannelSignal, _check_positive, _check_same_rate,
                        as_channel, own_arrays)

__all__ = [
    "FirFilter",
    "design_fir_bandpass",
    "design_fir_lowpass",
    "filter_signal",
    "fir_split",
    "diplex",
]

_TAP_CHUNK = 1 << 12  # _zero_taps(): taps computed at a time


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR filter with symmetric taps.

    A design of order p >= 2 has p + 1 taps and the constant group delay p/2
    samples. band records the intended passband edges at design_rate; a
    lowpass design uses band = (0, cutoff).
    """

    taps: np.ndarray
    band: tuple[float, float]
    design_rate: float

    def __post_init__(self) -> None:
        own_arrays(self, taps=1)
        taps = self.taps
        _check_design(taps.size - 1, self.band, self.design_rate)
        if np.max(np.abs(taps - taps[::-1])) > 1e-12 * np.max(np.abs(taps)):
            raise ValueError("taps must be symmetric (linear phase)")


def _check_design(order: int, band: tuple[float, float], sample_rate: float,
                  what: str = "band edges") -> None:
    """The rules every filter here keeps: order >= 2, 0 <= f_lo < f_hi < Nyquist, normal angles."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    nyquist = 0.5 * sample_rate
    if not (0.0 <= band[0] < band[1] < nyquist):
        raise ValueError(f"{what} must satisfy 0 <= f_lo < f_hi < {nyquist}, got {band}")
    # A subnormal angle, the windowed sinc's argument, gives zero or non-finite taps.
    if any(edge and 2.0 * np.pi * edge / sample_rate < np.finfo(float).tiny for edge in band):
        raise ValueError(f"{what} must make 2 pi f / rate a normal float, got {band}")


def _windowed_sinc(order: int, f_lo: float, f_hi: float, sample_rate: float,
                   taps: range | None = None) -> np.ndarray:
    """Hamming-windowed ideal bandpass taps for (f_lo, f_hi); f_lo = 0 gives the lowpass.

    taps selects which of the order + 1 taps to compute (all by default).
    """
    _check_design(order, (f_lo, f_hi), sample_rate)
    index = np.arange(order + 1) if taps is None else np.arange(taps.start, taps.stop)
    m = index - 0.5 * order
    w_lo = 2.0 * np.pi * f_lo / sample_rate
    w_hi = 2.0 * np.pi * f_hi / sample_rate
    with np.errstate(invalid="ignore"):
        ideal = (np.sin(w_hi * m) - np.sin(w_lo * m)) / (np.pi * m)
    ideal[m == 0.0] = (w_hi - w_lo) / np.pi
    hamming = 0.54 - 0.46 * np.cos(2.0 * np.pi * index / order)
    return ideal * hamming


def design_fir_bandpass(
    order: int, f_lo: float, f_hi: float, sample_rate: float,
) -> FirFilter:
    """Hamming-windowed sinc bandpass, unity gain at the band center.

    order is the filter order p (p + 1 taps, group delay p / 2); it must
    be at least 2. Band edges must satisfy 0 < f_lo < f_hi < Nyquist.
    The taps are scaled so |H| = 1 exactly at the geometric band center,
    which keeps a passband tone's amplitude calibrated even for very
    short filters whose raw window gain is well below one.
    """
    if not f_lo > 0.0:
        raise ValueError(f"band edges must satisfy 0 < f_lo, got ({f_lo}, {f_hi})")
    taps = _windowed_sinc(order, f_lo, f_hi, sample_rate)
    center = 0.5 * (f_lo + f_hi)
    n = np.arange(order + 1)
    gain = abs(np.sum(taps * np.exp(-2j * np.pi * center * n / sample_rate)))
    if gain <= 0.0 or not math.isfinite(gain):
        raise ValueError("degenerate design: zero gain at band center")
    return FirFilter(taps=taps / gain, band=(f_lo, f_hi), design_rate=sample_rate)


def design_fir_lowpass(order: int, cutoff: float, sample_rate: float) -> FirFilter:
    """Hamming-windowed sinc lowpass, unity DC gain (taps sum to 1)."""
    taps = _windowed_sinc(order, 0.0, cutoff, sample_rate)
    taps = taps / taps.sum()
    return FirFilter(taps=taps, band=(0.0, cutoff), design_rate=sample_rate)


def filter_signal(signal: np.ndarray, fir: FirFilter, sample_rate: float) -> np.ndarray:
    """Causal FIR filtering with zero-padded edges, same output length.

    The output is delayed by the group delay, (fir.taps.size - 1) / 2
    samples; callers needing aligned outputs compensate with that
    constant. The signal rate must match the filter's design rate.
    """
    channel, rate = as_channel(signal), _check_positive("sample_rate", sample_rate)
    _check_same_rate("signal", rate, "filter design", fir.design_rate)
    if channel.size < fir.taps.size:
        raise ValueError(
            f"signal length {channel.size} shorter than filter ({fir.taps.size} taps)")
    return np.convolve(channel, fir.taps, mode="full")[: channel.size]


def _zero_taps(order: int, f_lo: float, f_hi: float, sample_rate: float) -> bool:
    """Whether every windowed-sinc tap for (f_lo, f_hi) is zero, so no gain can scale them.

    Edges that round to one angle zero all taps. Otherwise the taps are
    computed _TAP_CHUNK at a time until one is nonzero, which is within
    the first few: an order too large to design costs no memory here.
    """
    if 2.0 * np.pi * f_lo / sample_rate == 2.0 * np.pi * f_hi / sample_rate:
        return True
    return not any(
        np.any(_windowed_sinc(order, f_lo, f_hi, sample_rate,
                              range(start, min(start + _TAP_CHUNK, order + 1))))
        for start in range(0, order + 1, _TAP_CHUNK))


def _check_split(tone_a: float, tone_b: float, order: int, sample_rate: float,
                 band_frac: float) -> None:
    """Range-check fir_split's settings; each error starts with the name it refuses."""
    if tone_a == tone_b:
        raise ValueError(f"tone_a and tone_b must be distinct, both are {tone_a}")
    if not (0.0 < band_frac < 1.0):
        raise ValueError(f"band_frac must be in (0, 1), got {band_frac}")
    for name, tone in (("tone_a", tone_a), ("tone_b", tone_b)):
        edges = (tone * (1.0 - band_frac), tone * (1.0 + band_frac))
        _check_design(order, edges, sample_rate, f"{name} passband")
        if _zero_taps(order, *edges, sample_rate):
            raise ValueError(f"band_frac {band_frac} is too narrow: the {name} passband "
                             "design has zero gain at band center")


def fir_split(
    composite: np.ndarray,
    tone_a: float,
    tone_b: float,
    order: int,
    sample_rate: float,
    band_frac: float = 0.2,
) -> MultichannelSignal:
    """FIR-only branch split of a two-tone composite.

    Each tone gets a windowed-sinc bandpass of the given order with
    passband edges at (1 +- band_frac) times its frequency. Short
    filters leave substantial cross-tone leakage in each branch; this
    stage exists both as the front end of diplex() and as the baseline
    it is measured against.
    """
    channel, rate = as_channel(composite), _check_positive("sample_rate", sample_rate)
    _check_split(tone_a, tone_b, order, rate, band_frac)
    # Checked before any design: the taps of an absurd order do not fit in memory.
    if order + 1 > channel.size:
        raise ValueError(
            f"signal length {channel.size} shorter than filter ({order + 1} taps)")
    branches = np.empty((2, channel.size))
    for row, freq in zip(branches, (tone_a, tone_b)):
        fir = design_fir_bandpass(
            order, freq * (1.0 - band_frac), freq * (1.0 + band_frac), rate)
        row[:] = filter_signal(channel, fir, rate)
    return MultichannelSignal(Adopted(branches), rate)


def diplex(
    composite: np.ndarray,
    tone_a: float,
    tone_b: float,
    order: int,
    cfg: fastica.FastIcaConfig,
    sample_rate: float,
    band_frac: float = inspect.signature(fir_split).parameters["band_frac"].default,
) -> tuple[MultichannelSignal, MultichannelSignal, dict[str, tuple[float, float]]]:
    """Split a two-tone composite into clean per-tone channels, FIR then ICA.

    The FIR branch outputs from fir_split() are treated as a linear
    mixture of the two tones and separated by fastica.separate(), which
    matches components to the tone frequencies; each is peak-normalized
    to amplitude 1. Returns (fir_only, separated, residual_db): the FIR
    branches, the baseline the cascade is measured against, and the
    cleaned channels, both ordered (tone_a, tone_b); residual_db["fir"]
    and residual_db["ica"] hold each one's
    metrics.cross_tone_residual_db(), in the same order.

    Raises RankDeficientError when the composite does not actually
    contain two distinct tones, IdentificationError if the components
    cannot be told apart by frequency, and ConvergenceError if the
    unmixing stage fails. Identification comes first, so a run that
    fails both raises IdentificationError.
    """
    fir_only = fir_split(composite, tone_a, tone_b, order, sample_rate, band_frac)
    tones = (tone_a, tone_b)
    rate = fir_only.sample_rate
    # Both tone bands of each branch, summed directly row by row as the metric does
    # for one channel, serve all four residuals; the FIR ones equal the metric's.
    bands = [metrics.tone_band(fir_only.length, rate, freq) for freq in tones]
    branch_bands = np.split(metrics._rfft_bins(fir_only.data, np.concatenate(bands)),
                            [bands[0].size], axis=1)

    # Estimate statistics on the steady-state region only: the first
    # `order` samples are partial convolutions, and that startup
    # transient is enough rank-2 energy to mask a genuinely
    # one-dimensional input (a single tone must fail as rank deficient,
    # not limp through to a component identification collision).
    separated, result, _ = fastica.separate(
        fir_only, cfg, {"tone_a": tone_a, "tone_b": tone_b}, skip=order)
    if not all(result.converged):
        raise fastica.ConvergenceError(
            f"unmixing did not converge (iterations {result.iterations})")

    # Tones carry no DC: pin each output mean to zero exactly, then
    # normalize to unit peak, in place on the one centered copy.
    data = separated.data - separated.data.mean(axis=1, keepdims=True)
    del separated
    peaks = np.maximum(data.max(axis=1), -data.min(axis=1))
    if np.any(peaks == 0.0):
        raise fastica.ConvergenceError("separated component is identically zero")
    data /= peaks[:, None]
    cleaned = MultichannelSignal(Adopted(data), rate)

    # The cleaned channels are this fixed map of the centered branches, so
    # above DC (all the metric reads) their bins are the map of the branches'.
    mapping = result.assignment.apply_rows(result.w_full) / peaks[:, None]
    residual_db = {}
    for key, signal, bands in (("fir", fir_only, branch_bands),
                               ("ica", cleaned, [mapping @ band for band in branch_bands])):
        residual_db[key] = tuple(
            metrics.cross_tone_residual_db(
                signal.data[i], tones[i], tones[1 - i], rate,
                band_spectrum=(bands[i][i], bands[1 - i][i]))
            for i in range(2))
    return fir_only, cleaned, residual_db
