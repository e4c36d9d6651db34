"""Quadrature phase demodulation and two-color density recovery.

Each heterodyne channel is mixed against quadrature references at its
carrier frequency, lowpass filtered, decimated, and converted to an
unwrapped phase track. A second, wider lowpass rail tracks the carrier
envelope at the full input rate: when crosstalk beats drive the
envelope through a null, the phase is unrecoverable there, and the
demodulator reports the affected sample ranges instead of silently
returning garbage.

The narrow rail cascades the windowed-sinc lowpass with a double
moving-average comb whose length places an exact transmission zero on
the 2 x carrier mixing image, so a clean carrier demodulates to a phase
track flat at the 1e-6 radian level rather than the 1e-4 ripple the
windowed sinc alone would leave.

No sample is mixed: mixing x by 2 e^(-j w k), w = 2 pi carrier / rate, then
filtering with taps h gives I + jQ = 2 e^(-j w (n + d)) (x * g)(n + d) at output
n, with d = (h.size - 1) // 2 and g(m) = h(m) e^(j w m). So the envelope is
2 |x * g|, and the narrow rail needs the carrier factor only where it keeps
samples. Both convolve by overlap-save over fixed blocks, one real FFT each.

Density recovery combines the two unwrapped phase tracks with the
standard two-color relation: path-length (vibration) phase scales as
1/wavelength while plasma phase scales as wavelength, so the weighted
difference cancels vibration and leaves the line-integrated electron
density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diplexer import _check_design, design_fir_lowpass
from .signalgen import (Adopted, InterferometerParams, _check_frequency, _check_positive,
                        _check_same_rate, _two_lanes, as_channel, own_arrays)

__all__ = [
    "PhaseTrackingLostError",
    "PhaseSeries",
    "DensitySeries",
    "unwrap",
    "demodulate",
    "line_integrated_density",
]


_IMAGE_COMB_MAX_LEN = 512  # longest moving average the image comb may use
_BLOCK = 8192  # overlap-save FFT length (fastest of those measured at 2^20 samples)
_GROUP = 8  # blocks per batched transform: temporaries stay O(_GROUP * _BLOCK)


class PhaseTrackingLostError(RuntimeError):
    """The carrier envelope collapsed below the tracking floor.

    ranges holds (start, stop) input-sample index pairs (stop exclusive)
    where the envelope stayed below the floor for at least the minimum
    run length.
    """

    def __init__(self, message: str, ranges: tuple[tuple[int, int], ...]):
        super().__init__(message)
        self.ranges = ranges


class _Settled:
    """Shared by the series types: owned 1-D samples, a finite rate, settle at both ends."""

    def __post_init__(self) -> None:
        own_arrays(self, samples=1)
        _check_positive("sample_rate", self.sample_rate)
        if self.settle < 0:
            raise ValueError("settle must be non-negative")

    def __len__(self) -> int:
        return self.samples.shape[0]

    def steady(self) -> np.ndarray:
        """The samples with both settle transients removed."""
        if 2 * self.settle >= len(self):
            return self.samples[0:0]
        return self.samples[self.settle: len(self) - self.settle]


@dataclass(frozen=True)
class PhaseSeries(_Settled):
    """Unwrapped phase track in radians at the decimated rate.

    settle counts decimated samples at each end still inside the filter
    transient; analyses should exclude them. The delay-compensated
    narrow rail reads past the record for taps.size // 2 input samples
    at the start and (taps.size - 1) // 2 at the end, so settle is the
    former rounded up to whole decimated samples. lost_ranges lists
    envelope null intervals in input-sample indices (empty when tracking
    held).
    """

    samples: np.ndarray
    sample_rate: float
    carrier: float
    decimation: int
    settle: int
    lost_ranges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.carrier > 0 and self.decimation >= 1):
            raise ValueError("carrier and decimation must be positive")

    @property
    def tracking_lost(self) -> bool:
        return len(self.lost_ranges) > 0


@dataclass(frozen=True)
class DensitySeries(_Settled):
    """Line-integrated electron density in 1/m^2 at the phase-track rate."""

    samples: np.ndarray
    sample_rate: float
    settle: int


def unwrap(wrapped: np.ndarray) -> np.ndarray:
    """Unwrap a phase series so successive differences lie in (-pi, pi].

    The first output sample equals the first input sample; each later
    sample adds the wrapped difference. Equivalent to numpy.unwrap up to
    the half-open interval convention at exactly pi jumps.
    """
    w = np.asarray(wrapped, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("wrapped must be 1-D")
    return _unwrap_in_place(w.copy())


def _unwrap_in_place(w: np.ndarray) -> np.ndarray:
    """unwrap(w) written over w, _BLOCK samples at a time.

    Each block's running sum starts from the previous block's last one, so the
    additions are those of one cumsum over the record, in the same order.
    """
    for start in range(1, w.size, _BLOCK):
        block = w[start: start + _BLOCK]
        steps = _wrap_pi(np.diff(block, prepend=w[0] if start == 1 else last))
        last = block[-1]
        if start > 1:
            steps[0] += total
        total = np.cumsum(steps, out=block)[-1]
        block += w[0]
    return w


def _wrap_pi(values: np.ndarray) -> np.ndarray:
    """Wrap values into (-pi, pi]."""
    return np.pi - np.mod(np.pi - values, 2.0 * np.pi)


def _image_comb(carrier: float, sample_rate: float) -> np.ndarray:
    """Double moving average with an exact zero at the 2 x carrier image.

    A length-L moving average has transmission zeros at multiples of
    sample_rate / L; choosing L so that 2 * carrier is such a multiple
    nulls the mixing image exactly. Squaring the comb keeps the null
    second order, so it survives the later cascade normalization. When
    2 * carrier / sample_rate has no small exact rational form, the comb
    degenerates to a passthrough and the windowed sinc's stopband is all
    the image rejection available.
    """
    ratio = 2.0 * carrier / sample_rate
    frac = Fraction(ratio).limit_denominator(_IMAGE_COMB_MAX_LEN)
    if frac.denominator <= 1 or abs(float(frac) - ratio) > 1e-12:
        return np.ones(1)
    box = np.ones(frac.denominator) / frac.denominator
    return np.convolve(box, box)


def _overlap_save(x: np.ndarray, wide: np.ndarray, narrow: np.ndarray,
                  step: int) -> tuple[np.ndarray, np.ndarray]:
    """|x * wide| at every sample and x * narrow at every step-th, delay compensated.

    Output n of taps g is np.convolve(x, g)[n + (g.size - 1) // 2], x zero outside
    the record: one rfft per block, Hermitian-extended, times each filter's spectrum,
    inverted in place with one complex ifft. Groups of _GROUP // 2 blocks alternate
    between two lanes (signalgen._two_lanes), each with its own two group-sized
    buffers, so both hold no more than one _GROUP-block group would; every block's
    transforms are the same whichever lane runs them.
    """
    n, size = x.shape[0], max(wide.size, narrow.size)
    lead, overlap = (size - 1) // 2, size - 1
    block = max(_BLOCK, 1 << (2 * overlap).bit_length())
    # No sum either transform forms exceeds the peak times block times a filter's
    # absolute tap sum, so a peak below this bound keeps every one finite.
    peak = float(max(x.max(), -x.min()))
    gain = block * float(max(np.abs(g).sum() for g in (wide, narrow)))
    if peak * gain >= np.finfo(np.float64).max:  # Python floats: inf, no warning
        raise ValueError(
            f"channel peak {peak:.3g} passes the float64 range of the {block}-sample "
            f"transforms: it must stay below {np.finfo(np.float64).max / gain:.3g}")
    valid = block - overlap
    # Filters centred on delay lead, x at overlap - lead in padded: output j >=
    # overlap of block b is the linear convolution at record sample b * valid + j - overlap.
    spectra = [np.fft.fft(np.concatenate((np.zeros(lead - (g.size - 1) // 2), g)), block)
               for g in (wide, narrow)]
    blocks = -(-n // valid)
    padded = np.zeros((blocks - 1) * valid + block)
    padded[overlap - lead: overlap - lead + n] = x
    frames = np.lib.stride_tricks.sliding_window_view(padded, block)[::valid]
    envelope, kept = np.empty(blocks * valid), np.empty(-(-n // step), dtype=complex)
    rows, bins = _GROUP // 2, block // 2 + 1
    # Per lane: Hermitian-extended block spectra, and their products inverted in place.
    work = np.empty((2, 2, rows, block), dtype=complex)

    def lane(j: int) -> None:
        spectrum, product = work[j]
        for first in range(j * rows, blocks, 2 * rows):
            k = min(rows, blocks - first)
            np.fft.rfft(frames[first: first + k], out=spectrum[:k, :bins])
            np.conjugate(spectrum[:k, bins - 2: 0: -1], out=spectrum[:k, bins:])
            lo = first * valid
            np.fft.ifft(np.multiply(spectrum[:k], spectra[0], out=product[:k]), out=product[:k])
            np.abs(product[:k, overlap:], out=envelope[lo: lo + k * valid].reshape(k, valid))
            np.fft.ifft(np.multiply(spectrum[:k], spectra[1], out=product[:k]), out=product[:k])
            for row, start in zip(product, range(lo, min(lo + k * valid, n), valid)):
                i, stop = -(-start // step), -(-min(start + valid, n) // step)
                kept[i: stop] = row[overlap + i * step - start:: step][: stop - i]

    _two_lanes(lane)
    return envelope[:n], kept


def _median(values: np.ndarray) -> float:
    """np.median of a finite 1-D array, from one selection.

    np.median averages the two middle order statistics of an even length
    (the middle one of an odd length); the lower of the two is the largest
    entry left of the selected upper one, so the bits are the same. Only a
    zero median's sign may differ, where -0.0 and 0.0 both occur; the
    envelope, a magnitude, holds no -0.0.
    """
    half = values.size // 2
    part = np.partition(values, half)
    if values.size % 2:
        return float(part[half])
    return float((part[:half].max() + part[half]) / 2.0)


def _find_runs(mask: np.ndarray, min_run: int) -> list[tuple[int, int]]:
    """(start, stop) pairs of True runs at least min_run long."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, stops = edges[::2], edges[1::2]
    return [(int(a), int(b)) for a, b in zip(starts, stops) if b - a >= min_run]


def _check_settings(carrier: float, lowpass_cutoff: float, decimation: int,
                    sample_rate: float, filter_order: int, envelope_order: int,
                    envelope_floor: float, envelope_min_run: int) -> float:
    """Range-check demodulate's settings; returns the envelope rail's cutoff."""
    _check_frequency("carrier", carrier, sample_rate)
    # Below Nyquist for any carrier in range.
    envelope_cutoff = min(0.4 * carrier, 0.95 * (0.5 * sample_rate - carrier))
    if not (0.0 < lowpass_cutoff <= envelope_cutoff):
        raise ValueError(
            f"lowpass_cutoff must not exceed the envelope cutoff {envelope_cutoff} "
            f"and must be positive, got {lowpass_cutoff}")
    for name, value, low in (("decimation", decimation, 1), ("filter_order", filter_order, 8),
                             ("envelope_order", envelope_order, 8),
                             ("envelope_min_run", envelope_min_run, 1)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if not (0.0 < envelope_floor < 1.0):
        raise ValueError(f"envelope_floor must be in (0, 1), got {envelope_floor}")
    # The envelope rail's band is wider, so this covers its design too.
    _check_design(filter_order, (0.0, lowpass_cutoff), sample_rate, "lowpass_cutoff")
    return envelope_cutoff


def demodulate(
    channel: np.ndarray,
    carrier: float,
    lowpass_cutoff: float,
    decimation: int,
    sample_rate: float,
    *,
    filter_order: int = 256,
    envelope_order: int = 128,
    envelope_floor: float = 0.2,
    envelope_min_run: int = 4,
    strict: bool = True,
) -> PhaseSeries:
    """Recover the unwrapped phase of one heterodyne channel.

    The channel is multiplied by 2 cos(2 pi carrier t) and
    -2 sin(2 pi carrier t), lowpass filtered (windowed sinc of
    filter_order taps plus the image comb), delay compensated, and
    decimated; phase is atan2(Q, I) + pi/2 unwrapped, so a clean
    sin(2 pi carrier t + track) input returns the track itself. It is
    computed with carrier-modulated taps, as the module docstring derives.

    Envelope supervision runs before decimation on a separate wider
    rail (cutoff min(0.4 * carrier, 0.95 * (nyquist - carrier)), which
    lowpass_cutoff must not exceed) so that fast crosstalk beats are not
    smoothed away: wherever sqrt(I^2 + Q^2) stays below envelope_floor
    times its own median for at least envelope_min_run samples, phase is
    declared unrecoverable.
    With strict=True (default) that raises PhaseTrackingLostError;
    otherwise the ranges are recorded on the returned series.

    channel is a finite 1-D array sampled at sample_rate. Both filter
    orders must be at least 8 and envelope_min_run at least 1. A channel
    whose peak times the transform block length times a filter's absolute
    tap sum passes the float64 range raises ValueError before any transform.
    """
    data, rate = as_channel(channel), _check_positive("sample_rate", sample_rate)
    envelope_cutoff = _check_settings(carrier, lowpass_cutoff, decimation, rate, filter_order,
                                      envelope_order, envelope_floor, envelope_min_run)

    # Narrow rail: windowed sinc cascaded with the image comb, unity DC.
    # A record shorter than either filter never leaves its transient, so
    # both lengths are checked before any taps are designed.
    comb = _image_comb(carrier, rate)
    n = data.shape[0]
    for name, size in (("demodulation", filter_order + comb.size),
                       ("envelope", envelope_order + 1)):
        if n < size:
            raise ValueError(
                f"record length {n} shorter than the {name} filter ({size} taps)")
    taps = np.convolve(design_fir_lowpass(filter_order, lowpass_cutoff, rate).taps, comb)
    taps = taps / taps.sum()
    # Envelope rail: a wide lowpass at the full rate, so crosstalk beat
    # nulls show up instead of being averaged away. Mixing is on the taps.
    env_taps = design_fir_lowpass(envelope_order, envelope_cutoff, rate).taps
    wide, narrow = (2.0 * h * np.exp(2j * np.pi * carrier / rate * np.arange(h.size))
                    for h in (env_taps, taps))
    envelope, rail = _overlap_save(data, wide, narrow, decimation)
    margin = min(envelope_order, n // 4)
    samples = np.empty(rail.size)  # the phase lane's output, made before the lanes start

    def floor_runs() -> tuple[tuple[int, int], ...]:
        floor = envelope_floor * _median(envelope[margin: n - margin])
        mask = envelope < floor
        # Filter transients are not evidence of signal loss.
        mask[:margin] = mask[n - margin:] = False
        return tuple(_find_runs(mask, envelope_min_run))

    def phase() -> None:
        # Carrier phase at kept input samples k; carrier / rate splits exactly into
        # hi, whose 26 fractional bits keep k * hi exact, and a rest below 2^-26.
        # Every step is elementwise but the unwrap, so _BLOCK samples at a time
        # keep the lane's temporaries small beside the floor's envelope copy.
        ratio = Fraction(carrier) / Fraction(rate)
        hi = math.floor(ratio * 2**26) / 2**26
        rest = float(ratio - Fraction(hi))
        for start in range(0, rail.size, _BLOCK):
            part = rail[start: start + _BLOCK]
            k = np.arange(start, start + part.size) * float(decimation) + (taps.size - 1) // 2
            cycles = np.modf(k * hi)[0] + k * rest
            samples[start: start + part.size] = _wrap_pi(
                np.arctan2(part.imag, part.real) + 0.5 * np.pi - 2.0 * np.pi * cycles)
        _unwrap_in_place(samples)

    lost, _ = _two_lanes(lambda j: phase() if j else floor_runs())
    if lost and strict:
        first = lost[0]
        raise PhaseTrackingLostError(
            f"carrier envelope fell below {envelope_floor:g} x median in "
            f"{len(lost)} interval(s); first at input samples "
            f"[{first[0]}, {first[1]})", lost)
    return PhaseSeries(
        samples=Adopted(samples),
        sample_rate=rate / decimation,
        carrier=carrier,
        decimation=decimation,
        settle=-(-(taps.size // 2) // decimation),
        lost_ranges=lost,
    )


def line_integrated_density(
    phase1: PhaseSeries,
    phase2: PhaseSeries,
    params: InterferometerParams,
) -> DensitySeries:
    """Two-color line-integrated density from a pair of phase tracks.

    phase1 is the long-wavelength channel; the relation, which cancels
    path-length (vibration) phase and converts the plasma phase to
    electron density integrated along the line of sight, is
    InterferometerParams.line_density.
    """
    if len(phase1) != len(phase2):
        raise ValueError(f"length mismatch: {len(phase1)} vs {len(phase2)}")
    _check_same_rate("phase1", phase1.sample_rate, "phase2", phase2.sample_rate)
    return DensitySeries(
        samples=params.line_density(phase1.samples, phase2.samples),
        sample_rate=phase1.sample_rate,
        settle=max(phase1.settle, phase2.settle),
    )
