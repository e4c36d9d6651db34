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

from .diplexer import design_fir_lowpass
from .signalgen import InterferometerParams, as_channel

__all__ = [
    "PhaseTrackingLostError",
    "PhaseSeries",
    "DensitySeries",
    "unwrap",
    "demodulate",
    "line_integrated_density",
]


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
    """Shared by the series types: read-only 1-D samples, settle transients at both ends."""

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be 1-D")

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
        if not (self.sample_rate > 0 and self.carrier > 0 and self.decimation >= 1):
            raise ValueError("sample_rate, carrier, and decimation must be positive")
        if not (0 <= self.settle):
            raise ValueError("settle must be non-negative")

    @property
    def tracking_lost(self) -> bool:
        return len(self.lost_ranges) > 0


@dataclass(frozen=True)
class DensitySeries(_Settled):
    """Line-integrated electron density in 1/m^2 at the phase-track rate."""

    samples: np.ndarray
    sample_rate: float
    settle: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


def unwrap(wrapped: np.ndarray) -> np.ndarray:
    """Unwrap a phase series so successive differences lie in (-pi, pi].

    The first output sample equals the first input sample; each later
    sample adds the wrapped difference. Equivalent to numpy.unwrap up to
    the half-open interval convention at exactly pi jumps.
    """
    w = np.asarray(wrapped, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("wrapped must be 1-D")
    if w.size == 0:
        return w.copy()
    return np.concatenate(([w[0]], w[0] + np.cumsum(_wrap_pi(np.diff(w)))))


def _wrap_pi(values: np.ndarray) -> np.ndarray:
    """Wrap values into (-pi, pi]."""
    return np.pi - np.mod(np.pi - values, 2.0 * np.pi)


def _image_comb(carrier: float, sample_rate: float, max_len: int = 512) -> np.ndarray:
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
    frac = Fraction(ratio).limit_denominator(max_len)
    if frac.denominator <= 1 or abs(float(frac) - ratio) > 1e-12:
        return np.ones(1)
    box = np.ones(frac.denominator) / frac.denominator
    return np.convolve(box, box)


def _lowpass(x: np.ndarray, taps: np.ndarray, step: int = 1) -> np.ndarray:
    """FIR output with the (taps.size - 1) // 2 sample delay removed, every step-th sample.

    Equals the delay-compensated full-rate output (same length as x)
    sliced [::step], but computes only the kept samples: the polyphase
    form splits taps into step phases taps[p::step], each convolved at
    the output rate with the input taken at stride step (Crochiere &
    Rabiner, Multirate Digital Signal Processing, 1983).
    """
    n = x.shape[0]
    delay = (taps.size - 1) // 2
    per_phase = -(-taps.size // step)
    kept = -(-n // step)
    # Taps zero-padded to per_phase in every phase. Output i of phase p
    # reads x[delay - p + step * (i - q)] for q < per_phase; the zeros
    # around x keep every strided read in bounds.
    phases = np.concatenate((taps, np.zeros(step * per_phase - taps.size)))
    left = step * per_phase - 1 - delay
    padded = np.concatenate((np.zeros(left), x, np.zeros(delay)))
    out = None
    for p in range(min(step, taps.size)):
        start = left + delay - p - step * (per_phase - 1)
        strided = padded[start: start + step * (kept + per_phase - 1): step]
        part = np.convolve(strided, phases[p::step], mode="valid")
        out = part if out is None else np.add(out, part, out=out)
    return out


def _find_runs(mask: np.ndarray, min_run: int) -> list[tuple[int, int]]:
    """(start, stop) pairs of True runs at least min_run long."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, stops = edges[::2], edges[1::2]
    return [(int(a), int(b)) for a, b in zip(starts, stops) if b - a >= min_run]


def demodulate(
    channel,
    carrier: float,
    lowpass_cutoff: float,
    decimation: int,
    sample_rate: float | None = None,
    *,
    filter_order: int = 256,
    envelope_cutoff: float | None = None,
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
    sin(2 pi carrier t + track) input returns the track itself.

    Envelope supervision runs before decimation on a separate wider
    rail (cutoff envelope_cutoff, defaulting to 0.4 * carrier) so that
    fast crosstalk beats are not smoothed away: wherever
    sqrt(I^2 + Q^2) stays below envelope_floor times its own median for
    at least envelope_min_run samples, phase is declared unrecoverable.
    With strict=True (default) that raises PhaseTrackingLostError;
    otherwise the ranges are recorded on the returned series.

    Accepts a single-channel MultichannelSignal or a 1-D array plus
    sample_rate.
    """
    data, rate = as_channel(channel, sample_rate)
    nyquist = 0.5 * rate
    if not (0.0 < carrier < nyquist):
        raise ValueError(f"carrier must be in (0, {nyquist}), got {carrier}")
    if not (0.0 < lowpass_cutoff < carrier):
        raise ValueError(
            f"lowpass_cutoff must be in (0, carrier={carrier}), got {lowpass_cutoff}")
    if decimation < 1:
        raise ValueError(f"decimation must be >= 1, got {decimation}")
    if not (0.0 < envelope_floor < 1.0):
        raise ValueError(f"envelope_floor must be in (0, 1), got {envelope_floor}")
    if envelope_cutoff is None:
        envelope_cutoff = min(0.4 * carrier, 0.95 * (nyquist - carrier))
    if not (lowpass_cutoff <= envelope_cutoff < nyquist):
        raise ValueError(
            f"envelope_cutoff must be in [lowpass_cutoff, {nyquist}), "
            f"got {envelope_cutoff}")

    # Narrow rail: windowed sinc cascaded with the image comb, unity DC.
    # A record shorter than this filter never leaves its transient.
    lp_taps = design_fir_lowpass(filter_order, lowpass_cutoff, rate).taps
    taps = np.convolve(lp_taps, _image_comb(carrier, rate))
    taps = taps / taps.sum()
    n = data.shape[0]
    if n < taps.size:
        raise ValueError(
            f"record length {n} shorter than the demodulation filter ({taps.size} taps)")
    t = np.arange(n) / rate
    in_phase_mix = 2.0 * data * np.cos(2.0 * np.pi * carrier * t)
    quadrature_mix = -2.0 * data * np.sin(2.0 * np.pi * carrier * t)

    # Envelope rail first: a wide lowpass at the full rate, so crosstalk
    # beat nulls show up instead of being averaged away.
    env_taps = design_fir_lowpass(envelope_order, envelope_cutoff, rate).taps
    envelope = np.hypot(_lowpass(in_phase_mix, env_taps), _lowpass(quadrature_mix, env_taps))
    margin = min(envelope_order, n // 4)
    floor = envelope_floor * float(np.median(envelope[margin: n - margin]))
    mask = envelope < floor
    # Filter transients are not evidence of signal loss.
    mask[:margin] = False
    mask[n - margin:] = False
    lost = tuple(_find_runs(mask, envelope_min_run))
    if lost and strict:
        first = lost[0]
        raise PhaseTrackingLostError(
            f"carrier envelope fell below {envelope_floor:g} x median in "
            f"{len(lost)} interval(s); first at input samples "
            f"[{first[0]}, {first[1]})", lost)

    rail_i = _lowpass(in_phase_mix, taps, decimation)
    rail_q = _lowpass(quadrature_mix, taps, decimation)

    wrapped = _wrap_pi(np.arctan2(rail_q, rail_i) + 0.5 * np.pi)
    return PhaseSeries(
        samples=unwrap(wrapped),
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
    if not math.isclose(phase1.sample_rate, phase2.sample_rate, rel_tol=1e-9):
        raise ValueError(
            f"rate mismatch: {phase1.sample_rate} vs {phase2.sample_rate}")
    return DensitySeries(
        samples=params.line_density(phase1.samples, phase2.samples),
        sample_rate=phase1.sample_rate,
        settle=max(phase1.settle, phase2.settle),
    )
