"""Synthetic two-color heterodyne interferometer signals.

This module builds the test bench for the rest of the package: clean
unit-amplitude heterodyne carriers phase-modulated by injected tracks,
linear inter-channel coupling (the crosstalk under study), additive
Gaussian noise, and mid-tread ADC quantization.

All randomness comes from ``numpy.random.default_rng`` (PCG64). The
generator algorithm is part of the reproducibility contract: a given
seed must produce bit-identical signals on every run.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from numbers import Real
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "CLASSICAL_ELECTRON_RADIUS_M",
    "InterferometerParams",
    "PhaseTrack",
    "MultichannelSignal",
    "synth_clean_pair",
    "make_scenario_tracks",
    "apply_crosstalk",
    "add_awgn",
    "quantize_adc",
]

# CODATA 2018 classical electron radius, meters.
CLASSICAL_ELECTRON_RADIUS_M = 2.8179403262e-15

SCENARIO_KINDS = ("quiet", "vibration-only", "shot-ramp")

# Mechanical vibration model: a fixed sum of low-frequency sinusoids,
# (frequency in Hz, amplitude in radians of long-wavelength phase).
VIBRATION_COMPONENTS = ((313.0, 2.0), (727.0, 1.2), (1499.0, 0.6))

# Plasma shot model: trapezoidal density phase. Breakpoints are fractions
# of the record length (ramp up, plateau, ramp down); height in radians.
SHOT_RAMP_BREAKPOINTS = (0.1, 0.3, 0.7, 0.9)
SHOT_RAMP_PLATEAU_RAD = 2.0

# Entries per finite check: the check's mask never outgrows one chunk.
_FINITE_CHUNK = 2**16


class Adopted(NamedTuple):
    """An array icdx has just allocated and holds the only reference to.

    A value type handed Adopted(array) in place of an array field keeps
    that array itself, still checked and locked by own_arrays, instead
    of a copy. Arrays from callers are never wrapped.
    """

    array: np.ndarray


def _all_finite(arr: np.ndarray) -> bool:
    """Whether a C-ordered or 1-D array is finite, checked _FINITE_CHUNK entries at a time."""
    flat = arr.reshape(-1)
    return all(np.isfinite(flat[start:start + _FINITE_CHUNK]).all()
               for start in range(0, flat.size, _FINITE_CHUNK))


def _check_positive(name: str, value: float) -> float:
    """value as a float; ValueError naming it unless it is a positive finite real number."""
    if not (isinstance(value, Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _check_frequency(name: str, freq: float, sample_rate: float) -> None:
    """ValueError naming freq unless 0 < freq < Nyquist at sample_rate."""
    if not (0.0 < freq < 0.5 * sample_rate):
        raise ValueError(f"{name} must be in (0, Nyquist {0.5 * sample_rate}), got {freq}")


def _check_same_rate(name: str, rate: float, other: str, other_rate: float) -> None:
    """ValueError naming both rates unless they agree to a relative 1e-9."""
    if not math.isclose(rate, other_rate, rel_tol=1e-9):
        raise ValueError(f"{name} rate {rate} != {other} rate {other_rate}")


def _two_lanes(lane: Callable[[int], object]) -> tuple:
    """(lane(0), lane(1)): lane(1) on a thread started for this call, lane(0) on the caller's.

    The thread is joined before this returns or raises, so none outlives the
    call and a later fork inherits none; an exception raised in lane(1)
    reaches the caller. A lane runs numpy kernels only, on arrays allocated
    before the call, and writes slices the other lane does not touch, so the
    results depend neither on scheduling nor on the CPU count.
    """
    results, errors = [None, None], []

    def second() -> None:
        try:
            results[1] = lane(1)
        except BaseException as exc:  # raised again on the caller's thread
            errors.append(exc)

    worker = threading.Thread(target=second)
    worker.start()
    try:
        results[0] = lane(0)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return tuple(results)


def own_arrays(obj, **ndims: int) -> None:
    """Lock each field named in ndims to its own float64 copy.

    The copy is C-ordered, of rank ndims[name], finite and read-only, so
    no view the caller kept can change the frozen object. None stays None.
    An Adopted array that is already C-ordered float64 is locked in place.
    """
    for name, ndim in ndims.items():
        value = getattr(obj, name)
        if value is None:
            continue
        if isinstance(value, Adopted):
            arr = np.asarray(value.array, dtype=np.float64, order="C")
        else:
            arr = np.array(value, dtype=np.float64, order="C")
        if arr.ndim != ndim:
            raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
        if not _all_finite(arr):
            raise ValueError(f"{name} must be finite")
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class InterferometerParams:
    """Physical and acquisition constants for a two-color interferometer.

    Wavelengths default to a CO2 / Nd:YAG probe pair. Heterodyne
    frequencies must sit strictly below the Nyquist rate.
    """

    wavelength1: float = 10.591e-6
    wavelength2: float = 1.064e-6
    f_het1: float = 1.0e6
    f_het2: float = 1.1e6
    sample_rate: float = 8.0e6
    electron_radius: float = CLASSICAL_ELECTRON_RADIUS_M

    def __post_init__(self) -> None:
        for name in ("wavelength1", "wavelength2", "sample_rate", "electron_radius"):
            _check_positive(name, getattr(self, name))
        if self.wavelength1 == self.wavelength2:
            raise ValueError("wavelengths must differ for two-color cancellation")
        for name in ("f_het1", "f_het2"):
            _check_frequency(name, getattr(self, name), self.sample_rate)

    @property
    def wavelength_ratio(self) -> float:
        """Vibration phase scale from channel 2 to channel 1 (inverse wavelength)."""
        return self.wavelength2 / self.wavelength1

    def line_density(self, phase1: np.ndarray, phase2: np.ndarray) -> np.ndarray:
        """Two-color line-integrated density in 1/m^2 from the phases in radians:

            (phase1 * wavelength1 - phase2 * wavelength2)
            / (electron_radius * (wavelength1**2 - wavelength2**2))

        Vibration phase (~ 1/wavelength) cancels; plasma phase (~ wavelength) stays.
        """
        lam1, lam2 = self.wavelength1, self.wavelength2
        denom = self.electron_radius * (lam1 * lam1 - lam2 * lam2)
        return (phase1 * lam1 - phase2 * lam2) / denom


@dataclass(frozen=True)
class PhaseTrack:
    """A phase time series in radians with a semantic label.

    label is one of "density", "vibration", or "combined".
    """

    samples: np.ndarray
    sample_rate: float
    label: str

    _LABELS = ("density", "vibration", "combined")

    def __post_init__(self) -> None:
        own_arrays(self, samples=1)
        _check_positive("sample_rate", self.sample_rate)
        if self.label not in self._LABELS:
            raise ValueError(f"label must be one of {self._LABELS}, got {self.label!r}")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class MultichannelSignal:
    """Uniformly sampled real signal, one row per channel (C x N, float64).

    The sample array is stored read-only; operations return new instances.
    """

    data: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        own_arrays(self, data=2)
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"data must be non-empty, got shape {self.data.shape}")
        _check_positive("sample_rate", self.sample_rate)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[1]

    def spectrum(self, bins: slice | np.ndarray) -> np.ndarray:
        """rfft(row)[bins] of every row, as one channels x bins complex array.

        bins is a slice or an index array. Each row's full-length transform
        is freed before the next row's is taken, so only the kept bins of
        all rows are ever held together.
        """
        out = None
        for i, row in enumerate(self.data):
            kept = np.fft.rfft(row)[bins]
            if out is None:
                out = np.empty((self.channels, *kept.shape), dtype=np.complex128)
            out[i] = kept
            del kept
        return out

    def with_data(self, data: np.ndarray) -> "MultichannelSignal":
        return replace(self, data=data)


def as_channel(samples, name: str = "channel") -> np.ndarray:
    """One channel's samples: a finite 1-D float64 array of at least 2; errors name it."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(
            f"{name} must be a 1-D series with at least 2 samples, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError(f"{name} must be finite, sample {np.argmin(np.isfinite(arr))} is not")
    return arr


def synth_clean_pair(
    params: InterferometerParams,
    track1: PhaseTrack,
    track2: PhaseTrack,
) -> MultichannelSignal:
    """Two unit-amplitude phase-modulated heterodyne carriers.

    Channel k is sin(2 pi f_het_k t + track_k). The tracks must have
    equal lengths and the sample rate in params.
    """
    n = len(track1)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    for i, track in enumerate((track1, track2), start=1):
        if len(track) != n:
            raise ValueError(f"track{i} length {len(track)} != track1 length {n}")
        _check_same_rate(f"track{i}", track.sample_rate, "params", params.sample_rate)
    t = np.arange(n) / params.sample_rate
    data = np.vstack([
        np.sin(2.0 * np.pi * params.f_het1 * t + track1.samples),
        np.sin(2.0 * np.pi * params.f_het2 * t + track2.samples),
    ])
    return MultichannelSignal(data, params.sample_rate)


def _trapezoid(t: np.ndarray, duration: float) -> np.ndarray:
    b0, b1, b2, b3 = (f * duration for f in SHOT_RAMP_BREAKPOINTS)
    knots_t = np.array([0.0, b0, b1, b2, b3, duration])
    knots_v = np.array([0.0, 0.0, SHOT_RAMP_PLATEAU_RAD, SHOT_RAMP_PLATEAU_RAD, 0.0, 0.0])
    return np.interp(t, knots_t, knots_v)


def make_scenario_tracks(
    kind: str,
    n: int,
    sample_rate: float,
    params: InterferometerParams,
) -> tuple[PhaseTrack, PhaseTrack]:
    """Ground-truth phase tracks for a named scenario.

    Kinds:
      quiet          both tracks identically zero
      vibration-only a shared mechanical displacement only; the long-wavelength
                     track is the short-wavelength track scaled by the
                     wavelength ratio, so the two-color density output cancels
      shot-ramp      vibration plus a trapezoidal density phase on channel 1

    Returns (track1, track2) where channel 1 is the long-wavelength probe
    carrying the density information.
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario {kind!r}; expected one of {SCENARIO_KINDS}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    _check_same_rate("params", params.sample_rate, "requested", sample_rate)

    t = np.arange(n) / sample_rate
    if kind == "quiet":
        zero = np.zeros(n)
        return (PhaseTrack(zero, sample_rate, "combined"),
                PhaseTrack(zero, sample_rate, "vibration"))

    vibration = np.zeros(n)
    for freq, amp in VIBRATION_COMPONENTS:
        vibration += amp * np.sin(2.0 * np.pi * freq * t)
    # Vibration is a path-length change, so its phase scales inversely
    # with wavelength: the long-wavelength channel sees a smaller swing.
    vib1 = params.wavelength_ratio * vibration
    if kind == "vibration-only":
        return (PhaseTrack(vib1, sample_rate, "combined"),
                PhaseTrack(vibration, sample_rate, "vibration"))
    density_phase = _trapezoid(t, n / sample_rate)
    return (PhaseTrack(vib1 + density_phase, sample_rate, "combined"),
            PhaseTrack(vibration, sample_rate, "vibration"))


def apply_crosstalk(signal: MultichannelSignal, coupling: np.ndarray) -> MultichannelSignal:
    """Mix channels with a square coupling matrix: out = coupling @ in.

    The matrix must be square, match the channel count, and be invertible
    in a meaningful sense (rows not collinear); a singular matrix would
    make the separation problem ill-posed at the source.
    """
    return signal.with_data(_check_coupling(coupling, signal.channels) @ signal.data)


def _check_coupling(coupling: np.ndarray, c: int) -> np.ndarray:
    """The coupling as a float64 matrix, checked: c x c, finite and not singular."""
    mat = np.asarray(coupling, dtype=np.float64)
    if mat.shape != (c, c):
        raise ValueError(f"coupling must be {c}x{c}, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("coupling must be finite")
    # Scale-aware singularity guard: reject matrices whose determinant, taken
    # of mat over its largest absolute row sum, is below 1e-12. The rows are
    # summed after dividing by the largest entry, so no sum can overflow.
    peak = np.max(np.abs(mat))
    unit = mat / peak if peak else mat
    scale = np.max(np.sum(np.abs(unit), axis=1))
    if scale == 0.0 or abs(np.linalg.det(unit / scale)) < 1e-12:
        raise ValueError("coupling matrix is singular or nearly singular")
    return mat


def _noise_power_ratio(snr_db: float) -> float:
    """10^(-snr_db / 10); ValueError where that is NaN or overflows float64."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must not be NaN or -inf, got {snr_db!r}")
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db must be at least about -3082.5 dB, got {snr_db!r}") from None


def add_awgn(signal: MultichannelSignal, snr_db: float, seed: int) -> MultichannelSignal:
    """Add white Gaussian noise at the given per-channel SNR in dB.

    SNR is measured against each channel's own mean power, so every
    channel receives noise scaled to its content. snr_db may be +inf
    for a no-op (returns an identical copy); NaN, -inf and levels below
    about -3082.5 dB are rejected.
    """
    ratio = _noise_power_ratio(snr_db)
    if snr_db == math.inf:
        return signal.with_data(signal.data.copy())
    rng = np.random.default_rng(seed)
    power = np.mean(signal.data**2, axis=1)
    if np.any(power == 0.0):
        raise ValueError("cannot set an SNR against an all-zero channel")
    # On Python floats the product overflows to inf without a warning.
    if math.isinf(ratio * float(np.max(power))):
        raise ValueError(f"snr_db {snr_db!r} asks for a noise power beyond float64 "
                         f"on a channel of mean power {np.max(power):g}")
    sigma = np.sqrt(power * ratio)
    noise = rng.standard_normal(signal.data.shape) * sigma[:, None]
    return signal.with_data(signal.data + noise)


def _check_adc(adc_bits: int, adc_full_scale: float) -> None:
    """Range-check quantize_adc's settings; each error starts with the name it refuses."""
    if not (2 <= adc_bits <= 24):
        raise ValueError(f"adc_bits must be in [2, 24], got {adc_bits}")
    _check_positive("adc_full_scale", adc_full_scale)


def quantize_adc(signal: MultichannelSignal, adc_bits: int,
                 adc_full_scale: float) -> MultichannelSignal:
    """Mid-tread uniform quantizer with saturation at the rails.

    Step size is 2*adc_full_scale / 2**adc_bits. Codes are clipped to the
    integer range [-2**(adc_bits-1), 2**(adc_bits-1) - 1], so the most
    negative reconstruction level is exactly -adc_full_scale and the most
    positive is adc_full_scale minus one step.
    """
    _check_adc(adc_bits, adc_full_scale)
    step = 2.0 * adc_full_scale / (2.0**adc_bits)
    half = 2 ** (adc_bits - 1)
    codes = np.clip(np.round(signal.data / step), -half, half - 1)
    return signal.with_data(codes * step)
