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
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CLASSICAL_ELECTRON_RADIUS_M",
    "SCENARIO_KINDS",
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


def _readonly_f64(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


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
        for name in ("wavelength1", "wavelength2", "f_het1", "f_het2",
                     "sample_rate", "electron_radius"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if self.wavelength1 == self.wavelength2:
            raise ValueError("wavelengths must differ for two-color cancellation")
        nyquist = 0.5 * self.sample_rate
        for name in ("f_het1", "f_het2"):
            if getattr(self, name) >= nyquist:
                raise ValueError(f"{name} must be below the Nyquist rate {nyquist}")

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
        object.__setattr__(self, "samples", _readonly_f64(self.samples, "samples", 1))
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate!r}")
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
        object.__setattr__(self, "data", _readonly_f64(self.data, "data", 2))
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"data must be non-empty, got shape {self.data.shape}")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate!r}")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[1]

    def times(self) -> np.ndarray:
        return np.arange(self.data.shape[1]) / self.sample_rate

    def with_data(self, data: np.ndarray) -> "MultichannelSignal":
        return replace(self, data=data)


def as_channel(signal, sample_rate: float | None) -> tuple[np.ndarray, float]:
    """(samples, rate) of a single-channel MultichannelSignal or a bare 1-D array."""
    if isinstance(signal, MultichannelSignal):
        if signal.channels != 1:
            raise ValueError(f"expected a single channel, got {signal.channels}")
        return signal.data[0], signal.sample_rate
    arr = np.asarray(signal, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    if sample_rate is None:
        raise ValueError("sample_rate is required with a bare array input")
    return arr, float(sample_rate)


def synth_clean_pair(
    params: InterferometerParams,
    track1: PhaseTrack,
    track2: PhaseTrack,
    n: int | None = None,
) -> MultichannelSignal:
    """Two unit-amplitude phase-modulated heterodyne carriers.

    Channel k is sin(2 pi f_het_k t + track_k). Tracks must match the
    requested length and the sample rate in params.
    """
    if n is None:
        n = len(track1)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    for i, track in enumerate((track1, track2), start=1):
        if len(track) != n:
            raise ValueError(f"track{i} length {len(track)} != requested {n}")
        if not math.isclose(track.sample_rate, params.sample_rate, rel_tol=1e-9):
            raise ValueError(
                f"track{i} rate {track.sample_rate} != params rate {params.sample_rate}")
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
    params: InterferometerParams | None = None,
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
    if params is None:
        params = InterferometerParams(sample_rate=sample_rate)
    elif not math.isclose(params.sample_rate, sample_rate, rel_tol=1e-9):
        raise ValueError(f"params rate {params.sample_rate} != requested {sample_rate}")

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
    mat = np.asarray(coupling, dtype=np.float64)
    c = signal.channels
    if mat.shape != (c, c):
        raise ValueError(f"coupling must be {c}x{c}, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("coupling must be finite")
    # Scale-aware singularity guard: reject matrices with relative
    # determinant below 1e-12.
    scale = np.max(np.sum(np.abs(mat), axis=1))
    if scale == 0.0 or abs(np.linalg.det(mat)) < 1e-12 * scale**c:
        raise ValueError("coupling matrix is singular or nearly singular")
    return signal.with_data(mat @ signal.data)


def add_awgn(signal: MultichannelSignal, snr_db: float, seed: int) -> MultichannelSignal:
    """Add white Gaussian noise at the given per-channel SNR in dB.

    SNR is measured against each channel's own mean power, so every
    channel receives noise scaled to its content. snr_db may be +inf
    for a no-op (returns an identical copy).
    """
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    if snr_db == math.inf:
        return signal.with_data(signal.data.copy())
    rng = np.random.default_rng(seed)
    power = np.mean(signal.data**2, axis=1)
    if np.any(power == 0.0):
        raise ValueError("cannot set an SNR against an all-zero channel")
    sigma = np.sqrt(power * 10.0 ** (-snr_db / 10.0))
    noise = rng.standard_normal(signal.data.shape) * sigma[:, None]
    return signal.with_data(signal.data + noise)


def quantize_adc(signal: MultichannelSignal, bits: int, full_scale: float) -> MultichannelSignal:
    """Mid-tread uniform quantizer with saturation at the rails.

    Step size is 2*full_scale / 2**bits. Codes are clipped to the
    integer range [-2**(bits-1), 2**(bits-1) - 1], so the most negative
    reconstruction level is exactly -full_scale and the most positive is
    full_scale minus one step.
    """
    if not (2 <= bits <= 24):
        raise ValueError(f"bits must be in [2, 24], got {bits}")
    if not (math.isfinite(full_scale) and full_scale > 0):
        raise ValueError(f"full_scale must be positive, got {full_scale!r}")
    step = 2.0 * full_scale / (2.0**bits)
    half = 2 ** (bits - 1)
    codes = np.clip(np.round(signal.data / step), -half, half - 1)
    return signal.with_data(codes * step)
