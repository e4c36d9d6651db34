"""Output checks for the benchmark's records, independent of icdx.

Files are parsed here with numpy and the stdlib, and every quantity is
recomputed from the generator's truth, so a defect in the program's own
readers or metrics cannot hide a wrong output. Checks run outside the
timed interval of a record, after the caller has seen exit code 0.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Acceptance 5 (noisy) bound on density relative RMS.
DENSITY_TOL = 5e-2
# Acceptance 2 bound on the signed-permutation gain deviation.
GAIN_TOL = 1e-3
# Acceptance 6: ICA cross-tone residual, zero mean and unit peak.
RESIDUAL_TOL_DB = -40.0
MEAN_TOL = 1e-12
PEAK_TOL = 1e-12

_RAW_HEADER = struct.Struct("<4sIIQd")
_RAW_HEADER_SIZE = 64


@dataclass
class Outcome:
    """Verdict on one record: pass/fail, its relative error and counters."""

    ok: bool
    error: float
    detail: str = ""
    counters: dict[str, float] = field(default_factory=dict)


def read_kv(path: Path) -> dict[str, str]:
    """The "key = value" lines of a report file."""
    values = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.lstrip().startswith("#"):
            values[key.strip()] = value.strip()
    return values


def read_raw(path: Path) -> tuple[np.ndarray, float]:
    """A raw signal file as (channels x samples, sample rate)."""
    with open(path, "rb") as fh:
        magic, _, channels, length, rate = _RAW_HEADER.unpack(
            fh.read(_RAW_HEADER_SIZE)[:_RAW_HEADER.size])
        if magic != b"ICDX":
            raise ValueError(f"{path}: not a raw signal file")
        frames = np.fromfile(fh, dtype="<f8")
    return frames.reshape(length, channels).T, rate


def read_csv_channel(path: Path) -> np.ndarray:
    """The first data column of a signal CSV (comment line, header row, rows)."""
    return np.loadtxt(path, delimiter=",", skiprows=2, usecols=1, ndmin=1)


def steady_mask(length: int, settle: int, decimation: int,
                lost_ranges: list[tuple[int, int]]) -> np.ndarray:
    """Decimated samples outside both settle transients and every lost range."""
    keep = np.ones(length, dtype=bool)
    keep[:settle] = False
    keep[max(length - settle, 0):] = False
    for start, stop in lost_ranges:
        first = -(-start // decimation)
        last = (stop - 1) // decimation
        keep[max(first, 0):last + 1] = False
    return keep


def parse_ranges(token: str) -> list[tuple[int, int]]:
    """"none" or space-separated "start:stop" pairs."""
    if token == "none":
        return []
    return [tuple(int(v) for v in pair.split(":")) for pair in token.split()]


def check_density(report: dict[str, str], density: np.ndarray, truth: np.ndarray,
                  decimation: int) -> Outcome:
    """shot: status ok, relative RMS within DENSITY_TOL on steady samples."""
    if report.get("status") != "ok":
        return Outcome(False, math.inf, f"status {report.get('status')!r}")
    if density.shape != truth.shape:
        return Outcome(False, math.inf,
                       f"density has {density.shape[0]} samples, truth {truth.shape[0]}")
    lost = (parse_ranges(report["ch1_lost_ranges"])
            + parse_ranges(report["ch2_lost_ranges"]))
    keep = steady_mask(density.shape[0], int(report["settle"]), decimation, lost)
    if not np.any(keep):
        return Outcome(False, math.inf, "no steady samples")
    err = density[keep] - truth[keep]
    rel = float(np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(truth[keep] ** 2)))
    counters = {"steady_ratio": float(np.count_nonzero(keep)) / keep.shape[0]}
    ok = rel <= DENSITY_TOL
    return Outcome(ok, rel, "" if ok else f"density relative RMS {rel:.3g}", counters)


def aligned_gain(w_full: np.ndarray, coupling: np.ndarray, clean_rms: np.ndarray,
                 perm: tuple[int, ...], signs: tuple[int, ...]) -> np.ndarray:
    """Output slot x true source gain, after the program's assignment.

    A perfect separation that puts source i into slot i with the right
    sign reads exactly as the identity.
    """
    gain = np.asarray(w_full) @ np.asarray(coupling) @ np.diag(clean_rms)
    return np.array([signs[slot] * gain[perm[slot]] for slot in range(len(perm))])


def gain_error(aligned: np.ndarray) -> float:
    return float(np.max(np.abs(aligned - np.eye(aligned.shape[0]))))


def check_gain(aligned: np.ndarray) -> Outcome:
    """sweep: the 1 MHz source lands in ch1, and the gain is the identity within GAIN_TOL."""
    error = gain_error(aligned)
    if int(np.argmax(np.abs(aligned[0]))) != 0:
        return Outcome(False, error, "the 1 MHz component is not in ch1")
    ok = error <= GAIN_TOL
    return Outcome(ok, error, "" if ok else f"gain error {error:.3g}",
                   {"gain_error": error})


def residual_db(x: np.ndarray, own: float, other: float, rate: float,
                half_bins: int = 4) -> float:
    """Foreign-tone power over own-tone power, Hann window and FFT band sums."""
    n = x.shape[0]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    spectrum = np.abs(np.fft.rfft(x * window)) ** 2
    bin_hz = rate / n

    def band(freq: float) -> float:
        center = int(round(freq / bin_hz))
        return float(np.sum(spectrum[max(center - half_bins, 0): center + half_bins + 1]))

    other_power = band(other)
    if other_power == 0.0:
        return -math.inf
    return 10.0 * math.log10(other_power / band(own))


def check_diplex(separated: np.ndarray, rate: float, tones: tuple[float, float]) -> Outcome:
    """diplex: ICA residuals within RESIDUAL_TOL_DB, zero mean, unit peak."""
    residuals = [residual_db(separated[i], tones[i], tones[1 - i], rate) for i in range(2)]
    worst = max(residuals)
    error = 10.0 ** (worst / 20.0)
    problems = []
    if worst > RESIDUAL_TOL_DB:
        problems.append(f"residual {worst:.1f} dB")
    mean = float(np.max(np.abs(separated.mean(axis=1))))
    if mean > MEAN_TOL:
        problems.append(f"mean {mean:.3g}")
    peak = float(np.max(np.abs(np.max(np.abs(separated), axis=1) - 1.0)))
    if peak > PEAK_TOL:
        problems.append(f"peak off by {peak:.3g}")
    return Outcome(not problems, error, ", ".join(problems))
