"""Centering, covariance, eigendecomposition, and PCA whitening.

The whitening stage maps a centered multichannel signal onto
unit-covariance coordinates: B = diag(eigvals)**-1/2 @ U.T @ X. The
independent-component search then only has to look for a rotation.

The eigenpairs come from numpy.linalg.eigh (LAPACK's symmetric
solver, which reads the lower triangle); eigendecompose() adds the
input checks, the descending order and a sign rule that make the
decomposition deterministic.

Every pass over the record runs _CHUNK samples at a time: the Gram
matrix and the centering check's sums are accumulated chunk by chunk,
and centered_product() writes M @ (X - offset) into one fresh array,
so no centered copy of the record is ever made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signalgen import Adopted, MultichannelSignal, own_arrays

__all__ = [
    "RankDeficientError",
    "WhiteningTransform",
    "center",
    "covariance",
    "eigendecompose",
    "whiten",
]

_MEAN_TOL = 1e-8  # covariance(): largest channel mean, relative to its RMS
_SYM_TOL = 1e-10  # eigendecompose(): largest |A - A.T|, relative to |A|
_RANK_FLOOR = 1e-12  # whiten(): eigenvalue floor, relative to the largest
# Samples per step of every pass over a record (its temporaries' length).
_CHUNK = 2**14


class RankDeficientError(ValueError):
    """Covariance has an eigenvalue at or below the noise floor.

    Raised when the input occupies fewer effective dimensions than it
    has channels (for example, a single tone observed on two channels),
    which makes whitening, and any separation after it, meaningless.
    """


def center(signal: MultichannelSignal) -> tuple[MultichannelSignal, np.ndarray]:
    """Remove each channel's mean. Returns (centered signal, means)."""
    mean = signal.data.mean(axis=1)
    return signal.with_data(signal.data - mean[:, None]), mean


def centered_product(matrix: np.ndarray, data: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """matrix @ (data - offset[:, None]) as a fresh array, _CHUNK samples at a time."""
    out = np.empty((matrix.shape[0], data.shape[1]))
    for start in range(0, data.shape[1], _CHUNK):
        stop = start + _CHUNK
        np.matmul(matrix, data[:, start:stop] - offset[:, None], out=out[:, start:stop])
    return out


def _covariance(data: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Covariance of data - offset[:, None], summed _CHUNK samples at a time.

    Rejects visibly uncentered input: each channel mean of data - offset
    must be below 1e-8 of its RMS (_MEAN_TOL).
    """
    n = data.shape[1]
    gram = np.zeros((data.shape[0],) * 2)
    total = np.zeros(data.shape[0])
    for start in range(0, n, _CHUNK):
        block = data[:, start:start + _CHUNK] - offset[:, None]
        gram += block @ block.T
        total += block.sum(axis=1)
    mean = total / n
    rms = np.sqrt(np.diag(gram) / n)
    limit = _MEAN_TOL * np.maximum(rms, np.finfo(np.float64).tiny)
    if np.any(np.abs(mean) > limit):
        worst = int(np.argmax(np.abs(mean) / limit))
        raise ValueError(
            f"channel {worst} mean {mean[worst]:.3e} exceeds centering tolerance; "
            "call center() first")
    return gram / n


def covariance(signal: MultichannelSignal) -> np.ndarray:
    """Sample covariance (1/N normalization) of a centered signal.

    Rejects visibly uncentered input: each channel mean must be below
    1e-8 of its RMS (_MEAN_TOL).
    """
    return _covariance(signal.data, np.zeros(signal.channels))


def eigendecompose(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix, eigenvalues sorted descending.

    Returns (eigvecs, eigvals) with eigenvectors in columns. The sign of
    each eigenvector is fixed so its first entry within a relative 1e-12
    of the largest magnitude is positive, making the decomposition
    deterministic: entries that tie in exact arithmetic but differ in
    their last bits do not decide the sign by rounding.
    """
    mat = np.asarray(sym, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix must be finite")
    scale = np.linalg.norm(mat)
    if np.linalg.norm(mat - mat.T) > _SYM_TOL * max(scale, np.finfo(np.float64).tiny):
        raise ValueError("matrix is not symmetric within tolerance")
    eigvals, eigvecs = np.linalg.eigh(mat)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    mag = np.abs(eigvecs)
    lead = np.argmax(mag >= mag.max(axis=0) * (1.0 - 1e-12), axis=0)
    peak = eigvecs[lead, np.arange(mat.shape[0])]
    eigvecs = eigvecs * np.where(peak < 0.0, -1.0, 1.0)
    return eigvecs, eigvals


@dataclass(frozen=True)
class WhiteningTransform:
    """Invertible map between raw channel coordinates and whitened ones.

    whitener rows are scaled principal directions; dewhitener undoes the
    map: whitener @ dewhitener = I. apply() centers with the stored mean
    and rotates/scales; restore() maps whitened data back and re-adds
    the mean.
    """

    mean: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray

    def __post_init__(self) -> None:
        own_arrays(self, mean=1, eigvecs=2, eigvals=1)
        c = self.mean.shape[0]
        if self.eigvecs.shape != (c, c) or self.eigvals.shape != (c,):
            raise ValueError("inconsistent transform shapes")
        if np.any(self.eigvals <= 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.max(np.abs(self.eigvecs.T @ self.eigvecs - np.eye(c))) > 1e-10:
            raise ValueError("eigvecs is not orthonormal within 1e-10")

    @property
    def channels(self) -> int:
        return self.mean.shape[0]

    @property
    def whitener(self) -> np.ndarray:
        """diag(eigvals)**-1/2 @ eigvecs.T: raw centered coordinates to whitened."""
        return (1.0 / np.sqrt(self.eigvals))[:, None] * self.eigvecs.T

    @property
    def dewhitener(self) -> np.ndarray:
        """eigvecs @ diag(eigvals)**1/2: whitened coordinates back to raw centered."""
        return self.eigvecs * np.sqrt(self.eigvals)[None, :]

    def _check(self, signal: MultichannelSignal) -> None:
        if signal.channels != self.channels:
            raise ValueError(
                f"signal has {signal.channels} channels, transform has {self.channels}")

    def apply(self, signal: MultichannelSignal) -> MultichannelSignal:
        """Center with the stored means, then whiten."""
        self._check(signal)
        return signal.with_data(
            Adopted(centered_product(self.whitener, signal.data, self.mean)))

    def restore(self, signal: MultichannelSignal) -> MultichannelSignal:
        """Invert apply(): dewhiten and re-add the stored means."""
        self._check(signal)
        return signal.with_data(self.dewhitener @ signal.data + self.mean[:, None])

    def to_mapping(self) -> dict[str, object]:
        """Flat key/value form for the text serialization format."""
        return {
            "channels": self.channels,
            "mean": self.mean,
            "eigvals": self.eigvals,
            "eigvecs": self.eigvecs,
            "whitener": self.whitener,
            "dewhitener": self.dewhitener,
        }


def whiten(signal: MultichannelSignal) -> tuple[MultichannelSignal, WhiteningTransform]:
    """PCA-whiten a multichannel signal.

    Eigendecomposes the covariance about the channel means and rescales
    the principal components to unit variance; the whitened record is
    the one array this makes (no centered copy). Eigenvalues at or below
    1e-12 (_RANK_FLOOR) times the largest eigenvalue raise RankDeficientError:
    such directions carry no usable signal and would amplify noise
    without bound.
    """
    mean = signal.data.mean(axis=1)
    sigma = _covariance(signal.data, mean)
    eigvecs, eigvals = eigendecompose(sigma)
    floor = _RANK_FLOOR * eigvals[0]
    if eigvals[0] <= 0.0 or np.any(eigvals <= floor):
        raise RankDeficientError(
            f"covariance eigenvalues {eigvals.tolist()} fall at or below the "
            f"relative floor {_RANK_FLOOR:g}; input is rank deficient")
    transform = WhiteningTransform(mean=mean, eigvecs=eigvecs, eigvals=eigvals)
    return transform.apply(signal), transform
