"""Centering, covariance, eigendecomposition, and PCA whitening.

The whitening stage maps a centered multichannel signal onto
unit-covariance coordinates: B = diag(eigvals)**-1/2 @ U.T @ X. The
independent-component search then only has to look for a rotation.

The eigenpairs come from numpy.linalg.eigh (LAPACK's symmetric
solver, which reads the lower triangle); eigendecompose() adds the
input checks, the descending order and a sign rule that make the
decomposition deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signalgen import MultichannelSignal

__all__ = [
    "RankDeficientError",
    "WhiteningTransform",
    "center",
    "covariance",
    "eigendecompose",
    "whiten",
]


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


def covariance(signal: MultichannelSignal, mean_tol: float = 1e-8) -> np.ndarray:
    """Sample covariance (1/N normalization) of a centered signal.

    Rejects visibly uncentered input: each channel mean must be below
    mean_tol relative to its RMS.
    """
    data = signal.data
    rms = np.sqrt(np.mean(data**2, axis=1))
    mean = data.mean(axis=1)
    limit = mean_tol * np.maximum(rms, np.finfo(np.float64).tiny)
    if np.any(np.abs(mean) > limit):
        worst = int(np.argmax(np.abs(mean) / limit))
        raise ValueError(
            f"channel {worst} mean {mean[worst]:.3e} exceeds centering tolerance; "
            "call center() first")
    return (data @ data.T) / data.shape[1]


def eigendecompose(sym: np.ndarray, sym_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
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
    if np.linalg.norm(mat - mat.T) > sym_tol * max(scale, np.finfo(np.float64).tiny):
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
    whitener: np.ndarray
    dewhitener: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean", "eigvecs", "eigvals", "whitener", "dewhitener"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        c = self.mean.shape[0]
        if self.eigvecs.shape != (c, c) or self.whitener.shape != (c, c):
            raise ValueError("inconsistent transform shapes")
        if np.any(self.eigvals <= 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        eye = np.eye(c)
        if np.max(np.abs(self.eigvecs.T @ self.eigvecs - eye)) > 1e-10:
            raise ValueError("eigvecs is not orthonormal within 1e-10")
        if np.max(np.abs(self.whitener @ self.dewhitener - eye)) > 1e-10:
            raise ValueError("whitener @ dewhitener != I within 1e-10")

    @property
    def channels(self) -> int:
        return self.mean.shape[0]

    def _check(self, signal: MultichannelSignal) -> None:
        if signal.channels != self.channels:
            raise ValueError(
                f"signal has {signal.channels} channels, transform has {self.channels}")

    def apply(self, signal: MultichannelSignal) -> MultichannelSignal:
        """Center with the stored means, then whiten."""
        self._check(signal)
        return signal.with_data(self.whitener @ (signal.data - self.mean[:, None]))

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


def whiten(
    signal: MultichannelSignal,
    eps_factor: float = 1e-12,
) -> tuple[MultichannelSignal, WhiteningTransform]:
    """PCA-whiten a multichannel signal.

    Centers the data, eigendecomposes the covariance, and rescales the
    principal components to unit variance. Eigenvalues at or below
    eps_factor times the largest eigenvalue raise RankDeficientError:
    such directions carry no usable signal and would amplify noise
    without bound.
    """
    centered, mean = center(signal)
    sigma = covariance(centered)
    eigvecs, eigvals = eigendecompose(sigma)
    floor = eps_factor * eigvals[0]
    if eigvals[0] <= 0.0 or np.any(eigvals <= floor):
        raise RankDeficientError(
            f"covariance eigenvalues {eigvals.tolist()} fall at or below the "
            f"relative floor {eps_factor:g}; input is rank deficient")
    inv_root = 1.0 / np.sqrt(eigvals)
    whitener = inv_root[:, None] * eigvecs.T
    dewhitener = eigvecs * np.sqrt(eigvals)[None, :]
    transform = WhiteningTransform(
        mean=mean, eigvecs=eigvecs, eigvals=eigvals,
        whitener=whitener, dewhitener=dewhitener)
    return centered.with_data(whitener @ centered.data), transform
