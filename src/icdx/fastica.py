"""Fixed-point independent component analysis on whitened data.

Each unit w maximizes a negentropy surrogate E[G(w.T b)] over unit
vectors, via the fixed-point update

    w+ = E[b g(w.T b)] - E[g'(w.T b)] w,   w = w+ / |w+|

with convergence declared when 1 - |<w_new, w_old>| falls below the
tolerance. Two contrast families are provided: a smooth log-cosh with
shape parameter in [1, 2], and a Gaussian-kernel contrast suited to
super-Gaussian sources.

Estimation of a full unmixing matrix supports deflation (one unit at a
time with Gram-Schmidt against accepted rows) and symmetric mode (all
rows updated jointly, re-orthonormalized each sweep as
W <- (W W.T)^(-1/2) W, the polar factor U V.T of the SVD W = U S V.T).

The absolute-value convergence test cannot tell a sign flip from
convergence, and for symmetric source pairs the diagonal directions
between components are genuine fixed points of the update (saddles of
the contrast). fit() therefore verifies every converged point by a
small orthogonal perturbation followed by re-iteration: a maximizer
re-converges to itself, a saddle escapes. Iteration counts include the
verification steps.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import preprocess
from .preprocess import WhiteningTransform
from .signalgen import MultichannelSignal

__all__ = [
    "CONTRASTS",
    "ORTHO_MODES",
    "Assignment",
    "ConvergenceError",
    "FastIcaConfig",
    "IdentificationError",
    "SeparationResult",
    "contrast_eval",
    "contrast_primitive",
    "fit",
    "fit_one_unit",
    "gaussian_reference",
    "identify_components",
    "negentropy_estimate",
    "separate",
    "unmix",
]

CONTRASTS = ("logcosh", "gauss")
ORTHO_MODES = ("deflation", "symmetric")

# Stability verification constants: kick size, re-convergence match
# threshold, and the attempt budget for escaping chained saddles.
_KICK_SIZE = 1e-2
_STABLE_MATCH = 1.0 - 1e-5
_MAX_ESCAPES = 3


class ConvergenceError(RuntimeError):
    """The fixed-point iteration exhausted its budget without settling."""


class IdentificationError(RuntimeError):
    """Separated components could not be matched to expected carriers."""


@dataclass(frozen=True)
class FastIcaConfig:
    """Knobs for the fixed-point search.

    contrast_shape applies to the log-cosh contrast only and must lie in
    [1, 2]. seed drives the initial-vector and perturbation generator;
    identical seeds give bit-identical results.
    """

    contrast: str = "logcosh"
    contrast_shape: float = 1.0
    tol: float = 1e-8
    max_iter: int = 200
    seed: int = 0
    ortho: str = "deflation"

    def __post_init__(self) -> None:
        if self.contrast not in CONTRASTS:
            raise ValueError(f"contrast must be one of {CONTRASTS}, got {self.contrast!r}")
        if not (1.0 <= self.contrast_shape <= 2.0):
            raise ValueError(f"contrast_shape must be in [1, 2], got {self.contrast_shape}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must be in (0, 1), got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.ortho not in ORTHO_MODES:
            raise ValueError(f"ortho must be one of {ORTHO_MODES}, got {self.ortho!r}")


def contrast_eval(
    u: np.ndarray, contrast: str, shape: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Nonlinearity g(u) and its derivative g'(u) for a contrast.

    logcosh: g(u) = tanh(shape u),        g'(u) = shape (1 - tanh^2(shape u))
    gauss:   g(u) = u exp(-u^2 / 2),      g'(u) = (1 - u^2) exp(-u^2 / 2)
    """
    u = np.asarray(u, dtype=np.float64)
    if contrast == "logcosh":
        g = np.tanh(shape * u)
        return g, shape * (1.0 - g * g)
    if contrast == "gauss":
        e = np.exp(-0.5 * u * u)
        return u * e, (1.0 - u * u) * e
    raise ValueError(f"unknown contrast {contrast!r}")


def contrast_primitive(u: np.ndarray, contrast: str, shape: float = 1.0) -> np.ndarray:
    """The contrast function G(u) itself (antiderivative of g).

    logcosh: G(u) = log(cosh(shape u)) / shape
    gauss:   G(u) = -exp(-u^2 / 2)
    """
    u = np.asarray(u, dtype=np.float64)
    if contrast == "logcosh":
        # log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log(2), overflow-safe.
        x = np.abs(shape * u)
        return (x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)) / shape
    if contrast == "gauss":
        return -np.exp(-0.5 * u * u)
    raise ValueError(f"unknown contrast {contrast!r}")


@lru_cache(maxsize=64)
def _gaussian_reference_cached(contrast: str, shape: float) -> float:
    if contrast == "gauss":
        # E[-exp(-nu^2/2)] for nu ~ N(0,1) has the closed form -1/sqrt(2).
        return -1.0 / math.sqrt(2.0)
    # 32-node Gauss-Hermite quadrature. The log-cosh integrand has
    # |u|-like tails, so convergence is not spectral, but the error
    # stays below 1e-4 by a wide margin for shapes in [1, 2].
    nodes, weights = np.polynomial.hermite.hermgauss(32)
    values = contrast_primitive(math.sqrt(2.0) * nodes, contrast, shape)
    return float(np.sum(weights * values) / math.sqrt(math.pi))


def gaussian_reference(contrast: str, shape: float = 1.0) -> float:
    """E[G(nu)] for standard normal nu, used to zero the negentropy scale."""
    if contrast not in CONTRASTS:
        raise ValueError(f"unknown contrast {contrast!r}")
    return _gaussian_reference_cached(contrast, float(shape))


def negentropy_estimate(y: np.ndarray, contrast: str = "logcosh", shape: float = 1.0) -> float:
    """Negentropy surrogate (E[G(y)] - E[G(nu)])^2 for standardized y.

    Requires y to be standardized: zero mean and unit variance within
    1e-3. The estimate is zero for Gaussian input up to sampling error.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("y must be a 1-D series with at least 2 samples")
    mean = float(y.mean())
    var = float(y.var())
    if abs(mean) > 1e-3 or abs(var - 1.0) > 1e-3:
        raise ValueError(
            f"y must be standardized (mean {mean:.2e}, variance {var:.6f})")
    diff = float(np.mean(contrast_primitive(y, contrast, shape))) - gaussian_reference(
        contrast, shape)
    return diff * diff


def _check_whitened(data: np.ndarray, tol: float) -> None:
    cov = (data @ data.T) / data.shape[1]
    dev = np.max(np.abs(cov - np.eye(data.shape[0])))
    if dev > tol:
        raise ValueError(
            f"input is not whitened: covariance deviates from identity by {dev:.2e} "
            f"(tolerance {tol:g})")


def _iterate(
    data: np.ndarray,
    w: np.ndarray,
    cfg: FastIcaConfig,
    budget: int,
    project: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, int, bool]:
    """Run the fixed-point update from w for at most budget iterations.

    w is one unit (1-D) or all rows at once (2-D); project decorrelates
    and normalizes each update. Converged when every row has
    1 - |<w_new, w_old>| within tolerance.
    """
    n = data.shape[1]
    for it in range(1, budget + 1):
        g, gprime = contrast_eval(w @ data, cfg.contrast, cfg.contrast_shape)
        w_new = project((data @ g.T).T / n - gprime.mean(axis=-1, keepdims=True) * w)
        delta = 1.0 - np.min(np.abs(np.sum(w_new * w, axis=-1)))
        w = w_new
        if delta <= cfg.tol:
            return w, it, True
    return w, budget, False


def _gram_schmidt(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Deflation's projection: w minus its part in the accepted rows, normalized."""
    w = w - basis.T @ (basis @ w)
    norm = float(np.linalg.norm(w))
    if norm == 0.0 or not math.isfinite(norm):
        raise ConvergenceError("fixed-point update collapsed to zero")
    return w / norm


def fit_one_unit(
    b: MultichannelSignal,
    w0: np.ndarray,
    cfg: FastIcaConfig,
) -> tuple[np.ndarray, int, bool]:
    """Estimate a single component direction from whitened data.

    Returns (w, iterations, converged). The input must be whitened
    (covariance within 1e-6 of identity) and w0 must be a unit vector.
    A non-converged run returns the best vector found with
    converged=False; the caller decides whether that is fatal.
    """
    data = b.data
    _check_whitened(data, 1e-6)
    w0 = np.asarray(w0, dtype=np.float64)
    if w0.shape != (data.shape[0],):
        raise ValueError(f"w0 must have shape ({data.shape[0]},), got {w0.shape}")
    if abs(float(np.linalg.norm(w0)) - 1.0) > 1e-8:
        raise ValueError("w0 must be a unit vector")
    no_basis = np.zeros((0, data.shape[0]))
    return _iterate(data, w0, cfg, cfg.max_iter, partial(_gram_schmidt, no_basis))


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


def _settle_unit(
    data: np.ndarray,
    w0: np.ndarray,
    cfg: FastIcaConfig,
    rng: np.random.Generator,
    basis: np.ndarray,
) -> tuple[np.ndarray, int, bool]:
    """Converge, then verify stability by perturb-and-resume.

    A converged w is accepted only if a small orthogonal kick re-converges
    to the same direction. Otherwise the iteration escaped a saddle; the
    new point is adopted and verified in turn. Iteration counts accumulate.
    """
    project = partial(_gram_schmidt, basis)
    w, total, converged = _iterate(data, w0, cfg, cfg.max_iter, project)
    for _ in range(_MAX_ESCAPES):
        if not converged:
            break
        kick = rng.standard_normal(w.shape[0])
        kick = kick - basis.T @ (basis @ kick)
        kick = kick - (kick @ w) * w
        knorm = float(np.linalg.norm(kick))
        if knorm == 0.0:
            break  # no orthogonal direction left to test
        w_try = w + _KICK_SIZE * (kick / knorm)
        w_try = w_try / float(np.linalg.norm(w_try))
        w_new, used, converged = _iterate(data, w_try, cfg, cfg.max_iter, project)
        total += used
        if abs(float(w_new @ w)) >= _STABLE_MATCH:
            return w_new, total, converged  # came back: a genuine attractor
        w = w_new  # escaped a saddle; verify the new point
    return w, total, converged


def _orthonormalize(w_mat: np.ndarray) -> np.ndarray:
    """Symmetric orthonormalization W <- (W W.T)^(-1/2) W.

    That is the polar factor U V.T of the SVD W = U S V.T. A non-finite
    W, or one singular to working precision (the numpy.linalg.matrix_rank
    tolerance), has no such factor and raises ConvergenceError.
    """
    if not np.all(np.isfinite(w_mat)):
        raise ConvergenceError("non-finite matrix in symmetric orthonormalization")
    u, s, vt = np.linalg.svd(w_mat)
    if s[-1] <= s[0] * max(w_mat.shape) * np.finfo(np.float64).eps:
        raise ConvergenceError("singular matrix in symmetric orthonormalization")
    return u @ vt


@dataclass(frozen=True)
class Assignment:
    """Permutation plus signs mapping separated rows to named channels.

    Slot i of the output takes component perm[i] scaled by signs[i] and
    carries labels[i].
    """

    labels: tuple[str, ...]
    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.labels)
        if len(self.perm) != k or len(self.signs) != k:
            raise ValueError("labels, perm, and signs must have equal length")
        if sorted(self.perm) != list(range(k)):
            raise ValueError(f"perm must be a permutation of 0..{k - 1}, got {self.perm}")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs must be +-1, got {self.signs}")

    def apply(self, signal: MultichannelSignal) -> MultichannelSignal:
        """Reorder and sign-correct component rows."""
        return signal.with_data(self.apply_rows(signal.data))

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """A copy of rows with slot i holding signs[i] * rows[perm[i]]."""
        if rows.shape[0] != len(self.perm):
            raise ValueError(
                f"got {rows.shape[0]} channels, assignment has {len(self.perm)}")
        out = rows[list(self.perm)]
        out *= np.array(self.signs, dtype=np.float64)[:, None]
        return out


@dataclass(frozen=True)
class SeparationResult:
    """Unmixing estimate on whitened coordinates.

    w has orthonormal rows (one per component). w_full, when the
    whitening transform was provided to fit(), acts on raw centered
    data: w_full = w @ whitener. assignment starts as the identity and
    is replaced after component identification.
    """

    w: np.ndarray
    iterations: tuple[int, ...]
    converged: tuple[bool, ...]
    assignment: Assignment
    w_full: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        if self.w_full is not None:
            wf = np.asarray(self.w_full, dtype=np.float64)
            wf.flags.writeable = False
            object.__setattr__(self, "w_full", wf)
        c = w.shape[0]
        if w.ndim != 2 or w.shape[1] != c:
            raise ValueError(f"w must be square, got shape {w.shape}")
        if len(self.iterations) != c or len(self.converged) != c:
            raise ValueError("iterations and converged must have one entry per row")
        norms = np.linalg.norm(w, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ValueError("rows of w must be unit-norm within 1e-10")
        if np.max(np.abs(w @ w.T - np.eye(c))) > 1e-8:
            raise ValueError("w rows must be orthonormal within 1e-8")

    @property
    def channels(self) -> int:
        return self.w.shape[0]

    def with_assignment(self, assignment: Assignment) -> "SeparationResult":
        return replace(self, assignment=assignment)

    def to_mapping(self) -> dict[str, object]:
        """Flat key/value form for the text serialization format."""
        out: dict[str, object] = {
            "channels": self.channels,
            "w": self.w,
            "iterations": self.iterations,
            "converged": self.converged,
            "labels": self.assignment.labels,
            "perm": self.assignment.perm,
            "signs": self.assignment.signs,
        }
        if self.w_full is not None:
            out["w_full"] = self.w_full
        return out


def fit(
    b: MultichannelSignal,
    cfg: FastIcaConfig,
    transform: WhiteningTransform | None = None,
) -> SeparationResult:
    """Estimate the full unmixing matrix from whitened data.

    Deflation mode extracts one unit at a time, Gram-Schmidt-projecting
    each update against accepted rows. Symmetric mode updates all rows
    jointly and re-orthonormalizes every sweep; its per-row iteration
    count is the shared sweep count. Every converged point is stability
    checked (see the module docstring); reported iteration counts
    include those verification updates.

    Non-convergence of any unit is recorded in converged, never raised;
    callers that need a hard failure check the flags.
    """
    data = b.data
    _check_whitened(data, 1e-6)
    c = data.shape[0]
    rng = np.random.default_rng(cfg.seed)

    if cfg.ortho == "deflation":
        rows: list[np.ndarray] = []
        counts: list[int] = []
        flags: list[bool] = []
        for _ in range(c):
            basis = np.array(rows) if rows else np.zeros((0, c))
            w0 = _random_unit(rng, c)
            if rows:
                w0 = _gram_schmidt(basis, w0)
            w, used, ok = _settle_unit(data, w0, cfg, rng, basis)
            rows.append(w)
            counts.append(used)
            flags.append(ok)
        w_mat = np.array(rows)
        # Final pass: re-orthonormalize accumulated rounding, row by row.
        for i in range(1, c):
            w_mat[i] = _gram_schmidt(w_mat[:i], w_mat[i])
    else:
        w_mat, sweeps, converged = _iterate(
            data, _orthonormalize(rng.standard_normal((c, c))), cfg, cfg.max_iter,
            _orthonormalize)
        # Stability pass: kick all rows, resume, accept on self-match.
        for _ in range(_MAX_ESCAPES):
            if not converged:
                break
            kicked = _orthonormalize(w_mat + _KICK_SIZE * rng.standard_normal(w_mat.shape))
            w_try, used, resumed = _iterate(
                data, kicked, cfg, max(cfg.max_iter - sweeps, 1), _orthonormalize)
            sweeps += used
            match = np.min(np.abs(np.sum(w_try * w_mat, axis=1)))
            w_mat = w_try
            if resumed and match >= _STABLE_MATCH:
                break
            converged = resumed
        counts = [sweeps] * c
        flags = [converged] * c

    w_full = w_mat @ transform.whitener if transform is not None else None
    return SeparationResult(
        w=w_mat,
        iterations=tuple(counts),
        converged=tuple(flags),
        assignment=Assignment(labels=tuple(f"component{i}" for i in range(c)),
                              perm=tuple(range(c)), signs=(1,) * c),
        w_full=w_full,
    )


def unmix(
    signal: MultichannelSignal,
    result: SeparationResult,
    transform: WhiteningTransform,
) -> MultichannelSignal:
    """Recover component time series from a raw (unwhitened) signal.

    One product applies the whitener, the estimated rotation, and the
    result's current assignment (identity until components have been
    identified) to the centered record.
    """
    if signal.channels != result.channels:
        raise ValueError(
            f"signal has {signal.channels} channels, result has {result.channels}")
    w_full = result.assignment.apply_rows(result.w @ transform.whitener)
    return signal.with_data(w_full @ (signal.data - transform.mean[:, None]))


def separate(
    signal: MultichannelSignal,
    cfg: FastIcaConfig,
    expected: dict[str, float],
    skip: int = 0,
) -> tuple[MultichannelSignal, SeparationResult, WhiteningTransform]:
    """The separation stage: whiten, fit, unmix, identify.

    Whitening and the fit see signal.data[:, skip:] only (skip drops a
    startup transient); unmixing and identification cover the whole
    record. Returns (corrected, result, transform); corrected holds the
    expected carriers in order and result the identified assignment.
    Non-convergence is recorded in result.converged, never raised.
    """
    if not 0 <= skip < signal.length:
        raise ValueError(f"skip must be in [0, {signal.length}), got {skip}")
    # Layers are looked up at call time, so wrappers on module attributes see them.
    whitened, transform = preprocess.whiten(
        signal.with_data(signal.data[:, skip:]) if skip else signal)
    result = fit(whitened, cfg, transform)
    components = unmix(signal, result, transform)
    assignment = identify_components(components, expected)
    return assignment.apply(components), result.with_assignment(assignment), transform


def identify_components(
    components: MultichannelSignal,
    expected: dict[str, float],
    sign_window: int = 256,
) -> Assignment:
    """Match separated components to expected carrier frequencies.

    Each component's dominant frequency comes from an FFT peak; each
    expected carrier takes the component whose peak is nearest. Signs
    are fixed so that the demodulated phase at the start of the record
    falls in (-pi/2, pi/2], matching the phase convention of the
    demodulation stage. Two carriers claiming the same component raise
    IdentificationError.
    """
    if len(expected) != components.channels:
        raise ValueError(
            f"{len(expected)} expected carriers for {components.channels} components")
    nyquist = 0.5 * components.sample_rate
    freqs = list(expected.values())
    for label, freq in expected.items():
        if not (0.0 < freq < nyquist):
            raise ValueError(f"carrier {label!r} at {freq} Hz is outside (0, Nyquist)")
    if len(set(freqs)) != len(freqs):
        raise ValueError("expected carrier frequencies must be distinct")

    spectrum = np.abs(np.fft.rfft(components.data, axis=1))
    spectrum[:, 0] = 0.0  # never identify a component by its DC residue
    bin_hz = components.sample_rate / components.length
    peak_freq = np.argmax(spectrum, axis=1) * bin_hz

    labels: list[str] = []
    perm: list[int] = []
    signs: list[int] = []
    taken: dict[int, str] = {}
    for label, freq in expected.items():
        idx = int(np.argmin(np.abs(peak_freq - freq)))
        if idx in taken:
            raise IdentificationError(
                f"carriers {taken[idx]!r} and {label!r} both match component {idx} "
                f"(component peaks at {peak_freq[idx]:.6g} Hz)")
        taken[idx] = label
        window = min(sign_window, components.length)
        t = np.arange(window) / components.sample_rate
        z = np.sum(components.data[idx, :window] * np.exp(-2j * np.pi * freq * t))
        # Demodulated phase convention: phase = angle(z) + pi/2, wrapped.
        phase0 = math.remainder(math.atan2(z.imag, z.real) + 0.5 * math.pi, 2.0 * math.pi)
        labels.append(label)
        perm.append(idx)
        signs.append(1 if -0.5 * math.pi < phase0 <= 0.5 * math.pi else -1)
    return Assignment(labels=tuple(labels), perm=tuple(perm), signs=tuple(signs))
