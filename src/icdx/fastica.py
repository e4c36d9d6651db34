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
re-converges to itself, a saddle escapes.

On records longer than two 2^15-sample blocks, search and verification
run on the leading contiguous block (a strided subsample would alias
the carriers); the separation error shrinks as 1/N, so the same update
then polishes that result on the whole record to the same tolerance in
a step or two. A block that does not converge is dropped and the unit
searched on the whole record from the same start. The last deflation
unit is fixed by the accepted rows: one update, no kick. Iteration
counts include every update: block, polish, verification, fallback.

Identification also reads only the leading 2^15-sample block: a
component's dominant frequency needs bins of rate / 2^15 (244 Hz at
8 MHz), far finer than any carrier spacing, and a strided subsample
would again alias the carriers. Records of at most one block identify
from all their samples.

Each update streams the record: both expectations are sums over
2^14-sample chunks, accumulated in order and divided by N once, so no
temporary is longer than a chunk. A record of at most one chunk gets
the one-shot sums bit for bit; on longer ones only the rounding of the
sums changes, which moved w by at most 2.7e-15 and no iteration count
over 56 fits of 2^14 to 2^20 samples, both modes and both contrasts.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import preprocess
from .preprocess import _CHUNK, WhiteningTransform, centered_product
from .signalgen import Adopted, MultichannelSignal, _check_frequency, own_arrays

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
    "gaussian_reference",
    "identify_components",
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
# Leading samples a unit settles on before its full-record polish.
_BLOCK = 2**15

_SIGN_WINDOW = 256  # leading samples whose phase fixes each identified sign


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


def _check_whitened(data: np.ndarray, tol: float) -> None:
    cov = (data @ data.T) / data.shape[1]
    dev = np.max(np.abs(cov - np.eye(data.shape[0])))
    if dev > tol:
        raise ValueError(
            f"input is not whitened: covariance deviates from identity by {dev:.2e} "
            f"(tolerance {tol:g})")


def _update(data: np.ndarray, w: np.ndarray, cfg: FastIcaConfig) -> np.ndarray:
    """E[b g(w.T b)] - E[g'(w.T b)] w over the record, before projection.

    Both expectations are sums over _CHUNK-sample blocks of data, so no
    temporary is longer than a block; for 2-D w every row is updated.
    """
    n = data.shape[1]
    moment = np.zeros(w.shape)
    slope = np.zeros(w.shape[:-1] + (1,))
    for start in range(0, n, _CHUNK):
        block = data[:, start:start + _CHUNK]
        g, gprime = contrast_eval(w @ block, cfg.contrast, cfg.contrast_shape)
        moment += (block @ g.T).T
        slope += gprime.sum(axis=-1, keepdims=True)
    return moment / n - (slope / n) * w


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
    for it in range(1, budget + 1):
        w_new = project(_update(data, w, cfg))
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
        raw = float(np.linalg.norm(kick))
        kick = kick - basis.T @ (basis @ kick)
        kick = kick - (kick @ w) * w
        knorm = float(np.linalg.norm(kick))
        if knorm <= 1e-8 * raw:
            break  # no orthogonal direction left to test, up to rounding
        w_try = w + _KICK_SIZE * (kick / knorm)
        w_try = w_try / float(np.linalg.norm(w_try))
        w_new, used, converged = _iterate(data, w_try, cfg, cfg.max_iter, project)
        total += used
        if abs(float(w_new @ w)) >= _STABLE_MATCH:
            return w_new, total, converged  # came back: a genuine attractor
        w = w_new  # escaped a saddle; verify the new point
    return w, total, converged


def _settle_rows(
    data: np.ndarray,
    w0: np.ndarray,
    cfg: FastIcaConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, bool]:
    """Symmetric mode's settle: converge all rows, kick them all, accept on self-match."""
    w_mat, sweeps, converged = _iterate(data, w0, cfg, cfg.max_iter, _orthonormalize)
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
    return w_mat, sweeps, converged


def _coarse_to_fine(
    data: np.ndarray,
    w0: np.ndarray,
    cfg: FastIcaConfig,
    settle: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, int, bool]],
    project: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, int, bool]:
    """settle(data, w0) on the leading _BLOCK samples, then polish on the whole record.

    Records of at most 2 * _BLOCK samples, and blocks that do not converge,
    are settled on the whole record from w0. The count covers every update.
    """
    used = 0
    if data.shape[1] > 2 * _BLOCK:
        w, used, converged = settle(data[:, :_BLOCK], w0)
        if converged:
            w, polish, converged = _iterate(data, w, cfg, cfg.max_iter, project)
            return w, used + polish, converged
    w, full, converged = settle(data, w0)
    return w, used + full, converged


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
        own_arrays(self, w=2, w_full=2)
        w = self.w
        c = w.shape[0]
        if w.shape[1] != c:
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
    checked, on the leading block when the record is long enough (see the
    module docstring); reported iteration counts include block, polish
    and verification updates.

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
        for i in range(c):
            basis = np.array(rows) if rows else np.zeros((0, c))
            w0 = _random_unit(rng, c)
            if rows:
                w0 = _gram_schmidt(basis, w0)
            settle = partial(_settle_unit, cfg=cfg, rng=rng, basis=basis)
            if i == c - 1:  # the accepted rows already fix this direction
                w, used, ok = settle(data, w0)
            else:
                w, used, ok = _coarse_to_fine(
                    data, w0, cfg, settle, partial(_gram_schmidt, basis))
            rows.append(w)
            counts.append(used)
            flags.append(ok)
        w_mat = np.array(rows)
        # Final pass: re-orthonormalize accumulated rounding, row by row.
        for i in range(1, c):
            w_mat[i] = _gram_schmidt(w_mat[:i], w_mat[i])
    else:
        w_mat, sweeps, converged = _coarse_to_fine(
            data, _orthonormalize(rng.standard_normal((c, c))), cfg,
            partial(_settle_rows, cfg=cfg, rng=rng), _orthonormalize)
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
    return signal.with_data(Adopted(centered_product(w_full, signal.data, transform.mean)))


def separate(
    signal: MultichannelSignal,
    cfg: FastIcaConfig,
    expected: dict[str, float],
    skip: int = 0,
) -> tuple[MultichannelSignal, SeparationResult, WhiteningTransform]:
    """The separation stage: whiten, fit, identify, unmix.

    Whitening and the fit see signal.data[:, skip:] only (skip drops a
    startup transient). Identification reads the fitted components on the
    leading block only (see identify_components), and unmixing then makes
    the one full-record product, with the identified assignment folded in.
    Returns (corrected, result, transform); corrected holds the expected
    carriers in order and result the identified assignment.
    Non-convergence is recorded in result.converged, never raised.
    """
    if not 0 <= skip < signal.length:
        raise ValueError(f"skip must be in [0, {signal.length}), got {skip}")
    # Layers are looked up at call time, so wrappers on module attributes see them.
    whitened, transform = preprocess.whiten(
        signal.with_data(signal.data[:, skip:]) if skip else signal)
    result = fit(whitened, cfg, transform)
    del whitened
    block = centered_product(result.w_full, signal.data[:, :_BLOCK], transform.mean)
    assignment = identify_components(signal.with_data(Adopted(block)), expected)
    result = replace(result, assignment=assignment)
    return unmix(signal, result, transform), result, transform


def identify_components(
    components: MultichannelSignal,
    expected: dict[str, float],
) -> Assignment:
    """Match separated components to expected carrier frequencies.

    Each component's dominant frequency is its first largest rfft bin
    above DC over the leading _BLOCK samples (the block fit() settles
    on), or the whole record when it is shorter; each expected carrier
    takes the component whose peak is nearest. The bin width rate/_BLOCK
    is far finer than any carrier spacing, and the leading block, not a
    strided subsample, is read because striding aliases the carriers.
    Signs are fixed so that the demodulated phase at the start of the
    record falls in (-pi/2, pi/2], matching the phase convention of the
    demodulation stage. Two carriers claiming the same component raise
    IdentificationError.
    """
    if len(expected) != components.channels:
        raise ValueError(
            f"{len(expected)} expected carriers for {components.channels} components")
    for label, freq in expected.items():
        _check_frequency(f"expected[{label!r}]", freq, components.sample_rate)
    if len(set(expected.values())) != len(expected):
        raise ValueError("expected carrier frequencies must be distinct")

    block = components.data[:, :_BLOCK]
    magnitude = np.abs(np.fft.rfft(block, axis=1))
    magnitude[:, 0] = 0.0  # a component peaks at DC only if it has nothing above
    peak_freq = np.argmax(magnitude, axis=1) * (components.sample_rate / block.shape[1])

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
        window = min(_SIGN_WINDOW, components.length)
        t = np.arange(window) / components.sample_rate
        z = np.sum(components.data[idx, :window] * np.exp(-2j * np.pi * freq * t))
        # Demodulated phase convention: phase = angle(z) + pi/2, wrapped.
        phase0 = math.remainder(math.atan2(z.imag, z.real) + 0.5 * math.pi, 2.0 * math.pi)
        labels.append(label)
        perm.append(idx)
        signs.append(1 if -0.5 * math.pi < phase0 <= 0.5 * math.pi else -1)
    return Assignment(labels=tuple(labels), perm=tuple(perm), signs=tuple(signs))
