"""Eigendecomposition and whitening.

eigendecompose() takes its eigenpairs from numpy.linalg.eigh, so the
oracles here are cases solved by hand and the defining properties, not
another library solver.
"""

import re

import numpy as np
import pytest

import icdx

from helpers import RATE, STRONG_COUPLING, scenario_pair, separate


def _random_spd(rng: np.random.Generator, dim: int, cond: float) -> np.ndarray:
    """Symmetric positive definite with a chosen condition number."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigvals = np.geomspace(cond, 1.0, dim)
    return basis @ np.diag(eigvals) @ basis.T


def test_whiten_removes_means():
    rng = np.random.default_rng(0)
    signal = icdx.MultichannelSignal(rng.standard_normal((3, 4096)) + 5.0, RATE)
    whitened, transform = icdx.whiten(signal)
    assert np.allclose(transform.mean, signal.data.mean(axis=1), atol=0)
    # Whitened rows have unit rms, so their means are relative to it.
    assert np.all(np.abs(whitened.data.mean(axis=1)) <= 1e-12)


def test_whiten_orthogonal_unit_tones():
    # Two orthogonal tones over integer cycle counts: each sin^2 averages
    # to exactly 1/2 and the cross term to 0, so the covariance is I/2:
    # both eigenvalues are 1/2, and dewhitener @ dewhitener.T rebuilds it.
    n = 81920
    t = np.arange(n) / RATE
    data = np.vstack([
        np.sin(2.0 * np.pi * 1.0e6 * t),
        np.sin(2.0 * np.pi * 1.1e6 * t),
    ])
    _, transform = icdx.whiten(icdx.MultichannelSignal(data, RATE))
    assert np.max(np.abs(transform.eigvals - 0.5)) < 1e-10
    sigma = transform.dewhitener @ transform.dewhitener.T
    assert np.max(np.abs(sigma - 0.5 * np.eye(2))) < 1e-10


def test_whiten_refuses_a_mean_centering_cannot_remove():
    # A 1e9 DC offset on a unit-rms record leaves a mean of about 7e-8 of
    # the rms after centering in float64, past the 1e-8 tolerance.
    _, _, _, mixed = scenario_pair(n=8192)
    offset = mixed.with_data(mixed.data + 1e9)
    with pytest.raises(ValueError, match=r"channel \d mean \S+ after centering") as refused:
        icdx.whiten(offset)
    assert "center()" not in str(refused.value)


def test_eigendecompose_2x2_hand_case():
    # [[2, 1], [1, 2]]: eigenvalues 3 and 1 with eigenvectors along
    # (1, 1) and (1, -1), solved by hand from the characteristic
    # polynomial l^2 - 4 l + 3.
    eigvecs, eigvals = icdx.eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(eigvals, [3.0, 1.0], atol=1e-14)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(eigvecs[:, 0]), [inv_sqrt2, inv_sqrt2], atol=1e-14)
    assert np.allclose(np.abs(eigvecs[:, 1]), [inv_sqrt2, inv_sqrt2], atol=1e-14)
    assert abs(eigvecs[:, 0] @ eigvecs[:, 1]) < 1e-14
    recon = eigvecs @ np.diag(eigvals) @ eigvecs.T
    assert np.max(np.abs(recon - [[2.0, 1.0], [1.0, 2.0]])) < 1e-14


def test_eigendecompose_3x3_hand_case():
    # The tridiagonal [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]: eigenvalues
    # 2 + 2 cos(k pi / 4) for k = 1, 2, 3, with eigenvectors
    # sin(j k pi / 4), j = 1, 2, 3. Signed so the first entry within 1e-12
    # of the largest magnitude is positive: the middle vector's two largest
    # entries tie, and the first of them decides.
    sym = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    eigvecs, eigvals = icdx.eigendecompose(sym)
    root2 = np.sqrt(2.0)
    assert np.allclose(eigvals, [2.0 + root2, 2.0, 2.0 - root2], rtol=0, atol=1e-14)
    assert np.allclose(eigvecs[:, 0], [-0.5, root2 / 2.0, -0.5], rtol=0, atol=1e-14)
    assert np.allclose(eigvecs[:, 1], [1.0 / root2, 0.0, -1.0 / root2], rtol=0, atol=1e-14)
    assert np.allclose(eigvecs[:, 2], [0.5, root2 / 2.0, 0.5], rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_eigendecompose_signs_tied_entries_by_the_first(dim):
    # The tridiagonal [-1, 2, -1] family has eigenvalues 2 - 2 cos(k pi / (dim + 1))
    # and eigenvectors sin(j k pi / (dim + 1)); symmetric and antisymmetric ones
    # have entries of equal magnitude, where rounding alone picks the largest.
    sym = 2.0 * np.eye(dim) - np.eye(dim, k=1) - np.eye(dim, k=-1)
    eigvecs, eigvals = icdx.eigendecompose(sym)
    k = np.arange(dim, 0, -1)
    angle = k * np.pi / (dim + 1)
    assert np.allclose(eigvals, 2.0 - 2.0 * np.cos(angle), rtol=0, atol=1e-13)
    expected = np.sin(np.outer(np.arange(1, dim + 1), angle)) * np.sqrt(2.0 / (dim + 1))
    for col in expected.T:
        first = np.flatnonzero(np.abs(col) >= np.max(np.abs(col)) * (1.0 - 1e-9))[0]
        col *= np.sign(col[first])
    assert np.allclose(eigvecs, expected, rtol=0, atol=1e-13)


def test_eigendecompose_matches_library_solver():
    # Cross-check against numpy.linalg.eigvalsh on random SPD matrices with
    # condition numbers up to 1e6 and sizes 2 through 6.
    rng = np.random.default_rng(1234)
    for trial in range(40):
        dim = 2 + trial % 5
        cond = 10.0 ** (1 + trial % 6)
        sym = _random_spd(rng, dim, cond)
        eigvecs, eigvals = icdx.eigendecompose(sym)
        reference = np.sort(np.linalg.eigvalsh(sym))[::-1]
        assert np.allclose(eigvals, reference, rtol=1e-9, atol=0)
        assert np.all(np.diff(eigvals) <= 0)  # sorted descending
        recon = eigvecs @ np.diag(eigvals) @ eigvecs.T
        assert np.linalg.norm(recon - sym) <= 1e-9 * np.linalg.norm(sym)
        assert np.max(np.abs(eigvecs.T @ eigvecs - np.eye(dim))) < 1e-12


@pytest.mark.filterwarnings("error")
def test_record_scaled_by_1e100_separates_as_the_unscaled_one():
    # The symmetry check compares largest entries: a norm's sum of squares
    # overflowed once a covariance entry passed about 1e154.
    _, _, _, mixed = scenario_pair(n=2**14)
    _, plain, _ = separate(mixed)
    _, huge, _ = separate(mixed.with_data(1e100 * mixed.data))
    assert huge.assignment.perm == plain.assignment.perm
    assert huge.assignment.signs == plain.assignment.signs
    assert np.max(np.abs(huge.w - plain.w)) <= 1e-12


def test_whiten_refuses_a_record_whose_sum_of_squares_overflows():
    # At 1e160 the Gram matrix of 2^16 samples passes the float64 range; it is
    # refused with the bound, and no overflow warning (an error here) comes first.
    _, _, _, mixed = scenario_pair(n=2**16)
    bound = f"rms times sqrt(length) must stay below {np.sqrt(np.finfo(np.float64).max):.3g}"
    with pytest.raises(ValueError, match=re.escape(bound)):
        icdx.whiten(mixed.with_data(1e160 * mixed.data))
    icdx.whiten(mixed.with_data(1e150 * mixed.data))


@pytest.mark.parametrize("skip", [-1, 4096, 4097])
def test_whiten_refuses_a_skip_outside_the_record(skip):
    signal = icdx.MultichannelSignal(np.random.default_rng(1).standard_normal((2, 4096)), RATE)
    with pytest.raises(ValueError, match=rf"skip must be in \[0, 4096\), got {skip}"):
        icdx.whiten(signal, skip=skip)
    with pytest.raises(ValueError, match=rf"skip must be in \[0, 4096\), got {skip}"):
        icdx.separate(signal, icdx.FastIcaConfig(seed=0), {"a": 1.0e6, "b": 1.1e6}, skip=skip)


def test_eigendecompose_deterministic_signs():
    sym = _random_spd(np.random.default_rng(5), 4, 100.0)
    v1, e1 = icdx.eigendecompose(sym)
    v2, e2 = icdx.eigendecompose(sym.copy())
    assert np.array_equal(v1, v2)
    assert np.array_equal(e1, e2)
    for j in range(4):
        k = int(np.argmax(np.abs(v1[:, j])))
        assert v1[k, j] > 0


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(ValueError):
        icdx.eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        icdx.eigendecompose(np.ones((2, 3)))


def test_whiten_unit_covariance_scenario():
    _, _, _, mixed = scenario_pair(n=2**16)
    whitened, transform = icdx.whiten(mixed)
    cov = (whitened.data @ whitened.data.T) / whitened.length
    assert np.max(np.abs(cov - np.eye(2))) < 1e-8
    # Whitener construction: rows are eigvecs columns scaled by
    # 1/sqrt(eigval), by definition of the principal-component map.
    expected = (1.0 / np.sqrt(transform.eigvals))[:, None] * transform.eigvecs.T
    assert np.array_equal(transform.whitener, expected)


def test_whiten_strong_coupling_still_unit_covariance():
    _, _, _, mixed = scenario_pair(n=2**16, coupling=STRONG_COUPLING)
    whitened, _ = icdx.whiten(mixed)
    cov = (whitened.data @ whitened.data.T) / whitened.length
    assert np.max(np.abs(cov - np.eye(2))) < 1e-8


def test_whiten_roundtrip_any_valid_input():
    rng = np.random.default_rng(77)
    mixing = np.array([[2.0, 0.3, 0.0], [0.1, 1.0, 0.4], [0.0, 0.2, 0.5]])
    data = mixing @ rng.standard_normal((3, 8192)) + np.array([[1.0], [-2.0], [0.5]])
    signal = icdx.MultichannelSignal(data, RATE)
    whitened, transform = icdx.whiten(signal)
    restored = transform.restore(whitened)
    rms = np.sqrt(np.mean((restored.data - signal.data) ** 2))
    assert rms <= 1e-10


def test_whitening_transform_invariants():
    _, _, _, mixed = scenario_pair(n=2**14)
    _, transform = icdx.whiten(mixed)
    eye = np.eye(transform.channels)
    assert np.max(np.abs(transform.whitener @ transform.dewhitener - eye)) <= 1e-10
    assert np.max(np.abs(transform.eigvecs.T @ transform.eigvecs - eye)) <= 1e-10
    assert np.all(transform.eigvals > 0)


def test_whiten_rank_deficient_raises():
    t = np.arange(4096) / RATE
    tone = np.sin(2.0 * np.pi * 1.0e6 * t)
    dup = icdx.MultichannelSignal(np.vstack([tone, 0.7 * tone]), RATE)
    with pytest.raises(icdx.RankDeficientError):
        icdx.whiten(dup)


@pytest.mark.parametrize("skip, left", [(4094, 2), (4095, 1)])
def test_whiten_refuses_no_more_samples_than_channels_after_the_skip(skip, left):
    # Two centered samples span one dimension: the message names the count and
    # the skip, not the covariance's zero eigenvalues.
    signal = icdx.MultichannelSignal(np.random.default_rng(1).standard_normal((2, 4096)), RATE)
    with pytest.raises(icdx.RankDeficientError,
                       match=rf"only {left} of 4096 samples remain after skipping {skip}"):
        icdx.whiten(signal, skip=skip)
    icdx.whiten(signal, skip=4093)


def test_whitening_transform_serializes_flat():
    _, _, _, mixed = scenario_pair(n=2**14)
    _, transform = icdx.whiten(mixed)
    mapping = transform.to_mapping()
    assert set(mapping) == {
        "channels", "mean", "eigvals", "eigvecs", "whitener", "dewhitener"}
