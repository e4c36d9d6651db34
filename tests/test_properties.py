"""Property tests (hypothesis) for invariants shared across layers.

Each property compares an implementation against an independent
reference: numpy.unwrap, a per-row permutation loop, a brute-force set
of lost decimated indices, a decomposition built to have a known
least-squares answer, or the step-by-step form of a fused product.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import icdx
from icdx.cli import _mask_lost

from helpers import RATE

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(arrays(np.float64, st.integers(1, 200), elements=st.floats(-50.0, 50.0)))
def test_unwrap_matches_numpy_away_from_pi_jumps(wrapped):
    # At a jump of exactly +-pi the two conventions pick different branches.
    gaps = np.mod(np.diff(wrapped), 2.0 * np.pi)
    assume(np.all(np.abs(gaps - np.pi) > 1e-6))
    ours = icdx.unwrap(wrapped)
    assert ours[0] == wrapped[0]
    assert np.allclose(ours, np.unwrap(wrapped), rtol=0.0, atol=1e-9)
    steps = np.diff(ours)
    assert np.all((steps > -np.pi) & (steps <= np.pi))


@st.composite
def _assignments(draw):
    k = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(k)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=k, max_size=k))
    rows = draw(arrays(np.float64, (k, draw(st.integers(1, 16))), elements=FINITE))
    labels = tuple(f"c{i}" for i in range(k))
    return icdx.Assignment(labels=labels, perm=tuple(perm), signs=tuple(signs)), rows


@given(_assignments())
def test_assignment_matches_per_row_loop(case):
    assignment, rows = case
    expected = np.empty_like(rows)
    for slot, (src, sign) in enumerate(zip(assignment.perm, assignment.signs)):
        expected[slot] = sign * rows[src]
    assert assignment.apply_rows(rows).tobytes() == expected.tobytes()
    applied = assignment.apply(icdx.MultichannelSignal(rows, RATE))
    assert applied.data.tobytes() == expected.tobytes()


def _lost_decimated_indices(lost, decimation, length):
    """Reference: the set-based form of the lost-sample bookkeeping."""
    bad = set()
    for start, stop in lost:
        first = (start + decimation - 1) // decimation
        last = (stop - 1) // decimation
        bad.update(range(max(first, 0), min(last + 1, length)))
    return bad


@st.composite
def _lost_cases(draw):
    n = draw(st.integers(1, 2000))
    decimation = draw(st.integers(1, 50))
    bounds = st.integers(0, n)
    pairs = draw(st.lists(st.tuples(bounds, bounds).filter(lambda p: p[0] < p[1]),
                          max_size=6))
    return n, decimation, tuple(pairs)


@given(_lost_cases())
def test_lost_range_mask_matches_index_set(case):
    n, decimation, lost = case
    length = len(range(0, n, decimation))
    keep = np.ones(length, dtype=bool)
    _mask_lost(keep, lost, decimation)
    expected = np.ones(length, dtype=bool)
    expected[sorted(_lost_decimated_indices(lost, decimation, length))] = False
    assert np.array_equal(keep, expected)


@settings(deadline=None)
@given(
    arrays(np.float64, st.integers(2, 200), elements=st.floats(-10.0, 10.0)),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 10.0),
    st.sampled_from((-1.0, 1.0)),
    st.floats(-3.0, 3.0),
)
def test_isr_and_scale_on_orthogonal_residual(truth, seed, magnitude, sign, log_ratio):
    tt = float(truth @ truth)
    assume(tt > 1e-3)
    c = sign * magnitude
    r = np.random.default_rng(seed).standard_normal(truth.shape[0])
    r -= (r @ truth) / tt * truth
    assume(np.linalg.norm(r) > 1e-3 * np.linalg.norm(truth))
    # Residual power is 10**(2 log_ratio) times the fitted power.
    r *= 10.0**log_ratio * abs(c) * math.sqrt(tt) / np.linalg.norm(r)
    estimated = c * truth + r
    assert math.isclose(icdx.best_fit_scale(estimated, truth), c, rel_tol=1e-9)
    assert abs(icdx.isr(estimated, truth) - 20.0 * log_ratio) < 1e-6
    assert icdx.isr(c * truth, truth) == -math.inf


@st.composite
def _unmix_cases(draw):
    k = draw(st.integers(2, 3))
    mixing = draw(arrays(np.float64, (k, k), elements=st.floats(-2.0, 2.0)))
    assume(np.linalg.svd(mixing, compute_uv=False)[-1] > 0.05)  # well-conditioned
    perm = draw(st.permutations(range(k)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=k, max_size=k))
    assignment = icdx.Assignment(
        labels=tuple(f"c{i}" for i in range(k)), perm=tuple(perm), signs=tuple(signs))
    return mixing, assignment, draw(st.integers(0, 2**32 - 1))


def _unmix_reference(signal, result, transform):
    """Three passes: whiten, rotate, then apply the assignment."""
    whitened = transform.apply(signal)
    return result.assignment.apply(signal.with_data(result.w @ whitened.data))


@settings(deadline=None)
@given(_unmix_cases())
def test_unmix_matches_whiten_rotate_assign(case):
    mixing, assignment, seed = case
    k = mixing.shape[0]
    rng = np.random.default_rng(seed)
    sources = rng.uniform(-1.0, 1.0, (k, 512)) + rng.standard_normal((k, 1))
    signal = icdx.MultichannelSignal(mixing @ sources, RATE)
    _, transform = icdx.whiten(signal)
    w, _ = np.linalg.qr(rng.standard_normal((k, k)))
    result = icdx.SeparationResult(
        w=w, iterations=(1,) * k, converged=(True,) * k, assignment=assignment)
    fused = icdx.unmix(signal, result, transform)
    expected = _unmix_reference(signal, result, transform)
    assert np.max(np.abs(fused.data - expected.data)) <= 1e-12
