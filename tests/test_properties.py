"""Property tests (hypothesis) for invariants shared across layers.

Each property compares an implementation against an independent
reference: numpy.unwrap, a per-row permutation loop, a brute-force set
of lost decimated indices, a decomposition built to have a known
least-squares answer, the step-by-step form of a fused product, the
full-rate convolution, the complex-FFT envelope, or np.savetxt. The
linear-algebra properties check the defining equations instead: a
matrix rebuilt from its eigenpairs, the polar factor's orthonormality
and symmetric positive semidefinite remainder, whiten() undone by
restore(). The file-format properties check round trips, bit for bit:
write_kv then read_kv, format_matrix then parse_matrix, metric tokens,
and raw and CSV signal files.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import icdx
from icdx.cli import _mask_lost
from icdx.demod import _lowpass
from icdx.fastica import _orthonormalize
from icdx.fileio import _write_csv, format_matrix, parse_matrix

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


@settings(deadline=None)
@given(st.data())
def test_decimating_lowpass_keeps_every_step_th_output(data):
    n = data.draw(st.integers(1, 400))
    x = data.draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    taps = data.draw(arrays(np.float64, st.integers(1, 64), elements=st.floats(-1.0, 1.0)))
    step = data.draw(st.integers(1, n + 8))
    delay = (taps.size - 1) // 2
    full = np.convolve(x, taps, mode="full")[delay:delay + n]
    tol = 1e-12 * np.sum(np.abs(x))
    assert np.max(np.abs(_lowpass(x, taps) - full)) <= tol
    decimated = _lowpass(x, taps, step)
    assert decimated.shape == full[::step].shape
    assert np.max(np.abs(decimated - _lowpass(x, taps)[::step])) <= tol


def _envelope_depth_reference(data, carrier, rate, band_frac, edge_trim):
    """The complex-FFT form: full spectrum, negative frequencies zeroed."""
    n = data.shape[0]
    spectrum = np.fft.fft(data)
    freqs = np.fft.fftfreq(n, d=1.0 / rate)
    band = (freqs > 0) & (np.abs(freqs - carrier) <= band_frac * carrier)
    if not np.any(band):
        raise ValueError("no FFT bins fall inside the carrier band")
    analytic = np.zeros_like(spectrum)
    analytic[band] = 2.0 * spectrum[band]
    envelope = np.abs(np.fft.ifft(analytic))
    trim = int(edge_trim * n)
    if trim > 0:
        envelope = envelope[trim: n - trim]
    hi, lo = float(np.max(envelope)), float(np.min(envelope))
    return min(max((hi - lo) / (hi + lo), 0.0), 1.0)


@settings(deadline=None)
@given(
    st.integers(16, 4096),
    st.floats(0.01, 0.49),
    st.floats(0.05, 0.95),
    st.floats(0.0, 0.2),
    st.floats(-3.0, 0.0),
    st.integers(0, 2**32 - 1),
)
def test_envelope_depth_matches_complex_fft(n, carrier_frac, band_frac, edge_trim,
                                            log_noise, seed):
    carrier = carrier_frac * RATE
    t = np.arange(n) / RATE
    rng = np.random.default_rng(seed)
    x = np.cos(2.0 * np.pi * carrier * t + rng.uniform(0.0, 2.0 * np.pi))
    x += 10.0**log_noise * rng.standard_normal(n)
    try:
        expected = _envelope_depth_reference(x, carrier, RATE, band_frac, edge_trim)
    except ValueError:
        with pytest.raises(ValueError):
            icdx.envelope_depth(x, carrier, RATE, band_frac, edge_trim)
        return
    got = icdx.envelope_depth(x, carrier, RATE, band_frac, edge_trim)
    assert abs(got - expected) <= 1e-12


def _write_csv_reference(path, signal):
    """The np.savetxt form of the CSV writer."""
    table = np.column_stack([signal.times(), signal.data.T])
    with open(path, "w", newline="") as fh:
        fh.write(f"# sample_rate_hz = {signal.sample_rate!r}\n")
        fh.write("t," + ",".join(f"ch{i}" for i in range(signal.channels)) + "\n")
        np.savetxt(fh, table, delimiter=",", fmt="%.17g")


_CSV_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -9.99e299)),
)


@settings(deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 50)),
              elements=_CSV_VALUES),
       st.floats(1.0, 1e9))
def test_csv_writer_matches_savetxt(data, rate):
    signal = icdx.MultichannelSignal(data, rate)
    with tempfile.TemporaryDirectory() as tmp:
        ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        _write_csv(ours, signal)
        _write_csv_reference(reference, signal)
        assert ours.read_bytes() == reference.read_bytes()


@st.composite
def _symmetric(draw):
    dim = draw(st.integers(1, 6))
    # Values from a short list repeat often, so do eigenvalues.
    eigvals = np.array(draw(st.lists(
        st.sampled_from((-2.0, 0.0, 1.0, 3.0)) | st.floats(-10.0, 10.0),
        min_size=dim, max_size=dim)))
    basis, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                            .standard_normal((dim, dim)))
    sym = (basis * eigvals) @ basis.T
    return 0.5 * (sym + sym.T), eigvals


@settings(deadline=None)
@given(_symmetric())
def test_eigendecompose_rebuilds_sorted_signed_orthonormal(case):
    sym, built = case
    eigvecs, eigvals = icdx.eigendecompose(sym)
    dim = sym.shape[0]
    tol = 1e-12 * (1.0 + np.max(np.abs(built)))
    assert np.max(np.abs((eigvecs * eigvals) @ eigvecs.T - sym)) <= tol
    assert np.max(np.abs(eigvecs.T @ eigvecs - np.eye(dim))) <= 1e-12
    assert np.all(np.diff(eigvals) <= 0.0)
    assert np.max(np.abs(eigvals - np.sort(built)[::-1])) <= tol
    for col in eigvecs.T:  # the first entry within 1e-12 of the largest magnitude is positive
        near_max = np.flatnonzero(np.abs(col) >= np.max(np.abs(col)) * (1.0 - 1e-12))
        assert col[near_max[0]] > 0.0


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(-6, 6))
def test_orthonormalize_returns_the_polar_factor(dim, seed, log_scale):
    w = np.random.default_rng(seed).standard_normal((dim, dim)) * 10.0**log_scale
    singular = np.linalg.svd(w, compute_uv=False)
    assume(singular[-1] > 1e-6 * singular[0])
    q = _orthonormalize(w)
    assert np.max(np.abs(q @ q.T - np.eye(dim))) <= 1e-12
    # W = Q P with P symmetric positive semidefinite: Q is the polar factor.
    p = q.T @ w
    assert np.max(np.abs(p - p.T)) <= 1e-12 * singular[0]
    assert np.min(np.linalg.eigvalsh(0.5 * (p + p.T))) >= -1e-12 * singular[0]


@settings(deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.sampled_from(("nan", "inf", "zero row", "equal rows", "zero")))
def test_orthonormalize_rejects_nonfinite_and_singular(dim, seed, defect):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, dim))
    i, j = rng.choice(dim, 2, replace=False)
    if defect in ("nan", "inf"):
        w[i, j] = float(defect)
    elif defect == "zero row":
        w[i] = 0.0
    elif defect == "equal rows":
        w[i] = w[j]
    else:
        w[:] = 0.0
    with pytest.raises(icdx.ConvergenceError):
        _orthonormalize(w)


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(16, 400), st.integers(0, 2**32 - 1))
def test_whiten_then_restore_reproduces_the_input(channels, n, seed):
    rng = np.random.default_rng(seed)
    mixing = rng.standard_normal((channels, channels))
    assume(np.linalg.cond(mixing) < 1e3)
    data = mixing @ rng.standard_normal((channels, n)) + rng.uniform(-5.0, 5.0, (channels, 1))
    signal = icdx.MultichannelSignal(data, RATE)
    whitened, transform = icdx.whiten(signal)
    assert np.max(np.abs(np.cov(whitened.data, bias=True).reshape(channels, channels)
                         - np.eye(channels))) <= 1e-9
    assert (np.max(np.abs(transform.apply(signal).data - whitened.data))
            <= 1e-12 * np.max(np.abs(whitened.data)))
    scale = np.max(np.abs(data))
    assert np.max(np.abs(transform.restore(whitened).data - data)) <= 1e-12 * scale


# Every non-NaN float, infinities, -0.0 and subnormals included.
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from((-0.0, 5e-324, -math.inf, math.inf)),
)
# Text a ','-joined, stripped line gives back unchanged.
_WORDS = st.text("abcXYZ0189-_.:+=#", min_size=1, max_size=8)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=4),
       st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=4),
       st.lists(_WORDS, min_size=1, max_size=4),
       st.lists(_ANY_FLOAT, min_size=1, max_size=4),
       arrays(np.float64, st.integers(1, 6), elements=_ANY_FLOAT),
       arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
              elements=_ANY_FLOAT))
def test_write_kv_round_trips_sequences_and_arrays(flags, ints, words, floats, vector, matrix):
    mapping = {"flags": tuple(flags), "ints": tuple(ints), "words": tuple(words),
               "floats": tuple(floats), "float_list": floats, "vector": vector,
               "matrix": matrix}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.cfg"
        icdx.write_kv(path, mapping)
        values = icdx.read_kv(path).values
    assert list(values) == list(mapping)
    assert values["flags"].split(",") == [str(int(flag)) for flag in flags]
    assert [int(tok) for tok in values["ints"].split(",")] == ints
    assert values["words"].split(",") == words
    for key in ("floats", "float_list", "vector"):
        parsed = [icdx.parse_metric_value(tok) for tok in values[key].split(",")]
        assert _bits(parsed) == _bits(mapping[key])
    assert values["floats"] == values["float_list"]
    assert _bits(parse_matrix(values["matrix"])) == _bits(matrix)


@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
              elements=_ANY_FLOAT))
def test_matrix_text_round_trips(mat):
    text = format_matrix(mat)
    parsed = parse_matrix(text)
    assert parsed.shape == mat.shape
    assert _bits(parsed) == _bits(mat)
    assert format_matrix(parsed) == text
    assert format_matrix(mat[0]) == text.split(";")[0]  # a vector is one row


@given(_ANY_FLOAT)
def test_metric_tokens_round_trip(value):
    token = icdx.format_metric_value(value)
    assert _bits(icdx.parse_metric_value(token)) == _bits(value)
    assert ("inf" in token) == math.isinf(value)
    if math.isinf(value):
        assert token == ("pos-inf" if value > 0 else "neg-inf")


@settings(deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 50)),
              elements=_CSV_VALUES),
       st.floats(1e-300, 1e300),
       st.sampled_from(("bin", "csv")))
def test_signal_files_round_trip_bitwise(data, rate, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"signal.{suffix}"
        icdx.write_signal(path, icdx.MultichannelSignal(data, rate))
        back = icdx.read_signal(path)
    assert back.data.shape == data.shape
    assert back.data.tobytes() == data.tobytes()
    assert _bits(back.sample_rate) == _bits(rate)
