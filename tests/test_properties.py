"""Property tests (hypothesis) for invariants shared across layers.

Each property compares an implementation against an independent
reference: numpy.unwrap, a per-row permutation loop, a brute-force set
of lost decimated indices, a decomposition built to have a known
least-squares answer, the step-by-step form of a fused product, the
full-rate convolution, np.median, the complex-FFT envelope (for record lengths
with every power-of-two factor up to 2^12, and for bands folded once
onto each phase), an explicitly windowed
periodic-Hann spectrum, np.fft.rfft on a few bins, rfftfreq's band
mask, np.savetxt or np.loadtxt, or a one-shot product or Gram matrix of
the whole record. The
linear-algebra properties check the defining equations instead: a
matrix rebuilt from its eigenpairs, the polar factor's orthonormality
and symmetric positive semidefinite remainder, whiten() undone by the
dewhitener and the mean. The file-format properties check round trips,
bit for bit: write_kv then read_kv, format_matrix then parse_matrix,
metric tokens, and raw and CSV signal files. RunConfig.validate() is checked against
the stages that take its settings: it accepts what they accept.
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import icdx
from icdx.cli import RunConfig, _mask_lost
from icdx.demod import _BLOCK, _median, _overlap_save, _unwrap_in_place, _wrap_pi
from icdx.diplexer import _filter_into
from icdx.fastica import _orthonormalize
from icdx.fileio import _CSV_CHUNK_ROWS, _read_csv, _write_csv, format_matrix, parse_matrix
from icdx.metrics import _DFT_PIECE, _fit, _rfft_bins
from icdx.preprocess import _CHUNK, centered_product

from helpers import (CARRIER_1, CARRIER_2, RATE, hann_band_power_db, same_residual,
                     scenario_pair)

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(arrays(np.float64, st.integers(1, 200), elements=st.floats(-50.0, 50.0)))
def test_unwrap_matches_numpy_away_from_pi_jumps(wrapped):
    # At a jump of exactly +-pi the two conventions pick different branches.
    gaps = np.mod(np.diff(wrapped), 2.0 * np.pi)
    assume(np.all(np.abs(gaps - np.pi) > 1e-6))
    ours = _unwrap_in_place(wrapped.copy())
    assert ours[0] == wrapped[0]
    assert np.allclose(ours, np.unwrap(wrapped), rtol=0.0, atol=1e-9)
    steps = np.diff(ours)
    assert np.all((steps > -np.pi) & (steps <= np.pi))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 3 * _BLOCK + 2), st.floats(1e-3, 1e6), st.integers(0, 2**32 - 1))
@example(0, 1.0, 0)
@example(1, 1.0, 0)
@example(_BLOCK + 1, 8.0, 1)
@example(2 * _BLOCK + 2, 8.0, 2)
def test_unwrap_by_blocks_is_one_cumsum_bit_for_bit(n, scale, seed):
    # _unwrap_in_place() sums _BLOCK steps at a time, each block carrying the
    # running sum on: the same additions as one cumsum over the whole series.
    # The examples: empty, one sample, one whole block after the first sample,
    # and a last block of one sample.
    w = np.random.default_rng(seed).uniform(-scale, scale, n)
    reference = (np.concatenate(([w[0]], w[0] + np.cumsum(_wrap_pi(np.diff(w)))))
                 if n else w)
    assert _unwrap_in_place(w.copy()).tobytes() == reference.tobytes()


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
    assert math.isclose(_fit(estimated, truth)[0], c, rel_tol=1e-9)
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
    whitened = transform.whitener @ (signal.data - transform.mean[:, None])
    return signal.with_data(result.assignment.apply_rows(result.w @ whitened))


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
def test_overlap_save_matches_direct_convolution(data):
    # Up to three blocks and a partial one, so block seams and the last
    # partial block are crossed; modulated taps bounded by 1.
    n = data.draw(st.integers(1, 3 * _BLOCK + 600))
    x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(-1e3, 1e3, n)
    omega = data.draw(st.floats(0.0, np.pi))

    def modulated_taps():
        h = data.draw(arrays(np.float64, st.integers(1, 64), elements=st.floats(-1.0, 1.0)))
        return h * np.exp(1j * omega * np.arange(h.size))

    wide, narrow = modulated_taps(), modulated_taps()
    step = data.draw(st.integers(1, n + 8))

    def direct(taps):
        delay = (taps.size - 1) // 2
        return np.convolve(x, taps)[delay: delay + n]

    envelope, kept = _overlap_save(x, wide, narrow, step)
    tol = 1e-12 * np.sum(np.abs(x))
    assert envelope.shape == (n,)
    assert np.max(np.abs(envelope - np.abs(direct(wide)))) <= tol
    reference = direct(narrow)[::step]
    assert kept.shape == reference.shape
    assert np.max(np.abs(kept - reference)) <= tol


@given(st.data())
def test_one_selection_median_is_np_median_bit_for_bit(data):
    # Odd and even lengths from 1; values drawn from a pool of one to four
    # (constant arrays and repeated values) or free. Adding 0.0 turns -0.0
    # into 0.0: the envelope is a magnitude, and the two zeros tie.
    size = data.draw(st.integers(1, 64), label="size")
    value = st.floats(-1e300, 1e300)
    if data.draw(st.booleans(), label="pooled"):
        value = st.sampled_from(data.draw(st.lists(value, min_size=1, max_size=4)))
    values = np.array(data.draw(st.lists(value, min_size=size, max_size=size))) + 0.0
    assert _median(values).hex() == float(np.median(values)).hex()


def _envelope_depth_reference(data, carrier, rate):
    """The complex-FFT form: full spectrum, negative frequencies zeroed."""
    n = data.shape[0]
    spectrum = np.fft.fft(data)
    freqs = np.fft.fftfreq(n, d=1.0 / rate)
    band = (freqs > 0) & (np.abs(freqs - carrier) <= 0.6 * carrier)
    if not np.any(band):
        raise ValueError("no FFT bins fall inside the carrier band")
    analytic = np.zeros_like(spectrum)
    analytic[band] = 2.0 * spectrum[band]
    envelope = np.abs(np.fft.ifft(analytic))
    trim = int(0.02 * n)
    if trim > 0:
        envelope = envelope[trim: n - trim]
    hi, lo = float(np.max(envelope)), float(np.min(envelope))
    return min(max((hi - lo) / (hi + lo), 0.0), 1.0)


# Carriers down to 0.001 of the rate give bands of a few bins, so P reaches 512.
@settings(deadline=None)
@given(
    st.integers(16, 4096),
    st.floats(0.001, 0.49),
    st.floats(-3.0, 0.0),
    st.integers(0, 2**32 - 1),
)
def test_envelope_depth_matches_complex_fft(n, carrier_frac, log_noise, seed):
    _check_envelope_depth(n, carrier_frac, log_noise, seed)


@settings(deadline=None)
@given(
    st.integers(0, 12),
    st.integers(0, 15),
    st.floats(0.001, 0.49),
    st.floats(-3.0, 0.0),
    st.integers(0, 2**32 - 1),
)
# The band's m bins fill a phase's M = n / P bins exactly: P = 4 and P = 512.
@example(5, 12, 0.2079, -1.0, 0)
@example(9, 1, 0.0013, -1.0, 0)
def test_envelope_depth_phases_match_complex_fft(k, odd, carrier_frac, log_noise, seed):
    # n = odd * 2^k: P, the power of two with n / P >= m phases, runs from 1
    # (odd n) to 2^12 phases of a few bins each.
    n = (2 * odd + 1) << k
    assume(n >= 16)
    _check_envelope_depth(n, carrier_frac, log_noise, seed)


@settings(deadline=None)
@given(
    st.integers(2, 10),
    st.integers(0, 15),
    st.floats(0.0, 1.0),
    st.floats(-3.0, 0.0),
    st.integers(0, 2**32 - 1),
)
def test_envelope_depth_folded_phases_match_complex_fft(q, odd, u, log_noise, seed):
    # n = odd * 2^q with the carrier placed so that the band's m bins exceed a
    # phase's L = n / 2^q: 2^q phases on two lanes, each phase's bins folded once.
    n = (2 * odd + 1) << q
    carrier_frac = (1.0 + u) / (1.2 * 2**q)
    assume(n >= 16)
    band = icdx.carrier_band(n, RATE, carrier_frac * RATE)
    assume(n >> q < band.stop - band.start)
    _check_envelope_depth(n, carrier_frac, log_noise, seed)


def _check_envelope_depth(n, carrier_frac, log_noise, seed):
    """envelope_depth of a noisy carrier against _envelope_depth_reference, to 1e-12."""
    carrier = carrier_frac * RATE
    t = np.arange(n) / RATE
    rng = np.random.default_rng(seed)
    x = np.cos(2.0 * np.pi * carrier * t + rng.uniform(0.0, 2.0 * np.pi))
    x += 10.0**log_noise * rng.standard_normal(n)
    try:
        expected = _envelope_depth_reference(x, carrier, RATE)
    except ValueError:
        with pytest.raises(ValueError):
            icdx.envelope_depth(x, carrier, RATE)
        return
    got = icdx.envelope_depth(x, carrier, RATE)
    assert abs(got - expected) <= 1e-12


@settings(deadline=None)
@given(
    st.integers(3, 5000),
    st.floats(1.0, 1e9),
    st.floats(0.001, 0.999),
    st.booleans(),
    st.sampled_from((0.25, 0.5, 0.6)) | st.floats(0.01, 0.99),
)
def test_carrier_band_matches_rfftfreq_mask(n, rate, carrier_frac, on_bin, band_frac):
    # Carriers on a bin put the edges of 0.25/0.5 bands exactly on bins too.
    bins = carrier_frac * 0.5 * n
    carrier = (round(bins) if on_bin and bins >= 0.5 else bins) * rate / n
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)[: (n + 1) // 2]
    band = np.flatnonzero((freqs > 0) & (np.abs(freqs - carrier) <= band_frac * carrier))
    if band.size == 0:
        with pytest.raises(ValueError, match="no FFT bins"):
            icdx.carrier_band(n, rate, carrier, band_frac)
        return
    assert icdx.carrier_band(n, rate, carrier, band_frac) == slice(band[0], band[-1] + 1)
    assert band.size == band[-1] + 1 - band[0]


@settings(deadline=None)
@given(st.permutations((0, 1)), st.tuples(*[st.sampled_from((-1, 1))] * 2),
       st.integers(0, 2**32 - 1))
def test_depths_from_the_input_spectrum_match_the_channels(perm, signs, seed):
    # Corrected channels are a signed permutation of w_full times the
    # centered record, so above DC their bins are that matrix times the
    # input's; the offset checks that DC never enters.
    rng = np.random.default_rng(seed)
    mixed = scenario_pair(n=4096)[3].data + rng.uniform(-1.0, 1.0, (2, 1))
    unmixing = icdx.Assignment(("ch1", "ch2"), perm, signs).apply_rows(
        rng.uniform(-2.0, 2.0, (2, 2)))
    corrected = unmixing @ (mixed - mixed.mean(axis=1, keepdims=True))
    spectrum = np.fft.rfft(mixed, axis=1)
    for i, carrier in enumerate((CARRIER_1, CARRIER_2)):
        band = icdx.carrier_band(mixed.shape[1], RATE, carrier)
        raw = icdx.envelope_depth(mixed[i], carrier, RATE, band_spectrum=spectrum[i, band])
        assert raw == icdx.envelope_depth(mixed[i], carrier, RATE)
        shared = icdx.envelope_depth(corrected[i], carrier, RATE,
                                     band_spectrum=unmixing[i] @ spectrum[:, band])
        assert abs(shared - icdx.envelope_depth(corrected[i], carrier, RATE)) <= 1e-12


_PIECE_LENGTHS = st.one_of(
    st.integers(2, 3 * _DFT_PIECE + 1),
    st.builds(lambda pieces, off: pieces * _DFT_PIECE + off, st.integers(1, 3), st.integers(-1, 1)))


@settings(deadline=None, max_examples=60)
@given(_PIECE_LENGTHS, st.lists(st.floats(0.0, 1.0), max_size=6), st.floats(-3.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_direct_bins_match_rfft(n, inner, offset, seed):
    # Below, at and between multiples of the piece; DC, the last bin and
    # bins between. Each row's bins depend only on the row and the bin set.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, n)) + offset
    bins = np.array([0, n // 2, *(round(f * (n // 2)) for f in inner)])
    got = _rfft_bins(x, bins)
    want = np.fft.rfft(x, axis=1)[:, bins]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(x).sum(axis=1, keepdims=True))
    assert np.array_equal(_rfft_bins(x[1:], bins[::-1])[0], got[1][::-1])


_TONE_PLACES = st.tuples(
    st.sampled_from(("dc", "nyquist", "inner")), st.floats(0.2, 4.5), st.floats(0.0, 1.0))


def _tone_hz(place, n):
    """A tone within 4.5 bins of DC or Nyquist, or anywhere between."""
    region, offset, frac = place
    bins = {"dc": offset, "nyquist": 0.5 * n - offset}.get(region, 5.0 + frac * (0.5 * n - 10.0))
    return bins * RATE / n


@settings(deadline=None)
@given(st.integers(32, 4096), _TONE_PLACES, _TONE_PLACES, st.floats(-3.0, 0.0),
       st.floats(-8.0, -2.0), st.integers(0, 2**32 - 1))
def test_cross_tone_matches_periodic_hann_reference(n, own_place, other_place, log_leak,
                                                    log_noise, seed):
    own, other = _tone_hz(own_place, n), _tone_hz(other_place, n)
    assume(own != other)
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    x = (np.cos(2.0 * np.pi * own * t + rng.uniform(0.0, 2.0 * np.pi))
         + 10.0**log_leak * np.cos(2.0 * np.pi * other * t + rng.uniform(0.0, 2.0 * np.pi))
         + 10.0**log_noise * rng.standard_normal(n))
    expected = hann_band_power_db(x, own, other, RATE)
    assert abs(icdx.cross_tone_residual_db(x, own, other, RATE) - expected) <= 1e-9


@settings(deadline=None)
@given(st.integers(32, 4096), _TONE_PLACES, _TONE_PLACES, st.floats(-14.0, 0.0),
       st.integers(0, 2**32 - 1))
def test_cross_tone_from_mapped_branch_bands_matches_the_channels(n, place_a, place_b,
                                                                  log_leak, seed):
    # As in the diplexer: channels that are a 2 x 2 map, scaled by a peak per
    # row, of centered branches have the map of the branches' bins above DC.
    # The branch offsets make the mapped bin 0 wrong, so it must not be read.
    tones = (_tone_hz(place_a, n), _tone_hz(place_b, n))
    assume(tones[0] != tones[1])
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    sources = np.cos(2.0 * np.pi * np.outer(tones, t) + rng.uniform(0.0, 2.0 * np.pi, (2, 1)))
    leak_ab, leak_ba = rng.uniform(-0.5, 0.5, 2)
    mixing = np.array([[1.0, leak_ab], [leak_ba, 1.0]])
    branches = mixing @ sources + rng.uniform(-1.0, 1.0, (2, 1))
    mapping = ((np.linalg.inv(mixing) + 10.0**log_leak * rng.uniform(-1.0, 1.0, (2, 2)))
               / 10.0 ** rng.uniform(-3.0, 3.0, (2, 1)))
    channels = mapping @ (branches - branches.mean(axis=1, keepdims=True))
    spectrum = np.fft.rfft(branches, axis=1)
    bins = [icdx.metrics._tone_bins(n, RATE, freq) for freq in tones]
    bands = [mapping @ spectrum[:, index] for _, index in bins]
    for i in range(2):
        own, other = tones[i], tones[1 - i]
        shared = icdx.metrics._residual_db(channels[i], [bins[i], bins[1 - i]],
                                           (bands[i][i], bands[1 - i][i]))
        assert same_residual(shared, icdx.cross_tone_residual_db(channels[i], own, other, RATE))
        assert same_residual(shared, hann_band_power_db(channels[i], own, other, RATE))


def _write_csv_reference(path, signal):
    """The np.savetxt form of the CSV writer."""
    table = np.column_stack([np.arange(signal.length) / signal.sample_rate, signal.data.T])
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


@pytest.mark.parametrize("rows", [_CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1])
def test_csv_writer_matches_savetxt_across_chunks(tmp_path, rows):
    data = np.random.default_rng(rows).standard_normal((2, rows)) * 1e3
    signal = icdx.MultichannelSignal(data, 1.0e6)
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    _write_csv(ours, signal)
    _write_csv_reference(reference, signal)
    assert ours.read_bytes() == reference.read_bytes()


def _csv_reference(path):
    """(channel-major samples, rate) of a CSV signal through one np.loadtxt."""
    with open(path) as fh:
        rate = float(fh.readline().partition("=")[2])
    table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return table[:, 1:].T, rate


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([1, 2, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
                        2 * _CSV_CHUNK_ROWS + 3]),
       st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_csv_reader_matches_loadtxt_across_chunks(rows, channels, seed, trailing_newline):
    # One row, part of a chunk, a chunk, one row past it; the last line
    # with or without its newline. Every parsed bit matches.
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((channels, rows)) * 10.0 ** rng.integers(-300, 300)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sig.csv"
        _write_csv(path, icdx.MultichannelSignal(data, 2.5e6))
        if not trailing_newline:
            path.write_bytes(path.read_bytes()[:-1])
        ours, rate = _read_csv(path)
        reference, reference_rate = _csv_reference(path)
    assert rate == reference_rate == 2.5e6
    assert ours.shape == (channels, rows) and ours.flags.c_contiguous
    assert np.array_equal(ours, reference)


def test_csv_reader_rejects_a_column_change_in_a_later_chunk(tmp_path):
    path = tmp_path / "ragged.csv"
    body = "".join(f"{k},1,2\n" for k in range(_CSV_CHUNK_ROWS)) + "9,1\n"
    path.write_text("t,ch0,ch1\n" + body)
    with pytest.raises(icdx.FormatError, match="malformed numeric row"):
        icdx.read_signal(path)


_CHUNK_EDGES = [16, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


def _relative(ours: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(ours - reference)) / np.max(np.abs(reference)))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(_CHUNK_EDGES), st.integers(0, 2**32 - 1))
def test_chunked_passes_match_one_shot_products(n, seed):
    # Below, at and past the chunk: the product, whiten's Gram matrix and
    # every output built from them agree with the one-shot formulas.
    rng = np.random.default_rng(seed)
    mixing = rng.uniform(0.5, 1.5, (2, 2)) * np.array([[1.0, 0.6], [0.4, 1.0]])
    x = mixing @ rng.standard_normal((2, n)) + rng.uniform(-5.0, 5.0, (2, 1))
    matrix = rng.standard_normal((2, 2))
    mu = x.mean(axis=1)
    centered = x - mu[:, None]
    assert _relative(centered_product(matrix, x, mu), matrix @ centered) <= 1e-13

    gram = centered @ centered.T / n
    signal = icdx.MultichannelSignal(x, RATE)
    whitened, transform = icdx.whiten(signal)
    assert _relative(transform.dewhitener @ transform.dewhitener.T, gram) <= 1e-13
    assert _relative(whitened.data, transform.whitener @ centered) <= 1e-13
    angle = rng.uniform(0.0, 2.0 * np.pi)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    result = icdx.SeparationResult(
        w=rotation, iterations=(1, 1), converged=(True, True),
        assignment=icdx.Assignment(("a", "b"), (1, 0), (-1, 1)))
    unmixed = icdx.unmix(signal, result, transform)
    reference = result.assignment.apply_rows(rotation @ transform.whitener @ centered)
    assert _relative(unmixed.data, reference) <= 1e-13

    # The outputs are locked, and the caller's array is not behind them.
    outputs = (whitened.data, unmixed.data)
    kept = [out.copy() for out in outputs]
    assert not any(out.flags.writeable for out in outputs)
    x[:] = 0.0
    assert all(np.array_equal(out, copy) for out, copy in zip(outputs, kept))


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


@settings(deadline=None, max_examples=40)
@given(st.data(), st.sampled_from(_CHUNK_EDGES), st.integers(0, 2**32 - 1))
def test_whiten_skip_is_whitening_the_tail(data, n, seed):
    # skip reads the tail as a view: the same bits as whitening a copy of it.
    k = data.draw(st.sampled_from([0, 1, n - 8, *(e for e in _CHUNK_EDGES if e < n - 8)]))
    rng = np.random.default_rng(seed)
    x = np.array([[1.0, 0.6], [0.4, 1.0]]) @ rng.standard_normal((2, n)) + 3.0
    signal = icdx.MultichannelSignal(x, RATE)
    ours, transform = icdx.whiten(signal, skip=k)
    tail, reference = icdx.whiten(signal.with_data(x[:, k:]))
    assert ours.length == n - k and ours.sample_rate == tail.sample_rate
    for got, want in ((ours.data, tail.data), (transform.mean, reference.mean),
                      (transform.eigvecs, reference.eigvecs),
                      (transform.eigvals, reference.eigvals)):
        assert got.tobytes() == want.tobytes()


_FIR_TONES = (25.0e6, 40.0e6)
_FIR_RATE = 200.0e6


@settings(deadline=None, max_examples=40)
@given(st.data(), st.integers(2, 64), st.integers(0, 2**32 - 1))
def test_fir_split_rows_are_filter_signal_bit_for_bit(data, order, seed):
    # From one filter length up to several blocks, across each block edge:
    # every branch is the full-rate convolution with its design's taps,
    # truncated to the record.
    n = data.draw(st.one_of(
        st.sampled_from([order + 1, order + 2, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                         _CHUNK + order, 3 * _CHUNK + 5]),
        st.integers(order + 1, 4 * _CHUNK)))
    composite = np.random.default_rng(seed).standard_normal(n)
    split = icdx.fir_split(composite, *_FIR_TONES, order, _FIR_RATE)
    for row, tone in zip(split.data, _FIR_TONES):
        edges = (tone * (1.0 - 0.2), tone * (1.0 + 0.2))  # fir_split's default band_frac
        fir = icdx.design_fir_bandpass(order, *edges, _FIR_RATE)
        assert row.tobytes() == np.convolve(composite, fir.taps)[:n].tobytes()


@pytest.mark.parametrize("extra", [0, 1, _CHUNK + 1])
def test_filter_longer_than_a_block_is_the_full_convolution(extra):
    # A first block shorter than the filter would swap np.convolve's operands.
    fir = icdx.design_fir_lowpass(_CHUNK + 2, 1.0e6, _FIR_RATE)
    x = np.random.default_rng(extra).standard_normal(fir.taps.size + extra)
    filtered = _filter_into(np.empty(x.size), x, fir.taps)
    assert filtered.tobytes() == np.convolve(x, fir.taps)[:x.size].tobytes()


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
    scale = np.max(np.abs(data))
    restored = transform.dewhitener @ whitened.data + transform.mean[:, None]
    assert np.max(np.abs(restored - data)) <= 1e-12 * scale


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
    # Each entry is its metric token: infinities as neg-inf / pos-inf.
    assert text.replace(";", ",").split(",") == [
        icdx.format_metric_value(v) for v in mat.ravel().tolist()]
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


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


_DEFAULTS = dict(carriers=(1.0e6, 1.1e6), cutoff=4.0e4, decimation=8, orders=(256, 128),
                 floor=0.2, min_run=4, tones=(25.0e6, 40.0e6), same_tones=False,
                 band_frac=0.2, diplex_order=5)


@settings(deadline=None)
@given(carriers=st.tuples(st.floats(1e3, 4.1e6), st.floats(1e3, 4.1e6)),
       cutoff=st.floats(0.0, 6e5), decimation=st.integers(0, 64),
       orders=st.tuples(st.integers(6, 600), st.integers(6, 600)),
       floor=st.floats(0.0, 1.0), min_run=st.integers(0, 8),
       tones=st.tuples(st.floats(0.0, 9e7), st.floats(0.0, 9e7)),
       same_tones=st.sampled_from((False,) * 9 + (True,)), band_frac=st.floats(0.0, 1.0),
       diplex_order=st.integers(1, 64))
# Subnormal band edges: the windowed-sinc angle 2 pi f / rate underflows.
@example(**{**_DEFAULTS, "cutoff": 1e-320})
@example(**{**_DEFAULTS, "tones": (25.0e6, 1e-322)})
# Band edges a rounding apart: every bandpass tap is zero.
@example(**{**_DEFAULTS, "band_frac": 6e-17})
def test_validate_accepts_exactly_what_the_stages_accept(
        carriers, cutoff, decimation, orders, floor, min_run, tones, same_tones, band_frac,
        diplex_order):
    tone_a, tone_b = tones[0], tones[0] if same_tones else tones[1]
    cfg = dataclasses.replace(
        RunConfig(), f_het1=carriers[0], f_het2=carriers[1], lowpass_cutoff=cutoff,
        decimation=decimation, filter_order=orders[0], envelope_order=orders[1],
        envelope_floor=floor, envelope_min_run=min_run, tone_a=tone_a, tone_b=tone_b,
        diplex_order=diplex_order, diplex_band_frac=band_frac)
    t = np.arange(8192) / cfg.sample_rate
    demod_ok = [_accepts(lambda carrier=carrier: icdx.demodulate(
        np.sin(2.0 * np.pi * carrier * t), carrier, cutoff, decimation, cfg.sample_rate,
        filter_order=orders[0], envelope_order=orders[1], envelope_floor=floor,
        envelope_min_run=min_run, strict=False)) for carrier in carriers]
    t = np.arange(4096) / cfg.diplex_rate
    composite = np.sin(2.0 * np.pi * tone_a * t) + np.sin(2.0 * np.pi * tone_b * t)
    split_ok = _accepts(lambda: icdx.fir_split(
        composite, tone_a, tone_b, diplex_order, cfg.diplex_rate, band_frac))
    assert _accepts(cfg.validate) == (all(demod_ok) and split_ok)


@settings(deadline=None)
@given(st.floats(3.0, 9.0), st.floats(0.01, 0.45), st.integers(2, 40), st.floats(-17.0, -14.0))
# Edges one angle apart in float, yet all four taps of order 3 cancel to zero.
@example(math.log10(188784.74662868324), 54913.95399998682 / 188784.74662868324, 3,
         math.log10(7.183603316834317e-17))
def test_split_check_refuses_exactly_the_zero_gain_designs(log_rate, tone_frac, order,
                                                           log_band_frac):
    # Near the band_frac where the edges meet, _check_split must refuse
    # just the designs that design_fir_bandpass cannot scale to unity gain.
    rate, band_frac = 10.0**log_rate, 10.0**log_band_frac
    tones = (tone_frac * rate, 0.5 * tone_frac * rate)
    designs = [_accepts(lambda tone=tone: icdx.design_fir_bandpass(
        order, tone * (1.0 - band_frac), tone * (1.0 + band_frac), rate)) for tone in tones]
    check = _accepts(lambda: icdx.diplexer._check_split(*tones, order, rate, band_frac))
    assert check == all(designs)
