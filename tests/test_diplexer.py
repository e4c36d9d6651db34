"""FIR designs, the band splitter, and the ICA-cleaned diplexer."""

import math

import numpy as np
import pytest

import icdx

from helpers import same_residual

_RATE = 200.0e6
_TONE_A = 25.0e6
_TONE_B = 40.0e6


def _composite(n: int = 2**16) -> np.ndarray:
    t = np.arange(n) / _RATE
    return np.sin(2.0 * np.pi * _TONE_A * t) + 0.8 * np.sin(
        2.0 * np.pi * _TONE_B * t + 0.7)


def _response(fir: icdx.FirFilter, freqs) -> np.ndarray:
    """The DTFT of the taps, H(f) = sum_n taps[n] exp(-2 pi j f n / rate), at freqs in Hz."""
    n = np.arange(fir.taps.size)
    return np.exp(-2j * np.pi * np.outer(freqs, n) / fir.design_rate) @ fir.taps


def test_fir_filter_contracts():
    fir = icdx.FirFilter(
        taps=np.full(3, 1.0 / 3.0), band=(0.0, 1.0e6), design_rate=_RATE)
    assert abs(_response(fir, [0.0])[0] - 1.0) < 1e-15
    # Linear phase: the constant group delay (taps.size - 1) / 2 = 1 sample
    # leaves H(f) exp(2 pi j f / rate) real at every frequency.
    freqs = np.linspace(0.0, 0.5 * _RATE, 9)
    delayed = _response(fir, freqs) * np.exp(2j * np.pi * freqs / _RATE)
    assert np.max(np.abs(delayed.imag)) < 1e-15
    with pytest.raises(ValueError, match="symmetric"):
        icdx.FirFilter(
            taps=np.array([1.0, 0.5, 0.2]), band=(0.0, 1.0e6), design_rate=_RATE)
    with pytest.raises(ValueError, match="band"):
        icdx.FirFilter(taps=np.full(3, 0.5), band=(2.0e6, 1.0e6), design_rate=_RATE)


def test_bandpass_unity_gain_at_center():
    for order in (5, 32, 129):
        fir = icdx.design_fir_bandpass(order, 20.0e6, 30.0e6, _RATE)
        assert fir.taps.size == order + 1
        assert fir.band == (20.0e6, 30.0e6)
        center_gain = np.abs(_response(fir, [25.0e6]))[0]
        assert abs(center_gain - 1.0) < 1e-12


def test_bandpass_rejects_far_stopband():
    fir = icdx.design_fir_bandpass(128, 20.0e6, 30.0e6, _RATE)
    stop = np.abs(_response(fir, [2.0e6, 60.0e6, 90.0e6]))
    assert np.all(stop < 0.01)  # Hamming sidelobes are below -40 dB


def test_bandpass_validation():
    with pytest.raises(ValueError, match="order"):
        icdx.design_fir_bandpass(1, 20.0e6, 30.0e6, _RATE)
    with pytest.raises(ValueError, match="band edges"):
        icdx.design_fir_bandpass(8, 30.0e6, 20.0e6, _RATE)
    with pytest.raises(ValueError, match="band edges"):
        icdx.design_fir_bandpass(8, 0.0, 30.0e6, _RATE)


def _reference_sinc(order, w_lo, w_hi, ideal):
    # The two separate tap formulas the shared windowed-sinc body replaced.
    if order % 2 == 0:
        ideal[order // 2] = (w_hi - w_lo) / np.pi
    n = np.arange(order + 1)
    return ideal * (0.54 - 0.46 * np.cos(2.0 * np.pi * n / order))


@pytest.mark.parametrize("order", [2, 5, 32, 129, 256])
def test_designs_match_their_reference_formulas_bitwise(order):
    m = np.arange(order + 1) - 0.5 * order
    w_lo, w_hi = 2.0 * np.pi * 20.0e6 / _RATE, 2.0 * np.pi * 30.0e6 / _RATE
    with np.errstate(invalid="ignore"):
        band = _reference_sinc(
            order, w_lo, w_hi, (np.sin(w_hi * m) - np.sin(w_lo * m)) / (np.pi * m))
        low = _reference_sinc(order, 0.0, w_lo, np.sin(w_lo * m) / (np.pi * m))
    n = np.arange(order + 1)
    gain = abs(np.sum(band * np.exp(-2j * np.pi * 25.0e6 * n / _RATE)))
    assert np.array_equal(
        icdx.design_fir_bandpass(order, 20.0e6, 30.0e6, _RATE).taps, band / gain)
    assert np.array_equal(
        icdx.design_fir_lowpass(order, 20.0e6, _RATE).taps, low / low.sum())


def test_lowpass_unity_dc_gain():
    fir = icdx.design_fir_lowpass(64, 5.0e6, _RATE)
    assert abs(fir.taps.sum() - 1.0) < 1e-14
    assert fir.band == (0.0, 5.0e6)
    assert np.abs(_response(fir, [40.0e6]))[0] < 0.01


def test_filter_signal_impulse_reproduces_taps():
    fir = icdx.design_fir_lowpass(32, 5.0e6, _RATE)
    impulse = np.zeros(128)
    impulse[0] = 1.0
    out = icdx.filter_signal(impulse, fir, _RATE)
    assert np.array_equal(out[:33], fir.taps)
    assert np.all(out[33:] == 0.0)


def test_filter_signal_group_delay_observable():
    fir = icdx.design_fir_lowpass(32, 5.0e6, _RATE)
    impulse = np.zeros(128)
    impulse[40] = 1.0
    out = icdx.filter_signal(impulse, fir, _RATE)
    assert int(np.argmax(out)) == 40 + (fir.taps.size - 1) // 2


def test_filter_signal_passband_amplitude_calibrated():
    # |H| is pinned to 1 at the band center, so a center tone must come
    # through at its input amplitude once the transient has passed.
    # Compare RMS over whole periods: the fractional-sample group delay
    # of an odd-order filter shifts where the grid samples the peaks,
    # but leaves the RMS of a unit sine at 1/sqrt(2).
    n = 2**14
    t = np.arange(n) / _RATE
    tone = np.sin(2.0 * np.pi * 25.0e6 * t)  # period: exactly 8 samples
    fir = icdx.design_fir_bandpass(5, 20.0e6, 30.0e6, _RATE)
    out = icdx.filter_signal(tone, fir, _RATE)
    steady = out[fir.taps.size: fir.taps.size + 8 * 1000]
    assert abs(np.sqrt(np.mean(steady**2)) - 1.0 / np.sqrt(2.0)) < 1e-3


def test_filter_signal_validation():
    fir = icdx.design_fir_lowpass(32, 5.0e6, _RATE)
    with pytest.raises(ValueError, match="rate"):
        icdx.filter_signal(np.zeros(128), fir, 1.0e6)
    with pytest.raises(ValueError, match="shorter"):
        icdx.filter_signal(np.zeros(16), fir, _RATE)
    with pytest.raises(TypeError, match="sample_rate"):
        icdx.filter_signal(np.zeros(128), fir)
    # One NaN would otherwise come back as a run of NaN output samples.
    with pytest.raises(ValueError, match="channel must be finite, sample 9 is not"):
        icdx.filter_signal(np.where(np.arange(64) == 9, np.nan, 0.0), fir, _RATE)


def test_fir_split_leakage_matches_filter_response():
    # The residual other-tone level in each branch is set by the branch
    # filter's response at the other tone (its own tone sits at the
    # unity-gain center). The measured band-power ratio must agree with
    # that prediction; low order means the leakage is large.
    composite = _composite()
    order = 5
    branch = icdx.fir_split(composite, _TONE_A, _TONE_B, order, _RATE)
    assert branch.channels == 2
    assert branch.sample_rate == _RATE

    fir_a = icdx.design_fir_bandpass(
        order, 0.8 * _TONE_A, 1.2 * _TONE_A, _RATE)
    # Input tone b has amplitude 0.8 while tone a has 1.0.
    predicted_db = 20.0 * math.log10(
        0.8 * np.abs(_response(fir_a, [_TONE_B]))[0])
    measured_db = icdx.cross_tone_residual_db(
        branch.data[0], _TONE_A, _TONE_B, _RATE)
    assert measured_db > -20.0  # low-order FIR alone is a poor splitter
    assert abs(measured_db - predicted_db) < 0.5


def test_diplex_cleans_both_branches():
    composite = _composite()
    cfg = icdx.FastIcaConfig(seed=0)
    fir_only, cleaned, residual_db = icdx.diplex(composite, _TONE_A, _TONE_B, 5, cfg, _RATE)
    assert np.array_equal(
        fir_only.data, icdx.fir_split(composite, _TONE_A, _TONE_B, 5, _RATE).data)
    assert cleaned.channels == 2
    # Output order is (tone_a, tone_b); each branch holds its own tone.
    for row, own, other in ((0, _TONE_A, _TONE_B), (1, _TONE_B, _TONE_A)):
        residual = icdx.cross_tone_residual_db(
            cleaned.data[row], own, other, _RATE)
        assert residual <= -40.0
        # The returned residuals come from the branch spectra, not the channels.
        assert residual_db["fir"][row] == icdx.cross_tone_residual_db(
            fir_only.data[row], own, other, _RATE)
        assert same_residual(residual_db["ica"][row], residual)
    # Contract: exactly zero-mean, unit-peak outputs.
    assert np.max(np.abs(cleaned.data.mean(axis=1))) <= 1e-6
    assert np.allclose(np.max(np.abs(cleaned.data), axis=1), 1.0, atol=1e-12)


def test_diplex_seed_sweep():
    composite = _composite()
    for seed in range(4):
        _, cleaned, _ = icdx.diplex(
            composite, _TONE_A, _TONE_B, 5, icdx.FastIcaConfig(seed=seed), _RATE)
        for row, own, other in ((0, _TONE_A, _TONE_B), (1, _TONE_B, _TONE_A)):
            assert icdx.cross_tone_residual_db(
                cleaned.data[row], own, other, _RATE) <= -40.0


def test_diplex_deterministic():
    composite = _composite(2**14)
    cfg = icdx.FastIcaConfig(seed=5)
    _, first, _ = icdx.diplex(composite, _TONE_A, _TONE_B, 5, cfg, _RATE)
    _, second, _ = icdx.diplex(composite, _TONE_A, _TONE_B, 5, cfg, _RATE)
    assert np.array_equal(first.data, second.data)


def test_diplex_nonconvergence_raises():
    cfg = icdx.FastIcaConfig(seed=0, max_iter=1, tol=1e-15)
    with pytest.raises(icdx.ConvergenceError, match="did not converge"):
        icdx.diplex(_composite(2**14), _TONE_A, _TONE_B, 5, cfg, _RATE)


def test_diplex_single_tone_is_rank_deficient():
    # A one-tone input has no second component; the failure must be the
    # rank check at whitening, not a later misidentification.
    n = 2**14
    t = np.arange(n) / _RATE
    lone = np.sin(2.0 * np.pi * _TONE_A * t)
    with pytest.raises(icdx.RankDeficientError):
        icdx.diplex(lone, _TONE_A, _TONE_B, 5, icdx.FastIcaConfig(seed=0),
                    sample_rate=_RATE)


def test_fir_split_validation():
    composite = _composite(2**12)
    with pytest.raises(ValueError, match="distinct"):
        icdx.fir_split(composite, _TONE_A, _TONE_A, 5, _RATE)
    with pytest.raises(ValueError, match="band_frac"):
        icdx.fir_split(composite, _TONE_A, _TONE_B, 5, _RATE, band_frac=1.5)
    with pytest.raises(ValueError, match="1-D series"):
        icdx.fir_split(np.zeros((2, 64)), _TONE_A, _TONE_B, 5, _RATE)
