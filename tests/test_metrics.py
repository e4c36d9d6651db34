"""Separation and recovery quality measures, plus their serialization."""

import math

import numpy as np
import pytest

import icdx
from icdx.metrics import _fit

from helpers import CARRIER_1, CARRIER_2, RATE, STRONG_COUPLING, two_tone_clean


def test_best_fit_scale_least_squares():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal(512)
    # Hand construction: estimated = 2 truth + residual orthogonal to
    # truth, so the least-squares scale is exactly 2.
    noise = rng.standard_normal(512)
    noise -= (noise @ truth) / (truth @ truth) * truth
    estimated = 2.0 * truth + noise
    assert abs(_fit(estimated, truth)[0] - 2.0) < 1e-12
    # isr measures the residual after exactly that scale.
    expected_db = 10.0 * math.log10((noise @ noise) / (4.0 * (truth @ truth)))
    assert abs(icdx.isr(estimated, truth) - expected_db) < 1e-9


def test_isr_exact_recovery_is_neg_inf():
    t = np.sin(np.linspace(0.0, 20.0, 1024))
    assert icdx.isr(t, t) == -math.inf
    # Scale, including sign flips, does not count as interference.
    assert icdx.isr(-3.0 * t, t) == -math.inf


def test_isr_orthogonal_estimate_is_pos_inf():
    # Exactly orthogonal in float arithmetic (the dot product sums to
    # zero without rounding), so the fitted component is empty.
    estimated = np.array([1.0, 1.0, -1.0, -1.0] * 8)
    truth = np.array([1.0, -1.0, 1.0, -1.0] * 8)
    assert icdx.isr(estimated, truth) == math.inf


def test_isr_near_orthogonal_tones_is_huge():
    # Long sampled tones are orthogonal only to rounding error, so the
    # reading is a large finite value rather than the +inf sentinel.
    n = 81920
    tones = two_tone_clean(n)
    assert icdx.isr(tones.data[0], tones.data[1]) > 200.0


def test_isr_calibrated_leak_level():
    # estimated = truth + 0.1 * orthogonal unit-power series: residual
    # power is 0.01 of fit power, i.e. exactly -20 dB.
    n = 81920
    tones = two_tone_clean(n)
    truth, leak = tones.data[0], tones.data[1]
    value = icdx.isr(truth + 0.1 * leak, truth)
    assert abs(value - (-20.0)) < 0.1


def test_isr_validation():
    t = np.ones(16)
    with pytest.raises(ValueError, match="shape"):
        icdx.isr(np.ones(8), t)
    with pytest.raises(ValueError, match="zero"):
        icdx.isr(t, np.zeros(16))
    with pytest.raises(ValueError, match="^estimated must be finite, sample 0 is not"):
        icdx.isr(np.full(16, np.nan), t)
    with pytest.raises(ValueError, match="^truth must be a 1-D series"):
        icdx.isr(t, np.ones((2, 8)))


def test_snr_hand_values():
    truth = np.full(1000, 2.0)
    noisy = truth + 0.02
    # error power 4e-4 against signal power 4: 10 log10(1e4) = 40 dB.
    assert abs(icdx.snr(noisy, truth) - 40.0) < 1e-9
    assert icdx.snr(truth, truth) == math.inf
    # No rescaling: a pure gain error still costs SNR.
    assert icdx.snr(2.0 * truth, truth) == pytest.approx(0.0, abs=1e-9)


def test_envelope_depth_clean_carrier_near_zero():
    n = 2**16
    t = np.arange(n) / RATE
    tone = np.sin(2.0 * np.pi * CARRIER_1 * t)
    assert icdx.envelope_depth(tone, CARRIER_1, RATE) < 1e-3


def test_envelope_depth_full_beat_near_one():
    # Equal-amplitude tones inside one band beat through zero.
    n = 2**16
    t = np.arange(n) / RATE
    pair = np.sin(2.0 * np.pi * CARRIER_1 * t) + np.sin(2.0 * np.pi * CARRIER_2 * t)
    assert icdx.envelope_depth(pair, CARRIER_1, RATE) > 0.98


def test_envelope_depth_calibrated_modulation():
    # AM at depth m: envelope swings (1 +- m), so the reading is m.
    n = 2**16
    t = np.arange(n) / RATE
    m = 0.4
    am = (1.0 + m * np.sin(2.0 * np.pi * 5.0e4 * t)) * np.sin(
        2.0 * np.pi * CARRIER_1 * t)
    assert abs(icdx.envelope_depth(am, CARRIER_1, RATE) - m) < 2e-2


def test_envelope_depth_crosstalk_ordering():
    # Strong coupling must read a much deeper envelope than the clean
    # carrier; this ordering is what the end-to-end reports rely on.
    clean = two_tone_clean(2**16)
    mixed = icdx.apply_crosstalk(clean, np.array(STRONG_COUPLING))
    depth_clean = icdx.envelope_depth(clean.data[0], CARRIER_1, clean.sample_rate)
    depth_mixed = icdx.envelope_depth(mixed.data[0], CARRIER_1, mixed.sample_rate)
    assert depth_mixed > 0.5
    assert depth_clean < 1e-3


def test_envelope_depth_validation():
    n = 4096
    tone = np.sin(2.0 * np.pi * CARRIER_1 * np.arange(n) / RATE)
    with pytest.raises(ValueError, match="carrier"):
        icdx.envelope_depth(tone, 5.0e6, RATE)
    with pytest.raises(TypeError, match="sample_rate"):
        icdx.envelope_depth(tone, CARRIER_1)


_RATE_USERS = {
    "envelope_depth": lambda x, rate: icdx.envelope_depth(x, CARRIER_1, rate),
    "cross_tone_residual_db": lambda x, rate: icdx.cross_tone_residual_db(
        x, CARRIER_1, CARRIER_2, rate),
    "demodulate": lambda x, rate: icdx.demodulate(x, CARRIER_1, 4.0e4, 8, rate),
    "filter_signal": lambda x, rate: icdx.filter_signal(
        x, icdx.design_fir_lowpass(8, 4.0e4, RATE), rate),
    "fir_split": lambda x, rate: icdx.fir_split(x, CARRIER_1, CARRIER_2, 5, rate),
}


@pytest.mark.parametrize("rate", [math.inf, math.nan, -RATE])
@pytest.mark.parametrize("name", _RATE_USERS)
def test_single_channel_functions_refuse_a_bad_sample_rate(name, rate):
    # A non-finite rate used to reach carrier_band (ZeroDivisionError) or
    # turn every tone band into bin 0 (a 0.0 dB residual).
    tone = np.sin(2.0 * np.pi * CARRIER_1 * np.arange(4096) / RATE)
    with pytest.raises(ValueError, match="^sample_rate must be a positive finite number"):
        _RATE_USERS[name](tone, rate)


def test_cross_tone_residual_known_ratio():
    # A 0.4-amplitude foreign tone against a unit own tone is a power
    # ratio of 0.16: 20 log10(0.4) = -7.9588 dB.
    n = 81920
    tones = two_tone_clean(n)
    mixed = tones.data[0] + 0.4 * tones.data[1]
    value = icdx.cross_tone_residual_db(mixed, CARRIER_1, CARRIER_2, RATE)
    assert abs(value - (-7.958800173440752)) < 0.05


def test_cross_tone_residual_clean_is_very_low():
    n = 81920
    tones = two_tone_clean(n)
    value = icdx.cross_tone_residual_db(tones.data[0], CARRIER_1, CARRIER_2, RATE)
    assert value < -100.0


@pytest.mark.parametrize("n", [4096, 4095])
def test_cross_tone_residual_on_bin_clean_tone_is_neg_inf(n):
    # The periodic Hann window's DFT has three taps: an on-bin tone fills
    # bins k-1..k+1 and leaves a band 50 bins away empty.
    tone = np.sin(2.0 * np.pi * 100 * np.arange(n) / n)
    assert icdx.cross_tone_residual_db(tone, 100 * RATE / n, 150 * RATE / n, RATE) == -math.inf


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_cross_tone_residual_is_scale_free(scale):
    # Band powers are relative to the largest windowed bin: squared raw bins
    # overflowed (1e300) or underflowed to "no power" (1e-300).
    t = np.arange(4096) / RATE
    x = np.sin(2.0 * np.pi * CARRIER_1 * t) + 0.1 * np.sin(2.0 * np.pi * CARRIER_2 * t + 0.3)
    expected = icdx.cross_tone_residual_db(x, CARRIER_1, CARRIER_2, RATE)
    assert -25.0 < expected < -15.0
    assert abs(icdx.cross_tone_residual_db(scale * x, CARRIER_1, CARRIER_2, RATE)
               - expected) <= 1e-9


def test_envelope_depth_band_spectrum_validation():
    # The whole spectrum is not the carrier band's bins.
    tone = np.sin(2.0 * np.pi * CARRIER_1 * np.arange(4096) / RATE)
    with pytest.raises(ValueError, match="band_spectrum"):
        icdx.envelope_depth(tone, CARRIER_1, RATE, band_spectrum=np.fft.rfft(tone))


def test_cross_tone_residual_validation():
    tone = np.sin(np.linspace(0.0, 100.0, 4096))
    with pytest.raises(ValueError, match="distinct"):
        icdx.cross_tone_residual_db(tone, 1.0e6, 1.0e6, RATE)
    with pytest.raises(ValueError, match="own_freq"):
        icdx.cross_tone_residual_db(tone, 5.0e6, 1.0e6, RATE)


def test_signed_permutation_error_hand_cases():
    perm, signs, dev = icdx.signed_permutation_error(np.eye(2))
    assert perm == (0, 1) and signs == (1, 1) and dev == 0.0

    gain = np.array([[0.001, -0.999], [1.002, 0.0005]])
    perm, signs, dev = icdx.signed_permutation_error(gain)
    assert perm == (1, 0)
    assert signs == (-1, 1)
    # Deviations: |0.001|, |-0.999 - (-1)| = 0.001, |1.002 - 1| = 0.002,
    # |0.0005|; the max is 0.002.
    assert abs(dev - 0.002) < 1e-12


def test_signed_permutation_error_validation():
    with pytest.raises(ValueError, match="square"):
        icdx.signed_permutation_error(np.ones((2, 3)))
    with pytest.raises(ValueError, match="8"):
        icdx.signed_permutation_error(np.eye(9))
    # No signed permutation is nearest to a gain with a NaN or inf entry.
    for bad in ([[1.0, np.nan], [0.0, 1.0]], np.full((2, 2), np.nan), [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="finite"):
            icdx.signed_permutation_error(np.array(bad))


def test_metric_value_round_trip():
    for value in (0.0, -41.25, 1.5e-300, math.inf, -math.inf):
        token = icdx.format_metric_value(value)
        assert icdx.parse_metric_value(token) == value
    assert icdx.format_metric_value(-math.inf) == "neg-inf"
    assert icdx.format_metric_value(math.inf) == "pos-inf"
    # Finite values keep full precision through repr.
    assert icdx.parse_metric_value(icdx.format_metric_value(1.0 / 3.0)) == 1.0 / 3.0
    with pytest.raises(ValueError):
        icdx.format_metric_value(math.nan)


def test_quality_report_mapping(tmp_path):
    # quality.cfg is a plain mapping of per-channel tuples; write_kv joins
    # each tuple's entries with ',' (booleans as 0/1, infinities as tokens).
    path = tmp_path / "quality.cfg"
    icdx.write_kv(path, {
        "iterations": (4, 3),
        "converged": (True, True),
        "isr_db": (-130.0, -math.inf),
        "envelope_depth_raw": (0.9, 0.85),
        "envelope_depth_corrected": (0.01, 0.02),
        "gain_error": 3.4e-6,
    })
    values = icdx.read_kv(path).values
    assert values["isr_db"] == "-130.0,neg-inf"
    assert values["iterations"] == "4,3"
    assert values["converged"] == "1,1"
    assert values["envelope_depth_corrected"] == "0.01,0.02"
    assert values["gain_error"] == repr(3.4e-6)
