"""Signal synthesis: scenarios, coupling, noise, quantization."""

import math
import warnings

import numpy as np
import pytest

import icdx
from icdx.cli import RunConfig
from icdx.signalgen import _FINITE_CHUNK, SHOT_RAMP_PLATEAU_RAD, VIBRATION_COMPONENTS

from helpers import RATE


def test_scenario_kinds_shapes_and_labels():
    params = icdx.InterferometerParams()
    for kind in icdx.signalgen.SCENARIO_KINDS:
        t1, t2 = icdx.make_scenario_tracks(kind, 4096, RATE, params)
        assert len(t1) == len(t2) == 4096
        assert t1.sample_rate == t2.sample_rate == RATE
        assert t1.label == "combined"
        assert t2.label == "vibration"
    with pytest.raises(ValueError):
        icdx.make_scenario_tracks("nope", 4096, RATE, params)


def test_quiet_scenario_is_silent():
    params = icdx.InterferometerParams()
    t1, t2 = icdx.make_scenario_tracks("quiet", 1024, RATE, params)
    assert np.all(t1.samples == 0.0)
    assert np.all(t2.samples == 0.0)


def test_vibration_only_exact_wavelength_scaling():
    # Channel 1 must be channel 2 times the wavelength ratio with no
    # other content, so the two-color combination can cancel it.
    params = icdx.InterferometerParams()
    t1, t2 = icdx.make_scenario_tracks("vibration-only", 8192, RATE, params)
    ratio = params.wavelength2 / params.wavelength1
    assert np.array_equal(t1.samples, ratio * t2.samples)
    # Expected vibration content: sum of the documented components.
    t = np.arange(8192) / RATE
    expected = sum(a * np.sin(2.0 * np.pi * f * t) for f, a in VIBRATION_COMPONENTS)
    assert np.allclose(t2.samples, expected, atol=1e-12)


def test_shot_ramp_trapezoid_breakpoints():
    # Piecewise-linear density phase: knots at 10/30/70/90 percent of the
    # record, plateau height 2 rad. Values below computed by hand from
    # linear interpolation between those knots.
    n = 100000
    params = icdx.InterferometerParams()
    t1, t2 = icdx.make_scenario_tracks("shot-ramp", n, RATE, params)
    density = t1.samples - (params.wavelength2 / params.wavelength1) * t2.samples
    assert abs(density[int(0.05 * n)]) < 1e-9
    assert abs(density[int(0.20 * n)] - 0.5 * SHOT_RAMP_PLATEAU_RAD) < 1e-3
    assert abs(density[int(0.50 * n)] - SHOT_RAMP_PLATEAU_RAD) < 1e-9
    assert abs(density[int(0.80 * n)] - 0.5 * SHOT_RAMP_PLATEAU_RAD) < 1e-3
    assert abs(density[-1]) < 1e-9
    assert np.all(density >= -1e-12)
    assert np.all(density <= SHOT_RAMP_PLATEAU_RAD + 1e-12)


def test_synth_clean_pair_unit_amplitude_tones():
    # 81920 samples puts an integer number of cycles of both carriers in
    # the record (10240 and 11264), so a single FFT bin carries each
    # tone: amplitude = 2|X[k]|/N = 1.
    n = 81920
    params = icdx.InterferometerParams()
    t1, t2 = icdx.make_scenario_tracks("quiet", n, RATE, params)
    clean = icdx.synth_clean_pair(params, t1, t2)
    assert clean.channels == 2
    assert clean.length == n
    for ch, freq in ((0, 1.0e6), (1, 1.1e6)):
        spectrum = np.abs(np.fft.rfft(clean.data[ch]))
        k = int(round(freq * n / RATE))
        assert abs(2.0 * spectrum[k] / n - 1.0) < 1e-12
        spectrum[k] = 0.0
        assert np.max(spectrum) < 1e-9 * n  # nothing anywhere else


def test_synth_clean_pair_validates_lengths_and_rates():
    params = icdx.InterferometerParams()
    t1, t2 = icdx.make_scenario_tracks("quiet", 512, RATE, params)
    longer = icdx.PhaseTrack(np.zeros(1024), RATE, "vibration")
    with pytest.raises(ValueError, match="length"):
        icdx.synth_clean_pair(params, t1, longer)
    other = icdx.PhaseTrack(np.zeros(512), 2 * RATE, "combined")
    with pytest.raises(ValueError):
        icdx.synth_clean_pair(params, other, t2)


def test_interferometer_params_validation():
    with pytest.raises(ValueError, match=r"^f_het1 must be in \(0, Nyquist 4000000.0\)"):
        icdx.InterferometerParams(f_het1=5.0e6)  # at Nyquist: rejected
    with pytest.raises(ValueError):
        icdx.InterferometerParams(wavelength1=1.064e-6, wavelength2=1.064e-6)
    with pytest.raises(ValueError):
        icdx.InterferometerParams(sample_rate=-1.0)


def test_apply_crosstalk_matches_hand_multiplication():
    data = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    signal = icdx.MultichannelSignal(data, RATE)
    mixed = icdx.apply_crosstalk(signal, np.array([[1.0, 0.5], [0.25, 1.0]]))
    # Row by row by hand: out0 = in0 + 0.5 in1, out1 = 0.25 in0 + in1.
    assert np.allclose(mixed.data[0], [3.0, 4.5, 6.0], atol=1e-15)
    assert np.allclose(mixed.data[1], [4.25, 5.5, 6.75], atol=1e-15)


def test_apply_crosstalk_rejects_singular_and_misshapen():
    signal = icdx.MultichannelSignal(np.ones((2, 16)), RATE)
    with pytest.raises(ValueError):
        icdx.apply_crosstalk(signal, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        icdx.apply_crosstalk(signal, np.eye(3))


def test_add_awgn_power_calibration():
    # Unit-variance sinusoid (amplitude sqrt(2)) at 20 dB SNR: the added
    # noise must have variance 0.01. With 2**20 samples the sample
    # variance concentrates to well within 5 percent.
    n = 2**20
    t = np.arange(n) / RATE
    tone = math.sqrt(2.0) * np.sin(2.0 * np.pi * 1.0e6 * t)
    signal = icdx.MultichannelSignal(tone[None, :], RATE)
    noisy = icdx.add_awgn(signal, 20.0, seed=42)
    residual = noisy.data[0] - tone
    assert abs(residual.var() / 0.01 - 1.0) < 0.05
    assert abs(residual.mean()) < 1e-3


def test_add_awgn_seeded_and_infinite_snr():
    signal = icdx.MultichannelSignal(np.ones((2, 256)), RATE)
    a = icdx.add_awgn(signal, 10.0, seed=7)
    b = icdx.add_awgn(signal, 10.0, seed=7)
    c = icdx.add_awgn(signal, 10.0, seed=8)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    clean = icdx.add_awgn(signal, math.inf, seed=7)
    assert np.array_equal(clean.data, signal.data)
    # Infinitely loud noise is not a level to draw, nor one whose power
    # 10^(-snr_db/10) overflows float64; the error says which value.
    for bad, rule in ((-math.inf, "must not be NaN or -inf"),
                      (math.nan, "must not be NaN or -inf"),
                      (-4000.0, "must be at least about -3082.5 dB")):
        with pytest.raises(ValueError, match=f"snr_db {rule}.*got {bad!r}"):
            icdx.add_awgn(signal, bad, seed=7)
    assert np.all(np.isfinite(icdx.add_awgn(signal, -3082.5, seed=7).data))
    # At the floor a channel of power 100 would need noise power 100 x 1.8e308:
    # refused by value before any multiply overflows, so numpy warns nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"snr_db -3082\.5 .* mean power 100\b"):
            icdx.add_awgn(signal.with_data(10.0 * signal.data), -3082.5, seed=7)


def test_quantize_adc_hand_grid():
    # 3 bits, full scale 1: step 0.25, codes clipped to [-4, 3].
    values = np.array([[0.1, 0.13, 1.0, -1.0, -2.0, 0.0, -0.13]])
    out = icdx.quantize_adc(icdx.MultichannelSignal(values, RATE), 3, 1.0)
    assert np.array_equal(out.data[0], [0.0, 0.25, 0.75, -1.0, -1.0, 0.0, -0.25])


def test_quantize_adc_12bit_sine_snr():
    # Classical quantization SNR for a near-full-scale sine: 6.02 b + 1.76
    # dB = 74.0 dB at 12 bits. Amplitude backs off one step from the rail
    # because the top mid-tread code sits at full_scale minus one step;
    # a sine touching +1.0 exactly would clip there and lose about 2 dB.
    n = 2**16
    t = np.arange(n) / RATE
    amplitude = 1.0 - 2.0 / 2**12
    tone = amplitude * np.sin(2.0 * np.pi * 1.0e6 * t)
    signal = icdx.MultichannelSignal(tone[None, :], RATE)
    out = icdx.quantize_adc(signal, 12, 1.0)
    err = out.data[0] - tone
    snr_db = 10.0 * np.log10(np.mean(tone**2) / np.mean(err**2))
    assert abs(snr_db - 74.0) < 1.0


def test_quantize_adc_validation():
    signal = icdx.MultichannelSignal(np.ones((1, 16)), RATE)
    for bits in (0, 1, 25):
        with pytest.raises(ValueError, match=r"^adc_bits must be in \[2, 24\]"):
            icdx.quantize_adc(signal, bits, 1.0)
    with pytest.raises(ValueError, match="^adc_full_scale must be a positive finite number"):
        icdx.quantize_adc(signal, adc_bits=8, adc_full_scale=0.0)


def test_spectrum_keeps_the_requested_bins_of_each_row():
    data = np.random.default_rng(0).standard_normal((2, 1001))
    signal = icdx.MultichannelSignal(data, RATE)
    full = np.fft.rfft(data, axis=1)
    for bins in (slice(40, 300), np.array([7, 3, 500, 0, 7])):
        kept = signal.spectrum(bins)
        assert kept.shape == full[:, bins].shape
        assert kept.tobytes() == full[:, bins].tobytes()


def test_multichannel_signal_is_readonly():
    signal = icdx.MultichannelSignal(np.zeros((1, 8)), RATE)
    with pytest.raises(ValueError):
        signal.data[0, 0] = 1.0


def test_containers_do_not_share_the_callers_array():
    # Writing to the array handed in must not reach the constructed object.
    samples = np.arange(8.0)
    track = icdx.PhaseTrack(samples, RATE, "density")
    data = np.arange(16.0).reshape(2, 8)
    signal = icdx.MultichannelSignal(data, RATE)
    replacement = -data
    derived = signal.with_data(replacement)
    samples[:] = 99.0
    data[:] = 99.0
    replacement[:] = 99.0
    assert np.array_equal(track.samples, np.arange(8.0))
    assert np.array_equal(signal.data, np.arange(16.0).reshape(2, 8))
    assert np.array_equal(derived.data, -np.arange(16.0).reshape(2, 8))


# One valid instance per frozen value type: (constructor, its array fields).
def _value_type(kind):
    assignment = icdx.Assignment(("a", "b"), (0, 1), (1, 1))
    builders = {
        "MultichannelSignal": (
            lambda **a: icdx.MultichannelSignal(sample_rate=RATE, **a),
            {"data": np.arange(16.0).reshape(2, 8)}),
        "PhaseTrack": (
            lambda **a: icdx.PhaseTrack(sample_rate=RATE, label="density", **a),
            {"samples": np.arange(8.0)}),
        "PhaseSeries": (
            lambda **a: icdx.PhaseSeries(
                sample_rate=RATE, carrier=1.0e6, decimation=1, settle=0, **a),
            {"samples": np.arange(8.0)}),
        "DensitySeries": (
            lambda **a: icdx.DensitySeries(sample_rate=RATE, settle=0, **a),
            {"samples": np.arange(8.0)}),
        "FirFilter": (
            lambda **a: icdx.FirFilter(band=(0.0, 1.0e6), design_rate=RATE, **a),
            {"taps": np.array([0.25, 0.5, 0.25])}),
        "SeparationResult": (
            lambda **a: icdx.SeparationResult(
                iterations=(1, 1), converged=(True, True), assignment=assignment, **a),
            {"w": np.eye(2), "w_full": np.array([[2.0, 0.5], [0.25, 3.0]])}),
        "WhiteningTransform": (
            icdx.WhiteningTransform,
            {"mean": np.array([0.5, -0.5]), "eigvecs": np.eye(2),
             "eigvals": np.array([4.0, 1.0])}),
        "RunConfig": (RunConfig, {"coupling": np.array([[1.0, 0.2], [0.1, 1.0]])}),
    }
    return builders[kind]


_ARRAY_FIELDS = [
    ("MultichannelSignal", "data"), ("PhaseTrack", "samples"),
    ("PhaseSeries", "samples"), ("DensitySeries", "samples"), ("FirFilter", "taps"),
    ("SeparationResult", "w"), ("SeparationResult", "w_full"),
    *(("WhiteningTransform", name) for name in ("mean", "eigvecs", "eigvals")),
    ("RunConfig", "coupling"),
]


@pytest.mark.parametrize("kind, name", _ARRAY_FIELDS)
def test_value_types_own_their_arrays(kind, name):
    # Neither the caller's array nor a view of it taken before
    # construction can change the object, and the caller's array stays
    # the caller's: still writeable.
    build, arrays = _value_type(kind)
    given = arrays[name]
    view = given.reshape(-1)
    expected = given.copy()
    obj = build(**arrays)
    held = getattr(obj, name)
    assert given.flags.writeable and view.flags.writeable
    assert not held.flags.writeable
    view[0] = 99.0
    given[...] = 99.0
    assert np.array_equal(held, expected)
    assert held.dtype == np.float64 and held.flags.c_contiguous


@pytest.mark.parametrize("kind, name, bad", [
    ("MultichannelSignal", "data", np.nan), ("PhaseTrack", "samples", np.inf),
    ("PhaseSeries", "samples", np.nan), ("DensitySeries", "samples", -np.inf),
    ("FirFilter", "taps", np.nan), ("SeparationResult", "w_full", np.inf),
    ("WhiteningTransform", "eigvals", np.nan), ("RunConfig", "coupling", np.nan),
])
def test_value_types_reject_non_finite_arrays(kind, name, bad):
    build, arrays = _value_type(kind)
    arrays[name].reshape(-1)[0] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build(**arrays)


@pytest.mark.parametrize("index", [0, _FINITE_CHUNK - 1, _FINITE_CHUNK, 2 * _FINITE_CHUNK + 5])
def test_finite_check_reaches_every_chunk(index):
    # The check masks _FINITE_CHUNK entries at a time: a bad entry first,
    # on either side of a chunk edge, or last is still found.
    data = np.zeros((2, _FINITE_CHUNK + 3))
    data.reshape(-1)[index] = np.nan
    with pytest.raises(ValueError, match="data must be finite"):
        icdx.MultichannelSignal(data, RATE)
