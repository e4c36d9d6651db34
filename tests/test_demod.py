"""Quadrature demodulation, envelope supervision, two-color density."""

import re

import numpy as np
import pytest

import icdx
from icdx.demod import _unwrap_in_place

from helpers import CARRIER_1, CARRIER_2, RATE

_PARAMS = icdx.InterferometerParams(
    wavelength1=10.591e-6,
    wavelength2=1.064e-6,
    f_het1=CARRIER_1,
    f_het2=CARRIER_2,
    sample_rate=RATE,
)


def _phase_series(samples, rate=1.0e6, settle=0):
    return icdx.PhaseSeries(
        samples=np.asarray(samples, dtype=np.float64),
        sample_rate=rate, carrier=CARRIER_1, decimation=1, settle=settle)


def test_unwrap_matches_library_on_random_walk():
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.uniform(-2.5, 2.5, 4096))
    walk[0] = rng.uniform(-3.0, 3.0)
    wrapped = np.angle(np.exp(1j * walk))
    ours = _unwrap_in_place(wrapped.copy())
    theirs = np.unwrap(wrapped)
    assert np.max(np.abs(ours - theirs)) < 1e-9


def test_unwrap_recovers_continuous_walk_exactly():
    # Steps below pi in magnitude and a first sample inside (-pi, pi]
    # make wrapping losslessly invertible.
    rng = np.random.default_rng(4)
    walk = 0.5 + np.concatenate(([0.0], np.cumsum(rng.uniform(-3.0, 3.0, 2047))))
    wrapped = np.angle(np.exp(1j * walk))
    assert np.max(np.abs(_unwrap_in_place(wrapped.copy()) - walk)) < 1e-9


def test_unwrap_edge_cases():
    assert _unwrap_in_place(np.array([])).size == 0
    assert np.array_equal(_unwrap_in_place(np.array([1.25])), [1.25])


@pytest.mark.parametrize("phi0", [0.0, 0.3])
def test_demodulate_pure_carrier_is_flat(phi0):
    # sin(2 pi f t + phi0) must demodulate to a constant track at phi0;
    # the comb null on the 2f image keeps the steady ripple microscopic.
    n = 2**17
    t = np.arange(n) / RATE
    x = np.sin(2.0 * np.pi * CARRIER_1 * t + phi0)
    phase = icdx.demodulate(x, CARRIER_1, 4.0e4, 8, RATE)
    assert not phase.lost_ranges
    assert np.max(np.abs(phase.steady() - phi0)) < 1e-6


def test_demodulate_carrier_phase_does_not_drift():
    # 1.1 MHz / 8 MHz has no exact binary form; the carrier phase taken
    # off at the kept samples must not drift with the sample index.
    n = 2**20
    x = np.sin(2.0 * np.pi * CARRIER_2 * np.arange(n) / RATE + 0.3)
    phase = icdx.demodulate(x, CARRIER_2, 4.0e4, 8, RATE)
    assert np.max(np.abs(phase.steady() - 0.3)) < 1e-6


def test_demodulate_series_geometry():
    n = 2**16
    decimation = 8
    x = np.sin(2.0 * np.pi * CARRIER_1 * np.arange(n) / RATE)
    phase = icdx.demodulate(x, CARRIER_1, 4.0e4, decimation, RATE)
    assert len(phase) == -(-n // decimation)
    assert phase.sample_rate == RATE / decimation
    assert phase.carrier == CARRIER_1
    assert phase.decimation == decimation
    assert 0 < phase.settle < len(phase) // 2
    assert len(phase.steady()) == len(phase) - 2 * phase.settle


def test_demodulate_recovers_vibration_track():
    n = 2**17
    tracks = icdx.make_scenario_tracks("vibration-only", n, RATE, _PARAMS)
    clean = icdx.synth_clean_pair(_PARAMS, tracks[0], tracks[1])
    phase = icdx.demodulate(clean.data[0], CARRIER_1, 4.0e4, 8, RATE)
    truth = tracks[0].samples[::8]
    keep = slice(phase.settle, len(phase) - phase.settle)
    err = phase.samples[keep] - truth[keep]
    assert np.sqrt(np.mean(err**2)) < 1e-3
    assert np.max(np.abs(err)) < 1e-2


def _coupled_shot_ramp(coupling: float, n: int = 2**17) -> icdx.MultichannelSignal:
    tracks = icdx.make_scenario_tracks("shot-ramp", n, RATE, _PARAMS)
    clean = icdx.synth_clean_pair(_PARAMS, tracks[0], tracks[1])
    return icdx.apply_crosstalk(
        clean, np.array([[1.0, coupling], [coupling, 1.0]]))


def _time_domain_demodulate(x, cutoff, decimation, filter_order=256):
    """The mix-then-filter form at CARRIER_1 and default envelope settings.

    Returns (phases, lost ranges).

    Per-sample cos/sin mixes, full-rate direct convolutions with the
    delay removed, the narrow rail sliced [::decimation].
    """
    n, carrier = x.size, CARRIER_1
    t = np.arange(n) / RATE
    mixes = (2.0 * x * np.cos(2.0 * np.pi * carrier * t),
             -2.0 * x * np.sin(2.0 * np.pi * carrier * t))

    def lowpass(taps):
        delay = (taps.size - 1) // 2
        return [np.convolve(mix, taps)[delay: delay + n] for mix in mixes]

    envelope = np.hypot(*lowpass(icdx.design_fir_lowpass(128, 0.4 * carrier, RATE).taps))
    margin = 128
    low = envelope < 0.2 * np.median(envelope[margin: n - margin])
    low[:margin] = low[n - margin:] = False
    edges = np.flatnonzero(np.diff(np.concatenate(([0], low.astype(np.int8), [0]))))
    lost = tuple((int(a), int(b)) for a, b in zip(edges[::2], edges[1::2]) if b - a >= 4)
    box = np.full(4, 0.25)  # the image comb: 2 x carrier is a quarter of the rate
    taps = np.convolve(icdx.design_fir_lowpass(filter_order, cutoff, RATE).taps,
                       np.convolve(box, box))
    rail_i, rail_q = (rail[::decimation] for rail in lowpass(taps / taps.sum()))
    return np.unwrap(np.angle(np.exp(1j * (np.arctan2(rail_q, rail_i) + 0.5 * np.pi)))), lost


@pytest.mark.parametrize("decimation, filter_order, n", [
    (1, 256, 2**17), (3, 256, 2**17), (8, 256, 2**17), (64, 256, 2**17),
    (8, 5000, 2**15),  # a filter longer than half an overlap-save block
])
def test_demodulate_matches_time_domain_rails(decimation, filter_order, n):
    x = _coupled_shot_ramp(0.9).data[0][:n]
    phase = icdx.demodulate(x, CARRIER_1, 4.0e4, decimation, RATE,
                            filter_order=filter_order, strict=False)
    samples, lost = _time_domain_demodulate(x, 4.0e4, decimation, filter_order)
    assert phase.lost_ranges and phase.lost_ranges == lost
    assert np.max(np.abs(phase.samples - samples)) <= 1e-9


def test_moderate_crosstalk_keeps_tracking():
    mixed = _coupled_shot_ramp(0.4)
    phase = icdx.demodulate(mixed.data[0], CARRIER_1, 4.0e4, 8, RATE)
    assert phase.lost_ranges == ()


def test_strong_crosstalk_raises_with_ranges():
    # At 0.9 coupling the two-carrier beat drives the envelope through
    # nulls; the demodulator must refuse rather than return garbage.
    mixed = _coupled_shot_ramp(0.9)
    n = mixed.length
    with pytest.raises(icdx.PhaseTrackingLostError) as info:
        icdx.demodulate(mixed.data[0], CARRIER_1, 4.0e4, 8, RATE)
    ranges = info.value.ranges
    assert len(ranges) > 0
    for start, stop in ranges:
        assert 0 <= start < stop <= n
        assert stop - start >= 4  # default envelope_min_run
    starts = [a for a, _ in ranges]
    assert starts == sorted(starts)


def test_strong_crosstalk_nonstrict_records_ranges():
    mixed = _coupled_shot_ramp(0.9)
    with pytest.raises(icdx.PhaseTrackingLostError) as info:
        icdx.demodulate(mixed.data[0], CARRIER_1, 4.0e4, 8, RATE)
    phase = icdx.demodulate(mixed.data[0], CARRIER_1, 4.0e4, 8, RATE, strict=False)
    assert phase.lost_ranges
    assert phase.lost_ranges == info.value.ranges


def test_envelope_floor_tunable():
    # A floor above the beat minimum trips on coupling that the default
    # floor tolerates: at 0.4 coupling the envelope swings between 0.6
    # and 1.4 of the carrier amplitude, so its minimum sits near 56% of
    # the median, under a 0.9 floor but above the default 0.2.
    mixed = _coupled_shot_ramp(0.4)
    with pytest.raises(icdx.PhaseTrackingLostError):
        icdx.demodulate(
            mixed.data[0], CARRIER_1, 4.0e4, 8, RATE, envelope_floor=0.9)


@pytest.mark.filterwarnings("error")
def test_demodulate_validation():
    n = 4096
    x = np.sin(2.0 * np.pi * CARRIER_1 * np.arange(n) / RATE)
    with pytest.raises(ValueError, match="carrier"):
        icdx.demodulate(x, 5.0e6, 4.0e4, 8, RATE)
    with pytest.raises(ValueError, match="lowpass_cutoff"):
        icdx.demodulate(x, CARRIER_1, 2.0e6, 8, RATE)
    with pytest.raises(ValueError, match="decimation"):
        icdx.demodulate(x, CARRIER_1, 4.0e4, 0, RATE)
    with pytest.raises(TypeError, match="sample_rate"):
        icdx.demodulate(x, CARRIER_1, 4.0e4, 8)
    with pytest.raises(ValueError, match="envelope_floor"):
        icdx.demodulate(x, CARRIER_1, 4.0e4, 8, RATE, envelope_floor=1.5)
    # The envelope rail's cutoff is min(0.4 carrier, 0.95 (nyquist - carrier)):
    # 400 kHz at 1 MHz, 95 kHz at 3.9 MHz; the narrow rail may not be wider.
    for carrier, cutoff in ((CARRIER_1, 4.0e5 + 1.0), (3.9e6, 9.5e4 + 1.0)):
        with pytest.raises(ValueError, match="lowpass_cutoff must not exceed the envelope"):
            icdx.demodulate(x, carrier, cutoff, 8, RATE)
    with pytest.raises(ValueError, match="1-D series"):
        icdx.demodulate(np.zeros((2, 64)), CARRIER_1, 4.0e4, 8, RATE)
    # 2 pi f / rate of a 1e-320 Hz cutoff underflows: its taps would not be finite.
    with pytest.raises(ValueError, match="^lowpass_cutoff must make 2 pi f / rate a normal"):
        icdx.demodulate(x, CARRIER_1, 1e-320, 8, RATE)
    icdx.demodulate(x, CARRIER_1, 1e-300, 8, RATE, strict=False)  # a normal angle still runs
    # A NaN must not come back as NaN phases.
    with pytest.raises(ValueError, match="channel must be finite, sample 2000 is not"):
        icdx.demodulate(np.where(np.arange(n) == 2000, np.nan, x), CARRIER_1, 4.0e4, 8, RATE)
    # 263 taps: a 257-tap windowed sinc cascaded with a 7-tap image comb.
    with pytest.raises(ValueError, match="shorter than the demodulation filter"):
        icdx.demodulate(x[:262], CARRIER_1, 4.0e4, 8, RATE)
    # Its 33 decimated samples all sit inside the 17-sample settle at
    # each end: 263 // 2 = 131 input samples, rounded up to 17 at 8:1.
    short = icdx.demodulate(x[:263], CARRIER_1, 4.0e4, 8, RATE)
    assert len(short) == 33
    assert short.settle == 17 and short.steady().size == 0
    # Both filters are checked against the record before any taps are
    # designed: 10^12 taps would need terabytes.
    with pytest.raises(ValueError, match=r"demodulation filter \(1000000000007 taps\)"):
        icdx.demodulate(x, CARRIER_1, 4.0e4, 8, RATE, filter_order=10**12)
    for order in (100000, 10**12):
        with pytest.raises(ValueError, match=rf"envelope filter \({order + 1} taps\)"):
            icdx.demodulate(x, CARRIER_1, 4.0e4, 8, RATE, envelope_order=order)
    assert len(icdx.demodulate(x, CARRIER_1, 4.0e4, 8, RATE, envelope_order=n - 1,
                               strict=False)) == n // 8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", ["carrier", "constant", "nyquist"])
def test_demodulate_refuses_a_channel_past_the_transforms_range(shape):
    # The peak times the block length times the larger absolute tap sum must
    # stay below the float64 maximum. Past the bound the channel is refused
    # before any transform; just below it every transform stays finite, so no
    # warning (an error here) is raised and the phase series is finite.
    k = np.arange(4096)
    x = {"carrier": np.sin(2.0 * np.pi * CARRIER_1 * k / RATE), "constant": np.ones(k.size),
         "nyquist": np.where(k % 2, -1.0, 1.0)}[shape]
    with pytest.raises(ValueError, match=r"^channel peak 1e\+306 passes the float64 range "
                                         r"of the 8192-sample transforms") as refused:
        icdx.demodulate(1e306 * x, CARRIER_1, 4.0e4, 8, RATE)
    bound = float(re.search(r"must stay below (\S+)$", str(refused.value)).group(1))
    assert 1e303 < bound < 1e304
    series = icdx.demodulate(0.99 * bound * x, CARRIER_1, 4.0e4, 8, RATE, strict=False)
    assert np.all(np.isfinite(series.samples))


@pytest.mark.parametrize("decimation", [1, 3, 8, 64])
def test_settle_covers_exactly_the_filter_transient(decimation):
    # Embed a record in more data, shifted by whole carrier periods and
    # decimation steps. Steady samples read nothing outside the record,
    # so they agree; the last settle sample at the start reads past it.
    rng = np.random.default_rng(decimation)
    pad = 8 * decimation * 40
    x = rng.standard_normal(4096)
    wide = np.concatenate((rng.standard_normal(pad), x, rng.standard_normal(pad)))
    inner = icdx.demodulate(x, CARRIER_1, 4.0e4, decimation, RATE, strict=False)
    outer = icdx.demodulate(wide, CARRIER_1, 4.0e4, decimation, RATE, strict=False)
    shift = pad // decimation
    diff = np.angle(np.exp(1j * (inner.samples - outer.samples[shift: shift + len(inner)])))
    settle = inner.settle
    assert settle == -(-131 // decimation)  # 263 taps: 131 input samples
    assert np.max(np.abs(diff[settle: len(inner) - settle])) < 1e-9
    assert abs(diff[settle - 1]) > 1e-7


def test_phase_series_steady_degenerate():
    series = _phase_series(np.arange(10.0), settle=5)
    assert series.steady().size == 0
    assert not series.lost_ranges


def test_density_unit_phase_constants():
    # Hand-derived responses of the two-color relation to a unit phase
    # on one channel: lambda_k / (r_e (lambda1^2 - lambda2^2)) with the
    # sign of the channel's weight. Computed once from the wavelength
    # and electron-radius constants; pinned to full precision.
    ones = _phase_series(np.ones(8))
    zeros = _phase_series(np.zeros(8))
    ch1_only = icdx.line_integrated_density(ones, zeros, _PARAMS)
    ch2_only = icdx.line_integrated_density(zeros, ones, _PARAMS)
    assert np.allclose(ch1_only.samples, 3.384828997372907e19, rtol=1e-13)
    assert np.allclose(ch2_only.samples, -3.4004891447500457e18, rtol=1e-13)
    assert ch1_only.sample_rate == ones.sample_rate


def test_density_cancels_vibration_phase():
    # Path-length phase enters the two channels in the exact wavelength
    # ratio; the weighted difference must cancel it to rounding error.
    n = 2**14
    tracks = icdx.make_scenario_tracks("vibration-only", n, RATE, _PARAMS)
    vib = tracks[1].samples
    phase1 = _phase_series((_PARAMS.wavelength2 / _PARAMS.wavelength1) * vib)
    phase2 = _phase_series(vib)
    density = icdx.line_integrated_density(phase1, phase2, _PARAMS)
    single_term = np.max(np.abs(vib)) * _PARAMS.wavelength2 / (
        _PARAMS.electron_radius
        * (_PARAMS.wavelength1**2 - _PARAMS.wavelength2**2))
    assert np.max(np.abs(density.samples)) <= 1e-9 * single_term


def test_density_settle_and_validation():
    a = _phase_series(np.zeros(16), settle=3)
    b = _phase_series(np.zeros(16), settle=7)
    assert icdx.line_integrated_density(a, b, _PARAMS).settle == 7
    with pytest.raises(ValueError, match="settle"):
        icdx.DensitySeries(np.zeros(8), 1.0e6, -1)
    with pytest.raises(ValueError, match="length"):
        icdx.line_integrated_density(a, _phase_series(np.zeros(8)), _PARAMS)
    with pytest.raises(ValueError, match="rate"):
        icdx.line_integrated_density(
            a, _phase_series(np.zeros(16), rate=2.0e6), _PARAMS)


@pytest.mark.parametrize("rate", [np.inf, np.nan, 0.0, -RATE])
def test_series_types_require_a_positive_finite_rate(rate):
    message = "^sample_rate must be a positive finite number"
    with pytest.raises(ValueError, match=message):
        _phase_series(np.zeros(8), rate=rate)
    with pytest.raises(ValueError, match=message):
        icdx.DensitySeries(np.zeros(8), rate, 0)
    with pytest.raises(ValueError, match=message):
        icdx.PhaseTrack(np.zeros(8), rate, "density")
    with pytest.raises(ValueError, match=message):
        icdx.MultichannelSignal(np.zeros((2, 8)), rate)
    with pytest.raises(ValueError, match=message):
        icdx.InterferometerParams(sample_rate=rate)
