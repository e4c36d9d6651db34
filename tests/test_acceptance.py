"""Acceptance gate: the eight headline claims of the package, one test each.

Every test prints a single line

    ACCEPTANCE <n>: PASS|FAIL - <summary with measured margins>

before asserting, so a plain ``pytest tests/test_acceptance.py -v -s``
reads as a checklist. Expected values are produced by independent
oracles (seeded Monte Carlo with a control variate, central finite
differences, closed-form arithmetic on the ground-truth tracks), never
by the code under test.
"""

import time
from pathlib import Path

import numpy as np

import icdx
from icdx.cli import main

from helpers import (
    CARRIER_1,
    CARRIER_2,
    DEFAULT_COUPLING,
    RATE,
    STRONG_COUPLING,
    relative_rms,
    scenario_pair,
    separate,
    two_tone_clean,
)


def _verdict(num: int, ok: bool, summary: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"acceptance check {num} failed: {summary}"


# --------------------------------------------------------------------------
# 1. Whitening produces unit covariance for random invertible mixings.

def test_criterion_1_whitening_unit_covariance():
    worst = 0.0
    for dim in (2, 4):
        for case in range(50):
            rng = np.random.default_rng(20_000 * dim + case)
            sources = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(dim, 4096))
            while True:
                mixing = rng.standard_normal((dim, dim))
                if abs(np.linalg.det(mixing)) > 0.1:
                    break
            whitened, _ = icdx.whiten(icdx.MultichannelSignal(mixing @ sources, 1.0))
            cov = whitened.data @ whitened.data.T / whitened.data.shape[1]
            worst = max(worst, float(np.max(np.abs(cov - np.eye(dim)))))
    _verdict(1, worst <= 1e-8,
             f"post-whitening covariance is the identity within 1e-8 for 100 "
             f"random 2x2 and 4x4 mixings (worst deviation {worst:.2e})")


# --------------------------------------------------------------------------
# 2. Two-tone separation: signed-permutation gain, low residual, fast
#    convergence, across 50 seeds, in under a minute.

def test_criterion_2_two_tone_separation_across_seeds():
    start = time.monotonic()
    clean = two_tone_clean(n=2**18)
    mixed = icdx.apply_crosstalk(clean, DEFAULT_COUPLING)
    whitened, transform = icdx.whiten(mixed)
    source_rms = np.sqrt(np.mean(clean.data**2, axis=1))

    worst_gain_dev = 0.0
    worst_isr = -np.inf
    worst_iterations = 0
    all_converged = True
    for seed in range(50):
        cfg = icdx.FastIcaConfig(seed=seed, tol=1e-8, max_iter=100)
        result = icdx.fit(whitened, cfg, transform)
        all_converged &= all(result.converged)
        worst_iterations = max(worst_iterations, max(result.iterations))
        # Unit-variance output convention: scale the true-source columns
        # by their rms so a perfect unmixing reads exactly +-1.
        gain = result.w @ transform.whitener @ DEFAULT_COUPLING @ np.diag(source_rms)
        perm, signs, dev = icdx.signed_permutation_error(gain)
        worst_gain_dev = max(worst_gain_dev, dev)
        components = icdx.unmix(mixed, result, transform)
        for slot, (src, sign) in enumerate(zip(perm, signs)):
            estimate = sign * components.data[slot]
            own = clean.data[src] / source_rms[src]
            worst_isr = max(worst_isr, icdx.isr(estimate, own))
    elapsed = time.monotonic() - start

    ok = (worst_gain_dev <= 1e-3 and worst_isr <= -40.0
          and all_converged and worst_iterations <= 100 and elapsed < 60.0)
    _verdict(2, ok,
             f"two-tone unmixing over 50 seeds: gain within {worst_gain_dev:.2e} "
             f"of a signed permutation (limit 1e-3), worst ISR "
             f"{worst_isr:.1f} dB (limit -40), worst iterations "
             f"{worst_iterations} (limit 100), converged {all_converged}, "
             f"{elapsed:.1f} s (limit 60)")


# --------------------------------------------------------------------------
# 3. Contrast functions: derivative consistency by central differences and
#    gaussian reference constants against a seeded Monte Carlo oracle.

def test_criterion_3_contrast_derivatives_and_references():
    grid = np.linspace(-5.0, 5.0, 201)
    h = 1e-5
    worst_fd = 0.0
    for contrast, shape in (("logcosh", 1.0), ("logcosh", 1.5), ("gauss", 1.0)):
        g, gprime = icdx.contrast_eval(grid, contrast, shape)
        fd_g = (icdx.contrast_primitive(grid + h, contrast, shape)
                - icdx.contrast_primitive(grid - h, contrast, shape)) / (2.0 * h)
        fd_gprime = (icdx.contrast_eval(grid + h, contrast, shape)[0]
                     - icdx.contrast_eval(grid - h, contrast, shape)[0]) / (2.0 * h)
        worst_fd = max(worst_fd,
                       float(np.max(np.abs(g - fd_g))),
                       float(np.max(np.abs(gprime - fd_gprime))))

    # Control-variate Monte Carlo oracle for E[G(nu)], nu ~ N(0, 1):
    # h = (z^2 - 1)/2 has zero mean and correlates strongly with every
    # even contrast primitive, cutting the estimator variance far below
    # the 1e-4 acceptance band at 1e7 samples.
    rng = np.random.default_rng(2024)
    z = rng.standard_normal(10_000_000)
    control = 0.5 * (z * z - 1.0)
    control_var = float(np.mean(control * control))

    def mc_reference(contrast: str, shape: float) -> float:
        if contrast == "logcosh":
            x = np.abs(shape * z)
            values = (x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)) / shape
        else:
            values = -np.exp(-0.5 * z * z)
        beta = float(np.mean(values * control)) / control_var
        return float(np.mean(values - beta * control))

    worst_mc = 0.0
    for contrast, shape in (("logcosh", 1.0), ("logcosh", 1.5), ("gauss", 1.0)):
        reference = icdx.gaussian_reference(contrast, shape)
        worst_mc = max(worst_mc, abs(reference - mc_reference(contrast, shape)))

    ok = worst_fd <= 1e-6 and worst_mc <= 1e-4
    _verdict(3, ok,
             f"contrast derivatives match central differences within "
             f"{worst_fd:.2e} (limit 1e-6) on [-5, 5]; gaussian reference "
             f"constants within {worst_mc:.2e} of the 1e7-sample Monte Carlo "
             f"oracle (limit 1e-4)")


# --------------------------------------------------------------------------
# 4. Strong crosstalk defeats direct demodulation but not the corrected path.

def test_criterion_4_strong_coupling_needs_correction():
    _, tracks, _, mixed = scenario_pair("shot-ramp", n=2**18,
                                        coupling=STRONG_COUPLING)
    lost_channels = []
    for channel, carrier in ((0, CARRIER_1), (1, CARRIER_2)):
        try:
            icdx.demodulate(mixed.data[channel], carrier, 40e3, 8, RATE)
        except icdx.PhaseTrackingLostError:
            lost_channels.append(channel)

    corrected, _, _ = separate(mixed, seed=0)
    worst_rms = 0.0
    corrected_held = True
    for channel, carrier in ((0, CARRIER_1), (1, CARRIER_2)):
        phase = icdx.demodulate(corrected.data[channel], carrier, 40e3, 8, RATE)
        corrected_held &= not phase.tracking_lost
        keep = slice(phase.settle, len(phase) - phase.settle)
        error = phase.samples[keep] - tracks[channel].samples[::8][keep]
        worst_rms = max(worst_rms, float(np.sqrt(np.mean(error**2))))

    ok = len(lost_channels) >= 1 and corrected_held and worst_rms < 1e-2
    _verdict(4, ok,
             f"0.9 coupling: direct demodulation loses tracking on channels "
             f"{lost_channels}, corrected path holds with worst phase rms "
             f"{worst_rms:.2e} rad (limit 1e-2)")


# --------------------------------------------------------------------------
# 5. End-to-end density recovery, with and without noise, and exact
#    vibration cancellation in the two-color combination.

def _density_rel_rms(snr_db=None) -> float:
    params, tracks, _, mixed = scenario_pair("shot-ramp", n=2**18, snr_db=snr_db)
    corrected, _, _ = separate(mixed, seed=0)
    phase1 = icdx.demodulate(corrected.data[0], CARRIER_1, 40e3, 8, RATE)
    phase2 = icdx.demodulate(corrected.data[1], CARRIER_2, 40e3, 8, RATE)
    density = icdx.line_integrated_density(phase1, phase2, params)
    lam1, lam2 = params.wavelength1, params.wavelength2
    denom = params.electron_radius * (lam1**2 - lam2**2)
    truth = (tracks[0].samples * lam1 - tracks[1].samples * lam2) / denom
    keep = slice(density.settle, len(density) - density.settle)
    return relative_rms(density.samples[keep], truth[::8][keep])


def test_criterion_5_density_recovery_and_vibration_rejection():
    rel_clean = _density_rel_rms()
    rel_noisy = _density_rel_rms(snr_db=30.0)

    params = icdx.InterferometerParams()
    track1, track2 = icdx.make_scenario_tracks("vibration-only", 2**16, RATE, params)
    phase1 = icdx.PhaseSeries(track1.samples, RATE, CARRIER_1, 1, 0)
    phase2 = icdx.PhaseSeries(track2.samples, RATE, CARRIER_2, 1, 0)
    density = icdx.line_integrated_density(phase1, phase2, params)
    lam1, lam2 = params.wavelength1, params.wavelength2
    single_term = np.max(np.abs(track2.samples * lam2)) / (
        params.electron_radius * (lam1**2 - lam2**2))
    vibration_ratio = float(np.max(np.abs(density.samples)) / single_term)

    ok = rel_clean < 1e-3 and rel_noisy < 5e-2 and vibration_ratio <= 1e-9
    _verdict(5, ok,
             f"density relative rms {rel_clean:.2e} noiseless (limit 1e-3), "
             f"{rel_noisy:.2e} at 30 dB SNR (limit 5e-2); vibration-only "
             f"residual {vibration_ratio:.2e} of the single-channel term "
             f"(limit 1e-9)")


# --------------------------------------------------------------------------
# 6. Frequency diplexing: a short FIR alone leaves gross leakage, the
#    FIR + ICA cascade removes it, outputs normalized.

def test_criterion_6_diplexer_cleans_what_short_fir_cannot():
    rate, tone_a, tone_b, n = 200e6, 25e6, 40e6, 2**17
    t = np.arange(n) / rate
    composite = np.sin(2.0 * np.pi * tone_a * t) + np.sin(2.0 * np.pi * tone_b * t + 0.7)

    fir_only, separated, _ = icdx.diplex(composite, tone_a, tone_b, 5,
                                         icdx.FastIcaConfig(seed=0), rate)

    fir_residuals = (icdx.cross_tone_residual_db(fir_only.data[0], tone_a, tone_b, rate),
                     icdx.cross_tone_residual_db(fir_only.data[1], tone_b, tone_a, rate))
    ica_residuals = (icdx.cross_tone_residual_db(separated.data[0], tone_a, tone_b, rate),
                     icdx.cross_tone_residual_db(separated.data[1], tone_b, tone_a, rate))
    worst_mean = float(np.max(np.abs(separated.data.mean(axis=1))))
    worst_peak_dev = float(np.max(np.abs(np.max(np.abs(separated.data), axis=1) - 1.0)))

    ok = (all(r > -20.0 for r in fir_residuals)
          and all(r <= -40.0 for r in ica_residuals)
          and worst_mean <= 1e-6 and worst_peak_dev <= 1e-3)
    _verdict(6, ok,
             f"order-5 FIR alone leaks {fir_residuals[0]:.1f}/"
             f"{fir_residuals[1]:.1f} dB (worse than -20), FIR + ICA reaches "
             f"{ica_residuals[0]:.1f}/{ica_residuals[1]:.1f} dB (limit -40); "
             f"means within {worst_mean:.1e} of zero, peaks within "
             f"{worst_peak_dev:.1e} of one")


# --------------------------------------------------------------------------
# 7. Under strong coupling and 30 dB noise the corrected density path beats
#    the uncorrected one by at least 20 dB; an uncorrected path that cannot
#    track at all is the extreme case of the same claim.

def test_criterion_7_correction_buys_20_db_of_density_snr():
    cutoff = 150e3  # wide enough to admit the inter-carrier beat as stress
    params, tracks, _, mixed = scenario_pair("shot-ramp", n=2**18,
                                             coupling=STRONG_COUPLING)
    noisy = icdx.add_awgn(mixed, 30.0, 11)
    lam1, lam2 = params.wavelength1, params.wavelength2
    denom = params.electron_radius * (lam1**2 - lam2**2)
    truth = ((tracks[0].samples * lam1 - tracks[1].samples * lam2) / denom)[::8]

    def density_snr(pair) -> float:
        phase1 = icdx.demodulate(pair.data[0], CARRIER_1, cutoff, 8, RATE)
        phase2 = icdx.demodulate(pair.data[1], CARRIER_2, cutoff, 8, RATE)
        density = icdx.line_integrated_density(phase1, phase2, params)
        keep = slice(density.settle, len(density) - density.settle)
        return icdx.snr(density.samples[keep], truth[keep])

    uncorrected_lost = False
    snr_without = None
    try:
        snr_without = density_snr(noisy)
    except icdx.PhaseTrackingLostError:
        uncorrected_lost = True

    corrected, _, _ = separate(noisy, seed=0)
    snr_with = density_snr(corrected)

    if uncorrected_lost:
        ok = np.isfinite(snr_with)
        detail = "uncorrected path cannot track at all"
    else:
        ok = snr_with >= snr_without + 20.0
        detail = f"uncorrected path reaches {snr_without:.1f} dB"
    _verdict(7, ok,
             f"0.9 coupling at 30 dB input SNR: corrected density SNR "
             f"{snr_with:.1f} dB; {detail} (required margin 20 dB)")


# --------------------------------------------------------------------------
# 8. Every pipeline stage re-runs byte-identically from its manifest.

def _assert_identical(first: Path, second: Path, names: tuple[str, ...]) -> list[str]:
    return [name for name in names
            if (first / name).read_bytes() != (second / name).read_bytes()]


def test_criterion_8_manifest_reruns_are_byte_identical(tmp_path):
    base = tmp_path / "gen"
    assert main(["gen", "--out-dir", str(base), "--samples", "65536"]) == 0
    differing: list[str] = []

    re_gen = tmp_path / "gen2"
    assert main(["gen", "--config", str(base / "manifest.cfg"),
                 "--out-dir", str(re_gen)]) == 0
    differing += _assert_identical(base, re_gen, (
        "clean.bin", "mixed.bin", "tracks.csv", "density_truth.csv",
        "manifest.cfg"))

    mix1, mix2 = tmp_path / "mix1", tmp_path / "mix2"
    assert main(["mix", "--in", str(base / "clean.bin"),
                 "--coupling", "1,0.6;0.5,1", "--out-dir", str(mix1)]) == 0
    assert main(["mix", "--config", str(mix1 / "mix_manifest.cfg"),
                 "--in", str(base / "clean.bin"), "--out-dir", str(mix2)]) == 0
    differing += _assert_identical(mix1, mix2, ("mixed.bin", "mix_manifest.cfg"))

    unmix1, unmix2 = tmp_path / "unmix1", tmp_path / "unmix2"
    assert main(["unmix", "--in", str(base / "mixed.bin"),
                 "--truth", str(base / "clean.bin"), "--out-dir", str(unmix1)]) == 0
    assert main(["unmix", "--config", str(unmix1 / "unmix_manifest.cfg"),
                 "--in", str(base / "mixed.bin"),
                 "--truth", str(base / "clean.bin"), "--out-dir", str(unmix2)]) == 0
    differing += _assert_identical(unmix1, unmix2, (
        "corrected.bin", "separation.cfg", "whitening.cfg", "quality.cfg",
        "unmix_manifest.cfg"))

    dens1, dens2 = tmp_path / "dens1", tmp_path / "dens2"
    assert main(["density", "--in", str(unmix1 / "corrected.bin"),
                 "--truth", str(base / "density_truth.csv"),
                 "--out-dir", str(dens1)]) == 0
    assert main(["density", "--config", str(dens1 / "density_manifest.cfg"),
                 "--in", str(unmix1 / "corrected.bin"),
                 "--truth", str(base / "density_truth.csv"),
                 "--out-dir", str(dens2)]) == 0
    differing += _assert_identical(dens1, dens2, (
        "density.csv", "density_report.cfg", "density_manifest.cfg"))

    diplex1, diplex2 = tmp_path / "diplex1", tmp_path / "diplex2"
    assert main(["diplex", "--out-dir", str(diplex1),
                 "--diplex-samples", "16384"]) == 0
    assert main(["diplex", "--config", str(diplex1 / "diplex_manifest.cfg"),
                 "--out-dir", str(diplex2)]) == 0
    differing += _assert_identical(diplex1, diplex2, (
        "diplex_fir_only.bin", "diplex_separated.bin", "diplex_report.cfg",
        "diplex_manifest.cfg"))

    _verdict(8, not differing,
             f"gen, mix, unmix, density, and diplex re-run byte-identically "
             f"from their manifests"
             + (f"; differing files: {differing}" if differing else ""))
