"""Fixed-point search, contrasts, stability checks, identification."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icdx
from icdx.fastica import _BLOCK, _CHUNK, _update

from helpers import (
    CARRIER_1,
    CARRIER_2,
    RATE,
    hann_band_power_db,
    scenario_pair,
    separate,
    two_tone_clean,
)

_FD_POINTS = np.array([-2.0, -1.0, 0.5, 3.0])


def _mixed_pair(n: int = 2**16) -> tuple[icdx.MultichannelSignal, icdx.MultichannelSignal]:
    clean = two_tone_clean(n)
    mixed = icdx.apply_crosstalk(clean, np.array([[1.0, 0.4], [0.3, 1.0]]))
    return clean, mixed


@pytest.mark.parametrize("contrast,shape", [
    ("logcosh", 1.0), ("logcosh", 1.5), ("logcosh", 2.0), ("gauss", 1.0)])
def test_contrast_derivative_chain(contrast, shape):
    # Central finite differences: d/du G(u) must match g(u), and
    # d/du g(u) must match g'(u). Truncation error is O(h^2) ~ 1e-10.
    h = 1e-5
    g, gprime = icdx.contrast_eval(_FD_POINTS, contrast, shape)
    big_hi = icdx.contrast_primitive(_FD_POINTS + h, contrast, shape)
    big_lo = icdx.contrast_primitive(_FD_POINTS - h, contrast, shape)
    assert np.max(np.abs((big_hi - big_lo) / (2.0 * h) - g)) < 1e-6
    g_hi, _ = icdx.contrast_eval(_FD_POINTS + h, contrast, shape)
    g_lo, _ = icdx.contrast_eval(_FD_POINTS - h, contrast, shape)
    assert np.max(np.abs((g_hi - g_lo) / (2.0 * h) - gprime)) < 1e-6


def test_contrast_hand_values():
    g, gprime = icdx.contrast_eval(np.array([0.0]), "logcosh", 1.0)
    assert g[0] == 0.0 and gprime[0] == 1.0
    g, gprime = icdx.contrast_eval(np.array([0.0, 1.0]), "gauss")
    assert g[0] == 0.0 and gprime[0] == 1.0
    assert abs(g[1] - math.exp(-0.5)) < 1e-15
    assert abs(icdx.contrast_primitive(np.array([0.0]), "gauss")[0] + 1.0) < 1e-15
    with pytest.raises(ValueError):
        icdx.contrast_eval(np.zeros(1), "cubic")


def test_contrast_primitive_overflow_safe():
    # Naive log(cosh(u)) overflows past u ~ 710. The safe form must
    # return the asymptote |u| - log(2)/shape to full precision.
    for shape in (1.0, 2.0):
        u = np.array([-800.0, 800.0])
        got = icdx.contrast_primitive(u, "logcosh", shape)
        expected = np.abs(u) - math.log(2.0) / shape
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) < 1e-12


def test_gaussian_reference_frozen_values():
    # gauss has the closed form E[-exp(-nu^2/2)] = -1/sqrt(2). The
    # log-cosh values are pinned 32-node Gauss-Hermite results.
    assert abs(icdx.gaussian_reference("gauss") + 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(icdx.gaussian_reference("logcosh", 1.0) - 0.37456723498753747) < 1e-12
    assert abs(icdx.gaussian_reference("logcosh", 1.5) - 0.46729083646508685) < 1e-12
    # An unknown contrast is refused every time: a refusal is never cached.
    for _ in range(2):
        with pytest.raises(ValueError, match="^unknown contrast 'tanh'$"):
            icdx.gaussian_reference("tanh")


@pytest.mark.parametrize("shape,tol", [(1.0, 1e-7), (1.5, 1e-5), (2.0, 1e-4)])
def test_gaussian_reference_quadrature_accuracy(shape, tol):
    # Independent oracle: 64-node Gauss-Hermite on the same integrand.
    # The integrand has |u|-like tails so doubling the node count keeps
    # shrinking the error; the 32-node value must sit within the stated
    # band of the finer rule.
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    values = icdx.contrast_primitive(math.sqrt(2.0) * nodes, "logcosh", shape)
    reference = float(np.sum(weights * values) / math.sqrt(math.pi))
    assert abs(icdx.gaussian_reference("logcosh", shape) - reference) < tol


def _negentropy(y, contrast="logcosh", shape=1.0):
    """The surrogate (E[G(y)] - E[G(nu)])^2 that each unit maximizes, for standardized y."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("y must be a 1-D series with at least 2 samples")
    if abs(float(y.mean())) > 1e-3 or abs(float(y.var()) - 1.0) > 1e-3:
        raise ValueError("y must be standardized")
    diff = (float(np.mean(icdx.contrast_primitive(y, contrast, shape)))
            - icdx.gaussian_reference(contrast, shape))
    return diff * diff


def test_negentropy_gaussian_sample_near_zero():
    rng = np.random.default_rng(42)
    y = rng.standard_normal(1_000_000)
    y = (y - y.mean()) / y.std()
    assert _negentropy(y, "logcosh") < 1e-4
    assert _negentropy(y, "gauss") < 1e-4


def test_negentropy_sine_clearly_positive():
    t = np.arange(1_000_000)
    y = np.sqrt(2.0) * np.sin(2.0 * np.pi * 0.1237 * t)
    y = (y - y.mean()) / y.std()
    assert _negentropy(y, "logcosh") > 1e-3
    assert _negentropy(y, "gauss") > 3e-3


def test_negentropy_requires_standardized_input():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="standardized"):
        _negentropy(rng.standard_normal(1000) + 1.0)
    with pytest.raises(ValueError, match="standardized"):
        _negentropy(3.0 * rng.standard_normal(1000))
    with pytest.raises(ValueError):
        _negentropy(np.zeros((2, 100)))


def test_config_validation():
    with pytest.raises(ValueError):
        icdx.FastIcaConfig(contrast="cubic")
    with pytest.raises(ValueError):
        icdx.FastIcaConfig(contrast_shape=0.5)
    with pytest.raises(ValueError):
        icdx.FastIcaConfig(tol=0.0)
    with pytest.raises(ValueError):
        icdx.FastIcaConfig(max_iter=0)
    with pytest.raises(ValueError):
        icdx.FastIcaConfig(ortho="qr")


def _one_unit(data: np.ndarray, w: np.ndarray, cfg: icdx.FastIcaConfig, budget: int):
    """(w, iterations, converged): the normalized update from w, with no basis to deflate."""
    for iterations in range(1, budget + 1):
        w_new = _update(data, w, cfg)
        w_new /= np.linalg.norm(w_new)
        delta = 1.0 - abs(float(w_new @ w))
        w = w_new
        if delta <= cfg.tol:
            return w, iterations, True
    return w, budget, False


def test_update_keeps_a_fitted_direction_in_one_step():
    # A true component direction is a fixed point of the update, so
    # restarting exactly there must converge immediately.
    _, mixed = _mixed_pair()
    whitened, transform = icdx.whiten(mixed)
    cfg = icdx.FastIcaConfig(seed=0)
    settled = icdx.fit(whitened, cfg, transform)
    w, iterations, converged = _one_unit(whitened.data, settled.w[0], cfg, 1)
    assert converged
    assert iterations == 1
    assert abs(float(w @ settled.w[0])) > 1.0 - 1e-8


def test_update_from_basis_vector_isolates_a_tone():
    _, mixed = _mixed_pair()
    whitened, _ = icdx.whiten(mixed)
    w, iterations, converged = _one_unit(
        whitened.data, np.array([1.0, 0.0]), icdx.FastIcaConfig(seed=0), 50)
    assert converged and iterations <= 50
    component = w @ whitened.data
    split_db = hann_band_power_db(component, CARRIER_1, CARRIER_2, RATE)
    # One carrier must dominate the other by 60 dB or more; which one
    # wins depends on the start and is not part of the contract.
    assert abs(split_db) > 60.0


@pytest.mark.parametrize("contrast", ["logcosh", "gauss"])
def test_fit_separates_coupled_tones(contrast):
    clean, mixed = _mixed_pair()
    corrected, result, _ = separate(mixed, seed=0, contrast=contrast)
    assert all(result.converged)
    assert all(it <= 100 for it in result.iterations)
    for i in range(2):
        assert icdx.isr(corrected.data[i], clean.data[i]) <= -40.0


def test_fit_seed_sweep_always_finds_maximizers():
    # Diagonal directions between two symmetric sub-Gaussian sources
    # are saddle fixed points of the update; the stability check in
    # fit() must reject them for every start. Several of these seeds
    # are known to hit a saddle on the first pass.
    clean, mixed = _mixed_pair()
    for seed in range(20):
        corrected, result, _ = separate(mixed, seed=seed)
        assert all(result.converged), f"seed {seed}"
        for i in range(2):
            assert icdx.isr(corrected.data[i], clean.data[i]) <= -40.0, f"seed {seed}"


def test_fit_symmetric_mode():
    clean, mixed = _mixed_pair()
    corrected, result, _ = separate(mixed, seed=0, ortho="symmetric")
    assert all(result.converged)
    # Symmetric mode shares one sweep count across rows.
    assert len(set(result.iterations)) == 1
    for i in range(2):
        assert icdx.isr(corrected.data[i], clean.data[i]) <= -40.0


def test_fit_bitwise_deterministic():
    _, mixed = _mixed_pair(2**14)
    whitened, transform = icdx.whiten(mixed)
    cfg = icdx.FastIcaConfig(seed=7)
    first = icdx.fit(whitened, cfg, transform)
    second = icdx.fit(whitened, cfg, transform)
    assert np.array_equal(first.w, second.w)
    assert np.array_equal(first.w_full, second.w_full)
    assert first.iterations == second.iterations


def test_fit_already_white_sources_passthrough():
    # Unit-variance tones over integer cycle counts are exactly white,
    # so the rotation to find is a signed permutation.
    n = 81920
    clean = two_tone_clean(n)
    white = icdx.MultichannelSignal(np.sqrt(2.0) * clean.data, RATE)
    result = icdx.fit(white, icdx.FastIcaConfig(seed=3))
    dev_id = np.max(np.abs(np.abs(result.w) - np.eye(2)))
    dev_swap = np.max(np.abs(np.abs(result.w) - np.eye(2)[::-1]))
    assert min(dev_id, dev_swap) < 1e-6


def test_fit_reports_nonconvergence_in_flags():
    # An exhausted budget is recorded, not raised; the caller decides.
    _, mixed = _mixed_pair(2**14)
    whitened, _ = icdx.whiten(mixed)
    result = icdx.fit(whitened, icdx.FastIcaConfig(seed=0, max_iter=2, tol=1e-15))
    assert not all(result.converged)


def _one_shot_update(data: np.ndarray, w: np.ndarray, cfg: icdx.FastIcaConfig) -> np.ndarray:
    """E[b g(w.T b)] - E[g'(w.T b)] w over the whole record at once, before projection."""
    g, gprime = icdx.contrast_eval(w @ data, cfg.contrast, cfg.contrast_shape)
    return (data @ g.T).T / data.shape[1] - gprime.mean(axis=-1, keepdims=True) * w


def _one_chunk_update(data: np.ndarray, w: np.ndarray, cfg: icdx.FastIcaConfig) -> np.ndarray:
    """The one-shot update with the sum of g' taken from g, as fit()'s update takes it."""
    n, shape = data.shape[1], cfg.contrast_shape
    u = w @ data
    if cfg.contrast == "logcosh":
        g = np.tanh(shape * u)
        gprime_sum = shape * (n - np.vecdot(g, g))
    else:
        e = np.exp(-0.5 * u * u)
        g = u * e
        gprime_sum = e.sum(axis=-1) - np.vecdot(u, g)
    return (data @ g.T).T / n - (gprime_sum / n)[..., None] * w


def _full_record_fit(data: np.ndarray, cfg: icdx.FastIcaConfig):
    """The fit with every unit settled on the whole record, written out with numpy.

    Same seeded starts and kicks, stopping rule, stability check and
    update as fit(), with no leading block and no polish; the last
    deflation unit is its deflated start. Returns (w, iterations, converged).
    """
    c, n = data.shape
    rng = np.random.default_rng(cfg.seed)

    def polar(w):
        u, _, vt = np.linalg.svd(w)
        return u @ vt

    def iterate(w, project, budget):
        for it in range(1, budget + 1):
            w_new = project(_update(data, w, cfg))
            delta = 1.0 - np.min(np.abs(np.sum(w_new * w, axis=-1)))
            w = w_new
            if delta <= cfg.tol:
                return w, it, True
        return w, budget, False

    if cfg.ortho == "symmetric":
        w, sweeps, ok = iterate(polar(rng.standard_normal((c, c))), polar, cfg.max_iter)
        for _ in range(3):
            if not ok:
                break
            kicked = polar(w + 1e-2 * rng.standard_normal((c, c)))
            w_try, used, resumed = iterate(kicked, polar, max(cfg.max_iter - sweeps, 1))
            sweeps += used
            match = np.min(np.abs(np.sum(w_try * w, axis=1)))
            w = w_try
            if resumed and match >= 1.0 - 1e-5:
                break
            ok = resumed
        return w, (sweeps,) * c, (ok,) * c

    rows, counts, flags = [], [], []
    for _ in range(c):
        basis = np.array(rows).reshape(-1, c)

        def project(w, basis=basis):
            w = w - basis.T @ (basis @ w)
            return w / np.linalg.norm(w)

        w = rng.standard_normal(c)
        w = w / np.linalg.norm(w)
        if rows:
            w = project(w)
        if len(rows) == c - 1:
            rows.append(w)
            counts.append(0)
            flags.append(True)
            break
        w, total, ok = iterate(w, project, cfg.max_iter)
        for _ in range(3):
            if not ok:
                break
            kick = rng.standard_normal(c)
            kick = kick - basis.T @ (basis @ kick)
            kick = kick - (kick @ w) * w
            w_try = w + 1e-2 * kick / np.linalg.norm(kick)
            w_new, used, ok = iterate(w_try / np.linalg.norm(w_try), project, cfg.max_iter)
            total += used
            if abs(w_new @ w) >= 1.0 - 1e-5:
                w = w_new
                break
            w = w_new
        rows.append(w)
        counts.append(total)
        flags.append(ok)
    w = np.array(rows)
    for i in range(1, c):
        w[i] = w[i] - w[:i].T @ (w[:i] @ w[i])
        w[i] /= np.linalg.norm(w[i])
    return w, tuple(counts), tuple(flags)


def _fir_split_pair(n: int) -> tuple[icdx.MultichannelSignal, dict[str, float]]:
    """Nearly collinear narrow-band inputs: a 200 MHz two-tone composite through fir_split."""
    rate, tone_a, tone_b = 200e6, 25e6, 40e6
    t = np.arange(n) / rate
    composite = 1.2 * np.sin(2.0 * np.pi * tone_a * t + 0.3) + 0.7 * np.sin(
        2.0 * np.pi * tone_b * t + 1.1)
    return icdx.fir_split(composite, tone_a, tone_b, 32, rate), {"a": tone_a, "b": tone_b}


@pytest.mark.parametrize("source", ["coupled", "fir_split"])
@pytest.mark.parametrize("ortho", ["deflation", "symmetric"])
@pytest.mark.parametrize("n", [2**17, 2**20])
def test_coarse_to_fine_matches_full_record_fit(n, ortho, source):
    # Past 2 * 2^15 samples fit() settles on the leading block and polishes
    # on the whole record; it must land where the full-record fit does.
    if source == "coupled":
        mixed = scenario_pair("shot-ramp", n=n, snr_db=30.0)[3]
        expected = {"ch1": CARRIER_1, "ch2": CARRIER_2}
    else:
        mixed, expected = _fir_split_pair(n)
    whitened, transform = icdx.whiten(mixed)
    cfg = icdx.FastIcaConfig(seed=0, ortho=ortho)
    result = icdx.fit(whitened, cfg, transform)
    w_ref, _, converged_ref = _full_record_fit(whitened.data, cfg)
    assert all(result.converged) and converged_ref == result.converged
    signs = np.sign(np.sum(result.w * w_ref, axis=1))
    assert np.max(np.abs(result.w - signs[:, None] * w_ref)) <= 1e-8
    reference = icdx.SeparationResult(
        w=w_ref, iterations=result.iterations, converged=converged_ref,
        assignment=result.assignment)
    assert (icdx.identify_components(icdx.unmix(mixed, result, transform), expected)
            == icdx.identify_components(icdx.unmix(mixed, reference, transform), expected))


@pytest.mark.parametrize("n", [2**14, 2**17])
def test_last_deflation_unit_takes_no_update(n):
    # The accepted row fixes the last direction up to sign: no update, no kick.
    _, mixed = _mixed_pair(n)
    whitened, _ = icdx.whiten(mixed)
    result = icdx.fit(whitened, icdx.FastIcaConfig(seed=5))
    assert result.iterations[-1] == 0 and all(result.converged)
    accepted, last = result.w[:-1], result.w[-1]
    assert np.max(np.abs(accepted @ last)) <= 1e-15
    assert abs(np.linalg.norm(last) - 1.0) <= 1e-15


def test_last_row_sign_leaves_corrected_record_unchanged(monkeypatch):
    # Identification fixes each row's sign, so the last unit's sign is free.
    _, mixed = _mixed_pair(2**17)
    corrected, result, _ = separate(mixed, seed=5)
    fit = icdx.fastica.fit

    def fit_last_row_negated(b, cfg, transform=None):
        fitted = fit(b, cfg, transform)
        w, w_full = fitted.w.copy(), fitted.w_full.copy()
        w[-1] *= -1.0
        w_full[-1] *= -1.0
        return dataclasses.replace(fitted, w=w, w_full=w_full)

    monkeypatch.setattr(icdx.fastica, "fit", fit_last_row_negated)
    flipped, flipped_result, _ = separate(mixed, seed=5)
    assert np.array_equal(flipped_result.w[-1], -result.w[-1])
    assert flipped_result.assignment.perm == result.assignment.perm
    assert flipped_result.assignment.signs != result.assignment.signs
    assert np.array_equal(flipped.data, corrected.data)


@pytest.mark.parametrize("ortho", ["deflation", "symmetric"])
def test_unconverged_block_falls_back_to_full_record_settle(ortho):
    # One update settles neither the block nor the record: the unit starts
    # over on the record from the same start, and counts both tries.
    _, mixed = _mixed_pair(2**17)
    whitened, _ = icdx.whiten(mixed)
    cfg = icdx.FastIcaConfig(seed=0, max_iter=1, ortho=ortho)
    result = icdx.fit(whitened, cfg)
    w_ref, iterations_ref, converged_ref = _full_record_fit(whitened.data, cfg)
    assert not result.converged[0] and not converged_ref[0]
    assert np.array_equal(result.w[0], w_ref[0])
    assert np.max(np.abs(result.w - w_ref)) <= 1e-12
    assert result.iterations[0] == 1 + iterations_ref[0]


_UPDATE_LENGTHS = st.one_of(
    st.integers(2, 4 * _CHUNK),
    st.builds(lambda k, off: k * _CHUNK + off, st.integers(1, 3), st.integers(-2, 2)))


@settings(deadline=None, max_examples=60)
@given(_UPDATE_LENGTHS, st.sampled_from([(2, ()), (3, ()), (2, (2,)), (3, (3,))]),
       st.sampled_from([("logcosh", 1.0), ("logcosh", 1.7), ("gauss", 1.0)]),
       st.integers(0, 2**32 - 1))
def test_streamed_update_matches_one_shot_formula(n, dims, contrast, seed):
    # Below, at and off multiples of the chunk; one unit or all rows at once.
    c, rows = dims
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((c, n))
    w = rng.standard_normal(rows + (c,))
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    cfg = icdx.FastIcaConfig(contrast=contrast[0], contrast_shape=contrast[1])
    streamed = _update(data, w, cfg)
    assert streamed.shape == w.shape
    assert np.max(np.abs(streamed - _one_shot_update(data, w, cfg))) <= 1e-12


@pytest.mark.parametrize("ortho", ["deflation", "symmetric"])
@pytest.mark.parametrize("n", [5000, _CHUNK])
def test_record_of_one_chunk_fits_bit_identically(n, ortho, monkeypatch):
    # One chunk holds the whole record, so the streamed sums are the one-shot ones.
    _, mixed = _mixed_pair(n)
    whitened, _ = icdx.whiten(mixed)
    cfg = icdx.FastIcaConfig(seed=3, ortho=ortho)
    result = icdx.fit(whitened, cfg)
    monkeypatch.setattr(icdx.fastica, "_update", _one_chunk_update)
    reference = icdx.fit(whitened, cfg)
    assert all(result.converged) and result.iterations == reference.iterations
    assert np.array_equal(result.w, reference.w)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ortho", ["deflation", "symmetric"])
def test_fit_temporaries_are_chunk_sized(ortho):
    # At 2^18 samples one record-length temporary is 2 MB; the update makes none.
    mixed = scenario_pair("shot-ramp", n=2**18, snr_db=30.0)[3]
    whitened, transform = icdx.whiten(mixed)
    cfg = icdx.FastIcaConfig(seed=0, ortho=ortho)
    assert _traced_peak(lambda: icdx.fit(whitened, cfg, transform)) < 2 * 2**20


def test_separation_stage_allocates_one_record_per_stage():
    # At 2^18 x 2 one record is 4 MB. whiten and unmix each make their
    # output and chunk-sized temporaries only; separate drops the whitened
    # record before its one full-record product.
    mixed = scenario_pair("shot-ramp", n=2**18, snr_db=30.0)[3]
    record = mixed.data.nbytes
    cfg = icdx.FastIcaConfig(seed=0)
    whitened, transform = icdx.whiten(mixed)
    result = icdx.fit(whitened, cfg, transform)
    del whitened
    assert _traced_peak(lambda: icdx.whiten(mixed)) <= record + 2**20
    assert _traced_peak(lambda: icdx.unmix(mixed, result, transform)) <= record + 2**20
    expected = {"ch1": CARRIER_1, "ch2": CARRIER_2}
    assert _traced_peak(lambda: icdx.separate(mixed, cfg, expected)) <= record + 2 * 2**20


def test_fit_whitened_input_enforced():
    _, mixed = _mixed_pair(2**12)
    with pytest.raises(ValueError, match="not whitened"):
        icdx.fit(mixed, icdx.FastIcaConfig())


def test_w_full_composition_and_unmix_equivalence():
    _, mixed = _mixed_pair()
    whitened, transform = icdx.whiten(mixed)
    result = icdx.fit(whitened, icdx.FastIcaConfig(seed=0), transform)
    assert np.array_equal(result.w_full, result.w @ transform.whitener)
    # unmix on the raw signal equals applying w_full to centered data.
    via_unmix = icdx.unmix(mixed, result, transform)
    direct = result.w_full @ (mixed.data - transform.mean[:, None])
    assert np.max(np.abs(via_unmix.data - direct)) < 1e-12


def test_unmix_channel_mismatch_raises():
    _, mixed = _mixed_pair(2**12)
    whitened, transform = icdx.whiten(mixed)
    result = icdx.fit(whitened, icdx.FastIcaConfig(seed=0))
    wrong = icdx.MultichannelSignal(np.zeros((3, 64)), RATE)
    with pytest.raises(ValueError, match="channels"):
        icdx.unmix(wrong, result, transform)


def test_separation_result_validation_and_mapping(tmp_path):
    with pytest.raises(ValueError, match="orthonormal"):
        icdx.SeparationResult(
            w=np.array([[1.0, 0.0], [0.6, 0.8]]),
            iterations=(1, 1),
            converged=(True, True),
            assignment=icdx.Assignment(("a", "b"), (0, 1), (1, 1)))
    result = icdx.SeparationResult(
        w=np.eye(2), iterations=(3, 4), converged=(True, False),
        assignment=icdx.Assignment(("a", "b"), (1, 0), (1, -1)))
    path = tmp_path / "separation.cfg"
    icdx.write_kv(path, result.to_mapping())
    values = icdx.read_kv(path).values
    assert values["iterations"] == "3,4"
    assert values["converged"] == "1,0"
    assert values["labels"] == "a,b"
    assert values["perm"] == "1,0"
    assert values["signs"] == "1,-1"
    assert "w_full" not in values


def test_assignment_apply_hand_case():
    rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = icdx.Assignment(("x", "y"), (1, 0), (1, -1)).apply_rows(rows)
    assert np.array_equal(out, [[4.0, 5.0, 6.0], [-1.0, -2.0, -3.0]])
    with pytest.raises(ValueError):
        icdx.Assignment(("x",), (0, 1), (1, 1))
    with pytest.raises(ValueError):
        icdx.Assignment(("x", "y"), (0, 0), (1, 1))
    with pytest.raises(ValueError):
        icdx.Assignment(("x", "y"), (0, 1), (1, 2))


def test_identify_components_swap_and_sign():
    # Components arrive swapped and one is negated; identification must
    # undo both so labeled outputs are positively aligned carriers.
    n = 81920
    clean = two_tone_clean(n)
    components = icdx.MultichannelSignal(
        np.vstack([clean.data[1], -clean.data[0]]), RATE)
    assignment = icdx.identify_components(
        components, {"ch1": CARRIER_1, "ch2": CARRIER_2})
    assert assignment.labels == ("ch1", "ch2")
    assert assignment.perm == (1, 0)
    assert assignment.signs == (-1, 1)
    restored = assignment.apply_rows(components.data)
    assert np.max(np.abs(restored - clean.data)) < 1e-12


@pytest.mark.parametrize("coupling", [None, np.array([[0.3, 1.0], [1.0, -0.4]])])
def test_separate_is_identify_after_unmix(coupling):
    # The stage is its layers in order: the same assignment, the same bytes.
    mixed = scenario_pair(n=2**16, coupling=coupling, snr_db=30.0)[3]
    expected = {"ch1": CARRIER_1, "ch2": CARRIER_2}
    cfg = icdx.FastIcaConfig(seed=0)
    corrected, result, _ = icdx.separate(mixed, cfg, expected)
    whitened, transform = icdx.whiten(mixed)
    components = icdx.unmix(mixed, icdx.fit(whitened, cfg, transform), transform)
    assignment = icdx.identify_components(components, expected)
    assert result.assignment == assignment
    assert np.array_equal(corrected.data, assignment.apply_rows(components.data))


def _whole_record_perm(components: icdx.MultichannelSignal, expected: dict) -> tuple:
    """The component each carrier takes when peaks come from the whole record.

    Each peak is the first largest rfft bin above DC; a carrier takes the
    component whose peak is nearest, and two carriers on one component
    raise. Signs read the leading samples whatever the peak rule, so the
    permutation is all the rule decides.
    """
    magnitude = np.abs(np.fft.rfft(components.data, axis=1))[:, 1:]
    peaks = (1 + np.argmax(magnitude, axis=1)) * (components.sample_rate / components.length)
    perm = tuple(int(np.argmin(np.abs(peaks - freq))) for freq in expected.values())
    if len(set(perm)) != len(perm):
        raise icdx.IdentificationError("both match")
    return perm


@settings(deadline=None, max_examples=25)
@given(st.one_of(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1]),
                 st.integers(2**12, 2**18)),
       st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.floats(20.0, 60.0),
       st.integers(0, 2**16))
def test_block_identification_matches_the_whole_record(n, c12, c21, snr_db, seed):
    coupling = np.array([[1.0, c12], [c21, 1.0]])
    mixed = scenario_pair(n=n, coupling=coupling, snr_db=snr_db, noise_seed=seed)[3]
    whitened, transform = icdx.whiten(mixed)
    result = icdx.fit(whitened, icdx.FastIcaConfig(seed=seed), transform)
    components = icdx.unmix(mixed, result, transform)
    expected = {"ch1": CARRIER_1, "ch2": CARRIER_2}
    assert (icdx.identify_components(components, expected).perm
            == _whole_record_perm(components, expected))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, _BLOCK), st.integers(0, 2**32 - 1))
def test_records_within_one_block_identify_from_every_sample(n, seed):
    # Random components: the same peaks, so the same permutation or the same
    # collision.
    rng = np.random.default_rng(seed)
    components = icdx.MultichannelSignal(rng.standard_normal((2, n)), RATE)
    expected = {"a": float(rng.uniform(0.1e6, 3.9e6)), "b": float(rng.uniform(0.1e6, 3.9e6))}
    try:
        reference = _whole_record_perm(components, expected)
    except icdx.IdentificationError:
        with pytest.raises(icdx.IdentificationError, match="both match"):
            icdx.identify_components(components, expected)
    else:
        assert icdx.identify_components(components, expected).perm == reference


def test_identification_reads_only_the_leading_block():
    # A foreign tone far stronger than both carriers, added only after the
    # leading block, makes the whole-record rule collide and changes nothing.
    n = 2**17
    clean = two_tone_clean(n)
    components = icdx.MultichannelSignal(np.vstack([clean.data[1], -clean.data[0]]), RATE)
    expected = {"ch1": CARRIER_1, "ch2": CARRIER_2}
    tone = np.zeros(n)
    tone[_BLOCK:] = 100.0 * np.sin(2.0 * np.pi * 3.3e6 * np.arange(_BLOCK, n) / RATE)
    loud = components.with_data(components.data + tone)
    with pytest.raises(icdx.IdentificationError):
        _whole_record_perm(loud, expected)
    assignment = icdx.identify_components(loud, expected)
    assert assignment == icdx.identify_components(components, expected)
    assert assignment.perm == (1, 0) and assignment.signs == (-1, 1)


def test_identify_components_collision_raises():
    n = 2**14
    t = np.arange(n) / RATE
    components = icdx.MultichannelSignal(np.vstack([
        np.sin(2.0 * np.pi * 1.0e6 * t),
        np.sin(2.0 * np.pi * 3.0e6 * t),
    ]), RATE)
    with pytest.raises(icdx.IdentificationError, match="both match"):
        icdx.identify_components(components, {"a": 0.99e6, "b": 1.01e6})


def test_identify_components_validation():
    n = 4096
    t = np.arange(n) / RATE
    one = icdx.MultichannelSignal(np.sin(2.0 * np.pi * 1.0e6 * t)[None, :], RATE)
    with pytest.raises(ValueError, match="expected carriers"):
        icdx.identify_components(one, {"a": 1.0e6, "b": 2.0e6})
    with pytest.raises(ValueError, match="Nyquist"):
        icdx.identify_components(one, {"a": 5.0e6})
    two = icdx.MultichannelSignal(np.tile(one.data, (2, 1)), RATE)
    with pytest.raises(ValueError, match="distinct"):
        icdx.identify_components(two, {"a": 1.0e6, "b": 1.0e6})
