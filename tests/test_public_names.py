"""Every name a module lists in __all__ exists, so its star import succeeds,
and the package exports exactly the pinned public names."""

import importlib
import pkgutil

import pytest

import icdx

# The package's public surface. A name leaves this list only together
# with the CHANGES.md entry that records its removal.
PUBLIC = [
    "Assignment", "CLASSICAL_ELECTRON_RADIUS_M", "ConfigError", "ConvergenceError",
    "DensitySeries", "FastIcaConfig", "FirFilter", "FormatError", "IdentificationError",
    "InterferometerParams", "MultichannelSignal", "PhaseSeries", "PhaseTrack",
    "PhaseTrackingLostError", "RankDeficientError", "SeparationResult", "WhiteningTransform",
    "add_awgn", "apply_crosstalk", "carrier_band", "contrast_eval", "contrast_primitive",
    "cross_tone_residual_db", "demodulate", "design_fir_bandpass", "design_fir_lowpass",
    "diplex", "eigendecompose", "envelope_depth", "fir_split", "fit", "format_metric_value",
    "gaussian_reference", "identify_components", "isr", "line_integrated_density",
    "make_scenario_tracks", "parse_metric_value", "quantize_adc", "read_kv", "read_signal",
    "separate", "signed_permutation_error", "synth_clean_pair", "unmix", "whiten", "write_kv",
    "write_signal",
]

MODULES = ["icdx", *(f"icdx.{info.name}" for info in pkgutil.iter_modules(icdx.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_exports_each_module_name_once():
    # icdx.__all__ is the modules' lists joined: no name twice, each one
    # the module's own object, and the CLI's names stay in icdx.cli.
    assert len(icdx.__all__) == len(set(icdx.__all__))
    for module_name in MODULES[1:]:
        module = importlib.import_module(module_name)
        if module_name == "icdx.cli":
            assert not set(module.__all__) & set(icdx.__all__)
            continue
        for name in module.__all__:
            assert name in icdx.__all__ and getattr(icdx, name) is getattr(module, name)


def test_public_surface_is_pinned():
    assert sorted(icdx.__all__) == PUBLIC
