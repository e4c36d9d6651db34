"""Every separation reaches its layers through their module attributes.

A profiler or tracer observes a layer by replacing its module attribute
(icdx.preprocess.whiten, icdx.fastica.fit, ...). These tests install
counting wrappers the same way and check that each entry point into the
separation stage calls every layer exactly once, so no layer is called
through a name bound at import time, and none is called twice. The
diplexer's FIR split is counted too: a diplex run splits its composite
once. Spectral work is counted the same way on numpy, by input shape:
`icdx unmix` takes one full-length rfft per input channel for its four
depths and `icdx diplex` one per FIR branch for its four residuals;
identification adds one rfft of the components' leading block (at most
2^15 samples); nothing else is transformed forward and no window is
built. Each depth inverts its carrier band in P phases of n / P samples
(P = 4 at the default carriers), so `icdx unmix` takes no inverse
transform as long as the record, and `icdx diplex` takes none at all.
"""

import collections

import numpy as np
import pytest

import icdx
from icdx.cli import main
from icdx.fastica import _BLOCK

from helpers import CARRIER_1, CARRIER_2, scenario_pair

LAYERS = (
    (icdx.preprocess, "whiten"),
    (icdx.fastica, "fit"),
    (icdx.fastica, "unmix"),
    (icdx.fastica, "identify_components"),
)
ONCE = {name: 1 for _, name in LAYERS}
DIPLEX_ONCE = {**ONCE, "fir_split": 1}


def _count(monkeypatch, targets, key=lambda name, args: name):
    counts = collections.Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[key(name, args)] += 1
            return original(*args, **kwargs)
        return counted

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


@pytest.fixture
def calls(monkeypatch):
    return _count(monkeypatch, (*LAYERS, (icdx.diplexer, "fir_split")))


@pytest.fixture
def numpy_calls(monkeypatch):
    """Calls of np.fft.rfft, np.fft.ifft and np.hanning, keyed by name and input shape."""
    return _count(monkeypatch, ((np.fft, "rfft"), (np.fft, "ifft"), (np, "hanning")),
                  key=lambda name, args: (name, np.shape(args[0])))


def _spectral_pass(n: int) -> dict:
    """One full-length rfft per channel plus identification's block rfft."""
    return {("rfft", (n,)): 2, ("rfft", (2, min(n, _BLOCK))): 1}


def test_separate_calls_each_layer_once(calls):
    _, _, _, mixed = scenario_pair(n=2**14)
    icdx.separate(mixed, icdx.FastIcaConfig(seed=0), {"ch1": CARRIER_1, "ch2": CARRIER_2})
    assert calls == ONCE


def test_cli_unmix_calls_each_layer_once(calls, numpy_calls, tmp_path):
    n = 2 * _BLOCK  # identification reads only the leading half
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", str(n)]) == 0
    calls.clear()
    numpy_calls.clear()
    assert main(["unmix", "--in", str(tmp_path / "mixed.bin"),
                 "--out-dir", str(tmp_path)]) == 0
    assert calls == ONCE
    # Four depths, each four phases of a quarter of the record.
    assert numpy_calls == {**_spectral_pass(n), ("ifft", (n // 4,)): 16}


def test_diplex_calls_each_layer_once(calls):
    rate, tone_a, tone_b = 200.0e6, 25.0e6, 40.0e6
    t = np.arange(2**14) / rate
    composite = np.sin(2.0 * np.pi * tone_a * t) + 0.8 * np.sin(2.0 * np.pi * tone_b * t)
    icdx.diplex(composite, tone_a, tone_b, 5, icdx.FastIcaConfig(seed=0), sample_rate=rate)
    assert calls == DIPLEX_ONCE


def test_cli_diplex_splits_once(calls, numpy_calls, tmp_path):
    n = _BLOCK // 2  # shorter than the block: identification reads it all
    assert main(["diplex", "--out-dir", str(tmp_path), "--diplex-samples", str(n)]) == 0
    assert calls == DIPLEX_ONCE
    assert numpy_calls == _spectral_pass(n)
