"""Every separation reaches its layers through their module attributes.

A profiler or tracer observes a layer by replacing its module attribute
(icdx.preprocess.whiten, icdx.fastica.fit, ...). These tests install
counting wrappers the same way and check that each entry point into the
separation stage calls every layer exactly once, so no layer is called
through a name bound at import time, and none is called twice. The
diplexer's FIR split is counted too: a diplex run splits its composite
once. A diplex run calls no unmix: it makes its one output record
itself, the identified map applied to the branches centred on their
means, so whiten, fit and identification run once each and unmix never.
Spectral work is counted the same way on numpy, by input shape: `icdx
unmix` takes one full-length rfft per input channel for its four depths,
while `icdx diplex` takes none, since its four residuals read tone-band
bins summed directly over each FIR branch; identification adds one rfft
of the components' leading block (at most 2^15 samples); nothing else is
transformed forward and no window is built. Each depth inverts its
carrier band, folded once, in P phases of n / P samples (P = 8 at the
default carriers), so `icdx unmix` takes no inverse transform as long
as the record, and `icdx diplex` takes none at all. The depths' phases
run on two threads, so the counting wrappers count under a lock.
Whitening and the depth are wrapped the same way to check that `icdx
unmix` estimates the separation before the first depth, so a failing
separation is reported before a depth's refusal. The reader and the depth
are wrapped to check that it holds one input record at a time: the mixed
record is gone before the corrected depths run, and the truth is read
after the last depth.
"""

import collections
import threading
import weakref
from pathlib import Path

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
DIPLEX_ONCE = {**{name: 1 for name in ONCE if name != "unmix"}, "fir_split": 1}


def _count(monkeypatch, targets, key=lambda name, args: name):
    counts = collections.Counter()
    lock = threading.Lock()

    def counting(name, original):
        def counted(*args, **kwargs):
            with lock:
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
    # Four depths, each eight phases of an eighth of the record.
    assert numpy_calls == {**_spectral_pass(n), ("ifft", (n // 8,)): 32}


def test_diplex_calls_each_layer_once(calls):
    rate, tone_a, tone_b = 200.0e6, 25.0e6, 40.0e6
    t = np.arange(2**14) / rate
    composite = np.sin(2.0 * np.pi * tone_a * t) + 0.8 * np.sin(2.0 * np.pi * tone_b * t)
    icdx.diplex(composite, tone_a, tone_b, 5, icdx.FastIcaConfig(seed=0), sample_rate=rate)
    assert calls == DIPLEX_ONCE and calls["unmix"] == 0


def test_cli_diplex_splits_once(calls, numpy_calls, tmp_path):
    n = _BLOCK // 2  # shorter than the block: identification reads it all
    assert main(["diplex", "--out-dir", str(tmp_path), "--diplex-samples", str(n)]) == 0
    assert calls == DIPLEX_ONCE and calls["unmix"] == 0
    assert numpy_calls == {("rfft", (2, n)): 1}  # identification's block only


def test_cli_unmix_whitens_before_the_first_depth(monkeypatch, tmp_path):
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", "4096"]) == 0
    events = []

    def logging(name, original):
        def logged(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)
        return logged

    for module, name in ((icdx.preprocess, "whiten"), (icdx.metrics, "envelope_depth")):
        monkeypatch.setattr(module, name, logging(name, getattr(module, name)))
    assert main(["unmix", "--in", str(tmp_path / "mixed.bin"),
                 "--out-dir", str(tmp_path / "u")]) == 0
    assert events == ["whiten"] + ["envelope_depth"] * 4


def test_cli_unmix_holds_one_input_record_at_a_time(monkeypatch, tmp_path):
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", "4096"]) == 0
    events, records = [], []
    read, depth = icdx.fileio.read_signal, icdx.metrics.envelope_depth

    def reading(path):
        signal = read(path)
        records.append(weakref.ref(signal.data))  # no strong reference is kept
        events.append(("read", Path(path).name))
        return signal

    def measuring(*args, **kwargs):
        events.append(("depth", records[0]() is not None))  # the mixed record alive?
        return depth(*args, **kwargs)

    monkeypatch.setattr(icdx.fileio, "read_signal", reading)
    monkeypatch.setattr(icdx.metrics, "envelope_depth", measuring)
    assert main(["unmix", "--in", str(tmp_path / "mixed.bin"), "--truth",
                 str(tmp_path / "clean.bin"), "--out-dir", str(tmp_path / "u")]) == 0
    assert events == [("read", "mixed.bin"), ("depth", True), ("depth", True),
                      ("depth", False), ("depth", False), ("read", "clean.bin")]
