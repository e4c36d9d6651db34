"""Spans around calls into icdx's layers, recorded from the benchmark's side.

Tracing replaces module attributes (icdx.fastica.fit, icdx.fileio.write_signal,
...) with timing wrappers. icdx.cli and icdx.diplexer look those attributes up
at call time, so their calls into other layers nest under the caller's span.
demod binds design_fir_lowpass by name at import, so FIR design stays in
demod's self time.

A span is [name, parent index or None, record id, start, end, counters]. Spans
stay in memory and are written out when the run ends; self times are computed
afterwards by ``per_record``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
import tracemalloc

# (module, attribute, span name). Several attributes may share a span name.
TARGETS = (
    ("signalgen", "make_scenario_tracks", "signalgen"),
    ("signalgen", "synth_clean_pair", "signalgen"),
    ("signalgen", "apply_crosstalk", "signalgen"),
    ("signalgen", "add_awgn", "signalgen"),
    ("signalgen", "quantize_adc", "signalgen"),
    ("fileio", "read_signal", "fileio.read"),
    ("fileio", "read_kv", "fileio.read"),
    ("fileio", "write_signal", "fileio.write"),
    ("fileio", "write_kv", "fileio.write"),
    ("preprocess", "whiten", "preprocess.whiten"),
    ("fastica", "fit", "fastica.fit"),
    ("fastica", "unmix", "fastica.unmix"),
    ("fastica", "identify_components", "fastica.identify"),
    ("demod", "demodulate", "demod.demodulate"),
    ("metrics", "envelope_depth", "metrics.envelope_depth"),
    ("metrics", "cross_tone_residual_db", "metrics.cross_tone"),
    ("diplexer", "fir_split", "diplexer.fir_split"),
    ("diplexer", "diplex", "diplexer.diplex"),
)

# Layers whose self time is reported, in report order. "cli" is the rest of
# the record: the benchmark's record span plus every icdx.cli.main span.
RECORD = "record"
CLI = "cli"
LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS)) + (CLI,)
# signalgen runs in the generator process, every other layer in the worker.
GENERATOR_LAYERS = ("signalgen",)
WORKER_LAYERS = tuple(name for name in LAYERS if name not in GENERATOR_LAYERS)


def _counters(name: str, args: tuple, result) -> dict[str, float]:
    """Work counts taken at a span boundary, after its end time is stamped."""
    if name == "fastica.fit":
        return {"iterations": sum(result.iterations), "units": len(result.converged),
                "converged": sum(result.converged)}
    if name == "demod.demodulate":
        channel = args[0]
        samples = channel.length if hasattr(channel, "length") else len(channel)
        return {"lost": sum(stop - start for start, stop in result.lost_ranges),
                "samples": samples}
    if name in ("fileio.read", "fileio.write"):
        return {"bytes": os.path.getsize(args[0])}
    return {}


class _Patcher:
    """Replaces the TARGETS of the given layers with wrappers, and restores them."""

    def __init__(self, icdx, layers: tuple[str, ...]) -> None:
        self._targets = [(getattr(icdx, module), attr, name)
                         for module, attr, name in TARGETS if name in layers]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        raise NotImplementedError


class Tracer(_Patcher):
    """Installs span wrappers on icdx modules and keeps the spans in memory."""

    def __init__(self, icdx, layers: tuple[str, ...]) -> None:
        super().__init__(icdx, layers)
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.record: object = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        entry = [name, parent, self.record, time.perf_counter(), None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        return entry

    def _close(self, entry: list) -> None:
        entry[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        entry = self._open(name)
        try:
            yield
        finally:
            self._close(entry)

    @contextlib.contextmanager
    def active(self, record: object):
        """Wrappers installed and a root span open for the duration of one record."""
        self.record = record
        self.install()
        try:
            with self.span(RECORD):
                yield
        finally:
            self.uninstall()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(entry)
            entry[5] = _counters(name, args, result)
            return result
        return traced


class NullTracer:
    """Stand-in for untraced records: no wrappers, and spans that record nothing."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()

    @staticmethod
    def active(record: object):
        return contextlib.nullcontext()


class AllocProbe(_Patcher):
    """Peak tracemalloc allocation during each call of the probed functions.

    Used in its own pass, apart from the timed and traced records, because
    tracemalloc slows every allocation it sees.
    """

    PROBED = ("demod.demodulate", "metrics.envelope_depth")

    def __init__(self, icdx) -> None:
        super().__init__(icdx, self.PROBED)
        self.peak_bytes = {name: 0 for name in self.PROBED}

    def __enter__(self) -> "AllocProbe":
        tracemalloc.start()
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
        tracemalloc.stop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_bytes[name] = max(self.peak_bytes[name], peak)
        return probed


def per_record(spans: list[list]) -> dict[object, dict]:
    """Per record id: self time and calls per layer, summed counters, duration."""
    child_time = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    records: dict[object, dict] = {}
    for index, (name, _, record, start, end, counters) in enumerate(spans):
        rec = records.setdefault(record, {"self_s": {}, "calls": {}, "counters": {},
                                          "duration_s": 0.0})
        layer = CLI if name == RECORD else name
        rec["self_s"][layer] = rec["self_s"].get(layer, 0.0) + (end - start) - child_time[index]
        if name == RECORD:
            rec["duration_s"] += end - start
        else:
            rec["calls"][layer] = rec["calls"].get(layer, 0) + 1
        for key, value in counters.items():
            slot = f"{name}.{key}"
            rec["counters"][slot] = rec["counters"].get(slot, 0) + value
    return records


def median_of(records: list[dict], section: str, key: str) -> float:
    """Median over records of one entry, counting a missing entry as zero."""
    return statistics.median(rec[section].get(key, 0) for rec in records)
