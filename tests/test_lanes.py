"""The two-lane stages: every signalgen._two_lanes site.

Each site runs two independent pieces of one call on two lanes: the
calling thread and one worker started for that call
(signalgen._two_lanes). The sites are envelope_depth's prologue (each
lane's half of the ramp and its band copy) and its inverse transforms,
and demodulate's overlap-save blocks and its floor and phase rails. The
outputs must not depend on which lane runs first, no thread may outlive
a call, a forked child must still run every site, and an exception
raised in the worker must reach the caller. Callers on several threads
at once, with the interpreter switching threads as often as it can,
must each get the serial answer.
A lane calls no function the benchmark's tracer wraps, so every traced
entry, in a CLI run of gen, unmix, density and diplex, is on the main
thread and spans nest as they do serially.
"""

import ast
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

import icdx
from icdx import demod, metrics, signalgen
from icdx.cli import main

from helpers import CARRIER_1, RATE, scenario_pair

N = 2**16  # eight depth phases on two lanes; nine overlap-save blocks in three groups
TWO_LANES = signalgen._two_lanes


@pytest.fixture(scope="module")
def channel():
    _, _, _, mixed = scenario_pair(n=N, snr_db=30.0)
    return mixed.data[0]


def _both(x):
    """envelope_depth and demodulate of one channel: the depth and the phase series."""
    return (icdx.envelope_depth(x, CARRIER_1, RATE),
            icdx.demodulate(x, CARRIER_1, 4.0e4, 8, RATE, strict=False))


def _second_lane_first(lane):
    """_two_lanes run serially, lane 1 before lane 0."""
    second = lane(1)
    return lane(0), second


# site: (the module whose _two_lanes it calls, which of the call's _two_lanes
# calls is the site, counted from 0, and the call on the channel).
SITES = {
    "demodulate_floor_and_phase": (demod, 1, lambda x: demod.demodulate(
        x, CARRIER_1, 4.0e4, 8, RATE, strict=False)),
    "envelope_depth_prologue": (metrics, 0, lambda x: metrics.envelope_depth(
        x, CARRIER_1, RATE)),
}


def _bytes(result) -> bytes:
    """A site's answer as bytes: every sample, and a phase series' lost ranges."""
    if isinstance(result, demod.PhaseSeries):
        return result.samples.tobytes() + repr(result.lost_ranges).encode()
    return float(result).hex().encode()


def _at_site(index, replacement):
    """A _two_lanes that runs call `index` of a site's call with replacement, the rest threaded."""
    calls = []

    def two_lanes(lane):
        calls.append(lane)
        return (replacement if len(calls) == index + 1 else TWO_LANES)(lane)
    return two_lanes, calls


def test_outputs_do_not_depend_on_lane_order(channel, monkeypatch):
    depth, phase = _both(channel)
    for module in (metrics, demod):
        monkeypatch.setattr(module, "_two_lanes", _second_lane_first)
    serial_depth, serial_phase = _both(channel)
    assert serial_depth == depth
    assert serial_phase.samples.tobytes() == phase.samples.tobytes()
    assert serial_phase.lost_ranges == phase.lost_ranges


@pytest.mark.parametrize("site", SITES)
def test_a_site_does_not_depend_on_lane_order(site, channel, monkeypatch):
    module, index, call = SITES[site]
    threaded = _bytes(call(channel))
    two_lanes, calls = _at_site(index, _second_lane_first)
    monkeypatch.setattr(module, "_two_lanes", two_lanes)
    assert _bytes(call(channel)) == threaded
    assert len(calls) > index  # the site ran on the lanes


def test_no_thread_outlives_a_call(channel):
    before = threading.active_count()
    icdx.envelope_depth(channel, CARRIER_1, RATE)
    assert threading.active_count() == before
    icdx.demodulate(channel, CARRIER_1, 4.0e4, 8, RATE, strict=False)
    assert threading.active_count() == before


@pytest.mark.parametrize("site", SITES)
def test_no_thread_outlives_a_site_call(site, channel):
    before = threading.active_count()
    SITES[site][2](channel)
    assert threading.active_count() == before


class LaneFailure(Exception):
    pass


@pytest.mark.parametrize("site", SITES)
def test_a_second_lane_exception_at_a_site_reaches_the_caller(site, channel, monkeypatch):
    module, index, call = SITES[site]

    def failing(lane):
        def second_fails(j):
            if j == 1:
                raise LaneFailure(site)
            return lane(j)
        return TWO_LANES(second_fails)

    two_lanes, calls = _at_site(index, failing)
    monkeypatch.setattr(module, "_two_lanes", two_lanes)
    before = threading.active_count()
    with pytest.raises(LaneFailure, match=site):
        call(channel)
    assert threading.active_count() == before
    assert len(calls) == index + 1  # nothing ran on the lanes after the failing site


def test_concurrent_callers_get_the_serial_answer(channel, monkeypatch):
    for module in (metrics, demod):
        monkeypatch.setattr(module, "_two_lanes", _second_lane_first)
    depth, phase = _both(channel)
    monkeypatch.undo()
    answers = []

    def caller():
        for _ in range(3):
            answers.append(_both(channel))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(3)]  # 6 lanes on 2 CPUs
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert len(answers) == 9
    for got_depth, got_phase in answers:
        assert got_depth == depth
        assert got_phase.samples.tobytes() == phase.samples.tobytes()


def _in_a_forked_child(check) -> None:
    """Fork; the child exits with check()'s code (1 if it raises). Fails past 60 s or non-zero."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = check()
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_a_forked_child_runs_both_calls(channel):
    depth, phase = _both(channel)  # the parent has run both lanes before it forks

    def check():  # exit 0 only if the child gets the parent's answers
        child_depth, child_phase = _both(channel)
        return int(child_depth != depth
                   or child_phase.samples.tobytes() != phase.samples.tobytes())

    _in_a_forked_child(check)


def test_a_forked_child_gets_every_site_answer(channel):
    answers = {site: _bytes(call(channel)) for site, (_, _, call) in SITES.items()}
    _in_a_forked_child(lambda: sum(_bytes(call(channel)) != answers[site]
                                   for site, (_, _, call) in SITES.items()))


def test_two_lanes_returns_both_results_in_lane_order():
    assert signalgen._two_lanes(lambda j: j * 10) == (0, 10)


@pytest.mark.parametrize("failing", [0, 1])
def test_a_lane_exception_reaches_the_caller(failing):
    before = threading.active_count()

    def lane(j):
        if j == failing:
            raise ZeroDivisionError(f"lane {j}")
        return j

    with pytest.raises(ZeroDivisionError, match=f"lane {failing}"):
        signalgen._two_lanes(lane)
    assert threading.active_count() == before


def _traced_targets() -> tuple[tuple[str, str, str], ...]:
    """perfbench/tracing.py's TARGETS, read from its source without importing perfbench."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_entry_is_on_the_main_thread(tmp_path, monkeypatch):
    entries = []

    def recording(name, original):
        def recorded(*args, **kwargs):
            entries.append((name, threading.current_thread()))
            return original(*args, **kwargs)
        return recorded

    for module, attr, _ in _traced_targets():
        target = getattr(icdx, module)
        monkeypatch.setattr(target, attr, recording(f"{module}.{attr}", getattr(target, attr)))
    assert main(["gen", "--out-dir", str(tmp_path), "--samples", str(N)]) == 0
    assert main(["unmix", "--in", str(tmp_path / "mixed.bin"),
                 "--out-dir", str(tmp_path / "u")]) == 0
    assert main(["density", "--in", str(tmp_path / "u" / "corrected.bin"),
                 "--out-dir", str(tmp_path / "d")]) == 0
    assert main(["diplex", "--out-dir", str(tmp_path / "x"),
                 "--diplex-samples", str(N)]) == 0
    assert {name for name, _ in entries} >= {
        "signalgen.synth_clean_pair", "demod.demodulate", "metrics.envelope_depth",
        "diplexer.fir_split", "diplexer.diplex", "fastica.fit"}
    assert [name for name, thread in entries if thread is not threading.main_thread()] == []
