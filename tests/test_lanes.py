"""The two-lane transforms of envelope_depth and demodulate.

Each call runs its independent inverse transforms on two lanes: the
calling thread and one worker started for that call
(signalgen._two_lanes). The outputs must not depend on which lane runs
first, no thread may outlive a call, a forked child must still run both
calls, and an exception raised in the worker must reach the caller.
Callers on several threads at once, with the interpreter switching
threads as often as it can, must each get the serial answer.
"""

import os
import signal
import sys
import threading
import time

import pytest

import icdx
from icdx import demod, metrics, signalgen

from helpers import CARRIER_1, RATE, scenario_pair

N = 2**16  # eight depth phases on two lanes; nine overlap-save blocks in three groups


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


def test_outputs_do_not_depend_on_lane_order(channel, monkeypatch):
    depth, phase = _both(channel)
    for module in (metrics, demod):
        monkeypatch.setattr(module, "_two_lanes", _second_lane_first)
    serial_depth, serial_phase = _both(channel)
    assert serial_depth == depth
    assert serial_phase.samples.tobytes() == phase.samples.tobytes()
    assert serial_phase.lost_ranges == phase.lost_ranges


def test_no_thread_outlives_a_call(channel):
    before = threading.active_count()
    icdx.envelope_depth(channel, CARRIER_1, RATE)
    assert threading.active_count() == before
    icdx.demodulate(channel, CARRIER_1, 4.0e4, 8, RATE, strict=False)
    assert threading.active_count() == before


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


def test_a_forked_child_runs_both_calls(channel):
    depth, phase = _both(channel)  # the parent has run both lanes before it forks
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if it gets the parent's answers
        code = 1
        try:
            child_depth, child_phase = _both(channel)
            code = int(child_depth != depth
                       or child_phase.samples.tobytes() != phase.samples.tobytes())
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
