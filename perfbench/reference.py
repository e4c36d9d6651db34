"""A fixed numpy kernel, timed next to the records to calibrate for machine speed.

On a shared host the speed a process gets drifts by 10-30% over tens of
seconds as other tenants load the machine, and record wall times drift with
it; runs minutes apart then differ by more than any useful bound. The
reference kernel does work of the same kind as a record (FFTs, a 2 x N
product, a short FIR, elementwise math on a few MB of float64) on fixed
inputs and never calls icdx, so a change to icdx leaves its time alone
while a slower machine slows both. A record's calibrated time is its wall
time times REF_S over the reference time measured around it: the record's
wall time on a machine that runs the kernel in REF_S seconds.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal kernel time, about its time on an idle 2-vCPU VM.
REF_S = 0.07


class Reference:
    """The kernel on inputs fixed here, independent of the workload seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((2, 1 << 18))
        self._fir = rng.standard_normal(63)
        # Outputs are allocated once, so that the kernel leaves the worker's
        # heap as it found it and peak RSS does not depend on when it ran.
        self._spectrum = np.empty((2, (1 << 17) + 1), dtype=complex)
        self._conj = np.empty_like(self._spectrum)
        self._corr = np.empty_like(self._x)
        self.run()  # first-call allocations and FFT plans

    def run(self) -> float:
        """Wall time of one pass of the kernel, in seconds."""
        x, spectrum, conj, corr = self._x, self._spectrum, self._conj, self._corr
        start = time.perf_counter()
        for _ in range(3):
            np.fft.rfft(x, axis=1, out=spectrum)
            np.multiply(spectrum, np.conjugate(spectrum, out=conj), out=spectrum)
            np.fft.irfft(spectrum, x.shape[1], axis=1, out=corr)
            np.convolve(x[0], self._fir, mode="same")
            x @ x.T
            np.abs(corr, out=corr)
            np.add(corr, 1.0, out=corr)
            np.sqrt(corr, out=corr).sum()
        return time.perf_counter() - start


class Calibrator:
    """Scales each record's wall time by REF_S over the mean of the kernel
    times measured just before and just after the record's batch.

    A batch is a fixed number of records, not a time, so that the order of
    records and kernel runs does not depend on the machine's speed.
    """

    def __init__(self, batch: int, kernel=None) -> None:
        """kernel: a callable returning one kernel time; Reference().run by default."""
        self._size = batch
        self._kernel = kernel or Reference().run
        self._before = self._kernel()
        self._batch: list[dict] = []
        self.ref_times = [self._before]

    def add(self, record: dict) -> None:
        """Take a record with its wall "seconds"; it gets "cal_seconds" when its batch closes."""
        self._batch.append(record)
        if len(self._batch) == self._size:
            self.close()

    def close(self) -> None:
        if not self._batch:
            return
        after = self._kernel()
        self.ref_times.append(after)
        scale = REF_S / (0.5 * (self._before + after))
        for record in self._batch:
            record["cal_seconds"] = record["seconds"] * scale
        self._before, self._batch = after, []
