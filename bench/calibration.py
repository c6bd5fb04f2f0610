"""Machine-speed calibration for the benchmark's timings.

A shared virtual machine can change speed by tens of percent from one
minute to the next (a 2-vCPU guest measured 0.47 to 0.89 ms for the same
unit below within a single run), far more than the regressions the
benchmark has to catch.  So each timed run interleaves a fixed reference
computation (:func:`unit`) with the workload: one unit every
:data:`PERIOD_S` of wall time, run from a timer signal, so units also land
inside long ops.  Time spent in units is taken out of every workload time.

Every reported time is scaled to a machine on which one unit takes
:data:`REFERENCE_NS`: each op's latency, and the stretch of workload time up
to the next op, by the mean duration of the units run during the op and
within :data:`MARGIN_NS` of it, so the scaling follows speed changes within
a run.  Raw (unscaled) figures are printed in the run summary.

The unit mixes small complex-array Horner steps with interpreter arithmetic,
the mix the library spends its time on, and uses nothing from polybohr, so a
change to the library cannot change it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Nominal duration of one unit; scaled times are "ms on a machine this fast".
REFERENCE_NS = 750_000
PERIOD_S = 0.02
MARGIN_NS = 50_000_000
WARMUP_UNITS = 20


def unit() -> int:
    """Run the reference computation once; return its duration in ns."""
    start = time.perf_counter_ns()
    ts = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    for _ in range(4):
        acc = np.zeros_like(ts)
        for c in range(64):
            acc = acc * ts + c
    s = 0
    for i in range(3000):
        s += i * i
    return time.perf_counter_ns() - start


class Calibrator:
    """While entered, runs one unit every PERIOD_S of wall time from SIGALRM.

    Python runs the handler between bytecodes of the main thread, so units
    sample the machine's speed during long ops as well as between them.
    :meth:`clock` is the workload clock: wall time less the time spent in
    units, so calibration never counts as workload time.
    """

    def __init__(self) -> None:
        self.times: list[int] = []
        self.durations: list[int] = []
        self.spent_ns = 0
        self._busy = False
        self._previous = None

    def clock(self) -> int:
        # Retry if a unit ran between the two reads, which would mix a
        # reading taken before the unit with a total that includes it.
        while True:
            spent = self.spent_ns
            now = time.perf_counter_ns()
            if spent == self.spent_ns:
                return now - spent

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter_ns()
            self.times.append(start - self.spent_ns)
            self.durations.append(unit())
            self.spent_ns += time.perf_counter_ns() - start
        finally:
            self._busy = False

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def local_scales(self, starts_ns: np.ndarray, ends_ns: np.ndarray) -> np.ndarray:
        """Per op: REFERENCE_NS over the mean unit duration within MARGIN_NS of it."""
        durations = np.asarray(self.durations, dtype=np.float64)
        times = np.asarray(self.times, dtype=np.int64)
        cum = np.concatenate(([0.0], np.cumsum(durations)))
        lo = np.searchsorted(times, np.asarray(starts_ns) - MARGIN_NS)
        hi = np.searchsorted(times, np.asarray(ends_ns) + MARGIN_NS)
        # An op with no unit in reach (timer delayed) takes the nearest one.
        lo = np.minimum(lo, times.size - 1)
        hi = np.maximum(hi, lo + 1)
        return REFERENCE_NS * (hi - lo) / (cum[hi] - cum[lo])


def warm_up() -> None:
    for _ in range(WARMUP_UNITS):
        unit()
