"""Host-speed reference for the end-to-end times.

The 2-vCPU host this benchmark was tuned on runs the same code at speeds
up to a factor of two apart. The speed of one vCPU changes within tens of
milliseconds and also drifts over seconds to minutes, while nothing else
runs in the guest and no CPU time is stolen; the two vCPUs change nearly
independently. Over ten runs, the spread of a raw wall time was 0.14 to
0.7 of its median, depending on the hour and the step.

So the benchmark times a fixed reference kernel of about half a
millisecond on the thread that runs the workload: after every step and
every single-subject request, and from a timer signal every
``TIMER_S`` while a step runs. Each end-to-end time is reported scaled to
a host on which the kernel takes ``REFERENCE_MS``: its raw time, less the
time the timer's kernels took inside it, times ``REFERENCE_MS`` over the
kernel time through the step (see ``factor``).

The kernel is a pure-Python loop plus a gated recurrence over 12 steps on
one subject, written here with small numpy matmuls and ufuncs: the same
mix of interpreter work and tiny array operations as the package's code,
but none of that code, so a change to the program shows in full in the
scaled times. The raw times are kept in the run record.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_MS = 0.5
TIMER_S = 0.05
LOOP_ITERATIONS = 3_000
HIDDEN = 24
INPUTS = 7
STEPS = 12


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class HostSpeed:
    """Kernel times taken through the run, in the order they were taken:
    ``samples`` (ms), ``stamps`` (when each ended) and ``spent`` (how long
    a timer sample held up the workload, in ms; 0 for the others)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((INPUTS, 4 * HIDDEN)) * 0.3
        self._u = rng.standard_normal((HIDDEN, 4 * HIDDEN)) * 0.3
        self._x = rng.standard_normal((STEPS, 1, INPUTS))
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.spent: list[float] = []
        self._previous_handler = None
        self._busy = False

    def kernel_ms(self) -> float:
        start = time.perf_counter()
        total = 0
        for k in range(LOOP_ITERATIONS):
            total += k * k
        h = np.zeros((1, HIDDEN))
        c = np.zeros((1, HIDDEN))
        for step in range(STEPS):
            gates = self._x[step] @ self._w + h @ self._u
            i = _sigmoid(gates[:, :HIDDEN])
            f = _sigmoid(gates[:, HIDDEN : 2 * HIDDEN])
            o = _sigmoid(gates[:, 2 * HIDDEN : 3 * HIDDEN])
            c = f * c + i * np.tanh(gates[:, 3 * HIDDEN :])
            h = o * np.tanh(c)
        return (time.perf_counter() - start) * 1e3

    def sample(self, timings: int = 1) -> int:
        """Time the kernel between two steps; returns the index of this
        sample. With several ``timings`` the sample is their median, which
        keeps a blip of a few milliseconds out of it."""
        return self._record(timings, timer=False)

    def _on_timer(self, signum, frame) -> None:
        # Python runs signal handlers between bytecodes of the main thread,
        # so the flag keeps a timer sample out of one being recorded.
        if not self._busy:
            self._record(1, timer=True)

    def _record(self, timings: int, timer: bool) -> int:
        self._busy = True
        try:
            start = time.perf_counter()
            self.samples.append(statistics.median([self.kernel_ms() for _ in range(timings)]))
            self.stamps.append(time.perf_counter())
            self.spent.append((self.stamps[-1] - start) * 1e3 if timer else 0.0)
            return len(self.samples) - 1
        finally:
            self._busy = False

    def start_timer(self) -> None:
        """Sample the kernel every ``TIMER_S`` from SIGALRM, while steps run."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def inside_s(self, first: int, last: int) -> float:
        """Seconds that timer samples took between samples first and last,
        which the step timed between them paid for."""
        return sum(self.spent[first + 1 : last]) / 1e3

    def factor(self, first: int, last: int) -> float:
        """Scale for the stretch of the run between samples first and last.
        Each gap between two neighbouring samples counts with its length
        and the mean of the two kernel times around it."""
        if last <= first:
            return REFERENCE_MS / self.samples[first]
        weighted = total = 0.0
        for i in range(first, last):
            gap = self.stamps[i + 1] - self.stamps[i]
            weighted += gap * REFERENCE_MS / ((self.samples[i] + self.samples[i + 1]) / 2)
            total += gap
        return weighted / total

    def scaled(self, seconds: float, first: int, last: int) -> float:
        """A time taken between samples first and last, without the timer's
        share, at the reference host speed."""
        return (seconds - self.inside_s(first, last)) * self.factor(first, last)
