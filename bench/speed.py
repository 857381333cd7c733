"""Machine speed over a run, from a fixed calibration kernel.

The 2-core machine these figures come from switches each core between speed
modes that last tens of seconds: one oracle solve takes 55-65 ms in the fast
mode and 100-105 ms in the slow one, and the share of fast time varied from
0 to 93 % between runs of the same code.  Wall times alone therefore spread
by up to 0.42 (quartile distance over median) across ten runs.  The mode is
per core: a kernel timed on the other core does not follow it (correlation
0.07), while one timed on the same thread does (0.6).

So while ``Speed`` is active, a timer signal interrupts the benchmark's own
thread every ``EVERY_S`` and times ``kernel``, a fixed piece of small numpy
calls and interpreter work that never touches the package.  A solve's time
at the reference speed is its wall time minus the kernel runs inside it,
times ``REF_KERNEL_S`` over the kernel's time around it.  In a 50 s test
the medians of blocks of 80 oracle solves ranged over 91-111 ms raw and
98-101 ms rescaled.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Kernel time at the reference speed, about this machine's slow mode.
REF_KERNEL_S = 1.25e-3
#: Interval of the timer that samples the kernel (2.5 % of the run's time).
EVERY_S = 0.05
#: Kernel runs this close to a solve set its speed.
NEAR_S = 0.2
#: Share of those runs, the fastest, that the speed is the mean of: a run
#: that another process interrupts reads several times its length.
KEEP = 0.75

_X = np.linspace(0.1, 0.9, 64)


def kernel():
    acc = 0.0
    for i in range(150):
        acc += float((np.sqrt(_X * _X + i) * np.log2(_X + 1.0)).sum()) + sum(range(20))
    return acc


class Speed:
    """Kernel runs over a run, as (start, end) times."""

    def __init__(self):
        self.runs = []

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.runs.append((t0, time.perf_counter()))

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def to_ref(self, start, seconds):
        """Wall time ``seconds`` from ``start`` on, at the reference speed.

        Kernel runs inside the interval are subtracted; the speed is the mean
        time of the fastest ``KEEP`` of the kernel runs over the interval
        widened by ``NEAR_S`` each side.
        """
        runs = np.asarray(self.runs)
        end = start + seconds
        inside = (runs[:, 0] >= start) & (runs[:, 1] <= end)
        busy = float(np.sum(runs[inside, 1] - runs[inside, 0]))
        near = (runs[:, 1] >= start - NEAR_S) & (runs[:, 0] <= end + NEAR_S)
        if not near.any():
            near = np.abs(runs[:, 0] - start) == np.min(np.abs(runs[:, 0] - start))
        near_s = np.sort(runs[near, 1] - runs[near, 0])
        kernel_s = float(np.mean(near_s[: max(1, int(KEEP * len(near_s)))]))
        return (seconds - busy) * REF_KERNEL_S / kernel_s
