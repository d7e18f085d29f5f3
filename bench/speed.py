"""Host-speed probe that samples while a unit's work runs.

The host this benchmark was built on changes speed by tens of percent
within seconds (CPU time changes with it, so it is not scheduling), and a
unit's raw wall time says as much about the host as about cifc.  The probe
times a short fixed kernel that shares no code with cifc, a few times just
before the work and then every PERIOD_S from a SIGALRM handler while it
runs.  run.py reports the work in units of the kernel's mean time, after
subtracting the time the probe itself took.

The kernel mixes what cifc's hot paths spend their time on: interpreted
loops over dicts, numpy reductions over small tensors and small batched
LAPACK solves.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
ROUNDS = 120  # about 2 ms per slice on the reference host
WARM_SLICES = 5  # taken before the work, so that even a short unit has samples


class SpeedProbe:
    """Context manager: slices taken inside it land in `work_slices`.

    `on_slice(seconds)` is called after every slice taken during the work,
    so that a tracer can leave the probe's time out of its spans.
    """

    def __init__(self, on_slice=None) -> None:
        self.on_slice = on_slice
        self.warm_slices: list[float] = []
        self.work_slices: list[float] = []
        self._p = np.linspace(0.01, 1.0, 64).reshape(2, 2, 2, 2, 2, 2)
        self._p /= self._p.sum()
        square = np.eye(6) * 4.0 + np.linspace(0.0, 1.0, 36).reshape(6, 6)
        self._batch = np.broadcast_to(square, (64, 6, 6)).copy()
        self._rhs = np.ones((64, 6, 1))

    def _slice(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(ROUNDS):
            m = self._p.sum(axis=(1, 3))
            acc += float((m * np.log2(np.where(m > 0, m, 1.0))).sum())
            acc += sum({(i, j): j * 0.5 for j in range(16)}.values())
            if i % 8 == 0:
                acc += float(np.linalg.solve(self._batch, self._rhs).sum())
        if not math.isfinite(acc):
            raise ArithmeticError("speed probe kernel diverged")
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        elapsed = self._slice()
        self.work_slices.append(elapsed)
        if self.on_slice:
            self.on_slice(elapsed)

    def __enter__(self) -> "SpeedProbe":
        self.warm_slices = [self._slice() for _ in range(WARM_SLICES)]
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slice_s(self) -> float:
        """Mean slice time: the host's speed over this unit.

        The mean, not the median: the host loses time in bursts, and only
        the mean weighs a slice that a burst hit by the time it lost.
        """
        return statistics.fmean(self.warm_slices + self.work_slices)
