"""Machine-speed calibration: a fixed kernel interleaved with the program.

The benchmark runs on shared hosts whose speed swings by a third over
seconds to minutes; the same 2-D step takes 31 ms in one minute and 52 ms
in the next, in CPU time as much as in wall time.  A ``Calibrator`` times
this module's fixed kernel every ``INTERVAL_S`` of wall time, from a
``SIGALRM`` handler, while the program runs; each sample times a second,
warm run of the kernel.  The kernel's mean time over an interval, against
``REFERENCE_S``, is the host's slowness in that interval, and ``scaled``
turns a time measured over it into seconds at the reference speed.  The
kernel's own time is taken out first.

The kernel mixes what the workloads do: a pure-Python loop, numpy calls
on 64-point arrays, 16^3 and 64^2 transforms, and a bincount over 20k
elements.  Nothing in it comes from the package, so a change to
the program cannot move it.  Never calibrate a traced run: the tracer
would count the kernel's transforms.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# seconds between kernel samples, and the kernel's time at the reference
# speed (about its warm time in the timer handler on a 2-core Intel Xeon VM
# at 2.1 GHz with numpy 2.4)
INTERVAL_S = 0.025
REFERENCE_S = 0.9e-3

_rng = np.random.default_rng(20240501)
_SMALL = _rng.standard_normal(64)
_PLANE = _rng.standard_normal((64, 64))
_CUBE = _rng.standard_normal((16, 16, 16))
_VALUES = _rng.standard_normal(20_000)
_INDEX = _rng.integers(0, 64, size=20_000)


def kernel() -> float:
    """The fixed unit of work; about ``REFERENCE_S`` at the reference speed."""
    acc = 0.0
    for _ in range(1000):
        acc = 0.5 * acc + 1.0
    a = _SMALL
    for _ in range(25):
        a = np.sqrt(a * a + 1.0) - np.abs(a) * 0.5
        acc += float(np.max(a))
    for field in (_PLANE, _CUBE):
        spec = np.fft.fftn(field)
        acc += float(np.sum(np.fft.ifftn(spec * 0.5).real * field))
    acc += float(np.sum(np.bincount(_INDEX, weights=_VALUES, minlength=64)))
    return acc


class Calibrator:
    """Samples the kernel every ``INTERVAL_S`` while the ``with`` block runs.

    On entry it samples once, so that every block has a sample, and starts a
    real-time interval timer; on exit it stops the timer and restores the
    previous handler.
    """

    def __init__(self):
        self.kernel_s = 0.0  # every kernel run inside the block
        self.sampled_s = 0.0  # the timed, warm runs only
        self.samples = 0
        self._previous = None

    def _run(self) -> float:
        t0 = time.perf_counter()
        kernel()
        took = time.perf_counter() - t0
        self.kernel_s += took
        return took

    def _sample(self, *_) -> None:
        # time a second, warm run: the first refills the caches the program
        # has just used, so the sample is the host's speed, not the program's
        # memory footprint
        self._run()
        self.sampled_s += self._run()
        self.samples += 1

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowness(self) -> float:
        """Mean kernel time over ``REFERENCE_S``: above 1 on a slow host."""
        return self.sampled_s / self.samples / REFERENCE_S

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured across the block, less the kernel's own time,
        at the reference speed."""
        return (seconds - self.kernel_s) / self.slowness
