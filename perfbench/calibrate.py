"""A gauge of how fast the host runs while a timed run goes on.

A small guest of a shared host changes speed by a factor of two or more
within minutes, CPU time along with wall time, so raw timings of the same
code taken minutes apart do not agree. While a run goes on, ``Gauge``
times a short reference kernel on the same CPU every ``PERIOD_S``
seconds. A run's *slowness* is the mean, over the kernels timed during
it, of kernel time over the kernel's reference time; ``run.py`` divides
the run's timings by it, which gives them in reference seconds: the time
the run takes while the kernels take their reference times. The kernels
run no prspider code, so a change to the program moves the scaled timings
as it moves the raw ones. The gauge takes 2 to 5 % of the CPU from the
run.

Each workload names the kernels that track its speed best: ``python``
(small-vector numpy calls) for interpreter-bound runs on tiny vectors,
``mixed`` (``python`` and a bulk numpy fill, in turn) for runs that mix
bulk numpy work on large arrays with Python overhead. The bulk kernel
alone tracked such runs less well than the two together.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.2


def _python() -> None:
    # small-vector numpy calls and dict/list work, as in a 4-float run
    x = np.zeros(4)
    total = 0
    for i in range(1500):
        x = x + 0.5 * np.tanh(x + i)
        d = {"a": i, "b": [i, i + 1]}
        total += len(d["b"]) + int(x[0] > 1.0)


def _bulk() -> None:
    # fill a 16 MiB array and read it back
    np.ones(2 * 2**20).sum()


# each kernel with its time in quiet phases of the host the benchmark was
# written on (2 vCPUs, Python 3.11, scipy-openblas): the scale of
# reference seconds
_KERNELS = {
    "python": ((_python, 0.0045),),
    "mixed": ((_python, 0.0045), (_bulk, 0.0018)),
}


class Gauge:
    """Times reference kernels every ``PERIOD_S`` seconds in a thread."""

    def __init__(self, kind: str):
        self._kernels = _KERNELS[kind]
        self._samples: list[tuple[float, float]] = []  # (start, slowness)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _time(self, k: int) -> tuple[float, float]:
        kernel, reference = self._kernels[k % len(self._kernels)]
        # a first, untimed call refills the caches the run evicted, so
        # the timed one sees the warm speed the run itself sees
        kernel()
        t = time.perf_counter()
        kernel()
        return t, (time.perf_counter() - t) / reference

    def _loop(self) -> None:
        k = 0
        while not self._stop.wait(PERIOD_S):
            self._samples.append(self._time(k))
            k += 1

    def __enter__(self) -> Gauge:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowness(self, start: float, end: float) -> float:
        """Mean slowness of the kernels timed between two ``perf_counter``
        readings; a run too short to hold one is gauged right after it."""
        inside = [s for t, s in list(self._samples) if start <= t <= end]
        if not inside:
            inside = [self._time(k)[1] for k in range(len(self._kernels))]
        return statistics.fmean(inside)
