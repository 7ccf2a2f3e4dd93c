"""Reference kernel that measures how fast the machine runs right now.

The benchmark machine shares its cores with other jobs. While they run, the
same pure-Python code takes up to about twice as long, for stretches from a
few seconds to minutes, so raw times of one run depended more on the
machine's state than on the program. The benchmark therefore times this
fixed kernel next to every measured window and reports the window's time
scaled to reference speed:

    reported = measured * REF_SECONDS / kernel_seconds

The kernel mixes the two kinds of work prodgeom does per point: scalar float
arithmetic in Python and operations on tiny numpy arrays. It uses nothing
from prodgeom, so no change to prodgeom moves it.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Nominal kernel time: about its best time on the machine the baseline was
#: recorded on (nproc 2, Intel Xeon, Python 3.11.7, numpy 2.4.6).
REF_SECONDS = 0.005


def _kernel() -> float:
    acc = 0.0
    for i in range(5000):
        x = 0.5 + (i % 97) * 0.015
        acc += math.exp(0.3 * x) * x ** 0.7 / (1.0 + x * x)
    m = np.zeros((6, 6))
    for i in range(500):
        m[:] = i
        m[1:, 1:] -= np.outer(m[1:, 0] / (i + 1), m[0, 1:])
        acc += float(np.argmax(np.abs(m[:, 0])))
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Window:
    """Times a block and the kernel right before and after it.

        with Window() as w:
            work()
        w.seconds      # raw wall time of the block
        w.scale        # REF_SECONDS / mean kernel time around it
    """

    def __enter__(self):
        self._before = kernel_seconds()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        self.scale = REF_SECONDS / (0.5 * (self._before + kernel_seconds()))
        return False
