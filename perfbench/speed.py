"""Machine speed, measured by a fixed pure-Python reference computation.

On a virtual machine whose cores are shared with other tenants, the same
job's time swings by up to 1.8x within a minute as they come and go: the
reference kernel below takes about 5 ms while the core is free and about
9 ms while it is shared, switching every few seconds.  A pass's times are
multiplied by REFERENCE_S / (mean kernel time measured between that pass's
jobs), raised to the workload's sensitivity.  The mean, unlike the
median, follows the share of the pass spent on a shared core.  The
sensitivity is the slope of log(pass time) against log(mean kernel time),
fit over the passes of ten 40-second runs per workload: rational linear
algebra slows almost as much as the kernel on a shared core (subspace,
0.88), the allocation-heavy forest enumeration about half as much
(forest-deep, 0.51), the series code in between (series-deep, 0.64), and
a set-up about half as much (0.42-0.58).  The kernel does the kinds of work
the library does (rational elimination, tuple-keyed dicts, sorting) and
uses none of the library's code, so a change to the library cannot move
it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Kernel time on a free core of the 2-vCPU Xeon VM the benchmark was made on.
REFERENCE_S = 0.005
SETUP_SENSITIVITY = 0.5


def kernel():
    n = 9
    rows = [
        [Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 3)]
        for i in range(n)
    ]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    counts = {}
    for i in range(4000):
        key = tuple(sorted(((i * 31) % 17, (i * 7) % 13, i % 5)))
        counts[key] = counts.get(key, 0) + 1
    return rows, counts


def time_kernel(times):
    """Seconds of each of `times` kernel runs."""
    out = []
    for _ in range(times):
        start = perf_counter()
        kernel()
        out.append(perf_counter() - start)
    return out


def scale(kernel_seconds, sensitivity):
    """Factor that takes times measured alongside these kernel times to
    free-core seconds."""
    return (REFERENCE_S / statistics.fmean(kernel_seconds)) ** sensitivity
