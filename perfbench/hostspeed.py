"""Fixed pieces of work that measure the host's current speed.

The benchmark's host is a few cores shared with other tenants, and its speed
swings by up to a factor of two, over milliseconds and over minutes alike.
Process CPU time tracks wall time, so the swing is the host's throughput,
not scheduling. A reference runs before the first op of a pass and after
each op, and each op's time is scaled by the reference's nominal time over
its measured time around the op: the result is the op's time on a host
running at the speed where the reference takes its nominal time. A slower
host slows the reference and the op alike, so this cancels most of the
swing, while a change to `rlct` moves the op and not the reference. Raw
times are recorded beside the scaled ones.

There are two references, because contention slows interpreter work and
vectorized numpy work by different factors: `interpreter` for the exact
layers, `vectorized` for Monte Carlo volume estimation.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter


def interpreter():
    """Interpreter work like rlct's exact layers: Fraction and big-int
    arithmetic, tuples, sets and dicts."""
    total, seen, counts = Fraction(0), set(), {}
    for i in range(1, 3200):
        total += Fraction(i % 97 + 1, i % 89 + 2)
        key = (i * 2654435761 % 1000003, i & 255)
        seen.add(key)
        counts[key[1]] = counts.get(key[1], 0) + 1
    return total


def vectorized():
    """numpy work like estimate_volume's: sample a box, evaluate |forms|^mults.

    numpy is imported here, not at module level, so that set-up, which
    times `import rlct`, still pays for importing it.
    """
    import numpy as np

    normals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    rng = np.random.Generator(np.random.Philox(key=7))
    points = rng.random((65536, 3)) * 2.0 - 1.0
    values = np.abs(points @ normals.T) ** np.array([1.0, 2.0, 2.0, 1.0])
    return int(np.count_nonzero(values.prod(axis=1) <= 1e-3))


# Reference -> (function, nominal seconds). The nominal times are about each
# reference's fastest time on one core of a shared 2.1 GHz Xeon (Python
# 3.11, numpy 2.4), so scaled times read close to the host's best raw times.
REFERENCES = {
    "interpreter": (interpreter, 0.01),
    "vectorized": (vectorized, 0.009),
}


def time_reference(kind="interpreter"):
    fn = REFERENCES[kind][0]
    start = perf_counter()
    fn()
    return perf_counter() - start


def pass_scales(refs, kind):
    """Factors from raw seconds to seconds at the reference speed for the ops
    of a pass, given the reference's times before the first op and after
    each op (one more time than ops). Op i is scaled by
    the mean of the four times nearest it, refs[i-1 .. i+2], which damps the
    reference's own millisecond noise while still following the host's
    swings over seconds."""
    nominal = REFERENCES[kind][1]
    return [nominal / statistics.fmean(refs[max(0, i - 1):i + 3]) for i in range(len(refs) - 1)]
