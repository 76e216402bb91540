"""A CPU speed probe, and operation times scaled by it.

The virtual CPUs this benchmark was built on switch between a fast speed
and one about 1.6 times slower, each lasting from one to twenty seconds, so
raw times of the same work spread by a third.  Each timed step is therefore
bracketed by two runs of a fixed loop of the benchmark's own, and its time
is scaled by ``PROBE_REF_S`` over their mean: it reads as seconds at the
speed where the probe takes ``PROBE_REF_S``.  The probe runs no revdiv code,
so a change to revdiv moves a scaled time just as it moves the raw one.
"""
import time

PROBE_STEPS = 16000
# seconds the probe takes at the fast speed of the machine the baseline was
# recorded on (BASELINE.md)
PROBE_REF_S = 0.0034


def probe() -> float:
    """Seconds a fixed loop of dict, tuple, list and integer work takes just now."""
    start = time.perf_counter()
    table, items, state = {}, [], 0
    for i in range(PROBE_STEPS):
        pair = (i, i + 1)
        table[i & 511] = pair
        items.append(pair[0] + len(table))
        if (state >> (i & 31)) & 1:
            state ^= 1 << ((i + 3) & 31)
        else:
            state ^= 1 << (i & 7)
    return time.perf_counter() - start


def scaled(took: float, before: float, after: float) -> float:
    """``took`` seconds at the speed the probes ``before`` and ``after`` saw."""
    return took * 2 * PROBE_REF_S / (before + after)
