"""How fast the host runs right now, from a fixed loop of plain Python.

The benchmark runs on a few cores of a shared host whose speed drifts by
±30% over minutes: the same pure-Python loop takes 6-17 ms depending on
what else the host runs.  Every time the benchmark reports is therefore
rescaled to a reference host.  Before and after each block of timed
requests (and each set-up) the client runs :func:`slowness` while no
request is in flight; a block's times are divided by the mean of its two
readings, and its request rate is multiplied by it.  The loop uses no
repository code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

#: The loop's time, in seconds, on the reference host the reported
#: figures are scaled to (about this host's speed when it is quiet).
REFERENCE_S = 0.010


def loop_seconds() -> float:
    """Wall time of one pass of a fixed integer, dict, list and str loop."""
    t0 = time.perf_counter()
    acc, table, items = 0, {}, []
    for i in range(40000):
        acc += i * i % 7
        table[i & 1023] = acc
        items.append((i * 7919) % 10007)
    items.sort()
    "".join([str(x) for x in items[:8000]])
    return time.perf_counter() - t0


def slowness() -> float:
    """This host's current time per unit of work, relative to the reference host."""
    return loop_seconds() / REFERENCE_S
