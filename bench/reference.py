"""The references that convert measured times to nominal time.

`reference()` is a fixed piece of pure-Python float work (power lists and
compensated sums, like the library's bracket sums) that uses nothing of
qposc; the reference process is a fresh interpreter that imports numpy, the
bulk of a CLI call's start-up.  The benchmark times one of them around every
operation (the process around every round of CLI processes) and the loop
around every set-up.  Their duration tracks the speed a shared host gives
the benchmark at that moment, and run.py divides each measured time by it
(see NOMINAL_REF_NS there).
"""

import math
import statistics
import subprocess
import sys
import time

REFERENCE_PROCESS = [sys.executable, "-c", "import numpy"]


def reference():
    total = 0.0
    for k in range(1, 90):
        xs = [0.9 ** j for j in range(k)]
        total += math.fsum(x * y for x, y in zip(xs, reversed(xs)))
    return total


def reference_ns(runs=1):
    """Duration of reference() in ns: the median of `runs` timings."""
    times = []
    for _ in range(runs):
        t = time.perf_counter_ns()
        reference()
        times.append(time.perf_counter_ns() - t)
    return statistics.median(times)


def reference_process_ns():
    """Wall time of one reference process, in ns."""
    t = time.perf_counter_ns()
    subprocess.run(REFERENCE_PROCESS, check=True, timeout=60)
    return time.perf_counter_ns() - t
