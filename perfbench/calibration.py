"""A fixed pure-Python job that measures the interpreter's current speed.

The benchmark host is shared: its speed for interpreter-bound code drifts by
up to half over tens of seconds, differently in each process.  run.py times
this job between passes, in the benchmark process and in each cold-start
child, and scales end-to-end times to the speed at which the job takes
``REFERENCE_S``.  The job allocates only small integers, so it leaves the
process's peak memory and malloc thresholds as they were.
"""

import time

LOOPS = 2_000_000
# reference_job() seconds on the reference host (Intel Xeon, 2 vCPUs, Python 3.11.7)
REFERENCE_S = 0.2


def reference_job() -> float:
    """Seconds this interpreter takes for a fixed loop of integer arithmetic."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.perf_counter() - start
