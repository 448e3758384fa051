"""Host-speed calibration for the benchmark's timings.

A shared virtual machine's speed drifts by up to about 2x, within a
second and from one minute to the next.  The benchmark times this fixed
loop next to the program's work and divides the program's times by the
loop's slowdown, so that runs made at different moments compare.
"""
from __future__ import annotations

import statistics
import time

#: A dict of tuples, like tpb's edge dicts; the loop copies and scans it.
CAL_DICT = {i: (i, i + 1, i % 3) for i in range(3000)}
CAL_INT_STEPS = 7000
CAL_DICT_COPIES = 5
#: The loop's time on an uncontended 2-vCPU Intel Xeon VM, so corrected
#: times read as times on such a host.
CAL_REF_S = 0.001


def calibration_s() -> float:
    """Wall time of a fixed loop: integer arithmetic, then copying and scanning a dict.

    tpb's searches do mostly the first kind of work and its graph code
    the second.  A contended host slows the second more than the first,
    so the loop holds both.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_INT_STEPS):
        s += i * i % 7
    for _ in range(CAL_DICT_COPIES):
        for v in dict(CAL_DICT).values():
            s += v[2]
    return time.perf_counter() - t0


def slowdown(cal: list[float]) -> float:
    """How much slower than the reference speed the host ran."""
    return statistics.median(cal) / CAL_REF_S
