"""Machine-speed calibration for the benchmark's timings.

Shared hosts run other tenants on the same physical cores; on a 2-vCPU VM
at 2.0 GHz the speed drifted by up to 1.7x over minutes (no CPU time is
stolen, every instruction just runs slower). Each timed interval is
therefore scaled to a nominal speed: it is multiplied by NOMINAL_S over the
time of a fixed loop, measured right before and right after the interval.
The loop does what nlgeo's solver mostly does (a method call per point,
small tuples, float arithmetic, math.sqrt), so it slows down with it. Raw
wall times are printed next to the scaled ones.
"""

import math
import time

ITERATIONS = 2500
# the loop's time on the reference machine (2 vCPU VM at 2.0 GHz, quiet host)
NOMINAL_S = 0.004


class _Objective:
    def __init__(self, a, e):
        self.a = a
        self.e = e

    def value_at(self, x):
        d0, d1, d2 = self.a[0] - x[0], self.a[1] - x[1], self.a[2] - x[2]
        w = (
            0.25 * (1.0 + x[0] + x[1] - x[2]),
            0.25 * (1.0 + x[0] - x[1] + x[2]),
            0.25 * (1.0 - x[0] + x[1] + x[2]),
            0.25 * (1.0 - x[0] - x[1] - x[2]),
        )
        s = 0.0
        for ei, wi in zip(self.e, w):
            if wi > 0.0:
                s += math.sqrt(ei * wi)
        return s + d0 * d0 + d1 * d1 + d2 * d2


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    obj = _Objective((0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4))
    t0 = time.perf_counter()
    s = 0.0
    for i in range(ITERATIONS):
        s += obj.value_at((i * 1e-5, 0.1, 0.2))
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns wall time measured between two calibrations into nominal time."""
    return NOMINAL_S / (0.5 * (before + after))
