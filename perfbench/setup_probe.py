"""Time ``import nlgeo`` in this fresh interpreter.

Prints the nominal-speed seconds and the raw wall seconds (see
calibration.py). run.py starts it with PYTHONPATH pointing at src/.
"""

import time

from calibration import calibrate, scale

before = calibrate()
t0 = time.perf_counter()
import nlgeo  # noqa: E402,F401

raw = time.perf_counter() - t0
print(raw * scale(before, calibrate()), raw)
