"""Host-speed probe: a fixed reference loop timed between operations.

On a shared host the same pure computation runs up to 1.8x slower for
stretches of seconds to minutes, which moves wall times between runs by more
than a regression bound can allow. The probe times a fixed loop of
interpreter work (benchmark code, never symorbit code) at most every
``INTERVAL_S`` while a run measures. A run's times are then reported at the
reference host speed: multiplied by ``REFERENCE_MS`` over the run's median
loop time. The program's own cost moves them as before; the host's load over
the run mostly cancels. Raw wall times are reported beside them.
"""

from __future__ import annotations

import math
import statistics
import time

INTERVAL_S = 0.25
REFERENCE_MS = 1.6  # reference loop time on the host the baselines were recorded on


def reference_loop() -> float:
    """Seconds taken by one fixed unit of interpreter work."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.loops: list = []
        self._last = -math.inf

    def tick(self, force: bool = False):
        """Time the reference loop if forced or the last timing was INTERVAL_S ago or more.

        The fastest of three back-to-back loops is kept: a single loop right
        after a command can take four times longer for reasons of its own.
        """
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            self.loops.append(min(reference_loop() for _ in range(3)))
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that takes this run's wall times to the reference host speed."""
        return REFERENCE_MS / (1e3 * statistics.median(self.loops))
