"""How fast the host runs interpreter-bound code at this moment.

On a shared host a co-tenant on the hyperthread siblings slows this
program by up to ~1.8x, in stretches of a fraction of a second to tens
of seconds, so a wall time depends as much on the neighbours as on the
code. :func:`probe` is a fixed piece of work with the program's mix
(heap pushes and pops, dict updates, small numpy arrays, lists of small
dicts) that slows by the same factor: on the benchmark's 2-vCPU Xeon
host, plan() took 1.83x longer in the slowest 30% of moments than in
the fastest 30%, and the probe 1.81x.

:class:`Pace` runs the probe next to every timed piece of work, and
:func:`adjusted` rescales that piece to the probe's reference time
``REFERENCE_S``. An adjusted time reads as seconds on a host where the
probe takes ``REFERENCE_S``; a change to the program moves it, the
neighbours barely do. The probe is never inside a timed interval.

The program does not slow quite as much as the probe: across ~1,300
pieces paired with the probes around them, log(piece time) rose 0.89
to 0.94 per unit of log(probe time). The rescaling uses that
elasticity, ``ELASTICITY``, so a busy stretch is not over-corrected.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable

import numpy as np

__all__ = ["ELASTICITY", "REFERENCE_S", "Pace", "adjusted", "probe"]

#: The probe's time on the reference host in a quiet moment (s).
REFERENCE_S = 0.0024
#: How much the program's time moves per unit of the probe's, in logs.
ELASTICITY = 0.9
_RAMP = np.arange(300, dtype=float)


def probe() -> float:
    """One fixed piece of work; its result only defeats dead-code removal."""
    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    while heap:
        acc += heapq.heappop(heap)[0] * 1e-3
    for _ in range(60):
        acc += float(np.maximum.accumulate(np.cumsum(_RAMP) - _RAMP[::-1]).max())
    rows = [{"a": i, "b": [i, i + 1], "c": (i, str(i))} for i in range(800)]
    return acc + sum(row["b"][1] for row in rows if row["a"] % 3)


class Pace:
    """Probe timings taken next to timed work, oldest first.

    :meth:`sample` times one probe with the collector paused, so that
    its time does not depend on when a collection falls due.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 work: Callable[[], object] = probe) -> None:
        self.clock, self.work = clock, work
        self.taken: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            self.work()
            self.taken.append(self.clock() - start)
        finally:
            if enabled:
                gc.enable()


def adjusted(pieces: list[list[float]]) -> float:
    """Seconds of ``[[seconds, probe_seconds], ...]`` at the reference pace."""
    return sum(seconds * (REFERENCE_S / pace) ** ELASTICITY for seconds, pace in pieces)
