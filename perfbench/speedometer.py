"""The speed of the processor, probed between queries.

On a shared virtual machine the same work runs at speeds up to about 1.8x
apart, in phases that last from seconds to minutes; process CPU time slows
down just as wall time does, so it is no way out.  A worker therefore runs a
short probe between queries, at most every PROBE_EVERY_S seconds, and scales
each query's time by REFERENCE_S over the median duration of the NEAREST
probes around it.  A scaled time is in reference seconds: the time the query
would take on a processor that runs the probe in REFERENCE_S (1.6 ms, about
the middle of the 1.1 to 2.1 ms it took on a two-CPU Intel Xeon virtual
machine).  The scaling is not exact: the engine's large matrices slow down
less than the probe does, so a counterterm run in a fast phase reads up to
about 8 % higher than one in a slow phase.

The probe is stdlib work of the kind the engine does (Fraction arithmetic
and tuple-keyed dicts) and uses nothing from `onshell`, so a change to the
engine never changes it.  Probes are never inside a timed query.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.6e-3
PROBE_EVERY_S = 0.05
NEAREST = 5
SETUP_PROBES = 3  # probes before and after the set-up


def _work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        x = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i)
        acc += x
        table[(i, i % 5)] = x
    return acc, table


class Speedometer:
    def __init__(self):
        self.probes = []  # (midpoint, duration)
        self._next = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        _work()
        end = time.perf_counter()
        self.probes.append(((start + end) / 2, end - start))
        self._next = end + PROBE_EVERY_S

    def maybe_probe(self) -> None:
        if time.perf_counter() >= self._next:
            self.probe()

    def median(self) -> float:
        return statistics.median(d for _, d in self.probes)

    def scale(self, start: float, end: float) -> float:
        """The factor from measured to reference seconds for work in [start, end]."""
        def distance(p):
            return max(start - p[0], p[0] - end, 0.0)
        nearest = sorted(self.probes, key=distance)[:NEAREST]
        return REFERENCE_S / statistics.median(d for _, d in nearest)
