"""A fixed piece of work that says how fast the host is right now.

The benchmark's host is a few cores of a shared machine: for seconds or
minutes at a time everything on it, a bare loop included, takes 1.1 to 2
times as long, CPU time and wall time alike. No statistic inside a run
removes a slowdown that outlasts the run, so the end-to-end pass times
this loop between its boots and between its blocks of requests, and
reports every time as it would be on the reference host, the one on which the loop takes
``NOMINAL_MS``: the part of a time that processors were busy for is
multiplied by ``NOMINAL_MS / (loop time measured beside it)``, the part
spent waiting is left as it is. The times as the clock read them are
printed next to the corrected ones.

The loop resembles the server's kernels (array indexing, a visited mark,
a list append, integer arithmetic over a few hundred KB) and nothing in
it comes from the repository, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from array import array

#: The loop's time on the host the benchmark was sized on, when quiet.
NOMINAL_MS = 5.3
REPS = 3

_N = 1 << 16
_NEXT = array("I", ((i * 40503 + 1) % _N for i in range(_N)))


def _once() -> float:
    nxt, seen, order, total, j = _NEXT, bytearray(_N), [], 0, 0
    start = time.perf_counter()
    for _ in range(_N):
        j = nxt[j]
        if not seen[j]:
            seen[j] = 1
            order.append(j)
            total += j
    return (time.perf_counter() - start) * 1000.0


class HostSpeed:
    """The host's speed over one phase of a run, and the correction it gives.

    The phase times the loop every so often (``sample``) and says how much
    CPU time was used over how much time requests were outstanding
    (``busy``). ``factor`` is what to multiply a time of the phase by to
    read it on the reference host: only the share of it that processors
    were busy for scales with the host's speed; waiting for a timer or an
    fsync does not.
    """

    def __init__(self) -> None:
        self._loops: list = []
        self._cpu = 0.0
        self._outstanding = 0.0

    def sample(self) -> None:
        """Time the loop ``REPS`` times (about 16 ms)."""
        self._loops += [_once() for _ in range(REPS)]

    def busy(self, cpu_seconds: float, outstanding_seconds: float) -> None:
        self._cpu += cpu_seconds
        self._outstanding += outstanding_seconds

    @property
    def speed(self) -> float:
        """1.0 on the reference host, 0.5 on one that takes twice as long.
        The median: the host's speed changes within a second, and the
        phase's own times are reported as medians too."""
        return NOMINAL_MS / statistics.median(self._loops)

    @property
    def busy_share(self) -> float:
        return min(self._cpu / self._outstanding, 1.0)

    @property
    def factor(self) -> float:
        return 1.0 - self.busy_share * (1.0 - self.speed)
