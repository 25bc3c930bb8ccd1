"""Host speed measured next to the program, and times in reference seconds.

On a shared host a CPU's speed swings by half or more between phases that
last from seconds to minutes, so plain wall times of the same code spread
too far from run to run to bound a regression.  A ``Speedometer`` runs a
fixed probe -- two small backtracking counts, one over dicts and sets as
in the constructions and one over int64 bitmasks in numpy arrays as in
the search kernels -- every ``PERIOD_S`` seconds from a SIGALRM
timer, in the benchmark process and on the one CPU it and its children
are pinned to.  The probe's duration says how fast that CPU is at that
moment.

``seconds(t0, t1)`` turns a ``time.perf_counter`` interval into reference
seconds: the wall time less the probe's own time inside it, times
``REFERENCE_S`` over the probe's duration, averaged over the probes in
and around the interval.  One reference second is the time in which the
probe runs 4000 times.  The probe is the benchmark's own code, so a
change to palettebox changes reference seconds as much as wall seconds.

The timer also runs while a child process works: on the shared CPU the
probe then preempts the child, which is how it measures the child's
speed, and ``scale`` takes the probe's share of the interval out of the
times the child reports about itself.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
REFERENCE_S = 2.5e-4
# probes averaged for an interval that holds fewer of its own
NEAREST = 8

_RING = {v: ((v - 1) % 7, (v + 1) % 7) for v in range(7)}


def _colorings(colors: dict, v: int) -> int:
    if v == len(_RING):
        return 1
    used = {colors[u] for u in _RING[v] if u in colors}
    total = 0
    for c in (1, 2, 3):
        if c not in used:
            colors[v] = c
            total += _colorings(colors, v + 1)
            del colors[v]
    return total


_EU = np.arange(4, dtype=np.int64)
_EV = (_EU + 1) % 4


def _edge_colorings() -> int:
    """Proper 3-edge-colorings of C4 (18), searched the way the kernels search."""
    m, k = len(_EU), 3
    assign = np.zeros(m, dtype=np.int64)
    vmask = np.zeros(m, dtype=np.int64)
    d = count = 0
    while d >= 0:
        u, v = _EU[d], _EV[d]
        if assign[d] > 0:
            bit = 1 << (assign[d] - 1)
            vmask[u] ^= bit
            vmask[v] ^= bit
        both = vmask[u] | vmask[v]
        c = assign[d] + 1
        while c <= k and (both >> (c - 1)) & 1 == 1:
            c += 1
        if c > k:
            assign[d] = 0
            d -= 1
            continue
        assign[d] = c
        bit = 1 << (c - 1)
        vmask[u] |= bit
        vmask[v] |= bit
        if d == m - 1:
            count += 1
        else:
            d += 1
    return count


def probe() -> tuple[int, int]:
    """The fixed work: the 126 vertex 3-colorings of C7 and 18 edge 3-colorings of C4.

    It is kept short, because a probe that preempts a child adds its
    duration to whichever case the child is timing.
    """
    return _colorings({}, 0), _edge_colorings()


class Speedometer:
    """Probe samples of one run, and wall intervals in reference seconds.

    Until it is started it has no samples, and ``seconds`` is wall time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            probe()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, t0: float, t1: float) -> range:
        return range(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]; 1 without samples."""
        if not self.starts:
            return 1.0
        idx = self._inside(t0, t1)
        if len(idx) < NEAREST:
            mid = (t0 + t1) / 2
            idx = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))
            idx = idx[:NEAREST]
        return statistics.fmean(REFERENCE_S / self.durations[i] for i in idx)

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second of work done over [t0, t1].

        The probe's own share of the interval is taken out first.
        """
        busy = sum(self.durations[i] for i in self._inside(t0, t1))
        return (1.0 - busy / (t1 - t0)) * self.factor(t0, t1) if t1 > t0 else 0.0

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1], less the probe's own time."""
        return (t1 - t0) * self.scale(t0, t1)

    def summary(self) -> dict:
        q = statistics.quantiles(self.durations, n=4) if len(self.durations) > 1 else []
        return {"probes": len(self.durations), "probe_ms_quartiles": [1e3 * x for x in q]}
