"""Speed-normalised timing, for hosts whose CPU speed drifts.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes as neighbouring tenants load the machine; that drift
swamps the change a single commit makes.  So every timed interval is paired
with timings of a fixed reference kernel taken right before and right after
it, and reported as

    normalised = raw * NOMINAL_S / mean(reference before, reference after)

that is, in seconds on a host where the reference kernel takes NOMINAL_S.
The kernel is the benchmark's own banded DTW (numpy cost band, pure-Python
recurrence) on a fixed pair: the same kind of work the library does, so
its time tracks the host's speed for that work, and it shares no code with
the library, so no library change moves it.  The kernel, its data and
NOMINAL_S must never change, or every normalised figure moves with them.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 400e-6
PROBE_REPS = 2
_N, _W, _DIMS, _SEED = 50, 10, 3, 20210118


class ReferenceClock:
    """Times the reference kernel; built after numpy's threads are pinned."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(_SEED)
        self._np = np
        self._q = np.cumsum(rng.normal(size=(_N, _DIMS)), axis=0)
        self._c = np.cumsum(rng.normal(size=(_N, _DIMS)), axis=0)
        cols = np.arange(_N)[:, None] + np.arange(-_W, _W + 1)[None, :]
        self._outside = (cols < 0) | (cols >= _N)
        self._cols = np.clip(cols, 0, _N - 1)

    def _kernel(self) -> float:
        np = self._np
        diff = self._q[:, None, :] - self._c[self._cols]
        band = np.sqrt((diff * diff).sum(axis=-1))
        band[self._outside] = np.inf
        rows = band.tolist()
        inf = float("inf")
        width = 2 * _W + 1
        prev = [inf] * width
        for i in range(_N):
            row = rows[i]
            cur = [inf] * width
            for k in range(width):
                j = i - _W + k
                if j < 0 or j >= _N:
                    continue
                if i == 0 and j == 0:
                    cur[k] = row[k]
                    continue
                best = prev[k + 1] if k + 1 < width else inf  # (i-1, j)
                if prev[k] < best:
                    best = prev[k]  # (i-1, j-1)
                if k > 0 and cur[k - 1] < best:
                    best = cur[k - 1]  # (i, j-1)
                cur[k] = row[k] + best
            prev = cur
        return prev[_W]

    def probe(self) -> float:
        """Best of PROBE_REPS raw timings of the reference kernel, in seconds."""
        best = float("inf")
        for _ in range(PROBE_REPS):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        return best


class Stopwatch:
    """Times consecutive calls, each normalised by the probes around it.

    `intervals` holds one (label, raw seconds, scale) per call; the call's
    normalised time is raw * scale.
    """

    def __init__(self, clock: ReferenceClock):
        self.clock = clock
        self.intervals: list = []
        self._last = clock.probe()

    def time(self, label: str, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            raw = perf_counter() - t0
            probe = self.clock.probe()
            self.intervals.append((label, raw, NOMINAL_S / (0.5 * (self._last + probe))))
            self._last = probe

    def total(self, label: str | None = None) -> float:
        """Normalised seconds over every call, or over the calls with `label`."""
        return sum(raw * scale for lab, raw, scale in self.intervals if label in (None, lab))
