"""Machine-speed calibration for the benchmark's timings.

On a host whose cores are shared with other work, the same run can take twice
as long from one second to the next.  Every time the benchmark reports is
therefore divided by the host's slowness, measured just before and just after
the timed work by a fixed pure-Python kernel that does not use nrp.  A
reported time is in reference seconds: the time the work takes while the
kernel runs in REFERENCE_S seconds.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.04  # about the kernel's median time on a 2-core x86-64 VM, Python 3.11
SEGMENT_S = 0.25  # the least wall time of work timed between two calibrations
_GRID = [[(k * 7 + s * 3) % 5 for s in range(3)] for k in range(14)]
_PATTERNS = [tuple(k for k in range(14) if (k * (j + 3)) % 4 == 1) for j in range(16)]


def _hits(periods, s, grid=_GRID):
    return sum(1 for k in periods if grid[k][s] > 1)


def _kernel(reps: int = 3000) -> int:
    """List indexing, small calls and comparisons, like the solver's inner loops."""
    best = 0
    for j in range(reps):
        periods = _PATTERNS[j & 15]
        for s in range(3):
            hits = _hits(periods, s)
            if hits > best:
                best = hits
    return best


def slowness() -> float:
    """The kernel's time now over REFERENCE_S: 1 at the reference speed."""
    start = time.perf_counter()
    for _ in range(5):
        _kernel()
    return (time.perf_counter() - start) / REFERENCE_S


class Timer:
    """Normalizes consecutive segments of work by the slowness around each."""

    def __init__(self) -> None:
        self._before = slowness()
        self.raw = 0.0  # wall seconds timed so far
        self.reference = 0.0  # the same, in reference seconds

    def scale(self, elapsed: float) -> float:
        """Call right after timing `elapsed` wall seconds; returns the divisor used."""
        after = slowness()
        factor = (self._before + after) / 2
        self._before = after
        self.raw += elapsed
        self.reference += elapsed / factor
        return factor
