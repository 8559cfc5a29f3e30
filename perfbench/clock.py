"""Reference-speed time: wall time scaled by an alternating probe.

The host this benchmark was built on switches between a fast and a slow
state every few seconds, and sometimes stays slow for minutes: the same
interpreter-bound work takes up to ~1.7x longer in the slow state, with
CPU time equal to wall time (the core is slower, not taken away).  A
run's raw timings therefore spread by 20-50% from one run to the next,
whatever statistic is taken.

The benchmark alternates every operation with a fixed probe — a few
hundred dict updates and a short SHA3 chain, ~60 us — and scales the
wall time of the work between two probes by ``PROBE_REF_S`` over the
median probe time around it.  The probe runs with the garbage collector
off, so the program's garbage is collected in the program's own time,
and only between operations, so it never overlaps the program's work.
A thread of the program running beside the probe would slow both alike
and hide its cost; :attr:`ReferenceClock.max_threads` lets the caller
refuse such a run.  Raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import statistics
import threading
import time
from contextlib import contextmanager

#: Probe time that defines one reference second's speed: about this
#: host's probe time in its fast state.
PROBE_REF_S = 60e-6
#: Probes on each side of a work segment whose median sets its speed.
WINDOW = 3


def _probe() -> None:
    counts: dict[int, int] = {}
    for i in range(400):
        counts[i % 61] = counts.get(i % 61, 0) + i
    digest = b"perfbench-probe"
    for _ in range(20):
        digest = hashlib.sha3_256(digest).digest()


class ReferenceClock:
    """Records probes and converts wall intervals to reference seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.max_threads = 1
        self._factors: list[float] | None = None

    def tick(self) -> float:
        """Run one probe; returns the time the next operation starts."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _probe()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.max_threads = max(self.max_threads, threading.active_count())
        self._factors = None
        return end

    @contextmanager
    def ticking(self, owner, attr: str):
        """Probe before every call of ``owner.attr`` inside the block."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def probed(*args, **kwargs):
            self.tick()
            return original(*args, **kwargs)

        setattr(owner, attr, probed)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def probe_median_s(self) -> float:
        """Median raw probe time of the run (host speed, for the log)."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def _factor(self, segment: int) -> float:
        if self._factors is None:
            times = [e - s for s, e in zip(self.starts, self.ends)]
            self._factors = [
                PROBE_REF_S / statistics.median(
                    times[max(0, k - WINDOW + 1): k + WINDOW + 1]
                )
                for k in range(len(times))
            ]
        return self._factors[min(max(segment, 0), len(self._factors) - 1)]

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the work in ``[t0, t1]``, probes excluded.

        Work segment ``k`` runs from the end of probe ``k`` to the start
        of probe ``k + 1``; its speed is the median of the probes around
        it.
        """
        k = bisect.bisect_right(self.ends, t0) - 1
        total = 0.0
        while True:
            seg_start = self.ends[k] if k >= 0 else float("-inf")
            seg_end = self.starts[k + 1] if k + 1 < len(self.starts) else float("inf")
            overlap = min(t1, seg_end) - max(t0, seg_start)
            if overlap > 0:
                total += overlap * self._factor(k)
            if seg_end >= t1:
                return total
            k += 1
