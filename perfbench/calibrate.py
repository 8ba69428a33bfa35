"""Samples how fast the host runs Python right now, all through a pass.

On a shared host the same code runs up to 70% slower, in stretches that
last from a fraction of a second to minutes, and the process's CPU time
grows with its wall time: the slowdown is in the instructions, not in time
spent descheduled.  So a pass runs a small fixed kernel from a timer signal
every ``INTERVAL_S``, inside the program's operations as well as between
them, and reports each operation's time scaled to an unloaded core:

    normalized seconds = measured seconds * REFERENCE_S / mean kernel time

where the mean is over the readings taken while the operation ran and
within ``WINDOW_S`` of it.  The kernel never changes with the program, so a
faster program still reads faster; a slower host no longer does.  The time
spent in the kernel is taken out of the operation that it interrupted.

The kernel does what the program does most: it relabels small graphs held
as edge bitmasks, with tuples, dicts and int bit operations.
"""
from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from itertools import combinations, permutations
from time import perf_counter

# About the kernel's time in the fast state of the host the benchmark was
# written on (2 vCPUs of an Intel Xeon, Python 3.11.7).  It only sets the
# scale: normalized seconds are seconds on such a core when unloaded.
REFERENCE_S = 0.0006
INTERVAL_S = 0.05
WINDOW_S = 0.1
MIN_READINGS = 3

_PAIRS = list(combinations(range(5), 2))
_INDEX = {p: i for i, p in enumerate(_PAIRS)}
_PERMS = list(permutations(range(5)))[:20]
_MASKS = range(7, 1 << len(_PAIRS), 31)


def _kernel() -> int:
    """Relabel 33 graphs on 5 vertices 20 ways each; count distinct minima."""
    seen = set()
    for mask in _MASKS:
        edges = [_PAIRS[i] for i in range(len(_PAIRS)) if mask >> i & 1]
        best = None
        for p in _PERMS:
            code = 0
            for u, v in edges:
                a, b = p[u], p[v]
                code |= 1 << _INDEX[(a, b) if a < b else (b, a)]
            if best is None or code < best:
                best = code
        seen.add(best)
    return len(seen)


class Sampler:
    """Kernel readings from a timer signal, and the time they took."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self._answer = _kernel()

    def _tick(self, signum, frame) -> None:
        # the collector is off so that a reading does not depend on how many
        # objects the program holds
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        answer = _kernel()
        seconds = perf_counter() - start
        if enabled:
            gc.enable()
        if answer != self._answer:
            raise RuntimeError(f"calibration kernel gave {answer}, expected {self._answer}")
        self.starts.append(start)
        self.kernel_s.append(seconds)
        self.spent += seconds

    def start(self) -> None:
        for _ in range(5):  # let the interpreter specialise the kernel's bytecode
            _kernel()
        signal.signal(signal.SIGALRM, self._tick)
        self.resume()

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean reading during [start, end], widened by
        WINDOW_S each side and then by index to at least MIN_READINGS."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        while hi - lo < MIN_READINGS and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if lo == hi:
            raise RuntimeError("no calibration readings were taken")
        return REFERENCE_S / statistics.fmean(self.kernel_s[lo:hi])
