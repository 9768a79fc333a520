"""Fixed pure-Python reference kernel, used to convert raw seconds into
reference-speed seconds.

The host's speed drifts with what else runs on it, so raw seconds move
between runs of identical code.  While work is timed, passes of this kernel
run alongside it (see SpeedMeter), and the work's raw time is multiplied by
NOMINAL_S over the kernel's mean measured time around it.  The result is
the time the work would take on a host where one kernel pass takes exactly
NOMINAL_S.

The kernel uses the standard library only and no corelate code, so a change
to the program can never change it.  It mixes what the program does most:
calls, union-find over a list, dict relabelling, building and sorting small
tuples, formatting and parsing integers, and big-integer and rational
arithmetic.  (A smaller mix of only union-find and arithmetic tracked the
program's speed worse: its scaled run times spread three times wider.)  It
runs with the garbage collector paused, so that a large program heap cannot
slow it and hide a regression.  It imports nothing heavy, so that loading
it does not pre-import modules whose import set-up time should pay for.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from math import gcd

# Median time of one kernel pass on the reference host (see README.md).
# Fixed, so that reference-speed seconds of different commits compare.
NOMINAL_S = 0.0005


def _find(parent, i):
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


def _kernel() -> int:
    n = 200
    parent = list(range(n))
    for k in range(n):
        a, b = _find(parent, k), _find(parent, (k * 7919 + 13) % n)
        if a != b:
            parent[max(a, b)] = min(a, b)
    index = {}
    for k in range(n):
        root = _find(parent, k)
        if root not in index:
            index[root] = len(index)
    table = tuple(index[_find(parent, k)] for k in range(n))
    pairs = sorted(((v, k) for k, v in enumerate(table)), key=lambda p: (p[0], -p[1]))
    text = ",".join(str(v) for _, v in pairs)
    acc = 0
    for piece in text.split(","):
        acc = (acc * 31 + int(piece)) % 1_000_003
    big = 1
    for k in range(1, 40):
        big = big * (k + 7) - acc
    num, den = 0, 1
    for k in range(1, 12):
        num, den = num * (k + 1) + k * den, den * (k + 1)
        g = gcd(num, den)
        num, den = num // g, den // g
    return acc ^ (big % 997) ^ (num % 991)


_ANSWER = _kernel()


def kernel_seconds() -> float:
    """Raw seconds of one kernel pass, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = _kernel()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    if out != _ANSWER:
        raise RuntimeError("reference kernel gave a different answer")
    return t1 - t0


class SpeedMeter:
    """Samples the kernel's speed while work runs, and scales by it.

    Inside a ``with`` block a SIGALRM timer runs one kernel pass every
    ``interval`` seconds of wall time, in the main thread between two
    bytecodes of whatever is running, so long operations are sampled during
    their run and not only at their ends.  The time the handler takes is
    added to ``stolen``; a caller subtracts it from its own timings.
    ``at`` and ``spent`` hold each sample's midpoint and handler time, so
    that ``stolen_between`` can give the handler time inside any interval.
    """

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.at = array("d")
        self.kernel = array("d")
        self.spent = array("d")
        self.stolen = 0.0
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        k = kernel_seconds()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.kernel.append(k)
        self.spent.append(t1 - t0)
        self.stolen += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float, window: float) -> float:
        """NOMINAL_S over the mean kernel time sampled in [t0 - window,
        t1 + window]; the nearest samples if that holds fewer than three."""
        lo = bisect_left(self.at, t0 - window)
        hi = bisect_right(self.at, t1 + window)
        if hi - lo < 3:
            mid = bisect_left(self.at, (t0 + t1) / 2)
            lo, hi = max(0, mid - 2), min(len(self.at), mid + 2)
        if hi <= lo:
            raise RuntimeError("no reference-kernel samples were taken")
        picked = self.kernel[lo:hi]
        return NOMINAL_S * len(picked) / sum(picked)

    def stolen_between(self):
        """A function of (t0, t1) that gives the handler time of the samples
        taken inside [t0, t1].  A sample runs between two bytecodes, so it
        lies wholly inside or wholly outside any interval timed by the
        program being measured."""
        at = self.at
        cumulative = array("d", [0.0])
        for spent in self.spent:
            cumulative.append(cumulative[-1] + spent)

        def between(t0: float, t1: float) -> float:
            return cumulative[bisect_right(at, t1)] - cumulative[bisect_left(at, t0)]

        return between
