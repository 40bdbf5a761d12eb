"""The reference kernel: a fixed piece of work that measures the host's pace.

The host the benchmark runs on is shared.  Other load on it slows the
interpreter by up to a third, for a fraction of a second or for minutes,
and on both processors at once, so a run's wall times say as much about
the neighbours as about the program.  The benchmark therefore times this
kernel between operations and reports every end-to-end time scaled to a
host on which the kernel takes ``REF_S``:

    scaled time = measured time * REF_S / kernel time measured alongside

The kernel is the benchmark's own code and never imports the program, so a
change to the program cannot change it.  It does the kind of work the
program's hot path does, in pure Python: an lcm scaling of fractions and a
binary search over depth-first packing probes with a transposition table.
On the 2-vCPU Xeon host the benchmark was built on it takes about 1.7 ms,
and the measured times of one fixed set of solves, repeated minute after
minute, varied with a coefficient of variation of about 10% while the
scaled times varied with about 2%.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from math import lcm
from time import perf_counter

# Scaled times are those of a host on which one kernel call takes 2 ms.
REF_S = 0.002

_VALUES = [Fraction(p, q) for p, q in
           ((97, 7), (89, 3), (83, 11), (79, 5), (73, 9), (71, 4), (67, 13))]
_PARTS = 3
EXPECTED = Fraction(15571, 495)


def _feasible(weights: list, tau: int) -> bool:
    """Can ``weights`` (non-increasing) fill _PARTS cells to at least tau each?"""
    cells = [0] * _PARTS
    suffix = [0] * (len(weights) + 1)
    for i in range(len(weights) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]
    seen = set()

    def rec(i: int) -> bool:
        deficit = sum(tau - c for c in cells if c < tau)
        if deficit == 0:
            return True
        if i == len(weights) or suffix[i] < deficit:
            return False
        key = (i, tuple(sorted(min(c, tau) for c in cells)))
        if key in seen:
            return False
        tried = set()
        for j in sorted(range(_PARTS), key=lambda j: (-cells[j], j)):
            s = cells[j]
            if s >= tau or s in tried:
                continue
            tried.add(s)
            cells[j] = s + weights[i]
            if rec(i + 1):
                return True
            cells[j] = s
        seen.add(key)
        return False

    return rec(0)


def kernel() -> Fraction:
    """The maximin share of _VALUES over _PARTS parts."""
    denom = 1
    for v in _VALUES:
        denom = lcm(denom, v.denominator)
    weights = sorted((int(v * denom) for v in _VALUES), reverse=True)
    lo, hi = 0, sum(weights) // _PARTS
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _feasible(weights, mid):
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, denom)


def timed() -> float:
    """Seconds one kernel call takes now."""
    t = perf_counter()
    value = kernel()
    elapsed = perf_counter() - t
    if value != EXPECTED:
        raise RuntimeError(f"reference kernel returned {value}, expected {EXPECTED}")
    return elapsed


def pace(calls: int = 5) -> float:
    """Mean seconds per kernel call over ``calls`` calls in a row."""
    return statistics.fmean(timed() for _ in range(calls))


def scaled(times: list, refs: list, ref_at: list, half_window: int = 16) -> list:
    """Each time scaled to the reference pace.

    ``refs`` are kernel timings in the order taken and ``ref_at[i]`` is the
    index of the last one taken before ``times[i]``.  Each time is scaled by
    the mean of the kernel timings within ``half_window`` samples of that
    one.  The mean, not the median: when the host stalls in short bursts,
    a few kernel timings are slow and most are not, while every long
    operation takes its share of the stalls, and only the mean of the
    kernel timings slows by the same share.
    """
    out = []
    for t, j in zip(times, ref_at):
        local = statistics.fmean(refs[max(0, j - half_window):j + half_window + 1])
        out.append(t * REF_S / local)
    return out
