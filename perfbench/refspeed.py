"""Machine speed, measured next to the ops, and times scaled to a fixed speed.

The benchmark runs on shared vCPUs whose speed moves by tens of percent
within seconds: one fixed axiom check, repeated for three minutes, took
75-150 ms (5th to 95th percentile 92-150 ms), and the medians of blocks of
20 repeats ranged over 0.78-1.07 of their median.  A fixed pure-Python
kernel run next to it slows down with it: the same block medians divided
by the kernel's time ranged over 0.97-1.05.

So the timed loop runs ``kernel_s()`` before every op and once after the
last.  ``scale`` multiplies each op's wall time by ``REF_S`` over the
mean kernel time around that op: the result is the op's time on a
machine where the kernel takes ``REF_S``, which removes the machine's
drift and keeps the program's own cost.  A set-up time is scaled the same
way, by SETUP_PROBES kernel runs just before it and as many just after.

One hopf-axioms seed run three times, while the machine ran at 1.42, 0.70
and 0.52 times the reference speed (the last two with CPU-bound processes
competing), gave 15.1, 7.9 and 5.7 ops per second of wall time and 10.7,
11.0 and 10.7 at the reference speed.  The kernel is the benchmark's own
code (Fraction products summed into a dict, the pattern of the library's
inner loops) and calls nothing in the library, so a change to the library
cannot move it.
"""

import gc
import statistics
import time
from fractions import Fraction

# about the kernel's median time on the machine the benchmark was written
# on (2 shared vCPUs, Python 3.11), so scaled times read as times at that
# machine's usual speed
REF_S = 0.0040
# kernel times on each side of an op whose mean gives its speed
WINDOW = 5
# kernel runs just before and just after a set-up, whose mean gives the
# speed during it
SETUP_PROBES = 25
REPS = 21

_A = [Fraction(n, d) for n, d in ((3, 7), (-5, 2), (1, 9), (4, 5), (-7, 3), (2, 1))]
_B = [Fraction(n, d) for n, d in ((-1, 4), (6, 5), (2, 3), (-9, 7), (5, 8), (1, 6))]


def kernel_s() -> float:
    """Wall time of a fixed amount of Fraction and dict work, with the
    garbage collector paused so the library's garbage is not counted."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(REPS):
            acc = {}
            for i, x in enumerate(_A):
                for j, y in enumerate(_B):
                    key = (i + j) % 5
                    acc[key] = acc.get(key, 0) + x * y
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scale(latencies, kernels):
    """Op times at the reference speed.

    ``kernels[i]`` was measured just before op i and ``kernels[-1]`` after
    the last op; op i is scaled by the mean of the kernel times within
    WINDOW places of it on either side.  The mean, not the median: when
    the process gets a share of a CPU in time slices, a short kernel run
    often fits in one slice, and only the mean counts the slices it
    missed in proportion.
    """
    if len(kernels) != len(latencies) + 1:
        raise ValueError("need one kernel time before each op and one after the last")
    out = []
    for i, lat in enumerate(latencies):
        window = kernels[max(0, i - WINDOW + 1): i + WINDOW + 1]
        out.append(lat * REF_S / statistics.fmean(window))
    return out
