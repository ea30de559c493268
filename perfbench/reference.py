"""A fixed reference kernel that measures how fast the machine runs Python right now.

The 2-core machines these numbers come from change speed by up to half
over seconds to minutes, and CPU time follows wall time, so the slowdown is
the CPU's, not scheduling.  The worker times this kernel between ops and
scales each op's duration by `NOMINAL_S / (kernel time next to the op)`.
Times are then "seconds at the reference speed".  The kernel is benchmark
code and does the same kind of work as the program (big-integer Bareiss
elimination, tuples, sets and dicts of small ints), so a change to the
program cannot move it, and a slowdown of the machine moves both about alike.
"""

from __future__ import annotations

import random
import statistics
import time

# about the kernel's time on the machine the README's numbers come from, in its faster phases
NOMINAL_S = 0.001

_RNG = random.Random(20250325)
_MATRIX = tuple(tuple(_RNG.randrange(-9, 10) for _ in range(24)) for _ in range(24))
_PERM = tuple(_RNG.sample(range(96), 96))


def kernel() -> int:
    """Fraction-free elimination on a fixed 24x24 matrix, then an orbit closure."""
    m = [list(row) for row in _MATRIX]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        pivot = m[k][k] or 1
        for i in range(k + 1, n):
            row_i, row_k, factor = m[i], m[k], m[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    seen = {}
    for start in range(96):
        orbit = {start}
        x = _PERM[start]
        while x not in orbit:
            orbit.add(x)
            x = _PERM[x]
        seen[tuple(sorted(orbit))] = start
    return m[n - 1][n - 1] + len(seen)


def time_kernel() -> tuple[float, float]:
    """(midpoint, duration) of one kernel run, on the perf_counter clock."""
    started = time.perf_counter()
    kernel()
    ended = time.perf_counter()
    return (started + ended) / 2, ended - started


def local_speed(refs, start: float, end: float, window: float = 1.0) -> float:
    """Median kernel time within `window` seconds of [start, end]; the nearest if none."""
    near = [d for t, d in refs if start - window <= t <= end + window]
    if not near:
        near = [min(refs, key=lambda r: min(abs(r[0] - start), abs(r[0] - end)))[1]]
    return statistics.median(near)
