"""A fixed pure-Python reference loop that measures how fast the host
runs right now.

The benchmark runs on shared cores whose speed drifts by up to a
quarter over minutes, so command times from runs made minutes apart
differ by that much for identical code. The untraced run times this
loop before every CLI command and divides a command's mean time over
the run by the loop's mean time, which cancels the drift. The loop
does the kinds of work the program does (bitset rows with popcounts,
set intersections, dict counting, integer arithmetic) but imports
nothing from it, so a change to the program cannot move the reference.
"""

from __future__ import annotations

import random
import time

VERTICES = 96
ROUNDS = 12


def _work() -> int:
    rng = random.Random(20171226)
    rows = [0] * VERTICES
    for i in range(VERTICES):
        for j in range(i + 1, VERTICES):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    triangles = 0
    for i in range(VERTICES):
        cand = rows[i] & (-1 << (i + 1))
        c = cand
        while c:
            b = c & -c
            c ^= b
            triangles += (cand & rows[b.bit_length() - 1]).bit_count()
    sets = [{j for j in range(VERTICES) if rows[i] >> j & 1} for i in range(VERTICES)]
    common = sum(len(sets[i] & sets[j]) for i in range(VERTICES) for j in range(i))
    degrees: dict[int, int] = {}
    for s in sets:
        degrees[len(s)] = degrees.get(len(s), 0) + 1
    return triangles + common + sum(k * v for k, v in degrees.items())


def reference_s() -> float:
    """Seconds the reference loop takes now (0.13-0.17 s on a 2-core
    x86-64 VM with CPython 3.11)."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        _work()
    return time.perf_counter() - t0
