"""A fixed reference workload that measures how fast the machine runs
right now.

The machine this benchmark was tuned on (a 2-vCPU shared virtual
machine) ran identical work up to 35% slower for stretches of seconds to
minutes, in CPU time as well as wall time: the host's other tenants
share its cores and caches.  Timing only the package mixes that drift
into every figure.  So the benchmark runs one `chunk()` of this module
before each timed operation (a `python -c pass` process where the
operations are processes, see `workloads.CliReport.chunk`) and scales
the operation's CPU time by how fast that reference work ran in that
pass (see `run.py`).

A chunk mixes the kinds of work the package does: a sweep over a sparse
nested-tuple structure table with integer multiply-adds, exact Fraction
elimination, and a plain integer loop.  Its inputs are fixed and it
imports nothing from the package, so no change to the package can change
what it does.
"""

from __future__ import annotations

import random
from fractions import Fraction

# CPU seconds one chunk takes at the reference speed: the median over
# chunks on the tuning machine when it ran fast.  Any constant would do;
# it sets the scale of the normalised times and is the same for every
# commit measured.
CHUNK_S = 0.0040
# CPU seconds of a `python3 -c pass` process at the same speed: the
# reference for operations that are processes of their own
PROCESS_S = 0.060

_N = 6
_rng = random.Random("perfbench reference")
_TABLE = tuple(tuple(tuple(tuple(_rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(_N))
                           for _ in range(_N)) for _ in range(_N)) for _ in range(_N))
_MATRIX = tuple(tuple(Fraction(_rng.randint(-3, 3)) for _ in range(9)) for _ in range(8))


def _sweep():
    bad = 0
    T = _TABLE
    for i in range(_N):
        for j in range(_N):
            for u in range(_N):
                acc = [0] * _N
                for m, c in enumerate(T[i][j][u]):
                    if c:
                        row = T[m][u][j]
                        for t in range(_N):
                            if row[t]:
                                acc[t] += c * row[t]
                bad += any(acc)
    return bad


def _eliminate():
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def _integers():
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def chunk():
    """One unit of reference work, a few milliseconds of CPU."""
    return _sweep(), _eliminate(), _integers()
