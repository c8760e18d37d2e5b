"""Machine-speed calibration.

The machine this benchmark was written on (2 shared x86_64 vCPUs) changes speed
every few seconds: this kernel alone takes about 4.6 ms or about 7.3 ms on
either core, and op times follow.  A fixed kernel of the same kind of work
as the eigensolver's inner loop (a 5-point sparse matvec, dot products and
vector updates, driven from Python) is timed next to every timed interval,
and each interval is rescaled to the speed at which the kernel takes
``REF_S`` seconds.  In a one-minute test there (one ``tiny-cli`` op repeated
100 times, the kernel timed between ops), op time and kernel time had a
correlation of 0.86; the rescaling cut the op-to-op spread (coefficient of
variation) from 0.19 to 0.10, and the medians of the two half-minutes went
from 0.51 s and 0.65 s raw to within 1.5 % of each other.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

REF_S = 0.005        # kernel time that defines the reference speed
ITERATIONS = 300
REPEATS = 3


def _stiffness(n: int = 32) -> sparse.csr_matrix:
    idx = np.arange(n * n).reshape(n, n)
    rows, cols = [idx.ravel()], [idx.ravel()]
    data = [np.full(n * n, 4.0)]
    for a, b in ((idx[:-1], idx[1:]), (idx[1:], idx[:-1]),
                 (idx[:, :-1], idx[:, 1:]), (idx[:, 1:], idx[:, :-1])):
        rows.append(a.ravel())
        cols.append(b.ravel())
        data.append(np.full(a.size, -1.0))
    return sparse.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n * n, n * n))


_A = _stiffness()


def _kernel() -> float:
    """ITERATIONS power-iteration steps with A; returns a checksum."""
    v = np.full(_A.shape[0], 1.0 / np.sqrt(_A.shape[0]))
    x = np.zeros_like(v)
    for _ in range(ITERATIONS):
        w = _A @ v
        x += float(v @ w) * v
        v = w / np.linalg.norm(w)
    return float(x.sum())


def kernel_s() -> float:
    """Best of REPEATS timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
