"""A fixed calibration unit that measures how fast the machine runs right now.

On a 2-vCPU virtual machine on a shared Intel Xeon host, the same code ran up
to 40 % slower in some 30-second windows than in others, for mrws and for a
pure Python loop alike, and the guest has no hardware counters. A
run therefore interleaves this unit with its invocations and divides its
times by the unit's mean time over the run, relative to ``UNIT_REF_S``. In
two sets of ten 30-second runs per workload there, that took the spread of
the median session time (interquartile range over the median) from 5-23 %
to 3-12 %; it helped most where the raw spread was widest.

The unit mixes what the workloads spend their time on: HiGHS transport LPs,
small symmetric eigendecompositions, dense matrix-vector products and
interpreted Python. It uses no mrws code, so a change to the program cannot
move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

# typical time of one unit on that machine; it only sets the scale, so
# normalized times read as seconds there
UNIT_REF_S = 0.03


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        k = 16
        self.cost = rng.random(k * k)
        rows = np.concatenate([np.repeat(np.arange(k), k), k + np.tile(np.arange(k), k)])
        cols = np.concatenate([np.arange(k * k), np.arange(k * k)])
        self.a_eq = coo_matrix((np.ones(2 * k * k), (rows, cols)), shape=(2 * k, k * k))
        self.b_eq = np.concatenate([np.full(k, 1.0 / k), rng.dirichlet(np.ones(k))])
        self.matrix = rng.random((500, 500))
        self.vector = rng.random(500)
        sym = rng.random((60, 60))
        self.sym = sym + sym.T

    def unit(self) -> float:
        """Run the unit once; return its wall time in seconds."""
        t0 = time.perf_counter()
        for _ in range(6):
            linprog(self.cost, A_eq=self.a_eq, b_eq=self.b_eq, bounds=(0, None), method="highs")
        x = self.vector
        for _ in range(30):
            x = self.matrix @ x
            x /= x.max()
        for _ in range(10):
            np.linalg.eigh(self.sym)
        acc = 0
        for i in range(30000):
            acc += i
        return time.perf_counter() - t0
