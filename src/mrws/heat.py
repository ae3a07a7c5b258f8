"""The heat semigroup generated by the averaging operator minus identity.

Three independent evaluation routes are provided: the exponential series
e^{-t} sum_k t^k/k! P^k u0 (with a rigorous tail cutoff), diagonalization of
the symmetrized kernel, and classical fourth-order Runge-Kutta integration of
du/dt = (P - I) u. They agree to ~1e-9 and cross-check each other in tests.

On this linear system one Runge-Kutta step is a fixed matrix R, so the rk4
route either applies a power of R by repeated squaring, or steps the field
directly, whichever its cost estimate makes cheaper; it never uses the
eigendecomposition.

A time grid is evaluated in one pass, not time by time. The series of every
time starts from the same terms P^k u0, which are computed once for the grid.
The rk4 times powered with the same step length share one R, built once, and
one chain of its squarings. Each state is bit-identical to evolving its time
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .core import ScalarField, Space, StructuralError, as_values
from .connectivity import invariant_blocks

__all__ = ["HeatTrajectory", "apply_laplacian", "heat_evolve", "heat_trajectory", "stationary_limit"]

METHODS = ("series", "spectral", "rk4")

# Longest series step, as its prefactor e^{-t} underflows past t ~ 745. Longer
# times take equal steps, each truncated within tol/steps; T_t is a sup-norm
# contraction, so the truncation errors add up to less than tol.
SERIES_STEP = 512.0


def apply_laplacian(space: Space, f) -> ScalarField:
    """Generator of the walk: (Lf)(x) = sum_y k(x,y) (f(y) - f(x)).

    Integrates to zero against the stationary measure.
    """
    v = as_values(space, f)
    return ScalarField(space, space.kernel @ v - v)


def heat_evolve(space: Space, u0, t: float, method: str = "series", tol: float = 1e-12) -> ScalarField:
    """Evolve u0 for time t under the heat semigroup.

    ``tol`` bounds the series truncation error (sup norm); the other two
    methods ignore it. The series keeps exact zeros across kernel-disconnected
    blocks, which the spectral route cannot guarantee at roundoff level.
    """
    return _evolve(space, u0, [t], method, tol)[0]


def _evolve(space: Space, u0, ts, method: str, tol: float) -> list:
    """States of the flow at each time of ts, by one pass over all of them.

    Each state is bit-identical to evolving its time alone: the series shares
    the terms P^k u0 of its first step, and rk4 shares each step matrix and
    its squarings among the times powered with the same step length."""
    v = as_values(space, u0)
    if not np.isfinite(v).all():  # before any route: the series would never converge on it
        raise StructuralError("field contains non-finite entries")
    for t in ts:
        if not 0 <= t < np.inf:  # also rejects NaN, on which the series would never stop
            raise ValueError("t must be finite and >= 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    out = [None] * len(ts)  # a state left at None is u0
    live = [i for i, t in enumerate(ts) if t != 0.0]
    P = space.kernel
    if method == "series":
        # a time so small that t / SERIES_STEP underflows to zero takes no step
        steps = {i: int(np.ceil(ts[i] / SERIES_STEP)) for i in live}
        live = [i for i in live if steps[i]]
        if live:
            firsts = _evolve_series(P, v, [ts[i] / steps[i] for i in live], [tol / steps[i] for i in live])
            for i, u in zip(live, firsts):
                for _ in range(steps[i] - 1):
                    u = _evolve_series(P, u, [ts[i] / steps[i]], [tol / steps[i]])[0]
                out[i] = u
    elif method == "spectral":
        for i in live:
            out[i] = _linalg.heat_apply(space, v, float(ts[i]))
    else:
        for i, u in zip(live, _evolve_rk4(P, v, [float(ts[i]) for i in live])):
            out[i] = u
    return [ScalarField(space, v.copy() if u is None else u) for u in out]


def _evolve_series(P: np.ndarray, u0: np.ndarray, ts, tols) -> list:
    """e^{t(P - I)} u0 for each t of ts, truncated within the matching tol,
    along one shared sequence of terms P^k u0."""
    sup = float(np.abs(u0).max(initial=0.0))  # 0 on an empty space, whose field stays empty
    coefs = [np.exp(-t) for t in ts]  # e^{-t} t^k / k!, folded in up front to avoid overflow
    accs = [coef * u0 for coef in coefs]
    live = range(len(ts))
    term = u0
    k = 0
    while live:
        k += 1
        term = P @ term
        still = []
        for i in live:
            t = ts[i]
            coefs[i] *= t / k
            accs[i] = accs[i] + coefs[i] * term
            # tail: sum_{j>k} e^{-t} t^j/j! <= coef * rho/(1-rho), rho = t/(k+1)
            rho = t / (k + 1)
            if rho < 1.0 and sup * coefs[i] * rho / (1.0 - rho) < tols[i]:
                continue
            if k > 1000 + 10 * t:  # unreachable for t in the supported range
                raise RuntimeError("series truncation failed to converge")
            still.append(i)
        live = still
    return accs


def _evolve_rk4(P: np.ndarray, u0: np.ndarray, ts) -> list:
    n = len(u0)
    out = [None] * len(ts)
    powered = {}  # step length -> [(index, steps)]
    for i, t in enumerate(ts):
        # at least 10 steps, none longer than 0.005: the O(h^4) global error sits well below 1e-9
        steps = max(10, int(np.ceil(t / 0.005)))
        h = t / steps
        # In matrix-vector products: powering ~ (4 + log2 steps) matrix products of ~n/10 each (measured
        # 0.07-0.27 n for n = 10-1500, one BLAS thread) plus popcount(steps); stepping 4 per step.
        if (3 + steps.bit_length()) * n / 10 + steps.bit_count() < 4 * steps:
            powered.setdefault(h, []).append((i, steps))
            continue
        u = u0
        for _ in range(steps):
            u = u + _rk4_increment(P, h, u)
        out[i] = u
    for h, group in powered.items():
        for (i, _), u in zip(group, _power_rk4(P, h, u0, [steps for _, steps in group])):
            out[i] = u
    return out


def _power_rk4(P: np.ndarray, h: float, u0: np.ndarray, steps: list) -> list:
    """R^s u0 for each s of steps, R one RK4 step of length h, along one
    chain of squarings of R: at bit j every s with that bit set takes R^(2^j)."""
    # R = I + B is kept as B, so rounding scales with B (~h), not with I; squaring
    # R itself let constants drift by 1.1e-12 over 6400 steps on an n = 700 grid.
    B = _rk4_increment(P, h, np.eye(len(u0)))
    us = [u0] * len(steps)
    for j in range(max(steps).bit_length()):
        if j:
            B = B @ B + 2.0 * B  # R^2 = I + 2B + B^2
        for m, s in enumerate(steps):
            if s >> j & 1:
                us[m] = us[m] + B @ us[m]
    return us


def _rk4_increment(P: np.ndarray, h: float, X: np.ndarray) -> np.ndarray:
    """Change RX - X made by one classical RK4 step of du/dt = (P - I) u from
    X, a vector or the columns of a matrix. On a linear system the step is
    the Taylor polynomial RX = X + AX + A^2X/2 + A^3X/6 + A^4X/24 with
    A = h(P - I); the change is A(X + A/2(X + A/3(X + A/4 X))), by Horner's rule."""
    Y = X
    for j in (4, 3, 2):
        Y = X + (h / j) * (P @ Y - Y)
    return h * (P @ Y - Y)


@dataclass(frozen=True)
class HeatTrajectory:
    times: tuple
    states: tuple  # of ScalarField
    method: str


def heat_trajectory(space: Space, u0, times, method: str = "series", tol: float = 1e-12) -> HeatTrajectory:
    """Evaluate the flow on a nonnegative increasing time grid.

    Time zero is prepended when missing so the trajectory always starts at
    the initial condition.
    """
    ts = sorted(float(t) for t in times)
    if not ts:
        raise ValueError("empty time grid")
    if ts[0] < 0:
        raise ValueError("times must be >= 0")
    if ts[0] != 0.0:
        ts = [0.0] + ts
    return HeatTrajectory(tuple(ts), tuple(_evolve(space, u0, ts, method, tol)), method)


def stationary_limit(space: Space, u0) -> ScalarField:
    """Long-time limit of the flow: the measure-weighted average on each
    invariant block (the single global average when the space is ergodic).

    A point in no invariant block, which the walk leaves for good, tends to a
    mix of the block averages weighted by where it is absorbed; that is not
    computed here, so such points raise a ValueError naming them."""
    blocks = [b.mask for b in invariant_blocks(space).blocks]
    stray = np.flatnonzero(sum(blocks, np.zeros(space.n, dtype=int)) == 0)
    if stray.size:
        raise ValueError(f"points {[space.labels[i] for i in stray]} lie in no invariant block")
    v = as_values(space, u0)
    nu = space.nu
    out = np.empty_like(v)
    for m in blocks:
        out[m] = float(np.dot(nu[m], v[m]) / nu[m].sum())
    return ScalarField(space, out)
