"""The heat semigroup generated by the averaging operator minus identity.

Three independent evaluation routes are provided: the exponential series
e^{-t} sum_k t^k/k! P^k u0 (with a rigorous tail cutoff), diagonalization of
the symmetrized kernel, and classical fourth-order Runge-Kutta integration of
du/dt = (P - I) u. They agree to ~1e-9 and cross-check each other in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .core import ScalarField, Space, as_values
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
    v = as_values(space, u0)
    if not 0 <= t < np.inf:  # also rejects NaN, on which the series would never stop
        raise ValueError("t must be finite and >= 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if t == 0.0:
        return ScalarField(space, v.copy())
    if method == "series":
        steps = int(np.ceil(t / SERIES_STEP))
        out = v
        for _ in range(steps):
            out = _evolve_series(space.kernel, out, t / steps, tol / steps)
    elif method == "spectral":
        out = _linalg.heat_apply(space, v, float(t))
    else:
        out = _evolve_rk4(space.kernel, v, float(t))
    return ScalarField(space, out)


def _evolve_series(P: np.ndarray, u0: np.ndarray, t: float, tol: float) -> np.ndarray:
    sup = float(np.abs(u0).max())
    coef = np.exp(-t)  # e^{-t} t^k / k!, folded in up front to avoid overflow
    acc = coef * u0
    term = u0
    k = 0
    while True:
        k += 1
        term = P @ term
        coef *= t / k
        acc = acc + coef * term
        # tail: sum_{j>k} e^{-t} t^j/j! <= coef * rho/(1-rho), rho = t/(k+1)
        rho = t / (k + 1)
        if rho < 1.0 and sup * coef * rho / (1.0 - rho) < tol:
            return acc
        if k > 1000 + 10 * t:  # unreachable for t in the supported range
            raise RuntimeError("series truncation failed to converge")


def _evolve_rk4(P: np.ndarray, u0: np.ndarray, t: float) -> np.ndarray:
    # step small enough that the O(h^4) global error sits well below 1e-9
    h_target = min(0.005, t / 10.0)
    steps = max(1, int(np.ceil(t / h_target)))
    h = t / steps
    u = u0.copy()
    for _ in range(steps):
        k1 = P @ u - u
        k2 = P @ (u + 0.5 * h * k1) - (u + 0.5 * h * k1)
        k3 = P @ (u + 0.5 * h * k2) - (u + 0.5 * h * k2)
        k4 = P @ (u + h * k3) - (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


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
    states = tuple(heat_evolve(space, u0, t, method=method, tol=tol) for t in ts)
    return HeatTrajectory(tuple(ts), states, method)


def stationary_limit(space: Space, u0) -> ScalarField:
    """Long-time limit of the flow: the measure-weighted average on each
    invariant block (the single global average when the space is ergodic)."""
    v = as_values(space, u0)
    nu = space.nu
    out = np.empty_like(v)
    for block in invariant_blocks(space).blocks:
        m = block.mask
        out[m] = float(np.dot(nu[m], v[m]) / nu[m].sum())
    return ScalarField(space, out)
