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

Past SERIES_STEP the flow has often settled. Before any route runs, each
time past it is checked against the paper's exponential decay: a spectral
gap of at least g puts the state at time t within
e^{-g t} |u0 - nu(u0)|_{L^2(nu)}, read in the sup norm, of the nu-average.
One Cholesky factorization proves the gap that brings this, with the
kernel's own row-sum and invariance residuals, within tol at that time; the
time then gets the nu-average, under every method, with the bits of
stationary_limit. Where the proof fails (slow mixing, several invariant
blocks, a measure that is not invariant) its route runs as before. Each
space keeps the gap it proved and the rate it refused, so the later times
of a grid, and repeated calls, mostly factor nothing; and a field whose
smoothed Rayleigh quotient already lies below the rate asked for is refused
without the factorization.
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

    ``tol`` bounds, in the sup norm, the series truncation error and, past
    SERIES_STEP under every method, the distance of the exact flow to the
    nu-average that replaces the state once a decay certificate holds; as
    the residual terms of _decay_rate grow linearly in t, at tol 1e-12 no t
    past ~1322 certifies on the n = 700 grid of radius 0.2. Rounding in the
    series and the average is not part of tol. The series keeps exact zeros
    across kernel-disconnected blocks, which the spectral route cannot.
    """
    return _evolve(space, u0, [t], method, tol)[0]


def _evolve(space: Space, u0, ts, method: str, tol: float) -> list:
    """States of the flow at each time of ts, by one pass over all of them.

    Each state is bit-identical to evolving its time alone: the series shares
    the terms P^k u0 of its first step, and rk4 shares each step matrix and
    its squarings among the times powered with the same step length. A time
    past SERIES_STEP takes the nu-average when the flow provably reaches it
    within tol by that time (see the module docstring)."""
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
    for i, t in enumerate(ts):
        if t > SERIES_STEP and _settled(space, v, t, tol):
            out[i] = _block_means(space.nu, v, [np.ones(space.n, dtype=bool)])
    live = [i for i, t in enumerate(ts) if t != 0.0 and out[i] is None]
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


def _settled(space: Space, v: np.ndarray, t: float, tol: float) -> bool:
    """Whether the flow from v provably lies within tol of the nu-average of
    v at time t: whether the gap is proven at least the rate _decay_rate asks
    for.

    Each space keeps the largest gap proven and the least rate refused, as a
    proven gap covers every smaller rate and a refusal every larger one; no
    rate of 2 or more is tried, as sym(S) >= -1 where P is stochastic with nu
    invariant. A new rate is first held against the field's own smoothed
    Rayleigh quotient (_visibly_slower), so a flow that plainly mixes slower
    than it needs no factorization. A bound that overflows or turns NaN is
    refused, so its floating-point warnings are silenced here."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = _decay_rate(space, v, t, tol)
        known = _linalg._memo(space, "decay certificate", lambda: [0.0, 2.0])  # [proven, refused]
        if g is None or not g < known[1]:
            return False
        if g <= known[0]:
            return True
        proven = not _visibly_slower(space, v, g) and _gap_at_least(space, g)
    known[0 if proven else 1] = g
    return proven


def _decay_rate(space: Space, v: np.ndarray, t: float, tol: float):
    """A rate g such that, if sym(S) <= 1 - g on the complement of s, the flow
    from v is within tol of the nu-average of v at time t; None where the kernel's residuals use up tol, the kernel has a negative
    entry or the measure a nonpositive one.

    S = diag(s) P diag(1/s) with s = sqrt(nu) carries the flow to w = s v, and
    w's part orthogonal to s then shrinks at rate g, save for what the row-sum
    residual r = P1 - 1 feeds in as (S - I)s = s r. The average itself drifts
    with the invariance residual q = nu P - nu. With U = |v|_inf e^{t omega}
    bounding |u|_inf up to time t, omega the excess of the largest row sum over 1, the
    state at t is within
        (e^{-g t} |w_perp(0)| + U |s r| / g) / sqrt(min nu) + t U |q|_1 / sum(nu)
    of the average. The residuals are the space's own (_residuals)."""
    res = _linalg._memo(space, "kernel residuals", lambda: _residuals(space))
    if res is None:
        return None
    sr, q, omega = res
    nu = space.nu
    U = float(np.abs(v).max()) * np.exp(t * omega)
    root = np.sqrt(nu.min())
    a = np.sqrt(np.dot(nu, (v - np.dot(nu, v) / nu.sum()) ** 2)) / root
    low = np.log(max(a / tol, np.e)) / t  # no returned rate is lower
    rest = U * (sr / (low * root) + t * q / nu.sum())
    if not rest < tol:
        return None
    # half of what rest leaves goes to the decay; the other half is room for rounding in these bounds
    return float(np.log(max(2 * a / (tol - rest), np.e)) / t)


def _residuals(space: Space):
    """(|s r|_2, |q|_1, omega) of _decay_rate, or None where the kernel has a
    negative entry or the measure a nonpositive or non-finite one.

    Both residuals are summed in extended precision, with their rounding
    added; where numpy's longdouble is a plain double that rounding uses up
    tol and no rate is returned."""
    P, nu = space.kernel, space.nu
    if not (space.n and nu.min() > 0 and np.isfinite(nu).all() and P.min() >= 0):
        return None
    ld = np.longdouble
    gam = 2 * (space.n + 1) * np.finfo(ld).eps  # twice the relative rounding of a sum of n + 1 terms
    rows = P.sum(axis=1, dtype=ld)
    r = np.abs(rows - 1) + gam * rows
    nuP = np.einsum("ij,i->j", P, nu.astype(ld))
    q = float(np.abs(nuP - nu).sum() + gam * nuP.sum())
    omega = max(0.0, float(rows.max() * (1 + gam)) - 1.0)
    return float(np.sqrt(np.dot(nu, r.astype(float) ** 2))), q, omega


def _visibly_slower(space: Space, v: np.ndarray, g: float, steps: int = 24) -> bool:
    """Whether v, smoothed by up to steps applications of I + S and kept on
    the complement of s, reaches a Rayleigh quotient of I - sym(S) below g.

    That quotient bounds the gap from above, so the factorization of
    _gap_at_least would then fail too: this only spares it. Smoothing damps
    the fast modes, so on a slowly mixing space the quotient soon falls below
    a rate the flow cannot keep; where it does not, the factorization
    decides."""
    s = np.sqrt(space.nu)
    h = s / np.linalg.norm(s)
    x = h * (v / np.abs(v).max())  # w = s v, scaled so that no square overflows
    for _ in range(steps):
        before = x @ x
        x -= h * (h @ x)
        xx = x @ x
        # what the projection leaves must stand clear of its rounding along s, whose
        # quotient is 0: not so for a constant field, nor once I + S annihilated the rest
        if not xx > 1e-8 * before:
            return False
        y = s * (space.kernel @ (x / s))
        if xx - x @ y < g * xx:
            return True
        x = (x + y) / np.sqrt(xx)
    return False


def _gap_at_least(space: Space, g: float) -> bool:
    """Whether one Cholesky factorization proves sym(S) <= 1 - g on the
    complement of s = sqrt(nu), S = diag(s) P diag(1/s), for a nonnegative
    kernel: a spectral gap of at least g, reversible or not.

    It factors A = 2 h h^T + (1 - g - delta) I - (S + S^T)/2, h = s/|s|, whose
    form on x orthogonal to s is that of (1 - g - delta) I - sym(S). Where P is
    stochastic with nu invariant, s is an eigenvector of sym(S) with
    eigenvalue 1, and 2 h h^T lifts it to 2 - g - delta, so s's own direction
    refuses no rate below 2. delta covers the rounding in forming A and in
    factoring it: a factorization that runs to completion has a backward
    error of 2-norm at most gamma_{n+1} tr(A) / (1 - gamma_{n+1})
    (Demmel 1989; Rump, BIT 46, 2006), so A + that >= 0."""
    n = space.n
    eps = np.finfo(float).eps  # twice the unit roundoff: room for rounding in the bounds themselves

    def gamma(k):
        return k * eps / (1 - k * eps)

    s = np.sqrt(space.nu)
    h = s / np.sqrt(space.nu.sum())
    S = space.kernel * s[:, None]
    S /= s
    # entry (i, j) of A is formed within gamma_{n+8} (2 h_i h_j + S_ij + S_ji + 4[i = j]);
    # the largest row sum of that bound bounds the 2-norm of the error
    form = gamma(n + 8) * (float((2 * h * h.sum() + S.sum(axis=0) + S.sum(axis=1)).max()) + 4)
    A = S + S.T
    del S
    A *= -0.5
    A += np.outer(2 * h, h)
    # tr(A) <= 2 |h|^2 + n, with |h|^2 within rounding of 1
    delta = form + gamma(n + 1) / (1 - gamma(n + 1)) * (n + 3) + n * (n + 8) * np.finfo(float).tiny
    A.flat[:: n + 1] += 1.0 - g - delta
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    # LAPACK may pass a NaN through without an error; it then reaches the diagonal
    return bool(np.isfinite(np.diagonal(L)).all())


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
    B = _rk4_step_matrix(P, h)
    us = [u0] * len(steps)
    for j in range(max(steps).bit_length()):
        if j:
            B = B @ B + 2.0 * B  # R^2 = I + 2B + B^2
        for m, s in enumerate(steps):
            if s >> j & 1:
                us[m] = us[m] + B @ us[m]
    return us


def _rk4_step_matrix(P: np.ndarray, h: float) -> np.ndarray:
    """R - I for one RK4 step of length h: _rk4_increment from the identity,
    whose first product P I is P, bit for bit on a finite kernel, so Horner's
    rule starts from I + (h/4)(P - I) and takes three products, not four."""
    eye = np.eye(len(P))
    Y = eye + (h / 4) * (P - eye)
    for j in (3, 2):
        Y = eye + (h / j) * (P @ Y - Y)
    return h * (P @ Y - Y)


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
    return ScalarField(space, _block_means(space.nu, as_values(space, u0), blocks))


def _block_means(nu: np.ndarray, v: np.ndarray, blocks: list) -> np.ndarray:
    """v replaced on each block (a mask) by its nu-weighted mean there."""
    out = np.empty_like(v)
    for m in blocks:
        out[m] = float(np.dot(nu[m], v[m]) / nu[m].sum())
    return out
