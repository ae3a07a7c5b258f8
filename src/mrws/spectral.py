"""Dirichlet energy, variance, spectral gap, and decay-rate verification.

The gap is the infimum of energy over variance; on the mean-zero subspace it
is the smallest eigenvalue of the symmetrized generator when the space is one
invariant block (a one-dimensional kernel), and zero otherwise (a
nonconstant harmonic function makes the infimum vanish).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .connectivity import invariant_blocks
from .core import HypothesisError, Space, as_values
from .heat import heat_evolve, heat_trajectory

__all__ = [
    "dirichlet_energy",
    "variance",
    "SpectralReport",
    "spectral_gap",
    "verify_poincare_decay",
]


def dirichlet_energy(space: Space, f, normalized: bool = True) -> float:
    """(1/2) sum_{x,y} nu_x k(x,y) (f(y) - f(x))^2.

    ``normalized`` divides the measure by its total mass (the default for all
    spectral quantities); pass False to keep the stored raw weights.
    """
    v = as_values(space, f)
    nu = space.nu if normalized else space.measure
    diff = v[None, :] - v[:, None]
    return 0.5 * float(np.sum(nu[:, None] * space.kernel * diff ** 2))


def variance(space: Space, f) -> float:
    """Variance of a field under the normalized stationary measure."""
    v = as_values(space, f)
    nu = space.nu
    mean = float(nu @ v)
    return float(nu @ (v - mean) ** 2)


@dataclass(frozen=True)
class SpectralReport:
    gap: float
    spectrum: np.ndarray  # ascending eigenvalues of the generator on L^2(nu), read-only
    gap_ibe: float | None  # energy-vs-squared-generator constant; ergodic only
    decay_fit: float | None  # measured exponential rate, diagnostics only
    kernel_dim: int


def spectral_gap(space: Space, fit_decay: bool = False) -> SpectralReport:
    """Spectrum of the generator and the associated Poincare constant.

    ``gap_ibe`` is the best lambda with lambda * energy(f) <= ||generator
    f||^2 for all f, which for an ergodic space coincides with the gap (both
    equal the smallest nonzero eigenvalue); it is reported only in that case.
    ``kernel_dim`` is the number of invariant blocks (``invariant_blocks``).
    """
    lam, _, _ = _linalg.decomposition(space)
    kernel_dim = invariant_blocks(space).count
    ergodic = kernel_dim == 1 and space.n > 1
    gap = max(float(lam[1]), 0.0) if ergodic else 0.0
    gap_ibe = gap if ergodic else None
    fit = _fit_decay_rate(space, gap) if (fit_decay and gap > 0) else None
    return SpectralReport(gap, lam, gap_ibe, fit, kernel_dim)


def _fit_decay_rate(space: Space, gap: float) -> float | None:
    """Log-linear least squares on ||T_t f - mean||_2 over t in [0.5, 5]."""
    nu = space.nu
    f = np.zeros(space.n)
    f[0] = 1.0
    mean = float(nu @ f)
    if np.sqrt(float(nu @ (f - mean) ** 2)) == 0.0:
        return None
    ts = np.linspace(0.5, 5.0, 10)
    states = heat_trajectory(space, f, ts, method="spectral").states[1:]  # after time 0
    norms = np.array([np.sqrt(float(nu @ (u.values - mean) ** 2)) for u in states])
    if np.any(norms <= 0):
        return None
    slope = np.polyfit(ts, np.log(norms), 1)[0]
    return float(-slope)


def verify_poincare_decay(space: Space, trials: int, rng=None, times=(0.5, 1.0, 5.0)) -> float:
    """Largest observed ratio of ||T_t f - mean|| to its exponential bound.

    Random mean-adjusted fields are evolved and compared against
    e^{-gap t} ||f - mean||; nonnegative random densities additionally get the
    total-variation-distance bound sup_A |mu_t(A) - nu(A)| <=
    ||f - 1||_2 e^{-gap t} (the supremum over events is attained on the
    positive part of the signed discrepancy). Values at most 1 + 1e-9 confirm
    the decay estimates.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1 (got {trials})")
    report = spectral_gap(space)
    if report.gap <= 0:
        raise HypothesisError("gap is 0; decay bound vacuous")
    gap = report.gap
    rng = np.random.default_rng(rng)
    nu = space.nu
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal(space.n)
        mean = float(nu @ f)
        base = np.sqrt(float(nu @ (f - mean) ** 2))
        if base > 1e-12:
            for t in times:
                u = heat_evolve(space, f, t, method="spectral").values
                num = np.sqrt(float(nu @ (u - mean) ** 2))
                worst = max(worst, num / (np.exp(-gap * t) * base))
        # total-variation bound for a density
        dens = np.abs(f) + 0.1
        dens /= float(nu @ dens)
        l2 = np.sqrt(float(nu @ (dens - 1.0) ** 2))
        if l2 > 1e-12:
            for t in times:
                u = heat_evolve(space, dens, t, method="spectral").values
                signed = nu * (u - 1.0)
                tv = max(signed[signed > 0].sum() if (signed > 0).any() else 0.0,
                         -signed[signed < 0].sum() if (signed < 0).any() else 0.0)
                worst = max(worst, tv / (l2 * np.exp(-gap * t)))
    return float(worst)
