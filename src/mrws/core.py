"""Finite metric random walk spaces: data model, axioms, kernel algebra.

A space bundles point labels, a metric matrix, a row-stochastic jump kernel
(row i is the one-step law from point i) and a positive stationary measure.
Everything downstream assumes the measure is invariant and reversible for the
kernel; ``validate_space`` checks exactly that, with per-axiom residuals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Space",
    "ScalarField",
    "Subset",
    "AxiomCheck",
    "ValidationReport",
    "StructuralError",
    "HypothesisError",
    "validate_space",
    "convolve_kernel",
    "propagate_measure",
    "restrict_space",
    "space_to_json",
    "space_from_json",
]

# Tolerances for the space axioms (double precision over <= 1e4 entries).
TOL_STOCHASTIC = 1e-12
TOL_INVARIANCE = 1e-10
TOL_REVERSIBILITY = 1e-10
TOL_TRIANGLE = 1e-9
TOL_METRIC = 1e-12


class StructuralError(ValueError):
    """Malformed input (dimension mismatch, bad schema), as opposed to a
    quantitative axiom violation reported by ``validate_space``."""


class HypothesisError(RuntimeError):
    """A verifier was asked to certify an inequality whose hypothesis
    (positive curvature, ergodicity, ...) does not hold."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Space:
    """Immutable finite metric random walk space.

    Parameters
    ----------
    labels : sequence of distinct point identifiers (length n)
    metric : (n, n) nonnegative distance matrix
    kernel : (n, n) row-stochastic matrix; row i is the jump law from i
    measure : (n,) strictly positive stationary weights (stored unnormalized)
    metric_sentinel : placeholder distance used for unreachable pairs when the
        metric came from shortest paths on a disconnected support graph; the
        triangle check skips entries at or above it.
    """

    labels: tuple
    metric: np.ndarray
    kernel: np.ndarray
    measure: np.ndarray
    metric_sentinel: float | None = None

    def __post_init__(self):
        labels = tuple(self.labels)
        metric = _readonly(self.metric)
        kernel = _readonly(self.kernel)
        measure = _readonly(self.measure)
        n = len(labels)
        if metric.shape != (n, n):
            raise StructuralError(f"metric must be {n}x{n}, got {metric.shape}")
        if kernel.shape != (n, n):
            raise StructuralError(f"kernel must be {n}x{n}, got {kernel.shape}")
        if measure.shape != (n,):
            raise StructuralError(f"measure must have length {n}, got {measure.shape}")
        try:
            distinct = len(set(labels)) == n
        except TypeError:  # unhashable labels, e.g. lists read from JSON
            distinct = all(labels.index(lab) == i for i, lab in enumerate(labels))
        if not distinct:
            raise StructuralError("labels must be distinct")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "measure", measure)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def total_mass(self) -> float:
        return float(self.measure.sum())

    @functools.cached_property
    def nu(self) -> np.ndarray:
        """Stationary measure, normalized to a probability vector; read-only,
        computed once per space. An infinite measure gives NaN entries, and no
        warning."""
        with np.errstate(invalid="ignore"):
            return _readonly(self.measure / self.measure.sum())

    def index(self, point) -> int:
        """Resolve a label or integer index to an index."""
        if isinstance(point, (int, np.integer)):
            i = int(point)
            if not 0 <= i < self.n:
                raise StructuralError(f"point index {i} out of range")
            return i
        try:
            return self.labels.index(point)
        except ValueError:
            raise StructuralError(f"unknown point {point!r}") from None


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A real value per point of a space (functions, densities, heat states)."""

    space: Space
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.shape != (self.space.n,):
            raise StructuralError(f"field length {v.shape} != space size {self.space.n}")
        if not np.all(np.isfinite(v)):
            raise StructuralError("field contains non-finite entries")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class Subset:
    """Boolean mask over the points of a space."""

    space: Space
    mask: np.ndarray

    def __post_init__(self):
        m = np.array(self.mask, dtype=bool)
        if m.shape != (self.space.n,):
            raise StructuralError(f"mask length {m.shape} != space size {self.space.n}")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @classmethod
    def from_indices(cls, space: Space, indices: Iterable) -> "Subset":
        m = np.zeros(space.n, dtype=bool)
        for p in indices:
            m[space.index(p)] = True
        return cls(space, m)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def complement(self) -> "Subset":
        return Subset(self.space, ~self.mask)


def as_values(space: Space, f) -> np.ndarray:
    """Coerce a ScalarField or array-like to a plain length-n float vector."""
    if isinstance(f, ScalarField):
        if f.space is not space and f.space.n != space.n:
            raise StructuralError("field belongs to a space of different size")
        return f.values
    v = np.asarray(f, dtype=float)
    if v.shape != (space.n,):
        raise StructuralError(f"expected length-{space.n} vector, got shape {v.shape}")
    return v


def as_mask(space: Space, s) -> np.ndarray:
    """Coerce a Subset, boolean mask, or index collection to a boolean mask."""
    if isinstance(s, Subset):
        return s.mask
    a = np.asarray(s)
    if a.dtype == bool and a.shape == (space.n,):
        return a.copy()
    return Subset.from_indices(space, np.atleast_1d(a)).mask


# ---------------------------------------------------------------------------
# validation


@dataclass
class AxiomCheck:
    axiom: str
    residual: float
    tolerance: float
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def violations(self) -> list:
        return [c for c in self.checks if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def residual(self, axiom: str) -> float:
        for c in self.checks:
            if c.axiom == axiom:
                return c.residual
        raise KeyError(axiom)


def _triangle_residual(d: np.ndarray, sentinel: float | None) -> float:
    """max over (i,j,k) of d[i,k] - d[i,j] - d[j,k], skipping sentinel legs.

    One min-plus pass: best[i,k] is the least d[i,j] + d[j,k] over j, legs at
    or above the sentinel read as inf, and rounded subtraction is monotone, so
    max(d - best) over the pairs below it is the largest gap to the bit. A NaN
    is not at or above the sentinel, so it is checked; a distance below the
    sentinel that is not finite, and a residual that is not finite (none
    checked, or an overflow), read inf.
    """
    below = ~(d >= sentinel) if sentinel is not None else np.ones(d.shape, dtype=bool)
    if not np.isfinite(d[below]).all():
        return np.inf
    legs = np.where(below, d, np.inf)
    best = np.full(d.shape, np.inf)
    for j in range(len(d)):
        np.fmin(best, legs[:, j, None] + legs[j], out=best)
    worst = (d - best)[below].max(initial=-np.inf)
    return float(worst) if np.isfinite(worst) else np.inf


def validate_space(space: Space) -> ValidationReport:
    """Check every axiom of the data model, reporting one residual per axiom.

    An empty violation list means the space is a bona fide reversible random
    walk space; dimension problems raise ``StructuralError`` instead of being
    reported, since they make the residuals meaningless.
    """
    P, d, nu = space.kernel, space.metric, space.measure
    total = float(nu.sum())
    total = total if np.isfinite(total) else 1.0  # unscaled tolerances for a non-finite mass
    checks = []

    def check(axiom, residual, tolerance, ok, detail=""):
        bad = not np.isfinite(residual)  # a NaN or infinite residual reads inf, a violation
        residual = np.inf if bad else float(residual)
        checks.append(AxiomCheck(axiom, residual, tolerance, ok and not bad, detail))

    row_res = float(np.abs(P.sum(axis=1) - 1.0).max())
    check("row_stochastic", row_res, TOL_STOCHASTIC, row_res <= TOL_STOCHASTIC)

    neg = 0.0 - min(float(P.min()), 0.0)  # NaN for a NaN entry
    check("kernel_nonnegative", neg, 0.0, neg == 0.0)

    cap = np.inf if space.metric_sentinel is None else space.metric_sentinel
    scale = float(d[np.isfinite(d) & (d < cap)].max(initial=1.0))  # max(1, finite distances below the sentinel)
    diag = float(np.abs(np.diag(d)).max()) if space.n else 0.0
    check("metric_zero_diagonal", diag, TOL_METRIC * scale, diag <= TOL_METRIC * scale)

    sym = float(np.abs(d - d.T).max())
    check("metric_symmetric", sym, TOL_METRIC * scale, sym <= TOL_METRIC * scale)

    off = d[~np.eye(space.n, dtype=bool)]
    pos = float(off.min()) if off.size else np.inf
    check("metric_positive_offdiag", 0.0 - min(pos, 0.0), 0.0, pos > 0 or not off.size,  # NaN for a NaN distance
          detail="min off-diagonal distance %.3g" % (pos if off.size else np.inf))

    tri = _triangle_residual(d, space.metric_sentinel)
    check("metric_triangle", tri, TOL_TRIANGLE, tri <= TOL_TRIANGLE)

    finite = bool(np.isfinite(nu).all())
    if finite:
        inv = float(np.abs(nu @ P - nu).max())
        Q = nu[:, None] * P
        rev = float(np.abs(Q - Q.T).max())
    else:  # inf * 0 in the products has no value
        inv = rev = np.inf
    check("invariance", inv, TOL_INVARIANCE * total, inv <= TOL_INVARIANCE * total)
    check("reversibility", rev, TOL_REVERSIBILITY * total, rev <= TOL_REVERSIBILITY * total)

    numin = float(nu.min()) if space.n else 1.0
    check("measure_positive", max(0.0, -numin) if finite else np.inf, 0.0,
          finite and numin > 0, detail="min measure %.3g" % numin)

    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# kernel algebra


def convolve_kernel(space: Space, n: int) -> Space:
    """Replace the kernel by its n-step version (the n-th matrix power).

    The metric and measure are untouched: the stationary measure stays
    invariant and reversible for every power of the kernel.
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be an integer >= 1")
    Pn = np.linalg.matrix_power(space.kernel, int(n))
    return Space(space.labels, space.metric, Pn, space.measure, space.metric_sentinel)


def propagate_measure(space: Space, mu, steps: int) -> ScalarField:
    """Push a nonnegative mass vector through `steps` jumps of the walk.

    Total mass is conserved; mass never leaks across kernel-zero boundaries.
    """
    v = as_values(space, mu)
    if np.any(v < 0):
        raise ValueError("mass vector must be nonnegative")
    if int(steps) != steps or steps < 0:
        raise ValueError("steps must be an integer >= 0")
    out = v.copy()
    for _ in range(int(steps)):
        out = out @ space.kernel
    return ScalarField(space, out)


def restrict_space(space: Space, omega) -> Space:
    """Restrict the walk to a subset, returning escaping mass as a self-loop.

    Jump mass that would leave the subset stays put instead, which keeps the
    restricted measure reversible for the restricted kernel.
    """
    mask = as_mask(space, omega)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("cannot restrict to an empty subset")
    K = space.kernel[np.ix_(idx, idx)].copy()
    escape = 1.0 - K.sum(axis=1)
    K[np.diag_indices_from(K)] += escape
    labels = tuple(space.labels[i] for i in idx)
    metric = space.metric[np.ix_(idx, idx)]
    return Space(labels, metric, K, space.measure[idx], space.metric_sentinel)


# ---------------------------------------------------------------------------
# JSON schema


def space_to_json(space: Space) -> dict:
    """Serialize to the version-1 interchange schema (explicit metric)."""
    return {
        "version": 1,
        "labels": list(space.labels),
        "metric": {"type": "explicit", "matrix": space.metric.tolist()},
        "kernel": space.kernel.tolist(),
        "measure": space.measure.tolist(),
    }


def space_from_json(obj: dict) -> Space:
    """Parse the interchange schema; kernel rows are renormalized exactly.

    Rows must already sum to 1 within 1e-9; the leftover float fuzz from
    decimal serialization is divided out so the stochasticity axiom holds
    bit-for-bit after a round trip.
    """
    if not isinstance(obj, dict):
        raise StructuralError("space JSON must be an object")
    if obj.get("version") != 1:
        raise StructuralError("space JSON must declare version 1")
    try:
        labels = tuple(obj["labels"])
        kernel = np.array(obj["kernel"], dtype=float)
        measure = np.array(obj["measure"], dtype=float)
        metric_spec = obj["metric"]
    except KeyError as e:
        raise StructuralError(f"space JSON missing field {e}") from None
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise StructuralError("kernel must be a square matrix")

    with np.errstate(invalid="ignore"):  # inf - inf: the NaN sum fails below
        sums = kernel.sum(axis=1)
    if not np.abs(sums - 1.0).max() <= 1e-9:
        raise StructuralError("kernel rows must sum to 1 within 1e-9")
    kernel = kernel / sums[:, None]

    sentinel = None
    mtype = metric_spec.get("type") if isinstance(metric_spec, dict) else None
    if mtype == "explicit":
        metric = np.array(metric_spec["matrix"], dtype=float)
    elif mtype == "graph_shortest_path":
        metric, sentinel = shortest_path_metric(kernel)
    else:
        raise StructuralError("metric.type must be 'explicit' or 'graph_shortest_path'")
    return Space(labels, metric, kernel, measure, sentinel)


def shortest_path_metric(kernel: np.ndarray) -> tuple[np.ndarray, float | None]:
    """All-pairs unit-length shortest paths on the symmetrized support graph.

    Unreachable pairs get a finite sentinel distance of n times the largest
    finite distance, so disconnected spaces still carry a usable matrix; the
    sentinel is reported so the triangle check can skip those entries.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = kernel.shape[0]
    support = (kernel > 0) | (kernel.T > 0)
    np.fill_diagonal(support, False)
    dist = shortest_path(csr_matrix(support, dtype=float), method="D", directed=False, unweighted=True)
    finite = np.isfinite(dist)
    if finite.all():
        return dist, None
    off = dist[finite & ~np.eye(n, dtype=bool)]
    dmax = float(off.max()) if off.size else 1.0
    sentinel = n * max(dmax, 1.0)
    dist = np.where(finite, dist, sentinel)
    return dist, sentinel
