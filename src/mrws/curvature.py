"""Curvature of the walk: the squared-gradient form and its iterate, best
curvature-dimension constants, coarse (transport) Ricci curvature, and the
semigroup estimates those bounds imply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import _linalg
from .core import ScalarField, Space, _readonly, as_values
from .heat import heat_evolve
from .transport import GEODESIC_RTOL, _best_first, _passes, _w1, _w1_upper

__all__ = [
    "gamma",
    "gamma2",
    "BEResult",
    "be_best_constant",
    "OllivierResult",
    "ollivier_kappa",
    "ollivier_global",
    "kappa_global",
    "gradient_estimate_check",
    "lipschitz_contraction_check",
]

# Largest space on which the all-pairs curvature (n(n-1)/2 transport LPs) runs;
# its pair count also caps the pair family ``kappa_global`` searches, which
# solves the LPs of that family only where its bounds cannot rule a pair out.
ALL_PAIRS_LIMIT = 300


def gamma(space: Space, f, g=None) -> ScalarField:
    """Carre du champ: Gamma(f,g)(x) = (1/2) sum_y k(x,y)(f(y)-f(x))(g(y)-g(x))."""
    fv = as_values(space, f)
    gv = fv if g is None else as_values(space, g)
    P = space.kernel
    out = 0.5 * (P @ (fv * gv) - fv * (P @ gv) - gv * (P @ fv) + fv * gv)
    return ScalarField(space, out)


def gamma2(space: Space, f, g=None) -> ScalarField:
    """Iterated form: Gamma2(f,g) = (1/2) L Gamma(f,g) - (1/2)(Gamma(f, Lg) + Gamma(g, Lf)).

    Its integral against the stationary measure equals that of (Lf)(Lg).
    """
    fv = as_values(space, f)
    gv = fv if g is None else as_values(space, g)
    P = space.kernel
    lf = P @ fv - fv
    lg = P @ gv - gv
    gfg = gamma(space, fv, gv).values
    lgfg = P @ gfg - gfg
    cross = 0.5 * (gamma(space, fv, lg).values + gamma(space, gv, lf).values)
    return ScalarField(space, 0.5 * lgfg - cross)


# ---------------------------------------------------------------------------
# per-point quadratic forms


def _gamma2_matrix(P: np.ndarray, P2: np.ndarray, xs: np.ndarray, J: np.ndarray, n_param: float):
    """Stack of matrices A, one per point x = xs[i] with its index set J[i], such that
    f_J.A[i] f_J = Gamma2(f)(x) - (Lf)(x)^2 / n_param for each field f with f(x) = 0 that
    vanishes off J[i] (a row at x, if J[i] holds x, is meaningless). With p = P[x, J[i]],
    A[i] = diag((P^2)[x,J]) / 4 + diag(p) / 2 - (diag(p) P_JJ + P_JJ^T diag(p)) / 2
           + (1/2 - 1/n_param) p p^T.
    xs has shape (m,), J shape (m, d) and A shape (m, d, d); at most two arrays of
    that size are alive while it is built."""
    p = P[xs[:, None], J]
    A = P[J[:, :, None], J[:, None, :]]
    A *= p[:, :, None]
    V = A + A.swapaxes(1, 2)
    V *= 0.5
    np.multiply(p[:, :, None], p[:, None, :], out=A)
    A *= 0.5 - 1.0 / n_param
    A -= V
    d = np.arange(J.shape[1])
    A[:, d, d] += 0.25 * P2[xs[:, None], J] + 0.5 * p
    return A


def _be_groups(space: Space) -> tuple:
    """(P^2, groups) for the Bakry-Emery forms. Each group holds the points x with
    one (|Y|, |Z|), |Y| > 0, as (xs, J, |Y|): xs ascending, and J[i] the neighbours Y
    of xs[i] followed by its second ring Z, each ascending (``be_best_constant``
    defines both). Memoized per space, for every dimension parameter."""
    def compute():
        P = space.kernel
        P2 = _readonly(P @ P)
        away = ~np.eye(space.n, dtype=bool)
        Y = away & (P > 0)
        Z = away & (P == 0) & (P2 > 0)
        dy, dz = Y.sum(axis=1), Z.sum(axis=1)
        groups = []
        for a, b in np.unique(np.stack([dy, dz], axis=1)[dy > 0], axis=0).tolist():
            xs = np.flatnonzero((dy == a) & (dz == b))
            J = np.hstack([np.nonzero(Y[xs])[1].reshape(xs.size, a),
                           np.nonzero(Z[xs])[1].reshape(xs.size, b)])
            xs.flags.writeable = J.flags.writeable = False
            groups.append((xs, J, a))
        return P2, tuple(groups)

    return _linalg._memo(space, "be_groups", compute)


def _be_chunk(P: np.ndarray, P2: np.ndarray, xs: np.ndarray, J: np.ndarray, dy: int,
              n_param: float) -> np.ndarray:
    """K(x) for the points xs of one group, J and dy as in ``_be_groups``: their
    forms as one stack, the second ring eliminated and the neighbours scaled in
    place, and one stacked eigvalsh. At most two arrays of the stack's size are
    alive, and all die with the call, before the next chunk's are built."""
    A = _gamma2_matrix(P, P2, xs, J, n_param)
    S = A[:, :dy, :dy]  # a view: the Schur complement and the scaling go into A
    AYZ = A[:, :dy, dy:]
    S -= (AYZ / np.diagonal(A, axis1=1, axis2=2)[:, None, dy:]) @ AYZ.swapaxes(1, 2)
    s = 1.0 / np.sqrt(0.5 * P[xs[:, None], J[:, :dy]])
    S *= s[:, :, None]
    S *= s[:, None, :]
    return np.linalg.eigvalsh(S).min(axis=1)


@dataclass(frozen=True)
class BEResult:
    n_param: float
    k_best_global: float
    k_best_per_point: np.ndarray  # read-only


def be_best_constant(space: Space, n_param: float) -> BEResult:
    """Largest K with Gamma2(f) >= (1/n) (Lf)^2 + K Gamma(f) at every point.

    Per point x this is the supremum of K with A - K B positive semidefinite,
    A the Gamma2-form minus the dimension term and B the squared-gradient
    form. Both forms ignore constants, so f(x) = 0 is fixed and x dropped
    (the local formulation of Cushing, Liu and Peyerimhoff, Canad. J. Math.
    2020). On the neighbours Y = {y != x : k(x,y) > 0}, B is diag(k(x,y)) / 2.
    A point z of the second ring Z, outside {x} and Y with (P^2)(x,z) > 0,
    enters A only through its diagonal entry (P^2)(x,z) / 4 > 0 and terms
    linear in f(z); points farther out do not enter at all. Eliminating the second ring by
    its Schur complement leaves one symmetric eigenproblem of size deg(x):

        K(x) = lambda_min(s (A_YY - A_YZ A_ZZ^-1 A_ZY) s),  s = (k(x,Y) / 2)^(-1/2).

    K(x) = +inf at a point with no neighbour, where Gamma(f)(x) = 0 for every
    f. The points are taken in groups of equal (|Y|, |Z|) (``_be_groups``),
    each in the passes of ``_passes`` at 2 (|Y| + |Z|)^2 cells a point, as
    ``_be_chunk`` keeps two stacks of a chunk's forms alive: a chunk's forms
    are built as one stack, and one stacked ``eigvalsh`` gives its K(x), bit
    for bit what one point at a time gives.
    The reduction needs a finite nonnegative kernel; any other entry
    raises ValueError. Memoized per space and float(n_param), with the groups
    and P^2 memoized once per space for every n_param.
    """
    if not n_param > 1:
        raise ValueError("dimension parameter must satisfy n > 1 (inf allowed)")
    if not (np.isfinite(space.kernel).all() and space.kernel.min(initial=0.0) >= 0):
        raise ValueError("the Bakry-Emery constant needs a finite nonnegative kernel")
    n_param = float(n_param)

    def compute():
        P2, groups = _be_groups(space)
        ks = np.full(space.n, math.inf)
        for xs, J, dy in groups:
            for p in _passes(xs.size, 2 * J.shape[1] ** 2):
                ks[xs[p]] = _be_chunk(space.kernel, P2, xs[p], J[p], dy, n_param)
        return BEResult(n_param, float(ks.min(initial=math.inf)), _readonly(ks))

    return _linalg._memo(space, ("be", n_param), compute)


# ---------------------------------------------------------------------------
# coarse Ricci curvature


def ollivier_kappa(space: Space, x, y) -> float:
    """Coarse Ricci curvature along a pair: one minus the transport distance
    of the two jump laws relative to the points' own distance. Memoized per
    space and unordered pair."""
    i, j = sorted((space.index(x), space.index(y)))
    if i == j:
        raise ValueError("curvature needs two distinct points")
    return _pair_kappas(space, [(i, j)])[0][0]


def _pair_kappas(space: Space, pairs) -> list:
    """[(kappa, its certificate gap)] for the pairs (i, j), i < j: the gap is
    the W1 duality gap over d(i, j), a bound on the error of kappa. Memoized
    per pair; the pairs not held are solved by one stacked ``_w1`` call per
    pass of ``_passes``, the passes ``_w1_upper`` runs its greedy in."""
    def solve(missing):
        out = []
        for p in _passes(len(missing), space.n ** 2):
            i, j = np.array([key[1:] for key in missing[p]]).T
            w1, gap = _w1(space, space.kernel[i], space.kernel[j])
            # Python floats, so a zero distance raises ZeroDivisionError
            out += [(1.0 - w / d, g / d) for w, g, d in zip(w1.tolist(), gap.tolist(),
                                                               space.metric[i, j].tolist())]
        return out

    return _linalg._memo_many(space, [("kappa", i, j) for i, j in pairs], solve)


@dataclass(frozen=True)
class OllivierResult:
    """Every pair curvature of a pair family, with its infimum and worst gap.

    ``kappa_global`` is the infimum over the policy's family, kept on purpose
    next to ``curvature.kappa_global``: over all pairs it is the exhaustive
    value the tests check the best-first search against, and over the
    support edges it is what ``curvature --ollivier edges`` prints as
    ``kappa_global`` and ``analyze`` prints as ``kappa_upper_bound``.
    """

    kappa_pairs: MappingProxyType  # read-only, (i, j) with i < j -> kappa
    kappa_global: float
    kappa_gap: float  # the largest pair certificate gap (``_pair_kappas``)


def ollivier_global(space: Space, policy: str = "all_pairs") -> OllivierResult:
    """Infimum of the pairwise curvature over a pair family.

    ``all_pairs`` is the faithful global value (guarded to n <=
    ALL_PAIRS_LIMIT); ``support_edges`` restricts to kernel-adjacent pairs,
    whose infimum bounds the global one from above. ``kappa_gap`` is the
    largest pair certificate gap, on the scale of kappa. Memoized per space
    and policy.
    """
    if policy not in ("all_pairs", "support_edges"):
        raise ValueError("policy must be 'all_pairs' or 'support_edges'")
    n = space.n
    if policy == "all_pairs" and n > ALL_PAIRS_LIMIT:
        raise ValueError(f"all_pairs is limited to n <= {ALL_PAIRS_LIMIT}; "
                         "use policy='support_edges'")

    def compute():
        family = np.ones((n, n), bool) if policy == "all_pairs" else (space.kernel > 0) | (space.kernel.T > 0)
        pairs = list(zip(*(ix.tolist() for ix in np.nonzero(np.triu(family, 1)))))  # row-major, i < j
        solved = _pair_kappas(space, pairs)
        kappa_pairs = {ij: kappa for ij, (kappa, _) in zip(pairs, solved)}
        return OllivierResult(MappingProxyType(kappa_pairs),
                              float(min(kappa_pairs.values(), default=math.inf)),
                              float(max((gap for _, gap in solved), default=0.0)))

    return _linalg._memo(space, ("ollivier", policy), compute)


def _needed_pairs(space: Space) -> tuple:
    """Pairs (i, j), i < j, between which no jump target z of i or of j (z not
    in {i, j}) lies: none has d(i,z) + d(z,j) <= d(i,j) (1 + GEODESIC_RTOL).

    W1 is a metric (Ollivier, JFA 2009, Prop. 19), so a pair split by z has
    1 - kappa(i,j) <= (1 + GEODESIC_RTOL)(1 - min(kappa(i,z), kappa(z,j))),
    with both parts shorter. Every pair thus splits down to this family, whose
    least curvature is the global infimum; each split gives up at most a
    factor (1 + GEODESIC_RTOL) on 1 - kappa. On the path metric of the support
    graph the family lies within the support edges. One (|N(i)|, n) block per
    point, O(n |E|) in all. Memoized per space.
    """
    def compute():
        d = space.metric
        adj = ((space.kernel > 0) | (space.kernel.T > 0)) & ~np.eye(space.n, dtype=bool)
        split = np.zeros((space.n, space.n), dtype=bool)
        for i in range(space.n):
            N = np.flatnonzero(adj[i])
            between = d[i, N][:, None] + d[N] <= d[i] * (1.0 + GEODESIC_RTOL)
            between[np.arange(N.size), N] = False  # z = j
            split[i] = between.any(axis=0)
        i, j = np.nonzero(np.triu(~(split | split.T), k=1))
        return tuple(zip(i.tolist(), j.tolist()))

    return _linalg._memo(space, "needed_pairs", compute)


def kappa_global(space: Space) -> float | None:
    """Global coarse Ricci curvature: the least pair curvature over
    ``_needed_pairs``, exact on every metric up to the split bound there.

    None when that family has more pairs than all pairs have at
    ALL_PAIRS_LIMIT points; the support-edge infimum then only bounds the
    value from above.

    A best-first search: stacked ``_w1_upper`` calls over the jump laws of the
    needed pairs, one pair per row and one call per pass of ``_passes`` (a
    row's bound does not depend on its stack), bound each pair's curvature
    from below by 1 - bound / d(i, j), and ``_best_first``, on the negated
    curvatures (negation is exact), solves the pairs in order of that bound
    until its stopping rule certifies the minimum. Memoized per space.
    """
    pairs = _needed_pairs(space)
    if len(pairs) > ALL_PAIRS_LIMIT * (ALL_PAIRS_LIMIT - 1) // 2:
        return None

    def compute():
        upper = []
        for p in _passes(len(pairs), space.n ** 2):
            i, j = np.array(pairs[p], dtype=int).reshape(-1, 2).T
            bounds = _w1_upper(space, space.kernel[i], space.kernel[j]).tolist()
            # Python floats, so a zero distance raises as it does in _pair_kappas
            upper += [ub / d - 1.0 for ub, d in zip(bounds, space.metric[i, j].tolist())]
        return -_best_first(upper, lambda k: -_pair_kappas(space, [pairs[k]])[0][0])

    return _linalg._memo(space, "kappa_global", compute)


# ---------------------------------------------------------------------------
# semigroup estimates


def gradient_estimate_check(space: Space, k: float, samples: int,
                            times=(0.25, 1.0, 4.0), rng=None, extra_fields=()) -> float:
    """Largest pointwise excess of Gamma(T_t f) over e^{-2kt} T_t Gamma(f).

    Nonpositive (up to 1e-9) for every f and t exactly when the
    curvature-dimension bound holds with constant k and infinite dimension.
    """
    rng = np.random.default_rng(rng)
    fields = [as_values(space, f) for f in extra_fields]
    fields += [rng.standard_normal(space.n) for _ in range(samples)]
    worst = -math.inf
    for f in fields:
        gf = gamma(space, f).values
        for t in times:
            tf = heat_evolve(space, f, t, method="spectral").values
            lhs = gamma(space, tf).values
            rhs = np.exp(-2.0 * k * t) * heat_evolve(space, gf, t, method="spectral").values
            worst = max(worst, float((lhs - rhs).max()))
    return worst


def _lipschitz_norm(space: Space, v: np.ndarray) -> float:
    d = space.metric
    off = ~np.eye(space.n, dtype=bool)
    return float((np.abs(v[None, :] - v[:, None])[off] / d[off]).max())


def lipschitz_contraction_check(space: Space, samples: int, times=(0.5, 2.0, 8.0),
                                rng=None, kappa: float | None = None) -> float:
    """Largest ratio of Lip(T_t f) to e^{-t kappa} Lip(f) over random fields.

    With kappa the global coarse Ricci curvature (``kappa_global`` by
    default) the ratio stays at or below one; constant fields (Lipschitz
    seminorm zero) are skipped.
    """
    if space.n < 2:
        raise ValueError("needs at least two points")
    if kappa is None:
        kappa = kappa_global(space)
        if kappa is None:
            raise ValueError("the global curvature needs a pair family larger than all pairs at "
                             f"n = {ALL_PAIRS_LIMIT}; pass kappa")
    rng = np.random.default_rng(rng)
    worst = 0.0
    for _ in range(samples):
        f = rng.standard_normal(space.n)
        base = _lipschitz_norm(space, f)
        if base <= 1e-12:
            continue
        for t in times:
            tf = heat_evolve(space, f, t, method="spectral").values
            worst = max(worst, _lipschitz_norm(space, tf) / (np.exp(-t * kappa) * base))
    return float(worst)
