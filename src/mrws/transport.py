"""Exact optimal transport on the space's metric, local transport statistics,
entropy/information functionals, and the transport-inequality verifiers.

The transportation LP is solved to an optimal basis by the transportation
simplex of ``_simplex``, started from the least-cost greedy coupling;
optimality is certified by the final basis potentials, tightened by
c-transform so that the reported duality gap is meaningful on its own and
does not rest on the solver's tolerance. For ground cost d the source
potential is genuinely 1-Lipschitz.

Where only the W1 cost is read (the coarse Ricci curvature and the verifiers),
it goes through one stacked route, ``_routed``, over (m, n) stacks of marginal
pairs, one pair per row. A row has a closed form when either marginal is a
point mass, which forces the coupling, or on a tree metric, where W1 is the
edge-weighted sum of the subtree imbalances, certified by a tree potential;
the closed forms run row by row, so a row's bits do not depend on its stack.
``_tree`` reads the tree off the distance matrix alone, whichever pairs the
kernel joins, so it finds every metric that is the path metric of a tree on
the points; this module uses no graph library.
``_w1`` solves each row left by the LP of ``wasserstein``. ``_w1_upper`` bounds
each row left from above without an LP (a greedy coupling, run for every row
in lock step), so that ``_best_first``, the one search for the largest (or
least) of many costs, solves only the LPs that can set it. The verifiers keep
one record per density and space, its W1 bound to the measure and its
``divergences``, which the three inequalities share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg
from ._simplex import transportation_simplex as linprog  # every LP solve goes through this name
from .core import HypothesisError, Space, StructuralError, _readonly, as_values
from .spectral import dirichlet_energy

__all__ = [
    "TransportPlan",
    "wasserstein",
    "TransportStats",
    "transport_stats",
    "DivergenceStats",
    "divergences",
    "verify_transport_inequality",
    "random_density",
]

# Relative slack within which two distances count as equal: a jump target lies
# between two points, or a tree's path metric is the space's metric.
GEODESIC_RTOL = 1e-12
# Relative margin, on a scale of at least 1, by which an LP-free bound must
# clear the running extremum before ``_best_first`` skips the LP it bounds.
PRUNE_RTOL = 1e-9
# Most cells in one pass of ``_passes`` (16 MB of float64): a stacked marginal
# pair takes at most n^2 cells of the greedy's padded cost block, a point of a
# chunk of Bakry-Emery forms 2 d^2 in its two live stacks (``curvature``).
_BLOCK_CELLS = 1 << 21


@dataclass(frozen=True)
class TransportPlan:
    coupling: np.ndarray  # (n, n), row marginals = source, column = target
    cost: float  # the W_p value (p-th root of the optimal LP objective)
    dual_u: np.ndarray
    dual_v: np.ndarray
    duality_gap: float
    p: int


def wasserstein(space: Space, mu, nu2, p: int = 1) -> TransportPlan:
    """Optimal transport between two equal-mass nonnegative vectors.

    Ground cost is the space metric to the p-th power (p in {1, 2}); the
    reported ``cost`` is the p-th root of the optimal objective. Duals are
    extended to the whole space by c-transform: for p = 1 this yields a
    1-Lipschitz potential u with dual_v = -u (the flat dual form), and the
    duality gap compares the primal objective with its dual value.
    """
    (a,), (b,) = _balanced(as_values(space, mu)[None], as_values(space, nu2)[None])
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if not a.any():
        n = space.n
        z = np.zeros(n)
        return TransportPlan(np.zeros((n, n)), 0.0, z, z, 0.0, p)
    return _plan(space, a, b, p)


def _balanced(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked marginal pairs, one per row, checked row by row to be
    nonnegative and of equal mass (relative 1e-12; zero mass only against zero
    mass), each target rescaled to its source's mass exactly. The first
    failing row raises."""
    negative = (np.minimum(A, B) < 0).any(axis=-1).tolist()
    scale = []
    for neg, ta, tb in zip(negative, A.sum(axis=-1).tolist(), B.sum(axis=-1).tolist()):
        if neg:
            raise ValueError("marginals must be nonnegative")
        if abs(ta - tb) > 1e-12 * max(1.0, ta, tb) or (ta == 0.0) != (tb == 0.0):
            raise ValueError(f"mass imbalance: {ta} vs {tb}")
        scale.append(ta / tb if tb else 1.0)  # a zero row stays zero
    return A, B * np.array(scale).reshape(-1, 1)  # balance exactly


def _plan(space: Space, a: np.ndarray, b: np.ndarray, p: int) -> TransportPlan:
    """The optimal plan between checked marginals of positive mass, by LP."""
    cost_matrix = space.metric if p == 1 else space.metric ** 2
    I = np.flatnonzero(a > 0)
    J = np.flatnonzero(b > 0)
    c = cost_matrix[np.ix_(I, J)].reshape(-1)  # row-major over the I x J block
    x, _, v_J = linprog(c, a[I], b[J])
    objective = float(c @ x)

    # c-transform onto the full space; tightening never hurts feasibility
    u_full = (cost_matrix[:, J] - v_J[None, :]).min(axis=1)
    if p == 1:
        v_full = -u_full
        dual_value = float(a @ u_full - b @ u_full)
    else:
        v_full = (cost_matrix[I, :] - u_full[I][:, None]).min(axis=0)
        dual_value = float(a @ u_full + b @ v_full)
    gap = abs(objective - dual_value)

    coupling = np.zeros((space.n, space.n))
    coupling[np.ix_(I, J)] = x.reshape(len(I), len(J))
    wp = objective if p == 1 else float(np.sqrt(max(objective, 0.0)))
    return TransportPlan(coupling, wp, u_full, v_full, gap, p)


def _routed(space: Space, A, B):
    """(A, B, cost, gap, rows) for stacked marginal pairs, (m, n) arrays with
    one pair per row, checked by ``_balanced``: each row's W1 cost and gap is
    0 at zero mass and ``_closed_form``, row by row, where that applies; rows
    indexes the rows left to a solver. The one place that decides the route."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape != B.shape or A.shape[1] != space.n:
        raise StructuralError(f"expected two (m, {space.n}) stacks, got shapes {A.shape} and {B.shape}")
    A, B = _balanced(A, B)
    cost, gap = np.zeros(len(A)), np.zeros(len(A))
    massive = A.any(axis=-1)  # a row of zero mass costs 0
    closed = ((A != 0).sum(axis=-1) == 1) | ((B != 0).sum(axis=-1) == 1)  # a point mass
    if (massive & ~closed).any() and _tree(space) is not None:
        closed[:] = True  # every row has the tree closed form
    for r in np.flatnonzero(massive & closed):
        cost[r], gap[r] = _closed_form(space, A[r], B[r])
    return A, B, cost, gap, np.flatnonzero(massive & ~closed)


def _w1(space: Space, A, B) -> tuple[np.ndarray, np.ndarray]:
    """(W1 costs, duality gaps) between stacked marginal pairs, one per row,
    with the checks and errors of ``wasserstein`` (the first failing row
    raises): ``_routed``, and the LP of ``wasserstein`` for each row left."""
    A, B, cost, gap, rows = _routed(space, A, B)
    for r in rows:
        plan = _plan(space, A[r], B[r], 1)
        cost[r], gap[r] = plan.cost, plan.duality_gap
    return cost, gap


def _w1_upper(space: Space, A, B) -> np.ndarray:
    """Upper bounds on W1 between stacked marginal pairs, one per row, with
    the checks of ``_w1`` and no LP: the exact cost of ``_routed`` where it
    has one, else the cost of a greedy coupling.

    The greedy keeps min(a, b) in place, at cost 0, and fills the cells of
    the residual a - min(a, b) to b - min(a, b) cheapest first, each as far as
    its row and column allow. That is a feasible coupling, so its cost bounds
    W1 from above. Its float cost can sit a few ulps below the exact cost of
    the coupling, and the residual masses can differ by a few ulps; callers
    that rank by the bound keep a margin for both.

    All greedy rows run in lock step. Each row's residual supports, in
    ascending index order, index a padded block of the metric whose dead
    cells (padding, and cells of an exhausted row or column) hold inf; each
    step fills every row's cheapest live cell, the first in row-major order
    among equal costs, which is where a stable sort of the row's cells would
    go next. So each row does the float operations of a scalar loop over its
    sorted cells, in the same order, and its bound does not depend on the
    other rows in the stack. That lets a long stack run in passes of at most
    _BLOCK_CELLS block cells, whatever its rows hold, with the same bounds. An
    empty stack gives an empty array.
    """
    A, B, bound, _, rows = _routed(space, A, B)
    for at in (rows[p] for p in _passes(len(rows), space.n ** 2)):
        supply, demand = A[at], B[at]
        common = np.minimum(supply, demand)
        supply -= common
        demand -= common
        # a row left without supply or without demand (a == b, say) moves nothing
        keep = (supply > 0).any(axis=-1) & (demand > 0).any(axis=-1)
        if keep.any():
            bound[at[keep]] = _greedy_costs(space.metric, supply[keep], demand[keep])
    return bound


def _passes(rows: int, cells: int) -> list:
    """Slices of range(rows), in order, of max(1, _BLOCK_CELLS // cells) rows."""
    step = max(1, _BLOCK_CELLS // max(1, cells))
    return [slice(s, s + step) for s in range(0, rows, step)]


def _greedy_costs(metric: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """The cheapest-first greedy coupling cost of each row's residual masses
    (nonnegative rows, each with a positive supply and demand), in lock step;
    see ``_w1_upper``."""
    m = len(supply)
    packed = []
    for X in (supply, demand):  # each row's support first, in ascending index order
        live = X > 0
        width = int(live.sum(axis=-1).max())
        at = np.argsort(~live, axis=-1, kind="stable")[:, :width]
        X = np.take_along_axis(X, at, axis=-1)
        packed.append((at, X, X > 0))
    (I, supply, li), (J, demand, lj) = packed
    C = metric[I[:, :, None], J[:, None, :]]  # a fresh C-ordered (m, |I|, |J|) block
    C[~li] = np.inf
    C.swapaxes(1, 2)[~lj] = np.inf
    flat = C.reshape(m, -1)
    cost = np.zeros(m)
    every = np.arange(m)
    while True:
        k = flat.argmin(axis=-1)
        c = flat[every, k]
        act = np.flatnonzero(c < np.inf)  # the rows with a live cell left
        if not act.size:
            break
        k, c = k[act], c[act]
        i, j = np.divmod(k, J.shape[1])
        sup, dem = supply[act, i], demand[act, j]
        f = np.minimum(sup, dem)
        cost[act] += f * c
        supply[act, i] = sup - f  # one of the two is now exactly zero
        demand[act, j] = dem - f
        out = sup == f
        C[act[out], i[out]] = np.inf
        out = dem == f
        C[act[out], :, j[out]] = np.inf
    # mass left on both sides could only move through cells of infinite cost
    cost[(supply > 0).any(axis=-1) & (demand > 0).any(axis=-1)] = np.inf
    return cost


def _best_first(bounds: list, exact) -> float:
    """The largest exact(k) over k in range(len(bounds)) (-inf for none),
    where bounds[k] bounds exact(k) from above.

    exact is called in order of decreasing bound, ties in index order, until
    the running maximum best is inf or the next bound is below best -
    PRUNE_RTOL max(1, |best|): that k and every later one have exact(k) <=
    bounds[k] < best, certified by the bound, and the k that sets the maximum
    has been called. The margin covers the few ulps by which a greedy
    coupling's float cost can undercut its exact cost (``_w1_upper``) and the
    duality gaps of the LPs behind exact, so the value equals that of calling
    exact on every k while those gaps stay below the margin. The simplex
    ends on an optimal basis, so they are rounding errors: within 1e-12
    max(1, cost) on the tested draws, where HiGHS left up to 6.7e-8.
    """
    best = -math.inf
    for k in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if best == math.inf or bounds[k] < best - PRUNE_RTOL * max(1.0, abs(best)):
            break
        best = max(best, exact(k))
    return best


def _closed_form(space: Space, a: np.ndarray, b: np.ndarray) -> tuple[float, float] | None:
    """(W1 cost, duality gap) between checked marginals of positive mass where
    a closed form applies, else None.

    A point mass forces the coupling, so W1(m delta_x, b) = sum_y b_y d(x, y)
    with gap 0. On a tree metric (``_tree``) W1 = sum_e w_e |s_e|, s_e the
    imbalance a - b summed over the subtree below edge e (Evans and Matsen,
    JRSS-B 2012); the potential u(child) = u(parent) + w_e sign(s_e) is
    1-Lipschitz and attains it, and its gap |W1 - (a - b).u| certifies the
    value.
    """
    for src, dst in ((a, b), (b, a)):
        at = np.flatnonzero(src)
        if at.size == 1:
            return float(dst @ space.metric[:, at[0]]), 0.0
    tree = _tree(space)
    if tree is None:
        return None
    below, w = tree
    diff = a - b
    s = diff @ below
    cost = float(w @ np.abs(s))
    return cost, abs(cost - float(diff @ (below @ (w * np.sign(s)))))


def _tree(space: Space):
    """The tree on the points whose path metric is the space's metric, as
    (below, w), or None when there is none. Memoized per space.

    Every distance must be finite. The tree is read off the distances from
    point 0, its root, which must be positive and below the sentinel. A point
    p lies between 0 and v when d(0, p) + d(p, v) <= d(0, v) (1 +
    GEODESIC_RTOL); the parent of v is the nearest p that lies between 0 and
    v and is nearer to 0 than v. On a tree metric that is the next point on
    the path from v to 0, so no graph search is needed. below[v, c] = 1 when
    v lies in the subtree of c, and w[c] = d(c, parent) is the length of the
    edge from c to its parent (0 at the root). The candidate is accepted when
    its path lengths, A + A^T with A = (below w)(1 - below)^T, a sum of
    nonnegative terms, equal the metric within GEODESIC_RTOL of the path
    length everywhere.
    """
    def compute():
        n, d = space.n, space.metric
        d0 = d[0]
        sentinel = np.inf if space.metric_sentinel is None else space.metric_sentinel
        if not (np.isfinite(d).all() and ((d0[1:] > 0) & (d0[1:] < sentinel)).all()):
            return None
        # [p, v]: p is nearer to 0 than v and lies between them
        between = (d0[:, None] < d0) & (d0[:, None] + d <= d0 * (1.0 + GEODESIC_RTOL))
        parent = np.where(between, d, np.inf).argmin(axis=0)
        below = np.zeros((n, n))
        below[0, 0] = 1.0
        for v in np.argsort(d0[1:], kind="stable") + 1:  # each parent comes before its children
            below[v] = below[parent[v]]
            below[v, v] = 1.0
        w = np.append(0.0, d[np.arange(1, n), parent[1:]])
        A = (below * w) @ (1.0 - below).T
        path = A + A.T
        if not (np.abs(path - d) <= GEODESIC_RTOL * path).all():
            return None
        return _readonly(below), _readonly(w)

    return _linalg._memo(space, "tree", compute)


# ---------------------------------------------------------------------------
# local statistics and divergences


@dataclass(frozen=True)
class TransportStats:
    theta: np.ndarray  # half squared 2-transport cost from each point to its jump law
    theta_m: float
    jump: np.ndarray  # expected jump length per point


def transport_stats(space: Space) -> TransportStats:
    """Half second moments and first moments of the one-step jump laws.

    Both couplings from a point mass are forced, so these closed-form sums
    equal the corresponding transport costs exactly.
    """
    d, P = space.metric, space.kernel
    theta = 0.5 * np.einsum("ij,ij->i", P, d ** 2)
    jump = np.einsum("ij,ij->i", P, d)
    return TransportStats(theta, float(theta.max()), jump)


@dataclass(frozen=True)
class DivergenceStats:
    entropy: float
    fisher: float


def divergences(space: Space, density) -> DivergenceStats:
    """Relative entropy and information of a probability density w.r.t. the
    normalized stationary measure.

    entropy = int f log f dnu (0 log 0 = 0); fisher = 2 * energy(sqrt f).
    Both vanish exactly when the density is identically one.
    """
    f = as_values(space, density)
    if np.any(f < 0):
        raise ValueError("density must be nonnegative")
    nu = space.nu
    total = float(nu @ f)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"density must integrate to 1 (got {total})")
    pos = f > 0
    entropy = float(np.sum(nu[pos] * f[pos] * np.log(f[pos])))
    fisher = 2.0 * dirichlet_energy(space, np.sqrt(f))
    return DivergenceStats(entropy, fisher)


# ---------------------------------------------------------------------------
# inequality verification


_POINT_MASS_PROB = 0.3  # share of random densities that are point masses


def random_density(space: Space, rng: np.random.Generator) -> np.ndarray:
    """Sample a probability density w.r.t. the normalized measure.

    Mixes pure point masses (which stress transport inequalities hardest)
    with smooth exponential tilts.
    """
    nu = space.nu
    if rng.random() < _POINT_MASS_PROB:
        x = int(rng.integers(space.n))
        f = np.zeros(space.n)
        f[x] = 1.0 / nu[x]
        return f
    g = np.exp(1.5 * rng.standard_normal(space.n))
    return g / float(nu @ g)


KINDS = ("ti_be", "ti_ollivier", "te")


def verify_transport_inequality(space: Space, kind: str, trials: int, rng=None) -> float:
    """Stress a transport inequality with random densities; return the max
    ratio of its left side to its right side (<= 1 + 1e-9 when it holds).

    ti_be        W1(f nu, nu) <= sqrt(2 theta_m)/K * sqrt(I(f))   for the best
                 curvature-dimension constant K = K(infinity) > 0.
    ti_ollivier  same with K replaced by the coarse Ricci curvature kappa > 0
                 (``curvature.kappa_global``, defined while its pair family
                 has no more pairs than all pairs at n =
                 curvature.ALL_PAIRS_LIMIT).
    te           W1(f nu, nu) <= sqrt( sqrt(2 theta_m)/K_TI * Ent(f) ) where
                 1/K_TI is the best available transport-information constant
                 (from K(infinity) alone where kappa is out of reach).

    A ratio above 1 is a counterexample. The curvature hypotheses are local,
    so they can hold on a space with several invariant blocks even though the
    inequalities themselves are then false; to surface this reliably, the
    normalized indicator of each invariant block is always tried alongside
    the random densities (a block indicator has zero information but positive
    transport cost, so every finite information constant fails on it).

    Only the largest ratio is read, so ``_best_first`` solves the densities in
    order of decreasing ratio bound, ``_w1_upper`` over the right side
    (infinite for a right side of 0 unless the bound is at most 1e-12, which
    certifies ratio 0), until its stopping rule certifies the maximum. Each
    density has one record per space, keyed by its bytes and shared by the
    three kinds: its W1(f nu, nu) bound and its ``divergences``, made for all
    densities not yet seen by one stacked ``_w1_upper`` call, one (f nu, nu)
    row each. A kind only maps the records to right sides and ratio bounds.
    The exact W1(f nu, nu) of a density the search solves is memoized under
    the same bytes. A normalized measure with a NaN or infinite entry is
    refused with a ValueError before any density is drawn.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1 (got {trials})")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if not np.isfinite(space.nu).all():
        raise ValueError("the transport inequalities need a finite normalized measure")
    from .connectivity import invariant_blocks
    from .curvature import ALL_PAIRS_LIMIT, be_best_constant, kappa_global  # deferred: cyclic module pair

    theta_m = transport_stats(space).theta_m
    root2theta = float(np.sqrt(2.0 * theta_m))

    k_be = None
    kappa = None
    if kind in ("ti_be", "te"):
        k = be_best_constant(space, np.inf).k_best_global
        if np.isfinite(k) and k > 0:
            k_be = float(k)
        elif kind == "ti_be":
            raise HypothesisError("curvature-dimension constant K(inf) is not positive")
    if kind in ("ti_ollivier", "te"):
        k = kappa_global(space)
        if k is None:
            if kind == "ti_ollivier":
                raise HypothesisError("coarse Ricci curvature needs a pair family larger than all pairs "
                                      f"at n = {ALL_PAIRS_LIMIT}")
        elif np.isfinite(k) and k > 0:
            kappa = float(k)
        elif kind == "ti_ollivier":
            raise HypothesisError("coarse Ricci curvature is not positive")

    if kind == "te":
        candidates = [c / root2theta for c in (k_be, kappa) if c is not None]
        if not candidates:
            raise HypothesisError("no positive transport-information constant available")
        k_ti = max(candidates)

    rng = np.random.default_rng(rng)
    nu = space.nu
    densities = [random_density(space, rng) for _ in range(trials)]
    blocks = invariant_blocks(space).blocks
    if len(blocks) > 1:
        densities += [b.mask / float(nu @ b.mask) for b in blocks]

    def ratio(w1, r):  # a right side of 0 fails unless the left side is 0 as well
        if r == 0.0:
            return 0.0 if w1 <= 1e-12 else math.inf
        return float(w1 / r)

    keys = [("density", f.tobytes()) for f in densities]
    by_key = dict(zip(keys, densities))

    def records(missing):  # one stacked bound over the densities not yet seen
        divs = [divergences(space, by_key[key]) for key in missing]
        F = np.array([by_key[key] for key in missing])
        return list(zip(_w1_upper(space, F * nu, np.broadcast_to(nu, F.shape)).tolist(), divs))

    rhs, bounds = [], []
    for ub, div in _linalg._memo_many(space, keys, records):
        rhs.append(np.sqrt(root2theta / k_ti * max(div.entropy, 0.0)) if kind == "te"
                   else root2theta / (k_be or kappa) * np.sqrt(div.fisher))
        bounds.append(ratio(ub, rhs[-1]))

    def exact(k):
        f = densities[k]
        lhs = _linalg._memo(space, ("w1_to_nu", keys[k][1]),
                            lambda: _w1(space, (f * nu)[None], nu[None])[0].item())
        return ratio(lhs, rhs[k])

    return max(0.0, _best_first(bounds, exact))
