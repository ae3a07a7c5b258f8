"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way (plain loops,
exhaustive enumeration) and shares no code with the library paths it checks.
The exceptions are ``point_forms``, which assembles the library's per-point
Gamma2 matrix so that the tests can check it against ``gamma2`` directly,
``be_constant_per_point``, which takes that matrix too, so that it checks the
grouping and chunking of the Bakry-Emery points, and ``closed_form``, which
takes the library's tree (``transport._tree``; ``tree_support_mst`` checks
that), and ``routed``, which takes the library's checks (``_balanced``), so
that they check the stacked closed forms row by row. ``closed_form`` and
``divergences_row`` are the row-by-row forms the library computed before its
stacked passes, kept as the bit-for-bit reference. ``transport_lp``
is scipy's HiGHS solver, the reference for the library's own simplex,
``tree_support_mst`` finds trees with scipy's graph routines, and
``invariant_blocks_scc`` takes the closed classes from scipy's strong
components. ``dumps_chain`` is the command line's JSON renderer as it was
before its one-join float lists, and ``float_array_numpy`` the input
conversion before the struct packing, both byte-for-byte references.
"""

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from mrws.curvature import _gamma2_matrix
from mrws.spectral import dirichlet_energy
from mrws.transport import GEODESIC_RTOL, _balanced, _tree


def w1_bruteforce(mu, nu, cost):
    """Exact 1-transport cost by enumerating basic solutions.

    Every vertex of the transportation polytope is supported on at most
    k + l - 1 cells, so trying every support pattern of that size and solving
    the marginal equations visits every vertex. Exponential; keep k*l small.
    """
    mu = np.asarray(mu, float)
    nu = np.asarray(nu, float)
    cost = np.asarray(cost, float)
    si = np.flatnonzero(mu > 0)  # plans live on the support product
    sj = np.flatnonzero(nu > 0)
    mu, nu, cost = mu[si], nu[sj], cost[np.ix_(si, sj)]
    k, l = len(mu), len(nu)
    cells = [(i, j) for i in range(k) for j in range(l)]
    m = k + l - 1
    best = np.inf
    rows = []
    rhs = np.concatenate([mu, nu])
    for size in range(1, m + 1):
        for support in combinations(cells, size):
            A = np.zeros((k + l, size))
            for idx, (i, j) in enumerate(support):
                A[i, idx] = 1.0
                A[k + j, idx] = 1.0
            x, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            if np.any(x < -1e-10):
                continue
            if np.abs(A @ x - rhs).max() > 1e-10:
                continue
            val = sum(xi * cost[i, j] for xi, (i, j) in zip(x, support))
            best = min(best, float(val))
    return best


def marginal_constraints(ni, nj):
    """Row and column sums of a row-major ni x nj coupling, as one (ni + nj)
    x ni*nj 0/1 matrix: row r sums entries r*nj .. r*nj + nj-1, row ni + c
    sums entries c, c + nj, ..., c + (ni-1)*nj."""
    rows = np.concatenate([np.repeat(np.arange(ni), nj), np.repeat(np.arange(ni, ni + nj), ni)])
    cols = np.concatenate([np.arange(ni * nj),
                           np.tile(np.arange(ni) * nj, nj) + np.repeat(np.arange(nj), ni)])
    return coo_matrix((np.ones(2 * ni * nj), (rows, cols)), shape=(ni + nj, ni * nj))


def transport_lp(c, a, b):
    """The optimal value of the transportation LP min c.x, x >= 0 row-major
    with row sums a and column sums b, by HiGHS."""
    res = linprog(c, A_eq=marginal_constraints(len(a), len(b)), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def w1_upper_scalar(space, mu, nu):
    """The greedy W1 upper bound of one marginal pair by a scalar loop: the
    same checks (for masses that do not overflow) and exact rebalancing as
    ``transport._balanced``, the closed form where there is one, else min(a,
    b) kept in place and the residual's cells filled in the order of a stable
    sort of their costs, each as far as its row and column allow."""
    a = np.asarray(mu, dtype=float)
    b = np.asarray(nu, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("marginals must be finite")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("marginals must be nonnegative")
    ta, tb = float(a.sum()), float(b.sum())
    if abs(ta - tb) > 1e-12 * max(1.0, ta, tb) or (ta == 0.0) != (tb == 0.0):
        raise ValueError(f"mass imbalance: {ta} vs {tb}")
    if ta == 0.0:
        return 0.0
    b = b * (ta / tb)
    exact = closed_form(space, a, b)
    if exact is not None:
        return exact[0]
    common = np.minimum(a, b)
    sa, sb = a - common, b - common
    I, J = np.flatnonzero(sa > 0), np.flatnonzero(sb > 0)
    C = space.metric[np.ix_(I, J)]
    supply, demand, c = sa[I].tolist(), sb[J].tolist(), C.ravel().tolist()
    rows_left, cols_left, nj = len(I), len(J), len(J)
    cost = 0.0
    for k in np.argsort(C, axis=None, kind="stable").tolist():
        r, s = divmod(k, nj)
        f = min(supply[r], demand[s])
        if f <= 0.0:
            continue
        cost += f * c[k]
        supply[r] -= f  # one of the two is now exactly zero
        demand[s] -= f
        rows_left -= supply[r] == 0.0
        cols_left -= demand[s] == 0.0
        if not (rows_left and cols_left):
            break
    return cost


def closed_form(space, a, b):
    """(W1 cost, duality gap) between checked marginals of positive mass where
    a closed form applies, else None, one pair at a time: a point mass forces
    the coupling (gap 0), and on a tree metric W1 = sum_e w_e |s_e| with the
    gap of the tree potential."""
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


def routed(space, A, B):
    """``transport._routed`` by ``closed_form``, row by row, a row of zero mass
    costing 0, after the library's checks (``_balanced``)."""
    A, B = _balanced(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    rows = [closed_form(space, a, b) if a.any() else (0.0, 0.0) for a, b in zip(A, B)]
    return (A, B, np.array([r[0] if r else 0.0 for r in rows]), np.array([r[1] if r else 0.0 for r in rows]),
            np.array([k for k, r in enumerate(rows) if r is None], dtype=int))


def divergences_row(space, f):
    """(entropy, fisher) of one checked density: the sum of nu f log f over
    its positive entries, and twice the Dirichlet energy of sqrt(f)."""
    pos = f > 0
    entropy = float(np.sum(space.nu[pos] * f[pos] * np.log(f[pos])))
    return entropy, 2.0 * dirichlet_energy(space, np.sqrt(f))


def divergences_rows(space, F):
    """``transport._divergences`` by ``divergences_row``, row by row, without
    its checks."""
    rows = [divergences_row(space, f) for f in F]
    return np.array([e for e, _ in rows]), np.array([i for _, i in rows])


def tree_support_mst(space):
    """The library's former tree test, by scipy's graph routines: the minimum
    spanning tree of the support edges weighted by the metric, rooted at point
    0 in breadth-first order, as (below, w) when it spans every point and its
    path lengths equal the metric within GEODESIC_RTOL of the distance, else
    None. It finds only trees whose edges are support edges."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree, shortest_path

    n = space.n
    d = space.metric
    adj = (space.kernel > 0) | (space.kernel.T > 0)
    i, j = np.nonzero(np.triu(adj, k=1) & (d > 0) & np.isfinite(d))
    mst = minimum_spanning_tree(csr_matrix((d[i, j], (i, j)), shape=(n, n)))
    order, parent = breadth_first_order(mst, 0, directed=False)
    if order.size < n:
        return None
    if not np.all(np.abs(shortest_path(mst, directed=False) - d) <= GEODESIC_RTOL * d):
        return None
    below = np.zeros((n, n))
    below[0, 0] = 1.0
    for v in order[1:]:  # each parent comes before its children
        below[v] = below[parent[v]]
        below[v, v] = 1.0
    w = np.zeros(n)
    w[order[1:]] = d[order[1:], parent[order[1:]]]
    return below, w


def invariant_blocks_scc(space):
    """The library's former invariant blocks, by scipy's strong components of
    the support digraph {kernel > 0}: the classes with no nonzero kernel entry
    leaving them, as boolean masks in the order of their least point."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rows, cols = np.nonzero(space.kernel > 0)
    indptr = np.searchsorted(rows, np.arange(space.n + 1)).astype(np.int32)
    graph = csr_matrix((np.ones(cols.size), cols.astype(np.int32), indptr), shape=(space.n, space.n))
    ncomp, labels = connected_components(graph, connection="strong")
    leaving = ((space.kernel != 0) & (labels[:, None] != labels[None, :])).any(axis=1)
    open_class = np.bincount(labels, weights=leaving, minlength=ncomp) > 0
    _, first = np.unique(labels, return_index=True)
    return tuple(labels == c for c in np.argsort(first) if not open_class[c])


def gamma_pointwise(space, f, x):
    """Direct evaluation of the squared-gradient form at one point."""
    f = np.asarray(f, float)
    return 0.5 * sum(space.kernel[x, y] * (f[y] - f[x]) ** 2 for y in range(space.n))


def gamma2_pointwise(space, f, x):
    """Direct evaluation of the iterated form at one point."""
    f = np.asarray(f, float)
    P = space.kernel
    n = space.n

    def lap(g, z):
        return sum(P[z, y] * (g[y] - g[z]) for y in range(n))

    def gam(g, h, z):
        return 0.5 * sum(P[z, y] * (g[y] - g[z]) * (h[y] - h[z]) for y in range(n))

    gf = np.array([gam(f, f, z) for z in range(n)])
    lf = np.array([lap(f, z) for z in range(n)])
    return 0.5 * lap(gf, x) - gam(f, lf, x)


def be_constant_bisection(space, x, n_param):
    """Largest K with Gamma2(f)(x) >= (Lf)(x)^2 / n + K Gamma(f)(x) for all f.

    The forms are the polarizations of the pointwise oracles over all n
    points, the dimension term comes from a loop Laplacian, and K is found
    by bisection on the least eigenvalue of A - K B (nonincreasing in K,
    since B is PSD); +inf where Gamma(.)(x) vanishes.
    """
    n = space.n
    P = space.kernel
    E = np.eye(n)

    def polarize(q):
        d = [q(E[i]) for i in range(n)]
        Q = np.diag(d)
        for i in range(n):
            for j in range(i + 1, n):
                Q[i, j] = Q[j, i] = 0.5 * (q(E[i] + E[j]) - d[i] - d[j])
        return Q

    B = polarize(lambda f: gamma_pointwise(space, f, x))
    A = polarize(lambda f: gamma2_pointwise(space, f, x))
    if not B.any():
        return np.inf
    if n_param != np.inf:
        lap = np.array([sum(P[x, y] * (E[j][y] - E[j][x]) for y in range(n)) for j in range(n)])
        A -= np.outer(lap, lap) / n_param

    def holds(k):
        return np.linalg.eigvalsh(A - k * B).min() >= -1e-11

    lo, hi = -1.0, 1.0
    while not holds(lo):
        lo *= 2.0
    while holds(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def be_constant_per_point(space, n_param):
    """K(x) at every point by the library's former loop: one point at a time, its
    form ``curvature._gamma2_matrix`` on a one-row stack, the second ring
    eliminated by its Schur complement, the neighbours scaled and one eigvalsh;
    +inf at a point with no neighbour. The library's grouped and chunked stacks
    must give the same bits."""
    P = space.kernel
    P2 = P @ P
    n = space.n
    ks = np.full(n, np.inf)
    for x in range(n):
        away = np.arange(n) != x
        Y = np.flatnonzero(away & (P[x] > 0))
        if not Y.size:
            continue
        Z = np.flatnonzero(away & (P[x] == 0) & (P2[x] > 0))
        A = _gamma2_matrix(P, P2, np.array([x]), np.concatenate([Y, Z])[None], n_param)[0]
        AYZ = A[:Y.size, Y.size:]
        S = A[:Y.size, :Y.size] - (AYZ / np.diag(A)[Y.size:]) @ AYZ.T
        s = 1.0 / np.sqrt(0.5 * P[x, Y])
        ks[x] = np.linalg.eigvalsh(s[:, None] * S * s).min()
    return ks


def total_variation_loops(space, u):
    """Definition of the nonlocal total variation, as explicit loops."""
    u = np.asarray(u, float)
    nu = space.measure / space.measure.sum()
    acc = 0.0
    for i in range(space.n):
        for j in range(space.n):
            acc += nu[i] * space.kernel[i, j] * abs(u[j] - u[i])
    return 0.5 * acc


def perimeter_loops(space, mask):
    """Perimeter of a set as explicit loops over its cut pairs, the terms
    summed exactly (math.fsum), so the result is their correctly rounded sum."""
    nu = space.measure / space.measure.sum()
    return math.fsum(nu[i] * space.kernel[i, j]
                     for i in np.flatnonzero(mask) for j in np.flatnonzero(~np.asarray(mask)))


def cheeger_bruteforce(space):
    """Cheeger constant by iterating subsets one by one (n small)."""
    n = space.n
    nu = space.measure / space.measure.sum()
    best = np.inf
    for code in range(1, 2 ** (n - 1)):
        mask = np.array([(code >> i) & 1 for i in range(n)], dtype=bool)
        per = perimeter_loops(space, mask)
        m = nu[mask].sum()
        best = min(best, per / min(m, 1.0 - m))
    return best


def cheeger_fsum(space):
    """Cheeger constant by iterating subsets one by one (n small), each cut
    and each side's mass summed exactly (math.fsum) from its own terms, so a
    side lighter than an ulp of the total keeps its mass."""
    n = space.n
    nu = space.measure / space.measure.sum()
    best = math.inf
    for code in range(1, 2 ** (n - 1)):
        mask = np.array([(code >> i) & 1 for i in range(n)], dtype=bool)
        best = min(best, perimeter_loops(space, mask) / min(math.fsum(nu[mask]), math.fsum(nu[~mask])))
    return best


def rk4_stepwise(P, u0, t):
    """Classical RK4 for du/dt = (P - I) u, one k1..k4 stage at a time, with
    the library's step rule (at least 10 steps, none longer than 0.005)."""
    P = np.asarray(P, float)
    u = np.array(u0, dtype=float)
    steps = max(10, int(np.ceil(t / 0.005)))
    h = t / steps
    for _ in range(steps):
        k1 = P @ u - u
        k2 = P @ (u + 0.5 * h * k1) - (u + 0.5 * h * k1)
        k3 = P @ (u + 0.5 * h * k2) - (u + 0.5 * h * k2)
        k4 = P @ (u + h * k3) - (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def heat_series_per_time(P, u0, t, tol=1e-12):
    """The series route for one time on its own: equal steps of at most 512,
    each summing e^{-s} s^k/k! P^k u until the tail bound falls below
    tol/steps. The library shares the terms of the first step across a time
    grid; each of its states must equal this one bit for bit."""
    P = np.asarray(P, float)
    u = np.array(u0, dtype=float)
    if t == 0.0:
        return u
    steps = int(np.ceil(t / 512.0))  # zero where t / 512 underflows: then u0 is returned
    for _ in range(steps):
        s, eps = t / steps, tol / steps
        sup = float(np.abs(u).max())
        coef = np.exp(-s)
        acc = coef * u
        term = u
        k = 0
        while True:
            k += 1
            term = P @ term
            coef *= s / k
            acc = acc + coef * term
            rho = s / (k + 1)
            if rho < 1.0 and sup * coef * rho / (1.0 - rho) < eps:
                break
        u = acc
    return u


def heat_rk4_per_time(P, u0, t):
    """The rk4 route for one time on its own: its own step matrix R = I + B,
    built from the identity and squared for each bit of the step count, or
    plain stepping where the library's cost estimate says so. The library
    shares R and its squarings across a time grid; each of its states must
    equal this one bit for bit."""
    P = np.asarray(P, float)
    u = np.array(u0, dtype=float)
    if t == 0.0:
        return u
    steps = max(10, int(np.ceil(t / 0.005)))
    h = t / steps
    n = len(u)

    def increment(X):  # RX - X by Horner's rule on the Taylor polynomial of degree 4
        Y = X
        for j in (4, 3, 2):
            Y = X + (h / j) * (P @ Y - Y)
        return h * (P @ Y - Y)

    if (3 + steps.bit_length()) * n / 10 + steps.bit_count() < 4 * steps:
        B = increment(np.eye(n))
        while True:
            if steps & 1:
                u = u + B @ u
            steps >>= 1
            if not steps:
                return u
            B = B @ B + 2.0 * B
    for _ in range(steps):
        u = u + increment(u)
    return u


def cheeger_chunked(space):
    """Exact Cheeger ratio and the lowest subset id attaining it, by the
    library's former scan: subset ids (point n-1 always outside) in chunks of
    2**16, the whole chunk's cuts formed at once as b.q - b.Q.b, clipped at
    zero. That formula cancels, so the ratio is a reference within its error
    bound (about 32 n eps / nu[n-1]), not to the bit, and a tied set may be
    ranked first by its rounding."""
    n = space.n
    nu = space.measure / space.measure.sum()
    Q = nu[:, None] * space.kernel
    q = Q.sum(axis=1)
    best, best_id = np.inf, None
    for start in range(1, 2 ** (n - 1), 2 ** 16):
        ids = np.arange(start, min(start + 2 ** 16, 2 ** (n - 1)), dtype=np.uint64)
        bits = ((ids[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1).astype(float)
        inner = np.einsum("mi,mi->m", bits @ Q, bits)
        cut = np.maximum(bits @ q - inner, 0.0)
        mass = bits @ nu
        ratio = cut / np.minimum(mass, 1.0 - mass)
        k = int(np.argmin(ratio))  # first of the chunk's minima
        if ratio[k] < best:  # an earlier chunk keeps a tie
            best, best_id = float(ratio[k]), int(ids[k])
    return best, best_id


def triangle_residual_loop(d, sentinel):
    """The library's former triangle residual loop, under the current rule for
    non-finite values: one masked pass per midpoint j over the pairs whose
    three legs all lie below the sentinel, where a NaN counts as below. A
    distance below the sentinel that is not finite, and a residual that is not
    finite (no pair below, or an overflow), read inf."""
    n = d.shape[0]
    if sentinel is not None:
        finite = ~(d >= sentinel)
    else:
        finite = np.ones_like(d, dtype=bool)
    if not np.isfinite(d[finite]).all():
        return np.inf
    worst = -np.inf
    for j in range(n):
        via = d[:, j][:, None] + d[j, :][None, :]
        valid = finite & finite[:, j][:, None] & finite[j, :][None, :]
        if valid.any():
            gap = np.where(valid, d - via, -np.inf)
            worst = max(worst, float(gap.max()))
    return worst if np.isfinite(worst) else np.inf


@dataclass(frozen=True)
class PointQuadraticForms:
    """Per-point forms on all n points, with f.gamma_forms[x] f = Gamma(f)(x), likewise
    Gamma2, and laplacian_rows[x] @ f = (Lf)(x). O(n^3) memory, for small spaces."""

    gamma_forms: np.ndarray  # (n, n, n), [x] is the form of Gamma(.)(x)
    gamma2_forms: np.ndarray
    laplacian_rows: np.ndarray  # (n, n)


def point_forms(space):
    """Both forms ignore constants: each is C^T A C, with C = I - 1 e_x^T mapping f to
    f - f(x) and A the form on fields with f(x) = 0; A is ``curvature._gamma2_matrix``
    on all n points for Gamma2, at infinite dimension."""
    P = space.kernel
    P2 = P @ P
    n = space.n
    B = np.empty((n, n, n))
    M2 = np.empty((n, n, n))
    for x in range(n):
        C = np.eye(n)
        C[:, x] -= 1.0
        B[x] = C.T @ (0.5 * P[x, :, None] * C)
        M2[x] = C.T @ _gamma2_matrix(P, P2, np.array([x]), np.arange(n)[None], np.inf)[0] @ C
    return PointQuadraticForms(B, M2, P - np.eye(n))


def dumps_chain(obj) -> str:
    """Deterministic JSON, one value at a time through an isinstance chain:
    sorted keys, floats at 17 significant digits, NaN and infinities as null."""
    def render(o):
        if isinstance(o, bool) or o is None or isinstance(o, (int, str)):
            return json.dumps(o)
        if isinstance(o, float):
            if math.isnan(o) or math.isinf(o):
                return json.dumps(None)
            return format(o, ".17g")
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return render(o.item())
        if isinstance(o, np.ndarray):
            return render(o.tolist())
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: str(kv[0]))
            return "{" + ",".join(json.dumps(str(k)) + ":" + render(v) for k, v in items) + "}"
        raise TypeError(f"cannot serialize {type(o)}")
    return render(obj)


def float_array_numpy(rows, name):
    """The float64 array of a list of numbers, or of rows of them, by numpy's
    conversion of nested lists."""
    return np.array(rows, dtype=float)
