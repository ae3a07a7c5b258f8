"""Constructors for random walk spaces and the named test fixtures.

Four families: weighted graphs (kernel = edge weight over degree), explicit
Markov kernels (stationary measure solved for), epsilon-step walks on point
clouds, and uniform-window convolution kernels on 1-D grids with reflecting
(mass-conserving) boundary treatment.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Space, StructuralError, shortest_path_metric

__all__ = [
    "WeightedGraph",
    "PointCloud",
    "from_weighted_graph",
    "from_markov_kernel",
    "epsilon_step_from_point_cloud",
    "grid_kernel_neumann",
    "read_edge_csv",
    "read_point_csv",
    "p3",
    "k3",
    "cycle",
    "lazy_cycle",
    "linear_chain",
    "linear_chain_field",
    "two_block",
    "two_block_halves",
    "fixture",
    "random_reversible_space",
    "disjoint_union",
]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph; loops allowed, weights strictly positive."""

    vertices: tuple
    edges: tuple  # of (u, v, w)

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise StructuralError("duplicate vertex labels")
        for u, v, w in self.edges:
            if u not in seen or v not in seen:
                raise StructuralError(f"edge ({u},{v}) references unknown vertex")
            if not w > 0:
                raise StructuralError(f"edge ({u},{v}) has non-positive weight {w}")


@dataclass(frozen=True)
class PointCloud:
    """Finite set of pairwise-distinct points in R^k with positive weights."""

    points: np.ndarray  # (m, k)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if pts.shape[0] != w.shape[0]:
            raise StructuralError("points and weights must have matching length")
        if np.any(w <= 0):
            raise StructuralError("point weights must be positive")
        if len({tuple(p) for p in pts}) != len(pts):
            raise StructuralError("points must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


def _graph_weight_matrix(g: WeightedGraph) -> np.ndarray:
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    W = np.zeros((n, n))
    for u, v, w in g.edges:
        i, j = index[u], index[v]
        W[i, j] += w
        if i != j:
            W[j, i] += w
    return W


def from_weighted_graph(g: WeightedGraph) -> Space:
    """Degree-normalized walk: kernel[x][y] = w_xy / d_x, measure = degrees,
    metric = unit-length shortest paths."""
    if not g.vertices:
        raise StructuralError("graph is empty")
    W = _graph_weight_matrix(g)
    deg = W.sum(axis=1)
    if np.any(deg <= 0):
        bad = g.vertices[int(np.argmin(deg))]
        raise StructuralError(f"isolated vertex {bad!r}: jump law undefined")
    kernel = W / deg[:, None]
    metric, sentinel = shortest_path_metric(kernel)
    return Space(g.vertices, metric, kernel, deg, sentinel)


def from_markov_kernel(kernel, metric=None) -> Space:
    """Space from a row-stochastic matrix; the measure is solved for.

    The stationary vector is computed from the dense linear system with a
    normalization row appended. It must have full support and satisfy
    detailed balance, otherwise the chain does not define a reversible walk
    space and an error is raised.
    """
    P = np.array(kernel, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise StructuralError("kernel must be a square matrix")
    n = P.shape[0]
    if np.abs(P.sum(axis=1) - 1.0).max() > 1e-9 or P.min() < 0:
        raise StructuralError("kernel must be row-stochastic")

    nu = _stationary_vector(P)
    if nu is None or np.min(nu) <= 1e-14:
        raise ValueError("no invariant measure with full support")
    Q = nu[:, None] * P
    if np.abs(Q - Q.T).max() > 1e-10:
        raise ValueError("not reversible")

    sentinel = None
    if metric is None:
        metric, sentinel = shortest_path_metric(P)
    else:
        metric = np.array(metric, dtype=float)
    labels = tuple(range(n))
    return Space(labels, metric, P, nu, sentinel)


def _stationary_vector(P: np.ndarray) -> np.ndarray | None:
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    nu, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.abs(nu @ P - nu).max() > 1e-12 or abs(nu.sum() - 1.0) > 1e-12:
        return None
    return nu


def epsilon_step_from_point_cloud(pc: PointCloud, eps: float) -> Space:
    """Walk that jumps uniformly (weighted by mu) inside the open eps-ball.

    kernel[x][y] = mu_y [d(x,y) < eps] / mu(B(x, eps)), with x always in its
    own ball. The reversible measure is mu_x * mu(B(x, eps)): ball membership
    is symmetric, so nu_x k(x,y) = mu_x mu_y is symmetric too. (mu itself is
    invariant only when all ball masses coincide.)
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    pts, mu = pc.points, pc.weights
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    ball = dist < eps
    ball_mass = ball @ mu
    if np.any(ball_mass <= 0):
        raise StructuralError("a point has an empty eps-ball")
    kernel = (ball * mu[None, :]) / ball_mass[:, None]
    measure = mu * ball_mass
    labels = tuple(range(len(mu)))
    return Space(labels, dist, kernel, measure)


def grid_kernel_neumann(intervals, h: float, radius: float) -> Space:
    """Uniform-window jump kernel on a 1-D grid over disjoint closed intervals.

    Grid points at spacing h cover each interval. The raw jump weight to a
    grid point within (strict) distance `radius` is h/(2 radius); whatever
    window mass falls outside the domain is returned to the source point as a
    self-loop, so rows sum to one exactly. The measure is uniform (one cell
    per point), normalized. Metric is the explicit Euclidean distance.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if radius <= h:
        warnings.warn("radius <= grid spacing: kernel is nearly diagonal", stacklevel=2)

    ivs = [(float(a), float(b)) for a, b in intervals]
    if any(b < a for a, b in ivs):
        raise ValueError("intervals must satisfy a <= b")
    ivs.sort()
    for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
        if a1 <= b0:
            raise ValueError("intervals must be pairwise disjoint")

    xs = []
    for a, b in ivs:
        count = int(np.floor((b - a) / h + 1e-9)) + 1
        xs.extend(a + k * h for k in range(count))
    x = np.array(xs)
    n = len(x)

    dist = np.abs(x[:, None] - x[None, :])
    weight = np.where(dist < radius, h / (2.0 * radius), 0.0)
    kernel = weight.copy()
    np.fill_diagonal(kernel, 0.0)
    off = kernel.sum(axis=1)
    np.fill_diagonal(kernel, 1.0 - off)  # own-cell mass plus out-of-domain deficiency

    measure = np.full(n, 1.0 / n)
    labels = tuple(float(v) for v in x)
    return Space(labels, dist, kernel, measure)


# ---------------------------------------------------------------------------
# CSV ingestion


def read_edge_csv(path) -> WeightedGraph:
    """Edge list lines "u,v,w"; duplicate undirected edges are summed."""
    vertices: list = []
    seen = set()
    acc: dict = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or (row[0].strip().startswith("#")):
                continue
            if len(row) != 3:
                raise StructuralError(f"edge rows need 3 fields, got {row!r}")
            u, v, w = row[0].strip(), row[1].strip(), float(row[2])
            for lab in (u, v):
                if lab not in seen:
                    seen.add(lab)
                    vertices.append(lab)
            key = (u, v) if u <= v else (v, u)
            acc[key] = acc.get(key, 0.0) + w
    edges = tuple((u, v, w) for (u, v), w in acc.items())
    return WeightedGraph(tuple(vertices), edges)


def read_point_csv(path) -> PointCloud:
    """Point rows "x1,...,xk,mu"."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            rows.append([float(v) for v in row])
    if not rows:
        raise StructuralError("point cloud file is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width < 2:
        raise StructuralError("point rows must all be x1,...,xk,mu")
    arr = np.array(rows)
    return PointCloud(arr[:, :-1], arr[:, -1])


# ---------------------------------------------------------------------------
# named fixtures


def p3() -> Space:
    """Path graph a-b-c with unit weights."""
    return from_weighted_graph(WeightedGraph(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0))))


def k3() -> Space:
    """Triangle with unit weights."""
    g = WeightedGraph(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)))
    return from_weighted_graph(g)


def cycle(n: int) -> Space:
    """Simple walk on the n-cycle."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    verts = tuple(range(n))
    edges = tuple((i, (i + 1) % n, 1.0) for i in range(n))
    return from_weighted_graph(WeightedGraph(verts, edges))


def lazy_cycle(n: int, alpha: float = 0.5) -> Space:
    """n-cycle walk that stays put with probability alpha."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must be in [0, 1)")
    verts = tuple(range(n))
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    if alpha > 0:
        loop = 2.0 * alpha / (1.0 - alpha)  # loop weight giving stay-probability alpha
        edges += [(i, i, loop) for i in range(n)]
    return from_weighted_graph(WeightedGraph(verts, tuple(edges)))


def linear_chain(n_blocks: int) -> Space:
    """Weighted chain whose spectral gap collapses as it grows.

    Vertices x_3 .. x_{3N+3}; block n >= 1 carries weights 1/n^3, 1/n^2,
    1/n^3 on its three consecutive edges. The field equal to n on the middle
    pair of block n and 0 elsewhere has Dirichlet energy 2/n under the raw
    degree measure while its variance stays of order one.
    """
    if n_blocks < 1:
        raise ValueError("need at least one block")
    verts = tuple(f"x{k}" for k in range(3, 3 * n_blocks + 4))
    edges = []
    for n in range(1, n_blocks + 1):
        edges.append((f"x{3 * n}", f"x{3 * n + 1}", 1.0 / n ** 3))
        edges.append((f"x{3 * n + 1}", f"x{3 * n + 2}", 1.0 / n ** 2))
        edges.append((f"x{3 * n + 2}", f"x{3 * n + 3}", 1.0 / n ** 3))
    return from_weighted_graph(WeightedGraph(verts, tuple(edges)))


def linear_chain_field(space: Space, n: int) -> np.ndarray:
    """The bump field of block n: value n on x_{3n+1}, x_{3n+2}, else 0."""
    v = np.zeros(space.n)
    for lab in (f"x{3 * n + 1}", f"x{3 * n + 2}"):
        v[space.index(lab)] = float(n)
    return v


def two_block(h: float = 0.1) -> Space:
    """Uniform-window kernel on [-1,0] u [2,3] with window radius 1.

    The gap between the intervals exceeds the window radius, so the two
    blocks never exchange mass: the canonical disconnected fixture.
    """
    return grid_kernel_neumann([(-1.0, 0.0), (2.0, 3.0)], h=h, radius=1.0)


def two_block_halves(space: Space) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the two intervals of a two_block space."""
    x = np.array(space.labels, dtype=float)
    left = x <= 0.5
    return left, ~left


_FIXTURES = {
    "P3": p3,
    "K3": k3,
    "Cycle": cycle,
    "LazyCycle": lazy_cycle,
    "LinearChain": linear_chain,
    "TwoBlock": two_block,
}


def fixture(name: str) -> Space:
    """Resolve a fixture by registry name, e.g. "P3" or "Cycle(6)" or
    "LazyCycle(6,0.5)"."""
    name = name.strip()
    if "(" in name:
        base, rest = name.split("(", 1)
        if not rest.endswith(")"):
            raise StructuralError(f"malformed fixture name {name!r}")
        args = [float(a) for a in rest[:-1].split(",") if a.strip()]
    else:
        base, args = name, []
    base = base.strip()
    if base not in _FIXTURES:
        raise StructuralError(f"unknown fixture {base!r} (have {sorted(_FIXTURES)})")
    return _FIXTURES[base](*(int(a) if float(a).is_integer() else a for a in args))


# ---------------------------------------------------------------------------
# randomized instances for property suites


def random_reversible_space(n: int, rng: np.random.Generator, density: float = 0.6,
                            connected: bool = True, self_loops: bool = False) -> Space:
    """Sample a reversible space from a random symmetric weight matrix.

    Kernel rows are the normalized weights and the measure is the weight row
    sum, so detailed balance holds by construction. With ``connected`` a
    random spanning tree is forced into the support.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    W = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    mask = rng.random(len(iu[0])) < density
    vals = rng.uniform(0.2, 1.0, len(iu[0])) * mask
    W[iu] = vals
    W += W.T
    if self_loops:
        W[np.diag_indices(n)] = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
    if connected and n > 1:
        order = rng.permutation(n)
        for a, b in zip(order, order[1:]):
            if W[a, b] == 0:
                w = rng.uniform(0.2, 1.0)
                W[a, b] = W[b, a] = w
    deg = W.sum(axis=1)
    for i in np.flatnonzero(deg == 0):  # isolated points keep a self-loop
        W[i, i] = 1.0
    deg = W.sum(axis=1)
    kernel = W / deg[:, None]
    metric, sentinel = shortest_path_metric(kernel)
    return Space(tuple(range(n)), metric, kernel, deg, sentinel)


def disjoint_union(a: Space, b: Space) -> Space:
    """Side-by-side union with zero cross-kernel and sentinel cross-distances."""
    n = a.n + b.n
    kernel = np.zeros((n, n))
    kernel[: a.n, : a.n] = a.kernel
    kernel[a.n :, a.n :] = b.kernel
    finite = [a.metric[a.metric < (a.metric_sentinel or np.inf)].max() if a.n > 1 else 1.0,
              b.metric[b.metric < (b.metric_sentinel or np.inf)].max() if b.n > 1 else 1.0]
    sentinel = n * max(1.0, *finite)
    metric = np.full((n, n), sentinel)
    metric[: a.n, : a.n] = a.metric
    metric[a.n :, a.n :] = b.metric
    measure = np.concatenate([a.measure, b.measure])
    labels = tuple((0, l) for l in a.labels) + tuple((1, l) for l in b.labels)
    return Space(labels, metric, kernel, measure, sentinel)
