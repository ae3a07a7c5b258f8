import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mrws import Space, builders
from mrws.transport import _w1


@pytest.fixture
def p3():
    return builders.p3()


@pytest.fixture
def k3():
    return builders.k3()


@pytest.fixture
def two_block():
    return builders.two_block(0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spaces(count, rng, n_lo=2, n_hi=12, connected=True):
    return [builders.random_reversible_space(int(rng.integers(n_lo, n_hi + 1)), rng,
                                             density=float(rng.uniform(0.3, 0.9)),
                                             connected=connected,
                                             self_loops=bool(rng.random() < 0.4))
            for _ in range(count)]


def random_tree_space(n, rng, self_loops=True):
    """A reversible walk on a random tree with random edge lengths; the metric
    is the tree's path metric, so transport on it has the tree closed form."""
    parent = [int(rng.integers(v)) for v in range(1, n)]
    length = rng.uniform(0.1, 2.0, n - 1)
    weight = np.zeros((n, n))
    metric = np.zeros((n, n))
    for v, (p, ell) in enumerate(zip(parent, length), start=1):
        weight[v, p] = weight[p, v] = rng.uniform(0.1, 1.0)
        metric[v, :v] = metric[p, :v] + ell  # every earlier point is reached through p
        metric[:v, v] = metric[v, :v]
    if self_loops:
        weight[np.diag_indices(n)] = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
    deg = weight.sum(axis=1)
    return Space(tuple(range(n)), metric, weight / deg[:, None], deg)


PRUNING_KINDS = ("sparse", "dense", "explicit", "k3k3")


def pruning_space(kind, rng):
    """A small space on which the LP-free W1 bounds must never prune the
    extremum: a random graph-metric walk with a sparse or a dense kernel
    (sentinel distances when it is not connected), the same kernels under a
    Euclidean metric of random points (explicit, not a path metric), or
    K3 and K3 side by side at the sentinel distance."""
    if kind == "k3k3":
        return builders.disjoint_union(builders.k3(), builders.k3())
    n = int(rng.integers(3, 13))
    density = float(rng.uniform(0.1, 0.35) if kind == "sparse" else rng.uniform(0.6, 1.0))
    sp = builders.random_reversible_space(n, rng, density=density,
                                          connected=bool(rng.random() < 0.6),
                                          self_loops=bool(rng.random() < 0.4))
    if kind != "explicit":
        return sp
    x = rng.uniform(0.0, 1.0, (n, 2))
    metric = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    return Space(sp.labels, metric, sp.kernel, sp.measure)


def loose_w1_upper(rng):
    """A stand-in for ``transport._w1_upper``: for each row of the stacks the
    exact W1 times a random factor in [1, 1.5), an upper bound that is loose
    and ranks the costs out of order. A best-first search must find its
    extremum with any bound. ``rows`` counts the rows it has bounded, so a
    test can check that the search reached it."""
    def bound(space, A, B):
        bound.rows += len(A)
        return np.array([_w1(space, [a], [b])[0][0] * (1.0 + 0.5 * rng.random()) for a, b in zip(A, B)])

    bound.rows = 0
    return bound


def infinite_w1_upper(space, A, B):
    """A stand-in for ``transport._w1_upper`` that bounds no row: with it a
    best-first search can skip nothing."""
    return np.full(len(A), np.inf)
