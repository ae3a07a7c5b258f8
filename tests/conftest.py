import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mrws import Space, builders


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
