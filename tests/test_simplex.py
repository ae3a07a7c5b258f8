"""The transportation simplex behind every transport LP, against HiGHS, on
draws that stress ties, degenerate bases and wide cost scales."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrws import Space, builders, transport
from mrws._simplex import TOL, transportation_simplex
from mrws.transport import wasserstein

import _oracles
from conftest import random_spaces

BLOCK_KINDS = ("float", "integer", "assignment", "ties", "line", "sentinel")


def _integer_masses(rng, ni, nj):
    """Positive integer row and column sums of equal total, so the marginals
    balance exactly and partial sums can balance too (degenerate bases)."""
    a = rng.integers(1, 6, ni).astype(float)
    a[0] += max(0, nj - int(a.sum()))
    b = 1.0 + rng.multinomial(int(a.sum()) - nj, np.full(nj, 1.0 / nj))
    return a, b


def _block(kind, rng):
    """(c, a, b): a row-major cost block and positive marginals of equal mass."""
    ni, nj = (int(k) for k in rng.integers(1, 9, 2))
    if kind == "assignment":
        nj = ni
        return rng.integers(0, 3, ni * nj).astype(float), np.ones(ni), np.ones(nj)
    if kind == "line":  # a single row or a single column
        ni, nj = (1, nj) if rng.random() < 0.5 else (ni, 1)
    if kind == "float":
        a, b = rng.uniform(0.01, 1.0, ni), rng.uniform(0.01, 1.0, nj)
        b *= a.sum() / b.sum()
    else:
        a, b = _integer_masses(rng, ni, nj)
    if kind == "sentinel":  # unit-scale distances among a few at a sentinel scale
        c = np.where(rng.random(ni * nj) < 0.3, float(rng.uniform(10.0, 1e4)),
                     rng.uniform(0.0, 1.0, ni * nj))
    elif kind in ("ties", "line"):
        c = rng.integers(0, 3, ni * nj).astype(float)
    else:
        c = rng.uniform(0.0, 1.0, ni * nj)
    return c, a, b


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(BLOCK_KINDS), seed=st.integers(0, 2 ** 32 - 1))
def test_simplex_matches_highs(kind, seed):
    c, a, b = _block(kind, np.random.default_rng(seed))
    ni, nj = len(a), len(b)
    x, u, v = transportation_simplex(c, a, b)
    cost = float(c @ x)
    assert cost == pytest.approx(_oracles.transport_lp(c, a, b), rel=0, abs=1e-12 * max(1.0, cost))
    X = x.reshape(ni, nj)
    assert (x >= 0).all()
    assert np.abs(X.sum(axis=1) - a).max() <= 1e-12 * max(1.0, a.sum())
    assert np.abs(X.sum(axis=0) - b).max() <= 1e-12 * max(1.0, a.sum())
    assert np.count_nonzero(x) <= ni + nj - 1  # a basic solution
    reduced = c.reshape(ni, nj) - u[:, None] - v
    scale = max(1.0, c.max())
    assert reduced.min() >= -TOL * scale  # dual feasible
    assert np.abs(reduced[X > 0]).max(initial=0.0) <= 1e-12 * scale  # complementary slackness
    x2, u2, v2 = transportation_simplex(c, a, b)
    assert (x.tobytes(), u.tobytes(), v.tobytes()) == (x2.tobytes(), u2.tobytes(), v2.tobytes())


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1))
def test_wasserstein_matches_highs(p, seed):
    rng = np.random.default_rng(seed)
    (sp,) = random_spaces(1, rng, connected=bool(rng.random() < 0.7))
    a = rng.uniform(0.0, 1.0, sp.n) * (rng.random(sp.n) < 0.8)
    a[rng.integers(sp.n)] += 0.5
    b = sp.nu * (a.sum() / sp.nu.sum())
    plan = wasserstein(sp, a, b, p=p)
    I, J = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
    objective = _oracles.transport_lp((sp.metric ** p)[np.ix_(I, J)].ravel(), a[I], b[J])
    assert plan.cost ** p == pytest.approx(objective, rel=0, abs=1e-12 * max(1.0, objective))
    assert plan.duality_gap <= 1e-12 * max(1.0, objective)
    assert np.abs(plan.coupling.sum(axis=1) - a).max() <= 1e-12
    assert np.abs(plan.coupling.sum(axis=0) - b).max() <= 1e-12
    again = wasserstein(sp, a, b, p=p)
    assert again.coupling.tobytes() == plan.coupling.tobytes()
    assert (again.cost, again.duality_gap) == (plan.cost, plan.duality_gap)


def test_one_solve_per_lp(monkeypatch):
    calls = []
    monkeypatch.setattr(transport, "linprog", lambda c, a, b, real=transport.linprog:
                        calls.append(len(c)) or real(c, a, b))
    sp = builders.random_reversible_space(6, np.random.default_rng(1), density=0.8)
    a, b = sp.kernel[0], sp.kernel[3]
    wasserstein(sp, a, b)
    assert calls == [np.count_nonzero(a) * np.count_nonzero(b)]  # the I x J block, flat


def test_non_finite_costs_raise():
    sp = builders.k3()
    d = sp.metric.copy()
    d[0, 1] = d[1, 0] = np.inf
    sp = Space(sp.labels, d, sp.kernel, sp.measure)
    with pytest.raises(ValueError, match="finite"):
        wasserstein(sp, [0.5, 0.5, 0.0], [0.0, 0.5, 0.5])
