import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrws import (
    HypothesisError,
    Subset,
    divergences,
    random_density,
    transport_stats,
    verify_transport_inequality,
    wasserstein,
)
from mrws import Space, curvature, transport
from mrws.builders import disjoint_union, grid_kernel_neumann, lazy_cycle, random_reversible_space, two_block_halves
from mrws.transport import GEODESIC_RTOL, KINDS, _best_first, _closed_form, _tree, _w1, _w1_upper

import _oracles
from conftest import PRUNING_KINDS, infinite_w1_upper, loose_w1_upper, pruning_space, random_spaces, random_tree_space


def test_identical_marginals_give_diagonal_plan(p3, rng, monkeypatch):
    # no shortcut: the greedy start fills the zero-cost diagonal first, so the
    # one LP ends on the diagonal coupling with cost and gap exactly 0
    lps = []
    monkeypatch.setattr(transport, "linprog", lambda *a, real=transport.linprog: lps.append(1) or real(*a))
    cases = [(p3, p3.nu)]
    for _ in range(20):
        sp = random_reversible_space(int(rng.integers(3, 41)), rng, density=float(rng.uniform(0.2, 0.9)))
        a = rng.random(sp.n) * (rng.random(sp.n) < rng.uniform(0.2, 1.0))
        a[rng.integers(sp.n)] += 0.5  # positive mass
        cases.append((sp, a))
    for sp, a in cases:
        for p in (1, 2):
            lps.clear()
            plan = wasserstein(sp, a, a, p=p)
            assert plan.cost == 0.0
            np.testing.assert_array_equal(plan.coupling, np.diag(a))
            assert plan.duality_gap == 0.0
            assert len(lps) == 1


def test_p3_dirac_to_stationary(p3):
    mu = np.array([1.0, 0.0, 0.0])
    plan = wasserstein(p3, mu, p3.nu)
    # move 1/2 to b at distance 1 and 1/4 to c at distance 2
    assert plan.cost == pytest.approx(1.0, abs=1e-12)
    assert plan.duality_gap <= 1e-9 * (1 + plan.cost)


def test_p3_between_jump_laws(p3):
    plan = wasserstein(p3, p3.kernel[0], p3.kernel[1])
    assert plan.cost == pytest.approx(1.0, abs=1e-12)


def test_marginals_are_respected(rng):
    for sp in random_spaces(10, rng, connected=False):
        a = rng.uniform(0, 1, sp.n)
        b = rng.uniform(0, 1, sp.n)
        a /= a.sum()
        b /= b.sum()
        for p in (1, 2):
            plan = wasserstein(sp, a, b, p=p)
            np.testing.assert_allclose(plan.coupling.sum(axis=1), a, atol=1e-10)
            np.testing.assert_allclose(plan.coupling.sum(axis=0), b, atol=1e-10)
            assert plan.coupling.min() >= 0
            assert plan.duality_gap <= 1e-9 * (1 + plan.cost)


def test_dual_potential_is_lipschitz(rng):
    for sp in random_spaces(10, rng):
        a, b = rng.uniform(0, 1, sp.n), rng.uniform(0, 1, sp.n)
        a /= a.sum()
        b /= b.sum()
        plan = wasserstein(sp, a, b, p=1)
        u, d = plan.dual_u, sp.metric
        slack = np.abs(u[:, None] - u[None, :]) - d
        assert slack.max() <= 1e-9
        # flat dual form reproduces the primal cost
        assert float(u @ (a - b)) == pytest.approx(plan.cost, abs=1e-9 * (1 + plan.cost))


def test_w1_metric_axioms(rng):
    for sp in random_spaces(10, rng, n_hi=8):
        for _ in range(10):
            ds = [rng.uniform(0, 1, sp.n) for _ in range(3)]
            ds = [d / d.sum() for d in ds]
            w = lambda x, y: wasserstein(sp, x, y).cost
            assert w(ds[0], ds[0]) == 0.0
            assert w(ds[0], ds[1]) == pytest.approx(w(ds[1], ds[0]), abs=1e-10)
            assert w(ds[0], ds[2]) <= w(ds[0], ds[1]) + w(ds[1], ds[2]) + 1e-9


def test_against_bruteforce_oracle(rng):
    for sp in random_spaces(8, rng, n_hi=5):
        a = rng.uniform(0, 1, sp.n) * (rng.random(sp.n) < 0.8)
        b = rng.uniform(0, 1, sp.n) * (rng.random(sp.n) < 0.8)
        if a.sum() == 0 or b.sum() == 0:
            continue
        a /= a.sum()
        b /= b.sum()
        cost = wasserstein(sp, a, b).cost
        assert cost == pytest.approx(_oracles.w1_bruteforce(a, b, sp.metric), abs=1e-9)


def test_w2_root_and_monotonicity(p3):
    mu = np.array([1.0, 0.0, 0.0])
    plan2 = wasserstein(p3, mu, p3.nu, p=2)
    # forced coupling: W2^2 = 1/2 * 1 + 1/4 * 4
    assert plan2.cost == pytest.approx(np.sqrt(1.5), abs=1e-12)
    assert wasserstein(p3, mu, p3.nu, p=1).cost <= plan2.cost + 1e-12


def test_mass_and_sign_errors(p3):
    with pytest.raises(ValueError, match="imbalance"):
        wasserstein(p3, [1.0, 0, 0], [0.5, 0.2, 0.2])
    with pytest.raises(ValueError, match="nonnegative"):
        wasserstein(p3, [-0.5, 1.0, 0.5], p3.nu)


# ---------------------------------------------------------------------------
# local statistics


def test_p3_theta_and_jump(p3):
    stats = transport_stats(p3)
    np.testing.assert_allclose(stats.theta, 0.5, atol=0)
    assert stats.theta_m == 0.5
    np.testing.assert_allclose(stats.jump, 1.0, atol=0)


def test_one_point_theta():
    from mrws import Space

    sp = Space(("o",), np.zeros((1, 1)), np.ones((1, 1)), np.ones(1))
    assert transport_stats(sp).theta_m == 0.0


def test_two_block_theta_bounded(two_block):
    assert transport_stats(two_block).theta_m <= 0.5


def test_theta_equals_forced_transport(rng):
    for sp in random_spaces(5, rng):
        stats = transport_stats(sp)
        for x in range(sp.n):
            delta = np.zeros(sp.n)
            delta[x] = 1.0
            w2 = wasserstein(sp, delta, sp.kernel[x], p=2).cost
            assert stats.theta[x] == pytest.approx(0.5 * w2 ** 2, abs=1e-10)
            w1 = wasserstein(sp, delta, sp.kernel[x], p=1).cost
            assert stats.jump[x] == pytest.approx(w1, abs=1e-10)


def test_loop_free_graph_theta_is_half_jump(k3):
    stats = transport_stats(k3)
    np.testing.assert_allclose(stats.theta, 0.5 * stats.jump, atol=1e-15)
    assert stats.theta_m <= 0.5


# ---------------------------------------------------------------------------
# divergences


def test_uniform_density_has_zero_divergences(p3):
    ds = divergences(p3, np.ones(3))
    assert ds.entropy == 0.0
    assert ds.fisher == 0.0


def test_p3_point_mass_divergences(p3):
    f = np.array([4.0, 0.0, 0.0])  # chi_a / nu(a)
    ds = divergences(p3, f)
    assert ds.fisher == pytest.approx(2.0, abs=1e-12)
    assert ds.entropy == pytest.approx(np.log(4.0), abs=1e-12)


def test_divergences_input_validation(p3):
    with pytest.raises(ValueError):
        divergences(p3, [-1.0, 4.0, 1.0])
    with pytest.raises(ValueError):
        divergences(p3, [1.0, 1.0, 2.0])  # integrates to 5/4


def test_divergences_positive_unless_uniform(rng):
    for sp in random_spaces(10, rng):
        f = random_density(sp, rng)
        ds = divergences(sp, f)
        if np.abs(f - 1.0).max() > 1e-12:
            assert ds.entropy > 0
            assert ds.fisher >= 0
        else:
            assert ds.entropy == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# transport inequalities


def test_ti_ollivier_on_k3(k3):
    assert verify_transport_inequality(k3, "ti_ollivier", trials=200, rng=1) <= 1.0 + 1e-9


def test_ti_be_on_p3(p3):
    assert verify_transport_inequality(p3, "ti_be", trials=200, rng=2) <= 1.0 + 1e-9


def test_te_on_p3_and_k3(p3, k3):
    assert verify_transport_inequality(p3, "te", trials=100, rng=3) <= 1.0 + 1e-9
    assert verify_transport_inequality(k3, "te", trials=100, rng=3) <= 1.0 + 1e-9


def test_uniform_density_scores_zero(p3):
    nu = p3.nu
    lhs = wasserstein(p3, nu * 1.0, nu).cost
    assert lhs == 0.0


def test_hypothesis_failures_are_reported(p3, two_block):
    with pytest.raises(HypothesisError, match="Ricci"):
        verify_transport_inequality(p3, "ti_ollivier", trials=1)  # kappa = 0 on the path
    with pytest.raises(HypothesisError, match="Ricci"):
        verify_transport_inequality(two_block, "ti_ollivier", trials=1)


def test_verifier_rejects_a_trial_count_below_one(k3, two_block):
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            verify_transport_inequality(k3, "ti_ollivier", trials=trials)
    # before the kind and the curvature hypotheses are checked
    with pytest.raises(ValueError, match="trials"):
        verify_transport_inequality(k3, "bogus", trials=0)
    with pytest.raises(ValueError, match="trials"):
        verify_transport_inequality(two_block, "ti_ollivier", trials=0)


def test_ti_ollivier_skipped_above_all_pairs_limit():
    grid = grid_kernel_neumann([(0.0, 1.0)], h=1 / 300, radius=0.005)
    assert grid.n == 301  # one more than ALL_PAIRS_LIMIT
    # the square root of a metric is a metric, but no longer a path metric
    snowflake = Space(grid.labels, np.sqrt(grid.metric), grid.kernel, grid.measure)
    with pytest.raises(HypothesisError, match="all pairs"):
        verify_transport_inequality(snowflake, "ti_ollivier", trials=1)


def test_ti_ollivier_runs_above_all_pairs_limit_on_geodesic_metric(monkeypatch):
    monkeypatch.setattr(curvature, "ALL_PAIRS_LIMIT", 4)  # 5 points; a budget of 6 pair LPs
    cyc = lazy_cycle(5, 0.5)  # 5 needed pairs, the edges
    assert verify_transport_inequality(cyc, "ti_ollivier", trials=20, rng=1) <= 1.0 + 1e-9


def test_verifiers_solve_each_w1_once(k3, monkeypatch):
    fresh = {kind: verify_transport_inequality(Space(k3.labels, k3.metric, k3.kernel, k3.measure),
                                               kind, trials=20, rng=0)
             for kind in ("ti_be", "ti_ollivier", "te")}
    curvature.kappa_global(k3)  # the pair W1 of ti_ollivier, outside the count
    calls, bounds, divs = [], [], []
    for mod in (transport, curvature):
        monkeypatch.setattr(mod, "_w1", lambda *a, real=mod._w1: calls.append(1) or real(*a))
    monkeypatch.setattr(transport, "_w1_upper",
                        lambda sp, A, B, real=transport._w1_upper: bounds.append(len(A)) or real(sp, A, B))
    monkeypatch.setattr(transport, "divergences",
                        lambda *a, real=transport.divergences: divs.append(1) or real(*a))
    assert verify_transport_inequality(k3, "ti_be", trials=20, rng=0) == fresh["ti_be"]
    # the 20 draws hold 16 distinct densities; every one is bounded, in one
    # stacked call, one is solved exactly, and the bounds of the other 15 fall
    # below its ratio
    assert bounds == [16]
    assert len(calls) == 1
    # the same seed draws the same densities, so the other two kinds reuse every
    # bound, and the density each needs solved is the one already solved
    assert verify_transport_inequality(k3, "ti_ollivier", trials=20, rng=0) == fresh["ti_ollivier"]
    assert verify_transport_inequality(k3, "te", trials=20, rng=0) == fresh["te"]
    assert (len(calls), bounds) == (1, [16])
    # each density's divergences are kept in its record with its bound
    assert len(divs) == 16


def test_verifier_exposes_failure_on_disconnected_space(two_block):
    # the curvature-dimension constant is pointwise and stays positive on the
    # two-block space, yet the information inequality is false there: the
    # verifier must surface a violating density rather than certify it
    assert verify_transport_inequality(two_block, "ti_be", trials=2, rng=0) == np.inf
    assert verify_transport_inequality(two_block, "te", trials=2, rng=0) > 1.0


def test_two_block_defeats_any_information_constant(two_block):
    # the block indicator has zero information but positive transport cost,
    # so W1 <= C sqrt(I) fails for every finite C
    left, _ = two_block_halves(two_block)
    f = left.astype(float)
    f /= float(two_block.nu @ f)
    ds = divergences(two_block, f)
    assert ds.fisher == 0.0
    w1 = wasserstein(two_block, f * two_block.nu, two_block.nu).cost
    assert w1 > 0.5
    for c in (1.0, 1e3, 1e9):
        assert w1 > c * np.sqrt(ds.fisher)  # ratio is +inf
    # while the entropy side stays finite and positive
    assert ds.entropy > 0


def test_ti_be_is_nearly_sharp_on_p3(p3):
    # exponential tilts of the slow mode push the ratio close to one
    nu = p3.nu
    worst = 0.0
    for lam in np.linspace(0.2, 3.0, 15):
        g = np.exp(lam * np.array([1.0, 0.0, -1.0]))
        g /= float(nu @ g)
        lhs = wasserstein(p3, g * nu, nu).cost
        rhs = np.sqrt(2.0 * transport_stats(p3).theta_m) * np.sqrt(divergences(p3, g).fisher)
        worst = max(worst, lhs / rhs)
    assert worst <= 1.0 + 1e-9
    assert worst > 0.99


def test_marginal_constraints_match_loop_construction():
    for ni, nj in ((3, 5), (5, 3), (1, 4), (4, 1), (1, 1)):
        rows, cols = [], []
        for r in range(ni):
            rows.extend([r] * nj)
            cols.extend(range(r * nj, (r + 1) * nj))
        for c in range(nj):
            rows.extend([ni + c] * ni)
            cols.extend(range(c, ni * nj, nj))
        A = _oracles.marginal_constraints(ni, nj)
        assert A.shape == (ni + nj, ni * nj)
        np.testing.assert_array_equal(A.row, rows)
        np.testing.assert_array_equal(A.col, cols)
        np.testing.assert_array_equal(A.data, np.ones(2 * ni * nj))


# ---------------------------------------------------------------------------
# closed-form W1: point masses and tree metrics, against the LP


def _random_marginals(rng, n):
    """Two equal-mass vectors with random supports and non-uniform masses."""
    a, b = (rng.uniform(0, 1, n) * (rng.random(n) < 0.7) for _ in "ab")
    a[rng.integers(n)] += 0.5  # neither is zero
    b[rng.integers(n)] += 0.5
    return a, b * (a.sum() / b.sum())


def _line_space(x, radius):
    """Uniform-window walk on points x of a line with explicit distances."""
    d = np.abs(x[:, None] - x[None, :])
    k = (d <= radius).astype(float)
    return Space(tuple(range(x.size)), d, k / k.sum(axis=1)[:, None], k.sum(axis=1))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["tree", "grid", "line"]), n=st.integers(2, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tree_closed_form_matches_the_lp(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "tree":
        sp = random_tree_space(n, rng, self_loops=bool(rng.random() < 0.5))
    elif kind == "grid":
        h = 1.0 / (n - 1)
        sp = grid_kernel_neumann([(0.0, 1.0)], h=h, radius=float(rng.uniform(1.05, 4.0)) * h)
    else:  # uneven spacing; every window reaches the next point
        x = np.cumsum(rng.uniform(0.1, 1.0, n))
        sp = _line_space(x, float(np.diff(x).max(initial=0.0)) * rng.uniform(1.0, 3.0))
    assert _tree(sp) is not None
    for _ in range(5):
        a, b = _random_marginals(rng, sp.n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport, "linprog", None)  # the closed form solves no LP
            (cost,), (gap,) = _w1(sp, [a], [b])
        assert cost == pytest.approx(wasserstein(sp, a, b).cost, abs=1e-12)
        assert gap <= 1e-12


def test_tree_potential_is_a_lipschitz_certificate(rng):
    for _ in range(5):
        sp = random_tree_space(int(rng.integers(2, 20)), rng)
        below, w = _tree(sp)
        a, b = _random_marginals(rng, sp.n)
        s = (a - b) @ below
        u = below @ (w * np.sign(s))
        assert (np.abs(u[:, None] - u[None, :]) <= sp.metric * (1 + 1e-12)).all()
        assert float((a - b) @ u) == pytest.approx(_w1(sp, [a], [b])[0][0], abs=1e-12)


def _tree_draw(kind, rng):
    """A random tree space, a ``pruning_space``, a random graph-metric space,
    a grid over one or two intervals, or two of these side by side."""
    if kind == "tree":
        return random_tree_space(int(rng.integers(2, 30)), rng, self_loops=bool(rng.random() < 0.5))
    if kind in PRUNING_KINDS:
        return pruning_space(kind, rng)
    if kind == "graph":
        return random_reversible_space(int(rng.integers(2, 20)), rng, density=float(rng.uniform(0.05, 0.9)),
                                       connected=bool(rng.random() < 0.7), self_loops=bool(rng.random() < 0.4))
    if kind == "grid":
        h = 1.0 / int(rng.integers(1, 12))
        intervals = [(0.0, 1.0), (2.0, 3.0)][:int(rng.integers(1, 3))]
        return grid_kernel_neumann(intervals, h=h, radius=float(rng.uniform(1.05, 3.0)) * h)
    return disjoint_union(*(_tree_draw(str(rng.choice(["tree", "graph", "grid"])), rng) for _ in "ab"))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("tree", "graph", "grid", "union") + PRUNING_KINDS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tree_keeps_every_support_tree_bit_for_bit(kind, seed):
    # wherever the support-MST oracle finds a tree, _tree finds the same one;
    # where only _tree finds one, its path lengths are the metric and some
    # tree edge is no support edge
    sp = _tree_draw(kind, np.random.default_rng(seed))
    tree, oracle = _tree(sp), _oracles.tree_support_mst(sp)
    if oracle is not None:
        assert tree is not None
        assert [x.tobytes() for x in tree] == [x.tobytes() for x in oracle]
    elif tree is not None:
        below, w = tree
        path = np.abs(below[:, None, :] - below[None, :, :]) @ w  # the edges that separate u and v
        assert (np.abs(path - sp.metric) <= GEODESIC_RTOL * path).all()
        ancestors = below.sum(axis=1)
        parent = [int(np.argmax(below[c] * ancestors * (np.arange(sp.n) != c))) for c in range(1, sp.n)]
        support = (sp.kernel > 0) | (sp.kernel.T > 0)
        assert not all(support[c, p] for c, p in enumerate(parent, start=1))


def test_tree_rejects_an_infinite_distance(p3):
    # d(a, c) = inf in the root's row, d(b, c) = inf off it, and d(c, b) =
    # inf alone: no tree, and no warning on the way. On the first two the rows
    # then go to the LP, which refuses infinite costs
    for pairs in (((0, 2), (2, 0)), ((1, 2), (2, 1)), ((2, 1),)):
        d = p3.metric.copy()
        d[tuple(zip(*pairs))] = np.inf
        sp = Space(p3.labels, d, p3.kernel, p3.measure)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _tree(sp) is None
        if len(pairs) == 2:
            with pytest.raises(ValueError, match="transport costs must be finite"):
                _w1(sp, [[0.9, 0.1, 0.0]], [[0.0, 0.1, 0.9]])


def test_point_mass_closed_form_matches_the_lp(rng, monkeypatch):
    lps = []
    monkeypatch.setattr(transport, "linprog", lambda *a, real=transport.linprog, **kw:
                        lps.append(1) or real(*a, **kw))
    for sp in random_spaces(8, rng):
        x = int(rng.integers(sp.n))
        delta = np.zeros(sp.n)
        delta[x] = 1.0
        for mu, nu2 in ((delta, sp.kernel[(x + 1) % sp.n]), (sp.nu, delta)):
            (cost,), (gap,) = _w1(sp, [mu], [nu2])
            assert gap == 0.0
            assert not lps
            assert cost == pytest.approx(wasserstein(sp, mu, nu2).cost, abs=1e-12)
            lps.clear()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(PRUNING_KINDS + ("tree",)), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_w1_rows_are_their_one_row_stacks(kind, seed):
    # zero rows, point masses both ways, and rows of the tree closed form or
    # of the LP, shuffled: each row's cost and gap must have the bits of the
    # row solved alone, and only the rows without a closed form solve an LP
    rng = np.random.default_rng(seed)
    if kind == "tree":
        sp = random_tree_space(int(rng.integers(2, 20)), rng, self_loops=bool(rng.random() < 0.5))
    else:
        sp = pruning_space(kind, rng)
    delta = np.zeros(sp.n)
    delta[rng.integers(sp.n)] = 1.0
    cases = [(np.zeros(sp.n), np.zeros(sp.n))] * 2 + [_random_marginals(rng, sp.n) for _ in range(4)]
    cases += [(delta, sp.kernel[rng.integers(sp.n)]), (sp.nu, delta)]
    cases = [cases[k] for k in rng.permutation(len(cases))]
    lps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "linprog", lambda *a, real=transport.linprog, **kw:
                   lps.append(1) or real(*a, **kw))
        cost, gap = _w1(sp, *_stacks(cases))
    assert len(lps) == sum(a.any() and _closed_form(sp, a, b) is None for a, b in cases)
    alone = [_w1(sp, [a], [b]) for a, b in cases]
    assert [c.hex() for c in cost.tolist()] == [c[0].item().hex() for c, _ in alone]
    assert [g.hex() for g in gap.tolist()] == [g[0].item().hex() for _, g in alone]


def test_w1_dispatch_keeps_the_input_checks(p3):
    with pytest.raises(ValueError, match="mass imbalance"):
        _w1(p3, [[1.0, 0, 0]], [[0.5, 0.2, 0.2]])
    with pytest.raises(ValueError, match="nonnegative"):
        _w1(p3, [[-0.5, 1.0, 0.5]], [p3.nu])
    for check in (lambda sp, a, b: _w1(sp, [a], [b]), wasserstein):  # a positive mass within 1e-12 of zero
        with pytest.raises(ValueError, match="mass imbalance"):
            check(p3, [1e-13, 0, 0], np.zeros(3))
    assert [x.tolist() for x in _w1(p3, np.zeros((1, 3)), np.zeros((1, 3)))] == [[0.0], [0.0]]


# ---------------------------------------------------------------------------
# LP-free W1 bounds, and the best-first maxima they prune


def _bound_cases(sp, rng):
    """Marginal pairs of the kinds the searches bound: jump laws of two
    points, a density's measure against the stationary one, random vectors."""
    i, j = rng.choice(sp.n, 2, replace=False)
    f = random_density(sp, rng)
    return [(sp.kernel[i], sp.kernel[j]), (f * sp.nu, sp.nu), _random_marginals(rng, sp.n)]


def _stacks(cases):
    return np.array([a for a, _ in cases]), np.array([b for _, b in cases])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(PRUNING_KINDS), seed=st.integers(0, 2 ** 32 - 1))
@example(kind="explicit", seed=2298)  # HiGHS left gaps up to 6.7e-8 here, and a cost 6.2e-9 above its bound
@example(kind="explicit", seed=162517)  # HiGHS: a gap of 8e-11, and a cost 4.8e-12 above its bound
def test_w1_upper_bounds_the_lp(kind, seed):
    # the bound is the cost of a feasible coupling, so it bounds W1 itself; the
    # LP's cost is certified to within its duality gap, which must stay far
    # below the best-first margin PRUNE_RTOL, so that the bound, checked
    # against the certified lower end of that interval, clears the cost too
    rng = np.random.default_rng(seed)
    sp = pruning_space(kind, rng)
    cases = [case for _ in range(3) for case in _bound_cases(sp, rng)]
    bounds = _w1_upper(sp, *_stacks(cases))
    assert bounds.shape == (len(cases),)
    for ub, (a, b) in zip(bounds, cases):
        plan = wasserstein(sp, a, b)
        assert ub >= plan.cost - plan.duality_gap - 1e-12
        assert plan.duality_gap <= 1e-12 * max(1.0, plan.cost)
        assert ub >= plan.cost - 1e-12 * max(1.0, plan.cost)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(PRUNING_KINDS), seed=st.integers(0, 2 ** 32 - 1),
       pairs=st.integers(1, 12))
def test_w1_upper_is_the_scalar_greedy_to_the_bit(kind, seed, pairs):
    # the lock-step greedy must do each row's float operations in the scalar
    # loop's order: PRUNE_RTOL covers the greedy's rounding, not a reordering
    rng = np.random.default_rng(seed)
    sp = pruning_space(kind, rng)
    cases = [case for _ in range(pairs) for case in _bound_cases(sp, rng)]
    cases = [cases[k] for k in rng.permutation(len(cases))]
    bounds = _w1_upper(sp, *_stacks(cases)).tolist()
    assert bounds == [_oracles.w1_upper_scalar(sp, a, b) for a, b in cases]
    # and a row's bound does not depend on the rows stacked with it, so a
    # stack run in passes of a few rows gives the same bounds
    assert bounds[:1] == _w1_upper(sp, *_stacks(cases[:1])).tolist()
    passes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_BLOCK_CELLS", 2 * sp.n ** 2)
        mp.setattr(transport, "_greedy_costs", lambda metric, supply, demand, real=transport._greedy_costs:
                   passes.append(len(supply)) or real(metric, supply, demand))
        assert _w1_upper(sp, *_stacks(cases)).tolist() == bounds
    assert max(passes, default=0) <= 2


def test_w1_upper_through_cells_of_infinite_cost():
    # an explicit metric with infinite distances: the greedy must still move
    # the mass that only such a cell can take, like the scalar loop
    metric = np.array([[0.0, 1.0, np.inf, np.inf],
                       [1.0, 0.0, np.inf, np.inf],
                       [np.inf, np.inf, 0.0, 2.0],
                       [np.inf, np.inf, 2.0, 0.0]])
    sp = Space(tuple("abcd"), metric, np.full((4, 4), 0.25), np.ones(4))
    cases = [([0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]),  # finite cells suffice
             ([0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5]),  # a crosses to the other block
             ([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5])]
    bounds = _w1_upper(sp, *_stacks(cases)).tolist()
    assert bounds == [_oracles.w1_upper_scalar(sp, a, b) for a, b in cases] == [1.5, math.inf, math.inf]


def test_w1_upper_edge_rows(k3, monkeypatch):
    monkeypatch.setattr(transport, "linprog", None)  # no row here needs an LP
    empty = _w1_upper(k3, np.zeros((0, 3)), np.zeros((0, 3)))
    assert empty.shape == (0,)
    # zero mass, equal marginals (an empty residual), and the two together in
    # a stack that needs no greedy step at all
    zero, same = (np.zeros(3), np.zeros(3)), (k3.kernel[0], k3.kernel[0].copy())
    assert _w1_upper(k3, *_stacks([zero, same, zero])).tolist() == [0.0, 0.0, 0.0]
    # two points with the same jump law have an empty residual between them
    sp = Space(tuple("abc"), k3.metric, np.full((3, 3), 1 / 3), np.ones(3))
    assert _w1_upper(sp, sp.kernel[[0, 1]], sp.kernel[[2, 2]]).tolist() == [0.0, 0.0]
    # an a >= b row whose rescaling leaves demand only: nothing to move
    a = np.array([0.5, 0.25, 0.25])
    rows = _w1_upper(k3, *_stacks([(a, a * (1 + 1e-15)), (a * (1 + 1e-15), a)]))
    assert rows.tolist() == [_oracles.w1_upper_scalar(k3, a, a * (1 + 1e-15)),
                             _oracles.w1_upper_scalar(k3, a * (1 + 1e-15), a)]


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(PRUNING_KINDS + ("tree",)), seed=st.integers(0, 2 ** 32 - 1))
def test_w1_upper_is_the_closed_form_where_there_is_one(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "tree":
        sp = random_tree_space(int(rng.integers(2, 20)), rng, self_loops=bool(rng.random() < 0.5))
        cases = [_random_marginals(rng, sp.n) for _ in range(5)]
    else:
        sp = pruning_space(kind, rng)
        cases = []
    delta = np.zeros(sp.n)
    delta[rng.integers(sp.n)] = 1.0
    cases += [(delta, sp.kernel[rng.integers(sp.n)]), (sp.nu, delta), (np.zeros(sp.n), np.zeros(sp.n))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "linprog", None)  # every row here has a closed form
        bounds = _w1_upper(sp, *_stacks(cases)).tolist()
        assert bounds == [_w1(sp, [a], [b])[0][0] for a, b in cases]


def test_w1_upper_checks_each_row(p3):
    good = (p3.nu, p3.kernel[0])
    # the first failing row raises, with the message of the single-pair check
    for bad, message in ((([1.0, 0, 0], [0.5, 0.2, 0.2]), "mass imbalance: 1.0 vs 0.8999"),
                         (([-0.5, 1.0, 0.5], p3.nu), "nonnegative"),
                         (([1e-13, 0, 0], np.zeros(3)), "mass imbalance: 1e-13 vs 0.0")):
        with pytest.raises(ValueError, match=message) as single:
            _oracles.w1_upper_scalar(p3, *bad)
        for stacked_w1 in (_w1_upper, _w1):
            with pytest.raises(ValueError) as stacked:
                stacked_w1(p3, *_stacks([good, bad, good]))
            assert str(stacked.value) == str(single.value)
    for stacked_w1 in (_w1_upper, _w1):
        with pytest.raises(ValueError, match="nonnegative"):  # row 1 is checked before row 2
            stacked_w1(p3, *_stacks([good, ([-0.5, 1.0, 0.5], p3.nu), ([1.0, 0, 0], [0.5, 0.2, 0.2])]))
        with pytest.raises(ValueError, match="stacks"):  # one pair per row, in two stacks of one shape
            stacked_w1(p3, p3.nu, p3.kernel[0])
        with pytest.raises(ValueError, match="stacks"):
            stacked_w1(p3, p3.kernel, p3.kernel[:2])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.5, -0.5, math.inf]),
                                 st.floats(-10.0, 10.0)), max_size=12),
       low=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(values=[], low=False, seed=0)
def test_best_first_is_the_exhaustive_maximum(values, low, seed):
    # bounds that reorder the values (each scaled up by a factor in [1, 1.5)),
    # or that undercut them by a few ulps, as a greedy's float cost can
    rng = np.random.default_rng(seed)
    if low:
        bounds = [float(np.nextafter(v, -math.inf)) for v in values]
        bounds = [b if rng.random() < 0.5 else float(np.nextafter(b, -math.inf)) for b in bounds]
    else:
        bounds = [v + abs(v) * 0.5 * rng.random() for v in values]
    calls = []
    best = _best_first(bounds, lambda k: calls.append(k) or values[k])
    assert best == max(values, default=-math.inf)
    if values:
        assert any(values[k] == best for k in calls)  # an argmax was solved
    # in order of decreasing bound, ties in index order, each at most once
    assert calls == sorted(set(calls), key=lambda k: (-bounds[k], k))


def test_verifier_maximum_of_zero_ratios_is_positive_zero(k3, monkeypatch):
    # ratios of -0.0, from a W1 of -0.0, still give the maximum +0.0
    monkeypatch.setattr(transport, "_w1_upper", lambda sp, A, B: np.zeros(len(A)))
    monkeypatch.setattr(transport, "_w1", lambda sp, A, B: (np.full(len(A), -0.0), np.zeros(len(A))))
    worst = verify_transport_inequality(k3, "ti_be", trials=5, rng=0)
    assert worst == 0.0 and math.copysign(1.0, worst) == 1.0


def _outcome(space, kind, trials, seed):
    try:
        return verify_transport_inequality(space, kind, trials=trials, rng=seed).hex()
    except HypothesisError as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(PRUNING_KINDS), seed=st.integers(0, 2 ** 32 - 1),
       trials=st.integers(1, 30), loose=st.booleans())
@example(kind="k3k3", seed=0, trials=5, loose=False)
def test_pruned_verifier_maximum_is_the_exhaustive_one(kind, seed, trials, loose):
    sp = pruning_space(kind, np.random.default_rng(seed))
    bound = loose_w1_upper(np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        if loose:
            mp.setattr(transport, "_w1_upper", bound)
        pruned = {k: _outcome(sp, k, trials, seed) for k in KINDS}
    if loose and any(v == "inf" or v.startswith("0x") for v in pruned.values()):
        assert bound.rows > 0  # a kind that ran ranked its densities by the stand-in
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_w1_upper", infinite_w1_upper)  # no density can be skipped
        fresh = Space(sp.labels, sp.metric, sp.kernel, sp.measure, sp.metric_sentinel)  # empty memo
        exhaustive = {k: _outcome(fresh, k, trials, seed) for k in KINDS}
    assert pruned == exhaustive
    if kind == "k3k3":  # a block indicator: zero information at positive transport cost
        assert pruned["ti_be"] == math.inf.hex()


def test_verifier_maximum_over_near_tied_ratios(k3):
    # tilts of the slow mode whose ratios differ by a few per cent, ranked by a
    # loose bound that reorders them: only the stopping rule keeps the maximum
    tilts = [np.exp(lam * np.array([1.0, 0.0, -1.0])) for lam in np.linspace(0.5, 0.7, 40)]
    tilts = [g / float(k3.nu @ g) for g in tilts]

    def maxima(bound):
        sp = Space(k3.labels, k3.metric, k3.kernel, k3.measure)
        draws = itertools.cycle(tilts)  # each kind draws the 40 tilts in turn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport, "random_density", lambda space, rng: next(draws))
            mp.setattr(transport, "_w1_upper", bound)
            return {k: verify_transport_inequality(sp, k, trials=len(tilts), rng=0) for k in KINDS}

    exhaustive = maxima(infinite_w1_upper)
    for seed in range(5):
        bound = loose_w1_upper(np.random.default_rng(seed))
        assert maxima(bound) == exhaustive
        assert bound.rows == len(tilts)  # one stacked bound per tilt, shared by the kinds


def test_verifier_ranks_a_zero_right_side_first(two_block, monkeypatch):
    # the block indicators have zero information, so their ratio is infinite;
    # their bound ranks them first, and one exact W1 settles the maximum
    calls = []
    monkeypatch.setattr(transport, "_w1", lambda *a, real=transport._w1: calls.append(1) or real(*a))
    assert verify_transport_inequality(two_block, "ti_be", trials=20, rng=0) == math.inf
    assert len(calls) == 1
