import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrws import (
    Space,
    StructuralError,
    Subset,
    _linalg,
    apply_laplacian,
    heat,
    heat_evolve,
    heat_trajectory,
    stationary_limit,
    validate_space,
)
from mrws.builders import (
    cycle, disjoint_union, grid_kernel_neumann, k3, random_reversible_space, two_block_halves,
)

from _oracles import heat_rk4_per_time, heat_series_per_time, rk4_stepwise
from conftest import random_spaces


def test_laplacian_kills_constants(p3):
    out = apply_laplacian(p3, np.full(3, 2.5))
    np.testing.assert_array_equal(out.values, 0.0)


def test_laplacian_row_arithmetic(p3):
    out = apply_laplacian(p3, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(out.values, [-1.0, 0.5, 0.0], atol=0)


def test_block_indicator_is_harmonic(two_block):
    left, _ = two_block_halves(two_block)
    out = apply_laplacian(two_block, left.astype(float))
    np.testing.assert_allclose(out.values, 0.0, atol=1e-15)


def test_laplacian_integrates_to_zero(rng):
    for sp in random_spaces(10, rng):
        f = rng.standard_normal(sp.n)
        total = float(sp.nu @ apply_laplacian(sp, f).values)
        assert abs(total) <= 1e-12 * max(1.0, np.abs(f).max())


def test_laplacian_self_adjoint(rng):
    for sp in random_spaces(10, rng):
        f, g = rng.standard_normal(sp.n), rng.standard_normal(sp.n)
        lf, lg = apply_laplacian(sp, f).values, apply_laplacian(sp, g).values
        assert float(sp.nu @ (lf * g)) == pytest.approx(float(sp.nu @ (f * lg)), abs=1e-12)


# ---------------------------------------------------------------------------
# evolution


EXPECT_A_T1 = 0.25 + 0.5 * np.exp(-1.0) + 0.25 * np.exp(-2.0)


@pytest.mark.parametrize("method", ["series", "spectral", "rk4"])
def test_p3_point_value_all_methods(p3, method):
    out = heat_evolve(p3, [1.0, 0.0, 0.0], 1.0, method=method)
    assert out.values[0] == pytest.approx(EXPECT_A_T1, abs=1e-9)


@pytest.mark.parametrize("method", ["series", "spectral", "rk4"])
def test_time_zero_is_identity(p3, method):
    u0 = np.array([0.3, -1.0, 2.0])
    np.testing.assert_array_equal(heat_evolve(p3, u0, 0.0, method=method).values, u0)


def test_long_time_limit_is_mean(p3):
    for t in (64.0, 800.0):  # past t ~ 745 a single series step underflows e^{-t}
        out = heat_evolve(p3, [1.0, 0.0, 0.0], t, method="series")
        np.testing.assert_allclose(out.values, 0.25, atol=1e-10)


def test_negative_time_and_tolerance_rejected(p3):
    for t in (-0.1, np.inf, np.nan):
        with pytest.raises(ValueError):
            heat_evolve(p3, [1.0, 0, 0], t)
    with pytest.raises(ValueError):
        heat_evolve(p3, [1.0, 0, 0], 1.0, tol=0.0)


def test_methods_agree_on_random_spaces(rng):
    for sp in random_spaces(12, rng, n_hi=20):
        u0 = rng.standard_normal(sp.n)
        sup = np.abs(u0).max()
        for t in (0.5, 2.0):
            outs = [heat_evolve(sp, u0, t, method=m).values for m in ("series", "spectral", "rk4")]
            assert np.abs(outs[0] - outs[1]).max() <= 1e-8 * sup
            assert np.abs(outs[0] - outs[2]).max() <= 1e-8 * sup


@pytest.mark.parametrize("method", ["series", "spectral", "rk4"])
def test_mass_conservation(rng, method):
    for sp in random_spaces(8, rng):
        u0 = rng.standard_normal(sp.n)
        m0 = float(sp.nu @ u0)
        for t in (0.1, 1.0, 10.0):
            m = float(sp.nu @ heat_evolve(sp, u0, t, method=method).values)
            assert abs(m - m0) <= 1e-10 * max(1.0, abs(m0))


@pytest.mark.parametrize("method", ["series", "spectral", "rk4"])
def test_maximum_principle(rng, method):
    for sp in random_spaces(8, rng):
        u0 = rng.uniform(-3, 5, sp.n)
        for t in (0.3, 4.0):
            u = heat_evolve(sp, u0, t, method=method).values
            assert u.min() >= u0.min() - 1e-12
            assert u.max() <= u0.max() + 1e-12


@pytest.mark.parametrize("method", heat.METHODS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_field_rejected(p3, method, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError, match="non-finite"):
            heat_evolve(p3, [bad, 0.0, 0.0], 2.0, method=method)


def _record_rk4_operands(monkeypatch):
    """The set that collects 1 when rk4 steps a field and 2 when it builds
    the step matrix R to power it."""
    operands = set()
    increment, step_matrix = heat._rk4_increment, heat._rk4_step_matrix

    def stepping(P, h, X):
        operands.add(X.ndim)
        return increment(P, h, X)

    def building(P, h):
        operands.add(2)
        return step_matrix(P, h)

    monkeypatch.setattr(heat, "_rk4_increment", stepping)
    monkeypatch.setattr(heat, "_rk4_step_matrix", building)
    return operands


def test_rk4_matches_stepwise_oracle(rng, two_block, monkeypatch):
    spaces = (random_spaces(6, rng) + random_spaces(4, rng, connected=False)
              + [two_block, grid_kernel_neumann([(0.0, 1.0)], h=1 / 79, radius=0.05)])
    operands = _record_rk4_operands(monkeypatch)
    for sp in spaces:
        u0 = rng.standard_normal(sp.n) * rng.choice([1.0, 100.0])
        scale = max(1.0, float(np.abs(u0).max()))
        for t in (0.01, 0.5, 4.0, 32.0):
            got = heat_evolve(sp, u0, t, method="rk4").values
            assert np.abs(got - rk4_stepwise(sp.kernel, u0, t)).max() <= 1e-12 * scale
    assert operands == {1, 2}  # the field was stepped (n = 80, t = 0.01) and R was powered


def test_rk4_keeps_constants_at_long_times(two_block):
    # R^steps by squaring must not drift along the constant mode: squaring R
    # itself instead of B = R - I drifted by 2e-11 at t = 2000 here.
    for sp in (two_block, grid_kernel_neumann([(0.0, 1.0)], h=1 / 79, radius=0.05)):
        for t in (200.0, 2000.0):
            u = heat_evolve(sp, np.full(sp.n, 3.0), t, method="rk4").values
            assert np.abs(u - 3.0).max() <= 3e-12


def _hypothesis_space(seed, n, density, self_loops, split):
    """A random reversible space; with ``split``, two of them side by side,
    so the flow has at least two invariant blocks."""
    rng = np.random.default_rng(seed)
    sp = random_reversible_space(n, rng, density=density, connected=False, self_loops=self_loops)
    if split:
        sp = disjoint_union(sp, random_reversible_space(n, rng, density=density, self_loops=self_loops))
    return sp, rng.uniform(-3, 5, sp.n)


space_args = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 10), density=st.floats(0.1, 0.9),
                  self_loops=st.booleans(), split=st.booleans())


@pytest.mark.parametrize("method", heat.METHODS)
@settings(max_examples=40, deadline=None)
@given(**space_args)
@example(seed=0, n=6, density=0.5, self_loops=True, split=True)
def test_long_time_limit_property(method, seed, n, density, self_loops, split):
    sp, u0 = _hypothesis_space(seed, n, density, self_loops, split)
    # past the slowest block's mixing time: e^{-t gap} <= e^{-40}
    s = np.sqrt(sp.nu)
    lam = np.linalg.eigvalsh(np.eye(sp.n) - (s[:, None] * sp.kernel) / s[None, :])
    slow = lam[lam > 1e-8]
    t = max(200.0, 40.0 / slow.min()) if slow.size else 200.0
    got = heat_evolve(sp, u0, t, method=method).values
    np.testing.assert_allclose(got, stationary_limit(sp, u0).values, rtol=0, atol=1e-9)


@pytest.mark.parametrize("method", heat.METHODS)
@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 64.0), **space_args)
@example(t=30.0, seed=0, n=6, density=0.5, self_loops=True, split=True)
def test_mass_and_bounds_property(method, t, seed, n, density, self_loops, split):
    sp, u0 = _hypothesis_space(seed, n, density, self_loops, split)
    u = heat_evolve(sp, u0, t, method=method).values
    m0 = float(sp.nu @ u0)
    assert abs(float(sp.nu @ u) - m0) <= 1e-10 * max(1.0, abs(m0))
    assert u.min() >= u0.min() - 1e-12
    assert u.max() <= u0.max() + 1e-12


def test_lp_contraction(rng):
    for sp in random_spaces(8, rng):
        u0 = rng.standard_normal(sp.n)
        nu = sp.nu
        norms0 = {1: float(nu @ np.abs(u0)), 2: float(np.sqrt(nu @ u0 ** 2)), np.inf: float(np.abs(u0).max())}
        for t in (0.5, 3.0):
            u = heat_evolve(sp, u0, t).values
            assert float(nu @ np.abs(u)) <= norms0[1] + 1e-10
            assert float(np.sqrt(nu @ u ** 2)) <= norms0[2] + 1e-10
            assert float(np.abs(u).max()) <= norms0[np.inf] + 1e-10


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.0, 8.0), s=st.floats(0.0, 8.0))
def test_semigroup_law(t, s):
    from mrws.builders import p3

    sp = p3()
    u0 = np.array([1.0, -2.0, 0.5])
    once = heat_evolve(sp, u0, t + s, method="series").values
    twice = heat_evolve(sp, heat_evolve(sp, u0, s, method="series"), t, method="series").values
    np.testing.assert_allclose(twice, once, atol=1e-9)


def test_positivity_spreads_instantly_on_ergodic_fixtures():
    from mrws.builders import cycle, k3, lazy_cycle, p3

    for sp in (p3(), k3(), cycle(6), lazy_cycle(6, 0.5)):
        u0 = np.zeros(sp.n)
        u0[0] = 1.0
        u = heat_evolve(sp, u0, 0.01, method="series", tol=1e-30).values
        assert (u > 0).all()


def test_positivity_stops_at_block_boundary(two_block):
    left, right = two_block_halves(two_block)
    u0 = left.astype(float)
    for t in (0.01, 1.0, 30.0):
        u = heat_evolve(two_block, u0, t, method="series").values
        assert (u[left] > 0).all()
        assert (u[right] == 0.0).all()


# ---------------------------------------------------------------------------
# trajectories and limits


def test_trajectory_prepends_time_zero(p3):
    traj = heat_trajectory(p3, [1.0, 0, 0], [0.5, 1.0])
    assert traj.times[0] == 0.0
    np.testing.assert_array_equal(traj.states[0].values, [1.0, 0, 0])
    assert len(traj.states) == 3


@pytest.mark.parametrize("method", ["series", "spectral", "rk4"])
def test_empty_space_evolves_to_the_empty_field(method):
    empty = Space((), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0))
    for t in (0.0, 1.0, 1000.0):
        assert heat_evolve(empty, np.zeros(0), t, method=method).values.shape == (0,)
    traj = heat_trajectory(empty, np.zeros(0), [0.5, 600.0], method=method)
    assert traj.times == (0.0, 0.5, 600.0)
    assert [u.values.shape for u in traj.states] == [(0,)] * 3


PER_TIME = {"series": heat_series_per_time, "rk4": heat_rk4_per_time}


@pytest.mark.parametrize("method, times", [
    ("series", [0.5, 2.0, 8.0, 32.0]),
    # one, two and three steps; past 512 no decay certificate holds on this slow grid (gap 0.0027)
    ("series", [0.01, 511.0, 512.0, 513.0, 1023.5, 1024.0, 1030.0]),
    ("series", [5e-324, 1e-300, 0.5]),  # t / 512 underflows to zero steps at 5e-324
    ("rk4", [0.01, 0.03, 0.0999, 0.3, 1.0, 4.0, 4.2, 32.0]),  # five step lengths
    ("rk4", [4.0, 32.0, 32.0]),
])
def test_trajectory_matches_per_time_oracle(rng, monkeypatch, method, times):
    sp = grid_kernel_neumann([(0.0, 1.0)], h=1 / 79, radius=0.05)  # n = 80
    u0 = rng.standard_normal(sp.n)
    operands = _record_rk4_operands(monkeypatch)
    traj = heat_trajectory(sp, u0, times, method=method)
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_array_equal(state.values, PER_TIME[method](sp.kernel, u0, t))
    if method == "rk4" and 0.01 in times:
        assert operands == {1, 2}  # t = 0.01 and 0.03 stepped the field, the others powered R


@settings(max_examples=30, deadline=None)
@given(method=st.sampled_from(sorted(PER_TIME)), times=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5),
       **space_args)
def test_trajectory_matches_per_time_oracle_property(method, times, seed, n, density, self_loops, split):
    sp, u0 = _hypothesis_space(seed, n, density, self_loops, split)
    traj = heat_trajectory(sp, u0, times, method=method)
    for t, state in zip(traj.times, traj.states):
        np.testing.assert_array_equal(state.values, PER_TIME[method](sp.kernel, u0, t))


def test_rk4_step_matrix_is_the_increment_of_the_identity(rng, two_block):
    # P I is P bit for bit on a finite kernel, so the build that skips that
    # product is the increment of the identity, to the bit
    spaces = random_spaces(6, rng) + [two_block, grid_kernel_neumann([(0.0, 1.0)], h=1 / 79, radius=0.05)]
    for sp in spaces:
        for h in (0.005, 0.001, 1 / 3):
            want = heat._rk4_increment(sp.kernel, h, np.eye(sp.n))
            assert heat._rk4_step_matrix(sp.kernel, h).tobytes() == want.tobytes()


def test_rk4_grid_shares_one_step_matrix(rng, monkeypatch):
    # grid-heat's rk4 grid 4,32 on its n = 700 space: both times take h = 0.005
    # and are powered, so one R serves 800 and 6400 steps, with 12 squarings
    # (evolved one by one, the two times built R twice and squared it 9 + 12 times)
    sp = grid_kernel_neumann([(0.0, 1.0)], h=1 / 699, radius=0.2)
    builds, squarings = [], []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            if np.ndim(other) == 2:
                squarings.append(1)
            return super().__matmul__(other)

    step_matrix = heat._rk4_step_matrix

    def recording(P, h):
        builds.append(h)
        return step_matrix(P, h).view(Counted)

    monkeypatch.setattr(heat, "_rk4_step_matrix", recording)
    heat_trajectory(sp, rng.standard_normal(sp.n), [4.0, 32.0], method="rk4")
    assert builds == [0.005]
    assert len(squarings) == 12


def test_stationary_limit_matches_mean(p3):
    out = stationary_limit(p3, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(out.values, 0.25, atol=0)


def test_stationary_limit_constant_field(p3):
    out = stationary_limit(p3, np.full(3, 1.7))
    np.testing.assert_allclose(out.values, 1.7, atol=0)


def test_stationary_limit_blockwise(two_block):
    left, right = two_block_halves(two_block)
    out = stationary_limit(two_block, left.astype(float))
    np.testing.assert_allclose(out.values[left], 1.0, atol=0)
    np.testing.assert_allclose(out.values[right], 0.0, atol=0)


def test_stationary_limit_refuses_transient_points():
    # a leaks into the absorbing points b and c, so it lies in no invariant
    # block; its limit, 2.0 here, is no block average
    K = np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    sp = Space(("a", "b", "c"), d, K, np.ones(3))
    with pytest.raises(ValueError, match=r"\['a'\] lie in no invariant block"):
        stationary_limit(sp, [5.0, 1.0, 3.0])
    np.testing.assert_allclose(heat_evolve(sp, [5.0, 1.0, 3.0], 50.0).values, [2.0, 1.0, 3.0], atol=1e-12)


def test_limit_agrees_with_long_evolution(rng):
    for sp in random_spaces(5, rng, n_hi=8):
        u0 = rng.standard_normal(sp.n)
        target = stationary_limit(sp, u0).values
        evolved = heat_evolve(sp, u0, 200.0, method="spectral").values
        np.testing.assert_allclose(evolved, target, atol=1e-9)


# ---------------------------------------------------------------------------
# the decay certificate past SERIES_STEP


def _gap(sp):
    """Least eigenvalue of I - sym(S) on the complement of s = sqrt(nu)."""
    s = np.sqrt(sp.nu)
    S = (s[:, None] * sp.kernel) / s[None, :]
    B = np.linalg.qr(s[:, None], mode="complete")[0][:, 1:]  # orthonormal basis of s's complement
    return float(np.linalg.eigvalsh(B.T @ (np.eye(sp.n) - 0.5 * (S + S.T)) @ B)[0])


@settings(max_examples=80, deadline=None)
@given(**space_args)
@example(seed=0, n=2, density=0.9, self_loops=False, split=False)  # K2: gap 2
@example(seed=0, n=6, density=0.5, self_loops=True, split=True)
def test_gap_certificate_property(seed, n, density, self_loops, split):
    sp, u0 = _hypothesis_space(seed, n, density, self_loops, split)
    if sp.n < 2:
        return
    lam = _gap(sp)
    # the smoothed Rayleigh quotient that spares the factorization never refuses a rate below the gap
    assert not heat._visibly_slower(sp, u0, lam - 1e-9)
    # sound: never above the gap eigvalsh reads, nor at it, where only the slack delta refuses
    for g in (lam, lam + 1e-9, 2.0 * lam + 1e-9):
        assert not heat._gap_at_least(sp, g)
    if split:
        for g in (1e-9, 1e-3, 0.5):
            assert not heat._gap_at_least(sp, g)
    elif lam > 1e-6:
        assert heat._gap_at_least(sp, lam / 2)


def test_settled_states_are_the_stationary_limit(rng, monkeypatch):
    sp = grid_kernel_neumann([(0.0, 1.0)], h=1 / 199, radius=0.3)  # n = 200, gap 0.134
    u0 = rng.standard_normal(sp.n)
    times = [513.0, 760.0, 900.0]
    limit = stationary_limit(sp, u0).values
    for t in times:
        assert np.abs(limit - heat_series_per_time(sp.kernel, u0, t)).max() <= 1e-12
    traj = heat_trajectory(sp, u0, [512.0] + times)  # 512 is no later than SERIES_STEP: still the series
    np.testing.assert_array_equal(traj.states[1].values, heat_series_per_time(sp.kernel, u0, 512.0))
    monkeypatch.setattr(_linalg, "decomposition", None)  # the certificate takes no eigendecomposition
    for method in heat.METHODS:
        traj = heat_trajectory(sp, u0, times, method=method)
        for state in traj.states[1:]:
            np.testing.assert_array_equal(state.values, limit)
    # a constant field has no smoothed Rayleigh quotient to refuse it; it settles at once
    flat = np.full(sp.n, 0.3)
    np.testing.assert_array_equal(heat_evolve(sp, flat, 760.0, method="spectral").values,
                                  stationary_limit(sp, flat).values)


@pytest.mark.parametrize("method", heat.METHODS)
def test_unsettled_long_times_take_their_route(two_block, p3, method):
    # two invariant blocks each, and a measure P3's kernel does not leave invariant
    for sp in (two_block, disjoint_union(k3(), k3()), Space(p3.labels, p3.metric, p3.kernel, np.ones(3))):
        u0 = np.linspace(-1.0, 2.0, sp.n)
        got = heat_evolve(sp, u0, 1000.0, method=method).values
        if method == "spectral":
            want = _linalg.heat_apply(sp, u0, 1000.0)
        else:
            want = PER_TIME[method](sp.kernel, u0, 1000.0)
        np.testing.assert_array_equal(got, want)


def test_decay_rate_reads_the_kernel_residuals():
    sp = grid_kernel_neumann([(0.0, 1.0)], h=1 / 199, radius=0.3)
    u0 = np.linspace(0.0, 1.0, sp.n)
    assert heat._decay_rate(sp, u0, 900.0, 1e-12) is not None
    heavy = Space(sp.labels, sp.metric, sp.kernel * (1 + 1e-9), sp.measure)  # rows sum to 1 + 1e-9
    assert heat._decay_rate(heavy, u0, 900.0, 1e-12) is None
    tilted = Space(sp.labels, sp.metric, sp.kernel, sp.measure * np.linspace(1.0, 1.0 + 1e-9, sp.n))
    assert heat._decay_rate(tilted, u0, 900.0, 1e-12) is None


def _lazy_directed_cycle():
    P = 0.5 * (np.eye(7) + np.roll(np.eye(7), 1, axis=1))  # stay, or step to the next point
    return Space(tuple(range(7)), cycle(7).metric, P, np.ones(7))


def _circulating(seed):
    """A lazy random reversible space with a flow pushed round a cycle through
    all its points: nu stays invariant, detailed balance fails."""
    base = random_reversible_space(6, np.random.default_rng(seed), density=0.5)
    P = 0.5 * (np.eye(6) + base.kernel)
    push = 0.25 * base.nu.min() / base.nu
    P[np.arange(6), (np.arange(6) + 1) % 6] += push
    P[np.arange(6), np.arange(6)] -= push
    return Space(base.labels, base.metric, P, base.measure)


@pytest.mark.parametrize("build", [_lazy_directed_cycle, lambda: _circulating(0), lambda: _circulating(1)],
                         ids=["lazy-directed-cycle", "circulating-0", "circulating-1"])
def test_gap_certificate_without_reversibility(build):
    sp = build()
    flow = sp.nu[:, None] * sp.kernel
    assert np.abs(flow - flow.T).max() > 1e-3  # not reversible
    np.testing.assert_allclose(sp.kernel.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sp.nu @ sp.kernel, sp.nu, rtol=1e-14, atol=0)  # nu invariant
    lam = _gap(sp)
    assert lam > 0.05
    for g in (lam, lam + 1e-9, 2.0 * lam):
        assert not heat._gap_at_least(sp, g)
    assert heat._gap_at_least(sp, lam / 2)


def test_certificate_is_kept_per_space(rng, monkeypatch):
    sp = grid_kernel_neumann([(0.0, 1.0)], h=1 / 199, radius=0.3)
    u0 = rng.standard_normal(sp.n)
    limit = stationary_limit(sp, u0).values
    rates = []
    factor = heat._gap_at_least
    monkeypatch.setattr(heat, "_gap_at_least", lambda space, g: rates.append(g) or factor(space, g))
    for t in (760.0, 760.0, 900.0):  # 900 asks for a lower rate than 760 proved
        np.testing.assert_array_equal(heat_evolve(sp, u0, t, method="spectral").values, limit)
    assert len(rates) == 1


@pytest.mark.parametrize("method", sorted(PER_TIME))
def test_slow_flow_is_refused_without_factorization(rng, monkeypatch, method):
    sp = grid_kernel_neumann([(0.0, 1.0)], h=1 / 79, radius=0.05)  # gap 0.0027
    u0 = rng.standard_normal(sp.n)
    monkeypatch.setattr(heat, "_gap_at_least", None)  # a factorization would raise
    for t in (513.0, 513.0, 1030.0):
        np.testing.assert_array_equal(heat_evolve(sp, u0, t, method=method).values,
                                      PER_TIME[method](sp.kernel, u0, t))


def test_refused_bounds_raise_no_floating_point_warnings(p3):
    # past n ~ 512 the rounding of the largest row sum reads as omega = 2.2e-16, so e^{t omega}
    # overflows at t = 1e19, and an all-zero field meets it as 0 * inf; tol = 1e-320 overflows
    # a / tol. Each such bound is refused and the route runs.
    sp = grid_kernel_neumann([(0.0, 1.0)], h=1 / 599, radius=0.2)  # n = 600
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u0 in (np.linspace(0.0, 1.0, sp.n), np.zeros(sp.n)):
            np.testing.assert_array_equal(heat_evolve(sp, u0, 1e19, method="spectral").values,
                                          _linalg.heat_apply(sp, u0, 1e19))
        u0 = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(heat_evolve(p3, u0, 600.0, tol=1e-320).values,
                                      heat_series_per_time(p3.kernel, u0, 600.0, tol=1e-320))


def test_each_late_time_is_certified_on_its_own(rng):
    # gap 0.015: t = 600 needs a faster decay than that and takes the series; t = 2500 settles,
    # in a grid as alone
    def build():
        return grid_kernel_neumann([(0.0, 1.0)], h=1 / 199, radius=0.1)

    sp = build()
    u0 = rng.standard_normal(sp.n)
    traj = heat_trajectory(sp, u0, [600.0, 2500.0])
    np.testing.assert_array_equal(traj.states[1].values, heat_series_per_time(sp.kernel, u0, 600.0))
    np.testing.assert_array_equal(traj.states[2].values, stationary_limit(sp, u0).values)
    np.testing.assert_array_equal(heat_evolve(build(), u0, 2500.0).values, traj.states[2].values)
