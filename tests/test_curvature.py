import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrws import (
    Space,
    apply_laplacian,
    be_best_constant,
    dirichlet_energy,
    gamma,
    gamma2,
    gradient_estimate_check,
    is_ergodic,
    lipschitz_contraction_check,
    ollivier_global,
    ollivier_kappa,
    propagate_measure,
    spectral_gap,
    verify_transport_inequality,
    wasserstein,
)
from mrws import _linalg, curvature, transport
from mrws.builders import (
    PointCloud,
    cycle,
    disjoint_union,
    epsilon_step_from_point_cloud,
    grid_kernel_neumann,
    k3 as make_k3,
    lazy_cycle,
    linear_chain,
    p3 as make_p3,
    random_reversible_space,
    two_block as make_two_block,
)
from mrws.curvature import _needed_pairs, _pair_kappas, kappa_global
from mrws.transport import PRUNE_RTOL, _tree, _w1_upper

import _oracles
from conftest import PRUNING_KINDS, loose_w1_upper, pruning_space, random_spaces, random_tree_space


def test_gamma_constant_is_zero(p3):
    np.testing.assert_array_equal(gamma(p3, np.full(3, 1.0)).values, 0.0)


def test_gamma_p3_endpoint_formula(p3, rng):
    for _ in range(10):
        f = rng.standard_normal(3)
        g = gamma(p3, f).values
        assert g[0] == pytest.approx(0.5 * (f[1] - f[0]) ** 2, abs=1e-14)
        assert g[2] == pytest.approx(0.5 * (f[1] - f[2]) ** 2, abs=1e-14)
        assert g[1] == pytest.approx(0.5 * (g[0] + g[2]), abs=1e-14)


def test_gamma_matches_pointwise_oracle(rng):
    for sp in random_spaces(8, rng):
        f = rng.standard_normal(sp.n)
        g = gamma(sp, f).values
        for x in range(sp.n):
            assert g[x] == pytest.approx(_oracles.gamma_pointwise(sp, f, x), abs=1e-12)
        assert (g >= 0).all()


def test_gamma_integral_is_energy(rng):
    for sp in random_spaces(8, rng):
        f = rng.standard_normal(sp.n)
        assert float(sp.nu @ gamma(sp, f).values) == pytest.approx(dirichlet_energy(sp, f), abs=1e-12)


def test_gamma2_p3_formulas(p3, rng):
    for _ in range(10):
        f = rng.standard_normal(3)
        lf = apply_laplacian(p3, f).values
        g2 = gamma2(p3, f).values
        g = gamma(p3, f).values
        assert g2[1] == pytest.approx(0.5 * lf[1] ** 2 + g[1], abs=1e-13)
        expect_a = 0.125 * lf[2] ** 2 + 0.625 * lf[0] ** 2 + 0.25 * lf[0] * lf[2]
        assert g2[0] == pytest.approx(expect_a, abs=1e-13)
        expect_c = 0.125 * lf[0] ** 2 + 0.625 * lf[2] ** 2 + 0.25 * lf[0] * lf[2]
        assert g2[2] == pytest.approx(expect_c, abs=1e-13)


def test_gamma2_constant_is_zero(p3):
    np.testing.assert_array_equal(gamma2(p3, np.full(3, 2.0)).values, 0.0)


def test_gamma2_matches_pointwise_oracle(rng):
    for sp in random_spaces(6, rng):
        f = rng.standard_normal(sp.n)
        g2 = gamma2(sp, f).values
        for x in range(sp.n):
            assert g2[x] == pytest.approx(_oracles.gamma2_pointwise(sp, f, x), abs=1e-11)


def test_gamma2_integral_identity(rng):
    for sp in random_spaces(10, rng):
        f = rng.standard_normal(sp.n)
        lhs = float(sp.nu @ gamma2(sp, f).values)
        lf = apply_laplacian(sp, f).values
        assert lhs == pytest.approx(float(sp.nu @ lf ** 2), abs=1e-11)


# ---------------------------------------------------------------------------
# per-point forms


def test_forms_match_direct_evaluation(rng):
    for sp in random_spaces(4, rng, n_hi=8):
        forms = _oracles.point_forms(sp)
        for _ in range(12):
            f = rng.standard_normal(sp.n)
            g = gamma(sp, f).values
            g2 = gamma2(sp, f).values
            lf = apply_laplacian(sp, f).values
            for x in range(sp.n):
                assert f @ forms.gamma_forms[x] @ f == pytest.approx(g[x], abs=1e-10)
                assert f @ forms.gamma2_forms[x] @ f == pytest.approx(g2[x], abs=1e-10)
                assert forms.laplacian_rows[x] @ f == pytest.approx(lf[x], abs=1e-12)


def test_gamma_forms_are_psd(rng):
    for sp in random_spaces(6, rng):
        forms = _oracles.point_forms(sp)
        for x in range(sp.n):
            assert np.linalg.eigvalsh(forms.gamma_forms[x]).min() >= -1e-10


def test_zero_gradient_directions_feasible(rng):
    # where the gradient form vanishes the dimension-reduced form must be PSD;
    # a failure would surface as an unbounded (-inf) constant
    for sp in random_spaces(10, rng):
        res = be_best_constant(sp, np.inf)
        assert np.all(res.k_best_per_point > -math.inf)


# ---------------------------------------------------------------------------
# curvature-dimension constants


def test_be_constant_matches_bisection_oracle(rng):
    spaces = [random_reversible_space(int(rng.integers(2, 9)), rng,
                                      density=float(rng.uniform(0.2, 0.8)),
                                      connected=connected, self_loops=loops)
              for connected in (True, False) for loops in (True, False) for _ in range(3)]
    # larger than B2(x) of most points, so the second ring and the points past it matter
    spaces += [cycle(10), grid_kernel_neumann([(0, 1)], h=1 / 11, radius=1.5 / 11)]
    no_neighbour = 0
    for sp in spaces:
        for n in (2.0, 3.0, np.inf):
            want = [_oracles.be_constant_bisection(sp, x, n) for x in range(sp.n)]
            np.testing.assert_allclose(be_best_constant(sp, n).k_best_per_point, want,
                                       rtol=0, atol=1e-8)
            no_neighbour += int(np.isinf(want).sum())
    assert no_neighbour  # some isolated point, where K(x) = +inf


def test_be_constant_rejects_negative_kernel(p3):
    P = p3.kernel.copy()
    P[0] = [1.5, -0.5, 0.0]
    with pytest.raises(ValueError, match="nonnegative"):
        be_best_constant(Space(p3.labels, p3.metric, P, p3.measure), 2.0)


def test_be_constant_rejects_a_non_finite_kernel(p3):
    for bad in (np.nan, np.inf):
        P = p3.kernel.copy()
        P[0, 1] = bad
        with pytest.raises(ValueError, match="finite nonnegative kernel"):
            be_best_constant(Space(p3.labels, p3.metric, P, p3.measure), 2.0)


def _hexes(values):
    return [v.hex() for v in np.asarray(values).tolist()]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 14), seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0),
       connected=st.booleans(), self_loops=st.booleans(),
       n_param=st.sampled_from([2.0, 3.5, np.inf]))
@example(n=1, seed=0, density=0.5, connected=True, self_loops=False, n_param=2.0)
@example(n=2, seed=0, density=0.0, connected=False, self_loops=False, n_param=3.5)  # no neighbours
@example(n=2, seed=0, density=1.0, connected=True, self_loops=True, n_param=np.inf)
@example(n=9, seed=3, density=0.2, connected=False, self_loops=True, n_param=2.0)
def test_grouped_be_keeps_every_per_point_bit(n, seed, density, connected, self_loops, n_param):
    sp = random_reversible_space(n, np.random.default_rng(seed), density=density,
                                 connected=connected, self_loops=self_loops)
    got = be_best_constant(sp, n_param).k_best_per_point
    assert _hexes(got) == _hexes(_oracles.be_constant_per_point(sp, n_param))


def test_grouped_be_keeps_its_bits_in_chunks_of_one_and_two(monkeypatch):
    sp = grid_kernel_neumann([(0, 1)], h=1 / 29, radius=2.5 / 29)  # the inner points form one group
    _, groups = curvature._be_groups(sp)
    xs, J, _ = max(groups, key=lambda g: g[0].size)
    d = J.shape[1]
    real = curvature._be_chunk
    for per_chunk in (1, 2):
        cells = 2 * per_chunk * d * d  # a chunk keeps two stacks of its forms alive
        monkeypatch.setattr(transport, "_BLOCK_CELLS", cells)
        chunks = []
        monkeypatch.setattr(curvature, "_be_chunk", lambda P, P2, xs, J, *rest: chunks.append(
            J.shape) or real(P, P2, xs, J, *rest))
        for n_param in (2.0, 3.5, np.inf):
            fresh = Space(sp.labels, sp.metric, sp.kernel, sp.measure, sp.metric_sentinel)
            got = be_best_constant(fresh, n_param).k_best_per_point
            assert _hexes(got) == _hexes(_oracles.be_constant_per_point(sp, n_param))
        assert all(m == 1 or 2 * m * w * w <= cells for m, w in chunks)
        assert max(m for m, w in chunks if w == d) == per_chunk
        assert sum(m for m, w in chunks if w == d) == 3 * xs.size


def test_p3_constants_match_closed_form(p3):
    for n in (2.0, 3.0, 4.0, 10.0):
        res = be_best_constant(p3, n)
        assert res.k_best_global == pytest.approx(1.0 - 2.0 / n, abs=1e-9)
    assert be_best_constant(p3, np.inf).k_best_global == pytest.approx(1.0, abs=1e-9)


def test_dimension_parameter_validation(p3):
    with pytest.raises(ValueError):
        be_best_constant(p3, 1.0)
    with pytest.raises(ValueError):
        be_best_constant(p3, 0.5)


def test_constant_monotone_in_dimension(rng):
    for sp in random_spaces(6, rng):
        ks = [be_best_constant(sp, n).k_best_global for n in (1.5, 2.0, 5.0, 50.0, np.inf)]
        for a, b in zip(ks, ks[1:]):
            assert a <= b + 1e-10


def test_be_to_gap_bridge(rng):
    for sp in random_spaces(10, rng) + [lazy_cycle(5, 0.3)]:
        gap = spectral_gap(sp).gap
        for n in (2.0, 5.0, np.inf):
            k = be_best_constant(sp, n).k_best_global
            if np.isfinite(k) and k > 0:
                factor = 1.0 if np.isinf(n) else n / (n - 1.0)
                assert gap >= k * factor - 1e-8


# ---------------------------------------------------------------------------
# coarse Ricci curvature


def test_p3_pair_curvatures(p3):
    assert ollivier_kappa(p3, "a", "c") == pytest.approx(1.0, abs=1e-12)
    assert ollivier_kappa(p3, "a", "b") == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ollivier_kappa(p3, "a", "a")


def test_k3_edge_curvature_with_oracle(k3):
    val = ollivier_kappa(k3, "a", "b")
    assert val == pytest.approx(0.5, abs=1e-12)
    w1 = _oracles.w1_bruteforce(k3.kernel[0], k3.kernel[1], k3.metric)
    assert 1.0 - w1 / k3.metric[0, 1] == pytest.approx(val, abs=1e-10)


def test_cycle6_global_curvature_with_oracle():
    sp = cycle(6)
    res = ollivier_global(sp, policy="all_pairs")
    assert res.kappa_global == pytest.approx(0.0, abs=1e-12)
    for (i, j), k in res.kappa_pairs.items():
        w1 = _oracles.w1_bruteforce(sp.kernel[i], sp.kernel[j], sp.metric)
        assert k == pytest.approx(1.0 - w1 / sp.metric[i, j], abs=1e-9)


def test_kappa_symmetry_and_upper_bound(rng):
    for sp in random_spaces(5, rng, n_hi=6):
        for i in range(sp.n):
            for j in range(i + 1, sp.n):
                kij = ollivier_kappa(sp, i, j)
                kji = ollivier_kappa(sp, j, i)
                assert kij == pytest.approx(kji, abs=1e-10)
                assert kij <= 1.0 + 1e-12


def test_support_edges_policy_is_upper_family(k3):
    full = ollivier_global(k3, policy="all_pairs")
    edges = ollivier_global(k3, policy="support_edges")
    assert edges.kappa_global >= full.kappa_global - 1e-12
    assert set(edges.kappa_pairs) <= set(full.kappa_pairs)


def test_all_pairs_guard(monkeypatch):
    sp = random_reversible_space(12, np.random.default_rng(0))
    monkeypatch.setattr(curvature, "ALL_PAIRS_LIMIT", 10)
    with pytest.raises(ValueError):
        ollivier_global(sp, policy="all_pairs")


# ---------------------------------------------------------------------------
# global curvature from the pairs no jump target splits


def _p3_shortcut():
    """P3 with d(a, c) = 1.5: a metric, but shorter than the path a-b-c."""
    p3 = make_p3()
    d = p3.metric.copy()
    d[0, 2] = d[2, 0] = 1.5
    return Space(p3.labels, d, p3.kernel, p3.measure)


def _count_w1(monkeypatch):
    """Records the two marginals of every pair W1 the curvature module asks
    the transport dispatch for (an LP on the non-tree spaces counted here,
    unless a jump law is a point mass), one entry per row of each stack."""
    calls = []
    real = curvature._w1
    monkeypatch.setattr(curvature, "_w1", lambda sp, A, B: calls.extend(
        (a.tobytes(), b.tobytes()) for a, b in zip(A, B)) or real(sp, A, B))
    return calls


def _support_edges(sp):
    adj = (sp.kernel > 0) | (sp.kernel.T > 0)
    return {(i, j) for i in range(sp.n) for j in range(i + 1, sp.n) if adj[i, j]}


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.1, 0.9),
       self_loops=st.booleans())
def test_edge_kappa_is_global_on_graph_metrics(n, seed, density, self_loops):
    sp = random_reversible_space(n, np.random.default_rng(seed), density=density,
                                 self_loops=self_loops)
    assert set(_needed_pairs(sp)) <= _support_edges(sp)
    expect = ollivier_global(sp, "all_pairs").kappa_global
    assert kappa_global(sp) == pytest.approx(expect, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(cells=st.integers(1, 12), reach=st.floats(1.05, 4.0))
def test_edge_kappa_is_global_on_grids(cells, reach):
    h = 1.0 / cells
    sp = grid_kernel_neumann([(0.0, 1.0)], h=h, radius=reach * h)
    assert set(_needed_pairs(sp)) <= _support_edges(sp)
    # equal in exact arithmetic; a non-edge LP may land an ulp lower (8 cells,
    # reach 1.5: edges give 0.0, all pairs -2.2e-16)
    expect = ollivier_global(sp, "all_pairs").kappa_global
    assert kappa_global(sp) == pytest.approx(expect, abs=1e-12)


def _family_space(kind, rng):
    """A small space of one of the metric families kappa_global must cover."""
    if kind == "graph":
        return random_reversible_space(int(rng.integers(2, 11)), rng,
                                       density=float(rng.uniform(0.1, 0.9)),
                                       connected=bool(rng.random() < 0.5),
                                       self_loops=bool(rng.random() < 0.5))
    if kind in ("grid", "sqrt_grid"):
        h = 1.0 / int(rng.integers(1, 11))
        sp = grid_kernel_neumann([(0.0, 1.0)], h=h, radius=float(rng.uniform(1.05, 4.0)) * h)
        if kind == "grid":
            return sp
        return Space(sp.labels, np.sqrt(sp.metric), sp.kernel, sp.measure)  # not geodesic
    if kind == "cloud":
        m = int(rng.integers(2, 11))
        pc = PointCloud(rng.uniform(0.0, 1.0, (m, 2)), rng.uniform(0.5, 2.0, m))
        return epsilon_step_from_point_cloud(pc, float(rng.uniform(0.2, 1.5)))
    if kind == "union":
        a, b = (random_reversible_space(int(rng.integers(1, 6)), rng, density=0.6) for _ in "ab")
        return disjoint_union(a, b)
    return make_two_block(float(rng.choice([0.25, 1 / 3, 0.5])))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["graph", "grid", "sqrt_grid", "cloud", "union", "two_block"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kappa_global_is_the_all_pairs_infimum(kind, seed):
    sp = _family_space(kind, np.random.default_rng(seed))
    expect = ollivier_global(sp, "all_pairs").kappa_global
    assert kappa_global(sp) == pytest.approx(expect, abs=1e-12)


def test_needed_pair_counts():
    assert len(_needed_pairs(make_p3())) == 2
    assert len(_needed_pairs(make_k3())) == 3
    assert len(_needed_pairs(make_two_block(0.1))) == 21  # 231 pairs in all
    assert len(_needed_pairs(random_reversible_space(24, np.random.default_rng(0),
                                                     density=0.2))) == 78
    grid = grid_kernel_neumann([(0.0, 1.0)], h=1 / 199, radius=0.02)
    assert len(_needed_pairs(grid)) == 199  # the neighbours on the line; 594 support edges


def _skipped_pairs(sp, kappa):
    """The needed pairs ``kappa_global`` left unsolved (no pair curvature in
    the memo), each checked to be certified by its bound: 1 - _w1_upper / d
    exceeds kappa by more than the pruning margin."""
    memo = _linalg._MEMO[sp]
    skipped = [(i, j) for i, j in _needed_pairs(sp) if ("kappa", i, j) not in memo]
    i, j = np.array(skipped, dtype=int).reshape(-1, 2).T
    lower = 1.0 - _w1_upper(sp, sp.kernel[i], sp.kernel[j]) / sp.metric[i, j]
    assert lower.shape == (len(skipped),)
    assert (lower > kappa + PRUNE_RTOL * max(1.0, abs(kappa))).all()
    return skipped


def test_kappa_global_on_two_block_solves_one_of_21_pair_lps(two_block, monkeypatch):
    solves = _count_w1(monkeypatch)
    kappa = kappa_global(two_block)
    assert len(solves) == 1
    assert len(solves) + len(_skipped_pairs(two_block, kappa)) == 21
    assert kappa == ollivier_global(two_block, "all_pairs").kappa_global
    assert len(solves) == 231  # all pairs solve the other 230 once each


def test_kappa_global_prunes_the_benchmark_space(monkeypatch):
    sp = random_reversible_space(40, np.random.default_rng(0), density=0.5)
    solves = _count_w1(monkeypatch)
    stacks = []  # the rows of each bound call
    monkeypatch.setattr(curvature, "_w1_upper", lambda sp, A, B, real=curvature._w1_upper:
                        stacks.append(len(A)) or real(sp, A, B))
    kappa = kappa_global(sp)
    assert stacks == [392]  # one stacked call bounds every needed pair
    assert len(solves) == 13
    assert len(solves) + len(_skipped_pairs(sp, kappa)) == len(_needed_pairs(sp)) == 392


def test_non_geodesic_metric_keeps_all_pairs_in_the_family(two_block, monkeypatch):
    sp = _p3_shortcut()
    solves = _count_w1(monkeypatch)
    assert _needed_pairs(sp) == ((0, 1), (0, 2), (1, 2))  # the non-edge (a, c) too
    kappa = kappa_global(sp)
    # both edges have kappa 0; (a, c) has the point-mass bound, kappa = 1, and is skipped
    assert len(solves) == 2
    assert _skipped_pairs(sp, kappa) == [(0, 2)]
    assert kappa == ollivier_global(sp, "all_pairs").kappa_global
    assert len(solves) == 3
    # no support edge joins the blocks; of the cross pairs only the closest is needed
    assert kappa_global(two_block) == ollivier_global(two_block, "all_pairs").kappa_global


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(PRUNING_KINDS), seed=st.integers(0, 2 ** 32 - 1), loose=st.booleans())
def test_pruned_kappa_global_is_the_least_needed_pair_kappa(kind, seed, loose):
    rng = np.random.default_rng(seed)
    sp = pruning_space(kind, rng)
    bound = loose_w1_upper(rng)
    with pytest.MonkeyPatch.context() as mp:
        if loose:
            mp.setattr(curvature, "_w1_upper", bound)
        kappa = kappa_global(sp)  # first, so only the pruned search fills the memo
    if loose:
        assert bound.rows == len(_needed_pairs(sp))  # the search ranked by the stand-in
    else:
        _skipped_pairs(sp, kappa)
    exhaustive = min((kappa for kappa, _ in _pair_kappas(sp, _needed_pairs(sp))), default=math.inf)
    assert kappa.hex() == float(exhaustive).hex()


def test_kappa_global_above_all_pairs_limit(monkeypatch):
    monkeypatch.setattr(curvature, "ALL_PAIRS_LIMIT", 2)  # a budget of one pair LP
    sp = _p3_shortcut()  # three needed pairs
    assert kappa_global(sp) is None
    with pytest.raises(ValueError, match="all pairs"):
        lipschitz_contraction_check(sp, samples=1)
    cyc = lazy_cycle(5, 0.5)  # five needed pairs, the edges
    monkeypatch.setattr(curvature, "ALL_PAIRS_LIMIT", 3)  # a budget of three
    assert kappa_global(cyc) is None
    monkeypatch.setattr(curvature, "ALL_PAIRS_LIMIT", 4)  # a budget of six
    assert kappa_global(cyc) == pytest.approx(0.25, abs=1e-12)
    assert lipschitz_contraction_check(cyc, samples=20, rng=3) <= 1.0 + 1e-9


def test_each_pair_lp_runs_once(monkeypatch):
    sp = random_reversible_space(8, np.random.default_rng(4), density=0.4)
    fresh = Space(sp.labels, sp.metric, sp.kernel, sp.measure)
    unpatched, unpatched_kappa = ollivier_global(fresh).kappa_pairs, kappa_global(fresh)
    solves = _count_w1(monkeypatch)
    stacks, bounded = [], []  # the rows of each stacked call
    monkeypatch.setattr(curvature, "_w1", lambda sp, A, B, counted=curvature._w1:
                        stacks.append(len(A)) or counted(sp, A, B))
    monkeypatch.setattr(curvature, "_w1_upper", lambda sp, A, B, real=curvature._w1_upper:
                        bounded.append(len(A)) or real(sp, A, B))
    monkeypatch.setattr(transport, "_BLOCK_CELLS", 3 * sp.n ** 2)  # a pass holds 3 pairs
    kappa = kappa_global(sp)
    assert bounded == [3, 3, 3, 2]  # the needed pairs are bounded pass by pass
    assert kappa.hex() == unpatched_kappa.hex()
    assert len(solves) == 7
    assert len(solves) + len(_skipped_pairs(sp, kappa)) == len(_needed_pairs(sp)) == 11
    edges = ollivier_global(sp, "support_edges").kappa_pairs
    assert len(solves) == len(edges)
    assert len(edges) < 28  # the family has non-edge pairs
    ollivier_global(sp)  # adds the non-edge pairs only
    kappa_global(sp)
    ollivier_kappa(sp, 5, 2)  # the pair (2, 5)
    lipschitz_contraction_check(sp, samples=2, rng=0)
    assert len(solves) == 28
    assert len(set(solves)) == 28
    assert max(stacks) == 3  # no stack is longer than a pass, and the kappa are those of one stack
    assert {ij: k.hex() for ij, k in ollivier_global(sp).kappa_pairs.items()} == \
        {ij: k.hex() for ij, k in unpatched.items()}


def _grid200():
    return grid_kernel_neumann([(0.0, 1.0)], h=1 / 199, radius=0.02)


def test_tree_metrics_are_detected():
    # TwoBlock(0.1) and the two-interval grid are lines whose edge across the
    # gap is no support edge
    trees = [make_p3(), linear_chain(15), random_tree_space(30, np.random.default_rng(5)),
             _grid200(), make_two_block(0.1), grid_kernel_neumann([(0.0, 1.0), (2.0, 3.0)], h=0.05, radius=0.12)]
    for sp in trees:
        below, w = _tree(sp)
        assert below.shape == (sp.n, sp.n) and (w > 0).sum() == sp.n - 1
    # a cycle; a shortcut off the support; two blocks at the sentinel distance
    for sp in (make_k3(), cycle(16), _p3_shortcut(), disjoint_union(make_k3(), make_k3())):
        assert _tree(sp) is None


def test_grid_edge_curvature_solves_no_lp(monkeypatch):
    grid = _grid200()
    lps, stacks = [], []
    monkeypatch.setattr(transport, "linprog", lambda *a, **kw: lps.append(1))
    monkeypatch.setattr(curvature, "_w1", lambda sp, A, B, real=curvature._w1:
                        stacks.append(len(A)) or real(sp, A, B))
    res = ollivier_global(grid, "support_edges")
    assert len(res.kappa_pairs) == 594
    assert not lps
    # in passes of at most _BLOCK_CELLS // n^2 = 52 pairs
    assert len(stacks) == 12 and max(stacks) <= 52
    assert res.kappa_gap <= 1e-12
    assert kappa_global(grid) == pytest.approx(res.kappa_global, abs=1e-12)


def test_kappa_gap_certifies_each_pair(rng):
    for sp in random_spaces(4, rng, n_lo=4, n_hi=8):
        res = ollivier_global(sp)
        assert 0.0 <= res.kappa_gap <= 1e-9
        lp_pairs = _tree(sp) is None
        for (i, j), kappa in res.kappa_pairs.items():
            plan = wasserstein(sp, sp.kernel[i], sp.kernel[j])
            assert kappa == pytest.approx(1.0 - plan.cost / sp.metric[i, j], abs=1e-12)
            if lp_pairs and min(np.count_nonzero(sp.kernel[[i, j]], axis=1)) > 1:
                assert plan.duality_gap / sp.metric[i, j] <= res.kappa_gap


# ---------------------------------------------------------------------------
# per-space memo


def test_memo_computes_kappa_once_per_space(k3, monkeypatch):
    solves = _count_w1(monkeypatch)
    ollivier_global(k3)
    kappa_global(k3)
    verify_transport_inequality(k3, "te", 5)
    assert len(solves) == 3  # one per pair of K3, not once per caller


def test_memo_keys_normalize_defaults_and_numbers(k3):
    assert ollivier_global(k3) is ollivier_global(k3, policy="all_pairs")
    assert ollivier_global(k3) is not ollivier_global(k3, policy="support_edges")
    assert be_best_constant(k3, 2) is be_best_constant(k3, 2.0)
    assert be_best_constant(k3, 2) is not be_best_constant(k3, np.inf)


def test_memoized_results_match_a_fresh_space(rng):
    for sp in random_spaces(6, rng):
        for _ in range(2):  # the second round is served from the memo
            warm_gap = spectral_gap(sp)
            warm_be = [be_best_constant(sp, n) for n in (2, np.inf)]
            warm_kappa = ollivier_global(sp)
        fresh = Space(sp.labels, sp.metric, sp.kernel, sp.measure, sp.metric_sentinel)
        np.testing.assert_array_equal(warm_gap.spectrum, spectral_gap(fresh).spectrum)
        for be, n in zip(warm_be, (2, np.inf)):
            other = be_best_constant(fresh, n)
            np.testing.assert_array_equal(be.k_best_per_point, other.k_best_per_point)
            assert be.k_best_global == other.k_best_global
        assert warm_kappa == ollivier_global(fresh)


def test_memo_still_checks_arguments(monkeypatch):
    sp = cycle(6)
    be_best_constant(sp, 2.0)
    ollivier_global(sp)
    with pytest.raises(ValueError):
        be_best_constant(sp, 1.0)
    with pytest.raises(ValueError):
        ollivier_global(sp, policy="bogus")
    monkeypatch.setattr(curvature, "ALL_PAIRS_LIMIT", 5)
    with pytest.raises(ValueError):
        ollivier_global(sp)


def test_memoized_results_are_read_only(k3):
    with pytest.raises(ValueError):
        be_best_constant(k3, np.inf).k_best_per_point[0] = 42.0
    with pytest.raises(TypeError):
        ollivier_global(k3).kappa_pairs[(0, 1)] = 42.0
    assert be_best_constant(k3, np.inf).k_best_per_point[0] != 42.0
    assert ollivier_global(k3).kappa_global == pytest.approx(0.5, abs=1e-12)


def test_memo_entry_dies_with_its_space():
    sp = cycle(6)
    be_best_constant(sp, 2.0)
    ollivier_global(sp)
    spectral_gap(sp)
    assert len(_linalg._MEMO[sp]) == 21  # one entry per result, all on this space: BE and
    # the point groups and kernel square it reads (one entry), the decomposition,
    # the invariant blocks, the all-pairs curvature, its 15 pair curvatures and
    # the tree test of the transport dispatch
    kappa_global(sp)
    assert len(_linalg._MEMO[sp]) == 23  # the needed pairs and the global curvature; its
    # pair curvatures are the all-pairs ones, and the bounds are not kept
    ref = weakref.ref(sp)
    gc.collect()
    before = len(_linalg._MEMO)
    del sp
    gc.collect()
    assert ref() is None
    assert len(_linalg._MEMO) == before - 1


def test_positive_curvature_implies_ergodic(rng):
    for sp in random_spaces(10, rng, connected=False):
        if ollivier_global(sp).kappa_global > 0:
            assert is_ergodic(sp).ergodic


def test_several_blocks_never_report_positive_kappa(rng):
    # kappa > 0 implies ergodicity, so a union of invariant blocks has no
    # positive global curvature even when every block has one; only the
    # global value is pinned here, not a curvature per block
    blocks = []
    while len(blocks) < 8:
        sp = random_reversible_space(int(rng.integers(2, 6)), rng, density=0.8)
        if kappa_global(sp) > 0:
            blocks.append(sp)
    unions = [disjoint_union(make_k3(), make_k3())]
    unions += [disjoint_union(a, b) for a, b in zip(blocks[::2], blocks[1::2])]
    unions.append(disjoint_union(disjoint_union(blocks[0], blocks[1]), make_k3()))
    for sp in unions:
        assert not is_ergodic(sp).ergodic
        assert kappa_global(sp) <= 0.0
        assert ollivier_global(sp, "all_pairs").kappa_global <= 0.0
    assert kappa_global(unions[0]) == 0.0


# ---------------------------------------------------------------------------
# semigroup estimates


def test_gradient_estimate_at_best_constant(p3, k3):
    for sp in (p3, k3):
        k = be_best_constant(sp, np.inf).k_best_global
        assert gradient_estimate_check(sp, k, samples=100, rng=5) <= 1e-9


def test_gradient_estimate_vacuous_constant(p3):
    assert gradient_estimate_check(p3, -10.0, samples=20, rng=5) <= 1e-9


def test_gradient_estimate_fails_above_best_constant(p3):
    # the linear field is the extremal direction at the endpoints
    bad = gradient_estimate_check(p3, 1.5, samples=0, extra_fields=[np.array([0.0, 1.0, 2.0])])
    assert bad > 1e-6


def test_lipschitz_contraction_k3(k3):
    kap = ollivier_global(k3).kappa_global
    assert kap == pytest.approx(0.5, abs=1e-12)
    assert lipschitz_contraction_check(k3, samples=50, rng=11, kappa=kap) <= 1.0 + 1e-9


def test_lipschitz_nonexpansive_at_zero_curvature(p3):
    assert lipschitz_contraction_check(p3, samples=50, rng=11, kappa=0.0) <= 1.0 + 1e-9


def test_lipschitz_constant_fields_skipped(p3):
    # all-constant samples produce no ratio at all
    class _Rng:
        def standard_normal(self, n):
            return np.zeros(n)

    assert lipschitz_contraction_check(p3, samples=0, kappa=0.0) == 0.0


def test_w1_distribution_contraction(rng):
    for sp in (cycle(6), lazy_cycle(5, 0.4)):
        kap = ollivier_global(sp).kappa_global
        for _ in range(20):
            a = rng.uniform(0, 1, sp.n)
            b = rng.uniform(0, 1, sp.n)
            a /= a.sum()
            b /= b.sum()
            w0 = wasserstein(sp, a, b).cost
            for steps in (1, 2, 3):
                an = propagate_measure(sp, a, steps).values
                bn = propagate_measure(sp, b, steps).values
                wn = wasserstein(sp, an, bn).cost
                assert wn <= (1.0 - kap) ** steps * w0 + 1e-9
