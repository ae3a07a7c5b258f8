import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrws import (
    Space,
    StructuralError,
    Subset,
    convolve_kernel,
    propagate_measure,
    restrict_space,
    space_from_json,
    space_to_json,
    validate_space,
)
from mrws.connectivity import invariant_blocks
from mrws.core import TOL_METRIC, _float_array, _triangle_residual, shortest_path_metric
from mrws.builders import (cycle, disjoint_union, grid_kernel_neumann, p3 as make_p3, random_reversible_space,
                           two_block, two_block_halves)

import _oracles
from conftest import random_spaces


def test_p3_fixture_has_no_violations(p3):
    assert validate_space(p3).ok


def test_uniform_measure_on_p3_breaks_invariance(p3):
    wrong = Space(p3.labels, p3.metric, p3.kernel, np.full(3, 1.0 / 3.0))
    report = validate_space(wrong)
    bad = {c.axiom for c in report.violations}
    assert "invariance" in bad and "reversibility" in bad
    # hand evaluation of nu P - nu: (-1/6, 1/3, -1/6), so the max residual is 1/3
    assert report.residual("invariance") == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_one_point_space_is_valid():
    sp = Space(("o",), np.zeros((1, 1)), np.ones((1, 1)), np.ones(1))
    assert validate_space(sp).ok


def test_dimension_mismatch_is_structural():
    with pytest.raises(StructuralError):
        Space(("a", "b"), np.zeros((2, 2)), np.ones((2, 3)), np.ones(2))
    with pytest.raises(StructuralError):
        Space(("a", "b"), np.zeros((3, 3)), np.eye(2), np.ones(2))


def _relabelled_p3(labels):
    p3 = make_p3()
    return Space(tuple(labels), p3.metric, p3.kernel, p3.measure)


def test_an_integer_is_a_label_before_a_position():
    sp = _relabelled_p3((1, 0, 2))
    assert sp.index(2) == 2  # the label and the position name one point
    # 0 is the label of position 1 and position 0 itself, the point labelled 1
    with pytest.raises(StructuralError, match=r"ambiguous: it names point 1 \(label 0\) and point 0 \(label 1\)"):
        sp.index(0)
    with pytest.raises(StructuralError, match="ambiguous"):
        Subset.from_indices(sp, [0])
    sp = _relabelled_p3((10, 20, 30))
    assert [sp.index(p) for p in (20, 1, np.int64(30), np.int32(0))] == [1, 1, 2, 0]
    assert Subset.from_indices(sp, [20, 0]).mask.tolist() == [True, True, False]
    with pytest.raises(StructuralError, match="out of range"):
        sp.index(3)
    sp = _relabelled_p3(np.array([5, 0, 7]))  # numpy integer labels
    assert [sp.index(5), sp.index(np.int64(7)), sp.index(2), sp.index(1)] == [0, 2, 2, 1]
    with pytest.raises(StructuralError, match="ambiguous"):
        sp.index(0)
    sp = _relabelled_p3(("a", "b", "c"))
    assert [sp.index("b"), sp.index(1), sp.index(np.int64(2))] == [1, 1, 2]
    for bad in ("d", True):  # a bool is not a position
        with pytest.raises(StructuralError, match="unknown point"):
            sp.index(bad)


def test_an_integer_on_a_grid_is_a_position():
    grid = grid_kernel_neumann([(0, 1)], h=0.25, radius=0.3)  # labels 0.0, 0.25, ..., 1.0
    assert grid.index(1) == 1  # the float label 1.0 never captures position 1
    assert grid.index(1.0) == 4


def test_duplicate_labels_are_structural(p3):
    with pytest.raises(StructuralError, match="distinct"):
        Space(("a", "a", "c"), p3.metric, p3.kernel, p3.measure)
    with pytest.raises(StructuralError, match="distinct"):  # unhashable JSON labels
        Space(([0, "a"], [1, "a"], [0, "a"]), p3.metric, p3.kernel, p3.measure)
    obj = space_to_json(p3)
    obj["labels"] = ["a", "a", "c"]
    with pytest.raises(StructuralError, match="distinct"):
        space_from_json(obj)


def test_non_finite_measure_has_infinite_residual(p3):
    measured = ("invariance", "reversibility", "measure_positive")
    for bad in (np.nan, np.inf):
        sp = Space(p3.labels, p3.metric, p3.kernel, np.array([1.0, bad, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_space(sp)
        assert [report.residual(a) for a in measured] == [np.inf] * 3
        assert set(measured) <= {c.axiom for c in report.violations}
        assert all(np.isfinite(c.tolerance) for c in report.checks)


def test_metric_axiom_violations_are_reported(p3):
    d = p3.metric.copy()
    d[0, 2] = 5.0  # breaks symmetry and the triangle through b
    report = validate_space(Space(p3.labels, d, p3.kernel, p3.measure))
    bad = {c.axiom for c in report.violations}
    assert "metric_symmetric" in bad
    d[2, 0] = 5.0
    report = validate_space(Space(p3.labels, d, p3.kernel, p3.measure))
    assert "metric_triangle" in {c.axiom for c in report.violations}


def test_non_finite_residuals_are_violations(p3):
    # an infinite distance with no sentinel, and a NaN kernel entry: each
    # residual of no finite value reads inf and fails its axiom
    d = p3.metric.copy()
    d[0, 2] = d[2, 0] = np.inf
    P = p3.kernel.copy()
    P[1, 2] = np.nan
    for sp, axiom in ((Space(p3.labels, d, p3.kernel, p3.measure), "metric_triangle"),
                      (Space(p3.labels, p3.metric, P, p3.measure), "kernel_nonnegative")):
        with np.errstate(invalid="ignore"):
            report = validate_space(sp)
        assert report.residual(axiom) == np.inf
        assert axiom in {c.axiom for c in report.violations}
        assert not any(np.isnan(c.residual) for c in report.checks)
    # at a sentinel of inf the infinite pair is unreachable, not a violation
    with np.errstate(invalid="ignore"):
        report = validate_space(Space(p3.labels, d, p3.kernel, p3.measure, metric_sentinel=np.inf))
    assert report.residual("metric_triangle") == 0.0


def test_metric_tolerances_scale_by_the_finite_distances_below_the_sentinel(p3, k3):
    # an infinite distance at a sentinel of inf leaves the scale to the finite
    # distances, so a diagonal entry of 5 is a violation, not within tolerance inf
    d = p3.metric.copy()
    d[0, 2] = d[2, 0] = np.inf
    d[1, 1] = 5.0
    with np.errstate(invalid="ignore"):
        report = validate_space(Space(p3.labels, d, p3.kernel, p3.measure, metric_sentinel=np.inf))
    diag = next(c for c in report.checks if c.axiom == "metric_zero_diagonal")
    assert (diag.residual, diag.tolerance, diag.ok) == (5.0, TOL_METRIC * 5.0, False)
    # the cross distances of K3 and K3 sit at the sentinel 6, the rest at 1
    report = validate_space(disjoint_union(k3, k3))
    assert report.ok
    assert {c.axiom: c.tolerance for c in report.checks if c.axiom in ("metric_zero_diagonal", "metric_symmetric")} \
        == {"metric_zero_diagonal": TOL_METRIC, "metric_symmetric": TOL_METRIC}


def test_nan_distance_has_infinite_offdiag_residual(p3):
    # a NaN distance reads inf; a finite one keeps its residual
    residuals = []
    for value in (np.nan, 0.0, -0.5):
        d = p3.metric.copy()
        d[0, 1] = d[1, 0] = value
        with np.errstate(invalid="ignore"):
            report = validate_space(Space(p3.labels, d, p3.kernel, p3.measure))
        assert "metric_positive_offdiag" in {c.axiom for c in report.violations}
        residuals.append(report.residual("metric_positive_offdiag"))
    assert residuals == [np.inf, 0.0, 0.5]
    assert validate_space(p3).residual("metric_positive_offdiag") == 0.0


# ---------------------------------------------------------------------------
# convolve_kernel


def test_two_step_kernel_on_p3(p3):
    sq = convolve_kernel(p3, 2)
    expect = np.array([[0.5, 0, 0.5], [0, 1, 0], [0.5, 0, 0.5]])
    np.testing.assert_allclose(sq.kernel, expect, atol=1e-15)
    assert validate_space(sq).ok


def test_one_step_convolution_is_identity(p3):
    np.testing.assert_array_equal(convolve_kernel(p3, 1).kernel, p3.kernel)


def test_convolution_keeps_blocks_separated(two_block):
    left, right = two_block_halves(two_block)
    for n in (2, 5, 9):
        Pn = convolve_kernel(two_block, n).kernel
        assert Pn[np.ix_(left, right)].max() == 0.0


def test_zero_step_convolution_rejected(p3):
    with pytest.raises(ValueError):
        convolve_kernel(p3, 0)


def test_power_semigroup_on_random_spaces(rng):
    for sp in random_spaces(10, rng, n_hi=9):
        a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lhs = convolve_kernel(sp, a + b).kernel
        rhs = convolve_kernel(sp, a).kernel @ convolve_kernel(sp, b).kernel
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        assert validate_space(convolve_kernel(sp, a)).ok


# ---------------------------------------------------------------------------
# propagate_measure


def test_dirac_moves_one_step(p3):
    out = propagate_measure(p3, [1.0, 0.0, 0.0], 1)
    np.testing.assert_allclose(out.values, [0.0, 1.0, 0.0], atol=0)


def test_stationary_measure_is_fixed(p3):
    for steps in (1, 3, 17):
        out = propagate_measure(p3, p3.nu, steps)
        np.testing.assert_allclose(out.values, p3.nu, atol=1e-14)


def test_mass_stays_inside_block(two_block):
    left, right = two_block_halves(two_block)
    mu = left.astype(float)
    out = propagate_measure(two_block, mu, 50)
    assert out.values[right].max() == 0.0
    assert out.values.sum() == pytest.approx(mu.sum(), abs=1e-12)


def test_mass_conservation_many_steps(rng):
    for sp in random_spaces(5, rng):
        mu = rng.uniform(0, 2, sp.n)
        for steps in (1, 8, 64):
            out = propagate_measure(sp, mu, steps)
            assert abs(out.values.sum() - mu.sum()) <= 1e-12 * max(1.0, mu.sum())


def test_negative_mass_rejected(p3):
    with pytest.raises(ValueError):
        propagate_measure(p3, [-1.0, 0, 0], 1)


# ---------------------------------------------------------------------------
# restrict_space


def test_restrict_to_everything_is_identity(p3):
    sp = restrict_space(p3, np.ones(3, dtype=bool))
    np.testing.assert_array_equal(sp.kernel, p3.kernel)
    np.testing.assert_array_equal(sp.measure, p3.measure)


def test_restrict_p3_to_edge(p3):
    sp = restrict_space(p3, Subset.from_indices(p3, ["a", "b"]))
    np.testing.assert_allclose(sp.kernel, [[0, 1], [0.5, 0.5]], atol=0)
    np.testing.assert_allclose(sp.measure, [1.0, 2.0], atol=0)
    assert validate_space(sp).ok


def test_two_block_is_a_restriction_of_one_long_grid():
    big = grid_kernel_neumann([(-1.0, 3.0)], h=0.1, radius=1.0)
    keep = [i for i, x in enumerate(big.labels) if x <= 0.0 + 1e-9 or x >= 2.0 - 1e-9]
    restr = restrict_space(big, Subset.from_indices(big, keep))
    tb = two_block(0.1)
    np.testing.assert_allclose(restr.kernel, tb.kernel, atol=1e-15)
    np.testing.assert_allclose(restr.kernel.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(restr.nu, tb.nu, atol=1e-15)


def test_restrict_empty_rejected(p3):
    with pytest.raises(ValueError):
        restrict_space(p3, np.zeros(3, dtype=bool))


def test_restrictions_of_random_spaces_validate(rng):
    for sp in random_spaces(10, rng, n_lo=3):
        mask = rng.random(sp.n) < 0.6
        if not mask.any():
            mask[0] = True
        assert validate_space(restrict_space(sp, mask)).ok


def test_invariant_blocks_restrict_to_their_own_kernel():
    # no jump leaves a block, so its escape is exactly 0 and the restriction
    # keeps the kernel's bits; with the escape taken as 1 minus the row sum, 100
    # of these 264 blocks got a diagonal entry of -2.2e-16 and failed validation
    blocks = 0
    for s in range(200):
        sp = random_reversible_space(14, np.random.default_rng(s), density=0.25, connected=False)
        for block in invariant_blocks(sp).blocks:
            restr = restrict_space(sp, block)
            np.testing.assert_array_equal(restr.kernel, sp.kernel[np.ix_(block.indices, block.indices)])
            assert validate_space(restr).ok, (s, block.indices)
            blocks += 1
    assert blocks == 264


def test_k3_twice_restricts_to_k3(k3):
    sp = disjoint_union(k3, k3)
    for block in invariant_blocks(sp).blocks:
        restr = restrict_space(sp, block)
        for got, want in ((restr.kernel, k3.kernel), (restr.metric, k3.metric), (restr.measure, k3.measure)):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# generator and serialization


def test_random_generator_always_validates(rng):
    for sp in random_spaces(100, rng, n_hi=14, connected=bool(rng.random() < 0.8)):
        assert validate_space(sp).ok


def test_json_round_trip(p3):
    back = space_from_json(json.loads(json.dumps(space_to_json(p3))))
    assert back.labels == p3.labels
    np.testing.assert_allclose(back.kernel, p3.kernel, atol=0)
    np.testing.assert_allclose(back.metric, p3.metric, atol=0)
    np.testing.assert_allclose(back.measure, p3.measure, atol=0)
    assert validate_space(back).ok


def test_json_rows_renormalized_exactly(p3):
    obj = space_to_json(p3)
    obj["kernel"][1] = [0.5 + 2e-10, 0.0, 0.5]  # drift within the 1e-9 budget
    sp = space_from_json(obj)
    assert sp.kernel[1].sum() == 1.0


def test_json_bad_rows_rejected(p3):
    obj = space_to_json(p3)
    obj["kernel"][1] = [0.7, 0.0, 0.5]
    with pytest.raises(StructuralError):
        space_from_json(obj)


def test_json_requires_version(p3):
    obj = space_to_json(p3)
    del obj["version"]
    with pytest.raises(StructuralError):
        space_from_json(obj)
    obj["version"] = 2
    with pytest.raises(StructuralError):
        space_from_json(obj)


def test_json_graph_metric_reconstructed(p3):
    obj = space_to_json(p3)
    obj["metric"] = {"type": "graph_shortest_path"}
    sp = space_from_json(obj)
    np.testing.assert_array_equal(sp.metric, p3.metric)


_numbers = st.floats() | st.integers(-2 ** 1023, 2 ** 1023) | st.booleans()


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_numbers, min_size=1, max_size=8) | st.integers(0, 5).flatmap(
    lambda m: st.lists(st.lists(_numbers, min_size=m, max_size=m), min_size=1, max_size=5)))
@example(rows=[[]])
@example(rows=[[-0.0, 5e-324], [float("nan"), -float("inf")]])
def test_float_array_is_numpys_conversion(rows):
    # every input the struct packing accepts is read with numpy's bits: floats
    # with their sign of zero, NaN, infinities and subnormals, ints correctly
    # rounded up to 2^1023, bools as 0 and 1
    got, want = _float_array(rows, "x"), np.array(rows, dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [None, 1.0, [], [None], ["1.0"], [[[0.5]]], [1.0, [0.5]], [[1.0], 0.5],
                                  [[1.0, 0.0], [1.0]], [[1.0], [1.0, 0.0]], [[1.0], {}], [10 ** 400],
                                  [[1.0, "a"]], [[1.0, None]]])
def test_float_array_refuses_what_is_not_a_number(rows):
    with pytest.raises(StructuralError, match="^x must be a non-empty list"):
        _float_array(rows, "x")


def test_space_without_an_explicit_matrix_is_structural(p3):
    obj = space_to_json(p3)
    del obj["metric"]["matrix"]
    with pytest.raises(StructuralError, match="metric.matrix"):
        space_from_json(obj)


def _dense_route_metric(kernel):
    """The graph metric by scipy's dense input route, with the same sentinel rule."""
    from scipy.sparse.csgraph import shortest_path

    n = kernel.shape[0]
    support = (kernel > 0) | (kernel.T > 0)
    np.fill_diagonal(support, False)
    dist = shortest_path(support.astype(float), method="D", directed=False, unweighted=True)
    finite = np.isfinite(dist)
    if finite.all():
        return dist, None
    off = dist[finite & ~np.eye(n, dtype=bool)]
    sentinel = n * max(float(off.max()) if off.size else 1.0, 1.0)
    return np.where(finite, dist, sentinel), sentinel


def test_graph_metric_matches_the_dense_route(rng):
    kernels = [sp.kernel for sp in random_spaces(10, rng, n_lo=1, n_hi=30)]
    kernels += [sp.kernel for sp in random_spaces(10, rng, n_lo=2, n_hi=30, connected=False)]
    kernels += [np.eye(4), np.zeros((3, 3)), two_block(0.1).kernel]  # no edge at all; two blocks
    # long diameters, which take the most squarings: a 300-point path, cycles,
    # a cycle beside a path; and the sizes 0 and 1
    path = random_reversible_space(300, np.random.default_rng(1), density=0.0).kernel
    kernels += [path, cycle(50).kernel, disjoint_union(cycle(9), make_p3()).kernel, np.zeros((0, 0)), np.ones((1, 1))]
    disconnected = 0
    for kernel in kernels:
        dist, sentinel = shortest_path_metric(kernel)
        expect, expect_sentinel = _dense_route_metric(kernel)
        np.testing.assert_array_equal(dist, expect)
        assert dist.dtype == np.float64 and sentinel == expect_sentinel
        disconnected += sentinel is not None
    assert disconnected >= 3
    assert shortest_path_metric(path)[0].max() == 299.0
    assert shortest_path_metric(np.zeros((0, 0)))[0].shape == (0, 0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 0.5),
       isolated=st.floats(0.0, 0.5), directed=st.booleans())
@example(n=0, seed=0, density=0.0, isolated=0.0, directed=False)
def test_graph_metric_is_scipy_on_random_supports(n, seed, density, isolated, directed):
    # a random support, symmetric or not (the metric reads it symmetrized),
    # with self-loops, which are no edge, and some points cut off entirely
    rng = np.random.default_rng(seed)
    support = rng.random((n, n)) < density
    if not directed:
        support = np.triu(support) | np.triu(support).T
    cut = rng.random(n) < isolated
    support[cut] = support[:, cut] = False
    support |= np.diag(rng.random(n) < 0.5)
    kernel = support * rng.uniform(0.5, 1.5, (n, n))
    dist, sentinel = shortest_path_metric(kernel)
    expect, expect_sentinel = _dense_route_metric(kernel)
    assert np.array_equal(dist, expect) and sentinel == expect_sentinel


def test_spaces_are_immutable(p3):
    with pytest.raises(ValueError):
        p3.kernel[0, 0] = 1.0
    sp = random_reversible_space(5, np.random.default_rng(1))
    with pytest.raises(ValueError):
        sp.measure[0] = 2.0
    # the normalized measure is computed once, read-only and never replaced
    nu = sp.nu
    assert sp.nu is nu
    np.testing.assert_array_equal(nu, sp.measure / sp.measure.sum())
    with pytest.raises(ValueError):
        nu[0] = 1.0
    with pytest.raises(AttributeError):  # a frozen space
        sp.nu = nu.copy()
    assert sp.nu is nu


_ODD_ENTRIES = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1), stretch=st.booleans(),
       cut=st.integers(0, 3), sentinel=st.sampled_from(["graph", None, 0.5, np.inf, np.nan]),
       odd=st.lists(st.tuples(st.integers(0, 48), st.sampled_from(_ODD_ENTRIES)), max_size=4))
@example(n=0, seed=0, stretch=False, cut=0, sentinel=None, odd=[])
@example(n=1, seed=0, stretch=False, cut=0, sentinel=None, odd=[])
@example(n=1, seed=0, stretch=False, cut=0, sentinel="graph", odd=[(0, np.nan)])
@example(n=3, seed=1, stretch=True, cut=3, sentinel="graph",  # a NaN and an -inf leg: inf
         odd=[(0, np.nan), (6, -np.inf)])
def test_triangle_residual_is_the_loop_to_the_bit(n, seed, stretch, cut, sentinel, odd):
    # a Euclidean metric, stretched entrywise to break triangles, with pairs
    # cut off at a graph sentinel and entries that are NaN, infinite or huge
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, 2))
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    if stretch:
        d = d * rng.uniform(0.5, 1.5, d.shape)
    if sentinel == "graph":
        sentinel = n * max(1.0, float(d.max(initial=0.0)))
        for _ in range(cut if n else 0):
            i, k = rng.integers(n, size=2)
            d[i, k] = d[k, i] = sentinel
    for at, value in odd:
        if n:
            d[divmod(at % (n * n), n)] = value
    with np.errstate(all="ignore"):
        assert _triangle_residual(d, sentinel) == _oracles.triangle_residual_loop(d, sentinel)
