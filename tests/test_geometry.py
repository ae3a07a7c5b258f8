import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrws import (
    Space,
    _linalg,
    Subset,
    cheeger,
    coarea_decompose,
    dirichlet_energy,
    geometry,
    interaction,
    mean_curvature,
    median_shift,
    min_bipartition_interaction,
    perimeter,
    spectral_gap,
    total_variation,
)
from mrws.builders import (
    cycle,
    disjoint_union,
    k3 as make_k3,
    lazy_cycle,
    linear_chain,
    p3 as make_p3,
    random_reversible_space,
    two_block,
    two_block_halves,
)

import _oracles
from conftest import random_spaces


def _normalized(space):
    return space.measure / space.measure.sum()


def test_interaction_on_p3(p3):
    a = Subset.from_indices(p3, ["a"])
    b = Subset.from_indices(p3, ["b"])
    assert interaction(p3, a, b) == pytest.approx(0.25, abs=1e-15)


def test_interaction_of_whole_space(p3):
    full = np.ones(3, dtype=bool)
    assert interaction(p3, full, full) == pytest.approx(1.0, abs=1e-12)


def test_interaction_across_blocks_vanishes(two_block):
    left, right = two_block_halves(two_block)
    assert interaction(two_block, left, right) == 0.0


def test_interaction_symmetry(rng):
    for sp in random_spaces(10, rng):
        a = rng.random(sp.n) < 0.5
        b = rng.random(sp.n) < 0.5
        assert interaction(sp, a, b) == pytest.approx(interaction(sp, b, a), abs=1e-12)


def test_perimeter_p3_singleton(p3):
    e = Subset.from_indices(p3, ["a"])
    assert perimeter(p3, e) == pytest.approx(0.25, abs=1e-15)
    assert perimeter(p3, e) == pytest.approx(_oracles.perimeter_loops(p3, e.mask), abs=1e-15)


def test_perimeter_trivial_sets(p3):
    assert perimeter(p3, np.zeros(3, dtype=bool)) == 0.0
    assert perimeter(p3, np.ones(3, dtype=bool)) == 0.0


def test_perimeter_complement_identity(rng):
    for sp in random_spaces(10, rng):
        e = rng.random(sp.n) < 0.5
        assert perimeter(sp, e) == pytest.approx(perimeter(sp, ~e), abs=1e-12)
        # P(E) = nu(E) - L(E, E)
        nu_e = float(_normalized(sp)[e].sum())
        assert perimeter(sp, e) == pytest.approx(nu_e - interaction(sp, e, e), abs=1e-12)


def test_graph_perimeter_is_edge_cut(rng):
    # on a degree-normalized graph walk: P(E) * total degree = cut weight
    for _ in range(20):
        n = int(rng.integers(3, 10))
        sp = None
        from mrws.builders import random_reversible_space

        sp = random_reversible_space(n, rng, density=0.7)
        W = sp.kernel * sp.measure[:, None]  # recover the symmetric weights
        e = rng.random(n) < 0.5
        cut = W[np.ix_(e, ~e)].sum()
        assert perimeter(sp, e) * sp.measure.sum() == pytest.approx(cut, rel=1e-10, abs=1e-12)


def test_tv_on_p3(p3):
    assert total_variation(p3, [1.0, 0.0, 0.0]) == pytest.approx(0.25, abs=1e-15)
    assert total_variation(p3, np.full(3, 3.3)) == 0.0


@settings(max_examples=50, deadline=None)
@given(mask=arrays(bool, 6))
def test_tv_of_indicator_is_perimeter(mask):
    sp = cycle(6)
    assert total_variation(sp, mask.astype(float)) == pytest.approx(perimeter(sp, mask), abs=1e-14)


def test_tv_matches_loop_oracle(rng):
    for sp in random_spaces(10, rng):
        u = rng.standard_normal(sp.n)
        assert total_variation(sp, u) == pytest.approx(_oracles.total_variation_loops(sp, u), abs=1e-12)


# ---------------------------------------------------------------------------
# coarea


def test_coarea_p3_indicator(p3):
    levels = coarea_decompose(p3, [1.0, 0.0, 0.0])
    assert len(levels) == 1
    lv = levels[0]
    assert lv.width == 1.0
    np.testing.assert_array_equal(lv.level_set.mask, [True, False, False])
    assert lv.perimeter == pytest.approx(0.25, abs=1e-15)


def test_coarea_constant_field(p3):
    assert coarea_decompose(p3, np.full(3, 2.0)) == []


def test_coarea_identity_random(rng):
    for sp in random_spaces(20, rng, connected=False):
        u = rng.standard_normal(sp.n)
        levels = coarea_decompose(sp, u)
        total = sum(lv.perimeter * lv.width for lv in levels)
        assert abs(total - total_variation(sp, u)) <= 1e-12 * max(1.0, abs(total))


# ---------------------------------------------------------------------------
# mean curvature


def test_curvature_of_whole_space(p3):
    np.testing.assert_array_equal(mean_curvature(p3, np.ones(3, dtype=bool)).values, -1.0)


def test_curvature_p3_singleton(p3):
    h = mean_curvature(p3, Subset.from_indices(p3, ["a"])).values
    np.testing.assert_allclose(h, [1.0, 0.0, 1.0], atol=0)


def test_curvature_integral_identity(rng):
    for sp in random_spaces(20, rng, connected=False):
        e = rng.random(sp.n) < 0.5
        h = mean_curvature(sp, e).values
        nu = _normalized(sp)
        lhs = float(nu[e] @ h[e])
        rhs = 2.0 * perimeter(sp, e) - float(nu[e].sum())
        assert abs(lhs - rhs) <= 1e-12


def test_harmonic_block_has_most_negative_mean_curvature(two_block):
    left, _ = two_block_halves(two_block)
    h = mean_curvature(two_block, left).values
    nu = _normalized(two_block)
    assert float(nu[left] @ h[left]) == pytest.approx(-float(nu[left].sum()), abs=1e-14)


# ---------------------------------------------------------------------------
# medians


def test_median_p3(p3):
    res = median_shift(p3, [1.0, 0.0, 0.0])
    assert res.median == 0.0
    assert res.interval == (0.0, 0.0)
    np.testing.assert_array_equal(res.shifted.values, [1.0, 0.0, 0.0])


def test_median_constant(p3):
    res = median_shift(p3, np.full(3, 4.2))
    assert res.median == 4.2
    assert res.interval == (4.2, 4.2)


def test_median_two_point_interval():
    from mrws import from_markov_kernel

    sp = from_markov_kernel([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
    res = median_shift(sp, [0.0, 1.0])
    assert res.interval == (0.0, 1.0)
    assert res.median == 0.5


def test_median_defining_property(rng):
    for sp in random_spaces(30, rng, connected=False):
        u = rng.standard_normal(sp.n)
        res = median_shift(sp, u)
        nu = _normalized(sp)
        for m in {res.median, *res.interval}:
            assert float(nu[u < m].sum()) <= 0.5 + 1e-12
            assert float(nu[u > m].sum()) <= 0.5 + 1e-12
        # zero is a median of the shifted field
        s = res.shifted.values
        assert float(nu[s < 0].sum()) <= 0.5 + 1e-12
        assert float(nu[s > 0].sum()) <= 0.5 + 1e-12


# ---------------------------------------------------------------------------
# Cheeger


def test_cheeger_p3_exact(p3):
    res = cheeger(p3, mode="exact")
    assert res.exact
    assert res.lower == res.upper == 1.0
    assert 0 < _normalized(p3)[res.witness_set.mask].sum() <= 0.5


def test_cheeger_two_block(two_block):
    res = cheeger(two_block, mode="exact")
    assert res.upper == 0.0
    left, right = two_block_halves(two_block)
    assert (np.array_equal(res.witness_set.mask, left) or np.array_equal(res.witness_set.mask, right))


def test_cheeger_matches_bruteforce(rng):
    for sp in random_spaces(10, rng, n_hi=7, connected=False):
        res = cheeger(sp, mode="exact")
        assert res.upper == pytest.approx(_oracles.cheeger_bruteforce(sp), abs=1e-12)
        # the witness achieves the reported ratio
        nu_w = _normalized(sp)[res.witness_set.mask].sum()
        ratio = perimeter(sp, res.witness_set) / min(nu_w, 1 - nu_w)
        assert ratio == pytest.approx(res.upper, abs=1e-12)


def test_exact_cheeger_names_a_non_finite_kernel(p3):
    nan_kernel = Space(p3.labels, p3.metric, np.full((3, 3), np.nan), p3.measure)
    nan_measure = Space(p3.labels, p3.metric, p3.kernel, [np.nan, 1.0, 1.0])
    for sp in (nan_kernel, nan_measure):
        with pytest.raises(ValueError, match="no bipartition has a finite Cheeger ratio.*non-finite"):
            cheeger(sp, mode="exact")


def test_exact_mode_size_guard():
    from mrws.builders import random_reversible_space

    sp = random_reversible_space(25, np.random.default_rng(0))
    with pytest.raises(ValueError, match="sweep"):
        cheeger(sp, mode="exact")


def test_sweep_brackets_exact(rng):
    for sp in random_spaces(8, rng, n_lo=4, n_hi=12):
        exact = cheeger(sp, mode="exact")
        sw = cheeger(sp, mode="sweep")
        assert sw.upper >= exact.upper - 1e-12
        assert sw.lower <= exact.upper + 1e-12
        assert not sw.exact


def test_linear_chain_sweep_bound():
    up12 = cheeger(linear_chain(12), mode="sweep").upper
    assert up12 < 0.2
    ups = [cheeger(linear_chain(N), mode="sweep").upper for N in (5, 8, 12, 15)]
    assert all(a > b for a, b in zip(ups, ups[1:]))
    # cross-check the sweep against enumeration on a small chain
    lc7 = linear_chain(7)
    assert cheeger(lc7, mode="sweep").upper == pytest.approx(cheeger(lc7, mode="exact").upper, rel=1e-9)


def test_variational_characterization(rng):
    for sp in random_spaces(4, rng, n_lo=4, n_hi=10):
        h = cheeger(sp, mode="exact").upper
        nu = _normalized(sp)
        for _ in range(50):
            u = rng.standard_normal(sp.n)
            u = median_shift(sp, u).shifted.values
            norm = float(nu @ np.abs(u))
            if norm < 1e-12:
                continue
            u = u / norm
            assert total_variation(sp, u) >= h - 1e-10
        # equality at the normalized witness indicator
        w = cheeger(sp, mode="exact").witness_set.mask
        u = w.astype(float) / float(nu[w].sum())
        assert total_variation(sp, u) == pytest.approx(h, rel=1e-12)


def test_cheeger_inequality(rng):
    spaces = random_spaces(20, rng, n_hi=10) + [make_p3(), cycle(6), linear_chain(4)]
    for sp in spaces:
        h = cheeger(sp, mode="exact").upper
        gap = spectral_gap(sp).gap
        assert h * h / 2.0 <= gap + 1e-10
        assert gap <= 2.0 * h + 1e-10


def test_isoperimetric_poincare_bridge(rng):
    spaces = random_spaces(10, rng, n_hi=10, connected=False)
    from mrws.builders import two_block

    spaces += [make_p3(), two_block(0.1)]
    for sp in spaces:
        if sp.n < 2:
            continue
        h = cheeger(sp, mode="exact").upper
        gap = spectral_gap(sp).gap
        assert (h > 1e-12) == (gap > 1e-12)


def test_half_measure_minimizer_identities():
    sp = cycle(4)
    nu = _normalized(sp)
    # adjacent pair: measure 1/2, achieves the Cheeger constant
    a = np.array([True, True, False, False])
    assert nu[a].sum() == pytest.approx(0.5, abs=0)
    res = cheeger(sp, mode="exact")
    pa = perimeter(sp, a)
    assert pa / 0.5 == pytest.approx(res.upper, abs=1e-15)
    u = np.where(a, 1.0, -1.0)
    assert total_variation(sp, u) == pytest.approx(2.0 * pa, abs=1e-14)
    assert dirichlet_energy(sp, u) == pytest.approx(4.0 * pa, abs=1e-14)


# ---------------------------------------------------------------------------
# the blocked bipartition scan


def _assert_matches_chunked_oracle(sp):
    ratio, _ = _oracles.cheeger_chunked(sp)
    res = cheeger(sp, mode="exact")
    n, nu, eps = sp.n, sp.nu, np.finfo(float).eps
    # the oracle's b.q - b.Q.b cancels; this is that formula's own error bound
    assert abs(res.upper - ratio) <= 4e-12 * ratio + 32 * n * eps / nu[-1]
    # the witness attains the reported ratio, recomputed without cancellation
    mask = res.witness_set.mask
    cut = math.fsum((nu[:, None] * sp.kernel)[np.ix_(mask, ~mask)].ravel())
    witness_ratio = cut / min(math.fsum(nu[mask]), math.fsum(nu[~mask]))
    if witness_ratio == 0.0:
        assert res.upper == 0.0
    else:
        assert abs(res.upper - witness_ratio) <= 4 * n * eps * witness_ratio


def _relabelled(space, seed):
    perm = np.random.default_rng(seed).permutation(space.n)
    return Space(tuple(range(space.n)), space.metric[np.ix_(perm, perm)],
                 space.kernel[np.ix_(perm, perm)], space.measure[perm], space.metric_sentinel)


# At the default 13 low bits the walk over the high block first runs at
# n = 15, and at 16 at n = 18; fewer make it run on small spaces, and 1 gives
# the deepest tree. TwoBlock (n = 22) stops at its first zero cut, in the
# first high pattern at 10 and 13 low bits and within 2**12 patterns at 1. In
# the relabelled 18-cycles, tied half arcs lie in several high patterns, and
# the witness may be a half arc other than the oracle's.
_BUILDS = {
    "cycle8": (lambda: cycle(8), [1, 3, 13, 16]),
    "cycle12": (lambda: cycle(12), [1, 3, 13, 16]),
    "K3": (make_k3, [1, 3, 13, 16]),
    "TwoBlock": (lambda: two_block(0.1), [1, 10, 13, 16]),
    "relabelled-cycle18": (lambda: _relabelled(cycle(18), 2), [1, 13, 16]),
    "relabelled-lazy-cycle18": (lambda: _relabelled(lazy_cycle(18, 0.3), 2), [1, 13, 16]),
}


@pytest.mark.parametrize("build, low_bits", [
    (build, low_bits) for build, bits in _BUILDS.values() for low_bits in bits
], ids=[f"{name}-{low_bits}" for name, (_, bits) in _BUILDS.items() for low_bits in bits])
def test_exact_cheeger_matches_chunked_oracle(build, low_bits, monkeypatch):
    monkeypatch.setattr(geometry, "_LOW_BITS", low_bits)
    _assert_matches_chunked_oracle(build())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 2**32 - 1), connected=st.booleans(),
       low_bits=st.sampled_from([1, 3, 13, 16]))
def test_exact_cheeger_matches_chunked_oracle_property(n, seed, connected, low_bits):
    sp = random_spaces(1, np.random.default_rng(seed), n_lo=n, n_hi=n, connected=connected)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_LOW_BITS", low_bits)
        _assert_matches_chunked_oracle(sp)


@pytest.mark.parametrize("n", [12, 18, 20, 22])
def test_exact_cheeger_on_cycle_is_the_exact_rational(n):
    # a half arc cuts two edges of mass 1/(2n) each and has mass 1/2
    assert cheeger(cycle(n), mode="exact").upper == 2 / n


def _least_perimeter(sp):
    masks = (np.array([(code >> i) & 1 for i in range(sp.n)], dtype=bool)
             for code in range(1, 2 ** (sp.n - 1)))
    return min(_oracles.perimeter_loops(sp, m) for m in masks)


@pytest.mark.parametrize("low_bits", [1, 3, 13, 16])
def test_min_bipartition_interaction_is_least_perimeter(low_bits, rng, monkeypatch):
    monkeypatch.setattr(geometry, "_LOW_BITS", low_bits)
    spaces = random_spaces(12, rng, n_lo=2, n_hi=9, connected=False) + [cycle(8), make_k3()]
    unions = [disjoint_union(make_k3(), make_k3())]
    unions += [disjoint_union(*random_spaces(2, rng, n_lo=1, n_hi=5)) for _ in range(6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the empty set is skipped, never divided 0/0
        for sp in spaces + unions:
            value = min_bipartition_interaction(sp)
            assert value == pytest.approx(_least_perimeter(sp), rel=1e-12, abs=1e-15)
            cheeger(sp, mode="exact")
        for sp in unions:
            assert _least_perimeter(sp) == 0.0
            assert min_bipartition_interaction(sp) == 0.0
            assert cheeger(sp, mode="exact").upper == 0.0


def test_min_bipartition_interaction_on_two_block():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert min_bipartition_interaction(two_block(0.1)) == 0.0


def _scan(sp):
    """The full scan's yields as (subset ids, cut, mass), copied: it rewrites
    its arrays before each yield."""
    return [(lo + low, cut.copy(), mass.copy()) for lo, low, cut, mass in geometry._bipartition_scan(sp)]


def _mask(code, n):
    return np.array([(code >> i) & 1 for i in range(n)], dtype=bool)


@pytest.mark.parametrize("n", range(2, 13))
def test_bipartition_scan_covers_every_id_once_with_exact_sums(n, monkeypatch):
    rng = np.random.default_rng(n)
    spaces = random_spaces(1, rng, n_lo=n, n_hi=n)
    # a disjoint union, each of whose invariant sets must come out with a cut of exactly 0
    spaces.append(disjoint_union(random_spaces(1, rng, n_lo=n // 2, n_hi=n // 2, connected=False)[0],
                                 random_spaces(1, rng, n_lo=n - n // 2, n_hi=n - n // 2)[0]))
    eps = np.finfo(float).eps
    for sp in spaces:
        nu = _normalized(sp)
        codes = range(1, 2 ** (n - 1))
        ref_cut = [_oracles.perimeter_loops(sp, _mask(c, n)) for c in codes]
        ref_mass = [math.fsum(nu[_mask(c, n)]) for c in codes]
        for low_bits in sorted({1, 3, 13, n - 1}):
            monkeypatch.setattr(geometry, "_LOW_BITS", low_bits)
            ids, cuts, masses = [], [], []
            for block, cut, mass in _scan(sp):
                ids.extend(block.tolist())
                cuts.extend(cut)
                masses.extend(mass)
            assert ids == list(codes)  # ascending, each proper subset id once
            for got, want in zip(cuts, ref_cut):
                assert abs(got - want) <= 4 * n * eps * want  # exactly 0 where the cut is
            for got, want in zip(masses, ref_mass):
                assert abs(got - want) <= 4 * n * eps * want


def _full_scan_cheeger(sp):
    """Least ratio over every yield of the full scan and the lowest id
    attaining it, and the least cut."""
    best, best_id, least_cut = np.inf, None, np.inf
    for lo, low, cut, mass in geometry._bipartition_scan(sp):
        ratio = cut / np.minimum(mass, 1.0 - mass)
        j = int(np.argmin(ratio))
        if ratio[j] < best:
            best, best_id = float(ratio[j]), lo + int(low[j])
        least_cut = min(least_cut, float(cut.min()))
    return best, best_id, least_cut


def _assert_pruned_is_full_scan(sp):
    """Exact cheeger and min_bipartition_interaction, which prune, give the
    full scan's least ratio and cut and its lowest-id witness, bit for bit."""
    ratio, code, least_cut = _full_scan_cheeger(sp)
    mask = _mask(code, sp.n)
    if _normalized(sp)[mask].sum() > 0.5:
        mask = ~mask
    res = cheeger(sp, mode="exact")
    assert res.upper.hex() == ratio.hex()
    np.testing.assert_array_equal(res.witness_set.mask, mask)
    assert min_bipartition_interaction(sp).hex() == least_cut.hex()


def _no_eigh(space):
    raise AssertionError("no eigendecomposition expected")


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["random", "weak link", "relabelled cycle", "relabelled lazy cycle"]),
       n=st.integers(2, 20), seed=st.integers(0, 2**32 - 1), connected=st.booleans(),
       low_bits=st.sampled_from([1, 3, 13, 16]))
def test_pruned_exact_cheeger_is_the_full_scan(kind, n, seed, connected, low_bits):
    rng = np.random.default_rng(seed)
    if kind == "random":
        sp = random_spaces(1, rng, n_lo=n, n_hi=n, connected=connected)[0]
    elif kind == "weak link":  # a least ratio near 1e-200, or 0 where a side is disconnected
        m = int(rng.integers(1, n))
        a, b = (random_spaces(1, rng, n_lo=size, n_hi=size, connected=connected)[0] for size in (m, n - m))
        sp = _relabelled(_weakly_linked(a, b, 1e-200), seed)
    else:  # tied half arcs in several high patterns
        base = cycle(max(n, 3)) if kind == "relabelled cycle" else lazy_cycle(max(n, 3), 0.3)
        sp = _relabelled(base, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_LOW_BITS", low_bits)
        _assert_pruned_is_full_scan(sp)
        # a NaN measure leaves no finite ratio: the same refusal, and no eigendecomposition for a seed
        mp.setattr(_linalg, "decomposition", _no_eigh)
        measure = np.array(sp.measure)
        measure[int(rng.integers(sp.n))] = np.nan
        with pytest.raises(ValueError, match="no bipartition has a finite Cheeger ratio.*non-finite"):
            cheeger(Space(sp.labels, sp.metric, sp.kernel, measure, sp.metric_sentinel), mode="exact")


@pytest.mark.parametrize("low_bits", [1, 3, 13])
def test_pruned_walk_keeps_sets_that_leave_out_the_low_block(low_bits, monkeypatch):
    # a K3 placed right after the low block, cut off from the rest, which holds
    # points 0 and n - 1: every zero-ratio set has low pattern 0, so the bounds
    # must not read that pattern of the first node as the empty set
    monkeypatch.setattr(geometry, "_LOW_BITS", low_bits)
    rest = random_spaces(1, np.random.default_rng(low_bits), n_lo=15, n_hi=15)[0]
    u = disjoint_union(make_k3(), rest)
    w = min(low_bits, u.n - 1)
    order = [*range(3, 3 + w), 0, 1, 2, *range(3 + w, u.n)]  # position i holds point order[i]
    sp = Space(tuple(range(u.n)), u.metric[np.ix_(order, order)], u.kernel[np.ix_(order, order)],
               u.measure[order], u.metric_sentinel)
    _assert_pruned_is_full_scan(sp)
    res = cheeger(sp, mode="exact")
    assert res.upper == 0.0 and res.witness_set.indices.tolist() == [w, w + 1, w + 2]


@pytest.mark.parametrize("density", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("seed", [0, 1])
def test_pruned_exact_cheeger_is_the_full_scan_at_n24(density, seed):
    _assert_pruned_is_full_scan(random_reversible_space(24, np.random.default_rng(seed), density=density))


def _counted(scan, pulled, full=False):
    """The scan, recording the first id of each pattern it yields; with
    ``full`` it drops the caller's limit, so the caller runs the full walk."""
    def counted(space, limit=None, ratio=False):
        for item in scan(space, None if full else limit, ratio):
            pulled.append(item[0])
            yield item

    return counted


# patterns the pruned walks of cheeger and min_bipartition_interaction yield on
# each space of the test below, in turn: the sweep seeds cheeger's limit with a
# zero ratio, while the cut-only walk starts from its first pattern's least cut
_PRUNED_TO_FIRST_ZERO = {
    1: [1, 4, 1, 3, 1, 2, 1, 3, 1, 3, 1, 1, 1, 4, 1, 3, 1, 5],
    3: [1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 1, 3, 1, 3, 1, 3],
    13: [1] * 20,
}


@pytest.mark.parametrize("low_bits", [1, 3, 13])
def test_exact_scans_stop_at_their_first_zero(low_bits, rng, monkeypatch):
    monkeypatch.setattr(geometry, "_LOW_BITS", low_bits)
    spaces = [disjoint_union(make_k3(), make_k3())]
    spaces += [disjoint_union(*random_spaces(2, rng, n_lo=1, n_hi=7, connected=False)) for _ in range(8)]
    if low_bits == 13:
        spaces.append(two_block(0.1))
    full = [_full_scan_cheeger(sp)[:2] for sp in spaces]
    scan = geometry._bipartition_scan
    counts = []
    for sp, (ratio, code) in zip(spaces, full):
        assert ratio == 0.0
        mask = _mask(code, sp.n)
        if _normalized(sp)[mask].sum() > 0.5:
            mask = ~mask
        stop = (code >> low_bits) + 1  # patterns up to the one holding the first zero
        for walk in ("full", "pruned"):
            pulled = []
            monkeypatch.setattr(geometry, "_bipartition_scan", _counted(scan, pulled, walk == "full"))
            res = cheeger(sp, mode="exact")
            assert res.upper == res.lower == 0.0
            np.testing.assert_array_equal(res.witness_set.mask, mask)
            first = len(pulled)
            assert min_bipartition_interaction(sp) == 0.0  # a zero cut is a zero ratio
            for got in (pulled[:first], pulled[first:]):
                if walk == "full":
                    assert len(got) == stop
                else:  # ascending, none after the first zero's pattern, and that one reached
                    assert got == sorted(set(got)) and got[-1] >> low_bits == stop - 1
                    counts.append(len(got))
    if low_bits == 13:  # TwoBlock, the last space: its first zero lies in the first of 2**8 patterns
        assert (sp.n, stop) == (22, 1)
    assert counts == _PRUNED_TO_FIRST_ZERO[low_bits]


def _weakly_linked(a, b, weight):
    """Union of a and b joined by one edge of the given interaction mass."""
    u = disjoint_union(a, b)
    W = u.nu[:, None] * u.kernel
    W[a.n - 1, a.n] = W[a.n, a.n - 1] = weight
    deg = W.sum(axis=1)
    return Space(u.labels, u.metric, W / deg[:, None], deg, u.metric_sentinel)


# patterns cheeger's and min_bipartition_interaction's pruned walks yield below
_PRUNED_ABOVE_ZERO = {1: [1, 22], 3: [1, 8], 13: [1, 2]}


@pytest.mark.parametrize("low_bits", [1, 3, 13])
def test_exact_scans_run_to_the_end_above_zero(low_bits, monkeypatch):
    monkeypatch.setattr(geometry, "_LOW_BITS", low_bits)
    sp = _weakly_linked(cycle(6), cycle(9), 1e-200)  # least ratio ~1e-200, in the first pattern
    ratio, code, least_cut = _full_scan_cheeger(sp)
    assert 0.0 < ratio < 1e-199 and code == 2 ** 6 - 1
    scan = geometry._bipartition_scan
    every = 2 ** max(sp.n - 1 - low_bits, 0)
    counts = []
    for walk in ("full", "pruned"):
        pulled = []
        monkeypatch.setattr(geometry, "_bipartition_scan", _counted(scan, pulled, walk == "full"))
        res = cheeger(sp, mode="exact")
        assert res.upper == ratio
        np.testing.assert_array_equal(res.witness_set.mask, _mask(code, sp.n))
        counts.append(len(pulled))
        pulled.clear()
        assert min_bipartition_interaction(sp) == least_cut
        counts.append(len(pulled))
    # the full walk pulls every pattern. Seeded at the least ratio, cheeger's pruned
    # walk yields only the pattern holding it; the cut-only walk yields those whose
    # cut ties the least one found so far, 1/15 (an arc of a cycle) until the weak link
    assert counts == [every, every] + _PRUNED_ABOVE_ZERO[low_bits]
