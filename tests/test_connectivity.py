import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from mrws import (
    Space,
    Subset,
    disjoint_union,
    invariant_blocks,
    is_ergodic,
    is_m_connected,
    min_bipartition_interaction,
    reachability,
    spectral_gap,
)
from mrws.builders import lazy_cycle, two_block_halves

from _oracles import invariant_blocks_scc
from conftest import random_spaces


def test_reachability_on_p3(p3):
    res = reachability(p3, Subset.from_indices(p3, ["a"]))
    assert res.n_set.size == 0
    assert res.h_set.size == 3
    # least k >= 1 with positive k-step mass on {a}: a needs the round trip a-b-a
    np.testing.assert_array_equal(res.first_hit, [2, 1, 2])


def test_reachability_two_block(two_block):
    left, right = two_block_halves(two_block)
    res = reachability(two_block, Subset(two_block, left))
    np.testing.assert_array_equal(res.n_set.mask, right)
    assert (res.first_hit[right] == -1).all()
    assert (res.first_hit[left] >= 1).all()


def test_whole_space_always_hit(rng):
    for sp in random_spaces(10, rng, connected=False):
        res = reachability(sp, np.ones(sp.n, dtype=bool))
        assert res.n_set.size == 0
        assert (res.first_hit == 1).all()  # rows are stochastic, so one step suffices


def test_empty_target_rejected(p3):
    with pytest.raises(ValueError):
        reachability(p3, np.zeros(3, dtype=bool))


def test_target_contained_in_hit_set(rng):
    for sp in random_spaces(20, rng, connected=False):
        d = rng.random(sp.n) < 0.4
        if not d.any():
            d[0] = True
        res = reachability(sp, d)
        assert not (d & res.n_set.mask).any()  # reversible full-support: D never transient


def test_no_leakage_from_n_set(rng):
    for sp in random_spaces(20, rng, connected=False):
        d = np.zeros(sp.n, dtype=bool)
        d[0] = True
        res = reachability(sp, d)
        if res.n_set.size:
            assert sp.kernel[np.ix_(res.n_set.mask, res.h_set.mask)].max() == 0.0


# ---------------------------------------------------------------------------


def test_m_connected_fixtures(p3, two_block):
    assert is_m_connected(p3)
    assert not is_m_connected(two_block)


def test_one_point_space_connected():
    from mrws import Space

    sp = Space(("o",), np.zeros((1, 1)), np.ones((1, 1)), np.ones(1))
    assert is_m_connected(sp)
    assert is_ergodic(sp).kernel_dim == 1
    assert invariant_blocks(sp).count == 1


def test_ergodic_p3(p3):
    res = is_ergodic(p3)
    assert res.ergodic and res.kernel_dim == 1 and res.witness is None


def test_non_ergodic_two_block(two_block):
    res = is_ergodic(two_block)
    assert not res.ergodic
    assert res.kernel_dim == 2
    w = res.witness.values
    assert w.std() > 0  # nonconstant
    lap = two_block.kernel @ w - w
    np.testing.assert_allclose(lap, 0.0, atol=1e-12)  # harmonic


def test_disjoint_copies_add_kernel_dimensions(p3):
    sp = disjoint_union(disjoint_union(p3, p3), p3)
    res = is_ergodic(sp)
    assert res.kernel_dim == 3
    assert invariant_blocks(sp).count == 3


def test_blocks_on_fixtures(p3, two_block):
    assert invariant_blocks(p3).count == 1
    dec = invariant_blocks(two_block)
    assert dec.count == 2
    left, right = two_block_halves(two_block)
    np.testing.assert_array_equal(dec.blocks[0].mask, left)
    np.testing.assert_array_equal(dec.blocks[1].mask, right)
    assert invariant_blocks(lazy_cycle(6, 0.5)).count == 1


def test_blocks_partition_space(rng):
    for sp in random_spaces(20, rng, connected=False):
        dec = invariant_blocks(sp)
        total = np.zeros(sp.n, dtype=int)
        for b in dec.blocks:
            total += b.mask.astype(int)
        np.testing.assert_array_equal(total, 1)
        for b in dec.blocks:
            assert sp.kernel[np.ix_(b.mask, ~b.mask)].max() == 0.0 if (~b.mask).any() else True


def test_blocks_skip_open_classes_and_follow_point_order():
    # a leaks into the absorbing points b and c: its class is open, and the
    # closed ones come in the order of their first point
    K = np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    sp = Space(("a", "b", "c"), d, K, np.ones(3))
    blocks = invariant_blocks(sp)
    assert [b.indices.tolist() for b in blocks.blocks] == [[1], [2]]
    assert blocks.count == is_ergodic(sp).kernel_dim == 2


def test_equivalence_chain(rng):
    spaces = random_spaces(15, rng, n_hi=10) + random_spaces(10, rng, n_hi=5, connected=False)
    for a, b in zip(random_spaces(5, rng, n_hi=5), random_spaces(5, rng, n_hi=5)):
        spaces.append(disjoint_union(a, b))
    for sp in spaces:
        conn = is_m_connected(sp)
        assert conn == is_ergodic(sp).ergodic
        assert conn == (invariant_blocks(sp).count == 1)
        # the blocks count the generator's kernel, which is spectral
        assert np.count_nonzero(spectral_gap(sp).spectrum <= 1e-10) == invariant_blocks(sp).count
        if 2 <= sp.n <= 12:
            assert conn == (min_bipartition_interaction(sp) > 0)


def test_positive_curvature_implies_connected(k3):
    from mrws import ollivier_global

    assert ollivier_global(k3).kappa_global > 0
    assert is_m_connected(k3)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       density=st.floats(0.0, 1.0), split=st.integers(0, 8))
@example(n=1, seed=0, density=0.0, split=0)
def test_m_connected_is_strong_connectivity(n, seed, density, split):
    # a directly built kernel: a random support (points that leak into others
    # are transient), cut into two blocks at `split`, and a self-loop on each
    # row left empty; only the support matters, so the measure is uniform
    rng = np.random.default_rng(seed)
    support = rng.random((n, n)) < density
    support[:split, split:] = support[split:, :split] = False
    support |= np.diag(~support.any(axis=1))
    K = support * rng.uniform(0.5, 1.5, (n, n))
    K /= K.sum(axis=1, keepdims=True)
    sp = Space(tuple(range(n)), 1.0 - np.eye(n), K, np.ones(n))
    strong, _ = connected_components(csr_matrix(K > 0), connection="strong")
    assert is_m_connected(sp) == (strong == 1)


def _same_blocks_as_scc(sp):
    got = invariant_blocks(sp)
    want = invariant_blocks_scc(sp)
    assert got.count == is_ergodic(sp).kernel_dim == len(want)
    assert [b.mask.tobytes() for b in got.blocks] == [m.tobytes() for m in want]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0),
       groups=st.integers(1, 4), leak=st.floats(0.0, 0.3), empty=st.floats(0.0, 0.5), odd=st.floats(0.0, 0.2))
@example(n=0, seed=0, density=0.0, groups=1, leak=0.0, empty=0.0, odd=0.0)
@example(n=1, seed=0, density=0.0, groups=1, leak=0.0, empty=1.0, odd=0.0)
def test_blocks_match_the_strong_components(n, seed, density, groups, leak, empty, odd):
    # a random directed support, not stochastic: the points scattered over
    # interleaved groups, a few edges leaking between groups (which opens a
    # class), rows left empty, and NaN or negative entries, which are no edge
    # (> 0) but still leave their class (!= 0)
    rng = np.random.default_rng(seed)
    group = rng.integers(0, groups, n)
    support = (group[:, None] == group[None, :]) | (rng.random((n, n)) < leak)
    K = (support & (rng.random((n, n)) < density)) * rng.uniform(0.5, 1.5, (n, n))
    K[rng.random(n) < empty] = 0.0
    K[rng.random((n, n)) < odd] = np.nan
    K[rng.random((n, n)) < odd] = -1.0
    _same_blocks_as_scc(Space(tuple(range(n)), 1.0 - np.eye(n), K, np.ones(n)))


@pytest.mark.parametrize("shape", ["chain", "cycle"])
def test_blocks_match_the_strong_components_at_700_points(shape):
    # the longest paths the closure must square through: a chain of 700
    # singleton classes into an absorbing end, and one 700-point cycle
    n = 700
    K = np.zeros((n, n))
    K[np.arange(n), np.arange(1, n + 1) % n] = 1.0
    if shape == "chain":
        K[n - 1] = np.eye(n)[n - 1]
    _same_blocks_as_scc(Space(tuple(range(n)), 1.0 - np.eye(n), K, np.ones(n)))
