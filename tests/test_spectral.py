import numpy as np
import pytest

from mrws import (
    HypothesisError,
    be_best_constant,
    dirichlet_energy,
    gamma,
    heat_evolve,
    is_ergodic,
    ollivier_global,
    spectral_gap,
    variance,
    verify_poincare_decay,
)
from mrws.builders import (
    cycle,
    lazy_cycle,
    linear_chain,
    linear_chain_field,
    two_block_halves,
)

from conftest import random_spaces


def test_energy_of_constants_is_zero(p3):
    assert dirichlet_energy(p3, np.full(3, 7.0)) == 0.0


def test_energy_p3_value(p3):
    assert dirichlet_energy(p3, [2.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_energy_linear_chain_exact():
    lc = linear_chain(12)
    for n in range(2, 9):
        f = linear_chain_field(lc, n)
        H = dirichlet_energy(lc, f, normalized=False)
        assert abs(H - 2.0 / n) <= 1e-12 * (2.0 / n)


def test_energy_equals_generator_pairing(rng):
    from mrws import apply_laplacian

    for sp in random_spaces(10, rng):
        f = rng.standard_normal(sp.n)
        lhs = dirichlet_energy(sp, f)
        rhs = -float(sp.nu @ (f * apply_laplacian(sp, f).values))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        # and equals the integrated squared-gradient form
        assert lhs == pytest.approx(float(sp.nu @ gamma(sp, f).values), abs=1e-12)


def test_variance_examples(p3):
    assert variance(p3, np.full(3, 2.0)) == 0.0
    assert variance(p3, [1.0, 0.0, 0.0]) == pytest.approx(3.0 / 16.0, abs=1e-15)
    from mrws import from_markov_kernel

    two = from_markov_kernel([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
    assert variance(two, [0.0, 1.0]) == pytest.approx(0.25, abs=1e-15)


def test_variance_double_integral_identity(rng):
    for sp in random_spaces(10, rng):
        f = rng.standard_normal(sp.n)
        nu = sp.nu
        direct = variance(sp, f)
        double = 0.5 * float(np.sum(np.outer(nu, nu) * (f[:, None] - f[None, :]) ** 2))
        assert direct == pytest.approx(double, abs=1e-12)


# ---------------------------------------------------------------------------
# spectral gap


def test_p3_spectrum(p3):
    rep = spectral_gap(p3)
    np.testing.assert_allclose(rep.spectrum, [0.0, 1.0, 2.0], atol=1e-12)
    assert rep.gap == pytest.approx(1.0, abs=1e-12)
    assert rep.kernel_dim == 1


def test_cached_spectrum_is_read_only(p3):
    with pytest.raises(ValueError):
        spectral_gap(p3).spectrum[1] = 42.0
    assert spectral_gap(p3).gap == pytest.approx(1.0, abs=1e-12)


def test_two_block_gap_zero(two_block):
    rep = spectral_gap(two_block)
    assert rep.gap == 0.0
    assert rep.gap_ibe is None
    assert rep.kernel_dim == 2


def test_linear_chain_gap_collapses():
    assert spectral_gap(linear_chain(15)).gap < spectral_gap(linear_chain(5)).gap


def test_spectrum_contained_in_0_2(rng):
    for sp in random_spaces(20, rng, connected=False):
        lam = spectral_gap(sp).spectrum
        assert lam.min() >= -1e-10
        assert lam.max() <= 2.0 + 1e-10


def test_rayleigh_quotient_consistency(rng):
    for sp in random_spaces(5, rng, n_lo=3):
        rep = spectral_gap(sp)
        best = np.inf
        for _ in range(100):
            f = rng.standard_normal(sp.n)
            v = variance(sp, f)
            if v < 1e-12:
                continue
            best = min(best, dirichlet_energy(sp, f) / v)
        assert best >= rep.gap - 1e-9
        # the second eigenvector attains the infimum
        from mrws._linalg import decomposition

        lam, U, s = decomposition(sp)
        f2 = U[:, 1] / s
        assert dirichlet_energy(sp, f2) / variance(sp, f2) == pytest.approx(rep.gap, abs=1e-9)


def test_gap_ibe_matches_gap(rng):
    for sp in random_spaces(10, rng):
        rep = spectral_gap(sp)
        if rep.kernel_dim == 1:
            assert rep.gap_ibe == pytest.approx(rep.gap, abs=1e-8)


def test_ibe_poincare_bridge(p3, k3):
    for sp in (p3, k3, lazy_cycle(6, 0.5)):
        gap = spectral_gap(sp).gap
        for n in (2.0, 5.0, np.inf):
            k = be_best_constant(sp, n).k_best_global
            if np.isfinite(k) and k > 0:
                factor = 1.0 if np.isinf(n) else n / (n - 1.0)
                assert k * factor <= gap + 1e-8


def test_kappa_below_gap(k3, rng):
    spaces = [k3, lazy_cycle(6, 0.5)]
    # jump-anywhere kernels have strictly positive curvature
    from mrws import Space

    for _ in range(3):
        n = int(rng.integers(3, 7))
        w = rng.uniform(0.5, 1.5, n)
        P = np.tile(w / w.sum(), (n, 1))
        d = np.ones((n, n)) - np.eye(n)
        spaces.append(Space(tuple(range(n)), d, P, w / w.sum()))
    for sp in spaces:
        kap = ollivier_global(sp).kappa_global
        if kap > 0:
            assert kap <= spectral_gap(sp).gap + 1e-9


def test_decay_fit_close_to_gap(p3):
    rep = spectral_gap(p3, fit_decay=True)
    assert rep.decay_fit is not None
    assert rep.decay_fit == pytest.approx(rep.gap, rel=0.2)


# ---------------------------------------------------------------------------
# decay verification


def test_decay_bound_p3(p3):
    assert verify_poincare_decay(p3, trials=50, rng=7) <= 1.0 + 1e-9


def test_decay_bound_k3(k3):
    assert verify_poincare_decay(k3, trials=50, rng=7) <= 1.0 + 1e-9


def test_decay_slow_mode_is_tight(p3):
    # chi_a excites the slow eigenmode, so the L2 norm decays at exactly the
    # gap rate; measured over a late window the rate matches to 1e-9
    f = np.array([1.0, 0.0, 0.0])
    nu = p3.nu
    mean = float(nu @ f)

    def norm_at(t):
        u = heat_evolve(p3, f, t, method="spectral").values
        return np.sqrt(float(nu @ (u - mean) ** 2))

    rate = np.log(norm_at(12.0) / norm_at(13.0))
    assert rate == pytest.approx(spectral_gap(p3).gap, abs=1e-9)
    # and the bound ratio never exceeds one, with equality at time zero
    base = np.sqrt(float(nu @ (f - mean) ** 2))
    ratios = [norm_at(t) / (np.exp(-spectral_gap(p3).gap * t) * base) for t in (0.0, 0.5, 1.0, 5.0)]
    assert max(ratios) == pytest.approx(1.0, abs=1e-9)
    assert all(r <= 1.0 + 1e-9 for r in ratios)


def test_decay_constant_field_skipped(p3):
    # a constant field has zero variance; the verifier must not divide by it
    assert verify_poincare_decay(p3, trials=1, rng=3) >= 0.0


def test_decay_requires_ergodicity(two_block):
    with pytest.raises(HypothesisError):
        verify_poincare_decay(two_block, trials=1)


def test_decay_rejects_a_trial_count_below_one(p3, two_block):
    for trials in (0, -2):
        with pytest.raises(ValueError, match="trials"):
            verify_poincare_decay(p3, trials=trials)
    with pytest.raises(ValueError, match="trials"):  # before the gap is checked
        verify_poincare_decay(two_block, trials=0)


def test_tv_distance_bound_enumerated(rng):
    # the operation checks the total-variation bound via the extremal event;
    # cross-check against brute-force enumeration of all events for small n
    for sp in random_spaces(5, rng, n_lo=2, n_hi=8):
        if not is_ergodic(sp).ergodic:
            continue
        gap = spectral_gap(sp).gap
        nu = sp.nu
        f = rng.uniform(0.2, 2.0, sp.n)
        f /= float(nu @ f)
        l2 = np.sqrt(float(nu @ (f - 1.0) ** 2))
        if l2 < 1e-12:
            continue
        for t in (0.5, 1.0, 5.0):
            u = heat_evolve(sp, f, t, method="spectral").values
            signed = nu * (u - 1.0)
            sup = 0.0
            for code in range(1 << sp.n):
                mask = [(code >> i) & 1 for i in range(sp.n)]
                sup = max(sup, abs(float(signed @ np.array(mask, dtype=float))))
            assert sup <= l2 * np.exp(-gap * t) + 1e-12
