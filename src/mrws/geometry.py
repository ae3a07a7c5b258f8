"""Nonlocal set geometry: interaction, perimeter, total variation, coarea
levels, boundary mean curvature, medians, and the Cheeger constant.

All quantities normalize the stationary measure to a probability internally,
so perimeters and interaction masses are comparable across spaces regardless
of how the measure was stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScalarField, Space, Subset, as_mask, as_values

__all__ = [
    "interaction",
    "perimeter",
    "total_variation",
    "CoareaLevel",
    "coarea_decompose",
    "mean_curvature",
    "MedianShift",
    "median_shift",
    "CheegerResult",
    "cheeger",
    "min_bipartition_interaction",
]

EXACT_ENUM_LIMIT = 24
# free points in the low block of the bipartition scan: each tree node of its
# walk adds one vector of 2**_LOW_BITS entries (13 was fastest at n = 24)
_LOW_BITS = 13


def _edge_mass(space: Space) -> np.ndarray:
    """Symmetric matrix nu_i k(i,j) of normalized interaction mass."""
    return space.nu[:, None] * space.kernel


def interaction(space: Space, a, b) -> float:
    """Mass the walk sends from a into b in one step, weighted by the
    stationary measure; symmetric in its arguments by reversibility."""
    ma, mb = as_mask(space, a), as_mask(space, b)
    Q = _edge_mass(space)
    return float(Q[np.ix_(ma, mb)].sum())


def perimeter(space: Space, e) -> float:
    """Interaction of a set with its complement (nonlocal boundary mass)."""
    mask = as_mask(space, e)
    return interaction(space, mask, ~mask)


def total_variation(space: Space, u) -> float:
    """(1/2) sum_{x,y} nu_x k(x,y) |u(y) - u(x)|."""
    v = as_values(space, u)
    Q = _edge_mass(space)
    return 0.5 * float(np.sum(Q * np.abs(v[None, :] - v[:, None])))


@dataclass(frozen=True)
class CoareaLevel:
    threshold: float
    level_set: Subset  # {u > threshold}
    perimeter: float
    width: float  # gap to the next distinct value


def coarea_decompose(space: Space, u) -> list:
    """Slice a field into its superlevel sets.

    The perimeters of the level sets, weighted by the gaps between
    consecutive distinct values, sum exactly to the total variation: finite
    range makes the layer-cake identity a finite sum.
    """
    v = as_values(space, u)
    vals = np.unique(v)
    levels = []
    for lo, hi in zip(vals[:-1], vals[1:]):
        level_set = Subset(space, v > lo)
        levels.append(CoareaLevel(float(lo), level_set, perimeter(space, level_set), float(hi - lo)))
    return levels


def mean_curvature(space: Space, e) -> ScalarField:
    """Pointwise boundary curvature of a set: 1 - 2 * (one-step mass in it).

    Its integral over the set equals twice the perimeter minus the set mass.
    """
    mask = as_mask(space, e)
    inside = space.kernel @ mask.astype(float)
    return ScalarField(space, 1.0 - 2.0 * inside)


@dataclass(frozen=True)
class MedianShift:
    shifted: ScalarField
    median: float
    interval: tuple  # (lo, hi): the full set of medians


def median_shift(space: Space, u) -> MedianShift:
    """Shift a field by a median of its distribution under the measure.

    A median m leaves at most half the mass strictly below and strictly
    above. The full median interval is reported; when it is nondegenerate the
    midpoint is used for the shift, and zero is a median of the result.
    """
    v = as_values(space, u)
    nu = space.nu
    order = np.argsort(v, kind="stable")
    sv, snu = v[order], nu[order]

    vals = np.unique(sv)
    cum = np.cumsum(snu)
    total = cum[-1]
    valid = []
    for t in vals:
        below = float(snu[sv < t].sum())
        above = float(total - below - snu[sv == t].sum())
        if below <= 0.5 * total + 1e-15 and above <= 0.5 * total + 1e-15:
            valid.append(float(t))
    # between consecutive distinct values the whole open interval qualifies
    # exactly when the lower cumulative mass is one half
    for lo, hi in zip(vals[:-1], vals[1:]):
        mass_le = float(snu[sv <= lo].sum())
        if abs(mass_le - 0.5 * total) <= 1e-15:
            valid.extend([float(lo), float(hi)])
    lo, hi = min(valid), max(valid)
    med = 0.5 * (lo + hi)
    return MedianShift(ScalarField(space, v - med), med, (lo, hi))


# ---------------------------------------------------------------------------
# Cheeger constant


@dataclass(frozen=True)
class CheegerResult:
    lower: float
    upper: float
    exact: bool
    witness_set: Subset


def _subset_bits(ids: np.ndarray, width: int) -> np.ndarray:
    """0/1 matrix whose row m holds the lowest ``width`` bits of ids[m]."""
    bit = np.arange(width, dtype=np.uint64)
    return ((ids[:, None] >> bit[None, :]) & 1).astype(float)


def _bipartition_scan(space: Space):
    """Cut mass and subset mass of every proper bipartition (point n-1 fixed
    outside the subset), one block of consecutive subset ids at a time.

    The free points split into a low block L (the lowest ``_LOW_BITS`` of
    them) and a high block H, and a subset S into patterns b_L and b_H. The
    cut, the mass sent from S to its complement, splits the same way:

        cut(S) = cut_L(b_L) + sum_{j in H} [j not in S] b_L Q_Lj
                            + sum_{j in H} [j in S] (1 - b_L) Q_jL^T + cut_H(b_H),

    where cut_L is the mass from S_L to the rest of L and to point n-1, and
    cut_H likewise for H. Every term is a vector over the 2^|L| low
    patterns, formed once. A depth-first walk over H, its highest point at
    the top so that the leaves come in ascending id order, adds one of the
    two rows of its point to the partial cut of its parent: 2^(|H|+1) vector
    adds of length 2^|L| in all, after an O(2^|L| |L| n) set-up. Every term
    sums nonnegative masses, so an invariant set's cut is exactly zero.

    Yields (first id, cut, mass) for each high pattern, the ids being
    consecutive; the empty set is skipped. The two arrays are reused: the
    scan rewrites them before its next yield, so copy them to keep them.
    """
    n = space.n
    Q = _edge_mass(space)
    nu = space.nu
    w = min(_LOW_BITS, n - 1)
    k = n - 1 - w
    L, H = np.arange(w), np.arange(w, n - 1)
    bl = _subset_bits(np.arange(1 << w, dtype=np.uint64), w)
    bh = _subset_bits(np.arange(1 << k, dtype=np.uint64), k)
    cut_h = np.einsum("mi,mi->m", bh @ Q[np.ix_(H, H)], 1.0 - bh) + bh @ Q[H, n - 1]
    mass_l, mass_h = bl @ nu[L], bh @ nu[H]
    # rows[j, 0]: mass from S_L to H[j], outside S; rows[j, 1]: from H[j], in S, to L minus S_L
    rows = np.empty((k, 2, 1 << w))
    rows[:, 0] = Q[np.ix_(L, H)].T @ bl.T
    rows[:, 1] = Q[np.ix_(H, L)] @ (1.0 - bl).T
    # part[d]: cut_L plus the rows of the d highest points of H
    part = np.empty((k + 1, 1 << w))
    part[0] = np.einsum("mi,mi->m", bl @ Q[np.ix_(L, L)], 1.0 - bl) + bl @ Q[L, n - 1]
    cut, mass = part[k], np.empty(1 << w)
    for h in range(1 << k):
        # from pattern h - 1 to h, bits t..0 of b_H flip: the deepest t + 1 partial
        # cuts change, so part[k] is rewritten at every leaf and takes its cut in place
        t = k - 1 if h == 0 else (h & -h).bit_length() - 1
        for b in range(t, -1, -1):
            np.add(part[k - 1 - b], rows[b, (h >> b) & 1], out=part[k - b])
        cut += cut_h[h]
        np.add(mass_l, mass_h[h], out=mass)
        if h == 0:
            yield 1, cut[1:], mass[1:]
        else:
            yield h << w, cut, mass


def cheeger(space: Space, mode: str = "exact") -> CheegerResult:
    """Cheeger constant: least perimeter over the smaller side's mass.

    ``exact`` enumerates every bipartition (limited to n <= 24) with
    ``_bipartition_scan`` and reports its least ratio, accurate to a few ulps
    and exactly 0 on an invariant set, with the lowest subset id among ties
    as the witness (its smaller side by mass). It stops at the first block
    whose least ratio is 0: nothing is lower, and a later id loses the tie.
    ``sweep`` orders points by the second eigenvector and scans prefix cuts,
    returning an upper bound together with the gap/2 lower bound from the
    Cheeger inequality.
    """
    n = space.n
    if n < 2:
        raise ValueError("Cheeger constant needs at least two points")
    if mode == "exact":
        if n > EXACT_ENUM_LIMIT:
            raise ValueError(
                f"exact enumeration is limited to n <= {EXACT_ENUM_LIMIT}; use mode='sweep'")
        best, best_id = np.inf, None
        for lo, cut, mass in _bipartition_scan(space):
            ratio = 1.0 - mass
            np.minimum(mass, ratio, out=ratio)
            np.divide(cut, ratio, out=ratio)
            j = int(np.argmin(ratio))  # first of the block's minima
            if ratio[j] < best:  # an earlier block keeps a tie
                best, best_id = float(ratio[j]), lo + j
                if best == 0.0:  # nothing is lower, and a later id loses the tie
                    break
        if best_id is None:
            raise ValueError("no bipartition has a finite Cheeger ratio: the kernel or the measure "
                             "holds a non-finite entry")
        mask = np.array([(best_id >> i) & 1 for i in range(n)], dtype=bool)
        if space.nu[mask].sum() > 0.5:
            mask = ~mask
        return CheegerResult(best, best, True, Subset(space, mask))

    if mode != "sweep":
        raise ValueError("mode must be 'exact' or 'sweep'")

    from . import _linalg
    from .spectral import spectral_gap

    lam, U, s = _linalg.decomposition(space)
    fiedler = U[:, 1] / s
    order = np.argsort(fiedler, kind="stable")
    Q = _edge_mass(space)
    q = Q.sum(axis=1)
    nu = space.nu
    cut = 0.0
    mass = 0.0
    r = np.zeros(n)
    best = np.inf
    best_k = 0
    for k, idx in enumerate(order[:-1]):
        cut = max(cut + q[idx] - Q[idx, idx] - 2.0 * r[idx], 0.0)
        mass += nu[idx]
        r += Q[:, idx]
        ratio = cut / min(mass, 1.0 - mass)
        if ratio < best:
            best, best_k = float(ratio), k
    mask = np.zeros(n, dtype=bool)
    mask[order[: best_k + 1]] = True
    if nu[mask].sum() > 0.5:
        mask = ~mask
    lower = spectral_gap(space).gap / 2.0
    return CheegerResult(float(lower), best, False, Subset(space, mask))


def min_bipartition_interaction(space: Space) -> float:
    """Exhaustive minimum of the interaction between the two sides of a
    bipartition; positive exactly when the space is connected (n <= 24)."""
    if space.n > EXACT_ENUM_LIMIT:
        raise ValueError(f"exhaustive scan is limited to n <= {EXACT_ENUM_LIMIT}")
    if space.n < 2:
        raise ValueError("needs at least two points")
    best = np.inf
    for _, cut, _ in _bipartition_scan(space):
        best = min(best, float(cut.min()))
        if best == 0.0:  # no cut is lower
            break
    return best
