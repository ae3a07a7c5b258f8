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
# walk adds one vector of 2**_LOW_BITS entries (13 was fastest at n = 24). The
# split sets the order of the float sums, so another one changes the last bits
_LOW_BITS = 13
# relative margin on the walk's limit: the bounds hold only up to a few ulps
_PRUNE_SLACK = 1e-12
# a node of the walk expands as many levels at once as fit in a block of this
# many cells, at least one: small frames deep in a pruned walk then cost few calls
_BLOCK_CELLS = 1 << 14


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


def _bipartition_scan(space: Space, limit: list | None = None, ratio: bool = False):
    """Cut mass and subset mass of every proper bipartition (point n-1 fixed
    outside the subset), one high pattern at a time, or of every one that can
    still beat ``limit``.

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
    adds of length 2^|L| in all, after an O(2^|L| |L| n) set-up. A node
    expands as many levels at once as fill a block of ``_BLOCK_CELLS``
    cells, into a buffer of the depth it reaches. Every term sums
    nonnegative masses, so an invariant set's cut is exactly zero.

    ``limit`` is None, or a one-element list holding the least value found
    so far, of cut / min(mass, 1 - mass) when ``ratio`` and of the cut
    otherwise; the caller lowers it as it goes, and the walk prunes. Below a
    node, a low pattern's cut is at least its partial cut plus the smaller
    row of each free high point plus the least cut_H under the node, and its
    min(mass, 1 - mass) at most min(hi, 1 - lo, 1/2) on the node's mass
    interval [lo, hi] (1 for the cut alone). A pattern whose bound exceeds
    limit * (1 + _PRUNE_SLACK) cannot win or tie, and is dropped; the
    survivors are gathered into shorter vectors when at most half remain,
    and otherwise walk on in place, dropped ones included. At a leaf the
    bound is the value itself, so only patterns holding a value at most the
    limit are yielded. With ``ratio`` the limit starts no higher than a
    local optimum from the spectral sweep (``_descent``), evaluated in the
    walk's own arithmetic: it is a leaf value, never below the least one.
    The walk prunes only when every mass is finite and nonnegative and
    every proper subset's mass lies in (0, 1), where the bounds hold up to
    a few ulps; a survivor's sums are the full walk's, bit for bit.

    Yields (first id, low patterns, cut, mass) for each high pattern
    reached, in ascending order, the subset id of entry i being first id +
    low[i]; without a limit every pattern is reached. The empty set is
    skipped. The arrays are reused: the scan rewrites them before its next
    yield, so copy them to keep them.
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
    part = np.einsum("mi,mi->m", bl @ Q[np.ix_(L, L)], 1.0 - bl) + bl @ Q[L, n - 1]

    prune = (limit is not None and k > 0 and np.isfinite(Q).all() and Q.min() >= 0.0
             and nu.min() > 0.0 and mass_l.max() + mass_h.max() < 1.0)
    if prune:
        # least[l]: the smaller rows of the l lowest points of H, summed
        least = np.zeros((k, 1 << w))
        for j in range(1, k):
            np.add(least[j - 1], np.minimum(rows[j - 1, 0], rows[j - 1, 1]), out=least[j])
        # per depth d, per node (its d high bits): least cut_H and mass range below it
        cmin, hmin, hmax = [cut_h], [mass_h], [mass_h]
        for _ in range(k):
            cmin.append(cmin[-1].reshape(-1, 2).min(axis=1))
            hmin.append(hmin[-1].reshape(-1, 2).min(axis=1))
            hmax.append(hmax[-1].reshape(-1, 2).max(axis=1))
        cmin, hmin, hmax = ([v[:, None] for v in reversed(x)] for x in (cmin, hmin, hmax))
        if ratio:
            side = _descent(space, _sweep(space)[1])
            seed = sum(1 << int(i) for i in np.flatnonzero(~side if side[-1] else side))
            pl, ph = seed & ((1 << w) - 1), seed >> w
            cut = part[pl]
            for j in range(k - 1, -1, -1):  # the walk's own order, so the seed is a leaf value
                cut = cut + rows[j, (ph >> j) & 1, pl]
            cut = cut + cut_h[ph]
            mass = mass_l[pl] + mass_h[ph]
            limit[0] = min(limit[0], float(cut / min(mass, 1.0 - mass)))
    else:
        least = None

    cells = max(2 << w, _BLOCK_CELLS)
    # blocks[d]: the partial cuts of the nodes at depth d last expanded into; a node
    # waiting on the stack is a row of the block of its depth, which only its own
    # siblings share, and every expansion writes deeper
    blocks = np.empty((k + 1, cells))
    spare = np.empty((3, cells))
    drop = np.empty(cells, bool)
    # a node: (depth, its high bits, its frame (low patterns, their masses, rows, least), partial cut)
    stack = [(0, 0, (np.arange(1 << w), mass_l, rows, least), part)]
    while stack:
        d, h, frame, part = stack.pop()
        low, ml, fr, fl = frame
        a = len(low)
        cut_limit = limit[0] * (1.0 + _PRUNE_SLACK) if prune else np.inf
        bounded = cut_limit < np.inf
        # expand as many levels at once as fill a block, or one while no limit is known yet
        r = min(k - d, 1 if prune and not bounded else max(1, (cells // a).bit_length() - 1))
        blk = part[None]
        for i in range(r):
            nxt = blocks[d + 1 + i, : 2 * len(blk) * a].reshape(len(blk), 2, a)
            np.add(blk[:, None], fr[k - 1 - d - i], out=nxt)
            blk = nxt.reshape(-1, a)
        d, h, rb = d + r, h << r, len(blk)
        l = k - d  # free high points below depth d: H[:l]
        s0, s1, s2 = spare[:, : rb * a].reshape(3, rb, a)
        if d == k:  # leaves: the high patterns h, ..., h + rb - 1
            blk += cut_h[h: h + rb, None]
            cut = blk
            hi = lo = mass = np.add(ml, mass_h[h: h + rb, None], out=s0)
        elif bounded:
            cut = np.add(blk, fl[l], out=s0)
            cut += cmin[d][h: h + rb]
            if ratio:
                hi = np.add(ml, hmax[d][h: h + rb], out=s1)
                lo = np.add(ml, hmin[d][h: h + rb], out=s2)
        if bounded:
            if ratio:
                den = np.subtract(1.0, lo, out=s2)
                np.minimum(hi, den, out=den)
                np.minimum(den, 0.5, out=den)
                den *= cut_limit
                cut_limit = den
            keep = np.greater(cut, cut_limit, out=drop[: rb * a].reshape(rb, a))
            np.logical_not(keep, out=keep)  # a NaN bound never prunes
            if d == k and h == 0 and low[0] == 0:
                keep[0, 0] = False  # the empty set
            alive = np.count_nonzero(keep, axis=1)
            reached = np.flatnonzero(alive)
        else:
            reached = range(rb)
        if d == k:
            for i in reached:
                if h + i == 0 and low[0] == 0:  # skip the empty set
                    if a > 1:
                        yield 0, low[1:], cut[0, 1:], mass[0, 1:]
                else:
                    yield (h + i) << w, low, cut[i], mass[i]
            continue
        for i in reversed(reached):  # the lowest node is popped first
            if not bounded or 2 * alive[i] > a:
                stack.append((d, h + i, frame, blk[i]))
            else:
                kept = np.flatnonzero(keep[i])
                stack.append((d, h + i, (low[kept], ml[kept], fr[:l, :, kept], fl[:l, kept]), blk[i, kept]))


def _sweep(space: Space) -> tuple[float, np.ndarray]:
    """Least ratio over the prefixes of the points ordered by the second
    eigenvector, and the smaller side of that prefix cut."""
    from . import _linalg

    n = space.n
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
    return best, mask


def _descent(space: Space, mask: np.ndarray) -> np.ndarray:
    """Move single points across a bipartition while that lowers its ratio
    by more than a relative 1e-9, at most n times."""
    Q = _edge_mass(space)
    nu = space.nu
    q, loop = Q.sum(axis=1), np.diag(Q)
    s = mask.astype(float)
    for _ in range(space.n):
        into = Q @ s
        cut, mass = float((q - into) @ s), float(nu @ s)
        sign = 1.0 - 2.0 * s  # +1 adds the point, -1 removes it
        moved_mass = mass + sign * nu
        with np.errstate(divide="ignore", invalid="ignore"):
            moved = (cut + sign * (q - 2.0 * into) - loop) / np.minimum(moved_mass, 1.0 - moved_mass)
        moved[(moved_mass <= 0.0) | (moved_mass >= 1.0)] = np.inf
        x = int(np.argmin(moved))
        if not moved[x] < cut / min(mass, 1.0 - mass) * (1.0 - 1e-9):
            break
        s[x] = 1.0 - s[x]
    return s > 0.5


def cheeger(space: Space, mode: str = "exact") -> CheegerResult:
    """Cheeger constant: least perimeter over the smaller side's mass.

    ``exact`` (limited to n <= 24) runs ``_bipartition_scan`` as a branch and
    bound: it seeds the limit from the sweep below, improved by single-point
    moves, and lowers it to each better ratio the walk reaches, so only low
    patterns that can still win or tie are carried down. It reports the
    least ratio of the full enumeration, bit for bit: accurate to a few ulps,
    exactly 0 on an invariant set, with the lowest subset id among ties as
    the witness (its smaller side by mass). It stops at the first pattern
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
        limit = [np.inf]
        for lo, low, cut, mass in _bipartition_scan(space, limit, ratio=True):
            ratio = 1.0 - mass
            np.minimum(mass, ratio, out=ratio)
            np.divide(cut, ratio, out=ratio)
            j = int(np.argmin(ratio))  # first of the pattern's minima
            if ratio[j] < best:  # an earlier pattern keeps a tie
                best, best_id = float(ratio[j]), lo + int(low[j])
                limit[0] = min(limit[0], best)
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

    from .spectral import spectral_gap

    best, mask = _sweep(space)
    lower = spectral_gap(space).gap / 2.0
    return CheegerResult(float(lower), best, False, Subset(space, mask))


def min_bipartition_interaction(space: Space) -> float:
    """Exhaustive minimum of the interaction between the two sides of a
    bipartition; positive exactly when the space is connected (n <= 24).
    The walk of ``_bipartition_scan`` is pruned by the least cut so far."""
    if space.n > EXACT_ENUM_LIMIT:
        raise ValueError(f"exhaustive scan is limited to n <= {EXACT_ENUM_LIMIT}")
    if space.n < 2:
        raise ValueError("needs at least two points")
    limit = [np.inf]
    for _, _, cut, _ in _bipartition_scan(space, limit):
        limit[0] = min(limit[0], float(cut.min()))
        if limit[0] == 0.0:  # no cut is lower
            break
    return limit[0]
