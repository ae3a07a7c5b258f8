"""Nonlocal set geometry: interaction, perimeter, total variation, coarea
levels, boundary mean curvature, medians, and the Cheeger constant.

All quantities normalize the stationary measure to a probability internally,
so perimeters and interaction masses are comparable across spaces regardless
of how the measure was stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .core import ScalarField, Space, Subset, as_mask, as_values
from .spectral import spectral_gap

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
    """Cut mass and the masses of both sides of every proper bipartition
    (point n-1 fixed outside the subset), one high pattern at a time, or of
    every one that can still beat ``limit``.

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
    expands as many levels at once as fill a block of 2^(|L|+1) cells, into
    a buffer of the depth it reaches, so small frames deep in a pruned walk
    cost few calls. Every term sums nonnegative masses, so an invariant
    set's cut is exactly zero. Each side's mass is likewise summed from its
    own points' measure m, b_L m_L + b_H m_H for S and (1 - b_L) m_L +
    ((1 - b_H) m_H + m_{n-1}) for its complement, and divided once by the
    total: a side lighter than an ulp of the total keeps its mass, and a side
    of half the total measure has mass 1/2 exactly.

    ``limit`` is None, or a one-element list holding the least value found
    so far, of ``_ratio`` when ``ratio`` and of the cut otherwise; the
    caller lowers it as it goes, and the walk prunes. Below a node, a low
    pattern's cut is at least its partial cut plus the smaller row of each
    free high point plus the least cut_H under the node, and its smaller
    side's mass at most that of either side with the largest high part
    under the node, and at most 1/2 up to rounding far below
    ``_PRUNE_SLACK`` (1 for the cut alone). A pattern whose bound exceeds
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

    Yields (first id, low patterns, cut, mass, rest) for each high pattern
    reached, in ascending order, the subset id of entry i being first id +
    low[i]; without a limit every pattern is reached. The empty set is
    skipped. The low and cut arrays are reused: the scan rewrites them
    before its next yield, so copy them to keep them.
    """
    n = space.n
    Q = _edge_mass(space)
    nu = space.nu
    w = min(_LOW_BITS, n - 1)
    k = n - 1 - w
    L, H = slice(0, w), slice(w, n - 1)
    bl = _subset_bits(np.arange(1 << w, dtype=np.uint64), w)
    bh = _subset_bits(np.arange(1 << k, dtype=np.uint64), k)
    cut_h = np.einsum("mi,mi->m", bh @ Q[H, H], 1.0 - bh) + bh @ Q[H, n - 1]
    m, total = space.measure, space.measure.sum()
    mass_l, mass_h = bl @ m[L], bh @ m[H]
    # the complement of pattern i within its block is pattern 2^|block| - 1 - i
    rest_l, rest_h = mass_l[::-1], mass_h[::-1] + m[n - 1]
    # rows[j, 0]: mass from S_L to H[j], outside S; rows[j, 1]: from H[j], in S, to L minus S_L
    rows = np.empty((k, 2, 1 << w))
    rows[:, 0] = Q[L, H].T @ bl.T
    rows[:, 1] = Q[H, L] @ (1.0 - bl).T
    part = np.einsum("mi,mi->m", bl @ Q[L, L], 1.0 - bl) + bl @ Q[L, n - 1]

    prune = (limit is not None and k > 0 and np.isfinite(Q).all() and Q.min() >= 0.0
             and nu.min() > 0.0 and mass_l.max() + mass_h.max() < total)
    if prune:
        # least[l]: the smaller rows of the l lowest points of H, summed
        least = np.zeros((k, 1 << w))
        for j in range(1, k):
            np.add(least[j - 1], np.minimum(rows[j - 1, 0], rows[j - 1, 1]), out=least[j])
        # per depth d, per node (its d high bits): least cut_H and largest high part of each side below it
        cmin, hmax, rmax = [cut_h], [mass_h], [rest_h]
        for _ in range(k):
            cmin.append(cmin[-1].reshape(-1, 2).min(axis=1))
            hmax.append(hmax[-1].reshape(-1, 2).max(axis=1))
            rmax.append(rmax[-1].reshape(-1, 2).max(axis=1))
        cmin, hmax, rmax = ([v[:, None] for v in reversed(x)] for x in (cmin, hmax, rmax))
        if ratio:
            side = _descent(space, _sweep(space)[1])
            seed = sum(1 << int(i) for i in np.flatnonzero(~side if side[-1] else side))
            pl, ph = seed & ((1 << w) - 1), seed >> w
            cut = part[pl]
            for j in range(k - 1, -1, -1):  # the walk's own order, so the seed is a leaf value
                cut = cut + rows[j, (ph >> j) & 1, pl]
            mass, rest = (mass_l[pl] + mass_h[ph]) / total, (rest_l[pl] + rest_h[ph]) / total
            limit[0] = min(limit[0], float(_ratio(cut + cut_h[ph], mass, rest)))
    else:
        least = None

    cells = 2 << w
    # blocks[d]: the partial cuts of the nodes at depth d last expanded into; a node
    # waiting on the stack is a row of the block of its depth, which only its own
    # siblings share, and every expansion writes deeper
    blocks = np.empty((k + 1, cells))
    spare = np.empty((3, cells))
    drop = np.empty(cells, bool)
    # a node: (depth, its high bits, its frame (low patterns, low parts of both sides' masses,
    # rows, least), partial cut)
    stack = [(0, 0, (np.arange(1 << w), mass_l, rest_l, rows, least), part)]
    while stack:
        d, h, frame, part = stack.pop()
        low, ml, rl, fr, fl = frame
        a = len(low)
        cut_limit = limit[0] * (1.0 + _PRUNE_SLACK) if prune else np.inf
        bounded = cut_limit < np.inf
        # expand as many levels at once as fill a block, or one while no limit is known yet
        r = min(k - d, 1 if prune and not bounded else (cells // a).bit_length() - 1)
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
            mass = np.add(ml, mass_h[h: h + rb, None], out=s0)
            rest = np.add(rl, rest_h[h: h + rb, None], out=s1)
        elif bounded:
            cut = np.add(blk, fl[l], out=s0)
            cut += cmin[d][h: h + rb]
            if ratio:  # each side's largest measure under the node
                mass = np.add(ml, hmax[d][h: h + rb], out=s1)
                rest = np.add(rl, rmax[d][h: h + rb], out=s2)
        if bounded:
            if ratio:  # a leaf's own smaller side; by monotone rounding, at least each one's below a node
                den = np.minimum(mass, rest, out=s2)
                np.minimum(den, (0.5 + 0.5 * _PRUNE_SLACK) * total, out=den)  # half the total, up to rounding
                den *= cut_limit / total
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
                        yield 0, low[1:], cut[0, 1:], mass[0, 1:] / total, rest[0, 1:] / total
                else:
                    yield (h + i) << w, low, cut[i], mass[i] / total, rest[i] / total
            continue
        for i in reversed(reached):  # the lowest node is popped first
            if not bounded or 2 * alive[i] > a:
                stack.append((d, h + i, frame, blk[i]))
            else:
                kept = np.flatnonzero(keep[i])
                stack.append((d, h + i, (low[kept], ml[kept], rl[kept], fr[:l, :, kept], fl[:l, kept]),
                              blk[i, kept]))


def _ratio(cut, mass, rest):
    """Cheeger ratio of a bipartition: its cut over the smaller of the two
    sides' masses, ``mass`` of the listed side and ``rest`` of the other."""
    return cut / np.minimum(mass, rest)


def _smaller_side(space: Space, mask: np.ndarray) -> np.ndarray:
    """The side of a bipartition holding at most half the mass."""
    return ~mask if space.nu[mask].sum() > 0.5 else mask


def _sweep(space: Space) -> tuple[float, np.ndarray]:
    """Least ratio over the prefixes of the points ordered by the second
    eigenvector (the first among ties, 0/0 skipped), and the smaller side of
    that prefix cut. Every prefix cut is a sum of nonnegative masses, so a
    cut of no mass reads 0."""
    lam, U, s = _linalg.decomposition(space)
    order = np.argsort(U[:, 1] / s, kind="stable")
    Q = _edge_mass(space)[np.ix_(order, order)]
    # past[i, k]: mass from point i beyond point k; a prefix's cut is past[:k + 1, k].sum()
    past = np.cumsum(Q[:, :0:-1], axis=1)[:, ::-1]
    cut = np.cumsum(past, axis=0).diagonal()
    m, total = space.measure[order], space.measure.sum()
    # each side's mass from its own points' measure: a prefix's, and the rest's as a suffix sum
    ratio = _ratio(cut, np.cumsum(m)[:-1] / total, np.cumsum(m[::-1])[-2::-1] / total)
    ratio[np.isnan(ratio)] = np.inf
    k = int(np.argmin(ratio))
    mask = np.zeros(space.n, dtype=bool)
    mask[order[: k + 1]] = True
    return float(ratio[k]), _smaller_side(space, mask)


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
            moved = _ratio(cut + sign * (q - 2.0 * into) - loop, moved_mass, 1.0 - moved_mass)
            now = _ratio(cut, mass, 1.0 - mass)
        # no move may leave a side empty: beside a light point, the whole space's mass can round below 1
        moved[(moved_mass <= 0.0) | (moved_mass >= 1.0) | (s.sum() + sign == space.n)] = np.inf
        x = int(np.argmin(moved))
        if not moved[x] < now * (1.0 - 1e-9):
            break
        s[x] = 1.0 - s[x]
    return s > 0.5


def _least(space: Space, ratio: bool) -> tuple[float, int | None]:
    """Least Cheeger ratio (``ratio``) or least cut over the proper
    bipartitions, and the lowest subset id attaining it (None when no value
    is below inf), by the pruned walk of ``_bipartition_scan``.

    Each pattern gives its first least value, which replaces the best only
    when strictly lower, so an earlier pattern keeps a tie, and lowers the
    walk's limit to it. The search stops at the first value of 0: nothing is
    lower, and a later id loses the tie.
    """
    best, best_id = np.inf, None
    limit = [np.inf]
    for lo, low, cut, mass, rest in _bipartition_scan(space, limit, ratio):
        value = _ratio(cut, mass, rest) if ratio else cut
        j = int(np.argmin(value))
        if value[j] < best:
            best, best_id = float(value[j]), lo + int(low[j])
            limit[0] = min(limit[0], best)
            if best == 0.0:
                break
    return best, best_id


def cheeger(space: Space, mode: str = "exact") -> CheegerResult:
    """Cheeger constant: least perimeter over the smaller side's mass.

    ``exact`` (limited to n <= 24) takes ``_least`` over the ratios: a branch
    and bound that seeds its limit from the sweep below, improved by
    single-point moves, and lowers it to each better ratio the walk reaches,
    so only low patterns that can still win or tie are carried down. It
    reports the least ratio of the full enumeration, bit for bit: accurate
    to a few ulps, exactly 0 on an invariant set, with the lowest subset id
    among ties as the witness (its smaller side by mass).
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
        best, best_id = _least(space, ratio=True)
        if best_id is None:
            raise ValueError("no bipartition has a finite Cheeger ratio: the kernel or the measure "
                             "holds a non-finite entry")
        mask = np.array([(best_id >> i) & 1 for i in range(n)], dtype=bool)
        return CheegerResult(best, best, True, Subset(space, _smaller_side(space, mask)))

    if mode != "sweep":
        raise ValueError("mode must be 'exact' or 'sweep'")
    best, mask = _sweep(space)
    lower = spectral_gap(space).gap / 2.0
    return CheegerResult(float(lower), best, False, Subset(space, mask))


def min_bipartition_interaction(space: Space) -> float:
    """Exhaustive minimum of the interaction between the two sides of a
    bipartition; positive exactly when the space is connected (n <= 24).
    ``_least`` over the cuts, its walk pruned by the least cut so far."""
    if space.n > EXACT_ENUM_LIMIT:
        raise ValueError(f"exhaustive scan is limited to n <= {EXACT_ENUM_LIMIT}")
    if space.n < 2:
        raise ValueError("needs at least two points")
    return _least(space, ratio=False)[0]
