"""One per-Space memo, and the spectral machinery for reversible kernels.

``_memo`` keeps what is computed from a Space, which is immutable, for as long
as the space lives; arrays in memoized results are read-only, as callers share
them. Reversibility makes S = D^{1/2} P D^{-1/2} symmetric (D = diag of the
normalized measure), so one symmetric eigendecomposition serves the heat
semigroup, the spectral gap and curvature bounds alike.
"""

from __future__ import annotations

import weakref

import numpy as np

from .core import Space, _readonly

_MEMO: "weakref.WeakKeyDictionary[Space, dict]" = weakref.WeakKeyDictionary()


def _memo(space: Space, key, fn):
    """fn() for this space and key, computed at most once while the space
    lives. Check arguments before calling: a hit skips fn entirely."""
    entries = _MEMO.setdefault(space, {})
    if key not in entries:
        entries[key] = fn()
    return entries[key]


def _memo_many(space: Space, keys: list, fn) -> list:
    """[_memo(space, key, ...) for key in keys], with the keys not yet held
    computed in one call: fn takes them, distinct and in first-seen order, and
    returns their values in that order."""
    entries = _MEMO.setdefault(space, {})
    missing = list(dict.fromkeys(key for key in keys if key not in entries))
    if missing:
        entries.update(zip(missing, fn(missing)))
    return [entries[key] for key in keys]


def decomposition(space: Space) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of the generator on L^2(nu), memoized and read-only.

    Returns (lam, U, s): eigenvalues of I - S in ascending order, the matching
    orthonormal eigenvector columns of S = diag(s) P diag(1/s), and
    s = sqrt(nu). Eigenvalues lie in [0, 2] up to roundoff.
    """
    def compute():
        s = np.sqrt(space.nu)
        S = (s[:, None] * space.kernel) / s[None, :]
        S = 0.5 * (S + S.T)  # scrub roundoff asymmetry before eigh
        mu, U = np.linalg.eigh(S)
        return _readonly((1.0 - mu)[::-1]), _readonly(U[:, ::-1]), _readonly(s)

    return _memo(space, "decomposition", compute)


def heat_apply(space: Space, values: np.ndarray, t: float) -> np.ndarray:
    """Apply the heat propagator at time t to a field through the eigenbasis."""
    lam, U, s = decomposition(space)
    decay = np.exp(-t * lam)
    w = U.T @ (s * values)
    return (U @ (decay * w)) / s
