"""Reachability structure of the walk: which sets the chain can ever hit.

All decisions here are combinatorial on the support digraph {i -> j :
kernel[i][j] > 0}; kernel entries are constructed rather than measured, so
zero tests are exact and no epsilon thresholding is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .core import ScalarField, Space, Subset, as_mask

__all__ = [
    "ReachabilityResult",
    "ErgodicityResult",
    "BlockDecomposition",
    "reachability",
    "is_m_connected",
    "is_ergodic",
    "invariant_blocks",
]


@dataclass(frozen=True)
class ReachabilityResult:
    """Partition of the space by whether the walk can ever enter a target set.

    ``first_hit[x]`` is the least k >= 1 with positive k-step mass on the
    target (this applies to points of the target itself too), and -1 on the
    never-hitting set.
    """

    n_set: Subset
    h_set: Subset
    first_hit: np.ndarray


def reachability(space: Space, d) -> ReachabilityResult:
    """Breadth-first hitting levels toward the set d on the support digraph."""
    target = as_mask(space, d)
    if not target.any():
        raise ValueError("target set is empty")
    adj = space.kernel > 0
    first_hit = np.full(space.n, -1, dtype=int)
    frontier = adj[:, target].any(axis=1) & (first_hit < 0)
    level = 1
    while frontier.any():
        first_hit[frontier] = level
        reached = first_hit > 0
        frontier = adj[:, frontier].any(axis=1) & ~reached
        level += 1
    h_mask = first_hit > 0
    return ReachabilityResult(Subset(space, ~h_mask), Subset(space, h_mask), first_hit)


def is_m_connected(space: Space) -> bool:
    """True when every positive-measure set is reachable from everywhere,
    i.e. the support digraph is strongly connected: exactly one invariant
    block, and it holds every point."""
    blocks = invariant_blocks(space).blocks
    return len(blocks) == 1 and bool(blocks[0].mask.all())


@dataclass(frozen=True)
class ErgodicityResult:
    ergodic: bool
    kernel_dim: int
    witness: ScalarField | None  # a nonconstant harmonic function, if any


def is_ergodic(space: Space) -> ErgodicityResult:
    """Ergodicity test: the space is one invariant block.

    ``kernel_dim`` is the number of blocks, the generator's kernel dimension
    on a reversible space, counted without an eigenvalue threshold. When it
    exceeds one, the indicator of the first block is the nonconstant harmonic
    witness.
    """
    blocks = invariant_blocks(space)
    one = blocks.count == 1
    witness = None if one else ScalarField(space, blocks.blocks[0].mask.astype(float))
    return ErgodicityResult(one, blocks.count, witness)


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple
    count: int


def invariant_blocks(space: Space) -> BlockDecomposition:
    """Closed communicating classes of the support digraph.

    For reversible kernels with full-support measure these partition the
    space and their number equals the kernel dimension of the generator.
    The block masks are memoized per space (a memoized Subset would keep its
    space alive); the blocks are a tuple of read-only subsets.
    """
    def compute():
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        # int32 index arrays built directly: scipy converts anything else on
        # every call, at several times the search's cost on a small space
        rows, cols = np.nonzero(space.kernel > 0)
        indptr = np.searchsorted(rows, np.arange(space.n + 1)).astype(np.int32)
        graph = csr_matrix((np.ones(cols.size), cols.astype(np.int32), indptr),
                           shape=(space.n, space.n))
        ncomp, labels = connected_components(graph, connection="strong")
        leaving = ((space.kernel != 0) & (labels[:, None] != labels[None, :])).any(axis=1)
        open_class = np.bincount(labels, weights=leaving, minlength=ncomp) > 0  # mass escapes
        _, first = np.unique(labels, return_index=True)
        return tuple(labels == c for c in np.argsort(first) if not open_class[c])

    masks = _linalg._memo(space, "blocks", compute)
    return BlockDecomposition(tuple(Subset(space, m) for m in masks), len(masks))
