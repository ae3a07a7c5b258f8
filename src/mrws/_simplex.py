"""The transportation simplex behind ``transport._plan``.

min c.x over couplings x >= 0 of an ni x nj block (row-major) with row sums a
and column sums b, both positive and of equal mass. A basis is a spanning
tree of the bipartite graph of rows and columns: ni + nj - 1 cells, some
possibly with zero flow (network simplex; Peyre and Cuturi, Computational
Optimal Transport, 2019, section 3.5). The potentials u_i + v_j = c_ij on the
tree, with v = 0 at the root (the last column), are the dual solution.

The start is the least-cost greedy coupling: cells in stable-sort order of c,
each filled as far as its row and column allow, with exactly one of the two
crossed out per cell. Ties are read as in the perturbed problem a_i + eps,
b_last + ni eps, which no partial sum can balance, so a cell that would
exhaust its row and its column together exhausts the lexicographically
smaller one. Every zero-flow cell of the start then hangs its row below its
column: the tree is strongly feasible toward the root. Each pivot enters the
cell of most negative reduced cost (lowest flat index on ties) and drops the
last blocking cell met on a walk round the cycle from its apex in the
entering direction, which keeps the tree strongly feasible, so no basis
repeats (Cunningham, Math. Programming 1976).
"""

from __future__ import annotations

import numpy as np

# the pivots stop once every reduced cost is at least -TOL max(1, max c)
TOL = 1e-12


def transportation_simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(x, u, v): an optimal coupling x, row-major of length ni*nj, and the
    final basis potentials u (ni) and v (nj), with u_i + v_j = c_ij on the
    basis and c_ij - u_i - v_j >= -TOL max(1, max c) on every cell."""
    ni, nj = len(a), len(b)
    if not np.isfinite(c).all():
        raise ValueError("transport costs must be finite")
    cost = c.tolist()

    # the greedy start; (mass, eps part) per row and column
    sup, sig = a.tolist(), [1] * ni
    dem, tau = b.tolist(), [0] * (nj - 1) + [ni]
    row_out, col_out = [False] * ni, [False] * nj
    rows, cols = ni, nj  # lines not crossed out
    flow = {}  # basic cell (flat index) -> flow
    for k in np.argsort(c, kind="stable").tolist():
        i, j = divmod(k, nj)
        if row_out[i] or col_out[j]:
            continue
        s, d = sup[i], dem[j]
        f = flow[k] = min(s, d)
        if rows == 1 and cols == 1:
            break
        # a last row (column) takes every column (row) left, whatever rounding
        # left in its mass; else the lexicographically smaller line is spent
        if cols == 1 or (rows > 1 and (s, sig[i]) < (d, tau[j])):
            row_out[i] = True
            rows -= 1
            dem[j] = d - f
            tau[j] -= sig[i]
        else:
            col_out[j] = True
            cols -= 1
            sup[i] = s - f
            sig[i] -= tau[j]

    # the tree: nodes 0..ni-1 are rows, ni.. columns; each node's parent, its
    # depth, the cell joining it to its parent and its potential
    n = ni + nj
    adj = [[] for _ in range(n)]
    for k in flow:
        i, j = divmod(k, nj)
        adj[i].append(ni + j)
        adj[ni + j].append(i)
    parent, depth, up, pot = [-1] * n, [0] * n, [-1] * n, [0.0] * n

    def hang(start):  # re-derive the subtree below start from its parent
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y != parent[x]:
                    k = x * nj + y - ni if x < ni else y * nj + x - ni
                    parent[y], depth[y], up[y] = x, depth[x] + 1, k
                    pot[y] = cost[k] - pot[x]
                    stack.append(y)

    hang(n - 1)

    C = c.reshape(ni, nj)
    floor = -TOL * max(1.0, float(c.max()))
    while True:
        u, v = np.array(pot[:ni]), np.array(pot[ni:])
        reduced = C - u[:, None] - v
        k = int(reduced.argmin())
        if reduced.flat[k] >= floor:
            x = np.zeros(ni * nj)
            x[list(flow)] = list(flow.values())
            return x, u, v
        i, j = divmod(k, nj)
        # the cycle runs i -> j, up from j to the apex, down from the apex to
        # i; a tree cell is named by its child node
        side_i, side_j = [], []
        x, y = i, ni + j
        while depth[x] > depth[y]:
            side_i.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            side_j.append(y)
            y = parent[y]
        while x != y:
            side_i.append(x)
            x = parent[x]
            side_j.append(y)
            y = parent[y]
        # the cells walked against their row -> column direction lose flow:
        # below a row on i's side, below a column on j's side; in walk order
        # from the apex, i's side comes first, from the apex down
        blocking = [x for x in reversed(side_i) if x < ni] + [y for y in side_j if y >= ni]
        delta = min(flow[up[x]] for x in blocking)
        out = next(x for x in reversed(blocking) if flow[up[x]] == delta)
        for x in side_i:
            flow[up[x]] += -delta if x < ni else delta
        for y in side_j:
            flow[up[y]] += -delta if y >= ni else delta
        flow[k] = delta
        del flow[up[out]]
        adj[out].remove(parent[out])
        adj[parent[out]].remove(out)
        adj[i].append(ni + j)
        adj[ni + j].append(i)
        # the subtree cut off below out holds i or j; hang it from the other
        start, other = (i, ni + j) if out in side_i else (ni + j, i)
        parent[start], depth[start], up[start] = other, depth[other] + 1, k
        pot[start] = cost[k] - pot[other]
        hang(start)

