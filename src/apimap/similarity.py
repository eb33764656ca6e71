"""Exact cosine top-k between raw float64 rows, scanned in fixed-size tiles.

Every nearest-neighbor scan of the pipeline goes through ``topk``: queries,
refinement candidates (forward and mutual back-check) and the selection
criterion. Callers pass raw rows; the kernel normalizes them itself, one
block at a time, and a row's unit vector depends only on that row. A tile of
queries is ranked against all targets by one float32 matrix product; every
target within the float32 error bound of a query's k-th best is kept as a
candidate, and the candidates' similarities are recomputed in float64 by a
row-wise multiply-sum. The true top k are always among the candidates, and a
recomputed value depends only on its two rows, so a query gets the same
neighbors and similarities whichever batch or tile it is in. Besides its
inputs, a call holds one float32 unit copy of the targets plus one tile, and
no float64 copy of either side: memory is O(n_targets x d + tile x
n_targets), never O(n_queries x n_targets).
"""

from __future__ import annotations

import numpy as np

# bytes of the float32 similarity block ranked at once (query rows x targets)
TILE_BYTES = 1 << 22
# bytes of each block of float64 rows normalized at once: target rows for their
# float32 copy in ``topk``, and gathered rows in ``pair_sims``
GATHER_BYTES = 1 << 18


def unit_rows(m: np.ndarray) -> np.ndarray:
    """Rows scaled to unit Euclidean length; zero rows stay zero."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms > 0, norms, 1.0)


def pair_sims(a: np.ndarray, b: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """``a[ia[n]] . unit(b[ib[n]])`` for each n, by a row-wise multiply-sum.

    The gathered rows of ``b`` are normalized as they are gathered. Each value
    depends only on its two rows, not on which other pairs are computed
    alongside it.
    """
    out = np.empty(len(ia))
    step = max(1, GATHER_BYTES // (8 * a.shape[1]))
    for lo in range(0, len(ia), step):
        sl = slice(lo, lo + step)
        out[sl] = np.einsum("ij,ij->i", a[ia[sl]], unit_rows(b[ib[sl]]))
    return out


def topk(
    queries: np.ndarray, targets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k most similar target rows of each query row, by cosine.

    Both inputs are raw rows; each row is scaled to unit length here, one
    block at a time (see ``unit_rows``), so a zero row scores 0.0 against
    every row. Returns ``(indices, similarities)``, each of shape
    ``(n_queries, min(k, n_targets))``, ordered by similarity descending with
    ties broken by the lower target index. Each tile takes one path: the k-th
    best float32 value of each row, then all candidates of the tile from one
    scan of its flat mask.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n_q, n_t = queries.shape[0], targets.shape[0]
    k = min(k, n_t)
    idx = np.empty((n_q, k), dtype=np.int64)
    sims = np.empty((n_q, k))
    if k == 0:
        return idx, sims
    # For unit rows, rounding both to float32 and summing d products in
    # float32 errs by at most about (d + 2) * 2**-24 in any summation order,
    # so every target whose exact similarity reaches the k-th best ranks
    # within twice that of the float32 k-th best. The margin doubles it again
    # to cover the float32 rounding of the threshold itself.
    margin = (targets.shape[1] + 2) * 2.0**-21
    tgt32 = np.empty(targets.shape, dtype=np.float32)
    step = max(1, GATHER_BYTES // (8 * targets.shape[1]))
    for lo in range(0, n_t, step):
        tgt32[lo:lo + step] = unit_rows(targets[lo:lo + step])
    rows = max(1, TILE_BYTES // (4 * n_t))
    pick = np.arange(k)
    for lo in range(0, n_q, rows):
        q = unit_rows(queries[lo:lo + rows])
        block = q.astype(np.float32) @ tgt32.T
        # the k-th best float32 value of each row, taken row by row because
        # np.partition of the whole tile would copy the block
        kth = block.max(axis=1) if k == 1 else np.array(
            [np.partition(row, n_t - k)[n_t - k] for row in block])
        r, c = np.divmod(np.flatnonzero(block >= (kth - margin)[:, None]), n_t)
        del block
        exact = pair_sims(q, targets, r, c)
        order = np.lexsort((c, -exact, r))
        # after the sort each row's candidates are contiguous, at least k of them
        starts = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=len(q)))[:-1]))
        take = order[(starts[:, None] + pick).ravel()]
        idx[lo:lo + len(q)] = c[take].reshape(-1, k)
        sims[lo:lo + len(q)] = exact[take].reshape(-1, k)
    return idx, sims
