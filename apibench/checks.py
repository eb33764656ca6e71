"""Checks computed apart from the program: brute-force retrieval, orthogonality,
the selection criterion, coverage monotonicity, the planted co-occurrence
margin and the text format's rounding.

None of these calls apimap; each recomputes what it checks from plain arrays,
so a fault shared by a program function and its check cannot hide.
"""

from __future__ import annotations

import numpy as np

# %.6g keeps 6 significant digits: |x - round(x)| <= 5e-6 |x|, plus parse error
TEXT_RTOL = 5.0e-6 * (1.0 + 1e-9)
SIM_TOL = 1e-9


def unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))[:, None]
    return m / np.where(norms > 0, norms, 1.0)


def brute_topk(queries: np.ndarray, targets: np.ndarray, k: int, block: int = 256):
    """Exact top-k targets by cosine for each query row.

    Ties are broken by the lower target index. Returns (indices, similarities),
    each of shape (n_queries, k).
    """
    q = unit_rows(np.asarray(queries, dtype=np.float64))
    t = unit_rows(np.asarray(targets, dtype=np.float64))
    k = min(k, t.shape[0])
    idx = np.empty((q.shape[0], k), dtype=np.int64)
    sims = np.empty((q.shape[0], k))
    for lo in range(0, q.shape[0], block):
        s = q[lo:lo + block] @ t.T
        # every index whose similarity reaches the k-th largest is a candidate,
        # so ties at the boundary are all considered before the index tie-break
        kth = -np.partition(-s, k - 1, axis=1)[:, k - 1]
        for r in range(s.shape[0]):
            cand = np.flatnonzero(s[r] >= kth[r])
            order = cand[np.lexsort((cand, -s[r, cand]))][:k]
            idx[lo + r] = order
            sims[lo + r] = s[r, order]
    return idx, sims


def topk_hits(topk_idx: np.ndarray, expected: np.ndarray, k: int) -> float:
    """Share of rows whose expected target index is among the first k."""
    return float(np.mean(np.any(topk_idx[:, :k] == expected[:, None], axis=1)))


def results_match(program: list[tuple[int, float]], idx: np.ndarray, sims: np.ndarray,
                  all_sims: np.ndarray) -> str | None:
    """Compare one program result (target index, similarity) list to the oracle.

    Indices must agree rank by rank, except where the oracle's similarities of
    the two indices are equal within SIM_TOL (a tie the float order may break
    either way). Similarities must agree within SIM_TOL. Returns a message on
    mismatch, else None.
    """
    if len(program) != len(idx):
        return f"{len(program)} neighbours, oracle has {len(idx)}"
    for rank, ((p_idx, p_sim), o_idx, o_sim) in enumerate(zip(program, idx, sims)):
        if abs(p_sim - o_sim) > SIM_TOL:
            return f"rank {rank}: similarity {p_sim!r} vs oracle {o_sim!r}"
        if p_idx != o_idx and abs(all_sims[p_idx] - o_sim) > SIM_TOL:
            return f"rank {rank}: index {p_idx} vs oracle {o_idx}"
    return None


def orthogonality_error(w: np.ndarray) -> float:
    """Frobenius norm of W^T W - I."""
    w = np.asarray(w, dtype=np.float64)
    return float(np.linalg.norm(w.T @ w - np.eye(w.shape[1])))


def criterion(w: np.ndarray, src: np.ndarray, tgt: np.ndarray, k: int) -> float:
    """Mean best cosine of the first k mapped source rows against all targets."""
    mapped = unit_rows(src[:k] @ np.asarray(w).T)
    return float((mapped @ unit_rows(tgt).T).max(axis=1).mean())


def coverage_monotone(rows: list[tuple[float, int, float]]) -> str | None:
    """(threshold, k, coverage) rows: coverage must not rise with the threshold
    at fixed k and must not fall with k at a fixed threshold."""
    table = {(t, k): c for t, k, c in rows}
    thresholds = sorted({t for t, _, _ in rows})
    ks = sorted({k for _, k, _ in rows})
    for k in ks:
        for lo, hi in zip(thresholds, thresholds[1:]):
            if table[(hi, k)] > table[(lo, k)]:
                return f"coverage rises from threshold {lo} to {hi} at k={k}"
    for t in thresholds:
        for lo, hi in zip(ks, ks[1:]):
            if table[(t, hi)] < table[(t, lo)]:
                return f"coverage falls from k={lo} to k={hi} at threshold {t}"
    return None


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def planted_margin(vec) -> float:
    """cos(p, q) - cos(p, r): p and q always co-occur, p and r never do."""
    p, q, r = vec("plant_p"), vec("plant_q"), vec("plant_r")
    return cosine(p, q) - cosine(p, r)


def within_text_rounding(loaded: np.ndarray, exact: np.ndarray) -> bool:
    """True when every loaded value is the exact one rounded to 6 digits."""
    loaded, exact = np.asarray(loaded), np.asarray(exact)
    return loaded.shape == exact.shape and bool(
        np.all(np.abs(loaded - exact) <= TEXT_RTOL * np.abs(exact))
    )
