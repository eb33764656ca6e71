"""Cross-space nearest-neighbor queries over an aligned pair of embedding spaces.

A query maps a source vector through W and ranks target tokens by cosine
similarity with an exact scan. Target vectors are pre-normalized once per
space, so ranking reduces to a dot product; a batch of queries is ranked by
one tiled scan (``similarity.topk``) and gets the same results as the same
queries one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingSpace
from .seeding import MappingMatrix
from .similarity import topk, unit_rows


@dataclass(frozen=True)
class QueryResult:
    """Ranked neighbors for one query token.

    ``neighbors`` holds up to k (target_token, cosine) pairs with similarities
    non-increasing. ``oov`` marks source tokens absent from the vocabulary.
    """

    query_token: str
    neighbors: tuple[tuple[str, float], ...] = ()
    oov: bool = False

    def __post_init__(self) -> None:
        sims = [s for _, s in self.neighbors]
        if any(sims[i] < sims[i + 1] for i in range(len(sims) - 1)):
            raise ValueError("similarities must be non-increasing")
        tokens = [t for t, _ in self.neighbors]
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate target token in result")

    @property
    def tokens(self) -> list[str]:
        return [t for t, _ in self.neighbors]


def batch_query(
    tokens: list[str],
    w: MappingMatrix,
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    k: int,
    threshold: float | None = None,
) -> list[QueryResult]:
    """Exact top-k target tokens by cosine similarity to each mapped source token.

    Each result equals the same token queried alone. Ties are broken by
    vocabulary index. With a threshold, neighbors below it are filtered out
    and a result may be empty. Unknown source tokens yield an oov-marked
    result. A token whose mapped vector is zero has no defined cosine and
    raises ValueError naming the first such token; a W that is not d x d for
    the source dimension d, a target space of another dimension, or a
    threshold outside [0, 1), raises ValueError.
    """
    if threshold is not None and not 0 <= threshold < 1:
        raise ValueError(f"threshold {threshold} outside [0, 1)")
    m = np.asarray(w)
    if m.shape != (src.dim, src.dim) or tgt.dim != src.dim:
        raise ValueError(
            f"dimension mismatch: W is {m.shape}, source {src.dim}, target {tgt.dim}"
        )
    known = [t for t in tokens if t in src]
    rows = src.vectors[[src.vocab.index(t) for t in known]]
    # one matrix-vector product per token: a row of X @ W.T can differ in its
    # last bits from the same row computed alone, and a batch must equal its
    # queries run singly
    mapped = np.matmul(m, rows[:, :, None])[:, :, 0]
    zero = np.flatnonzero(~(np.linalg.norm(mapped, axis=1) > 0))
    if zero.size:
        raise ValueError(f"undefined cosine for zero query vector of {known[zero[0]]!r}")
    idx, sims = topk(unit_rows(mapped), tgt.unit_vectors, k)
    names = tgt.vocab.tokens
    ranked = (
        QueryResult(
            token,
            tuple(
                (names[i], s)
                for i, s in zip(row_idx.tolist(), row_sims.tolist())
                if threshold is None or s >= threshold
            ),
        )
        for token, row_idx, row_sims in zip(known, idx, sims)
    )
    return [
        next(ranked) if t in src else QueryResult(t, (), oov=True) for t in tokens
    ]
