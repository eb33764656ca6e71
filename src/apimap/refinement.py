"""Iterative refinement: rebuild synthetic dictionaries, re-solve, repeat.

Two heuristics pick rows of one scan of the most frequent sources under the
current mapping: those with a mutual nearest neighbor, and those whose nearest
neighbor is above a cosine threshold. Their combined rows, each paired with
its nearest neighbor, feed a closed-form orthogonal re-solve; the loop keeps
the best-scoring snapshot under the unsupervised selection criterion. No
stage holds every source mapped at once: the scan maps only the sources it
ranks, and the mutual back-check maps every source one block at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import similarity
from .adversarial import selection_criterion
from .embedding import EmbeddingSpace
from .seeding import (
    MappingMatrix,
    STAGE_REFINED,
    SeedDictionary,
    check_pair,
    nearest_orthogonal,
    seed_matrices,
    solve_procrustes,
)
from .similarity import topk

log = logging.getLogger(__name__)


@dataclass
class RefineConfig:
    """Refinement hyperparameters."""

    topk: int = 500
    threshold: float = 0.7
    mode: str = "intersection"
    max_iters: int = 5
    patience: int = 1
    selection_topk: int = 1000

    def __post_init__(self) -> None:
        if self.topk < 1:
            raise ValueError("topk must be >= 1")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        if self.mode not in ("union", "intersection"):
            raise ValueError("mode must be 'union' or 'intersection'")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.selection_topk < 1:
            raise ValueError("selection_topk must be >= 1")


def aligned_scan(
    w: MappingMatrix | np.ndarray,
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    rows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nearest target of each of the first ``rows`` sources, the most
    frequent ones, mapped under W.

    Returns ``(W, nn, best)``: ``W`` is the d x d array scanned; ``nn[i]`` and
    ``best[i]`` are the nearest target of source i and their cosine, for i
    below ``rows``. Only those sources are mapped. ``topk`` gives any subset
    of rows the values it would give them alone, so a scan of the leading rows
    agrees with a longer scan on them. ``refine`` builds each dictionary from
    one scan of its first ``topk`` sources, which feeds both candidate
    heuristics.
    """
    w = np.asarray(w)
    nn, best = topk(src.vectors[:rows] @ w.T, tgt.vectors, 1)
    return w, nn[:, 0], best[:, 0]


def candidates_topk_frequency(
    scan: tuple[np.ndarray, np.ndarray, np.ndarray],
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
) -> np.ndarray:
    """Ascending scanned rows i of ``scan = aligned_scan(w, src, tgt, rows)``
    that are in turn the nearest mapped source of their nearest target
    ``nn[i]``: the mutual-neighbor filter standard for synthetic dictionaries.
    The scan holds only the most frequent sources, so these are frequent rows.

    The back-check searches every source, mapped under W in blocks of
    ``similarity.TILE_BYTES`` float64 bytes, and keeps each target's best
    source over the blocks. A tie keeps the earlier block, so the lower source
    index wins, as within one ``topk`` call.
    """
    w, nn, _ = scan
    chosen = tgt.vectors[nn]
    owner = np.zeros(len(nn), dtype=np.int64)
    top = np.full(len(nn), -np.inf)
    step = max(1, similarity.TILE_BYTES // (8 * src.dim))
    for lo in range(0, len(src), step):
        idx, sims = topk(chosen, src.vectors[lo:lo + step] @ w.T, 1)
        better = sims[:, 0] > top
        owner[better] = lo + idx[better, 0]
        top[better] = sims[better, 0]
    return np.flatnonzero(owner == np.arange(len(nn)))


def candidates_cosine_threshold(
    scan: tuple[np.ndarray, np.ndarray, np.ndarray],
    threshold: float,
) -> np.ndarray:
    """Ascending scanned rows i of ``scan = aligned_scan(w, src, tgt, rows)``
    whose nearest target ``nn[i]`` has cosine at or above the threshold. Not
    every API has a counterpart, so no row at all is a legitimate outcome at
    high thresholds.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    return np.flatnonzero(scan[2] >= threshold)


@dataclass
class RefineStep:
    """Per-iteration report row."""

    iteration: int
    candidates: int
    criterion: float


def refine(
    w2: MappingMatrix,
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    cfg: RefineConfig,
    report: list[RefineStep] | None = None,
) -> MappingMatrix:
    """Iteratively re-solve the mapping on synthetic candidate dictionaries.

    The baseline is the orthogonal part of the input. Each iteration builds
    candidates from one ``aligned_scan`` of the current W (the input, then the
    last solved W), solves the orthogonal alignment on them, and scores the
    solved W with ``selection_criterion``. The loop stops after ``max_iters``
    iterations, after ``patience`` iterations without beating the best score,
    when the candidate set comes up empty, or when it repeats the previous
    iteration's set exactly: the re-solve would reproduce the current W and
    its criterion, so that iteration's report row repeats the previous one.
    The best-scoring W, the baseline included, is returned; it is always
    orthogonal. Report row 0 is the baseline's criterion.

    Each scan ranks only the first ``cfg.topk`` sources, the most frequent,
    in both modes. A dictionary pairs each chosen row i of the scan with
    ``nn[i]``: the mutual-neighbor rows that pass the threshold in
    intersection mode, or the rows that pass either heuristic in union mode,
    ascending. No W is scanned after the last solve.
    """
    check_pair(w2, src, tgt)
    k_sel = min(cfg.selection_topk, len(src))
    best_w = nearest_orthogonal(w2.w)
    best_criterion = criterion = selection_criterion(best_w, src, tgt, k_sel)
    if report is not None:
        report.append(RefineStep(0, 0, criterion))
    w = w2.w
    previous: SeedDictionary | None = None
    stalled = 0
    for iteration in range(1, cfg.max_iters + 1):
        scan = aligned_scan(w, src, tgt, cfg.topk)
        by_freq = candidates_topk_frequency(scan, src, tgt)
        by_sim = candidates_cosine_threshold(scan, cfg.threshold)
        nn = scan[1]
        rows = (np.intersect1d if cfg.mode == "intersection" else np.union1d)(by_freq, by_sim)
        combined = SeedDictionary(
            tuple((src.vocab.tokens[i], tgt.vocab.tokens[nn[i]]) for i in rows)
        )
        if len(combined) == 0:
            log.warning(
                "refinement stopped at iteration %d: empty candidate set", iteration
            )
            break
        if previous is not None and combined == previous:
            if report is not None:
                report.append(RefineStep(iteration, len(combined), criterion))
            break
        previous = combined
        w = solve_procrustes(*seed_matrices(combined, src, tgt)).w
        criterion = selection_criterion(w, src, tgt, k_sel)
        if report is not None:
            report.append(RefineStep(iteration, len(combined), criterion))
        if criterion > best_criterion:
            best_criterion = criterion
            best_w = w
            stalled = 0
        else:
            stalled += 1
            if stalled >= cfg.patience:
                break
    return MappingMatrix(best_w, STAGE_REFINED, orthogonal=True)
