"""Shared test utilities: synthetic paired-space tasks and independent oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from apimap.corpus import Vocabulary
from apimap.embedding import EmbeddingSpace
from apimap.errors import DivergenceError
from apimap.evaluation import GroundTruth
from apimap.seeding import STAGE_SEEDED, MappingMatrix, SeedDictionary, random_orthogonal
from apimap.similarity import unit_rows


@dataclass
class PairedTask:
    """A synthetic alignment problem with known ground-truth correspondence."""

    src: EmbeddingSpace
    tgt: EmbeddingSpace
    rotation: np.ndarray
    seed_idx: np.ndarray   # (n_seeds, 2) source/target vocab indices
    truth_idx: np.ndarray  # (n_truth, 2)

    @property
    def seeds(self) -> SeedDictionary:
        return SeedDictionary(
            tuple(
                (self.src.vocab.tokens[i], self.tgt.vocab.tokens[j])
                for i, j in self.seed_idx
            )
        )

    @property
    def truth(self) -> GroundTruth:
        return GroundTruth(
            tuple(
                (self.src.vocab.tokens[i], self.tgt.vocab.tokens[j])
                for i, j in self.truth_idx
            )
        )


def make_paired_task(
    n: int = 2000,
    dim: int = 50,
    noise: float = 0.05,
    n_seeds: int = 30,
    n_truth: int = 200,
    seed: int = 0,
    n_clusters: int = 20,
    spread: float = 0.35,
    decoy_frac: float = 0.0,
    rank_noise: float = 0.0,
) -> PairedTask:
    """Build cluster-structured paired spaces where tgt = R @ src + noise.

    ``decoy_frac`` adds that fraction of extra tokens per side drawn from
    side-specific clusters with no counterpart in the other space.
    ``rank_noise`` scales the noise up linearly with frequency rank, making
    rare tokens noisier than frequent ones.
    """
    rng = default_rng(seed)
    n_decoy = int(round(decoy_frac * n))
    centers = rng.normal(size=(n_clusters, dim))
    assign = rng.integers(0, n_clusters, n)
    x = centers[assign] + spread * rng.normal(size=(n, dim))
    rotation = random_orthogonal(dim, rng)
    scale = noise * (1.0 + rank_noise * np.arange(n) / n)
    y = x @ rotation.T + scale[:, None] * rng.normal(size=(n, dim))
    if n_decoy:
        k = max(2, n_clusters // 4)
        dc_src = rng.normal(size=(k, dim))
        dc_tgt = rng.normal(size=(k, dim))
        dx = dc_src[rng.integers(0, k, n_decoy)] + spread * rng.normal(size=(n_decoy, dim))
        dy = dc_tgt[rng.integers(0, k, n_decoy)] @ rotation.T + spread * rng.normal(
            size=(n_decoy, dim)
        )
        x = np.vstack([x, dx])
        y = np.vstack([y, dy])
        perm_s = rng.permutation(n + n_decoy)
        perm_t = rng.permutation(n + n_decoy)
    else:
        perm_s = np.arange(n)
        perm_t = np.arange(n)
    inv_s = np.argsort(perm_s)
    inv_t = np.argsort(perm_t)
    total = len(perm_s)
    counts = np.arange(2 * total, total, -1)
    src = EmbeddingSpace(
        x[perm_s], Vocabulary([f"s{i:05d}" for i in range(total)], counts)
    )
    tgt = EmbeddingSpace(
        y[perm_t], Vocabulary([f"t{i:05d}" for i in range(total)], counts)
    )
    chosen = rng.choice(n, size=n_seeds + n_truth, replace=False)
    seed_idx = np.stack([inv_s[chosen[:n_seeds]], inv_t[chosen[:n_seeds]]], axis=1)
    truth_idx = np.stack([inv_s[chosen[n_seeds:]], inv_t[chosen[n_seeds:]]], axis=1)
    return PairedTask(src, tgt, rotation, seed_idx, truth_idx)


def rotate_pair(
    src: EmbeddingSpace, tgt: EmbeddingSpace, p: np.ndarray, q: np.ndarray
) -> tuple[EmbeddingSpace, EmbeddingSpace]:
    """The pair with every source vector x replaced by P x and every target
    vector y by Q y, vocabularies unchanged. Cosines between W-mapped sources
    and targets are the same under Q W P^T in the rotated pair, so a W that its
    data determine must become Q W P^T."""
    return (
        EmbeddingSpace(src.vectors @ p.T, src.vocab),
        EmbeddingSpace(tgt.vectors @ q.T, tgt.vocab),
    )


def oracle_top1(w, src: EmbeddingSpace, tgt: EmbeddingSpace, truth_idx: np.ndarray) -> float:
    """Ground-truth top-1 accuracy by direct argmax over all target cosines."""
    m = w.w if isinstance(w, MappingMatrix) else np.asarray(w)
    mapped = src.vectors[truth_idx[:, 0]] @ m.T
    mapped = mapped / np.linalg.norm(mapped, axis=1, keepdims=True)
    sims = mapped @ tgt.unit_vectors.T
    return float(np.mean(sims.argmax(axis=1) == truth_idx[:, 1]))


def solve_gradient_descent(
    x_s: np.ndarray,
    y_s: np.ndarray,
    lr: float = 0.1,
    iters: int = 1000,
) -> MappingMatrix:
    """Unconstrained least-squares baseline to the Procrustes solution:
    minimize mean ||W x_i - y_i||^2 over unit-normalized seed rows.

    Full-batch gradient descent from W = 0. The result is not orthogonal in
    general. Raises DivergenceError when the loss increases for 10 consecutive
    iterations.
    """
    if lr <= 0:
        raise ValueError("lr must be > 0")
    x = unit_rows(x_s)
    y = unit_rows(y_s)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError("seed matrices must have identical |S| x d shapes")
    n, d = x.shape
    w = np.zeros((d, d))
    prev_loss = np.inf
    rising = 0
    for _ in range(iters):
        residual = x @ w.T - y
        loss = float(np.sum(residual**2)) / n
        if loss > prev_loss:
            rising += 1
            if rising >= 10:
                raise DivergenceError(
                    f"gradient descent diverged, loss rose 10 iterations in a row "
                    f"(last loss {loss:.6g})"
                )
        else:
            rising = 0
        prev_loss = loss
        grad = (2.0 / n) * residual.T @ x
        w -= lr * grad
    return MappingMatrix(w, STAGE_SEEDED, orthogonal=False)


def brute_force_neighbors(v: np.ndarray, vectors: np.ndarray, k: int):
    """Naive full-sort nearest-neighbor oracle: cosine per row, stable sort."""
    sims = []
    vn = v / np.linalg.norm(v)
    for row in vectors:
        norm = np.linalg.norm(row)
        sims.append(float(row @ vn / norm) if norm > 0 else 0.0)
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
    return [(i, sims[i]) for i in order[:k]]


def planted_corpus(n_lines: int = 10000, n_fillers: int = 200, seed: int = 0):
    """Corpus where 'p q' always co-occur and 'p r' never do, over filler noise."""
    rng = default_rng(seed)
    fillers = [f"tok{i:03d}" for i in range(n_fillers)]
    lines = []
    for _ in range(n_lines):
        base = [fillers[rng.integers(n_fillers)] for _ in range(3)]
        roll = rng.random()
        if roll < 0.35:
            lines.append(["p", "q", base[0]])
        elif roll < 0.7:
            lines.append(["r", base[1], base[2]])
        else:
            lines.append(base)
    return lines


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
