"""Skip-gram embeddings with negative sampling, plus text-format persistence.

The trainer is a plain numpy implementation of skip-gram with negative
sampling: frequent-token subsampling, unigram^0.75 negative distribution,
per-center context windows sampled uniformly in [1, window], and linear
learning-rate decay. Single-worker runs are bit-reproducible given a seed;
multi-worker runs update shared weights without locks and trade determinism
for throughput.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .corpus import CodeSequence, Vocabulary, build_vocabulary
from .errors import FormatError
from .similarity import unit_rows

NEGATIVE_TABLE_EXPONENT = 0.75
MIN_LEARNING_RATE = 1e-4


@dataclass
class TrainConfig:
    """Skip-gram hyperparameters. Defaults follow common word2vec practice."""

    dim: int = 300
    epochs: int = 5
    learning_rate: float = 0.025
    negatives: int = 30
    window: int = 10
    subsample: float = 1e-4
    min_count: int = 1
    workers: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(eq=False)
class EmbeddingSpace:
    """A vocabulary with one d-dimensional real vector per token.

    Row i of ``vectors`` belongs to the token with vocabulary index i.
    """

    vectors: np.ndarray
    vocab: Vocabulary
    _unit: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if self.vectors.shape[0] != len(self.vocab):
            raise ValueError(
                f"{self.vectors.shape[0]} vector rows for {len(self.vocab)} vocab tokens"
            )
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("vectors contain non-finite entries")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.vocab.index(token)]

    @property
    def unit_vectors(self) -> np.ndarray:
        """Row-normalized copy of the vectors, cached. Zero rows stay zero."""
        if self._unit is None:
            self._unit = unit_rows(self.vectors)
        return self._unit


def subsample_keep_probs(counts: np.ndarray, subsample: float) -> np.ndarray:
    """Per-token keep probability for frequent-token subsampling.

    Uses the standard implementation rule keep = sqrt(t/f) + t/f (capped at 1)
    where f is the token's corpus frequency ratio and t the subsample rate.
    Tokens with f small enough that the formula reaches 1 are never dropped.
    """
    total = counts.sum()
    ratio = counts / total
    keep = np.sqrt(subsample / ratio) + subsample / ratio
    return np.minimum(keep, 1.0)


def sgns_step(
    center_vec: np.ndarray, output_vecs: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and gradients for one negative-sampling step.

    ``output_vecs`` stacks the positive context row (label 1) and the negative
    rows (label 0). Returns ``(loss, grad_center, grad_outputs)`` for the loss
    -sum(label*log sigma(u.v) + (1-label)*log sigma(-u.v)).
    """
    scores = output_vecs @ center_vec
    # log sigma(z) = -logaddexp(0, -z), stable for large |z|
    loss = float(
        np.sum(
            labels * np.logaddexp(0.0, -scores)
            + (1.0 - labels) * np.logaddexp(0.0, scores)
        )
    )
    probs = 1.0 / (1.0 + np.exp(-scores))
    residual = probs - labels
    grad_center = residual @ output_vecs
    grad_outputs = np.outer(residual, center_vec)
    return loss, grad_center, grad_outputs


class _NegativeTable:
    """Samples token indices from the unigram^0.75 distribution."""

    def __init__(self, counts: np.ndarray):
        weights = np.asarray(counts, dtype=np.float64) ** NEGATIVE_TABLE_EXPONENT
        self.cum = np.cumsum(weights)
        self.total = self.cum[-1]

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return np.searchsorted(self.cum, rng.random(k) * self.total)


def _train_shard(
    lines: list[np.ndarray],
    syn_in: np.ndarray,
    syn_out: np.ndarray,
    keep: np.ndarray,
    table: _NegativeTable,
    cfg: TrainConfig,
    rng: np.random.Generator,
    total_words: int,
    progress: list[int],
) -> None:
    """One full pass over a shard of encoded lines, updating shared weights.

    All (center, context) pairs of one line are updated together from the
    weights at the start of the line; this batches the tiny per-pair numpy
    calls without affecting seeded reproducibility.
    """
    alpha = cfg.learning_rate
    for line in lines:
        progress[0] += len(line)
        alpha = max(
            MIN_LEARNING_RATE,
            cfg.learning_rate * (1.0 - progress[0] / (total_words + 1)),
        )
        if len(line) < 2:
            continue
        mask = rng.random(len(line)) < keep[line]
        kept = line[mask]
        n = len(kept)
        if n < 2:
            continue
        spans = rng.integers(1, cfg.window + 1, size=n)
        centers_list = []
        contexts_list = []
        for i in range(n):
            lo = max(0, i - spans[i])
            hi = min(n, i + spans[i] + 1)
            for j in range(lo, hi):
                if j != i:
                    centers_list.append(kept[i])
                    contexts_list.append(kept[j])
        if not centers_list:
            continue
        centers = np.asarray(centers_list)
        contexts = np.asarray(contexts_list)
        pairs = len(centers)

        negatives = table.draw(rng, pairs * cfg.negatives).reshape(pairs, cfg.negatives)
        for _ in range(3):
            bad = negatives == contexts[:, None]
            n_bad = int(bad.sum())
            if n_bad == 0:
                break
            negatives[bad] = table.draw(rng, n_bad)
        targets = np.concatenate([contexts[:, None], negatives], axis=1)
        labels = np.zeros(targets.shape)
        labels[:, 0] = 1.0
        # negatives that still collide with their positive context are inert
        weights = np.ones(targets.shape)
        weights[:, 1:][negatives == contexts[:, None]] = 0.0

        v = syn_in[centers]
        u = syn_out[targets]
        scores = (u @ v[:, :, None])[:, :, 0]
        residual = (1.0 / (1.0 + np.exp(-scores)) - labels) * weights
        grad_centers = (residual[:, None, :] @ u)[:, 0, :]
        grad_outputs = residual[:, :, None] * v[:, None, :]
        np.add.at(syn_out, targets.ravel(), -alpha * grad_outputs.reshape(-1, syn_out.shape[1]))
        np.add.at(syn_in, centers, -alpha * grad_centers)


def train_skipgram(corpus: Iterable[CodeSequence], cfg: TrainConfig) -> EmbeddingSpace:
    """Train a skip-gram embedding space over a corpus of code sequences.

    Raises ValueError for an empty corpus or one without any context pairs.
    """
    sequences = [seq for seq in corpus]
    vocab = build_vocabulary(sequences, cfg.min_count)
    index = {t: i for i, t in enumerate(vocab.tokens)}
    lines = [
        np.array([index[t] for t in seq if t in index], dtype=np.int64)
        for seq in sequences
    ]
    lines = [line for line in lines if len(line) > 0]
    if not any(len(line) >= 2 for line in lines):
        raise ValueError("no context pairs in corpus")

    counts = np.asarray(vocab.counts, dtype=np.float64)
    keep = subsample_keep_probs(counts, cfg.subsample)
    table = _NegativeTable(counts)

    rng = np.random.default_rng(cfg.rng_seed)
    syn_in = (rng.random((len(vocab), cfg.dim)) - 0.5) / cfg.dim
    syn_out = np.zeros((len(vocab), cfg.dim))

    total_words = sum(len(line) for line in lines) * cfg.epochs
    progress = [0]
    for _ in range(cfg.epochs):
        if cfg.workers == 1:
            _train_shard(lines, syn_in, syn_out, keep, table, cfg, rng, total_words, progress)
        else:
            shards = [lines[w :: cfg.workers] for w in range(cfg.workers)]
            threads = [
                threading.Thread(
                    target=_train_shard,
                    args=(
                        shard,
                        syn_in,
                        syn_out,
                        keep,
                        table,
                        cfg,
                        np.random.default_rng((cfg.rng_seed, w)),
                        total_words,
                        progress,
                    ),
                )
                for w, shard in enumerate(shards)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    return EmbeddingSpace(syn_in, vocab)


def save_space(space: EmbeddingSpace, path: str) -> None:
    """Write a space in word2vec text format plus a ``<path>.freq`` sidecar.

    Values are written with 6 significant digits; loading a saved space
    reproduces vectors to within that rounding.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for i, token in enumerate(space.vocab.tokens):
            row = " ".join("%.6g" % v for v in space.vectors[i])
            fh.write(f"{token} {row}\n")
    with open(path + ".freq", "w", encoding="utf-8") as fh:
        for token, count in zip(space.vocab.tokens, space.vocab.counts):
            fh.write(f"{token}\t{count}\n")


def load_space(path: str) -> EmbeddingSpace:
    """Read a word2vec text-format space; uses the frequency sidecar if present.

    With a sidecar, counts must be non-increasing down the vector file's rows,
    since later stages take the first rows as the most frequent tokens; a
    sidecar that breaks this order raises FormatError. Without one, every
    count is 1 and file order stands.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: malformed header {' '.join(header)!r}")
        try:
            n, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError(f"{path}: malformed header {' '.join(header)!r}") from exc
        tokens: list[str] = []
        rows = np.empty((n, dim))
        filled = 0
        for lineno, line in enumerate(fh, start=2):
            cols = line.split()
            if not cols:
                continue
            if len(cols) != dim + 1:
                raise FormatError(
                    f"{path}:{lineno}: dimension mismatch, "
                    f"expected {dim} values, got {len(cols) - 1}"
                )
            if filled >= n:
                raise FormatError(f"{path}: row count mismatch, more than {n} rows")
            tokens.append(cols[0])
            rows[filled] = [float(v) for v in cols[1:]]
            filled += 1
        if filled != n:
            raise FormatError(f"{path}: row count mismatch, header says {n}, got {filled}")

    counts = [1] * n
    sidecar = path + ".freq"
    if os.path.exists(sidecar):
        freq: dict[str, int] = {}
        with open(sidecar, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                cols = line.split("\t")
                if len(cols) != 2:
                    raise FormatError(f"{sidecar}:{lineno}: expected 2 columns")
                freq[cols[0]] = int(cols[1])
        counts = [freq.get(t, 1) for t in tokens]
        # row 0 must be the most frequent token: the selection criterion,
        # adversarial sampling and refinement candidates all read the head
        for i in range(n - 1):
            if counts[i] < counts[i + 1]:
                raise FormatError(
                    f"{sidecar}: counts increase from {tokens[i]} ({counts[i]}) to "
                    f"{tokens[i + 1]} ({counts[i + 1]}); rows must be in "
                    f"non-increasing frequency order"
                )
    return EmbeddingSpace(rows, Vocabulary(tokens, counts))


__all__ = [
    "TrainConfig",
    "EmbeddingSpace",
    "train_skipgram",
    "sgns_step",
    "subsample_keep_probs",
    "save_space",
    "load_space",
    "MIN_LEARNING_RATE",
]
