"""Skip-gram embeddings with negative sampling, plus text-format persistence.

The trainer is a plain numpy implementation of skip-gram with negative
sampling: frequent-token subsampling, unigram^0.75 negative distribution,
per-center context windows sampled uniformly in [1, window], and linear
learning-rate decay. One training step covers a group of consecutive whole
lines, as Ji et al. 2016 batch many contexts into one update: one call of
``sgns_step``, the gradient that the tests check against ``sgns_loss``, for
every (center, context) pair of the group, and one ``np.bincount`` scatter-add
per weight matrix. A group closes at ``STEP_PAIRS`` expected pairs, or earlier
when its gradient block could exceed ``similarity.TILE_BYTES``, so wide
configurations still take one line per step. Single-worker runs are
bit-reproducible given a seed; multi-worker runs train one shard of lines per
thread, update the shared weights without locks and trade determinism for
throughput.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .corpus import CodeSequence, Vocabulary, build_vocabulary, parse_float, read_tsv
from .errors import FormatError
from .similarity import TILE_BYTES, unit_rows

NEGATIVE_TABLE_EXPONENT = 0.75
MIN_LEARNING_RATE = 1e-4
# expected (center, context) pairs at which a step's group of lines closes
STEP_PAIRS = 512


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


def sgns_loss(
    centers: np.ndarray, outputs: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> float:
    """Weighted negative-sampling loss of a batch of steps.

    Step b scores ``centers[b]`` (d,) against ``outputs[b]`` (K, d): the
    positive context row (label 1) and the negative rows (label 0). The loss is
    -sum(weight * (label*log sigma(u.v) + (1-label)*log sigma(-u.v))); this is
    the reference that ``sgns_step`` differentiates.
    """
    scores = (outputs @ centers[:, :, None])[:, :, 0]
    # log sigma(z) = -logaddexp(0, -z), stable for large |z|
    nll = labels * np.logaddexp(0.0, -scores) + (1.0 - labels) * np.logaddexp(0.0, scores)
    return float(np.sum(weights * nll))


def sgns_step(
    centers: np.ndarray, outputs: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``sgns_loss`` for a batch of steps.

    Returns ``(grad_centers, grad_outputs)`` shaped like ``centers`` (B, d)
    and ``outputs`` (B, K, d). A zero weight makes its row inert.
    """
    scores = (outputs @ centers[:, :, None])[:, :, 0]
    residual = (1.0 / (1.0 + np.exp(-scores)) - labels) * weights
    grad_centers = (residual[:, None, :] @ outputs)[:, 0, :]
    grad_outputs = residual[:, :, None] * centers[:, None, :]
    return grad_centers, grad_outputs


class _NegativeTable:
    """Samples token indices from the unigram^0.75 distribution."""

    def __init__(self, counts: np.ndarray):
        weights = np.asarray(counts, dtype=np.float64) ** NEGATIVE_TABLE_EXPONENT
        self.cum = np.cumsum(weights)
        self.total = self.cum[-1]

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return np.searchsorted(self.cum, rng.random(k) * self.total)


def _window_pairs(spans: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j) of every center i and context j with 0 < |j - i| <= spans[i].

    Pairs come center-major with contexts ascending.
    """
    offsets = np.arange(-window, window + 1)
    near = np.abs(offsets) <= spans[:, None]
    near[:, window] = False  # a token is not its own context
    i, k = np.nonzero(near)
    j = i + offsets[k]
    inside = (j >= 0) & (j < len(spans))
    return i[inside], j[inside]


def _group_pairs(
    spans: np.ndarray, line_of: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_window_pairs`` over several lines laid end to end, without the pairs
    that cross a line; ``line_of[i]`` numbers the line of position i."""
    i, j = _window_pairs(spans, window)
    same = line_of[i] == line_of[j]
    return i[same], j[same]


def _scatter_add(target: np.ndarray, rows: np.ndarray, values: np.ndarray, scale: float) -> None:
    """``target[rows] += scale * values`` with repeated rows summed, as
    ``np.add.at`` does, by one ``np.bincount`` over (distinct row, column)."""
    uniq, inv = np.unique(rows, return_inverse=True)
    dim = target.shape[1]
    sums = np.bincount(
        (inv[:, None] * dim + np.arange(dim)).ravel(),
        weights=values.ravel(),
        minlength=len(uniq) * dim,
    )
    sums *= scale
    target[uniq] += sums.reshape(len(uniq), dim)


def _step_groups(
    lines: list[np.ndarray], keep: np.ndarray, cfg: TrainConfig
) -> list[list[np.ndarray]]:
    """Consecutive whole lines grouped into training steps.

    A group closes once its expected pairs (expected kept tokens times
    ``window + 1``) reach ``STEP_PAIRS``, or before a line whose most possible
    pairs would take the group's ``(pairs, negatives + 1, dim)`` float64
    gradient block past ``TILE_BYTES``. A line is never split, so a line that
    alone exceeds the block limit is a step of its own.
    """
    pair_bytes = 8 * (cfg.negatives + 1) * cfg.dim
    groups = []
    start, expected, most = 0, 0.0, 0
    for k, line in enumerate(lines):
        line_most = len(line) * min(2 * cfg.window, len(line) - 1)
        if k > start and (most + line_most) * pair_bytes > TILE_BYTES:
            groups.append(lines[start:k])
            start, expected, most = k, 0.0, 0
        expected += float(keep[line].sum()) * (cfg.window + 1)
        most += line_most
        if expected >= STEP_PAIRS:
            groups.append(lines[start : k + 1])
            start, expected, most = k + 1, 0.0, 0
    if start < len(lines):
        groups.append(lines[start:])
    return groups


def _train_shard(
    groups: list[list[np.ndarray]],
    rng: np.random.Generator,
    done: int,
    *,
    syn_in: np.ndarray,
    syn_out: np.ndarray,
    keep: np.ndarray,
    table: _NegativeTable,
    cfg: TrainConfig,
    total_words: int,
) -> int:
    """One pass over a shard's line groups (``_step_groups``), updating the
    shared weights.

    ``done`` counts the shard's words trained so far; scaled by the number of
    shards it stands for the run's progress in the learning-rate decay. One
    step trains one group: every (center, context) pair of its lines is updated
    together from the weights at the start of the step, at the learning rate
    of the step's last word. Returns the new ``done``.
    """
    for group in groups:
        tokens = np.concatenate(group)
        line_of = np.repeat(np.arange(len(group)), [len(line) for line in group])
        done += len(tokens)
        alpha = max(
            MIN_LEARNING_RATE,
            cfg.learning_rate * (1.0 - done * cfg.workers / (total_words + 1)),
        )
        kept = rng.random(len(tokens)) < keep[tokens]
        words = tokens[kept]
        spans = rng.integers(1, cfg.window + 1, size=len(words))
        i, j = _group_pairs(spans, line_of[kept], cfg.window)
        if len(i) == 0:
            continue
        centers, contexts = words[i], words[j]
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

        grad_centers, grad_outputs = sgns_step(syn_in[centers], syn_out[targets], labels, weights)
        _scatter_add(syn_out, targets.ravel(), grad_outputs.reshape(-1, syn_out.shape[1]), -alpha)
        _scatter_add(syn_in, centers, grad_centers, -alpha)
    return done


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
    rng = np.random.default_rng(cfg.rng_seed)
    syn_in = (rng.random((len(vocab), cfg.dim)) - 0.5) / cfg.dim
    syn_out = np.zeros((len(vocab), cfg.dim))

    keep = subsample_keep_probs(counts, cfg.subsample)
    shards = [_step_groups(lines[w :: cfg.workers], keep, cfg) for w in range(cfg.workers)]
    # one worker keeps drawing from the generator that initialized the weights
    rngs = [rng] if cfg.workers == 1 else [
        np.random.default_rng((cfg.rng_seed, w)) for w in range(cfg.workers)
    ]
    train = partial(
        _train_shard, syn_in=syn_in, syn_out=syn_out, keep=keep,
        table=_NegativeTable(counts), cfg=cfg,
        total_words=sum(len(line) for line in lines) * cfg.epochs,
    )
    done = [0] * cfg.workers
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        for _ in range(cfg.epochs):
            # consuming the results re-raises a worker's exception here
            done = list(pool.map(train, shards, rngs, done))
    return EmbeddingSpace(syn_in, vocab)


def save_space(space: EmbeddingSpace, path: str) -> None:
    """Write a space in word2vec text format plus a ``<path>.freq`` sidecar.

    Values are written with 6 significant digits; loading a saved space
    reproduces vectors to within that rounding.
    """
    row = " ".join(["%.6g"] * space.dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for token, values in zip(space.vocab.tokens, space.vectors):
            fh.write(f"{token} {row % tuple(values.tolist())}\n")
    with open(path + ".freq", "w", encoding="utf-8") as fh:
        for token, count in zip(space.vocab.tokens, space.vocab.counts):
            fh.write(f"{token}\t{count}\n")


def load_space(path: str) -> EmbeddingSpace:
    """Read a word2vec text-format space; uses the frequency sidecar if present.

    A malformed header or row, a dimension below 1, a nan or infinite value
    and a repeated token raise FormatError naming the file and, for a row,
    its line; so does a token repeated in the sidecar.

    With a sidecar, counts must be non-increasing down the vector file's rows,
    since later stages take the first rows as the most frequent tokens; a
    sidecar that breaks this order raises FormatError. Without one, every
    count is 1 and the row order is taken as frequency order, unchecked.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            n, dim = map(int, header)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed header {' '.join(header)!r}") from exc
        if dim < 1:
            raise FormatError(f"{path}: dimension {dim} in header is below 1")
        tokens: list[str] = []

        def values() -> Iterator[str]:
            for line in fh:  # the one Python loop over rows; numpy parses the values in C
                cols = line.split(None, 1)
                tokens.extend(cols[:1])
                yield cols[1] if len(cols) == 2 else ""  # loadtxt skips an empty line

        try:  # a header of 0 rows skips loadtxt, which warns on empty input
            rows = np.loadtxt(values(), dtype=np.float64, comments=None, ndmin=2) if n else None
        except ValueError:
            rows = None
        if (rows is None or rows.shape != (n, dim) or len(tokens) != n
                or not np.isfinite(rows).all() or len(set(tokens)) != n):
            # re-read line by line to raise the first fault; only a space with n 0 passes
            fh.seek(0)
            fh.readline()
            seen: set[str] = set()
            for lineno, line in enumerate(fh, start=2):
                cols = line.split()
                if not cols:
                    continue
                if len(cols) != dim + 1:
                    raise FormatError(f"{path}:{lineno}: dimension mismatch, "
                                      f"expected {dim} values, got {len(cols) - 1}")
                if len(seen) >= n:
                    raise FormatError(f"{path}: row count mismatch, more than {n} rows")
                for v in cols[1:]:
                    parse_float(v, path, lineno)
                if cols[0] in seen:
                    raise FormatError(f"{path}:{lineno}: token {cols[0]!r} repeats an earlier row")
                seen.add(cols[0])
            if len(seen) != n:
                raise FormatError(f"{path}: row count mismatch, header says {n}, got {len(seen)}")
            rows = np.empty((n, dim))

    counts = [1] * n
    sidecar = path + ".freq"
    if os.path.exists(sidecar):
        freq: dict[str, int] = {}
        for lineno, (token, count) in read_tsv(sidecar):
            if token in freq:
                raise FormatError(f"{sidecar}:{lineno}: token {token!r} repeats an earlier line")
            try:
                freq[token] = int(count)
            except ValueError as exc:
                raise FormatError(
                    f"{sidecar}:{lineno}: count {count!r} is not an integer"
                ) from exc
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

