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
configurations still take one line per step. The groups are planned once per
run, before the first epoch. Single-worker runs are
bit-reproducible given a seed; multi-worker runs train one shard of lines per
thread, update the shared weights without locks and trade determinism for
throughput.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .corpus import CodeSequence, Vocabulary, build_vocabulary, parse_float, read_tsv
from .errors import FormatError
from .similarity import TILE_BYTES

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


def sgns_loss(centers: np.ndarray, outputs: np.ndarray, weights: np.ndarray) -> float:
    """Weighted negative-sampling loss of a batch of steps.

    Step b scores ``centers[b]`` (d,) against ``outputs[b]`` (K, d): row 0 is
    the positive context and rows 1.. are the negatives. The loss is
    -sum(weight * log sigma(u.v)) over the positive rows plus
    -sum(weight * log sigma(-u.v)) over the negative rows; this is the
    reference that ``sgns_step`` differentiates.
    """
    scores = (outputs @ centers[:, :, None])[:, :, 0]
    # log sigma(z) = -logaddexp(0, -z), stable for large |z|
    nll = np.logaddexp(0.0, scores)
    nll[:, 0] = np.logaddexp(0.0, -scores[:, 0])
    return float(np.sum(weights * nll))


def sgns_step(
    centers: np.ndarray, outputs: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``sgns_loss`` for a batch of steps.

    Returns ``(grad_centers, grad_outputs)`` shaped like ``centers`` (B, d)
    and ``outputs`` (B, K, d). A zero weight makes its row inert.
    """
    scores = (outputs @ centers[:, :, None])[:, :, 0]
    residual = 1.0 / (1.0 + np.exp(-scores))
    residual[:, 0] -= 1.0
    residual *= weights
    grad_centers = (residual[:, None, :] @ outputs)[:, 0, :]
    grad_outputs = residual[:, :, None] * centers[:, None, :]
    return grad_centers, grad_outputs


def _group_pairs(
    spans: np.ndarray, line_of: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j) of every center i and context j with
    0 < |j - i| <= spans[i] on the same line, for lines laid end to end;
    ``line_of[i]`` numbers the line of position i.

    Pairs come center-major with contexts ascending.
    """
    offsets = np.arange(-window, window + 1)
    near = np.abs(offsets) <= spans[:, None]
    near[:, window] = False  # a token is not its own context
    i, k = np.nonzero(near)
    j = i + offsets[k]
    inside = (j >= 0) & (j < len(spans))
    i, j = i[inside], j[inside]
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


def _step_plan(
    lines: list[np.ndarray], keep: np.ndarray, cfg: TrainConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The training steps of a shard, each as ``(tokens, line_of)``: a group of
    consecutive whole lines laid end to end and the group's line number of
    each position.

    A group closes once its expected pairs (expected kept tokens times
    ``window + 1``) reach ``STEP_PAIRS``, or before a line whose most possible
    pairs would take the group's ``(pairs, negatives + 1, dim)`` float64
    gradient block past ``TILE_BYTES``. A line is never split, so a line that
    alone exceeds the block limit is a step of its own.
    """
    pair_bytes = 8 * (cfg.negatives + 1) * cfg.dim
    cuts = [0]
    expected, most = 0.0, 0
    for k, line in enumerate(lines):
        line_most = len(line) * min(2 * cfg.window, len(line) - 1)
        if k > cuts[-1] and (most + line_most) * pair_bytes > TILE_BYTES:
            cuts.append(k)
            expected, most = 0.0, 0
        expected += float(keep[line].sum()) * (cfg.window + 1)
        most += line_most
        if expected >= STEP_PAIRS:
            cuts.append(k + 1)
            expected, most = 0.0, 0
    if cuts[-1] < len(lines):
        cuts.append(len(lines))
    return [
        (np.concatenate(lines[lo:hi]),
         np.repeat(np.arange(hi - lo), [len(line) for line in lines[lo:hi]]))
        for lo, hi in zip(cuts, cuts[1:])
    ]


def _train_shard(
    plan: list[tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
    done: int,
    *,
    syn_in: np.ndarray,
    syn_out: np.ndarray,
    keep: np.ndarray,
    neg_cum: np.ndarray,
    cfg: TrainConfig,
    total_words: int,
) -> int:
    """One pass over a shard's steps (``_step_plan``), updating the shared
    weights.

    ``done`` counts the shard's words trained so far; scaled by the number of
    shards it stands for the run's progress in the learning-rate decay. One
    step trains one group: every (center, context) pair of its lines is updated
    together from the weights at the start of the step, at the learning rate
    of the step's last word. Negatives are drawn from the cumulative
    unigram^0.75 weights ``neg_cum``. Returns the new ``done``.
    """
    for tokens, line_of in plan:
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

        negatives = np.searchsorted(neg_cum, rng.random((len(i), cfg.negatives)) * neg_cum[-1])
        for _ in range(3):
            bad = negatives == contexts[:, None]
            n_bad = int(bad.sum())
            if n_bad == 0:
                break
            negatives[bad] = np.searchsorted(neg_cum, rng.random(n_bad) * neg_cum[-1])
        targets = np.concatenate([contexts[:, None], negatives], axis=1)
        # negatives that still collide with their positive context are inert
        weights = np.ones(targets.shape)
        weights[:, 1:][negatives == contexts[:, None]] = 0.0

        grad_centers, grad_outputs = sgns_step(syn_in[centers], syn_out[targets], weights)
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
    plans = [_step_plan(lines[w :: cfg.workers], keep, cfg) for w in range(cfg.workers)]
    # one worker keeps drawing from the generator that initialized the weights
    rngs = [rng] if cfg.workers == 1 else [
        np.random.default_rng((cfg.rng_seed, w)) for w in range(cfg.workers)
    ]
    train = partial(
        _train_shard, syn_in=syn_in, syn_out=syn_out, keep=keep,
        neg_cum=np.cumsum(counts**NEGATIVE_TABLE_EXPONENT), cfg=cfg,
        total_words=sum(len(line) for line in lines) * cfg.epochs,
    )
    done = [0] * cfg.workers
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        for _ in range(cfg.epochs):
            # consuming the results re-raises a worker's exception here
            done = list(pool.map(train, plans, rngs, done))
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

    A malformed header or row, a row count below 0, a dimension below 1, a
    nan or infinite value and a repeated token raise FormatError naming the
    file and, for a row, its line; so do a token repeated in the sidecar and
    a sidecar count below 1.

    With a sidecar, every row's token needs a count, and counts must be
    non-increasing down the vector file's rows, since later stages take the
    first rows as the most frequent tokens; a sidecar that leaves a token
    without a count or breaks this order raises FormatError. Without one,
    every count is 1 and the row order is taken as frequency order, unchecked.
    """
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().split()
        try:
            n, dim = map(int, header)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed header {' '.join(header)!r}") from exc
        if n < 0:
            raise FormatError(f"{path}: row count {n} in header is below 0")
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
            if freq[token] < 1:
                raise FormatError(f"{sidecar}:{lineno}: count {count!r} is below 1")
        try:
            counts = [freq[t] for t in tokens]
        except KeyError as exc:
            raise FormatError(f"{sidecar}: no count for token {exc.args[0]!r}") from exc
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

