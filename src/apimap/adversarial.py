"""Adversarial alignment of two embedding spaces against a feed-forward critic.

A discriminator learns to tell mapped source vectors W x from genuine target
vectors; the mapping W is updated to fool it. Training alternates several
discriminator steps with one mapping step, tracks an unsupervised selection
criterion each epoch (mean cosine of the most frequent source tokens to their
nearest mapped neighbors), and returns the best snapshot seen.

Each step computes its objective once: ``discriminator_gradients`` and
``mapping_gradient`` return the loss together with the gradient that trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingSpace
from .errors import DivergenceError
from .seeding import MappingMatrix, STAGE_ADVERSARIAL, is_orthogonal
from .similarity import topk

LEAKY_SLOPE = 0.2
PROB_EPS = 1e-7
MOMENTUM = 0.9
# per-epoch learning-rate decay factor
LR_DECAY = 0.95
# rare-token embeddings are poor; sample batches from the frequent head only
FREQ_CAP = 75000


@dataclass
class AdvConfig:
    """Adversarial training hyperparameters."""

    epochs: int = 5
    batch_size: int = 32
    disc_steps_per_map_step: int = 5
    # momentum 0.9 multiplies the effective step ~10x; rates much above this
    # destabilize desk-scale runs
    learning_rate: float = 0.02
    label_smoothing: float = 0.2
    input_dropout: float = 0.1
    selection_topk: int = 1000
    rng_seed: int = 0
    hidden_dim: int = 2048
    steps_per_epoch: int | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.disc_steps_per_map_step < 1:
            raise ValueError("disc_steps_per_map_step must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= self.label_smoothing < 0.5:
            raise ValueError("label_smoothing must be in [0, 0.5)")
        if not 0 <= self.input_dropout < 1:
            raise ValueError("input_dropout must be in [0, 1)")
        if self.selection_topk < 1:
            raise ValueError("selection_topk must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.steps_per_epoch is not None and self.steps_per_epoch < 1:
            raise ValueError("steps_per_epoch must be >= 1")


class _StepBuffers:
    """Work arrays of one batch shape, overwritten by every pass over that shape.

    Rows are the mapped sources first, then the targets; ``a`` and ``s`` are a
    layer's activations and its leaky-rectifier slopes (exactly 1.0 or
    LEAKY_SLOPE), so ``a = z * s`` and the backward pass multiplies by ``s``.
    ``side`` holds each row's side size, the divisor of its per-side mean.
    """

    def __init__(self, n_src: int, n_tgt: int, dim: int, hidden: int):
        n = n_src + n_tgt
        self.shape = (n_src, n_tgt)
        self.v = np.empty((n, dim))  # network input, scaled in place by dropout
        self.mask = np.empty((n, dim))  # dropout scale: 0 or 1 / (1 - p)
        self.a1, self.s1, self.a2, self.s2, self.dz2, self.dz1 = (
            np.empty((n, hidden)) for _ in range(6))
        self.side = np.repeat(np.array([n_src, n_tgt], dtype=np.float64), [n_src, n_tgt])
        self.d_input = np.empty((n, dim))


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    views, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[pos:pos + size].reshape(shape))
        pos += size
    return views


class Discriminator:
    """Two-hidden-layer leaky-rectifier MLP emitting P(vector is mapped source).

    The six parameters live in one flat float64 array, ``flat_params``;
    ``params`` (and its ``weights``/``biases`` split) are views into it, so an
    in-place write such as ``disc.weights[0][:] = 0`` changes the parameters
    that train, and the optimizer updates all of them in one operation.
    ``flat_grads`` has the same layout, with ``grads`` its views;
    ``discriminator_gradients`` writes it. Forward/backward passes are
    explicit so gradients can be checked against finite differences. The
    (rows x dim) and (rows x hidden) arrays of both passes are kept for the
    latest batch shape; the per-row arrays (probabilities, targets, losses,
    logit gradients) are new on every call.
    """

    def __init__(self, dim: int, hidden: int, input_dropout: float, rng: np.random.Generator):
        self.input_dropout = input_dropout
        shapes = [(hidden, dim), (hidden,), (hidden, hidden), (hidden,), (1, hidden), (1,)]
        size = sum(math.prod(shape) for shape in shapes)
        self.flat_params = np.empty(size)
        self.flat_grads = np.zeros(size)
        self.params = _views(self.flat_params, shapes)
        self.grads = _views(self.flat_grads, shapes)
        self.weights = self.params[0::2]
        self.biases = self.params[1::2]
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / math.sqrt(w.shape[1])
            w[:] = rng.uniform(-bound, bound, size=w.shape)
            b[:] = rng.uniform(-bound, bound, size=b.shape)
        self._buf: _StepBuffers | None = None

    def _forward(self, m: np.ndarray, x: np.ndarray, y: np.ndarray,
                 dropout_rng: np.random.Generator | None
                 ) -> tuple[_StepBuffers, np.ndarray]:
        """The work arrays and the probabilities of the rows ``x @ m.T`` then ``y``."""
        n_src = x.shape[0]
        buf = self._buf
        if buf is None or buf.shape != (n_src, y.shape[0]):
            hidden, dim = self.weights[0].shape
            buf = self._buf = _StepBuffers(n_src, y.shape[0], dim, hidden)
        v = buf.v
        np.matmul(x, m.T, out=v[:n_src])
        v[n_src:] = y
        if dropout_rng is not None and self.input_dropout > 0:
            dropout_rng.random(out=buf.mask)
            np.greater_equal(buf.mask, self.input_dropout, out=buf.mask)
            buf.mask /= 1.0 - self.input_dropout
            v *= buf.mask
        a_in = v
        for w, b, a, s in ((self.weights[0], self.biases[0], buf.a1, buf.s1),
                           (self.weights[1], self.biases[1], buf.a2, buf.s2)):
            np.matmul(a_in, w.T, out=a)
            a += b
            np.greater(a, 0.0, out=s)
            s *= 1.0 - LEAKY_SLOPE
            s += LEAKY_SLOPE
            a *= s
            a_in = a
        logits = (a_in @ self.weights[2].T)[:, 0]
        return buf, 1.0 / (1.0 + np.exp(-(logits + self.biases[2])))

    def _backward(self, buf: _StepBuffers, dz3: np.ndarray) -> None:
        """Backpropagate the logits' gradient ``dz3`` to both hidden layers'
        pre-activations (``buf.dz2``, ``buf.dz1``), all rows."""
        dz2 = np.matmul(dz3[:, None], self.weights[2], out=buf.dz2)
        dz2 *= buf.s2
        dz1 = np.matmul(dz2, self.weights[1], out=buf.dz1)
        dz1 *= buf.s1

    def _param_grads(self, buf: _StepBuffers, dz3: np.ndarray) -> None:
        """Parameter gradients into ``flat_grads``, after ``_backward``."""
        d_w1, d_b1, d_w2, d_b2, d_w3, d_b3 = self.grads
        np.matmul(dz3[:, None].T, buf.a2, out=d_w3)
        d_b3[0] = dz3.sum()
        np.matmul(buf.dz2.T, buf.a1, out=d_w2)
        np.sum(buf.dz2, axis=0, out=d_b2)
        np.matmul(buf.dz1.T, buf.v, out=d_w1)
        np.sum(buf.dz1, axis=0, out=d_b1)


def _two_sided_loss(
    disc: Discriminator,
    w,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    target_mapped: float,
    target_real: float,
    dropout_rng: np.random.Generator | None,
) -> tuple[float, _StepBuffers, np.ndarray, np.ndarray]:
    """Shared forward pass: per-side mean BCE, summed over the two sides.

    The binary cross-entropy against the (possibly smoothed) targets is taken
    on probabilities clamped away from {0, 1}. Returns the loss, the work
    arrays, the probabilities and the loss gradient with respect to the logits.
    """
    x, y = np.atleast_2d(x_batch), np.atleast_2d(y_batch)
    n_src = x.shape[0]
    if n_src == 0 or y.shape[0] == 0:
        raise ValueError("batches must be non-empty")
    buf, probs = disc._forward(np.asarray(w), x, y, dropout_rng)
    t = np.full(probs.shape, target_real)
    t[:n_src] = target_mapped
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    nll = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    loss = float(nll[:n_src].mean()) + float(nll[n_src:].mean())
    return loss, buf, probs, (probs - t) / buf.side


def discriminator_gradients(
    disc: Discriminator,
    w: MappingMatrix | np.ndarray,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    smoothing: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Discriminator objective and its gradients with respect to the parameters.

    The objective scores mapped source vectors as 1 and targets as 0, with
    label smoothing applied to those targets. Returns (loss, gradients aligned
    with disc.params, probabilities of the mapped sources then the targets).
    The gradients are ``disc.grads``, views into ``disc.flat_grads``, and are
    overwritten by the next ``discriminator_gradients`` call on ``disc``, so
    copy them to keep them; the probabilities are the caller's own array.
    The gradient with respect to the input is not computed.
    """
    loss, buf, probs, dz3 = _two_sided_loss(
        disc, w, x_batch, y_batch, 1.0 - smoothing, smoothing, dropout_rng
    )
    disc._backward(buf, dz3)
    disc._param_grads(buf, dz3)
    return loss, disc.grads, probs


def mapping_gradient(
    disc: Discriminator,
    w: MappingMatrix | np.ndarray,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    smoothing: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Mapping objective, the discriminator's with flipped labels, and its
    gradient with respect to W.

    The discriminator runs without dropout. Returns (loss, d_w); ``d_w`` is a
    new array that later calls leave alone. The discriminator's parameter
    gradients are not computed, and ``disc.flat_grads`` is untouched.
    """
    loss, buf, _, dz3 = _two_sided_loss(
        disc, w, x_batch, y_batch, smoothing, 1.0 - smoothing, None
    )
    disc._backward(buf, dz3)
    # W's gradient reads only the source rows, but every row is run: a row of
    # a matrix product can round differently when computed among fewer rows
    x = np.atleast_2d(x_batch)
    d_input = np.matmul(buf.dz1, disc.weights[0], out=buf.d_input)
    return loss, d_input[:x.shape[0]].T @ x


def selection_criterion(
    w: MappingMatrix | np.ndarray,
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    k: int,
) -> float:
    """Unsupervised model-selection score.

    Maps the k most frequent source tokens through W and returns the mean
    cosine similarity to each one's nearest target neighbor. Serves as a
    validation proxy when no held-out pairs exist.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(src):
        raise ValueError(f"k={k} exceeds source vocabulary size {len(src)}")
    _, best = topk(src.vectors[:k] @ np.asarray(w).T, tgt.vectors, 1)
    return float(best.mean())


@dataclass
class AdvEpoch:
    """Per-epoch training record: mean losses, discriminator accuracy and the
    selection criterion of the epoch-end mapping."""

    epoch: int
    disc_loss: float
    map_loss: float
    disc_accuracy: float
    criterion: float


def train_adversarial(
    w1: MappingMatrix,
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    cfg: AdvConfig,
    history: list[AdvEpoch] | None = None,
) -> MappingMatrix:
    """Adversarially train the mapping starting from a pre-trained W.

    Each cycle runs ``disc_steps_per_map_step`` discriminator updates and one
    mapping update (momentum SGD for both, learning rate decayed per epoch).
    After every epoch the selection criterion is evaluated; the returned matrix
    is the highest-criterion snapshot, including the starting point, so the
    result never scores below its initialization.
    """
    if w1.dim != src.dim or src.dim != tgt.dim:
        raise ValueError(
            f"dimension mismatch: W is {w1.dim}, source {src.dim}, target {tgt.dim}"
        )
    k_sel = min(cfg.selection_topk, len(src))
    w = w1.w.copy()
    best_criterion = selection_criterion(w, src, tgt, k_sel)
    best_w = w.copy()
    rng = np.random.default_rng(cfg.rng_seed)
    disc = Discriminator(src.dim, cfg.hidden_dim, cfg.input_dropout, rng)
    n_pool = min(FREQ_CAP, len(src))
    m_pool = min(FREQ_CAP, len(tgt))
    steps = cfg.steps_per_epoch
    if steps is None:
        steps = max(1, math.ceil(max(len(src), len(tgt)) / cfg.batch_size))

    vel_disc = np.zeros_like(disc.flat_params)
    step_disc = np.empty_like(vel_disc)
    vel_w = np.zeros_like(w)
    step_w = np.empty_like(w)
    lr = cfg.learning_rate

    for epoch in range(1, cfg.epochs + 1):
        disc_losses: list[float] = []
        map_losses: list[float] = []
        correct = 0
        seen = 0
        for step in range(steps):
            for _ in range(cfg.disc_steps_per_map_step):
                xb = src.vectors[rng.integers(0, n_pool, cfg.batch_size)]
                yb = tgt.vectors[rng.integers(0, m_pool, cfg.batch_size)]
                # the gradients land in disc.flat_grads, in the layout of
                # disc.flat_params, so one momentum update covers all six
                loss_d, _, probs = discriminator_gradients(
                    disc, w, xb, yb, cfg.label_smoothing, dropout_rng=rng
                )
                bs = cfg.batch_size
                correct += int((probs[:bs] > 0.5).sum() + (probs[bs:] < 0.5).sum())
                seen += 2 * bs
                vel_disc *= MOMENTUM
                vel_disc += disc.flat_grads
                np.multiply(lr, vel_disc, out=step_disc)
                disc.flat_params -= step_disc
                disc_losses.append(loss_d)
            xb = src.vectors[rng.integers(0, n_pool, cfg.batch_size)]
            yb = tgt.vectors[rng.integers(0, m_pool, cfg.batch_size)]
            loss_w, d_w = mapping_gradient(disc, w, xb, yb, cfg.label_smoothing)
            vel_w *= MOMENTUM
            vel_w += d_w
            np.multiply(lr, vel_w, out=step_w)
            w -= step_w
            map_losses.append(loss_w)
            if not (math.isfinite(loss_d) and math.isfinite(loss_w)):
                raise DivergenceError(
                    f"non-finite adversarial loss at epoch {epoch} step {step}: "
                    f"L_D={loss_d:.6g} L_W={loss_w:.6g}"
                )
        criterion = selection_criterion(w, src, tgt, k_sel)
        if history is not None:
            history.append(
                AdvEpoch(
                    epoch=epoch,
                    disc_loss=float(np.mean(disc_losses)),
                    map_loss=float(np.mean(map_losses)),
                    disc_accuracy=correct / seen,
                    criterion=criterion,
                )
            )
        if criterion > best_criterion:
            best_criterion = criterion
            best_w = w.copy()
        lr *= LR_DECAY
    return MappingMatrix(best_w, STAGE_ADVERSARIAL, orthogonal=is_orthogonal(best_w))
