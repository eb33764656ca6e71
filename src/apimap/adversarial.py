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
from .seeding import MappingMatrix, STAGE_ADVERSARIAL, check_pair, is_orthogonal
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


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    views, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[pos:pos + size].reshape(shape))
        pos += size
    return views


class Discriminator:
    """Two-hidden-layer leaky-rectifier MLP emitting P(vector is mapped source).

    The six parameters live in one flat array of ``dtype``, ``flat_params``;
    ``params`` (and its ``weights``/``biases`` split) are views into it, so an
    in-place write such as ``disc.weights[0][:] = 0`` changes the parameters
    that train, and the optimizer updates all of them in one operation.
    ``flat_grads`` has the same layout, with ``grads`` its views;
    ``discriminator_gradients`` writes it. Forward/backward passes are
    explicit so gradients can be checked against finite differences; every
    array of a pass is new on every call.

    Every array of the network is in ``dtype``: float32 trains, as in Conneau
    et al. 2018, at about half the cost of float64. The initial parameters
    are drawn in float64 and stored in ``dtype``, and the mapping W, its
    input and its gradient stay float64. The finite-difference checks build a
    float64 discriminator to run the same code at a precision they can read.
    """

    def __init__(self, dim: int, hidden: int, input_dropout: float, rng: np.random.Generator,
                 dtype: np.dtype = np.float32):
        self.input_dropout = input_dropout
        shapes = [(hidden, dim), (hidden,), (hidden, hidden), (hidden,), (1, hidden), (1,)]
        size = sum(math.prod(shape) for shape in shapes)
        self.flat_params = np.empty(size, dtype)
        self.flat_grads = np.zeros(size, dtype)
        self.params = _views(self.flat_params, shapes)
        self.grads = _views(self.flat_grads, shapes)
        self.weights = self.params[0::2]
        self.biases = self.params[1::2]
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / math.sqrt(w.shape[1])
            w[:] = rng.uniform(-bound, bound, size=w.shape)
            b[:] = rng.uniform(-bound, bound, size=b.shape)

    def _forward(self, m: np.ndarray, x: np.ndarray, y: np.ndarray,
                 dropout_rng: np.random.Generator | None) -> tuple[np.ndarray, ...]:
        """The pass over the rows ``x @ m.T`` then ``y``: returns the network
        input ``v``, each hidden layer's activations and leaky-rectifier slopes
        (1.0 or LEAKY_SLOPE, so ``a = z * s`` and the backward pass multiplies
        by ``s``), and the probabilities."""
        n_src = x.shape[0]
        v = np.empty((n_src + y.shape[0], x.shape[1]), self.flat_params.dtype)
        v[:n_src] = x @ m.T  # mapped in float64, then stored in v's dtype
        v[n_src:] = y
        if dropout_rng is not None and self.input_dropout > 0:
            # float64 uniforms, so the generator's stream does not depend on dtype
            mask = (dropout_rng.random(v.shape) >= self.input_dropout).astype(v.dtype)
            mask /= 1.0 - self.input_dropout
            v *= mask
        layers = []
        a = v
        for w, b in zip(self.weights[:2], self.biases[:2]):
            a = a @ w.T
            a += b
            s = (a > 0.0).astype(a.dtype)
            s *= 1.0 - LEAKY_SLOPE
            s += LEAKY_SLOPE
            a *= s
            layers += [a, s]
        logits = (a @ self.weights[2].T)[:, 0]
        return (v, *layers, 1.0 / (1.0 + np.exp(-(logits + self.biases[2]))))

    def _backward(self, s1: np.ndarray, s2: np.ndarray, dz3: np.ndarray,
                  rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagate the logits' gradient ``dz3`` of the first ``rows`` rows
        to both hidden layers' pre-activations; returns those rows' ``dz1`` and
        ``dz2``."""
        dz2 = dz3[:rows, None] * self.weights[2]
        dz2 *= s2[:rows]
        dz1 = dz2 @ self.weights[1]
        dz1 *= s1[:rows]
        return dz1, dz2

    def _param_grads(self, v: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                     dz1: np.ndarray, dz2: np.ndarray, dz3: np.ndarray) -> None:
        """Parameter gradients into ``flat_grads``, after ``_backward``."""
        d_w1, d_b1, d_w2, d_b2, d_w3, d_b3 = self.grads
        np.matmul(dz3[:, None].T, a2, out=d_w3)
        d_b3[0] = dz3.sum()
        np.matmul(dz2.T, a1, out=d_w2)
        np.sum(dz2, axis=0, out=d_b2)
        np.matmul(dz1.T, v, out=d_w1)
        np.sum(dz1, axis=0, out=d_b1)


def _two_sided_loss(
    disc: Discriminator,
    w,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    target_mapped: float,
    target_real: float,
    dropout_rng: np.random.Generator | None,
) -> tuple[float, tuple[np.ndarray, ...], np.ndarray]:
    """Shared forward pass: per-side mean BCE, summed over the two sides.

    The binary cross-entropy against the (possibly smoothed) targets is taken
    on probabilities clamped away from {0, 1}. Returns the loss, the pass
    (``Discriminator._forward``'s arrays) and the loss gradient with respect
    to the logits.
    """
    x, y = np.atleast_2d(x_batch), np.atleast_2d(y_batch)
    n_src = x.shape[0]
    if n_src == 0 or y.shape[0] == 0:
        raise ValueError("batches must be non-empty")
    fwd = disc._forward(np.asarray(w), x, y, dropout_rng)
    probs = fwd[-1]
    t = np.full(probs.shape, target_real, dtype=probs.dtype)
    t[:n_src] = target_mapped
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    nll = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    loss = float(nll[:n_src].mean()) + float(nll[n_src:].mean())
    dz3 = probs - t
    dz3[:n_src] /= n_src
    dz3[n_src:] /= y.shape[0]
    return loss, fwd, dz3


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
    loss, (v, a1, s1, a2, s2, probs), dz3 = _two_sided_loss(
        disc, w, x_batch, y_batch, 1.0 - smoothing, smoothing, dropout_rng
    )
    dz1, dz2 = disc._backward(s1, s2, dz3, len(dz3))
    disc._param_grads(v, a1, a2, dz1, dz2, dz3)
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

    The discriminator runs without dropout, and only the source rows are
    backpropagated: W's gradient reads no other. Returns (loss, d_w); ``d_w``
    is a new float64 array that later calls leave alone. The discriminator's
    parameter gradients are not computed, and ``disc.flat_grads`` is untouched.
    """
    loss, (_, _, s1, _, s2, _), dz3 = _two_sided_loss(
        disc, w, x_batch, y_batch, smoothing, 1.0 - smoothing, None
    )
    x = np.atleast_2d(x_batch)
    dz1, _ = disc._backward(s1, s2, dz3, x.shape[0])
    d_input = dz1 @ disc.weights[0]
    return loss, d_input.T.astype(np.float64) @ x


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
    if len(tgt) == 0:
        raise ValueError("target embedding space is empty")
    _, best = topk(src.vectors[:k] @ np.asarray(w).T, tgt.vectors, 1)
    return float(best.mean())


@dataclass
class AdvEpoch:
    """Per-epoch training record: mean losses, discriminator accuracy, and the
    epoch-end mapping ``w`` with its selection criterion."""

    epoch: int
    disc_loss: float
    map_loss: float
    disc_accuracy: float
    criterion: float
    w: np.ndarray


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
    After every epoch the selection criterion is evaluated on a copy of W,
    which its ``history`` row keeps; the returned matrix is the
    highest-criterion snapshot, including the starting point, so the result
    never scores below its initialization.
    """
    check_pair(w1, src, tgt)
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
    vel_w = np.zeros_like(w)
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
                disc.flat_params -= lr * vel_disc
                disc_losses.append(loss_d)
            xb = src.vectors[rng.integers(0, n_pool, cfg.batch_size)]
            yb = tgt.vectors[rng.integers(0, m_pool, cfg.batch_size)]
            loss_w, d_w = mapping_gradient(disc, w, xb, yb, cfg.label_smoothing)
            vel_w *= MOMENTUM
            vel_w += d_w
            w -= lr * vel_w
            map_losses.append(loss_w)
            if not (math.isfinite(loss_d) and math.isfinite(loss_w)):
                raise DivergenceError(
                    f"non-finite adversarial loss at epoch {epoch} step {step}: "
                    f"L_D={loss_d:.6g} L_W={loss_w:.6g}"
                )
        snapshot = w.copy()
        criterion = selection_criterion(snapshot, src, tgt, k_sel)
        if history is not None:
            history.append(
                AdvEpoch(
                    epoch=epoch,
                    disc_loss=float(np.mean(disc_losses)),
                    map_loss=float(np.mean(map_losses)),
                    disc_accuracy=correct / seen,
                    criterion=criterion,
                    w=snapshot,
                )
            )
        if criterion > best_criterion:
            best_criterion = criterion
            best_w = snapshot
        lr *= LR_DECAY
    return MappingMatrix(best_w, STAGE_ADVERSARIAL, orthogonal=is_orthogonal(best_w))
