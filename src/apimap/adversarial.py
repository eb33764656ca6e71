"""Adversarial alignment of two embedding spaces against a feed-forward critic.

A discriminator learns to tell mapped source vectors W x from genuine target
vectors; the mapping W is updated to fool it. Training alternates several
discriminator steps with one mapping step, tracks an unsupervised selection
criterion each epoch (mean cosine of the most frequent source tokens to their
nearest mapped neighbors), and returns the best snapshot seen.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingSpace
from .errors import DivergenceError
from .seeding import MappingMatrix, ORTHOGONALITY_TOL, STAGE_ADVERSARIAL
from .similarity import topk, unit_rows

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
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
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


class Discriminator:
    """Two-hidden-layer leaky-rectifier MLP emitting P(vector is mapped source).

    Holds plain numpy parameters; forward/backward passes are explicit so
    gradients can be checked against finite differences.
    """

    def __init__(self, dim: int, hidden: int = 2048, input_dropout: float = 0.1,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dropout = input_dropout
        sizes = [(hidden, dim), (hidden, hidden), (1, hidden)]
        self.weights = []
        self.biases = []
        for fan_out, fan_in in sizes:
            bound = 1.0 / math.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weights[0], self.biases[0],
                self.weights[1], self.biases[1],
                self.weights[2], self.biases[2]]

    def _forward(self, v: np.ndarray, dropout_rng: np.random.Generator | None):
        if dropout_rng is not None and self.input_dropout > 0:
            mask = (dropout_rng.random(v.shape) >= self.input_dropout) / (
                1.0 - self.input_dropout
            )
        else:
            mask = None
        v0 = v * mask if mask is not None else v
        z1 = v0 @ self.weights[0].T + self.biases[0]
        a1 = np.where(z1 > 0, z1, LEAKY_SLOPE * z1)
        z2 = a1 @ self.weights[1].T + self.biases[1]
        a2 = np.where(z2 > 0, z2, LEAKY_SLOPE * z2)
        z3 = (a2 @ self.weights[2].T + self.biases[2]).ravel()
        probs = 1.0 / (1.0 + np.exp(-z3))
        return probs, (v0, mask, z1, a1, z2, a2)

    def _backward(self, dz3: np.ndarray, cache) -> tuple[list[np.ndarray], np.ndarray]:
        """Backprop from the logit gradient; returns (param grads, input grads)."""
        v0, mask, z1, a1, z2, a2 = cache
        dz3_col = dz3[:, None]
        d_w3 = dz3_col.T @ a2
        d_b3 = np.array([dz3.sum()])
        da2 = dz3_col @ self.weights[2]
        dz2 = da2 * np.where(z2 > 0, 1.0, LEAKY_SLOPE)
        d_w2 = dz2.T @ a1
        d_b2 = dz2.sum(axis=0)
        da1 = dz2 @ self.weights[1]
        dz1 = da1 * np.where(z1 > 0, 1.0, LEAKY_SLOPE)
        d_w1 = dz1.T @ v0
        d_b1 = dz1.sum(axis=0)
        d_input = dz1 @ self.weights[0]
        if mask is not None:
            d_input = d_input * mask
        return [d_w1, d_b1, d_w2, d_b2, d_w3, d_b3], d_input


def _bce(probs: np.ndarray, target: float) -> float:
    """Mean binary cross-entropy against a (possibly smoothed) scalar target."""
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    return float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))))


def _mapped(w: MappingMatrix | np.ndarray, x_batch: np.ndarray) -> np.ndarray:
    m = w.w if isinstance(w, MappingMatrix) else np.asarray(w)
    return np.atleast_2d(x_batch) @ m.T


def _two_sided_loss_and_grads(
    disc: Discriminator,
    w,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    target_mapped: float,
    target_real: float,
    dropout_rng: np.random.Generator | None,
):
    """Shared forward/backward: per-side mean BCE, summed over the two sides."""
    mapped = _mapped(w, x_batch)
    y_batch = np.atleast_2d(y_batch)
    n_src, n_tgt = mapped.shape[0], y_batch.shape[0]
    if n_src == 0 or n_tgt == 0:
        raise ValueError("batches must be non-empty")
    v = np.vstack([mapped, y_batch])
    probs, cache = disc._forward(v, dropout_rng)
    p_src, p_tgt = probs[:n_src], probs[n_src:]
    loss = _bce(p_src, target_mapped) + _bce(p_tgt, target_real)
    dz3 = np.empty(n_src + n_tgt)
    dz3[:n_src] = (p_src - target_mapped) / n_src
    dz3[n_src:] = (p_tgt - target_real) / n_tgt
    return loss, probs, dz3, cache, mapped


def discriminator_loss(
    disc: Discriminator,
    w: MappingMatrix | np.ndarray,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    smoothing: float = 0.0,
) -> float:
    """Discriminator objective: score mapped source vectors as 1 and targets as 0.

    Returns the per-sample mean within each side, summed over both sides, with
    label smoothing applied to the targets and probabilities clamped away from
    {0, 1} before the logs.
    """
    loss, _, _, _, _ = _two_sided_loss_and_grads(
        disc, w, x_batch, y_batch, 1.0 - smoothing, smoothing, None
    )
    return loss


def mapping_loss(
    disc: Discriminator,
    w: MappingMatrix | np.ndarray,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    smoothing: float = 0.0,
) -> float:
    """Mapping objective: the discriminator-fooling loss with flipped labels."""
    loss, _, _, _, _ = _two_sided_loss_and_grads(
        disc, w, x_batch, y_batch, smoothing, 1.0 - smoothing, None
    )
    return loss


def discriminator_gradients(
    disc: Discriminator,
    w: MappingMatrix | np.ndarray,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    smoothing: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Analytic gradients of the discriminator loss.

    Returns (loss, gradients aligned with disc.params, probabilities).
    """
    loss, probs, dz3, cache, _ = _two_sided_loss_and_grads(
        disc, w, x_batch, y_batch, 1.0 - smoothing, smoothing, dropout_rng
    )
    grads, _ = disc._backward(dz3, cache)
    return loss, grads, probs


def mapping_gradient(
    disc: Discriminator,
    w: MappingMatrix | np.ndarray,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    smoothing: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, np.ndarray]:
    """Analytic gradient of the mapping loss with respect to W."""
    loss, _, dz3, cache, _ = _two_sided_loss_and_grads(
        disc, w, x_batch, y_batch, smoothing, 1.0 - smoothing, dropout_rng
    )
    _, d_input = disc._backward(dz3, cache)
    x = np.atleast_2d(x_batch)
    n_src = x.shape[0]
    d_w = d_input[:n_src].T @ x
    return loss, d_w


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
    _, best = topk(unit_rows(_mapped(w, src.vectors[:k])), tgt.unit_vectors, 1)
    return float(best.mean())


@dataclass
class AdvEpoch:
    """Per-epoch training record. ``w`` is the epoch-end mapping snapshot."""

    epoch: int
    disc_loss: float
    map_loss: float
    disc_accuracy: float
    criterion: float
    w: np.ndarray = field(repr=False)


def write_training_log(history: list[AdvEpoch], path: str) -> None:
    """Write the per-epoch CSV log: epoch, L_D, L_W, disc accuracy, criterion."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["epoch", "L_D", "L_W", "disc_accuracy", "criterion"])
        for row in history:
            out.writerow(
                [row.epoch, f"{row.disc_loss:.6f}", f"{row.map_loss:.6f}",
                 f"{row.disc_accuracy:.6f}", f"{row.criterion:.6f}"]
            )


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
    if cfg.epochs == 0:
        return MappingMatrix(best_w, STAGE_ADVERSARIAL, orthogonal=_is_orth(best_w))

    rng = np.random.default_rng(cfg.rng_seed)
    disc = Discriminator(src.dim, cfg.hidden_dim, cfg.input_dropout, rng)
    n_pool = min(FREQ_CAP, len(src))
    m_pool = min(FREQ_CAP, len(tgt))
    steps = cfg.steps_per_epoch
    if steps is None:
        steps = max(1, math.ceil(max(len(src), len(tgt)) / cfg.batch_size))

    vel_disc = [np.zeros_like(p) for p in disc.params]
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
                loss_d, grads, probs = discriminator_gradients(
                    disc, w, xb, yb, cfg.label_smoothing, dropout_rng=rng
                )
                bs = cfg.batch_size
                correct += int((probs[:bs] > 0.5).sum() + (probs[bs:] < 0.5).sum())
                seen += 2 * bs
                for param, grad, vel in zip(disc.params, grads, vel_disc):
                    vel *= MOMENTUM
                    vel += grad
                    param -= lr * vel
                disc_losses.append(loss_d)
            xb = src.vectors[rng.integers(0, n_pool, cfg.batch_size)]
            yb = tgt.vectors[rng.integers(0, m_pool, cfg.batch_size)]
            # the discriminator runs without dropout for the mapping update
            loss_w, d_w = mapping_gradient(disc, w, xb, yb, cfg.label_smoothing)
            vel_w = MOMENTUM * vel_w + d_w
            w -= lr * vel_w
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
                    disc_accuracy=correct / seen if seen else math.nan,
                    criterion=criterion,
                    w=w.copy(),
                )
            )
        if criterion > best_criterion:
            best_criterion = criterion
            best_w = w.copy()
        lr *= LR_DECAY
    return MappingMatrix(best_w, STAGE_ADVERSARIAL, orthogonal=_is_orth(best_w))


def _is_orth(w: np.ndarray) -> bool:
    return bool(np.linalg.norm(w.T @ w - np.eye(w.shape[0])) < ORTHOGONALITY_TOL)
