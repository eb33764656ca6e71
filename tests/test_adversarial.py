"""Tests for the adversarial losses, gradients, selection criterion, and trainer.

The losses are read off the gradient functions, which compute them once per
call: ``discriminator_gradients(...)[0]`` and ``mapping_gradient(...)[0]``.
"""

import math

import numpy as np
import pytest

from apimap.adversarial import (
    AdvConfig,
    Discriminator,
    discriminator_gradients,
    mapping_gradient,
    selection_criterion,
    train_adversarial,
)
from apimap.corpus import Vocabulary
from apimap.embedding import EmbeddingSpace
from apimap.seeding import random_orthogonal, seed_matrices, solve_procrustes

from conftest import adv_config
from helpers import make_paired_task


def zeroed_discriminator(dim, hidden=4):
    """All-zero parameters emit probability exactly 0.5 for any input."""
    disc = Discriminator(dim, hidden=hidden, input_dropout=0.0, rng=np.random.default_rng(0))
    for w in disc.weights:
        w[:] = 0.0
    for b in disc.biases:
        b[:] = 0.0
    return disc


def passthrough_discriminator():
    """1-d discriminator computing sigmoid(v) for v > 0, sigmoid(0.04 v) below,
    in float64 so the hand-computed losses can be read to 1e-9."""
    disc = Discriminator(1, hidden=1, input_dropout=0.0, rng=np.random.default_rng(0),
                         dtype=np.float64)
    for w in disc.weights:
        w[:] = 1.0
    for b in disc.biases:
        b[:] = 0.0
    return disc


def disc_loss(disc, w, x, y, smoothing=0.0):
    return discriminator_gradients(disc, w, x, y, smoothing)[0]


def map_loss(disc, w, x, y, smoothing=0.0):
    return mapping_gradient(disc, w, x, y, smoothing)[0]


def logit(p):
    return math.log(p / (1.0 - p))


def space_from(vectors, prefix="w"):
    n = len(vectors)
    return EmbeddingSpace(
        np.asarray(vectors, dtype=float),
        Vocabulary([f"{prefix}{i:04d}" for i in range(n)], range(2 * n, n, -1)),
    )


class TestLossValues:
    def test_uncertain_discriminator_ln2_per_sample(self):
        disc = zeroed_discriminator(3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        # each sample contributes ln 2; the two per-side means sum to 2 ln 2
        assert disc_loss(disc, np.eye(3), x, y) == pytest.approx(2 * math.log(2))
        assert map_loss(disc, np.eye(3), x, y) == pytest.approx(2 * math.log(2))

    def test_hand_computed_example(self):
        # P(mapped source) = 0.8 and P(target) = 0.3 via the passthrough net
        disc = passthrough_discriminator()
        x = np.array([[logit(0.8)]])
        y = np.array([[logit(0.3) / 0.04]])  # negative branch scales by 0.2 * 0.2
        w = np.eye(1)
        l_d = disc_loss(disc, w, x, y)
        assert l_d == pytest.approx(-math.log(0.8) - math.log(0.7), abs=1e-9)
        assert l_d == pytest.approx(0.580, abs=1e-3)
        l_w = map_loss(disc, w, x, y)
        assert l_w == pytest.approx(-math.log(0.2) - math.log(0.3), abs=1e-9)
        assert l_w == pytest.approx(2.813, abs=1e-3)

    def test_confident_discriminator_loss_bounds(self):
        # magnitudes large enough to saturate through the 0.04 negative branch
        disc = passthrough_discriminator()
        x = np.array([[800.0]])   # P -> 1 on mapped source
        y = np.array([[-800.0]])  # P -> 0 on target
        l_d = disc_loss(disc, np.eye(1), x, y)
        assert l_d < 1e-6
        # the fully-fooled configuration symmetrically drives L_W to zero
        l_w = map_loss(disc, np.eye(1), -x, -y)
        assert l_w < 1e-6

    def test_label_smoothing_shifts_optimum(self):
        disc = passthrough_discriminator()
        x = np.array([[logit(0.8)]])
        y = np.array([[logit(0.2) / 0.04]])
        sharp = disc_loss(disc, np.eye(1), x, y, smoothing=0.0)
        smooth = disc_loss(disc, np.eye(1), x, y, smoothing=0.2)
        assert smooth > sharp

    def test_empty_batch_rejected(self):
        disc = zeroed_discriminator(3)
        with pytest.raises(ValueError):
            discriminator_gradients(disc, np.eye(3), np.empty((0, 3)), np.ones((1, 3)))


class TestGradientChecks:
    EPS = 1e-5

    def test_discriminator_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        disc = Discriminator(5, hidden=6, input_dropout=0.0, rng=rng, dtype=np.float64)
        w = rng.normal(size=(5, 5)) * 0.4
        x = rng.normal(size=(2, 5))
        y = rng.normal(size=(2, 5))
        # copied: every call overwrites the views it returns
        grads = [g.copy() for g in discriminator_gradients(disc, w, x, y, smoothing=0.2)[1]]
        for param, grad in zip(disc.params, grads):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + self.EPS
                up = disc_loss(disc, w, x, y, smoothing=0.2)
                flat[i] = orig - self.EPS
                down = disc_loss(disc, w, x, y, smoothing=0.2)
                flat[i] = orig
                fd = (up - down) / (2 * self.EPS)
                assert abs(fd - gflat[i]) <= 1e-4 * max(abs(fd), abs(gflat[i]), 1e-8)

    def test_mapping_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        disc = Discriminator(5, hidden=6, input_dropout=0.0, rng=rng, dtype=np.float64)
        w = rng.normal(size=(5, 5)) * 0.4
        x = rng.normal(size=(2, 5))
        y = rng.normal(size=(2, 5))
        _, d_w = mapping_gradient(disc, w, x, y, smoothing=0.2)
        for i in range(5):
            for j in range(5):
                orig = w[i, j]
                w[i, j] = orig + self.EPS
                up = map_loss(disc, w, x, y, smoothing=0.2)
                w[i, j] = orig - self.EPS
                down = map_loss(disc, w, x, y, smoothing=0.2)
                w[i, j] = orig
                fd = (up - down) / (2 * self.EPS)
                assert abs(fd - d_w[i, j]) <= 1e-4 * max(abs(fd), abs(d_w[i, j]), 1e-8)

    def test_single_map_step_decreases_loss_for_small_lr(self):
        rng = np.random.default_rng(3)
        disc = Discriminator(6, hidden=8, input_dropout=0.0, rng=rng, dtype=np.float64)
        w = rng.normal(size=(6, 6)) * 0.5
        x = rng.normal(size=(8, 6))
        y = rng.normal(size=(8, 6))
        base, d_w = mapping_gradient(disc, w, x, y)
        decreased = [
            map_loss(disc, w - lr * d_w, x, y) < base
            for lr in (0.1, 0.01, 0.001)
        ]
        assert any(decreased)
        assert decreased[-1]  # the smallest rate always descends


class TestBufferedStep:
    """The program's passes against a plain restatement of the network, kept
    here as the oracle, in float64; the arithmetic is the same, so results
    must be equal. ``discriminator_gradients`` is compared with and without
    input dropout, ``mapping_gradient`` (which has none) without. The oracle
    backpropagates every row for the parameters and the source rows alone for
    W, as the program does."""

    @staticmethod
    def oracle_forward(disc, v, dropout_rng):
        if dropout_rng is not None and disc.input_dropout > 0:
            mask = (dropout_rng.random(v.shape) >= disc.input_dropout) / (
                1.0 - disc.input_dropout
            )
        else:
            mask = None
        v0 = v * mask if mask is not None else v
        z1 = v0 @ disc.weights[0].T + disc.biases[0]
        a1 = np.where(z1 > 0, z1, 0.2 * z1)
        z2 = a1 @ disc.weights[1].T + disc.biases[1]
        a2 = np.where(z2 > 0, z2, 0.2 * z2)
        z3 = (a2 @ disc.weights[2].T + disc.biases[2]).ravel()
        probs = 1.0 / (1.0 + np.exp(-z3))
        return probs, (v0, z1, a1, z2, a2)

    @staticmethod
    def oracle_backward(disc, dz3, cache):
        v0, z1, a1, z2, a2 = cache
        dz3_col = dz3[:, None]
        d_w3 = dz3_col.T @ a2
        d_b3 = np.array([dz3.sum()])
        da2 = dz3_col @ disc.weights[2]
        dz2 = da2 * np.where(z2 > 0, 1.0, 0.2)
        d_w2 = dz2.T @ a1
        d_b2 = dz2.sum(axis=0)
        da1 = dz2 @ disc.weights[1]
        dz1 = da1 * np.where(z1 > 0, 1.0, 0.2)
        d_w1 = dz1.T @ v0
        d_b1 = dz1.sum(axis=0)
        return [d_w1, d_b1, d_w2, d_b2, d_w3, d_b3], dz1 @ disc.weights[0]

    @staticmethod
    def oracle_bce(probs, target):
        p = np.clip(probs, 1e-7, 1.0 - 1e-7)
        return float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))))

    @classmethod
    def oracle(cls, disc, w, x, y, target_mapped, target_real, dropout_rng=None):
        """(loss, parameter grads, probabilities, d loss / d W)."""
        n_src, n_tgt = len(x), len(y)
        probs, cache = cls.oracle_forward(disc, np.vstack([x @ w.T, y]), dropout_rng)
        p_src, p_tgt = probs[:n_src], probs[n_src:]
        loss = cls.oracle_bce(p_src, target_mapped) + cls.oracle_bce(p_tgt, target_real)
        dz3 = np.empty(n_src + n_tgt)
        dz3[:n_src] = (p_src - target_mapped) / n_src
        dz3[n_src:] = (p_tgt - target_real) / n_tgt
        grads, _ = cls.oracle_backward(disc, dz3, cache)
        _, d_input = cls.oracle_backward(disc, dz3[:n_src], [c[:n_src] for c in cache])
        return loss, grads, probs, d_input.T @ x

    def assert_matches_oracle(self, disc, w, x, y, seed=None):
        s = 0.2
        ours, theirs = (None, None) if seed is None else (
            np.random.default_rng(seed), np.random.default_rng(seed))
        loss, grads, probs = discriminator_gradients(disc, w, x, y, s, dropout_rng=ours)
        o_loss, o_grads, o_probs, _ = self.oracle(disc, w, x, y, 1 - s, s, theirs)
        assert loss == o_loss
        assert np.array_equal(probs, o_probs)
        assert len(grads) == len(o_grads) == 6
        for grad, o_grad in zip(grads, o_grads):
            assert grad.shape == o_grad.shape
            assert np.array_equal(grad, o_grad)
        loss, d_w = mapping_gradient(disc, w, x, y, s)
        o_loss, _, _, o_d_w = self.oracle(disc, w, x, y, s, 1 - s)
        assert loss == o_loss
        assert np.array_equal(d_w, o_d_w)

    @staticmethod
    def batch(seed, n_src, n_tgt, dim=6):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n_src, dim)), rng.normal(size=(n_tgt, dim))

    def test_dropout_with_generators_at_the_same_state(self):
        rng = np.random.default_rng(20)
        disc = Discriminator(6, hidden=16, input_dropout=0.3, rng=rng, dtype=np.float64)
        w = rng.normal(size=(6, 6))
        x, y = self.batch(21, 8, 8)
        self.assert_matches_oracle(disc, w, x, y, seed=22)

    def test_unequal_sides(self):
        rng = np.random.default_rng(23)
        disc = Discriminator(6, hidden=16, input_dropout=0.0, rng=rng, dtype=np.float64)
        w = rng.normal(size=(6, 6))
        x, y = self.batch(24, 3, 7)
        self.assert_matches_oracle(disc, w, x, y)

    def test_alternating_batch_sizes_on_one_discriminator(self):
        # at this width some row counts of a matrix product round differently
        # from the same rows inside a larger product, so W's gradient matches
        # only an oracle that also runs the source rows alone
        rng = np.random.default_rng(25)
        disc = Discriminator(50, hidden=128, input_dropout=0.1, rng=rng, dtype=np.float64)
        w = rng.normal(size=(50, 50)) * 0.2
        sizes = [(32, 32), (2, 5), (32, 32), (1, 1), (33, 31), (5, 2), (32, 32)]
        for i, (n_src, n_tgt) in enumerate(sizes):
            x, y = self.batch(26 + i, n_src, n_tgt, dim=50)
            self.assert_matches_oracle(disc, w, x, y, seed=40 + i)

    def test_returned_gradients_are_overwritten_by_the_next_call(self):
        rng = np.random.default_rng(27)
        disc = Discriminator(6, hidden=16, input_dropout=0.0, rng=rng, dtype=np.float64)
        w = rng.normal(size=(6, 6))
        x, y = self.batch(28, 4, 4)
        x2, y2 = self.batch(29, 4, 4)
        _, grads, probs = discriminator_gradients(disc, w, x, y)
        first = [g.copy() for g in grads]
        first_probs = probs.copy()
        _, d_w = mapping_gradient(disc, w, x, y)
        first_d_w = d_w.copy()
        # mapping_gradient leaves the parameter gradients alone
        for grad, copy in zip(grads, first):
            assert np.array_equal(grad, copy)
        _, grads2, probs2 = discriminator_gradients(disc, w, x2, y2)
        # the arrays returned first now hold the second call's values
        for grad, grad2, copy in zip(grads, grads2, first):
            assert np.shares_memory(grad, disc.flat_grads)
            assert np.array_equal(grad, grad2)
            assert not np.array_equal(grad, copy)
        # the probabilities are the caller's own array
        assert np.array_equal(probs, first_probs)
        assert not np.array_equal(probs2, first_probs)
        # d_w is the caller's own array
        mapping_gradient(disc, w, x2, y2)
        assert np.array_equal(d_w, first_d_w)

    def test_in_place_parameter_writes_reach_the_trained_array(self):
        disc = Discriminator(3, hidden=4, input_dropout=0.0, rng=np.random.default_rng(0))
        expected = []
        for i, (w, b) in enumerate(zip(disc.weights, disc.biases)):
            w[:] = i + 1.0
            b[:] = -(i + 1.0)
            expected += [np.full(w.size, i + 1.0), np.full(b.size, -(i + 1.0))]
        np.testing.assert_array_equal(disc.flat_params, np.concatenate(expected))
        # the trainer's whole-array update shows through every view
        disc.flat_params -= 1.0
        for i, (w, b) in enumerate(zip(disc.weights, disc.biases)):
            assert np.all(w == i) and np.all(b == -(i + 2.0))
        assert [p.shape for p in disc.grads] == [p.shape for p in disc.params]
        assert all(np.shares_memory(g, disc.flat_grads) for g in disc.grads)


class TestFloat32Discriminator:
    """The trained discriminator is float32; the same code in float64 is the
    reference its gradients and losses must stay close to."""

    @pytest.mark.parametrize("dim, hidden", [(50, 128), (6, 16)])
    def test_float32_pass_matches_float64_pass(self, dim, hidden):
        disc32 = Discriminator(dim, hidden, 0.1, np.random.default_rng(30))
        disc64 = Discriminator(dim, hidden, 0.1, np.random.default_rng(30), dtype=np.float64)
        assert disc32.flat_params.dtype == np.float32
        disc64.flat_params[:] = disc32.flat_params  # the same parameters
        rng = np.random.default_rng(31)
        w = rng.normal(size=(dim, dim)) * 0.2
        x, y = rng.normal(size=(32, dim)), rng.normal(size=(32, dim))
        # dropout from generators at the same state draws the same masks
        l32, g32, p32 = discriminator_gradients(disc32, w, x, y, 0.2, np.random.default_rng(32))
        l64, g64, p64 = discriminator_gradients(disc64, w, x, y, 0.2, np.random.default_rng(32))
        assert abs(l32 - l64) <= 1e-4 * abs(l64)
        assert np.max(np.abs(p32 - p64)) <= 1e-4
        for a, b in zip(g32, g64):
            assert a.dtype == np.float32
            assert np.max(np.abs(a - b)) <= 1e-4 * np.max(np.abs(b))
        l32, d_w32 = mapping_gradient(disc32, w, x, y, 0.2)
        l64, d_w64 = mapping_gradient(disc64, w, x, y, 0.2)
        assert d_w32.dtype == np.float64
        assert abs(l32 - l64) <= 1e-4 * abs(l64)
        assert np.max(np.abs(d_w32 - d_w64)) <= 1e-4 * np.max(np.abs(d_w64))

    @staticmethod
    def small_run():
        task = make_paired_task(n=300, n_seeds=10, n_truth=10, seed=3)
        x_s, y_s = seed_matrices(task.seeds, task.src, task.tgt)
        cfg = AdvConfig(epochs=2, hidden_dim=32, selection_topk=100, rng_seed=7)
        return train_adversarial(solve_procrustes(x_s, y_s), task.src, task.tgt, cfg)

    def test_trained_discriminator_is_float32_and_w_float64(self, monkeypatch):
        from apimap import adversarial

        seen, passes, d_ws = [], [], []

        def recording(disc, *args, **kwargs):
            seen.append(disc)
            _, grads, probs = out = discriminator_gradients(disc, *args, **kwargs)
            passes.append([probs.dtype] + [g.dtype for g in grads])
            return out

        def recording_w(*args, **kwargs):
            out = mapping_gradient(*args, **kwargs)
            d_ws.append(out[1].dtype)
            return out

        monkeypatch.setattr(adversarial, "discriminator_gradients", recording)
        monkeypatch.setattr(adversarial, "mapping_gradient", recording_w)
        w2 = self.small_run()
        assert w2.w.dtype == np.float64
        disc = seen[-1]
        assert all(d is disc for d in seen)
        assert disc.flat_params.dtype == disc.flat_grads.dtype == np.float32
        assert passes and all(d == np.float32 for p in passes for d in p)
        assert d_ws and all(d == np.float64 for d in d_ws)

    def test_seeded_runs_return_bit_equal_w(self):
        assert np.array_equal(self.small_run().w, self.small_run().w)


class TestSelectionCriterion:
    def test_identical_spaces_identity_mapping(self):
        rng = np.random.default_rng(4)
        space = space_from(rng.normal(size=(40, 8)))
        assert selection_criterion(np.eye(8), space, space, 10) == pytest.approx(1.0)

    def test_exact_rotation_scores_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 8))
        rot = random_orthogonal(8, rng)
        src = space_from(x)
        tgt = space_from(x @ rot.T, prefix="t")
        assert selection_criterion(rot, src, tgt, 40) == pytest.approx(1.0)

    def test_random_mapping_on_unrelated_spaces_scores_low(self):
        below = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            src = space_from(rng.normal(size=(500, 50)))
            tgt = space_from(rng.normal(size=(500, 50)), prefix="t")
            w = random_orthogonal(50, rng)
            if selection_criterion(w, src, tgt, 100) < 0.5:
                below += 1
        assert below >= 19

    def test_k_validation(self):
        rng = np.random.default_rng(6)
        space = space_from(rng.normal(size=(10, 4)))
        with pytest.raises(ValueError):
            selection_criterion(np.eye(4), space, space, 0)
        with pytest.raises(ValueError):
            selection_criterion(np.eye(4), space, space, 11)


class TestAdvConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"label_smoothing": 0.5},
            {"label_smoothing": -0.1},
            {"input_dropout": 1.0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"epochs": -1},
            {"selection_topk": 0},
            {"epochs": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdvConfig(**kwargs)


class TestTrainAdversarial:
    def test_dimension_mismatch(self):
        task = make_paired_task(n=100, dim=8, n_seeds=10, n_truth=10, seed=10)
        from apimap.seeding import MappingMatrix

        with pytest.raises(ValueError):
            train_adversarial(
                MappingMatrix(np.eye(9), "seeded"), task.src, task.tgt, AdvConfig(epochs=1)
            )

    def test_improves_criterion_from_weak_seeding(self):
        # 10 seeds in 50 dimensions leave plenty of headroom for training
        task = make_paired_task(seed=0, n_seeds=10)
        x_s, y_s = seed_matrices(task.seeds, task.src, task.tgt)
        w1 = solve_procrustes(x_s, y_s)
        c1 = selection_criterion(w1.w, task.src, task.tgt, 1000)
        w2 = train_adversarial(w1, task.src, task.tgt, adv_config(42))
        c2 = selection_criterion(w2.w, task.src, task.tgt, 1000)
        assert c2 > c1

    def test_seeded_init_beats_random_init(self):
        # compared on ground-truth accuracy: the unsupervised criterion cannot
        # tell a correctly anchored alignment from a mis-permuted one, so a
        # random-init run can tie it while being useless for retrieval
        from apimap.seeding import MappingMatrix, STAGE_SEEDED

        from helpers import oracle_top1

        seeded, randomed = [], []
        for seed in range(5):
            task = make_paired_task(seed=seed, n_seeds=10)
            x_s, y_s = seed_matrices(task.seeds, task.src, task.tgt)
            w1 = solve_procrustes(x_s, y_s)
            cfg = adv_config(seed + 300, epochs=8)
            w2 = train_adversarial(w1, task.src, task.tgt, cfg)
            seeded.append(oracle_top1(w2, task.src, task.tgt, task.truth_idx))
            w_rand = MappingMatrix(
                random_orthogonal(task.src.dim, np.random.default_rng(seed)),
                STAGE_SEEDED,
                orthogonal=True,
            )
            w2r = train_adversarial(w_rand, task.src, task.tgt, cfg)
            randomed.append(oracle_top1(w2r, task.src, task.tgt, task.truth_idx))
        assert np.median(seeded) >= np.median(randomed)

    def test_returned_snapshot_dominates_history(self, sar_runs):
        for run in sar_runs["runs"]:
            best = selection_criterion(
                run["w2"].w, run["task"].src, run["task"].tgt, 1000
            )
            assert best >= max(run["epoch_criteria"]) - 1e-12
            assert best >= run["criterion_w1"] - 1e-12

    def test_history_numbers_every_epoch(self, sar_runs):
        history = sar_runs["runs"][0]["history"]
        assert [h.epoch for h in history] == list(range(1, len(history) + 1))
