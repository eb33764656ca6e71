"""Session fixtures for the expensive synthetic pipeline runs, shared between
the per-module tests and the acceptance suite so each is computed once."""

from __future__ import annotations

import time

import numpy as np
import pytest

from apimap import adversarial
from apimap.adversarial import AdvConfig, selection_criterion, train_adversarial
from apimap.embedding import TrainConfig, train_skipgram
from apimap.refinement import RefineConfig, refine
from apimap.seeding import (
    MappingMatrix,
    STAGE_SEEDED,
    random_orthogonal,
    seed_matrices,
    solve_procrustes,
)

from helpers import cosine, make_paired_task, oracle_top1, planted_corpus

SELECTION_K = 1000


def adv_config(seed: int, epochs: int = 15) -> AdvConfig:
    return AdvConfig(
        epochs=epochs,
        batch_size=32,
        learning_rate=0.02,
        hidden_dim=128,
        label_smoothing=0.2,
        input_dropout=0.1,
        selection_topk=SELECTION_K,
        rng_seed=seed,
    )


def refine_config(mode: str = "intersection") -> RefineConfig:
    return RefineConfig(
        topk=500,
        threshold=0.7,
        mode=mode,
        max_iters=5,
        patience=1,
        selection_topk=SELECTION_K,
    )


@pytest.fixture(scope="session")
def sar_runs():
    """Full pipeline on the synthetic task for 5 RNG seeds.

    Per seed: top-1 accuracy of S, S+A, S+A+R, and refine-from-random (R),
    plus the adversarial per-epoch criterion and ground-truth accuracy series.
    The wall and process CPU seconds of all five seeds are recorded too.
    """
    runs = []
    started = time.time()
    cpu_started = time.process_time()
    for seed in range(5):
        task = make_paired_task(seed=seed)
        x_s, y_s = seed_matrices(task.seeds, task.src, task.tgt)
        w1 = solve_procrustes(x_s, y_s)
        history = []
        # ground-truth top-1 of every W that training scores with the selection
        # criterion: the starting W, then each epoch-end W
        scored_accuracy = []

        def scored(w, src, tgt, k, task=task, out=scored_accuracy):
            out.append(oracle_top1(w, task.src, task.tgt, task.truth_idx))
            return selection_criterion(w, src, tgt, k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adversarial, "selection_criterion", scored)
            w2 = train_adversarial(w1, task.src, task.tgt, adv_config(seed + 100), history)
        assert len(scored_accuracy) == len(history) + 1
        w3 = refine(w2, task.src, task.tgt, refine_config())
        w_random = MappingMatrix(
            random_orthogonal(task.src.dim, np.random.default_rng(seed + 7)),
            STAGE_SEEDED,
            orthogonal=True,
        )
        w_r_only = refine(w_random, task.src, task.tgt, refine_config())
        runs.append(
            {
                "task": task,
                "w1": w1,
                "w2": w2,
                "w3": w3,
                "top1_s": oracle_top1(w1, task.src, task.tgt, task.truth_idx),
                "top1_sa": oracle_top1(w2, task.src, task.tgt, task.truth_idx),
                "top1_sar": oracle_top1(w3, task.src, task.tgt, task.truth_idx),
                "top1_r_only": oracle_top1(w_r_only, task.src, task.tgt, task.truth_idx),
                "criterion_w1": selection_criterion(w1.w, task.src, task.tgt, SELECTION_K),
                "criterion_w2": selection_criterion(w2.w, task.src, task.tgt, SELECTION_K),
                "criterion_w3": selection_criterion(w3.w, task.src, task.tgt, SELECTION_K),
                "epoch_criteria": [h.criterion for h in history],
                "epoch_accuracy": scored_accuracy[1:],
                "history": history,
            }
        )
    elapsed = time.time() - started
    cpu_s = time.process_time() - cpu_started
    return {"runs": runs, "elapsed": elapsed, "cpu_s": cpu_s}


@pytest.fixture(scope="session")
def decoy_runs():
    """Union vs intersection refinement on the 20%-decoy variant of the task."""
    runs = []
    for seed in range(5):
        task = make_paired_task(seed=seed, decoy_frac=0.2)
        x_s, y_s = seed_matrices(task.seeds, task.src, task.tgt)
        w1 = solve_procrustes(x_s, y_s)
        w2 = train_adversarial(w1, task.src, task.tgt, adv_config(seed + 100))
        w3_inter = refine(w2, task.src, task.tgt, refine_config("intersection"))
        w3_union = refine(w2, task.src, task.tgt, refine_config("union"))
        runs.append(
            {
                "top1_intersection": oracle_top1(w3_inter, task.src, task.tgt, task.truth_idx),
                "top1_union": oracle_top1(w3_union, task.src, task.tgt, task.truth_idx),
            }
        )
    return runs


@pytest.fixture(scope="session")
def planted_runs():
    """100 seeded skip-gram runs on the planted co-occurrence corpus."""
    corpus = planted_corpus()
    margins = []
    deterministic = None
    for s in range(100):
        cfg = TrainConfig(
            dim=12, epochs=2, negatives=3, window=1, subsample=1.0,
            learning_rate=0.025, rng_seed=s,
        )
        space = train_skipgram(corpus, cfg)
        p, q, r = space.vector("p"), space.vector("q"), space.vector("r")
        margins.append(cosine(p, q) - cosine(p, r))
        if s == 0:
            rerun = train_skipgram(corpus, cfg)
            deterministic = bool(np.array_equal(space.vectors, rerun.vectors))
    return {"margins": margins, "deterministic": deterministic}
