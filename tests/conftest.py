"""Session fixtures for the expensive synthetic pipeline runs, shared between
the per-module tests and the acceptance suite so each is computed once."""

from __future__ import annotations

import time

import numpy as np
import pytest

from apimap.adversarial import AdvConfig, selection_criterion
from apimap.embedding import TrainConfig, train_skipgram
from apimap.evaluation import run_stages
from apimap.refinement import RefineConfig, refine

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
        chain = (task.src, task.tgt, task.seeds, adv_config(seed + 100), refine_config())
        run = run_stages("S+A+R", *chain, rng_seed=seed + 7)
        w_r_only = run_stages("R", *chain, rng_seed=seed + 7).w

        def top1(w, task=task):
            return oracle_top1(w, task.src, task.tgt, task.truth_idx)

        w1, w2, w3 = (run.outputs[stage] for stage in "SAR")
        runs.append(
            {
                "task": task,
                "w1": w1,
                "w2": w2,
                "w3": w3,
                "top1_s": top1(w1),
                "top1_sa": top1(w2),
                "top1_sar": top1(w3),
                "top1_r_only": top1(w_r_only),
                "criterion_w1": selection_criterion(w1.w, task.src, task.tgt, SELECTION_K),
                "criterion_w2": selection_criterion(w2.w, task.src, task.tgt, SELECTION_K),
                "criterion_w3": selection_criterion(w3.w, task.src, task.tgt, SELECTION_K),
                "epoch_criteria": [h.criterion for h in run.epochs],
                "epoch_accuracy": [top1(h.w) for h in run.epochs],
                "history": run.epochs,
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
        w2 = run_stages("S+A", task.src, task.tgt, task.seeds, adv_config(seed + 100),
                        refine_config(), rng_seed=0).w
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
