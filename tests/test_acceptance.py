"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from apimap.adversarial import (
    Discriminator,
    discriminator_gradients,
    mapping_gradient,
)
from apimap.corpus import Vocabulary
from apimap.embedding import EmbeddingSpace
from apimap.evaluation import GroundTruth, coverage_accuracy_table, f_score, topk_accuracy
from apimap.query import QueryResult, batch_query
from apimap.seeding import MappingMatrix, random_orthogonal, solve_procrustes

from helpers import brute_force_neighbors, solve_gradient_descent


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


@pytest.fixture(scope="module")
def procrustes_trials():
    """50 noiseless orthogonal-recovery trials over d in {5, 20, 100}."""
    rng = np.random.default_rng(2024)
    dims = [5, 20, 100]
    trials = []
    solve_time = 0.0
    for t in range(50):
        d = dims[t % 3]
        n = d + int(rng.integers(5, 2 * d + 1))
        rot = random_orthogonal(d, rng)
        x = rng.normal(size=(n, d))
        y = x @ rot.T
        t0 = time.perf_counter()
        w = solve_procrustes(x, y)
        solve_time += time.perf_counter() - t0
        gd = solve_gradient_descent(x, y, lr=0.1, iters=1000)
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        yn = y / np.linalg.norm(y, axis=1, keepdims=True)
        trials.append(
            {
                "recovery": float(np.linalg.norm(w.w - rot)),
                "orthogonality": float(np.linalg.norm(w.w.T @ w.w - np.eye(d))),
                "residual_procrustes": float(np.linalg.norm(xn @ w.w.T - yn)),
                "residual_gd": float(np.linalg.norm(xn @ gd.w.T - yn)),
            }
        )
    return {"trials": trials, "solve_time": solve_time}


def test_criterion_01_procrustes_exactness(procrustes_trials):
    trials = procrustes_trials["trials"]
    worst_recovery = max(t["recovery"] for t in trials)
    worst_orth = max(t["orthogonality"] for t in trials)
    elapsed = procrustes_trials["solve_time"]
    ok = worst_recovery < 1e-8 and worst_orth < 1e-6 and elapsed < 10.0
    report(1, "procrustes exact recovery", ok,
           f"max |W-R|={worst_recovery:.2e}, max orth err={worst_orth:.2e}, "
           f"{elapsed:.2f}s for 50 solves")


def test_criterion_02_procrustes_beats_gradient_descent(procrustes_trials):
    trials = procrustes_trials["trials"]
    wins = sum(
        1 for t in trials if t["residual_procrustes"] <= t["residual_gd"]
    )
    ok = wins >= 0.95 * len(trials)
    report(2, "closed form beats 1000-step gradient descent", ok,
           f"{wins}/{len(trials)} trials")


def test_criterion_03_adversarial_gradient_correctness():
    rng = np.random.default_rng(99)
    eps = 1e-5
    worst = 0.0
    for trial in range(3):
        disc = Discriminator(5, hidden=6, input_dropout=0.0, rng=rng, dtype=np.float64)
        w = rng.normal(size=(5, 5)) * 0.4
        x = rng.normal(size=(2, 5))
        y = rng.normal(size=(2, 5))
        # copied: every call overwrites the views it returns
        grads = [g.copy() for g in discriminator_gradients(disc, w, x, y, smoothing=0.2)[1]]
        for param, grad in zip(disc.params, grads):
            flat, gflat = param.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = discriminator_gradients(disc, w, x, y, 0.2)[0]
                flat[i] = orig - eps
                down = discriminator_gradients(disc, w, x, y, 0.2)[0]
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                worst = max(worst, rel)
        _, d_w = mapping_gradient(disc, w, x, y, smoothing=0.2)
        for i in range(5):
            for j in range(5):
                orig = w[i, j]
                w[i, j] = orig + eps
                up = mapping_gradient(disc, w, x, y, 0.2)[0]
                w[i, j] = orig - eps
                down = mapping_gradient(disc, w, x, y, 0.2)[0]
                w[i, j] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - d_w[i, j]) / max(abs(fd), abs(d_w[i, j]), 1e-8)
                worst = max(worst, rel)
    ok = worst < 1e-4
    report(3, "adversarial losses match finite differences", ok,
           f"max rel err {worst:.2e}")


def test_criterion_04_synthetic_sar_pipeline(sar_runs):
    runs = sar_runs["runs"]
    med = {
        key: float(np.median([r[key] for r in runs]))
        for key in ("top1_s", "top1_sa", "top1_sar")
    }
    # CPU time, not wall time, so the gate does not depend on machine load
    cpu = sar_runs["cpu_s"]
    ok = (
        med["top1_sar"] >= med["top1_sa"] >= med["top1_s"]
        and med["top1_sar"] >= 0.80
        and cpu < 300.0
    )
    report(4, "synthetic pipeline ordering and floor", ok,
           f"S={med['top1_s']:.3f} S+A={med['top1_sa']:.3f} "
           f"S+A+R={med['top1_sar']:.3f}, {sar_runs['elapsed']:.0f}s wall, "
           f"{cpu:.0f}s CPU for 5 seeds")


def test_criterion_05_refinement_from_random_near_useless(sar_runs):
    med = float(np.median([r["top1_r_only"] for r in sar_runs["runs"]]))
    ok = med < 0.05
    report(5, "refine-only from random start stays near zero", ok,
           f"median top-1 {med:.3f}")


def test_criterion_06_selection_criterion_tracks_accuracy(sar_runs):
    rhos = []
    for run in sar_runs["runs"]:
        rho = spearmanr(run["epoch_criteria"], run["epoch_accuracy"]).statistic
        rhos.append(float(rho))
    med = float(np.median(rhos))
    ok = med > 0.7
    report(6, "selection criterion correlates with accuracy", ok,
           f"median spearman {med:.2f} across seeds {['%.2f' % r for r in rhos]}")


def test_criterion_07_metric_unit_checks():
    def ranked(token, *targets):
        return QueryResult(token, tuple((t, 1.0 - 0.01 * i) for i, t in enumerate(targets)))

    truth = GroundTruth((("a", "A"), ("b", "B"), ("c", "C"), ("d", "D")))
    results = [
        ranked("a", "A", *(f"x{i}" for i in range(9))),
        ranked("b", *(f"y{i}" for i in range(6)), "B"),
        ranked("c", "z0", "C", *(f"z{i}" for i in range(1, 8))),
        ranked("d", *(f"w{i}" for i in range(10))),
    ]
    topk_ok = topk_accuracy(results, truth, k=5) == 0.5

    f_ok = abs(f_score(0.840, 0.813) - 0.826) <= 1e-3

    rng = np.random.default_rng(11)
    n = 30
    src = EmbeddingSpace(
        rng.normal(size=(n, 8)), Vocabulary([f"s{i}" for i in range(n)], range(2 * n, n, -1))
    )
    tgt = EmbeddingSpace(
        rng.normal(size=(n, 8)), Vocabulary([f"t{i}" for i in range(n)], range(2 * n, n, -1))
    )
    table_truth = GroundTruth(tuple((f"s{i}", f"t{i}") for i in range(n)))
    rows = coverage_accuracy_table(
        MappingMatrix(np.eye(8), "seeded", orthogonal=True),
        src, tgt, table_truth, [0.0, 0.2, 0.4, 0.6, 0.8], k_list=(1, 5),
    )
    cov_ok = True
    for k in (1, 5):
        series = [r.coverage for r in rows if r.k == k]
        cov_ok &= all(a >= b for a, b in zip(series, series[1:]))
        cov_ok &= series[0] == 1.0

    ok = topk_ok and f_ok and cov_ok
    report(7, "metric unit checks", ok,
           f"topk={topk_ok} f_score={f_ok} coverage_monotone={cov_ok}")


def test_criterion_08_query_exactness_and_scale_invariance():
    rng = np.random.default_rng(12)
    exact = True
    for _ in range(12):
        n = int(rng.integers(5, 1001))
        d = int(rng.integers(2, 40))
        space = EmbeddingSpace(
            rng.normal(size=(n, d)),
            Vocabulary([f"t{i:04d}" for i in range(n)], range(2 * n, n, -1)),
        )
        v = rng.normal(size=d)
        k = int(rng.integers(1, min(n, 50) + 1))
        # W = I over a source space whose rows are v and its scaled copies
        scales = (1.0, 1e-3, 7.0)
        queries = EmbeddingSpace(
            np.stack([c * v for c in scales]), Vocabulary([f"v*{c}" for c in scales], [3, 2, 1])
        )
        identity = MappingMatrix(np.eye(d), "seeded", orthogonal=True)
        got, *scaled = batch_query(queries.vocab.tokens, identity, queries, space, k)
        oracle = brute_force_neighbors(v, space.vectors, k)
        exact &= got.tokens == [space.vocab.tokens[i] for i, _ in oracle]
        for result in scaled:
            exact &= result.tokens == got.tokens
    report(8, "query equals brute force and is scale invariant", exact)


def test_criterion_09_skipgram_sanity(planted_runs):
    wins = sum(1 for m in planted_runs["margins"] if m > 0)
    deterministic = planted_runs["deterministic"]
    ok = wins >= 95 and deterministic
    report(9, "skip-gram planted co-occurrence and determinism", ok,
           f"{wins}/100 wins, bit-exact rerun={deterministic}")


def test_criterion_10_intersection_beats_union(decoy_runs):
    inter = float(np.median([r["top1_intersection"] for r in decoy_runs]))
    union = float(np.median([r["top1_union"] for r in decoy_runs]))
    ok = inter >= union
    report(10, "intersection refinement beats union with decoys", ok,
           f"intersection {inter:.3f} vs union {union:.3f}")
