"""Tests for synthetic-dictionary candidate generation and iterative refinement."""

import logging
import tracemalloc

import numpy as np
import pytest

from apimap import similarity
from apimap.adversarial import selection_criterion
from apimap.corpus import Vocabulary
from apimap.embedding import EmbeddingSpace
from apimap.refinement import (
    RefineConfig,
    aligned_scan,
    candidates_cosine_threshold,
    candidates_topk_frequency,
    refine,
)
from apimap.seeding import (
    ORTHOGONALITY_TOL,
    MappingMatrix,
    nearest_orthogonal,
    random_orthogonal,
    seed_matrices,
    solve_procrustes,
)
from apimap.similarity import unit_rows

from conftest import refine_config
from helpers import make_paired_task, oracle_top1


def space_from(vectors, prefix="t"):
    n = len(vectors)
    return EmbeddingSpace(
        np.asarray(vectors, dtype=float),
        Vocabulary([f"{prefix}{i:04d}" for i in range(n)], range(2 * n, n, -1)),
    )


def decoy_task_and_start():
    """400 paired tokens and 80 decoys a side, and a non-orthogonal start."""
    task = make_paired_task(n=400, dim=12, seed=2, decoy_frac=0.2)
    w = solve_procrustes(*seed_matrices(task.seeds, task.src, task.tgt)).w
    w = w + 0.2 * np.random.default_rng(0).normal(size=w.shape)
    assert not np.allclose(w.T @ w, np.eye(12))
    return task, MappingMatrix(w, "adversarial", orthogonal=False)


def mutual_oracle(scan, src, tgt):
    """Brute-force back-check of ``scan = aligned_scan(w, src, tgt, rows)``:
    the scanned rows i that are the most similar of every mapped source to
    ``nn[i]``, the lower index winning a tie; and whether any such maximum
    was tied."""
    w, nn, _ = scan
    sims = np.einsum("jd,id->ji", unit_rows(tgt.vectors[nn]), unit_rows(src.vectors @ w.T))
    tied = ((sims == sims.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
    return np.flatnonzero(sims.argmax(axis=1) == np.arange(len(nn))), tied


def with_duplicates(space, pairs):
    """``space`` with row ``hi`` set to a copy of row ``lo`` for each pair."""
    vectors = space.vectors.copy()
    for lo, hi in pairs:
        vectors[hi] = vectors[lo]
    return EmbeddingSpace(vectors, space.vocab)


def record_refine(monkeypatch, cfg):
    """Refine the decoy task, recording every W ``aligned_scan`` ranks, every
    W ``solve_procrustes`` returns and every ``selection_criterion`` call."""
    from apimap import refinement

    task, w2 = decoy_task_and_start()
    scanned, solved, criterion_calls = [], [], []
    real_scan, real_solve = refinement.aligned_scan, refinement.solve_procrustes
    real_criterion = refinement.selection_criterion

    def recording_scan(w, *rest):
        scanned.append(np.array(w))
        return real_scan(w, *rest)

    def recording_solve(*args):
        solved.append(real_solve(*args))
        return solved[-1]

    def recording_criterion(*args):
        criterion_calls.append(args)
        return real_criterion(*args)

    monkeypatch.setattr(refinement, "aligned_scan", recording_scan)
    monkeypatch.setattr(refinement, "solve_procrustes", recording_solve)
    monkeypatch.setattr(refinement, "selection_criterion", recording_criterion)
    report = []
    refine(w2, task.src, task.tgt, cfg, report)
    monkeypatch.undo()
    return task, w2, report, scanned, [s.w for s in solved], criterion_calls


class TestTopkFrequencyCandidates:
    def test_identity_spaces_pair_each_token_with_itself(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(30, 8))
        src = space_from(vecs, prefix="s")
        tgt = space_from(vecs, prefix="t")
        scan = aligned_scan(np.eye(8), src, tgt, rows=10)
        rows = candidates_topk_frequency(scan, src, tgt)
        assert rows.tolist() == list(range(10))
        assert scan[1][rows].tolist() == list(range(10))
        # a scan of the leading rows offers only the sources it scanned
        short = aligned_scan(np.eye(8), src, tgt, rows=4)
        kept = candidates_topk_frequency(short, src, tgt)
        assert kept.tolist() == rows[:4].tolist()

    def test_default_k_is_500(self):
        assert RefineConfig().topk == 500

    def test_known_permutation_recovered(self):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(20, 10))
        perm = rng.permutation(20)
        src = space_from(vecs, prefix="s")
        tgt = space_from(vecs[perm], prefix="t")
        # brute-force expectation: source i sits at target row argwhere(perm == i)
        expected = {(i, int(np.flatnonzero(perm == i)[0])) for i in range(12)}
        scan = aligned_scan(np.eye(10), src, tgt, rows=12)
        rows = candidates_topk_frequency(scan, src, tgt)
        assert {(int(i), int(scan[1][i])) for i in rows} == expected

    def test_mutual_filter_drops_contested_targets(self):
        # two sources share the same nearest target; only the reciprocal wins
        src = space_from([[1.0, 0.0], [0.9, 0.1]], prefix="s")
        tgt = space_from([[1.0, 0.0]], prefix="t")
        scan = aligned_scan(np.eye(2), src, tgt, rows=2)
        kept = candidates_topk_frequency(scan, src, tgt)
        assert kept.tolist() == [0] and scan[1][0] == 0

    def test_blockwise_back_check_matches_brute_force_ties_included(self, monkeypatch):
        # four float64 rows of d=8 per block: rows 3 and 4 straddle the first
        # boundary, 1 and 9 lie two blocks apart, and 21 copies 6 unscanned
        monkeypatch.setattr(similarity, "TILE_BYTES", 4 * 8 * 8)
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(40, 8))
        w = random_orthogonal(8, rng)
        src = with_duplicates(space_from(vecs, prefix="s"), [(3, 4), (1, 9), (6, 21)])
        tgt = space_from(vecs @ w.T + 0.01 * rng.normal(size=(40, 8)))
        scan = aligned_scan(w, src, tgt, rows=10)
        rows = candidates_topk_frequency(scan, src, tgt)
        expected, tied = mutual_oracle(scan, src, tgt)
        assert tied
        assert rows.tolist() == expected.tolist()
        # each copy shares its original's nearest target, and the lower index wins
        assert scan[1][4] == scan[1][3] and scan[1][9] == scan[1][1]
        assert {1, 3, 6} <= set(rows.tolist()) and not {4, 9} & set(rows.tolist())

    @pytest.mark.parametrize("mode", ["intersection", "union"])
    def test_refine_back_checks_match_brute_force(self, monkeypatch, mode):
        from apimap import refinement

        # sixteen float64 rows of d=12 per block, and copies across its boundaries
        monkeypatch.setattr(similarity, "TILE_BYTES", 16 * 8 * 12)
        task, w2 = decoy_task_and_start()
        src = with_duplicates(task.src, [(15, 16), (31, 32), (40, 63), (5, 300)])
        checked = []
        real = refinement.candidates_topk_frequency

        def recording(scan, *rest):
            checked.append((scan, real(scan, *rest)))
            return checked[-1][1]

        monkeypatch.setattr(refinement, "candidates_topk_frequency", recording)
        cfg = RefineConfig(topk=200, threshold=0.6, mode=mode, max_iters=3,
                           patience=3, selection_topk=300)
        refine(w2, src, task.tgt, cfg)
        assert len(checked) >= 2
        ties = []
        for scan, rows in checked:
            expected, tied = mutual_oracle(scan, src, task.tgt)
            assert rows.tolist() == expected.tolist()
            ties.append(tied)
        assert all(ties)


class TestCosineThresholdCandidates:
    def test_default_threshold_is_07(self):
        assert RefineConfig().threshold == 0.7

    def test_high_threshold_on_noisy_spaces_empty(self):
        rng = np.random.default_rng(2)
        src = space_from(rng.normal(size=(40, 12)), prefix="s")
        tgt = space_from(rng.normal(size=(40, 12)), prefix="t")
        w = random_orthogonal(12, rng)
        rows = candidates_cosine_threshold(aligned_scan(w, src, tgt, rows=40), threshold=0.999)
        assert len(rows) <= 1

    def test_separates_aligned_from_unaligned(self):
        aligned = np.eye(3)
        src = space_from(
            np.vstack([aligned, [[0.6, 0.6, 0.5], [0.5, 0.6, 0.6], [0.6, 0.5, 0.6]]]),
            prefix="s",
        )
        tgt = space_from(aligned, prefix="t")
        scan = aligned_scan(np.eye(3), src, tgt, rows=6)
        rows = candidates_cosine_threshold(scan, threshold=0.95)
        assert rows.tolist() == [0, 1, 2]
        assert scan[1][rows].tolist() == [0, 1, 2]

    def test_never_allocates_a_full_similarity_matrix(self):
        # a float64 n_src x n_tgt matrix here would take 103.7 MB
        n, d = 3600, 8
        rng = np.random.default_rng(9)
        vecs = rng.normal(size=(n, d))
        src = space_from(vecs, prefix="s")
        tgt = space_from(vecs + 0.01 * rng.normal(size=(n, d)), prefix="t")
        tracemalloc.start()
        try:
            scan = aligned_scan(np.eye(d), src, tgt, rows=n)
            rows = candidates_cosine_threshold(scan, threshold=0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 10
        assert len(rows) > n // 2

    def test_scan_and_back_check_hold_one_float64_copy(self):
        # the spaces outweigh a tile: the scan maps only the sources it ranks
        # and the back-check one block of them at a time, so a float64 copy of
        # either side, mapped or unit, would show
        n, d = 20_000, 100
        rng = np.random.default_rng(10)
        src = space_from(rng.normal(size=(n, d)), prefix="s")
        tgt = space_from(rng.normal(size=(n, d)))
        assert src.vectors.nbytes > 2 * similarity.TILE_BYTES
        w = random_orthogonal(d, rng)
        tracemalloc.start()
        try:
            scan = aligned_scan(w, src, tgt, rows=500)
            rows = candidates_topk_frequency(scan, src, tgt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scan[1]) == 500 and rows.size <= 500
        assert peak < 2 * src.vectors.nbytes

    def test_back_check_peaks_below_one_float64_copy_of_the_sources(self):
        # no mapped copy of every source: the targets' float32 copy in the
        # forward scan, one tile and one mapped block stay under 16 MB
        n, d = 20_000, 100
        rng = np.random.default_rng(10)
        src = space_from(rng.normal(size=(n, d)), prefix="s")
        tgt = space_from(rng.normal(size=(n, d)))
        w = random_orthogonal(d, rng)
        tracemalloc.start()
        try:
            candidates_topk_frequency(aligned_scan(w, src, tgt, rows=500), src, tgt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < src.vectors.nbytes

    def test_threshold_validation(self):
        src = space_from([[1.0, 0.0]])
        with pytest.raises(ValueError):
            candidates_cosine_threshold(aligned_scan(np.eye(2), src, src, rows=1), threshold=1.0)


class TestRefineConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topk": 0},
            {"threshold": 1.0},
            {"mode": "both"},
            {"max_iters": 0},
            {"patience": 0},
            {"selection_topk": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RefineConfig(**kwargs)


class TestRefine:
    def test_criterion_never_below_w2(self, sar_runs):
        for run in sar_runs["runs"]:
            assert run["criterion_w3"] >= run["criterion_w2"] - 1e-9

    def test_output_orthogonal_even_from_non_orthogonal_input(self, sar_runs):
        for run in sar_runs["runs"]:
            w3 = run["w3"]
            assert w3.orthogonal
            assert np.linalg.norm(w3.w.T @ w3.w - np.eye(w3.dim)) < 1e-6

    def test_noiseless_fixed_point(self):
        task = make_paired_task(n=300, dim=12, noise=0.0, n_seeds=40, n_truth=50, seed=4)
        w2 = MappingMatrix(
            task.rotation + 1e-3 * np.random.default_rng(0).normal(size=(12, 12)),
            "adversarial",
            orthogonal=False,
        )
        cfg = RefineConfig(topk=300, threshold=0.7, mode="intersection",
                           max_iters=1, selection_topk=300)
        once = refine(w2, task.src, task.tgt, cfg)
        assert np.linalg.norm(once.w - task.rotation) < 1e-8
        twice = refine(once, task.src, task.tgt, cfg)
        assert np.linalg.norm(twice.w - once.w) < 1e-10

    def test_stops_when_candidates_repeat(self):
        task = make_paired_task(n=300, dim=12, noise=0.0, n_seeds=40, n_truth=50, seed=4)
        w2 = MappingMatrix(
            task.rotation + 1e-3 * np.random.default_rng(0).normal(size=(12, 12)),
            "adversarial",
            orthogonal=False,
        )
        reports, outs = {}, {}
        for patience in (1, 3):
            cfg = RefineConfig(topk=300, threshold=0.7, mode="intersection",
                               max_iters=10, patience=patience, selection_topk=300)
            reports[patience] = []
            outs[patience] = refine(w2, task.src, task.tgt, cfg, reports[patience])
        steps = [(s.candidates, s.criterion) for s in reports[3][1:]]
        # the last iteration repeats the one before it, and no earlier one does
        assert len(steps) < 10
        assert steps[-1] == steps[-2]
        assert all(a != b for a, b in zip(steps[:-2], steps[1:-1]))
        np.testing.assert_array_equal(outs[3].w, outs[1].w)

    def test_one_scan_per_iteration_feeds_both_heuristics(self, monkeypatch):
        from apimap import refinement

        task = make_paired_task(n=300, dim=12, noise=0.02, n_seeds=40, n_truth=50, seed=4)
        w2 = MappingMatrix(
            task.rotation + 0.05 * np.random.default_rng(1).normal(size=(12, 12)),
            "adversarial",
            orthogonal=False,
        )
        cfg = RefineConfig(topk=100, threshold=0.7, mode="union", max_iters=4,
                           patience=4, selection_topk=300)
        scans, seen = [], []
        real_scan = refinement.aligned_scan

        def counting_scan(w, src, tgt, *rest):
            scans.append(src)
            seen.append(np.array(w))
            return real_scan(w, src, tgt, *rest)

        monkeypatch.setattr(refinement, "aligned_scan", counting_scan)
        for name in ("candidates_topk_frequency", "candidates_cosine_threshold"):
            def recording(*args, _real=getattr(refinement, name)):
                seen.append(_real(*args))
                return seen[-1]

            monkeypatch.setattr(refinement, name, recording)
        report = []
        refine(w2, task.src, task.tgt, cfg, report)
        iterations = len(report) - 1
        assert iterations >= 2
        assert len(scans) == iterations and all(s is task.src for s in scans)
        monkeypatch.undo()
        # each iteration's rows are what the public heuristics give for its W
        for w, by_freq, by_sim in zip(seen[0::3], seen[1::3], seen[2::3]):
            scan = aligned_scan(w, task.src, task.tgt, rows=100)
            assert by_freq.tolist() == candidates_topk_frequency(scan, task.src, task.tgt).tolist()
            assert by_sim.tolist() == candidates_cosine_threshold(scan, 0.7).tolist()

    def test_dictionary_is_chosen_rows_each_with_its_nearest_target(self, monkeypatch):
        # both heuristics pick rows of one scan, so a dictionary pairs each
        # chosen source row i with its nearest target nn[i], once
        from apimap import refinement

        task, w2 = decoy_task_and_start()
        src, tgt = task.src, task.tgt
        first = {}
        for mode in ("intersection", "union"):
            cfg = RefineConfig(topk=200, threshold=0.6, mode=mode, max_iters=3,
                               patience=3, selection_topk=300)
            scanned, solved_on = [], []
            real_scan, real_seed = refinement.aligned_scan, refinement.seed_matrices

            def recording_scan(w, *rest):
                scanned.append(np.array(w))
                return real_scan(w, *rest)

            def recording_seed(seeds, *rest):
                solved_on.append(seeds)
                return real_seed(seeds, *rest)

            monkeypatch.setattr(refinement, "aligned_scan", recording_scan)
            monkeypatch.setattr(refinement, "seed_matrices", recording_seed)
            refine(w2, src, tgt, cfg)
            monkeypatch.undo()
            assert len(solved_on) == len(scanned) >= 2
            for w, seeds in zip(scanned, solved_on):
                scan = aligned_scan(w, src, tgt, rows=200)
                by_freq = candidates_topk_frequency(scan, src, tgt).tolist()
                by_sim = candidates_cosine_threshold(scan, 0.6).tolist()
                if mode == "intersection":
                    rows = sorted(set(by_freq) & set(by_sim))
                else:
                    rows = np.union1d(by_freq, by_sim).tolist()
                assert list(seeds) == [
                    (src.vocab.tokens[i], tgt.vocab.tokens[scan[1][i]]) for i in rows]
                sources = [s for s, _ in seeds]
                assert len(sources) == len(set(sources))
            first[mode] = len(solved_on[0])
        assert first["union"] > first["intersection"] > 0

    @pytest.mark.parametrize("mode", ["intersection", "union"])
    @pytest.mark.parametrize("k", [100, 1000])
    def test_forward_scan_ranks_only_sources_that_can_enter(self, monkeypatch, mode, k):
        from apimap import refinement

        task, w2 = decoy_task_and_start()
        cfg = RefineConfig(topk=k, threshold=0.6, mode=mode, max_iters=3,
                           patience=3, selection_topk=300)
        forward, solved_on = [], []
        real_topk, real_seed = refinement.topk, refinement.seed_matrices

        def recording_topk(queries, targets, kk):
            if targets is task.tgt.vectors:
                forward.append(len(queries))
            return real_topk(queries, targets, kk)

        def recording_seed(seeds, *rest):
            solved_on.append(seeds)
            return real_seed(seeds, *rest)

        monkeypatch.setattr(refinement, "topk", recording_topk)
        monkeypatch.setattr(refinement, "seed_matrices", recording_seed)
        report = []
        refine(w2, task.src, task.tgt, cfg, report)
        n = len(task.src)
        # both modes rank only the first topk sources, the ones that can enter;
        # one forward scan per dictionary, built from the input and then each solved W
        assert len(report) == cfg.max_iters + 1
        assert forward == [min(k, n)] * cfg.max_iters
        row = {token: i for i, token in enumerate(task.src.vocab.tokens)}
        assert len(solved_on) == cfg.max_iters
        assert all(row[s] < k for seeds in solved_on for s, _ in seeds)

    @pytest.mark.parametrize("mode", ["intersection", "union"])
    def test_each_w_is_scanned_once(self, monkeypatch, mode):
        cfg = RefineConfig(topk=100, threshold=0.6, mode=mode, max_iters=3,
                           patience=3, selection_topk=300)
        _, w2, report, scanned, solved, criterion_calls = record_refine(monkeypatch, cfg)
        assert len(report) == len(solved) + 1 >= 3
        # the input, then each solved W but the last, each once
        assert [w.tobytes() for w in scanned] == [w.tobytes() for w in [w2.w, *solved[:-1]]]
        # the criterion scores the baseline, the input's polar factor, then each solved W
        scored = [np.asarray(args[0]) for args in criterion_calls]
        assert [w.tobytes() for w in scored] == [
            w.tobytes() for w in [nearest_orthogonal(w2.w), *solved]]

    def test_union_loop_ending_on_patience_scans_no_w_after_its_last_solve(self, monkeypatch):
        cfg = RefineConfig(topk=300, threshold=0.8, mode="union", max_iters=5,
                           patience=1, selection_topk=300)
        _, w2, report, scanned, solved, _ = record_refine(monkeypatch, cfg)
        # the loop ended on patience: its last solved W did not beat the best
        assert len(report) - 1 == len(solved) < cfg.max_iters
        assert report[-1].criterion <= max(step.criterion for step in report[:-1])
        assert len(scanned) == len(solved)

    def test_report_row_0_is_the_baseline(self, monkeypatch):
        cfg = RefineConfig(topk=100, threshold=0.6, mode="intersection", max_iters=3,
                           patience=3, selection_topk=300)
        task, w2, report, _, _, _ = record_refine(monkeypatch, cfg)
        baseline = selection_criterion(nearest_orthogonal(w2.w), task.src, task.tgt, 300)
        assert report[0].criterion == baseline
        assert report[0].criterion != selection_criterion(w2.w, task.src, task.tgt, 300)

    @pytest.mark.parametrize("mode", ["intersection", "union"])
    @pytest.mark.parametrize("k", [100, 1000])
    def test_each_report_row_is_the_criterion_of_its_w(self, monkeypatch, mode, k):
        cfg = RefineConfig(topk=k, threshold=0.6, mode=mode, max_iters=3,
                           patience=3, selection_topk=300)
        task, w2, report, _, solved, _ = record_refine(monkeypatch, cfg)
        assert len(report) == len(solved) + 1 >= 3
        for step, w in zip(report, [nearest_orthogonal(w2.w), *solved]):
            assert step.criterion == selection_criterion(w, task.src, task.tgt, 300)

    def test_refine_calls_public_heuristics_each_iteration(self, monkeypatch):
        from apimap import refinement

        task = make_paired_task(n=300, dim=12, noise=0.02, n_seeds=40, n_truth=50, seed=4)
        w2 = MappingMatrix(
            task.rotation + 0.05 * np.random.default_rng(1).normal(size=(12, 12)),
            "adversarial",
            orthogonal=False,
        )
        cfg = RefineConfig(topk=100, threshold=0.7, mode="union", max_iters=4,
                           patience=4, selection_topk=300)
        calls = {"candidates_topk_frequency": 0, "candidates_cosine_threshold": 0}
        for name in calls:
            real = getattr(refinement, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(refinement, name, counting)
        report = []
        refine(w2, task.src, task.tgt, cfg, report)
        iterations = len(report) - 1
        assert iterations >= 2
        assert calls == {name: iterations for name in calls}

    def test_empty_candidates_warns_and_returns_baseline(self, caplog):
        rng = np.random.default_rng(5)
        src = space_from(rng.normal(size=(50, 10)), prefix="s")
        tgt = space_from(rng.normal(size=(50, 10)), prefix="t")
        w2 = MappingMatrix(random_orthogonal(10, rng), "adversarial")
        cfg = RefineConfig(topk=20, threshold=0.995, mode="intersection",
                           max_iters=3, selection_topk=20)
        with caplog.at_level(logging.WARNING):
            out = refine(w2, src, tgt, cfg)
        assert "empty candidate set" in caplog.text
        assert out.orthogonal
        assert np.linalg.norm(out.w.T @ out.w - np.eye(10)) < ORTHOGONALITY_TOL

    def test_gain_concentrates_on_frequent_tokens(self):
        # noise grows with frequency rank; refinement anchors on frequent tokens
        from apimap.adversarial import train_adversarial
        from apimap.seeding import seed_matrices, solve_procrustes
        from conftest import adv_config

        gains_top, gains_bottom = [], []
        for seed in range(3):
            task = make_paired_task(seed=seed, noise=0.08, rank_noise=6.0)
            order = np.argsort(task.truth_idx[:, 0])
            sorted_truth = task.truth_idx[order]
            decile = len(sorted_truth) // 10
            top_slice, bottom_slice = sorted_truth[:decile], sorted_truth[-decile:]
            x_s, y_s = seed_matrices(task.seeds, task.src, task.tgt)
            w1 = solve_procrustes(x_s, y_s)
            w2 = train_adversarial(w1, task.src, task.tgt, adv_config(seed + 100))
            w3 = refine(w2, task.src, task.tgt, refine_config())
            gains_top.append(
                oracle_top1(w3, task.src, task.tgt, top_slice)
                - oracle_top1(w2, task.src, task.tgt, top_slice)
            )
            gains_bottom.append(
                oracle_top1(w3, task.src, task.tgt, bottom_slice)
                - oracle_top1(w2, task.src, task.tgt, bottom_slice)
            )
        assert np.median(gains_top) >= np.median(gains_bottom)


class TestRefineReport:
    def test_refine_fills_report(self):
        task = make_paired_task(n=400, dim=10, n_seeds=30, n_truth=40, seed=6)
        w2 = MappingMatrix(task.rotation, "adversarial", orthogonal=True)
        report = []
        refine(w2, task.src, task.tgt,
               RefineConfig(topk=100, selection_topk=100, max_iters=3), report)
        assert report[0].iteration == 0
        assert all(s.candidates > 0 for s in report[1:])
