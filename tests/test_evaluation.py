"""Tests for accuracy, precision/recall/F, coverage tables, and the ablation grid."""

import numpy as np
import pytest

from apimap import evaluation
from apimap.adversarial import AdvConfig, selection_criterion, train_adversarial
from apimap.errors import FormatError
from apimap.evaluation import (
    GroundTruth,
    coverage_accuracy_table,
    coverage_rows,
    f_score,
    load_ground_truth,
    parse_stages,
    precision_recall_f,
    run_ablation,
    run_stages,
    topk_accuracy,
)
from apimap.query import QueryResult, batch_query
from apimap.refinement import RefineConfig, refine
from apimap.seeding import MappingMatrix, SeedDictionary, seed_matrices, solve_procrustes

from helpers import make_paired_task, space_from


def result(token, *targets):
    sims = [(t, 1.0 - 0.01 * i) for i, t in enumerate(targets)]
    return QueryResult(token, tuple(sims))


class TestTopkAccuracy:
    TRUTH = GroundTruth((("a", "A"), ("b", "B"), ("c", "C"), ("d", "D")))

    def test_hand_counted_ranks(self):
        # expected targets sit at ranks 1, 7, 2, and absent; hits at k=5: a and c
        results = [
            result("a", "A", *(f"x{i}" for i in range(9))),
            result("b", *(f"y{i}" for i in range(6)), "B", "y7"),
            result("c", "z0", "C", *(f"z{i}" for i in range(1, 8))),
            result("d", *(f"w{i}" for i in range(10))),
        ]
        assert topk_accuracy(results, self.TRUTH, k=5) == 0.5

    def test_full_vocabulary_recall(self):
        results = [result(s, *("pad%d" % i for i in range(3)), t)
                   for s, t in self.TRUTH.pairs]
        assert topk_accuracy(results, self.TRUTH, k=4) == 1.0

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(0)
        pool = [f"g{i}" for i in range(30)]
        results = []
        truth_pairs = []
        for qi in range(12):
            ranked = list(rng.permutation(pool))[:10]
            results.append(result(f"q{qi}", *ranked))
            truth_pairs.append((f"q{qi}", pool[int(rng.integers(0, 30))]))
        truth = GroundTruth(tuple(truth_pairs))
        accs = [topk_accuracy(results, truth, k) for k in range(1, 11)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))

    def test_oov_counts_as_miss(self):
        results = [
            result("a", "A"),
            QueryResult("b", (), oov=True),
            result("c", "C"),
            result("d", "D"),
        ]
        assert topk_accuracy(results, self.TRUTH, k=1) == 0.75

    def test_unqueried_source_rejected(self):
        with pytest.raises(ValueError, match="not queried"):
            topk_accuracy([result("a", "A")], self.TRUTH, k=1)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="empty ground truth"):
            topk_accuracy([], GroundTruth(()), k=1)

    def test_multi_target_hit_on_any(self):
        truth = GroundTruth((("a", "A1"), ("a", "A2")), multi_target=True)
        assert topk_accuracy([result("a", "A2")], truth, k=1) == 1.0


class TestPrecisionRecallF:
    def test_reference_f_score_arithmetic(self):
        assert f_score(0.840, 0.813) == pytest.approx(0.826, abs=1e-3)

    def test_all_correct_and_complete(self):
        truth = GroundTruth((("a", "A"), ("b", "B")))
        results = [result("a", "A"), result("b", "B")]
        assert precision_recall_f(results, truth) == (1.0, 1.0, 1.0)

    def test_hand_counts(self):
        # TP=2 (a, b), FP=1 (c emitted wrong), FN=3 (c, d, e unmatched)
        truth = GroundTruth(
            (("a", "A"), ("b", "B"), ("c", "C"), ("d", "D"), ("e", "E"))
        )
        results = [
            result("a", "A"),
            result("b", "B"),
            result("c", "WRONG"),
            QueryResult("d", ()),
            QueryResult("e", (), oov=True),
        ]
        p, r, f = precision_recall_f(results, truth)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(0.4)
        assert f == pytest.approx(0.5)

    def test_f_consistent_with_p_and_r(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, r = rng.random(), rng.random()
            f = f_score(p, r)
            if p + r > 0:
                assert abs(f - 2 * p * r / (p + r)) < 1e-12
        assert f_score(0.0, 0.0) == 0.0

    def test_returned_f_recomputable(self):
        truth = GroundTruth((("a", "A"), ("b", "B"), ("c", "C")))
        results = [result("a", "A"), result("b", "X"), result("c", "C")]
        p, r, f = precision_recall_f(results, truth)
        assert abs(f - f_score(p, r)) < 1e-12


class TestCoverageAccuracyTable:
    def cluster_space(self):
        # sources 0-2 match their targets exactly; sources 3-5 sit at cosine
        # 0.4 from their best target, below the 0.5 threshold used in tests
        eye = np.eye(6)
        far = 0.4 * eye[:3] + np.sqrt(1 - 0.16) * eye[3:]
        src = space_from(np.vstack([eye[:3], far]), tokens=[f"s{i}" for i in range(6)])
        tgt = space_from(eye[:3], tokens=[f"t{i}" for i in range(3)])
        truth = GroundTruth(tuple((f"s{i}", f"t{i % 3}") for i in range(6)))
        return src, tgt, truth

    def test_threshold_below_all_similarities(self):
        src, tgt, truth = self.cluster_space()
        w = MappingMatrix(np.eye(6), "seeded", orthogonal=True)
        rows = coverage_accuracy_table(w, src, tgt, truth, thresholds=[0.0], k_list=(1,))
        assert rows[0].coverage == 1.0
        unfiltered = topk_accuracy(
            batch_query(truth.sources(), w, src, tgt, 1), truth, 1
        )
        assert rows[0].accuracy_covered == unfiltered

    def test_half_covered_all_correct(self):
        src, tgt, truth = self.cluster_space()
        w = MappingMatrix(np.eye(6), "seeded", orthogonal=True)
        rows = coverage_accuracy_table(w, src, tgt, truth, thresholds=[0.5], k_list=(1,))
        assert rows[0].coverage == 0.5
        assert rows[0].accuracy_covered == 1.0
        assert rows[0].accuracy_overall == 0.5

    def test_coverage_non_increasing_in_threshold(self):
        rng = np.random.default_rng(2)
        src = space_from(rng.normal(size=(40, 10)), tokens=[f"s{i}" for i in range(40)])
        tgt = space_from(rng.normal(size=(40, 10)), tokens=[f"t{i}" for i in range(40)])
        truth = GroundTruth(tuple((f"s{i}", f"t{i}") for i in range(40)))
        w = MappingMatrix(np.eye(10), "seeded", orthogonal=True)
        taus = [0.0, 0.2, 0.4, 0.6, 0.8]
        rows = coverage_accuracy_table(w, src, tgt, truth, taus, k_list=(1, 5))
        for k in (1, 5):
            series = [r.coverage for r in rows if r.k == k]
            assert all(a >= b for a, b in zip(series, series[1:]))

    def test_threshold_validation(self):
        src, tgt, truth = self.cluster_space()
        w = MappingMatrix(np.eye(6), "seeded")
        with pytest.raises(ValueError, match=r"^threshold 1.0 outside \[0, 1\)$"):
            coverage_accuracy_table(w, src, tgt, truth, thresholds=[1.0], k_list=(1,))

    def test_unqueried_truth_source_rejected(self):
        _, _, truth = self.cluster_space()
        with pytest.raises(ValueError, match="not queried"):
            coverage_rows([], truth, [0.5], (1,))


class TestRunAblation:
    def test_seeding_only_equals_direct_procrustes(self):
        task = make_paired_task(n=300, dim=10, n_seeds=20, n_truth=30, seed=7)
        reports = run_ablation(task.src, task.tgt, task.seeds, task.truth, ["S"],
                               AdvConfig(), RefineConfig(), (1, 5), 0)
        x_s, y_s = seed_matrices(task.seeds, task.src, task.tgt)
        direct = solve_procrustes(x_s, y_s)
        queried = batch_query(task.truth.sources(), direct, task.src, task.tgt, 5)
        assert reports["S"][1] == topk_accuracy(queried, task.truth, 1)
        assert reports["S"][5] == topk_accuracy(queried, task.truth, 5)

    def test_bad_combo_rejected(self):
        task = make_paired_task(n=100, dim=6, n_seeds=5, n_truth=10, seed=8)
        # unknown, out-of-order, repeated and empty stage lists
        for combo in ("S+X", "A+S", "S+S", ""):
            with pytest.raises(FormatError, match="bad stage list"):
                run_ablation(task.src, task.tgt, task.seeds, task.truth, [combo],
                             AdvConfig(), RefineConfig(), (1,), 0)

    @pytest.mark.parametrize(
        "spec, name", [("s,a,r", "S+A+R"), (" a + r ", "A+R"), ("S+R", "S+R")]
    )
    def test_stage_grammar_accepted_forms(self, spec, name):
        assert parse_stages(spec) == name

    def test_grid_orderings_on_synthetic_task(self, sar_runs):
        top_s = np.median([r["top1_s"] for r in sar_runs["runs"]])
        top_sa = np.median([r["top1_sa"] for r in sar_runs["runs"]])
        top_sar = np.median([r["top1_sar"] for r in sar_runs["runs"]])
        assert top_sar >= top_sa >= top_s

    def test_refine_from_random_near_useless(self, sar_runs):
        assert np.median([r["top1_r_only"] for r in sar_runs["runs"]]) < 0.05

    def test_item_that_starts_a_longer_one_reuses_its_run(self, monkeypatch):
        task, adv, ref = small_chain(n_seeds=20)
        data = (task.src, task.tgt, task.seeds, task.truth)
        grid = ["S", "S+A", "S+A+R", "S+R"]
        alone = {name: run_ablation(*data, [name], adv, ref, (1, 5), 0)[name] for name in grid}
        calls = []

        def counted(*args):
            calls.append(args)
            return train_adversarial(*args)

        monkeypatch.setattr(evaluation, "train_adversarial", counted)
        reports = run_ablation(*data, ["s", "S+A", "s,a,r", "S+R"], adv, ref, (1, 5), 0)
        assert len(calls) == 1
        assert list(reports) == grid
        assert reports == alone


def small_chain(n_seeds):
    """A 300 x 10 task and small A and R configs that run in well under a second."""
    task = make_paired_task(n=300, dim=10, n_seeds=n_seeds, n_truth=30, seed=7)
    adv = AdvConfig(epochs=3, hidden_dim=16, steps_per_epoch=10, selection_topk=100,
                    rng_seed=1)
    return task, adv, RefineConfig(topk=100, selection_topk=100)


class TestRunStages:
    # with 3 seeds some epoch beats S's W; with 60, S is near exact and none does
    @pytest.mark.parametrize("n_seeds, improved", [(3, True), (60, False)])
    def test_record_holds_the_stages_run_by_hand(self, n_seeds, improved):
        task, adv, ref = small_chain(n_seeds)
        seeds = SeedDictionary(task.seeds.pairs + (("no.such", "pair.here"),))
        run = run_stages("s,a,r", task.src, task.tgt, seeds, adv, ref, 0)
        w_s = solve_procrustes(*seed_matrices(task.seeds, task.src, task.tgt))
        w_a = train_adversarial(w_s, task.src, task.tgt, adv)
        w_r = refine(w_a, task.src, task.tgt, ref)
        assert list(run.outputs) == ["S", "A", "R"] and run.w is run.outputs["R"]
        for stage, w in zip("SAR", (w_s, w_a, w_r)):
            assert run.outputs[stage].w.tobytes() == w.w.tobytes()
        assert run.usable_seeds == n_seeds
        assert [h.epoch for h in run.epochs] == [1, 2, 3] and run.iterations[0].iteration == 0
        for h in run.epochs:
            assert h.criterion == selection_criterion(h.w, task.src, task.tgt, 100)
        best = max(run.epochs, key=lambda h: h.criterion)
        assert (best.criterion > selection_criterion(w_s, task.src, task.tgt, 100)) == improved
        assert w_a.w.tobytes() == (best.w if improved else w_s.w).tobytes()


class TestEvaluationHygiene:
    def test_subset_accuracy_consistent_with_set_semantics(self):
        # removing seed-overlapping queries changes hits and denominator exactly
        task = make_paired_task(n=400, dim=12, n_seeds=60, n_truth=60, seed=9)
        # evaluate on seeds + truth so the overlap is non-trivial and trained-on
        all_pairs = task.seeds.pairs + task.truth.pairs
        full = GroundTruth(all_pairs)
        x_s, y_s = seed_matrices(task.seeds, task.src, task.tgt)
        w = solve_procrustes(x_s, y_s)
        results = batch_query(full.sources(), w, task.src, task.tgt, 5)
        by_token = {r.query_token: r for r in results}
        seed_sources = {s for s, _ in task.seeds.pairs}
        reduced = GroundTruth(
            tuple((s, t) for s, t in full.pairs if s not in seed_sources)
        )
        acc_full = topk_accuracy(results, full, 1)
        acc_reduced = topk_accuracy(
            [by_token[s] for s in reduced.sources()], reduced, 1
        )
        hits_full = round(acc_full * len(full.sources()))
        overlap_hits = sum(
            1
            for s in seed_sources
            if by_token[s].tokens[:1] == [dict(task.seeds.pairs)[s]]
        )
        expected = (hits_full - overlap_hits) / (len(full.sources()) - len(seed_sources))
        assert acc_reduced == pytest.approx(expected, abs=1e-12)
        # trained-on seed queries are easy hits, so removing them cannot help
        assert acc_reduced <= acc_full


class TestGroundTruth:
    def test_conflicting_targets_need_multi_flag(self):
        with pytest.raises(ValueError, match="multi_target"):
            GroundTruth((("a", "A"), ("a", "B")))
        GroundTruth((("a", "A"), ("a", "B")), multi_target=True)

    def test_duplicate_identical_pair_allowed(self):
        truth = GroundTruth((("a", "A"), ("a", "A")))
        assert truth.sources() == ["a"]

    def test_tsv_loader(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("a\tA\tjava.io\nb\tB\n")
        truth = load_ground_truth(str(path))
        assert truth.pairs == (("a", "A"), ("b", "B"))
        # the third column is accepted and ignored
        assert truth == GroundTruth((("a", "A"), ("b", "B")))

    def test_tsv_loader_bad_line(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("only\n")
        with pytest.raises(FormatError, match=":1"):
            load_ground_truth(str(path))
