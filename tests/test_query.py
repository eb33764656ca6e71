"""Tests for exact nearest-neighbor queries over aligned spaces."""

import tracemalloc

import numpy as np
import pytest

from apimap import similarity
from apimap.corpus import Vocabulary
from apimap.embedding import EmbeddingSpace
from apimap.query import QueryResult, batch_query
from apimap.seeding import MappingMatrix, random_orthogonal

from helpers import brute_force_neighbors, space_from


def query_vector(v, tgt, k, threshold=None):
    """``batch_query`` of one vector: W = I over a source space whose one row is v."""
    v = np.asarray(v, dtype=float)
    src = EmbeddingSpace(v[None, :], Vocabulary(["q"], [1]))
    w = MappingMatrix(np.eye(len(v)), "seeded", orthogonal=True)
    return batch_query(["q"], w, src, tgt, k, threshold)[0]


class TestNearestNeighbors:
    """One vector queried alone through ``batch_query``."""

    def test_existing_vector_is_its_own_neighbor(self):
        rng = np.random.default_rng(1)
        space = space_from(rng.normal(size=(20, 6)))
        result = query_vector(space.vectors[7], space, k=1)
        assert result.neighbors[0][0] == "t0007"
        assert result.neighbors[0][1] == pytest.approx(1.0)

    def test_three_token_hand_order(self):
        space = space_from([[1.0, 0.0], [0.7, 0.7], [0.0, 1.0]])
        result = query_vector(np.array([1.0, 0.1]), space, k=3)
        assert result.tokens == ["t0000", "t0001", "t0002"]

    def test_matches_brute_force_on_randomized_spaces(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(5, 400))
            d = int(rng.integers(2, 30))
            space = space_from(rng.normal(size=(n, d)))
            v = rng.normal(size=d)
            k = int(rng.integers(1, n + 1))
            result = query_vector(v, space, k=k)
            oracle = brute_force_neighbors(v, space.vectors, k)
            assert result.tokens == [space.vocab.tokens[i] for i, _ in oracle]
            for (_, got), (_, want) in zip(result.neighbors, oracle):
                assert got == pytest.approx(want, abs=1e-12)

    def test_threshold_filters_and_may_empty(self):
        space = space_from([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([1.0, 0.05])
        kept = query_vector(v, space, k=2, threshold=0.9)
        assert kept.tokens == ["t0000"]
        none = query_vector(v, space, k=2, threshold=0.9999)
        assert none.tokens == []

    def test_zero_vector_rejected(self):
        space = space_from([[1.0, 0.0]])
        src = space_from([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], prefix="s")
        w = MappingMatrix(np.eye(2), "seeded", orthogonal=True)
        with pytest.raises(ValueError, match="undefined cosine for zero query vector of 's0002'$"):
            batch_query(["s0000", "s0002", "s0001"], w, src, space, k=1)

    def test_ties_break_by_vocabulary_index(self):
        space = space_from([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        result = query_vector(np.array([2.0, 0.0]), space, k=4)
        assert result.tokens == ["t0001", "t0002", "t0003", "t0000"]

    def test_differences_below_float32_resolution_ranked_exactly(self):
        # float32 rounds all six similarities to the same value; the float64
        # order puts the highest index first
        space = space_from([[1.0, j * 1e-9] for j in range(6)])
        v = np.array([0.5, 1.0])
        oracle = brute_force_neighbors(v, space.vectors, 3)
        assert [i for i, _ in oracle] == [5, 4, 3]
        result = query_vector(v, space, k=3)
        assert result.tokens == ["t0005", "t0004", "t0003"]
        for (_, got), (_, want) in zip(result.neighbors, oracle):
            assert got == pytest.approx(want, abs=1e-15)

    def test_k_beyond_vocabulary_returns_every_target(self):
        rng = np.random.default_rng(5)
        space = space_from(rng.normal(size=(30, 4)))
        v = rng.normal(size=4)
        result = query_vector(v, space, k=45)
        oracle = brute_force_neighbors(v, space.vectors, 30)
        assert result.tokens == [space.vocab.tokens[i] for i, _ in oracle]
        idx, sims = similarity.topk(space.vectors[:3], space.vectors, 30)
        assert idx.shape == sims.shape == (3, 30)
        assert [sorted(row) for row in idx.tolist()] == [list(range(30))] * 3

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        space = space_from(rng.normal(size=(150, 12)))
        v = rng.normal(size=12)
        base = query_vector(v, space, k=20)
        for c in (1e-6, 0.5, 3.0, 1e7):
            scaled = query_vector(c * v, space, k=20)
            assert scaled.tokens == base.tokens
            for (_, a), (_, b) in zip(base.neighbors, scaled.neighbors):
                assert a == pytest.approx(b, abs=1e-12)


class TestBatchQuery:
    def test_empty_list(self):
        space = space_from([[1.0, 0.0]])
        assert batch_query([], MappingMatrix(np.eye(2), "seeded"), space, space, 3) == []

    def test_oov_marker(self):
        space = space_from([[1.0, 0.0]])
        results = batch_query(
            ["missing"], MappingMatrix(np.eye(2), "seeded"), space, space, 3
        )
        assert len(results) == 1
        assert results[0].oov and results[0].neighbors == ()

    def test_maps_by_w_times_x(self):
        # a non-symmetric rotation: W x and W^T x land on opposite targets
        src = space_from([[1.0, 0.0]], prefix="s")
        tgt = space_from([[0.0, 1.0], [0.0, -1.0]])
        w = MappingMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]), "seeded", orthogonal=True)
        result = batch_query(["s0000"], w, src, tgt, 2)[0]
        assert result.tokens == ["t0000", "t0001"]
        assert result.neighbors[0][1] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        src = space_from(np.eye(4), prefix="s")
        with pytest.raises(ValueError, match="dimension mismatch"):
            batch_query(["s0000"], MappingMatrix(np.eye(3), "seeded"), src, src, 1)

    def test_target_dimension_mismatch(self):
        src = space_from(np.eye(4), prefix="s")
        tgt = space_from(np.eye(3))
        w = MappingMatrix(np.eye(4), "seeded", orthogonal=True)
        with pytest.raises(
            ValueError, match=r"^dimension mismatch: W is \(4, 4\), source 4, target 3$"
        ):
            batch_query(["s0000"], w, src, tgt, 1)

    def test_empty_space_rejected(self):
        space, empty = space_from(np.eye(2), prefix="s"), space_from(np.empty((0, 2)))
        w = MappingMatrix(np.eye(2), "seeded", orthogonal=True)
        for src, tgt, side in [(space, empty, "target"), (empty, space, "source")]:
            with pytest.raises(ValueError, match=f"^{side} embedding space is empty$"):
                batch_query(["s0000"], w, src, tgt, 1)

    @pytest.mark.parametrize("threshold", [float("nan"), 1.5, -0.1])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        space = space_from([[1.0, 0.0]])
        w = MappingMatrix(np.eye(2), "seeded", orthogonal=True)
        with pytest.raises(ValueError, match=rf"^threshold {threshold} outside \[0, 1\)$"):
            batch_query(["t0000"], w, space, space, 1, threshold)

    def test_matches_individual_queries(self):
        rng = np.random.default_rng(4)
        src = space_from(rng.normal(size=(100, 9)), prefix="s")
        tgt = space_from(rng.normal(size=(120, 9)))
        w = MappingMatrix(random_orthogonal(9, rng), "seeded", orthogonal=True)
        tokens = [f"s{i:04d}" for i in rng.integers(0, 100, size=100)]
        batched = batch_query(tokens, w, src, tgt, k=5)
        for token, result in zip(tokens, batched):
            single = query_vector(w.w @ src.vector(token), tgt, 5)
            assert result.neighbors == single.neighbors
            assert result.query_token == token

    def test_tie_groups_across_tile_boundaries_and_kth_rank(self, monkeypatch):
        # four identical targets (1, 3, 5, 6) lead every ranking of the first
        # source direction, so the k-th rank cuts through the tie group
        tgt = space_from([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                          [1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                          [1.0, 1.0, 0.0]])
        src = space_from([[1.0, 0.9, 0.0]] * 5 + [[0.0, 0.2, 1.0]] * 2, prefix="s")
        w = MappingMatrix(np.eye(3), "seeded", orthogonal=True)
        tokens = [f"s{i:04d}" for i in range(7)]
        # two query rows per float32 tile: tiles split both groups of
        # identical queries
        monkeypatch.setattr(similarity, "TILE_BYTES", 2 * 4 * len(tgt))
        for k in (1, 2, 3, 4, 5, 7, 9):
            batched = batch_query(tokens, w, src, tgt, k)
            for token, result in zip(tokens, batched):
                oracle = brute_force_neighbors(src.vector(token), tgt.vectors, k)
                assert result.tokens == [tgt.vocab.tokens[i] for i, _ in oracle]
                single = query_vector(src.vector(token), tgt, k)
                assert result.neighbors == single.neighbors
        assert batch_query(tokens[:1], w, src, tgt, 3)[0].tokens == [
            "t0001", "t0003", "t0005"]

    def test_matches_individual_queries_over_several_tiles(self):
        # the module's own tile size; the query count is not a multiple of it
        n_tgt = 2000
        rows = similarity.TILE_BYTES // (4 * n_tgt)
        n_src = 2 * rows + 7
        rng = np.random.default_rng(8)
        src = space_from(rng.normal(size=(n_src, 6)), prefix="s")
        tgt = space_from(rng.normal(size=(n_tgt, 6)))
        w = MappingMatrix(random_orthogonal(6, rng), "seeded", orthogonal=True)
        tokens = list(src.vocab.tokens)
        for k in (1, 7):
            batched = batch_query(tokens, w, src, tgt, k)
            for token, result in zip(tokens, batched):
                single = query_vector(w.w @ src.vector(token), tgt, k)
                assert result.neighbors == single.neighbors


def kernel_oracle(queries, targets, k):
    """float64 similarity of every pair, one dot product each, ordered by
    (-similarity, target index)."""
    out = []
    for q in queries:
        sims = [float(t @ q) for t in targets]
        order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k]
        out.append((order, [sims[i] for i in order]))
    return out


class TestTopkKernel:
    """``similarity.topk`` itself, against a brute force and a memory bound."""

    @staticmethod
    def tie_heavy_inputs():
        rng = np.random.default_rng(12)
        d = 32
        e = np.eye(d)
        # rows 3 and 12-14 are equal; rows 15-17 differ below float32
        # resolution; rows 18-37 differ by about the float32 error of a
        # d-term sum, so float32 alone ranks them wrongly
        tgt = rng.normal(size=(12, d))
        center = rng.normal(size=d)
        tgt = np.vstack([tgt, tgt[[3, 3, 3]], [e[0] + j * 1e-9 * e[1] for j in range(3)],
                         center + 1e-7 * np.linalg.norm(center) * rng.normal(size=(20, d))])
        queries = np.vstack([tgt[3], e[0] + 1e-3 * e[1], np.zeros(d), rng.normal(size=(5, d)),
                             center + 0.3 * rng.normal(size=(6, d)), tgt[3]])
        return queries, tgt

    @pytest.mark.parametrize("tile_rows", [1, 2, 7, None])
    def test_matches_brute_force_on_ties_and_tiny_differences(self, monkeypatch, tile_rows):
        queries, tgt = self.tie_heavy_inputs()
        n_t = len(tgt)
        if tile_rows is not None:
            monkeypatch.setattr(similarity, "TILE_BYTES", tile_rows * 4 * n_t)
        oracle = kernel_oracle(similarity.unit_rows(queries), similarity.unit_rows(tgt), n_t)
        # the sub-float32 rows lead the second query, highest index first
        assert oracle[1][0][:3] == [17, 16, 15]
        for k in (1, 2, 3, n_t, n_t + 2):
            idx, sims = similarity.topk(queries, tgt, k)
            assert idx.shape == sims.shape == (len(queries), min(k, n_t))
            for row, (want_idx, want_sims) in enumerate(oracle):
                assert idx[row].tolist() == want_idx[:k]
                assert sims[row] == pytest.approx(want_sims[:k], abs=1e-12)

    def test_peak_memory_within_two_tiles(self):
        rng = np.random.default_rng(13)
        n_q, n_t, d = 600, 10_000, 64
        assert n_q > 3 * similarity.TILE_BYTES // (4 * n_t)  # several tiles
        queries = rng.normal(size=(n_q, d))
        tgt = rng.normal(size=(n_t, d))
        for k in (1, 10):
            tracemalloc.start()
            try:
                similarity.topk(queries, tgt, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # beyond the float32 copy of the targets and the outputs: about
            # 1.25 tiles; an argpartition of the whole tile reads about 5
            fixed = 4 * n_t * d + 16 * n_q * k
            assert peak - fixed < 2 * similarity.TILE_BYTES

    @pytest.mark.parametrize("k", [1, 5])
    def test_power_of_two_row_scales_change_no_bit(self, k):
        # a row times 2**e has the same unit row to the last bit, so the raw
        # rows a caller passes may carry any such scale
        rng = np.random.default_rng(14)
        queries, tgt = rng.normal(size=(40, 16)), rng.normal(size=(300, 16))
        idx, sims = similarity.topk(queries, tgt, k)
        scaled_q = queries * 2.0 ** rng.integers(-40, 41, size=(40, 1))
        scaled_t = tgt * 2.0 ** rng.integers(-40, 41, size=(300, 1))
        for q, t in ((scaled_q, tgt), (queries, scaled_t), (scaled_q, scaled_t)):
            got_idx, got_sims = similarity.topk(q, t, k)
            assert np.array_equal(got_idx, idx)
            assert got_sims.tobytes() == sims.tobytes()

    def test_zero_target_row_scores_exactly_zero(self):
        rng = np.random.default_rng(15)
        tgt = rng.normal(size=(20, 8))
        tgt[[4, 11]] = 0.0
        idx, sims = similarity.topk(rng.normal(size=(6, 8)), tgt, 20)
        for row_idx, row_sims in zip(idx, sims):
            zero = np.isin(row_idx, [4, 11])
            assert row_sims[zero].tolist() == [0.0, 0.0]
            # two zero scores tie, so the lower index comes first
            assert row_idx[zero].tolist() == [4, 11]

    @pytest.mark.parametrize("tile_rows", [1, 3, None])
    def test_batch_equals_its_raw_queries_one_at_a_time(self, monkeypatch, tile_rows):
        rng = np.random.default_rng(16)
        queries = rng.normal(size=(25, 12)) * rng.uniform(0.01, 100.0, size=(25, 1))
        tgt = rng.normal(size=(400, 12)) * rng.uniform(0.01, 100.0, size=(400, 1))
        if tile_rows is not None:
            monkeypatch.setattr(similarity, "TILE_BYTES", tile_rows * 4 * len(tgt))
        idx, sims = similarity.topk(queries, tgt, 7)
        for i in range(len(queries)):
            one_idx, one_sims = similarity.topk(queries[i:i + 1], tgt, 7)
            assert np.array_equal(one_idx[0], idx[i])
            assert one_sims[0].tobytes() == sims[i].tobytes()

    def test_first_batch_query_holds_no_float64_copy_of_the_targets(self):
        # the targets outweigh a tile, so a unit copy of them would show
        n, d = 20_000, 100
        rng = np.random.default_rng(17)
        tgt = space_from(rng.normal(size=(n, d)))
        src = space_from(rng.normal(size=(50, d)), prefix="s")
        assert tgt.vectors.nbytes > 2 * similarity.TILE_BYTES
        w = MappingMatrix(random_orthogonal(d, rng), "seeded", orthogonal=True)
        tracemalloc.start()
        try:
            results = batch_query(list(src.vocab.tokens), w, src, tgt, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == 50
        assert peak < tgt.vectors.nbytes


class TestQueryResult:
    def test_rejects_increasing_similarities(self):
        with pytest.raises(ValueError):
            QueryResult("q", (("a", 0.5), ("b", 0.9)))

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError):
            QueryResult("q", (("a", 0.9), ("a", 0.5)))
