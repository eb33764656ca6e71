"""Tests for the skip-gram trainer and embedding-space persistence."""

import re
import warnings

import numpy as np
import pytest

from apimap import embedding
from apimap.corpus import Vocabulary
from apimap.embedding import (
    EmbeddingSpace,
    TrainConfig,
    _group_pairs,
    _scatter_add,
    load_space,
    save_space,
    sgns_loss,
    sgns_step,
    subsample_keep_probs,
    train_skipgram,
)
from apimap.errors import FormatError
from apimap.similarity import TILE_BYTES

from helpers import planted_corpus


class TestTrainConfig:
    def test_defaults_match_reference_settings(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.025
        assert cfg.negatives == 30
        assert cfg.window == 10
        assert cfg.subsample == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"negatives": 0},
            {"window": 0},
            {"subsample": 0.0},
            {"subsample": 1.5},
            {"epochs": 0},
            {"dim": 0},
            {"workers": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTrainSkipgram:
    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train_skipgram([], TrainConfig(dim=4))

    def test_single_token_corpus_raises(self):
        with pytest.raises(ValueError, match="no context pairs"):
            train_skipgram([["solo"]], TrainConfig(dim=4))

    def test_shape_and_finiteness(self):
        corpus = [["a", "b", "c"], ["b", "c", "d"]] * 20
        space = train_skipgram(corpus, TrainConfig(dim=8, epochs=1, negatives=2,
                                                   subsample=1.0, rng_seed=0))
        assert space.vectors.shape == (4, 8)
        assert np.all(np.isfinite(space.vectors))

    def test_planted_cooccurrence_beats_unrelated(self, planted_runs):
        # 'p q' always co-occur, 'p r' never do; won in >= 95 of 100 seeded runs
        wins = sum(1 for m in planted_runs["margins"] if m > 0)
        assert wins >= 95

    def test_single_worker_determinism_bit_exact(self, planted_runs):
        assert planted_runs["deterministic"] is True

    def test_multiworker_produces_valid_space(self):
        corpus = planted_corpus(n_lines=300)
        cfg = TrainConfig(dim=8, epochs=1, negatives=2, window=1, subsample=1.0,
                          workers=3, rng_seed=1)
        space = train_skipgram(corpus, cfg)
        assert np.all(np.isfinite(space.vectors))
        assert len(space) == len(space.vocab)

    def test_each_worker_draws_fresh_randomness_every_epoch(self, monkeypatch):
        # generator state at the start of each (worker, epoch) shard pass
        states: dict[int, list] = {}
        train_shard = embedding._train_shard

        def spy(shard, *args, **kwargs):
            rng = next(a for a in (*args, *kwargs.values())
                       if isinstance(a, np.random.Generator))
            states.setdefault(id(shard[0]), []).append(rng.bit_generator.state)
            return train_shard(shard, *args, **kwargs)

        monkeypatch.setattr(embedding, "_train_shard", spy)
        cfg = TrainConfig(dim=8, epochs=2, negatives=2, window=1, subsample=1.0,
                          workers=2, rng_seed=1)
        train_skipgram(planted_corpus(n_lines=50), cfg)
        assert len(states) == 2
        for epoch1, epoch2 in states.values():
            assert epoch1 != epoch2

    def test_worker_exception_reaches_caller(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("shard failed")

        monkeypatch.setattr(embedding, "_train_shard", broken)
        cfg = TrainConfig(dim=8, epochs=1, negatives=2, window=1, workers=2)
        with pytest.raises(RuntimeError, match="shard failed"):
            train_skipgram(planted_corpus(n_lines=50), cfg)


def line_pairs(spans, window):
    """``_group_pairs`` over a single line."""
    return _group_pairs(spans, np.zeros(len(spans), dtype=np.int64), window)


class TestWindowPairs:
    @staticmethod
    def loop_oracle(spans):
        n = len(spans)
        pairs = []
        for i in range(n):
            for j in range(max(0, i - spans[i]), min(n, i + spans[i] + 1)):
                if j != i:
                    pairs.append((i, j))
        return pairs

    @pytest.mark.parametrize("window", [1, 2, 10])
    def test_matches_per_centre_loop(self, window):
        rng = np.random.default_rng(window)
        for n in (2, 3, window + 1, 40):
            for _ in range(5):
                spans = rng.integers(1, window + 1, size=n)
                i, j = line_pairs(spans, window)
                assert list(zip(i.tolist(), j.tolist())) == self.loop_oracle(spans)


class TestGroupPairs:
    def test_matches_per_line_window_pairs(self):
        rng = np.random.default_rng(3)
        window = 3
        lengths = [1, 2, 5, 4, 1, 9, 3]
        starts = np.cumsum([0] + lengths[:-1])
        line_of = np.repeat(np.arange(len(lengths)), lengths)
        for _ in range(20):
            spans = rng.integers(1, window + 1, size=len(line_of))
            i, j = _group_pairs(spans, line_of, window)
            expected = []
            for start, n in zip(starts, lengths):
                li, lj = line_pairs(spans[start : start + n], window)
                expected += list(zip((li + start).tolist(), (lj + start).tolist()))
            assert list(zip(i.tolist(), j.tolist())) == expected
            assert np.array_equal(line_of[i], line_of[j])
            # the unmasked grid over the same spans does cross lines
            wi, wj = line_pairs(spans, window)
            assert np.any(line_of[wi] != line_of[wj])


class TestScatterAdd:
    @staticmethod
    def both(target, rows, values, scale):
        expected = target.copy()
        np.add.at(expected, rows, scale * values)
        got = target.copy()
        _scatter_add(got, rows, values, scale)
        return expected, got

    def test_equals_add_at_exactly_on_integer_values(self):
        rng = np.random.default_rng(0)
        target = rng.integers(-50, 50, size=(12, 4)).astype(float)
        rows = rng.integers(0, 12, size=60)  # every row repeated about 5 times
        values = rng.integers(-20, 20, size=(60, 4)).astype(float)
        expected, got = self.both(target, rows, values, -0.5)
        np.testing.assert_array_equal(got, expected)

    def test_equals_add_at_on_random_values(self):
        rng = np.random.default_rng(1)
        target = rng.normal(size=(30, 8))
        rows = np.concatenate([rng.integers(0, 30, size=200), [7] * 50])
        values = rng.normal(size=(250, 8))
        expected, got = self.both(target, rows, values, -0.025)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestStepSize:
    @staticmethod
    def count_steps(monkeypatch, lines, cfg):
        calls = []
        sgns = embedding.sgns_step

        def spy(centers, *args):
            calls.append(len(centers))
            return sgns(centers, *args)

        monkeypatch.setattr(embedding, "sgns_step", spy)
        train_skipgram(lines, cfg)
        return calls

    @staticmethod
    def corpus(n_lines):
        rng = np.random.default_rng(4)
        return [[f"t{k}" for k in rng.integers(0, 200, size=12)] for _ in range(n_lines)]

    def test_one_line_per_step_at_cli_width(self, monkeypatch):
        # one 12-token line already holds more pairs than TILE_BYTES allows at d=300
        cfg = TrainConfig(epochs=1, subsample=1.0, rng_seed=2)
        assert (cfg.dim, cfg.negatives, cfg.window) == (300, 30, 10)
        calls = self.count_steps(monkeypatch, self.corpus(20), cfg)
        assert len(calls) == 20

    def test_several_lines_per_step_at_benchmark_width(self, monkeypatch):
        # the embed-corpus benchmark's training settings
        cfg = TrainConfig(dim=32, epochs=2, negatives=3, window=2, learning_rate=0.05,
                          subsample=1e-3, rng_seed=2)
        calls = self.count_steps(monkeypatch, self.corpus(300), cfg)
        assert 2 <= len(calls) <= 2 * 300 // 4
        # a 12-token line has at most 12 * 2 * window pairs
        assert max(calls) > 12 * 2 * cfg.window

    def test_long_line_is_trained_in_bounded_slices(self, monkeypatch):
        # one 1,000-token line holds about 11,000 pairs at the CLI width, a
        # gradient block of over 800 MB if they were trained at once
        cfg = TrainConfig(epochs=1, subsample=1.0, rng_seed=2)
        bound = max(embedding.STEP_PAIRS, TILE_BYTES // (8 * (cfg.negatives + 1) * cfg.dim))
        calls = []
        sgns = embedding.sgns_step

        def spy(centers, *args):
            # checked before the gradient is computed, so an unbounded call fails early
            assert len(centers) <= bound
            calls.append(len(centers))
            return sgns(centers, *args)

        monkeypatch.setattr(embedding, "sgns_step", spy)
        rng = np.random.default_rng(5)
        train_skipgram([[f"t{k}" for k in rng.integers(0, 200, size=1000)]], cfg)
        assert len(calls) > 1
        # every token has a context on each side within any span but the line's ends
        assert sum(calls) >= 2 * 1000 - 2


class TestSgnsGradient:
    def test_matches_central_finite_differences(self):
        # a batch of 3 steps, one positive and 5 negatives each, one of them
        # zero-weighted as the trainer does for a negative equal to its context
        rng = np.random.default_rng(5)
        eps = 1e-5
        v = rng.normal(size=(3, 10)) * 0.5
        u = rng.normal(size=(3, 6, 10)) * 0.5
        weights = np.ones((3, 6))
        weights[1, 4] = 0.0
        grad_v, grad_u = sgns_step(v, u, weights)
        assert grad_v.shape == v.shape and grad_u.shape == u.shape
        for x, grad in ((v, grad_v), (u, grad_u)):
            for idx in np.ndindex(x.shape):
                saved = x[idx]
                x[idx] = saved + eps
                up = sgns_loss(v, u, weights)
                x[idx] = saved - eps
                down = sgns_loss(v, u, weights)
                x[idx] = saved
                fd = (up - down) / (2 * eps)
                assert abs(fd - grad[idx]) <= 1e-4 * max(abs(fd), abs(grad[idx]), 1e-8)
        np.testing.assert_array_equal(grad_u[1, 4], 0.0)


class TestSubsampling:
    def test_rare_tokens_always_kept(self):
        # one huge head token, many rare ones inside the keep-probability-1 region
        counts = np.array([1_000_000] + [10] * 50, dtype=float)
        keep = subsample_keep_probs(counts, subsample=1e-4)
        assert keep[0] < 1.0
        assert np.all(keep[1:] == 1.0)

    def test_keep_probability_formula(self):
        counts = np.array([300.0, 100.0, 600.0])
        t = 1e-2
        keep = subsample_keep_probs(counts, t)
        ratio = counts / counts.sum()
        expected = np.minimum(np.sqrt(t / ratio) + t / ratio, 1.0)
        np.testing.assert_allclose(keep, expected)


class TestSpaceIO:
    def test_small_space_header_and_rows(self, tmp_path):
        space = EmbeddingSpace(
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            Vocabulary(["alpha", "beta"], [3, 2]),
        )
        path = tmp_path / "space.txt"
        save_space(space, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "2 3"
        assert len(lines) == 3
        assert lines[1].startswith("alpha ")

    def test_roundtrip_random_space(self, tmp_path):
        rng = np.random.default_rng(7)
        space = EmbeddingSpace(
            rng.uniform(-1, 1, size=(100, 50)),
            Vocabulary([f"t{i:03d}" for i in range(100)], range(200, 100, -1)),
        )
        path = tmp_path / "space.txt"
        save_space(space, str(path))
        loaded = load_space(str(path))
        assert np.abs(loaded.vectors - space.vectors).max() < 1e-5
        assert loaded.vocab.tokens == space.vocab.tokens
        assert loaded.vocab.counts == space.vocab.counts

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a header\n")
        with pytest.raises(FormatError, match="malformed header"):
            load_space(str(path))

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        rows = "\n".join(f"tok{i} " + " ".join(["0.1"] * 300) for i in range(4))
        path.write_text("5 300\n" + rows + "\n")
        with pytest.raises(FormatError, match="row count mismatch"):
            load_space(str(path))

    def test_dimension_mismatch_in_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 3\ntok 0.1 0.2\n")
        with pytest.raises(FormatError, match="dimension mismatch"):
            load_space(str(path))

    def test_missing_sidecar_defaults_counts(self, tmp_path):
        path = tmp_path / "space.txt"
        path.write_text("2 2\na 0.1 0.2\nb 0.3 0.4\n")
        loaded = load_space(str(path))
        assert loaded.vocab.counts == [1, 1]

    def test_sidecar_out_of_frequency_order_rejected(self, tmp_path):
        path = tmp_path / "space.txt"
        path.write_text("3 2\na 0.1 0.2\nb 0.3 0.4\nc 0.5 0.6\n")
        (tmp_path / "space.txt.freq").write_text("a\t9\nb\t4\nc\t7\n")
        with pytest.raises(FormatError, match="non-increasing frequency order"):
            load_space(str(path))
        # ties keep file order
        (tmp_path / "space.txt.freq").write_text("a\t9\nb\t4\nc\t4\n")
        assert load_space(str(path)).vocab.counts == [9, 4, 4]

    def test_sidecar_repeated_token_names_line(self, tmp_path):
        path = tmp_path / "space.txt"
        path.write_text("2 2\na 0.1 0.2\nb 0.3 0.4\n")
        (tmp_path / "space.txt.freq").write_text("a\t9\nb\t4\na\t2\n")
        with pytest.raises(FormatError, match=r"space\.txt\.freq:3: token 'a' repeats"):
            load_space(str(path))

    def test_sidecar_non_integer_count_names_line(self, tmp_path):
        path = tmp_path / "space.txt"
        path.write_text("2 2\na 0.1 0.2\nb 0.3 0.4\n")
        (tmp_path / "space.txt.freq").write_text("a\t9\nb\tmany\n")
        with pytest.raises(FormatError, match=r"space\.txt\.freq:2: count 'many'"):
            load_space(str(path))

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_sidecar_count_below_one_names_line(self, tmp_path, count):
        path = tmp_path / "space.txt"
        path.write_text("2 2\na 0.1 0.2\nb 0.3 0.4\n")
        (tmp_path / "space.txt.freq").write_text(f"a\t9\nb\t{count}\n")
        with pytest.raises(FormatError,
                           match=rf"space\.txt\.freq:2: count '{count}' is below 1$"):
            load_space(str(path))

    @pytest.mark.parametrize("missing", ["b", "c"])
    def test_sidecar_without_a_row_token_names_it(self, tmp_path, missing):
        path = tmp_path / "space.txt"
        path.write_text("3 2\na 0.1 0.2\nb 0.3 0.4\nc 0.5 0.6\n")
        listed = [t for t in "abc" if t != missing]
        (tmp_path / "space.txt.freq").write_text(f"{listed[0]}\t10\n{listed[1]}\t5\n")
        with pytest.raises(FormatError,
                           match=rf"space\.txt\.freq: no count for token '{missing}'$"):
            load_space(str(path))


# values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, the largest double, and %.6g outputs in exponent form
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1e-05, 1.2345678e-7, -9.87654321e20, 123456789.0, 0.1, 1 / 3]


def write_vectors(path, rows):
    body = "".join(f"t{i} {' '.join(r)}\n" for i, r in enumerate(rows))
    path.write_text(f"{len(rows)} {len(rows[0])}\n{body}")


class TestSpaceTextParse:
    @pytest.mark.parametrize("spec", ["%.17g", "%.6g"])
    def test_values_equal_float_bit_for_bit(self, tmp_path, spec):
        rng = np.random.default_rng(11)
        spread = rng.standard_normal(480) * 10.0 ** rng.integers(-300, 300, 480)
        values = np.concatenate([EDGE_VALUES, spread]).reshape(41, len(EDGE_VALUES))
        text = [[spec % v for v in row] for row in values]
        path = tmp_path / "space.txt"
        write_vectors(path, text)
        loaded = load_space(str(path)).vectors
        expected = np.array([[float(v) for v in row] for row in text])
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded.view(np.int64), expected.view(np.int64))

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3\na 1 2 3\nb 4 5 6\nc 7 8\n")
        with pytest.raises(FormatError, match=r"bad\.txt:4: dimension mismatch, "
                                              r"expected 3 values, got 2$"):
            load_space(str(path))

    def test_long_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3\na 1 2 3\nb 4 5 6\nc 7 8 9 10\n")
        with pytest.raises(FormatError, match=r"bad\.txt:4: dimension mismatch, "
                                              r"expected 3 values, got 4$"):
            load_space(str(path))

    def test_every_row_too_short_names_the_first(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\na 1 2\nb 4 5\n")
        with pytest.raises(FormatError, match=r"bad\.txt:2: dimension mismatch"):
            load_space(str(path))

    def test_token_without_values_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\na 1\nb\nc 3\nd 4\n")
        with pytest.raises(FormatError, match=r"bad\.txt:3: dimension mismatch, "
                                              r"expected 1 values, got 0$"):
            load_space(str(path))

    def test_more_rows_than_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\na 1 2\nb 3 4\nc 5 6\n")
        with pytest.raises(FormatError, match=r"bad\.txt: row count mismatch, more than 2 rows$"):
            load_space(str(path))

    def test_fewer_rows_than_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\na 1 2\n\nb 3 4\n")
        with pytest.raises(FormatError, match=r"row count mismatch, header says 3, got 2$"):
            load_space(str(path))

    def test_first_fault_in_file_order_wins(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\na 1 2\nb 3 x\nc 5\nd 7 8\n")
        with pytest.raises(FormatError, match=r"bad\.txt:3: value 'x' is not a number$"):
            load_space(str(path))

    def test_repeated_token_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\na 1 2\n\nb 3 4\na 5 6\n")
        with pytest.raises(FormatError, match=r"bad\.txt:5: token 'a' repeats an earlier row$"):
            load_space(str(path))

    def test_non_numeric_value_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\na 1 2\nb 3 4\nc 5 five\n")
        with pytest.raises(FormatError, match=r"bad\.txt:4: value 'five' is not a number$"):
            load_space(str(path))

    @pytest.mark.parametrize("value", ["1_0", "\uff11", "0x10", "nan(1)"])
    def test_numbers_numpy_does_not_read_are_rejected(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2\na 1 2\nb 3 {value}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"bad.txt:3: value '{value}' is not")):
            load_space(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2\na 1 2\nb 3 {value}\n")
        with pytest.raises(FormatError, match=re.escape(f"bad.txt:3: value '{value}' is not finite")):
            load_space(str(path))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one_names_the_file(self, tmp_path, dim):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 {dim}\na\n")
        with pytest.raises(FormatError, match=rf"bad\.txt: dimension {dim} in header is below 1$"):
            load_space(str(path))

    def test_negative_row_count_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1 2\na 1 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=r"bad\.txt: row count -1 in header is below 0$"):
                load_space(str(path))

    def test_blank_lines_and_trailing_spaces_accepted(self, tmp_path):
        # word2vec's C tool ends every row with a space
        path = tmp_path / "space.txt"
        path.write_text("2 3 \n\na 1 2 3 \n   \nb\t4 5 6\t \n\n")
        loaded = load_space(str(path))
        assert loaded.vocab.tokens == ["a", "b"]
        np.testing.assert_array_equal(loaded.vectors, [[1, 2, 3], [4, 5, 6]])

    def test_zero_row_header_loads_empty_space(self, tmp_path):
        path = tmp_path / "space.txt"
        path.write_text("0 4\n")
        loaded = load_space(str(path))
        assert loaded.vectors.shape == (0, 4)
        assert len(loaded) == 0 and loaded.dim == 4
        path.write_text("0 4\na 1 2 3 4\n")
        with pytest.raises(FormatError, match="more than 0 rows"):
            load_space(str(path))


class TestSpaceTextWrite:
    def test_bytes_equal_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((5, len(EDGE_VALUES))) * 1e-3
        vectors[0] = EDGE_VALUES
        tokens = [f"tok{i}" for i in range(5)]
        path = tmp_path / "space.txt"
        save_space(EmbeddingSpace(vectors, Vocabulary(tokens, [5, 4, 3, 2, 1])), str(path))
        expected = f"5 {len(EDGE_VALUES)}\n" + "".join(
            t + " " + " ".join("%.6g" % v for v in row) + "\n" for t, row in zip(tokens, vectors)
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert "-0 " in expected and "e-05" in expected and "e+308" in expected


class TestEmbeddingSpace:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EmbeddingSpace(np.array([[np.inf, 0.0]]), Vocabulary(["a"], [1]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingSpace(np.zeros((2, 3)), Vocabulary(["a"], [1]))
