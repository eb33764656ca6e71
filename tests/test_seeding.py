"""Tests for signature seed mining, the Procrustes solver against its gradient-descent
baseline, and the seed and matrix files."""

import warnings

import numpy as np
import pytest

from apimap.corpus import Vocabulary
from apimap.errors import DivergenceError, FormatError
from apimap.seeding import (
    ORTHOGONALITY_TOL,
    MappingMatrix,
    SeedDictionary,
    load_matrix,
    load_seeds,
    mine_signature_seeds,
    random_orthogonal,
    save_matrix,
    save_seeds,
    solve_procrustes,
)

from helpers import solve_gradient_descent


def vocab_of(tokens):
    return Vocabulary(list(tokens), range(len(tokens), 0, -1))


class TestMineSignatureSeeds:
    def test_case_folded_suffix_matches(self):
        src = vocab_of(["java.lang.String.equals", "java.util.Random.nextDouble", "if"])
        tgt = vocab_of(["System.String.Equals", "System.Random.NextDouble", "return"])
        seeds = mine_signature_seeds(src, tgt)
        assert set(seeds) == {
            ("java.lang.String.equals", "System.String.Equals"),
            ("java.util.Random.nextDouble", "System.Random.NextDouble"),
        }

    def test_unique_on_both_sides(self):
        src = vocab_of(["a.B.c", "a.B.d"])
        tgt = vocab_of(["z.B.c"])
        assert list(mine_signature_seeds(src, tgt)) == [("a.B.c", "z.B.c")]

    def test_ambiguous_suffix_dropped(self):
        src = vocab_of(["a.B.c", "x.B.c"])
        tgt = vocab_of(["z.B.c"])
        assert len(mine_signature_seeds(src, tgt)) == 0

    def test_keywords_never_match(self):
        src = vocab_of(["if", "return"])
        tgt = vocab_of(["if", "return"])
        assert len(mine_signature_seeds(src, tgt)) == 0

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(11)
        pkgs = ["alpha", "beta", "gamma"]
        classes = ["Foo", "Bar", "Baz", "Qux"]
        methods = ["run", "stop", "get", "set", "put"]
        for trial in range(20):
            def sample(n, prefix):
                toks = set()
                while len(toks) < n:
                    toks.add(
                        f"{prefix}{pkgs[rng.integers(3)]}."
                        f"{classes[rng.integers(4)]}.{methods[rng.integers(5)]}"
                    )
                return vocab_of(sorted(toks))

            src = sample(8, "l.")
            tgt = sample(8, "r.")
            forward = set(mine_signature_seeds(src, tgt))
            backward = set(mine_signature_seeds(tgt, src))
            assert forward == {(s, t) for t, s in backward}


class TestSolveProcrustes:
    def test_identity_alignment(self):
        w = solve_procrustes(np.eye(3), np.eye(3))
        np.testing.assert_allclose(w.w, np.eye(3), atol=1e-12)
        assert w.orthogonal and w.stage == "seeded"
        assert np.linalg.norm(w.w.T @ w.w - np.eye(3)) < ORTHOGONALITY_TOL

    def test_ninety_degree_rotation(self):
        x = np.eye(2)
        y = np.array([[0.0, 1.0], [-1.0, 0.0]])  # e1 -> e2, e2 -> -e1
        w = solve_procrustes(x, y)
        np.testing.assert_allclose(w.w, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)

    def test_recovers_random_rotation(self):
        rng = np.random.default_rng(0)
        rot = random_orthogonal(20, rng)
        x = rng.normal(size=(50, 20))
        w = solve_procrustes(x, x @ rot.T)
        assert np.linalg.norm(w.w - rot) < 1e-8

    def test_orthogonality_always(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, d = int(rng.integers(1, 40)), int(rng.integers(2, 15))
            w = solve_procrustes(rng.normal(size=(n, d)), rng.normal(size=(n, d)))
            assert np.linalg.norm(w.w.T @ w.w - np.eye(d)) < 1e-6

    def test_optimal_among_random_orthogonal(self):
        rng = np.random.default_rng(2)
        d, n = 8, 30
        x = rng.normal(size=(n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.normal(size=(n, d))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        w = solve_procrustes(x, y)
        best = np.linalg.norm(x @ w.w.T - y)
        for _ in range(100):
            q = random_orthogonal(d, rng)
            assert best <= np.linalg.norm(x @ q.T - y) + 1e-8

    def test_requires_seed_rows(self):
        with pytest.raises(ValueError):
            solve_procrustes(np.empty((0, 3)), np.empty((0, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_procrustes(np.eye(3), np.eye(4))


class TestSolveGradientDescent:
    def test_identity_convergence(self):
        w = solve_gradient_descent(np.eye(2), np.eye(2), lr=0.1, iters=1000)
        assert np.linalg.norm(w.w - np.eye(2)) < 1e-3
        # the helper's literal label: this W is the identity to 1e-15, so no
        # norm check can stand for it
        assert not w.orthogonal

    def test_single_pair_fit(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[0.0, 1.0]])
        w = solve_gradient_descent(x, y, lr=0.2, iters=2000)
        np.testing.assert_allclose(w.w @ x[0], y[0], atol=1e-3)

    def test_recovery_loss_small_but_less_orthogonal_than_procrustes(self):
        # with fewer seeds than dimensions the unconstrained fit interpolates
        # without becoming orthogonal, unlike the closed-form solution
        rng = np.random.default_rng(3)
        d, n = 10, 6
        rot = random_orthogonal(d, rng)
        x = rng.normal(size=(n, d))
        y = x @ rot.T
        gd = solve_gradient_descent(x, y, lr=0.5, iters=3000)
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        yn = y / np.linalg.norm(y, axis=1, keepdims=True)
        loss = np.sum((xn @ gd.w.T - yn) ** 2) / n
        assert loss < 1e-4
        ortho_gd = np.linalg.norm(gd.w.T @ gd.w - np.eye(d))
        pc = solve_procrustes(x, y)
        ortho_pc = np.linalg.norm(pc.w.T @ pc.w - np.eye(d))
        assert ortho_pc < 1e-6 < ortho_gd

    def test_divergence_raises_with_last_loss(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=(30, 5))
        with pytest.raises(DivergenceError, match="last loss"):
            solve_gradient_descent(x, y, lr=50.0, iters=500)

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            solve_gradient_descent(np.eye(2), np.eye(2), lr=0.0)


class TestSeedDictionary:
    def test_rejects_duplicate_pairs(self):
        with pytest.raises(ValueError):
            SeedDictionary((("a", "b"), ("a", "b")))

    def test_source_may_repeat_with_different_targets(self):
        seeds = SeedDictionary((("a", "b"), ("a", "c")))
        assert len(seeds) == 2

    def test_tsv_roundtrip(self, tmp_path):
        seeds = SeedDictionary((("x.Y.z", "u.Y.z"), ("p.Q.r", "v.Q.r")))
        path = tmp_path / "seeds.tsv"
        save_seeds(seeds, str(path))
        assert tuple(load_seeds(str(path))) == seeds.pairs

    def test_loader_rejects_bad_line(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text("only_one_column\n")
        with pytest.raises(FormatError, match=":1"):
            load_seeds(str(path))


class TestMatrixIO:
    def test_roundtrip_preserves_stage_and_values(self, tmp_path):
        rng = np.random.default_rng(5)
        w = MappingMatrix(random_orthogonal(6, rng), "adversarial", orthogonal=False)
        path = tmp_path / "w.txt"
        save_matrix(w, str(path))
        loaded = load_matrix(str(path))
        np.testing.assert_allclose(loaded.w, w.w, atol=1e-12)
        assert loaded.stage == "adversarial"
        assert loaded.orthogonal  # recomputed from the values themselves
        assert np.linalg.norm(loaded.w.T @ loaded.w - np.eye(6)) < ORTHOGONALITY_TOL

    def test_row_length_error(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# stage: seeded\n2\n0.0 1.0\n1.0\n")
        with pytest.raises(FormatError):
            load_matrix(str(path))

    def test_non_numeric_value_names_its_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# stage: seeded\n2\n1.0 0.0\n0.0 one\n")
        with pytest.raises(FormatError, match=r"w\.txt:4: value 'one' is not a number$"):
            load_matrix(str(path))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        path = tmp_path / "w.txt"
        path.write_text(f"# stage: seeded\n2\n1.0 0.0\n0.0 {value}\n")
        with warnings.catch_warnings():
            # rejected before the orthogonality check could warn on it
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=rf"w\.txt:4: value '{value}' is not finite$"):
                load_matrix(str(path))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one_names_the_file(self, tmp_path, dim):
        path = tmp_path / "w.txt"
        path.write_text(f"# stage: seeded\n{dim}\n")
        with pytest.raises(FormatError, match=rf"w\.txt:2: dimension {dim} in header is below 1$"):
            load_matrix(str(path))

    def test_bytes_equal_per_value_formatting(self, tmp_path):
        edge = [-0.0, 5e-324, 1.7976931348623157e308, 1e-05, 1.2345678e-7, -9.87654321e20]
        w = np.random.default_rng(9).standard_normal((6, 6))
        w[0] = edge
        path = tmp_path / "w.txt"
        save_matrix(MappingMatrix(w, "refined"), str(path))
        expected = "# stage: refined\n6\n" + "".join(
            " ".join("%.17g" % v for v in row) + "\n" for row in w
        )
        assert path.read_bytes() == expected.encode("utf-8")
        with np.errstate(over="ignore"):  # the orthogonality check squares 1.8e308
            loaded = load_matrix(str(path))
        assert np.array_equal(loaded.w.view(np.int64), w.view(np.int64))

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            MappingMatrix(np.eye(2), "bogus")
