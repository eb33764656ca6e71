"""Self-tests of the benchmark's own checks and generators.

    python3 apibench/selftest.py

Each check is run on inputs with a known answer, including one it must
reject. The file sits outside the test suite's ``tests`` directory on purpose:
it tests the benchmark, not the program, and does not import apimap.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import traceback
from collections import Counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402


def _naive_topk(q, targets, k):
    out = []
    for row in q:
        sims = [float(row @ t / (np.linalg.norm(row) * np.linalg.norm(t))) for t in targets]
        out.append(sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k])
    return np.array(out)


def test_brute_topk_matches_naive_sort():
    rng = np.random.default_rng(0)
    q, t = rng.normal(size=(30, 7)), rng.normal(size=(200, 7))
    idx, sims = checks.brute_topk(q, t, 5, block=8)
    assert np.array_equal(idx, _naive_topk(q, t, 5))
    assert np.all(np.diff(sims, axis=1) <= 0)


def test_brute_topk_breaks_ties_by_index():
    t = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    idx, sims = checks.brute_topk(np.array([[3.0, 0.0]]), t, 3)
    assert idx.tolist() == [[0, 2, 3]] and np.allclose(sims, 1.0)
    idx, _ = checks.brute_topk(np.array([[3.0, 0.0]]), t, 4)
    assert idx.tolist() == [[0, 2, 3, 1]]


def test_results_match_accepts_ties_and_rejects_swaps():
    all_sims = np.array([0.9, 0.5, 0.9, 0.1])
    idx, sims = np.array([0, 2, 1]), np.array([0.9, 0.9, 0.5])
    assert checks.results_match([(0, 0.9), (2, 0.9), (1, 0.5)], idx, sims, all_sims) is None
    assert checks.results_match([(2, 0.9), (0, 0.9), (1, 0.5)], idx, sims, all_sims) is None
    assert checks.results_match([(0, 0.9), (1, 0.5), (2, 0.9)], idx, sims, all_sims)
    assert checks.results_match([(0, 0.9), (2, 0.9)], idx, sims, all_sims)


def test_topk_hits():
    idx = np.array([[3, 1, 2], [0, 4, 5]])
    assert checks.topk_hits(idx, np.array([3, 4]), 1) == 0.5
    assert checks.topk_hits(idx, np.array([3, 4]), 2) == 1.0


def test_orthogonality_error():
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 6)))
    assert checks.orthogonality_error(q) < 1e-12
    assert checks.orthogonality_error(1.01 * q) > 1e-2


def test_criterion_is_mean_best_cosine():
    src = np.array([[1.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
    tgt = np.array([[1.0, 0.0], [1.0, 1.0]])
    want = (1.0 + np.sqrt(0.5)) / 2
    assert abs(checks.criterion(np.eye(2), src, tgt, 2) - want) < 1e-12


def test_coverage_monotone():
    good = [(0.3, 1, 0.9), (0.5, 1, 0.6), (0.3, 10, 0.95), (0.5, 10, 0.6)]
    assert checks.coverage_monotone(good) is None
    assert checks.coverage_monotone([(0.3, 1, 0.5), (0.5, 1, 0.6)])
    assert checks.coverage_monotone([(0.3, 1, 0.5), (0.3, 10, 0.4)])


def test_planted_margin():
    vecs = {"plant_p": np.array([1.0, 0.1]), "plant_q": np.array([1.0, 0.0]),
            "plant_r": np.array([0.0, 1.0])}
    assert checks.planted_margin(vecs.__getitem__) > 0
    vecs["plant_r"], vecs["plant_q"] = vecs["plant_q"], vecs["plant_r"]
    assert checks.planted_margin(vecs.__getitem__) < 0


def test_text_rounding_bound():
    x = np.random.default_rng(2).normal(size=(50, 9)) * 10.0 ** np.arange(-4, 5)
    rounded = np.array([[float("%.6g" % v) for v in row] for row in x])
    assert checks.within_text_rounding(rounded, x)
    assert not checks.within_text_rounding(np.array([[float("%.5g" % v) for v in row]
                                                     for row in x]), x)


def _suffix(sig):
    cls, method = sig.split(".")[-2:]
    return f"{cls}.{method}".lower()


def test_corpus_truth_counts_and_seeds():
    """Recount the generated corpus and re-derive the seed set the slow way."""
    with tempfile.TemporaryDirectory() as out:
        gen.make_corpora(5, out)
        with open(os.path.join(out, "truth.json"), encoding="utf-8") as fh:
            truth = json.load(fh)
        vocab = {}
        for lang in ("java", "cs"):
            with open(os.path.join(out, f"{lang}.tsv"), encoding="utf-8") as fh:
                table = dict(line.rstrip("\n").split("\t") for line in fh)
            with open(os.path.join(out, f"{lang}.kw"), encoding="utf-8") as fh:
                keywords = {line.strip() for line in fh if line.strip()}
            tokens = Counter()
            with open(os.path.join(out, f"{lang}.txt"), encoding="utf-8") as fh:
                for line in fh:
                    tokens.update(line.split())
            total = sum(tokens.values())
            kept = sum(c for t, c in tokens.items() if t in table or t in keywords)
            assert truth[lang] == {"tokens_in": total, "dropped": total - kept, "kept": kept}
            vocab[lang] = {table[t] for t in tokens if t in table}
        by_key = {lang: Counter(_suffix(s) for s in vocab[lang]) for lang in vocab}
        cs_by_key = {_suffix(s): s for s in vocab["cs"]}
        want = {(s, cs_by_key[_suffix(s)]) for s in vocab["java"]
                if by_key["java"][_suffix(s)] == 1 and by_key["cs"][_suffix(s)] == 1}
        assert want == set(map(tuple, truth["seeds"]))
        assert len(want) > 100 and len(truth["held_out"]) > 300
        assert sum(1 for k, c in by_key["java"].items() if c > 1) == gen.N_AMBIGUOUS


def test_paired_truth_is_planted_rotation():
    with tempfile.TemporaryDirectory() as out:
        params = dict(gen.PAIRED["align-adv"], n=300, n_seeds=10, n_truth=50)
        gen.make_paired(3, out, **params)
        arrays = np.load(os.path.join(out, "arrays.npz"))
        with open(os.path.join(out, "src.vec"), encoding="utf-8") as fh:
            header = fh.readline().split()
            rows = [line.split() for line in fh]
        assert [int(v) for v in header] == list(arrays["src"].shape)
        loaded = np.array([[float(v) for v in r[1:]] for r in rows])
        assert checks.within_text_rounding(loaded, arrays["src"])
        # the head of the truth pairs is nearly noiseless, so its best
        # Procrustes fit is close to exact
        i, j = arrays["truth_idx"].T
        x, y = arrays["src"][i], arrays["tgt"][j]
        u, _, vt = np.linalg.svd(y.T @ x)
        residual = np.linalg.norm(x @ (u @ vt).T - y, axis=1) / np.linalg.norm(y, axis=1)
        assert np.median(residual) < 0.5


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception:
            failed += 1
            print(f"FAIL  {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
