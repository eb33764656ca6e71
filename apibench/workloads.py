"""The three benchmark workloads, run in-process against apimap's public API.

Each workload has a ``setup`` (the program's own loading of its input files),
a ``round`` (one pass of the pipeline, repeated for the run's length) and a
``check`` (the round's outputs against computations made apart from the
program). Calls go through module attributes, such as ``seeding.solve_procrustes``,
so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from apimap import adversarial, corpus, embedding, evaluation, query, refinement, seeding

import checks

# the acceptance suite's adversarial settings (adv_config in tests/conftest.py)
ADV = dict(epochs=15, batch_size=32, disc_steps_per_map_step=5, learning_rate=0.02,
           hidden_dim=128, label_smoothing=0.2, input_dropout=0.1, selection_topk=1000)
TOP_K = 10
QUERY_SAMPLE = 40


def _rows(space, tokens):
    return np.array([space.vocab.index(t) for t in tokens], dtype=np.int64)


def _program_neighbours(result, tgt):
    return [(tgt.vocab.index(t), s) for t, s in result.neighbors]


def _check_retrieval(problems, w, src, tgt, truth, results, top1, top10):
    """Oracle top-1/top-10 equal the program's; sampled results equal brute force."""
    expected = truth.expected()
    sources = list(expected)
    targets = [next(iter(expected[s])) for s in sources]
    mapped = src.vectors[_rows(src, sources)] @ np.asarray(w).T
    idx, sims = checks.brute_topk(mapped, tgt.vectors, TOP_K)
    want = _rows(tgt, targets)
    oracle1, oracle10 = checks.topk_hits(idx, want, 1), checks.topk_hits(idx, want, TOP_K)
    if (oracle1, oracle10) != (top1, top10):
        problems.append(f"top1/top10 {top1}/{top10} vs oracle {oracle1}/{oracle10}")
    by_token = {r.query_token: r for r in results}
    step = max(1, len(sources) // QUERY_SAMPLE)
    tgt_unit = checks.unit_rows(tgt.vectors)
    for i in range(0, len(sources), step):
        all_sims = tgt_unit @ checks.unit_rows(mapped[i:i + 1])[0]
        msg = checks.results_match(
            _program_neighbours(by_token[sources[i]], tgt), idx[i], sims[i], all_sims)
        if msg:
            problems.append(f"batch_query {sources[i]}: {msg}")
    return oracle1, oracle10


def _check_orthogonal(problems, label, w):
    err = checks.orthogonality_error(w)
    if not err < seeding.ORTHOGONALITY_TOL:
        problems.append(f"{label} output not orthogonal: |W^T W - I| = {err:.3g}")


def _check_reload(problems, label, space, exact):
    if not checks.within_text_rounding(space.vectors, exact):
        problems.append(f"{label}: reloaded vectors differ beyond 6-digit rounding")


class EmbedCorpus:
    """Normalize two raw corpora, train, save and reload both spaces, mine seeds,
    solve S and query the held-out pairs."""

    name = "embed-corpus"
    ops = ("normalize.java", "normalize.cs", "train.java", "train.cs", "save.java",
           "save.cs", "load.java", "load.cs", "mine", "procrustes", "query", "topk")
    train = dict(dim=32, epochs=4, negatives=3, window=2, learning_rate=0.05,
                 subsample=1e-3, workers=1)

    def __init__(self, inputs: str, workdir: str, seed: int):
        self.inputs, self.workdir, self.seed = inputs, workdir, seed
        with open(os.path.join(inputs, "truth.json"), encoding="utf-8") as fh:
            self.truth = json.load(fh)

    def setup(self):
        state = {}
        for lang in ("java", "cs"):
            path = os.path.join(self.inputs, lang)
            state[lang] = (
                corpus.load_signature_table(path + ".tsv", path + ".kw"),
                list(corpus.read_corpus(path + ".txt")),
            )
        return state

    def round(self, state):
        cfg = embedding.TrainConfig(rng_seed=self.seed, **self.train)
        out = {"dropped": {}, "kept": {}, "tokens_in": {}, "trained": {}, "loaded": {}}
        train_s = 0.0
        trained_tokens = 0
        for lang in ("java", "cs"):
            table, lines = state[lang]
            normalized, dropped = [], 0
            for line in lines:
                seq, n_dropped = corpus.normalize_sequence(line, table)
                normalized.append(seq)
                dropped += n_dropped
            out["dropped"][lang] = dropped
            out["kept"][lang] = sum(len(s) for s in normalized)
            out["tokens_in"][lang] = sum(len(s) for s in lines)
            t0 = time.perf_counter()
            space = embedding.train_skipgram(normalized, cfg)
            train_s += time.perf_counter() - t0
            trained_tokens += out["kept"][lang] * cfg.epochs
            out["trained"][lang] = space
            embedding.save_space(space, os.path.join(self.workdir, f"{lang}.vec"))
        # later stages read the spaces back, as ``apimap seeds`` does
        src, tgt = (embedding.load_space(os.path.join(self.workdir, f"{lang}.vec"))
                    for lang in ("java", "cs"))
        out["loaded"] = {"java": src, "cs": tgt}
        out["mined"] = seeding.mine_signature_seeds(src.vocab, tgt.vocab)
        x, y = seeding.seed_matrices(out["mined"], src, tgt)
        out["w"] = seeding.solve_procrustes(x, y).w
        truth = evaluation.GroundTruth(tuple(map(tuple, self.truth["held_out"])))
        t0 = time.perf_counter()
        out["results"] = query.batch_query(truth.sources(), out["w"], src, tgt, TOP_K)
        query_s = time.perf_counter() - t0
        out["top1"] = evaluation.topk_accuracy(out["results"], truth, 1)
        out["top10"] = evaluation.topk_accuracy(out["results"], truth, TOP_K)
        out["truth"] = truth
        out["tokens_per_s"] = trained_tokens / train_s
        out["queries_per_s"] = len(out["results"]) / query_s
        return out

    def check(self, state, out):
        problems = []
        for lang in ("java", "cs"):
            want = self.truth[lang]
            got = {"tokens_in": out["tokens_in"][lang], "dropped": out["dropped"][lang],
                   "kept": out["kept"][lang]}
            if got != want:
                problems.append(f"{lang} normalization counts {got} vs generator {want}")
            trained = out["trained"][lang]
            margin = checks.planted_margin(trained.vector)
            if not margin > 0:
                problems.append(f"{lang} planted co-occurrence margin {margin:.4f} <= 0")
            loaded = out["loaded"][lang]
            if loaded.vocab.tokens != trained.vocab.tokens:
                problems.append(f"{lang}: reloaded vocabulary differs")
            else:
                _check_reload(problems, lang, loaded, trained.vectors)
        mined = set(out["mined"].pairs)
        want = set(map(tuple, self.truth["seeds"]))
        if mined != want:
            problems.append(f"mined {len(mined)} seeds, generator expects {len(want)}, "
                            f"{len(mined ^ want)} differ")
        _check_orthogonal(problems, "S", out["w"])
        src, tgt = out["loaded"]["java"], out["loaded"]["cs"]
        _check_retrieval(problems, out["w"], src, tgt, out["truth"], out["results"],
                         out["top1"], out["top10"])
        return problems, 0


class _PairedTask:
    """Shared set-up and checks of the two planted paired-space workloads."""

    def __init__(self, inputs: str, workdir: str, seed: int):
        self.inputs, self.seed = inputs, seed

    def setup(self):
        p = lambda f: os.path.join(self.inputs, f)
        return {
            "src": embedding.load_space(p("src.vec")),
            "tgt": embedding.load_space(p("tgt.vec")),
            "seeds": seeding.load_seeds(p("seeds.tsv")),
            "truth": evaluation.load_ground_truth(p("truth.tsv")),
        }

    def _seeded(self, state):
        x, y = seeding.seed_matrices(state["seeds"], state["src"], state["tgt"])
        return seeding.solve_procrustes(x, y)

    def _query(self, state, w, out):
        src, tgt, truth = state["src"], state["tgt"], state["truth"]
        t0 = time.perf_counter()
        out["results"] = query.batch_query(truth.sources(), w, src, tgt, TOP_K)
        out["queries_per_s"] = len(out["results"]) / (time.perf_counter() - t0)
        out["top1"] = evaluation.topk_accuracy(out["results"], truth, 1)
        out["top10"] = evaluation.topk_accuracy(out["results"], truth, TOP_K)

    def _common_checks(self, state, out, problems):
        arrays = np.load(os.path.join(self.inputs, "arrays.npz"))
        _check_reload(problems, "source space", state["src"], arrays["src"])
        _check_reload(problems, "target space", state["tgt"], arrays["tgt"])
        truth_rows = [(state["src"].vocab.tokens[i], state["tgt"].vocab.tokens[j])
                      for i, j in arrays["truth_idx"]]
        if tuple(truth_rows) != state["truth"].pairs:
            problems.append("loaded ground truth differs from the generator's pairs")
        _check_orthogonal(problems, "S", out["w_s"])
        _check_orthogonal(problems, "R", out["w"])
        return _check_retrieval(problems, out["w"], state["src"], state["tgt"],
                                state["truth"], out["results"], out["top1"], out["top10"])


class AlignAdv(_PairedTask):
    """S -> A -> R -> batch_query on a planted 2.4k x 50 task."""

    name = "align-adv"
    ops = ("procrustes", "adversarial", "refine", "query", "topk")
    refine_cfg = dict(topk=500, threshold=0.7, mode="intersection", max_iters=15,
                      patience=3, selection_topk=1000)

    def round(self, state):
        src, tgt = state["src"], state["tgt"]
        out = {}
        w_s = self._seeded(state)
        out["w_s"] = w_s.w
        cfg = adversarial.AdvConfig(rng_seed=self.seed, **ADV)
        t0 = time.perf_counter()
        w_a = adversarial.train_adversarial(w_s, src, tgt, cfg, [])
        adv_s = time.perf_counter() - t0
        out["w_a"] = w_a.w
        steps = math.ceil(max(len(src), len(tgt)) / cfg.batch_size)
        sampled = cfg.epochs * steps * (cfg.disc_steps_per_map_step + 1) * 2 * cfg.batch_size
        out["tokens_per_s"] = sampled / adv_s
        out["w"] = refinement.refine(w_a, src, tgt, refinement.RefineConfig(**self.refine_cfg),
                                     []).w
        self._query(state, out["w"], out)
        return out

    def check(self, state, out):
        problems = []
        self._common_checks(state, out, problems)
        src, tgt = state["src"].vectors, state["tgt"].vectors
        k = min(ADV["selection_topk"], len(src))
        before, after = (checks.criterion(out[w], src, tgt, k) for w in ("w_s", "w_a"))
        if not after >= before - 1e-12:
            problems.append(f"A criterion {after:.6f} below its S input {before:.6f}")
        # train_adversarial never re-orthogonalizes W, so its output fails this
        # on every input; it is counted as the round's one failed operation
        failed = int(not checks.orthogonality_error(out["w_a"]) < seeding.ORTHOGONALITY_TOL)
        return problems, failed


class RetrieveLarge(_PairedTask):
    """S -> refine -> batch_query -> topk / P-R-F / coverage on a 9.9k x 300 task,
    the sequence of ``apimap query`` plus ``apimap eval --thresholds``."""

    name = "retrieve-large"
    ops = ("procrustes", "refine", "query", "topk1", "topk10", "prf", "coverage")
    # two iterations: the first always improves on S, so the work per round
    # does not depend on whether a later one would
    refine_cfg = dict(topk=500, threshold=0.7, mode="intersection", max_iters=2,
                      patience=1, selection_topk=1000)
    thresholds = (0.3, 0.5, 0.7)

    def round(self, state):
        src, tgt, truth = state["src"], state["tgt"], state["truth"]
        out = {}
        w_s = self._seeded(state)
        out["w_s"] = w_s.w
        report = []
        t0 = time.perf_counter()
        w = refinement.refine(w_s, src, tgt, refinement.RefineConfig(**self.refine_cfg), report)
        out["tokens_per_s"] = len(src) * (len(report) - 1) / (time.perf_counter() - t0)
        out["w"] = w.w
        self._query(state, w, out)
        out["prf"] = evaluation.precision_recall_f(out["results"], truth)
        out["coverage"] = evaluation.coverage_accuracy_table(
            w, src, tgt, truth, list(self.thresholds), (1, TOP_K))
        return out

    def check(self, state, out):
        problems = []
        oracle1, _ = self._common_checks(state, out, problems)
        # every truth source is in the vocabulary with one target and emits its
        # top-1, so precision and recall both equal top-1 accuracy
        p, r, _ = out["prf"]
        if not (math.isclose(p, oracle1) and math.isclose(r, oracle1)):
            problems.append(f"precision/recall {p}/{r} vs oracle top-1 {oracle1}")
        rows = [(c.threshold, c.k, c.coverage) for c in out["coverage"]]
        msg = checks.coverage_monotone(rows)
        if msg:
            problems.append(msg)
        return problems, 0


WORKLOADS = {w.name: w for w in (EmbedCorpus, AlignAdv, RetrieveLarge)}
