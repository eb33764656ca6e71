"""Spans around the public functions of each apimap layer, for the traced run.

Each wrapped function is replaced in every apimap module that looks it up, so
calls between layers (``refine`` calling ``selection_criterion``) are traced
as well as the benchmark's own calls. A span records name, start, end, parent
and the phase it ran in (``setup/0``, ``round/1``, ...); spans stay in memory
and are written as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_mb(path: str) -> float:
    return sum(os.path.getsize(p) for p in (path, path + ".freq") if os.path.exists(p)) / 1e6


def _count_normalize(args, result):
    return {"tokens_in": len(args[0]), "tokens_kept": len(result[0])}


def _count_train(args, result):
    corpus, cfg = args[0], args[1]
    return {"train_tokens": sum(len(seq) for seq in corpus) * cfg.epochs}


def _count_batch(args, result):
    return {"queries": len(result), "oov": sum(1 for r in result if r.oov)}


def _count_pairs(args, result):
    return {"pairs": len(result)}


# One row per traced function ("<layer>.<function>"): what a call counts from
# (args, result), and which per-layer metric each of its spans adds to. A
# metric's source is "time" (the span's duration), "calls" (1), "rss_growth"
# (ru_maxrss after the call minus before) or one of the call's counts.
TRACED = {
    "corpus.load_signature_table": (None, {}),
    "corpus.normalize_sequence": (_count_normalize, {
        "corpus.normalize_s": "time", "corpus.tokens_in": "tokens_in",
        "corpus.tokens_kept": "tokens_kept"}),
    "embedding.train_skipgram": (_count_train, {
        "embedding.train_s": "time", "embedding.train_tokens": "train_tokens"}),
    "embedding.save_space": (lambda a, r: {"mb": _file_mb(a[1])}, {
        "embedding.save_s": "time", "embedding.save_mb": "mb"}),
    "embedding.load_space": (lambda a, r: {"mb": _file_mb(a[0])}, {
        "embedding.load_s": "time", "embedding.load_mb": "mb"}),
    "seeding.mine_signature_seeds": (_count_pairs, {
        "seeding.mine_s": "time", "seeding.seeds_mined": "pairs"}),
    # the S stage's usable seeds; inside refine, the re-solved candidates
    "seeding.seed_matrices": (lambda a, r: {"rows": int(r[0].shape[0])}, {
        "seeding.seeds_usable": "rows"}),
    "seeding.solve_procrustes": (None, {
        "seeding.procrustes_s": "time", "seeding.procrustes_calls": "calls"}),
    "seeding.load_seeds": (None, {}),
    "adversarial.train_adversarial": (None, {"adversarial.train_s": "time"}),
    "adversarial.discriminator_gradients": (None, {
        "adversarial.disc_step_s": "time", "adversarial.disc_steps": "calls"}),
    "adversarial.mapping_gradient": (None, {
        "adversarial.map_step_s": "time", "adversarial.map_steps": "calls"}),
    "adversarial.selection_criterion": (None, {
        "adversarial.criterion_s": "time", "adversarial.criterion_calls": "calls"}),
    "refinement.refine": (None, {
        "refinement.refine_s": "time", "refinement.rss_growth_mb": "rss_growth"}),
    "refinement.candidates_topk_frequency": (_count_pairs, {
        "refinement.iters": "calls", "refinement.candidates_s": "time",
        "refinement.candidates_raw": "pairs"}),
    "refinement.candidates_cosine_threshold": (_count_pairs, {
        "refinement.candidates_s": "time", "refinement.candidates_raw": "pairs"}),
    "query.batch_query": (_count_batch, {
        "query.batch_s": "time", "query.queries": "queries", "query.oov": "oov"}),
    "evaluation.topk_accuracy": (None, {"evaluation.topk_s": "time"}),
    "evaluation.precision_recall_f": (None, {}),
    "evaluation.coverage_accuracy_table": (None, {"evaluation.coverage_s": "time"}),
    "evaluation.load_ground_truth": (None, {}),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._phase = "none"

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "phase": self._phase,
                    "parent": self._stack[-1] if self._stack else None,
                    "rss_before_mb": maxrss_mb()}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["rss_after_mb"] = maxrss_mb()
            if count is not None:
                span["counts"] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever an apimap module refers to it."""
        wrappers = {}
        for name, (count, _) in TRACED.items():
            layer, fname = name.split(".")
            original = getattr(sys.modules[f"apimap.{layer}"], fname)
            wrappers[id(original)] = self._wrap(name, original, count)
        for modname, module in list(sys.modules.items()):
            if modname == "apimap" or modname.startswith("apimap."):
                for attr, value in list(vars(module).items()):
                    if callable(value) and id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])

    @contextmanager
    def phase(self, name: str):
        self._phase = name
        try:
            yield
        finally:
            self._phase = "none"

    # ------------------------------------------------------------ summaries

    def _with_self_times(self) -> list[dict]:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = []
        for s, covered in zip(self.spans, child_time):
            s = dict(s, duration_s=s["end"] - s["start"])
            s["self_s"] = s["duration_s"] - covered
            out.append(s)
        return out

    def _ancestors(self, span_id: int) -> set[str]:
        names = set()
        parent = self.spans[span_id]["parent"]
        while parent is not None:
            names.add(self.spans[parent]["name"])
            parent = self.spans[parent]["parent"]
        return names

    def _phase_metrics(self, spans: list[dict]) -> dict[str, float]:
        """Per-layer metrics over the spans of one phase instance."""
        m: dict[str, float] = {}
        for s in spans:
            for metric, source in TRACED[s["name"]][1].items():
                if s["name"] == "seeding.seed_matrices" and \
                        "refinement.refine" in self._ancestors(s["id"]):
                    metric = "refinement.candidates_kept"
                if source == "time":
                    value = s["end"] - s["start"]
                elif source == "calls":
                    value = 1
                elif source == "rss_growth":
                    value = s["rss_after_mb"] - s["rss_before_mb"]
                else:
                    value = s["counts"][source]
                m[metric] = m.get(metric, 0.0) + value
        return m

    def layer_metrics(self, names: list[str]) -> dict[str, float]:
        """Each metric: median over set-ups plus median over rounds.

        ``rss_growth_mb`` takes the largest round instead, since the peak it
        is measured against is only raised once per process.
        """
        by_phase: dict[str, list[dict]] = {}
        for s in self.spans:
            by_phase.setdefault(s["phase"], []).append(s)
        per_kind: dict[str, list[dict[str, float]]] = {"setup": [], "round": []}
        for phase, spans in by_phase.items():
            kind = phase.split("/")[0]
            if kind in per_kind:
                per_kind[kind].append(self._phase_metrics(spans))
        out = {}
        for name in names:
            total = 0.0
            for instances in per_kind.values():
                values = [inst.get(name, 0.0) for inst in instances]
                if values:
                    agg = max if name == "refinement.rss_growth_mb" else statistics.median
                    total += agg(values)
            out[name] = total
        mined, usable = out.get("seeding.seeds_mined"), out.get("seeding.seeds_usable")
        if "seeding.seed_yield" in names:
            out["seeding.seed_yield"] = usable / mined if mined else 0.0
        return out

    def write(self, path: str, extra: dict) -> None:
        spans = self._with_self_times()
        summary: dict[str, dict] = {}
        for s in spans:
            row = summary.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s["duration_s"]
            row["self_s"] += s["self_s"]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, summary=summary, spans=spans), fh)
