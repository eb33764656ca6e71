"""Evaluation metrics and study tables for mined API mappings.

Covers top-k accuracy against a ground-truth pair list, precision/recall/F
over emitted mappings, coverage/accuracy trade-off tables across similarity
thresholds, the one stage grammar and chain of the seeding / adversarial /
refinement stages, and an ablation driver over such chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversarial import AdvConfig, AdvEpoch, train_adversarial
from .corpus import read_tsv
from .embedding import EmbeddingSpace
from .errors import FormatError
from .query import QueryResult, batch_query
from .refinement import RefineConfig, RefineStep, refine
from .seeding import (
    MappingMatrix,
    STAGE_SEEDED,
    SeedDictionary,
    random_orthogonal,
    seed_matrices,
    solve_procrustes,
)


@dataclass(frozen=True)
class GroundTruth:
    """Expected (source, target) mappings.

    A source token may map to several targets only when ``multi_target`` is
    set; a hit then means any expected target was retrieved.
    """

    pairs: tuple[tuple[str, str], ...]
    multi_target: bool = False

    def __post_init__(self) -> None:
        if not self.multi_target:
            seen: dict[str, str] = {}
            for s, t in self.pairs:
                if s in seen and seen[s] != t:
                    raise ValueError(
                        f"source {s!r} has conflicting targets; "
                        f"pass multi_target=True to allow this"
                    )
                seen[s] = t

    def __len__(self) -> int:
        return len(self.pairs)

    def sources(self) -> list[str]:
        """Distinct source tokens in first-appearance order."""
        return list(dict.fromkeys(s for s, _ in self.pairs))

    def expected(self) -> dict[str, set[str]]:
        """Source token to the set of acceptable targets."""
        table: dict[str, set[str]] = {}
        for s, t in self.pairs:
            table.setdefault(s, set()).add(t)
        return table


@dataclass
class CoverageRow:
    """One (threshold, k) cell of the coverage/accuracy trade-off table."""

    threshold: float
    k: int
    coverage: float
    accuracy_covered: float
    accuracy_overall: float


def load_ground_truth(path: str, multi_target: bool = False) -> GroundTruth:
    """Read a TSV of ``source<TAB>target`` rows; a third column is ignored."""
    pairs = tuple((cols[0], cols[1]) for _, cols in read_tsv(path, widths=(2, 3)))
    return GroundTruth(pairs, multi_target)


def _results_by_source(
    results: list[QueryResult], expected: dict[str, set[str]]
) -> dict[str, QueryResult]:
    """Results keyed by query token; every expected source must be among them."""
    if not expected:
        raise ValueError("empty ground truth")
    by_token = {r.query_token: r for r in results}
    missing = [s for s in expected if s not in by_token]
    if missing:
        raise ValueError(f"{len(missing)} truth sources were not queried: {missing[:5]}")
    return by_token


def topk_accuracy(results: list[QueryResult], truth: GroundTruth, k: int) -> float:
    """Fraction of truth sources whose expected target appears in the top k.

    Out-of-vocabulary sources count as misses. Every truth source must have
    been queried.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    expected = truth.expected()
    by_token = _results_by_source(results, expected)
    hits = 0
    for source, targets in expected.items():
        retrieved = by_token[source].tokens[:k]
        if any(t in targets for t in retrieved):
            hits += 1
    return hits / len(expected)


def f_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; zero when both are zero."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def precision_recall_f(
    results: list[QueryResult], truth: GroundTruth
) -> tuple[float, float, float]:
    """Precision, recall, and F over emitted top-1 mappings.

    A query emits its top-1 neighbor when the (already threshold-filtered)
    result list is non-empty. True positives are emitted pairs present in the
    ground truth; false positives the rest of the emissions; false negatives
    the ground-truth pairs never emitted.
    """
    truth_pairs = set(truth.pairs)
    if not truth_pairs:
        raise ValueError("empty ground truth")
    emitted = {
        (r.query_token, r.tokens[0]) for r in results if not r.oov and r.neighbors
    }
    tp = len(emitted & truth_pairs)
    fp = len(emitted) - tp
    fn = len(truth_pairs) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, f_score(precision, recall)


def coverage_accuracy_table(
    w: MappingMatrix,
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    truth: GroundTruth,
    thresholds: list[float],
    k_list: tuple[int, ...],
) -> list[CoverageRow]:
    """Coverage and accuracy per similarity threshold and per k.

    Queries every truth source for its top max(k_list) neighbors, then
    tabulates them with ``coverage_rows``.
    """
    results = batch_query(truth.sources(), w, src, tgt, max(k_list))
    return coverage_rows(results, truth, thresholds, k_list)


def coverage_rows(
    results: list[QueryResult],
    truth: GroundTruth,
    thresholds: list[float],
    k_list: tuple[int, ...],
) -> list[CoverageRow]:
    """Coverage/accuracy rows from unthresholded results of at least max(k_list)
    neighbors per truth source.

    Coverage is the fraction of truth sources retaining at least one top-k
    neighbor at or above the threshold; accuracy is reported both over covered
    queries only and over all queries.
    """
    for tau in thresholds:
        if not 0 <= tau < 1:
            raise ValueError(f"threshold {tau} outside [0, 1)")
    expected = truth.expected()
    by_token = _results_by_source(results, expected)
    rows: list[CoverageRow] = []
    for tau in thresholds:
        for k in k_list:
            covered = 0
            hits = 0
            for source, targets in expected.items():
                kept = [
                    t for t, s in by_token[source].neighbors[:k] if s >= tau
                ]
                if kept:
                    covered += 1
                    if any(t in targets for t in kept):
                        hits += 1
            total = len(expected)
            rows.append(
                CoverageRow(
                    threshold=tau,
                    k=k,
                    coverage=covered / total,
                    accuracy_covered=hits / covered if covered else 0.0,
                    accuracy_overall=hits / total,
                )
            )
    return rows


def parse_stages(spec: str) -> str:
    """Canonical ``S+A+R``-style name of a stage list such as ``s,a,r`` or ``S+R``.

    The stages are S (seeded solve), A (adversarial) and R (refine), separated
    by ``,`` or ``+`` in any case. Unknown, repeated or out-of-order stages
    raise FormatError.
    """
    names = [n.strip().upper() for n in spec.replace(",", "+").split("+") if n.strip()]
    if not names or names != [n for n in "SAR" if n in names]:
        raise FormatError(
            f"bad stage list {spec!r}: expected stages from S, A, R in that order, "
            f"separated by ',' or '+'"
        )
    return "+".join(names)


def run_stages(
    stages: str,
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    seeds: SeedDictionary | None,
    adv_cfg: AdvConfig,
    ref_cfg: RefineConfig,
    rng_seed: int,
    history: list[AdvEpoch] | None = None,
    report: list[RefineStep] | None = None,
) -> MappingMatrix:
    """Chain the stages named by ``stages`` (any form ``parse_stages`` takes).

    S solves on ``seeds``; without S the chain starts from a random orthogonal
    matrix drawn from ``rng_seed``. A then R follow when named, appending their
    per-epoch and per-iteration rows to ``history`` and ``report``.
    """
    names = parse_stages(stages).split("+")
    if "S" in names:
        w = solve_procrustes(*seed_matrices(seeds, src, tgt))
    else:
        w = MappingMatrix(
            random_orthogonal(src.dim, np.random.default_rng(rng_seed)),
            STAGE_SEEDED,
            orthogonal=True,
        )
    if "A" in names:
        w = train_adversarial(w, src, tgt, adv_cfg, history)
    if "R" in names:
        w = refine(w, src, tgt, ref_cfg, report)
    return w


def run_ablation(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    seeds: SeedDictionary | None,
    truth: GroundTruth,
    grid: list[str],
    adv_cfg: AdvConfig,
    ref_cfg: RefineConfig,
    k_list: tuple[int, ...],
    rng_seed: int,
) -> dict[str, dict[int, float]]:
    """Top-k accuracy per k of each stage combination run by ``run_stages``,
    keyed by the combination's canonical name; ``seeds`` may be None without S."""
    reports: dict[str, dict[int, float]] = {}
    sources = truth.sources()
    for combo in grid:
        name = parse_stages(combo)
        w = run_stages(name, src, tgt, seeds, adv_cfg, ref_cfg, rng_seed)
        results = batch_query(sources, w, src, tgt, max(k_list))
        reports[name] = {k: topk_accuracy(results, truth, k) for k in k_list}
    return reports
