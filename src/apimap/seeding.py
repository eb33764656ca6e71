"""Seed mining and the initial linear mapping between two embedding spaces.

Seeds are API pairs whose case-folded class-and-method name suffix coincides
across the two vocabularies. The mapping is solved in closed form on the
orthogonal group (SVD of the seed cross-covariance). Mapping matrices are
saved and loaded as text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary, parse_float, read_tsv
from .embedding import EmbeddingSpace
from .errors import FormatError
from .similarity import unit_rows

STAGE_SEEDED = "seeded"
STAGE_ADVERSARIAL = "adversarial"
STAGE_REFINED = "refined"
_STAGES = (STAGE_SEEDED, STAGE_ADVERSARIAL, STAGE_REFINED)

ORTHOGONALITY_TOL = 1e-6


@dataclass(frozen=True)
class SeedDictionary:
    """Ordered (source_token, target_token) pairs. Exact duplicates are invalid;
    a source token may legitimately appear with several targets."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate seed pair")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def restricted_to(self, src: Vocabulary, tgt: Vocabulary) -> "SeedDictionary":
        """Drop pairs whose tokens are missing from either vocabulary."""
        return SeedDictionary(
            tuple((s, t) for s, t in self.pairs if s in src and t in tgt)
        )


@dataclass(eq=False)
class MappingMatrix:
    """A d x d linear map from the source space into the target space."""

    w: np.ndarray
    stage: str
    orthogonal: bool = False

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1]:
            raise ValueError("mapping matrix must be square")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("mapping matrix has non-finite entries")
        if self.stage not in _STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """W itself, so ``np.asarray`` takes a MappingMatrix or a bare array."""
        return np.array(self.w, dtype=dtype, copy=copy)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def is_orthogonal(w: np.ndarray) -> bool:
    """Whether ||W^T W - I|| is below ORTHOGONALITY_TOL."""
    return bool(np.linalg.norm(w.T @ w - np.eye(w.shape[0])) < ORTHOGONALITY_TOL)


def _suffix_key(token: str) -> str | None:
    """Case-folded last-two-dotted-segments key, or None for non-API tokens."""
    parts = token.split(".")
    if len(parts) < 2 or not parts[-1] or not parts[-2]:
        return None
    return f"{parts[-2]}.{parts[-1]}".casefold()


def _tokens_by_suffix(vocab: Vocabulary) -> dict[str, list[str]]:
    """Suffix key to the tokens carrying it, in vocabulary order."""
    by_key: dict[str, list[str]] = {}
    for token in vocab:
        key = _suffix_key(token)
        if key is not None:
            by_key.setdefault(key, []).append(token)
    return by_key


def mine_signature_seeds(src: Vocabulary, tgt: Vocabulary) -> SeedDictionary:
    """Pair tokens whose class-and-method suffix matches uniquely on both sides.

    Keywords and AST labels carry no dotted suffix and never participate.
    Suffixes claimed by more than one token on either side are ambiguous and
    dropped. Output pairs follow source vocabulary (frequency) order.
    """
    tgt_by_key = _tokens_by_suffix(tgt)
    pairs = []
    for key, src_hits in _tokens_by_suffix(src).items():
        tgt_hits = tgt_by_key.get(key, [])
        if len(src_hits) == 1 and len(tgt_hits) == 1:
            pairs.append((src_hits[0], tgt_hits[0]))
    return SeedDictionary(tuple(pairs))


def seed_matrices(
    seeds: SeedDictionary, src: EmbeddingSpace, tgt: EmbeddingSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Stack seed-pair embeddings as aligned |S| x d matrices."""
    usable = seeds.restricted_to(src.vocab, tgt.vocab)
    if len(usable) == 0:
        raise ValueError("no seed pair is present in both vocabularies")
    x = np.stack([src.vector(s) for s, _ in usable])
    y = np.stack([tgt.vector(t) for _, t in usable])
    return x, y


def nearest_orthogonal(m: np.ndarray) -> np.ndarray:
    """The orthogonal polar factor U V^T of m, where U S V^T is the SVD of m."""
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def solve_procrustes(x_s: np.ndarray, y_s: np.ndarray) -> MappingMatrix:
    """Closed-form best orthogonal map W with W x_i ~ y_i over the seed rows.

    Rows are unit-normalized before solving; retrieval is cosine-based, so
    scale carries no information and normalization stabilizes the SVD.
    W = U V^T where U S V^T is the SVD of Y^T X.
    """
    x_s = np.asarray(x_s, dtype=np.float64)
    y_s = np.asarray(y_s, dtype=np.float64)
    if x_s.ndim != 2 or x_s.shape != y_s.shape:
        raise ValueError("seed matrices must have identical |S| x d shapes")
    if x_s.shape[0] < 1:
        raise ValueError("at least one seed pair is required")
    x = unit_rows(x_s)
    y = unit_rows(y_s)
    return MappingMatrix(nearest_orthogonal(y.T @ x), STAGE_SEEDED, orthogonal=True)


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an orthogonal matrix via QR of a Gaussian matrix (Haar-ish)."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def load_seeds(path: str) -> SeedDictionary:
    """Read a two-column TSV seed dictionary; repeats of a pair collapse to one."""
    pairs = dict.fromkeys((s, t) for _, (s, t) in read_tsv(path))
    return SeedDictionary(tuple(pairs))


def save_seeds(seeds: SeedDictionary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s, t in seeds:
            fh.write(f"{s}\t{t}\n")


def save_matrix(matrix: MappingMatrix, path: str) -> None:
    """Write a mapping matrix as text: stage comment, dimension, then d rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# stage: {matrix.stage}\n")
        fh.write(f"{matrix.dim}\n")
        row = " ".join(["%.17g"] * matrix.dim)
        for values in matrix.w:
            fh.write(row % tuple(values.tolist()) + "\n")


def load_matrix(path: str) -> MappingMatrix:
    """Read a matrix written by ``save_matrix``. A malformed line, a dimension
    below 1 and a nan or infinite value raise FormatError naming the file."""
    stage = STAGE_SEEDED
    rows: list[list[float]] = []
    dim: int | None = None
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("stage:"):
                    stage = body.split(":", 1)[1].strip()
                continue
            if dim is None:
                try:
                    dim = int(line)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: expected dimension header") from exc
                if dim < 1:
                    raise FormatError(f"{path}:{lineno}: dimension {dim} in header is below 1")
                continue
            values = line.split()
            if len(values) != dim:
                raise FormatError(
                    f"{path}:{lineno}: expected {dim} values, got {len(values)}"
                )
            rows.append([parse_float(v, path, lineno) for v in values])
    if dim is None or len(rows) != dim:
        raise FormatError(f"{path}: expected {dim or '?'} rows, got {len(rows)}")
    w = np.asarray(rows)
    if stage not in _STAGES:
        raise FormatError(f"{path}: unknown stage {stage!r}")
    return MappingMatrix(w, stage, orthogonal=is_orthogonal(w))
