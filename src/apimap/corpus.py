"""Corpus ingestion: token normalization, signature tables, and vocabulary building.

A corpus is a plain text file with one code sequence per line, tokens separated
by spaces. Tokens are either raw API names (mapped to qualified signatures via a
signature table), keywords / AST node labels (passed through), or noise (dropped).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import FormatError

# A code sequence is an ordered list of non-empty, whitespace-free tokens.
CodeSequence = list[str]


@dataclass(frozen=True)
class SignatureTable:
    """Lookup table mapping raw API tokens to qualified dotted signatures.

    ``entries`` maps raw tokens (e.g. ``List.add``) to qualified signatures
    (e.g. ``java.util.List.add``). ``keywords`` holds tokens passed through
    unchanged (language keywords and AST node-type labels). Tokens found in
    neither set are treated as noise and dropped.
    """

    entries: dict[str, str]
    keywords: frozenset[str] = frozenset()
    # Signature values pass through unchanged so normalization is idempotent.
    _qualified: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for raw, sig in self.entries.items():
            if not raw or any(c.isspace() for c in raw):
                raise FormatError(f"bad raw token {raw!r}")
            if sig.count(".") < 1 or any(c.isspace() for c in sig) or "" in sig.split("."):
                raise FormatError(
                    f"signature {sig!r} for {raw!r} is not a dotted qualified name"
                )
        object.__setattr__(self, "_qualified", frozenset(self.entries.values()))

    def resolve(self, token: str) -> str | None:
        """Map one token; None means the token is noise."""
        mapped = self.entries.get(token)
        if mapped is not None:
            return mapped
        if token in self.keywords or token in self._qualified:
            return token
        return None


class Vocabulary:
    """Token table with dense indices, the most frequent token first."""

    def __init__(self, tokens: list[str], counts: Iterable[int]):
        self.tokens = list(tokens)
        self.counts = [int(c) for c in counts]
        if len(self.tokens) != len(self.counts):
            raise ValueError("tokens and counts length mismatch")
        self._index = {t: i for i, t in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")

    def index(self, token: str) -> int:
        return self._index[token]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Vocabulary({len(self)} tokens)"


def normalize_sequence(seq: CodeSequence, table: SignatureTable) -> tuple[CodeSequence, int]:
    """Normalize one code sequence against a signature table.

    Returns ``(normalized, dropped)`` where ``dropped`` counts noise tokens
    removed. Keeps relative order; idempotent on already-normalized input.
    """
    out: CodeSequence = []
    dropped = 0
    for token in seq:
        mapped = table.resolve(token)
        if mapped is None:
            dropped += 1
        else:
            out.append(mapped)
    return out, dropped


def to_class_level(seq: CodeSequence) -> CodeSequence:
    """Truncate qualified method signatures to their package-and-class prefix.

    The class segment is the last capitalized segment before the final (method)
    segment. Keywords, AST labels, and tokens without a recognizable class
    segment are left unchanged.
    """
    out: CodeSequence = []
    for token in seq:
        parts = token.split(".")
        if len(parts) >= 3:
            cls_idx = None
            for i in range(len(parts) - 2, -1, -1):
                if parts[i][:1].isupper():
                    cls_idx = i
                    break
            if cls_idx is not None:
                token = ".".join(parts[: cls_idx + 1])
        out.append(token)
    return out


def build_vocabulary(corpus: Iterable[CodeSequence], min_count: int) -> Vocabulary:
    """Count tokens over the corpus and build a vocabulary of those seen at least
    ``min_count`` times, by descending count with lexicographic ties."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for seq in corpus:
        counts.update(seq)
    if not counts:
        raise ValueError("empty corpus")
    kept = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    return Vocabulary(kept, [counts[t] for t in kept])


def read_corpus(path: str) -> Iterator[CodeSequence]:
    """Stream code sequences from a one-sequence-per-line UTF-8 text file.

    Blank lines yield empty sequences so line numbering is preserved.
    """
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            yield line.split()


def read_tsv(path: str, widths: tuple[int, ...] = (2,)) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, cols)`` for each non-blank line of a tab-separated file.

    Every row must have one of ``widths`` columns, the first two non-empty;
    any other row raises FormatError naming the file and line. A leading
    UTF-8 byte-order mark is skipped, as by every reader of input text.
    """
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) not in widths or not cols[0] or not cols[1]:
                expected = " or ".join(str(w) for w in widths)
                raise FormatError(f"{path}:{lineno}: expected {expected} tab-separated columns")
            yield lineno, cols


def parse_float(text: str, path: str, lineno: int) -> float:
    """``float(text)`` on what numpy's text reader takes too (ASCII, no "_"), else
    FormatError; a nan or infinite value is a FormatError as well."""
    if text.isascii() and "_" not in text:
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if not math.isfinite(value):
                raise FormatError(f"{path}:{lineno}: value {text!r} is not finite")
            return value
    raise FormatError(f"{path}:{lineno}: value {text!r} is not a number")


def load_signature_table(entries_path: str, keywords_path: str | None = None) -> SignatureTable:
    """Load a signature table from a TSV file plus an optional keyword list.

    The TSV has two columns, ``raw_token<TAB>qualified_signature``. Raw tokens
    mapping to more than one signature are ambiguous and rejected.
    """
    entries: dict[str, str] = {}
    for lineno, (raw, sig) in read_tsv(entries_path):
        if raw in entries and entries[raw] != sig:
            raise FormatError(
                f"{entries_path}:{lineno}: ambiguous raw token {raw!r} "
                f"({entries[raw]!r} vs {sig!r})"
            )
        entries[raw] = sig
    keywords: set[str] = set()
    if keywords_path is not None:
        with open(keywords_path, encoding="utf-8-sig") as fh:
            for line in fh:
                word = line.strip()
                if word:
                    keywords.add(word)
    try:
        return SignatureTable(entries, frozenset(keywords))
    except FormatError as exc:
        raise FormatError(f"{entries_path}: {exc}") from exc
