"""Tests for token normalization, signature tables, and vocabulary building."""

import numpy as np
import pytest

from apimap.corpus import (
    SignatureTable,
    Vocabulary,
    build_vocabulary,
    load_signature_table,
    normalize_sequence,
    to_class_level,
)
from apimap.errors import FormatError
from apimap.evaluation import load_ground_truth
from apimap.seeding import load_seeds

TABLE = SignatureTable(
    entries={
        "List.add": "java.util.List.add",
        "List.addAll": "java.util.List.addAll",
        "HashMap.put": "java.util.HashMap.put",
    },
    keywords=frozenset({"if", "else", "return"}),
)


class TestNormalizeSequence:
    def test_qualifies_api_tokens(self):
        seq = "List.add List.add if List.addAll else HashMap.put return".split()
        out, dropped = normalize_sequence(seq, TABLE)
        assert out == (
            "java.util.List.add java.util.List.add if java.util.List.addAll "
            "else java.util.HashMap.put return"
        ).split()
        assert dropped == 0

    def test_empty_sequence(self):
        assert normalize_sequence([], TABLE) == ([], 0)

    def test_unknown_tokens_dropped_and_counted(self):
        table = SignatureTable(entries={}, keywords=frozenset({"if"}))
        out, dropped = normalize_sequence(["foo", "Bar.baz", "if"], table)
        assert out == ["if"]
        assert dropped == 2

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        raws = list(TABLE.entries) + list(TABLE.keywords) + ["junk", "Noise.tok"]
        for _ in range(50):
            seq = [raws[i] for i in rng.integers(0, len(raws), size=12)]
            once, _ = normalize_sequence(seq, TABLE)
            twice, dropped = normalize_sequence(once, TABLE)
            assert twice == once
            assert dropped == 0

    def test_output_never_longer_and_order_preserved(self):
        rng = np.random.default_rng(1)
        raws = list(TABLE.entries) + list(TABLE.keywords) + ["x", "y.Z"]
        for _ in range(50):
            seq = [raws[i] for i in rng.integers(0, len(raws), size=20)]
            out, dropped = normalize_sequence(seq, TABLE)
            assert len(out) + dropped == len(seq)
            mapped = [TABLE.resolve(t) for t in seq]
            assert out == [m for m in mapped if m is not None]


class TestSignatureTable:
    def test_rejects_undotted_signature(self):
        with pytest.raises(FormatError):
            SignatureTable(entries={"foo": "plainname"})

    def test_rejects_whitespace(self):
        with pytest.raises(FormatError):
            SignatureTable(entries={"foo": "a.b c"})

    def test_loader_reports_collision_with_line_number(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("List.add\tjava.util.List.add\nList.add\tcom.x.List.add\n")
        with pytest.raises(FormatError, match=":2"):
            load_signature_table(str(path))

    def test_loader_bad_column_count(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("justonecolumn\n")
        with pytest.raises(FormatError, match=":1"):
            load_signature_table(str(path))


class TestByteOrderMark:
    """A file saved with a leading UTF-8 byte-order mark loads as the file
    without one: the mark is not part of the first token."""

    @pytest.mark.parametrize("load", [
        lambda p: tuple(load_seeds(p)),
        lambda p: load_ground_truth(p).pairs,
    ], ids=["seeds", "truth"])
    def test_bom_file_loads_the_same_pairs(self, tmp_path, load):
        text = "s0\tt0\ns1\tt1\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load(str(marked)) == load(str(plain)) == (("s0", "t0"), ("s1", "t1"))


class TestBuildVocabulary:
    def test_direct_counts(self):
        vocab = build_vocabulary([["a", "b", "a"]], min_count=1)
        assert vocab.counts == [2, 1]
        assert vocab.index("a") == 0 and vocab.index("b") == 1

    def test_min_count_threshold(self):
        vocab = build_vocabulary([["a", "b", "a"]], min_count=2)
        assert list(vocab) == ["a"]

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary([["x", "y"], ["y", "x"]], min_count=1)
        assert vocab.counts == [2, 2]
        assert vocab.index("x") == 0

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([], min_count=1)

    def test_counts_sum_to_retained_occurrences(self):
        rng = np.random.default_rng(2)
        tokens = [f"t{i}" for i in range(30)]
        corpus = [
            [tokens[i] for i in rng.integers(0, 30, size=rng.integers(1, 15))]
            for _ in range(40)
        ]
        total = sum(len(line) for line in corpus)
        vocab = build_vocabulary(corpus, min_count=1)
        assert sum(vocab.counts) == total

    def test_indices_dense_and_frequency_ordered(self):
        rng = np.random.default_rng(3)
        corpus = [[f"t{rng.integers(0, 50)}" for _ in range(10)] for _ in range(50)]
        vocab = build_vocabulary(corpus, min_count=2)
        assert sorted(vocab.index(t) for t in vocab) == list(range(len(vocab)))
        assert vocab.counts == sorted(vocab.counts, reverse=True)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"], [1, 1])


class TestToClassLevel:
    def test_truncates_method_signature(self):
        assert to_class_level(["java.util.List.add"]) == ["java.util.List"]

    def test_keyword_passthrough(self):
        assert to_class_level(["if"]) == ["if"]

    def test_mixed_sequence(self):
        assert to_class_level(["java.lang.Math.round", "return"]) == [
            "java.lang.Math",
            "return",
        ]

    def test_deep_namespace_keeps_class(self):
        assert to_class_level(["System.Collections.Generic.List.Remove"]) == [
            "System.Collections.Generic.List"
        ]

    def test_no_capitalized_segment_left_unchanged(self):
        assert to_class_level(["a.b.c"]) == ["a.b.c"]
