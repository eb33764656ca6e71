"""End-to-end tests for the command-line pipeline."""

import csv
import hashlib

import numpy as np
import pytest

from apimap import cli
from apimap.adversarial import AdvConfig
from apimap.cli import main
from apimap.embedding import TrainConfig, load_space
from apimap.refinement import RefineConfig

from helpers import make_paired_task


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def mini_corpora(tmp_path):
    """Two tiny parallel-structure corpora plus table, keyword, and truth files."""
    rng = np.random.default_rng(0)
    apis = ["List.add", "List.remove", "Map.put", "Map.get", "Set.has"]
    src_table = {a: f"java.util.{a}" for a in apis}
    tgt_table = {a: f"System.Gen.{a}" for a in apis}
    keywords = ["if", "else", "return"]

    def write_corpus(path, table):
        with open(path, "w") as fh:
            for _ in range(300):
                line = []
                for _ in range(rng.integers(2, 6)):
                    if rng.random() < 0.7:
                        line.append(apis[rng.integers(len(apis))])
                    else:
                        line.append(keywords[rng.integers(3)])
                fh.write(" ".join(line) + "\n")

    src_raw = tmp_path / "src_raw.txt"
    tgt_raw = tmp_path / "tgt_raw.txt"
    write_corpus(src_raw, src_table)
    write_corpus(tgt_raw, tgt_table)
    src_table_path = tmp_path / "src_table.tsv"
    tgt_table_path = tmp_path / "tgt_table.tsv"
    src_table_path.write_text("".join(f"{k}\t{v}\n" for k, v in src_table.items()))
    tgt_table_path.write_text("".join(f"{k}\t{v}\n" for k, v in tgt_table.items()))
    kw_path = tmp_path / "keywords.txt"
    kw_path.write_text("".join(k + "\n" for k in keywords))
    truth_path = tmp_path / "truth.tsv"
    truth_path.write_text(
        "".join(f"java.util.{a}\tSystem.Gen.{a}\n" for a in apis)
    )
    return {
        "dir": tmp_path,
        "src_raw": src_raw,
        "tgt_raw": tgt_raw,
        "src_table": src_table_path,
        "tgt_table": tgt_table_path,
        "keywords": kw_path,
        "truth": truth_path,
    }


class TestNormalize:
    def test_normalizes_and_reports_drops(self, mini_corpora, capsys):
        out = mini_corpora["dir"] / "src_norm.txt"
        code = run(
            "normalize", "--in", str(mini_corpora["src_raw"]),
            "--table", str(mini_corpora["src_table"]),
            "--keywords", str(mini_corpora["keywords"]),
            "--out", str(out),
        )
        assert code == 0
        assert "dropped" in capsys.readouterr().out
        assert all(
            tok.startswith("java.util.") or tok in {"if", "else", "return"}
            for line in out.read_text().splitlines() for tok in line.split()
        )

    def test_class_level_flag(self, mini_corpora):
        out = mini_corpora["dir"] / "src_class.txt"
        code = run(
            "normalize", "--in", str(mini_corpora["src_raw"]),
            "--table", str(mini_corpora["src_table"]),
            "--keywords", str(mini_corpora["keywords"]),
            "--out", str(out), "--class-level",
        )
        assert code == 0
        tokens = {t for line in out.read_text().splitlines() for t in line.split()}
        assert "java.util.List" in tokens
        assert not any(t.startswith("java.util.List.") for t in tokens)

    def test_empty_input_exits_zero(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        table = tmp_path / "table.tsv"
        table.write_text("A.b\tx.A.b\n")
        out = tmp_path / "out.txt"
        assert run("normalize", "--in", str(empty), "--table", str(table),
                   "--out", str(out)) == 0
        assert out.read_text() == ""

    def test_malformed_table_exits_2_with_line_number(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("A.b\n")
        table = tmp_path / "table.tsv"
        table.write_text("A.b\tx.A.b\nbadline\n")
        code = run("normalize", "--in", str(corpus), "--table", str(table),
                   "--out", str(tmp_path / "o.txt"))
        assert code == 2
        assert ":2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run("normalize", "--in", str(tmp_path / "nope.txt"),
                   "--table", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "o.txt")) == 2
        # a directory as the input or the output, and a path under a regular file
        corpus = tmp_path / "c.txt"
        corpus.write_text("A.b\n")
        table = tmp_path / "table.tsv"
        table.write_text("A.b\tx.A.b\n")
        capsys.readouterr()
        for bad, in_path, out_path in [(tmp_path, tmp_path, tmp_path / "o.txt"),
                                       (tmp_path, corpus, tmp_path),
                                       (corpus / "x.txt", corpus / "x.txt", tmp_path / "o.txt")]:
            assert run("normalize", "--in", str(in_path), "--table", str(table),
                       "--out", str(out_path)) == 2
            assert str(bad) in capsys.readouterr().err

    def test_missing_input_exits_2_without_writing(self, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text("A.b\tx.A.b\n")
        out = tmp_path / "o.txt"
        assert run("normalize", "--in", str(tmp_path / "missing.txt"),
                   "--table", str(table), "--out", str(out)) == 2
        assert not out.exists()


class TestEmbed:
    ARGS = ["--dim", "8", "--epochs", "1", "--negatives", "2", "--window", "2",
            "--subsample", "1", "--seed", "7"]

    def test_trains_and_saves(self, mini_corpora):
        out = mini_corpora["dir"] / "emb.txt"
        code = run("embed", "--corpus", str(mini_corpora["src_raw"]),
                   "--out", str(out), *self.ARGS)
        assert code == 0
        space = load_space(str(out))
        assert space.dim == 8
        assert (mini_corpora["dir"] / "emb.txt.freq").exists()

    def test_epochs_zero_exits_2(self, mini_corpora, capsys):
        code = run("embed", "--corpus", str(mini_corpora["src_raw"]),
                   "--out", str(mini_corpora["dir"] / "x.txt"), "--epochs", "0")
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, mini_corpora):
        out1 = mini_corpora["dir"] / "emb1.txt"
        out2 = mini_corpora["dir"] / "emb2.txt"
        for out in (out1, out2):
            assert run("embed", "--corpus", str(mini_corpora["src_raw"]),
                       "--out", str(out), "--workers", "1", *self.ARGS) == 0
        h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
        assert h1 == h2


@pytest.fixture()
def trained_pair(tmp_path):
    """A pre-built aligned pair written through the library's own file formats."""
    from apimap.embedding import save_space
    from apimap.seeding import save_seeds

    task = make_paired_task(n=120, dim=10, n_seeds=30, n_truth=30, seed=5,
                            n_clusters=8, noise=0.01)
    src_path = tmp_path / "src_emb.txt"
    tgt_path = tmp_path / "tgt_emb.txt"
    save_space(task.src, str(src_path))
    save_space(task.tgt, str(tgt_path))
    seeds_path = tmp_path / "seeds.tsv"
    save_seeds(task.seeds, str(seeds_path))
    truth_path = tmp_path / "truth.tsv"
    truth_path.write_text(
        "".join(f"{s}\t{t}\n" for s, t in task.truth.pairs)
    )
    return {"dir": tmp_path, "task": task, "src": src_path, "tgt": tgt_path,
            "seeds": seeds_path, "truth": truth_path}


class TestSeedsCommand:
    def test_mines_suffix_matches(self, tmp_path):
        from apimap.corpus import Vocabulary
        from apimap.embedding import EmbeddingSpace, save_space

        src = EmbeddingSpace(
            np.eye(2), Vocabulary(["java.lang.Math.round", "if"], [5, 4])
        )
        tgt = EmbeddingSpace(
            np.eye(2), Vocabulary(["System.Math.Round", "return"], [5, 4])
        )
        save_space(src, str(tmp_path / "s.txt"))
        save_space(tgt, str(tmp_path / "t.txt"))
        out = tmp_path / "seeds.tsv"
        assert run("seeds", "--src-emb", str(tmp_path / "s.txt"),
                   "--tgt-emb", str(tmp_path / "t.txt"), "--out", str(out)) == 0
        assert out.read_text() == "java.lang.Math.round\tSystem.Math.Round\n"


class TestAlign:
    def test_seeding_only_stage(self, trained_pair):
        matrix = trained_pair["dir"] / "w.txt"
        code = run("align", "--src-emb", str(trained_pair["src"]),
                   "--tgt-emb", str(trained_pair["tgt"]),
                   "--seeds", str(trained_pair["seeds"]),
                   "--stages", "s", "--out-matrix", str(matrix))
        assert code == 0
        from apimap.seeding import load_matrix

        w = load_matrix(str(matrix))
        assert w.stage == "seeded" and w.orthogonal

    def test_full_chain_with_logs(self, trained_pair):
        matrix = trained_pair["dir"] / "w3.txt"
        log = trained_pair["dir"] / "adv.csv"
        report = trained_pair["dir"] / "refine-report.csv"
        code = run("align", "--src-emb", str(trained_pair["src"]),
                   "--tgt-emb", str(trained_pair["tgt"]),
                   "--seeds", str(trained_pair["seeds"]),
                   "--stages", "s,a,r", "--out-matrix", str(matrix),
                   "--log", str(log), "--refine-report", str(report),
                   "--adv-epochs", "2", "--adv-hidden", "16",
                   "--selection-topk", "50", "--refine-topk", "40",
                   "--refine-iters", "2", "--seed", "1")
        assert code == 0
        with open(log, newline="") as fh:
            log_rows = list(csv.reader(fh))
        assert log_rows[0] == ["epoch", "L_D", "L_W", "disc_accuracy", "criterion"]
        assert [r[0] for r in log_rows[1:]] == ["1", "2"]
        assert all(len(r) == 5 for r in log_rows[1:])
        with open(report, newline="") as fh:
            report_rows = list(csv.reader(fh))
        assert report_rows[0] == ["iter", "candidates", "criterion"]
        # the starting point is row 0, then one row per iteration run
        iters = [r[0] for r in report_rows[1:]]
        assert iters == [str(i) for i in range(len(iters))] and len(iters) in (2, 3)
        assert report_rows[1][:2] == ["0", "0"]
        assert all(len(r) == 3 for r in report_rows[1:])
        # csv rows end in CRLF and values carry six decimals, with no config line
        assert log.read_bytes().count(b"\r\n") == 3
        assert report.read_bytes().startswith(b"iter,candidates,criterion\r\n")
        values = [v for r in log_rows[1:] for v in r[1:]] + [r[2] for r in report_rows[1:]]
        assert all(len(v.split(".")[1]) == 6 for v in values)
        from apimap.seeding import load_matrix

        assert load_matrix(str(matrix)).stage == "refined"

    def test_stage_order_enforced(self, trained_pair, capsys):
        code = run("align", "--src-emb", str(trained_pair["src"]),
                   "--tgt-emb", str(trained_pair["tgt"]),
                   "--seeds", str(trained_pair["seeds"]),
                   "--stages", "a,s", "--out-matrix",
                   str(trained_pair["dir"] / "w.txt"))
        assert code == 2

    def test_stages_match_run_stages(self, trained_pair):
        from apimap.evaluation import run_stages
        from apimap.seeding import load_matrix, load_seeds

        matrix = trained_pair["dir"] / "w_sr.txt"
        code = run("align", "--src-emb", str(trained_pair["src"]),
                   "--tgt-emb", str(trained_pair["tgt"]),
                   "--seeds", str(trained_pair["seeds"]),
                   "--stages", "s,r", "--out-matrix", str(matrix),
                   "--refine-topk", "40", "--refine-iters", "2", "--seed", "3")
        assert code == 0
        src, tgt = load_space(str(trained_pair["src"])), load_space(str(trained_pair["tgt"]))
        w = run_stages("S+R", src, tgt, load_seeds(str(trained_pair["seeds"])), AdvConfig(),
                       RefineConfig(topk=40, max_iters=2), rng_seed=3)
        loaded = load_matrix(str(matrix))
        assert loaded.stage == w.stage == "refined"
        assert np.array_equal(loaded.w, w.w)

    def test_union_refine_draws_only_from_the_frequent_head(self, trained_pair):
        report = trained_pair["dir"] / "union-report.csv"
        code = run("align", "--src-emb", str(trained_pair["src"]),
                   "--tgt-emb", str(trained_pair["tgt"]),
                   "--seeds", str(trained_pair["seeds"]),
                   "--stages", "s,r", "--out-matrix", str(trained_pair["dir"] / "w_u.txt"),
                   "--refine-mode", "union", "--refine-topk", "40",
                   "--refine-report", str(report), "--seed", "3")
        assert code == 0
        with open(report, newline="") as fh:
            candidates = [int(r[1]) for r in list(csv.reader(fh))[1:]]
        # 120 sources a side, nearly all above the threshold: only the 40
        # most frequent can enter a union dictionary
        assert len(candidates) >= 2 and candidates[0] == 0
        assert 0 < max(candidates) <= 40

    def test_dimension_mismatch_exits_2(self, trained_pair, tmp_path):
        from apimap.corpus import Vocabulary
        from apimap.embedding import EmbeddingSpace, save_space

        other = tmp_path / "narrow.txt"
        save_space(EmbeddingSpace(np.eye(3), Vocabulary(["a", "b", "c"], [3, 2, 1])),
                   str(other))
        code = run("align", "--src-emb", str(trained_pair["src"]),
                   "--tgt-emb", str(other), "--seeds", str(trained_pair["seeds"]),
                   "--stages", "s", "--out-matrix", str(tmp_path / "w.txt"))
        assert code == 2

    def test_bad_stage_flag_exits_2_before_loading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        # --stages is the one way to leave a stage out: a stage runs at least once
        for stages, flag, value, message in [
                ("r", "--refine-threshold", "1.5", "threshold must be in (0, 1)"),
                ("a", "--adv-epochs", "0", "epochs must be >= 1"),
                ("r", "--refine-iters", "0", "max_iters must be >= 1")]:
            code = run("align", "--src-emb", missing, "--tgt-emb", missing, "--stages", stages,
                       flag, value, "--out-matrix", str(tmp_path / "w.txt"))
            assert code == 2
            assert f"apimap: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "w.txt").exists()


class TestQueryAndEval:
    @pytest.fixture()
    def aligned(self, trained_pair):
        matrix = trained_pair["dir"] / "w.txt"
        assert run("align", "--src-emb", str(trained_pair["src"]),
                   "--tgt-emb", str(trained_pair["tgt"]),
                   "--seeds", str(trained_pair["seeds"]),
                   "--stages", "s", "--out-matrix", str(matrix)) == 0
        return {**trained_pair, "matrix": matrix}

    def test_query_tsv_output(self, aligned, capsys):
        token = aligned["task"].truth.pairs[0][0]
        code = run("query", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--k", "3", token)
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3
        first = lines[0].split("\t")
        assert first[0] == token and first[1] == "1"
        assert len(first) == 4

    def test_query_oov_marker(self, aligned, capsys):
        code = run("query", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--k", "3", "unknown.token")
        assert code == 0
        assert "unknown.token\t-\tOOV\t-" in capsys.readouterr().out

    def test_query_without_tokens_exits_2(self, aligned):
        assert run("query", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]),
                   "--tgt-emb", str(aligned["tgt"])) == 2

    def test_query_k_zero_exits_2_before_loading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        code = run("query", "--matrix", missing, "--src-emb", missing, "--tgt-emb", missing,
                   "--k", "0", "some.token")
        assert code == 2
        assert "apimap: error: --k must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "1.5", "-0.1"])
    def test_query_threshold_out_of_range_exits_2_before_loading(self, tmp_path, capsys,
                                                                threshold):
        missing = str(tmp_path / "missing.txt")
        code = run("query", "--matrix", missing, "--src-emb", missing, "--tgt-emb", missing,
                   "--threshold", threshold, "some.token")
        assert code == 2
        assert ("apimap: error: --threshold must be a number in [0, 1), got "
                f"{float(threshold)}") in capsys.readouterr().err

    def test_query_threshold_filters(self, aligned, tmp_path):
        token = aligned["task"].truth.pairs[0][0]
        out = tmp_path / "q.tsv"
        assert run("query", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--k", "5", "--threshold", "0.999999", "--out", str(out),
                   token) == 0
        assert out.read_text() == "" or token in out.read_text()

    def test_eval_report(self, aligned, tmp_path):
        out = tmp_path / "report.csv"
        code = run("eval", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--truth", str(aligned["truth"]), "--k-list", "1,5",
                   "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("# config:")
        assert "k,accuracy" in text
        assert "precision" in text

    def test_eval_with_coverage_and_ablation(self, aligned, tmp_path):
        out = tmp_path / "report.csv"
        cov = tmp_path / "coverage.csv"
        abl = tmp_path / "ablation.csv"
        code = run("eval", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--truth", str(aligned["truth"]), "--k-list", "1,5",
                   "--thresholds", "0.5,0.7", "--ablation", "S",
                   "--seeds", str(aligned["seeds"]),
                   "--out", str(out), "--coverage-out", str(cov),
                   "--ablation-out", str(abl))
        assert code == 0
        assert "threshold,k,coverage" in cov.read_text()
        assert "stages,k,accuracy" in abl.read_text()
        assert "S,1," in abl.read_text()

    def test_eval_ablation_without_seeds_exits_2_before_writing(self, aligned, tmp_path):
        out = tmp_path / "report.csv"
        code = run("eval", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--truth", str(aligned["truth"]), "--ablation", "S",
                   "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_eval_bad_stage_flag_exits_2_before_writing(self, aligned, tmp_path, capsys):
        out, cov = tmp_path / "e.csv", tmp_path / "coverage.csv"
        code = run("eval", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--truth", str(aligned["truth"]), "--ablation", "S+R",
                   "--seeds", str(aligned["seeds"]), "--refine-threshold", "1.5",
                   "--thresholds", "0.5", "--out", str(out), "--coverage-out", str(cov))
        assert code == 2
        assert not out.exists() and not cov.exists()
        assert "apimap: error: threshold must be in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "only-one-column\n"])
    def test_eval_bad_seed_file_exits_2_before_writing(self, aligned, tmp_path, content):
        seeds = tmp_path / "bad_seeds.tsv"
        assert not seeds.exists()
        if content is not None:
            seeds.write_text(content)
        out, cov = tmp_path / "e.csv", tmp_path / "coverage.csv"
        code = run("eval", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--truth", str(aligned["truth"]), "--ablation", "S",
                   "--seeds", str(seeds), "--thresholds", "0.5",
                   "--out", str(out), "--coverage-out", str(cov))
        assert code == 2
        assert not out.exists() and not cov.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--thresholds", "0.5,1.5"), ("--thresholds", "0.5,x"),
        ("--k-list", "0,5"), ("--k-list", "1,x"),
        ("--thresholds", "0.5,0.5"), ("--k-list", "1,5,1")])
    def test_eval_bad_number_list_exits_2_before_writing(self, aligned, tmp_path, capsys,
                                                         flag, value):
        out = tmp_path / "report.csv"
        code = run("eval", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--truth", str(aligned["truth"]), flag, value, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert f"apimap: error: {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,item", [
        ("--ablation", "S,s", "S"), ("--ablation", "R,S+A,s+a", "S+A"),
        ("--k-list", "1,01", "1"), ("--thresholds", "0.5,0.50", "0.5")])
    def test_eval_repeated_item_exits_2_before_loading(self, tmp_path, monkeypatch, capsys,
                                                       flag, value, item):
        monkeypatch.chdir(tmp_path)  # every input is missing; nothing may be written
        code = run("eval", "--src-emb", "src.vec", "--tgt-emb", "tgt.vec", "--matrix", "w.txt",
                   "--truth", "t.tsv", "--seeds", "s.tsv", flag, value, "--out", "e.csv")
        assert code == 2
        assert f"apimap: error: {flag}: item {item} is repeated" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_eval_ablation_without_s_needs_no_seeds(self, aligned, tmp_path):
        abl = tmp_path / "ablation.csv"
        code = run("eval", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--truth", str(aligned["truth"]), "--k-list", "1,5",
                   "--ablation", "R", "--refine-iters", "1",
                   "--out", str(tmp_path / "report.csv"), "--ablation-out", str(abl))
        assert code == 0
        rows = abl.read_text().splitlines()
        assert rows[1] == "stages,k,accuracy"
        assert [r.split(",")[:2] for r in rows[2:]] == [["R", "1"], ["R", "5"]]

    @pytest.mark.parametrize("grid", ["S,R", "R,S+R"])
    def test_eval_ablation_item_with_s_needs_seeds(self, aligned, tmp_path, grid):
        out = tmp_path / "report.csv"
        code = run("eval", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--truth", str(aligned["truth"]), "--ablation", grid,
                   "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_eval_thresholds_query_once(self, aligned, tmp_path, monkeypatch):
        from apimap import evaluation, query
        from apimap.seeding import load_matrix

        expected_rows = evaluation.coverage_accuracy_table(
            load_matrix(str(aligned["matrix"])),
            load_space(str(aligned["src"])), load_space(str(aligned["tgt"])),
            evaluation.load_ground_truth(str(aligned["truth"])), [0.5, 0.7], (1, 5))
        calls = []
        original = query.batch_query

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(query, "batch_query", counting)
        monkeypatch.setattr(evaluation, "batch_query", counting)
        cov = tmp_path / "coverage.csv"
        code = run("eval", "--matrix", str(aligned["matrix"]),
                   "--src-emb", str(aligned["src"]), "--tgt-emb", str(aligned["tgt"]),
                   "--truth", str(aligned["truth"]), "--k-list", "1,5",
                   "--thresholds", "0.5,0.7", "--out", str(tmp_path / "report.csv"),
                   "--coverage-out", str(cov))
        assert code == 0
        assert len(calls) == 1
        rows = cov.read_text().splitlines()[2:]
        assert rows == [
            f"{r.threshold},{r.k},{r.coverage:.6f},{r.accuracy_covered:.6f},"
            f"{r.accuracy_overall:.6f}"
            for r in expected_rows
        ]


class TestExitCodes:
    @pytest.mark.parametrize("argv,message", [
        (("align", "--stages", "s", "--seeds", "s.tsv", "--out-matrix", "w.txt",
          "--log", "log.csv"), "--log needs the a stage"),
        (("align", "--stages", "s", "--seeds", "s.tsv", "--out-matrix", "w.txt",
          "--refine-report", "r.csv"), "--refine-report needs the r stage"),
        (("eval", "--matrix", "w.txt", "--truth", "t.tsv", "--coverage-out", "c.csv"),
         "--coverage-out needs --thresholds"),
        (("eval", "--matrix", "w.txt", "--truth", "t.tsv", "--ablation-out", "b.csv"),
         "--ablation-out needs --ablation"),
    ])
    def test_output_flag_without_its_producer_exits_2_before_loading(
            self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)  # every input is missing; nothing may be written
        code = run(*argv, "--src-emb", "src.vec", "--tgt-emb", "tgt.vec")
        assert code == 2
        assert f"apimap: error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (("align", "--stages", "a,r", "--out-matrix", "w.txt"),
         "--seeds needs the s stage in --stages"),
        (("eval", "--matrix", "w.txt", "--truth", "t.tsv", "--ablation", "R,A+R",
          "--out", "e.csv"), "--seeds needs an --ablation item that contains S"),
    ])
    def test_seed_file_no_stage_reads_exits_2_before_loading(
            self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)  # every input is missing; nothing may be written
        code = run(*argv, "--seeds", "s.tsv", "--src-emb", "src.vec", "--tgt-emb", "tgt.vec")
        assert code == 2
        assert f"apimap: error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand_exits_2(self):
        assert run("frobnicate") == 2

    def test_no_args_exits_2(self):
        assert run() == 2

    def test_non_numeric_vector_value_exits_2_with_line(self, tmp_path, capsys):
        (tmp_path / "s.txt").write_text("2 2\nx.A.b 1 0\ny.A.c 0 zero\n")
        (tmp_path / "t.txt").write_text("1 2\nx.A.b 1 0\n")
        code = run("seeds", "--src-emb", str(tmp_path / "s.txt"),
                   "--tgt-emb", str(tmp_path / "t.txt"), "--out", str(tmp_path / "o.tsv"))
        assert code == 2
        assert "s.txt:3: value 'zero' is not a number" in capsys.readouterr().err


    def test_non_finite_vector_value_exits_2_naming_the_file(self, tmp_path, capsys):
        (tmp_path / "s.txt").write_text("1 2\nx.A.b 1 0\n")
        (tmp_path / "t.txt").write_text("2 2\nx.A.b 1 0\ny.A.c nan 1\n")
        code = run("seeds", "--src-emb", str(tmp_path / "s.txt"),
                   "--tgt-emb", str(tmp_path / "t.txt"), "--out", str(tmp_path / "o.tsv"))
        assert code == 2
        assert "t.txt:3: value 'nan' is not finite" in capsys.readouterr().err

    def test_zero_query_vector_exits_2_naming_the_token(self, tmp_path, capsys):
        (tmp_path / "s.txt").write_text("3 2\nx.A.b 1 0\ny.A.c 0 0\nz.A.d 0 0\n")
        (tmp_path / "t.txt").write_text("1 2\nx.A.b 1 0\n")
        (tmp_path / "w.txt").write_text("# stage: seeded\n2\n1 0\n0 1\n")
        code = run("query", "x.A.b", "z.A.d", "y.A.c", "--matrix", str(tmp_path / "w.txt"),
                   "--src-emb", str(tmp_path / "s.txt"), "--tgt-emb", str(tmp_path / "t.txt"))
        assert code == 2
        assert "zero query vector of 'z.A.d'" in capsys.readouterr().err


class TestDefaults:
    def test_parsed_defaults_equal_config_defaults(self):
        parser = cli.build_parser()
        embed = parser.parse_args(["embed", "--corpus", "c", "--out", "o"])
        assert cli._config(TrainConfig, embed) == TrainConfig()
        for argv in (["align", "--out-matrix", "w"], ["eval", "--matrix", "w", "--truth", "g"]):
            args = parser.parse_args([*argv, "--src-emb", "s", "--tgt-emb", "t"])
            assert cli._config(AdvConfig, args) == AdvConfig()
            assert cli._config(RefineConfig, args) == RefineConfig()
