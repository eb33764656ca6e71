"""Command-line pipeline: normalize, embed, seeds, align, query, eval.

Subcommands pass state through files (embeddings, seed dictionaries, mapping
matrices), so expensive steps can be reused across runs. Exit codes: 0 on
success, 1 on runtime or numeric failure, 2 on usage or input-format errors.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import adversarial, corpus, embedding, evaluation, query, refinement, seeding
from .errors import FormatError


def _add_adversarial_flags(p: argparse.ArgumentParser) -> None:
    d = adversarial.AdvConfig
    g = p.add_argument_group("adversarial stage")
    g.add_argument("--adv-epochs", type=int, default=d.epochs, help="adversarial epochs")
    g.add_argument("--adv-batch", type=int, default=d.batch_size, help="batch size per side")
    g.add_argument("--adv-lr", type=float, default=d.learning_rate,
                   help="momentum-SGD learning rate")
    g.add_argument("--adv-hidden", type=int, default=d.hidden_dim,
                   help="discriminator hidden width")
    g.add_argument("--adv-disc-steps", type=int, default=d.disc_steps_per_map_step,
                   help="discriminator updates per mapping update")
    g.add_argument("--adv-smoothing", type=float, default=d.label_smoothing,
                   help="label smoothing")
    g.add_argument("--adv-dropout", type=float, default=d.input_dropout,
                   help="discriminator input dropout")
    g.add_argument("--adv-steps-per-epoch", type=int, default=d.steps_per_epoch,
                   help="cycles per epoch (default: vocab size / batch)")
    g.add_argument("--selection-topk", type=int, default=d.selection_topk,
                   help="most-frequent source tokens scored by the selection criterion")


def _add_refinement_flags(p: argparse.ArgumentParser) -> None:
    d = refinement.RefineConfig
    g = p.add_argument_group("refinement stage")
    g.add_argument("--refine-topk", type=int, default=d.topk,
                   help="frequent source tokens used for candidate pairs")
    g.add_argument("--refine-threshold", type=float, default=d.threshold,
                   help="cosine threshold for the similarity candidate heuristic")
    g.add_argument("--refine-mode", choices=["union", "intersection"],
                   default=d.mode, help="candidate set combination")
    g.add_argument("--refine-iters", type=int, default=d.max_iters, help="maximum iterations")
    g.add_argument("--refine-patience", type=int, default=d.patience,
                   help="iterations without improvement before stopping")
    g.add_argument("--no-mutual-nn", action="store_true",
                   help="disable the mutual-nearest-neighbor candidate filter")


def _adv_config(args: argparse.Namespace) -> adversarial.AdvConfig:
    return adversarial.AdvConfig(
        epochs=args.adv_epochs,
        batch_size=args.adv_batch,
        learning_rate=args.adv_lr,
        hidden_dim=args.adv_hidden,
        disc_steps_per_map_step=args.adv_disc_steps,
        label_smoothing=args.adv_smoothing,
        input_dropout=args.adv_dropout,
        steps_per_epoch=args.adv_steps_per_epoch,
        selection_topk=args.selection_topk,
        rng_seed=args.seed,
    )


def _ref_config(args: argparse.Namespace) -> refinement.RefineConfig:
    return refinement.RefineConfig(
        topk=args.refine_topk,
        threshold=args.refine_threshold,
        mode=args.refine_mode,
        max_iters=args.refine_iters,
        patience=args.refine_patience,
        mutual_nn=not args.no_mutual_nn,
        selection_topk=args.selection_topk,
    )


def _load_space_pair(src_path: str, tgt_path: str):
    src = embedding.load_space(src_path)
    tgt = embedding.load_space(tgt_path)
    if src.dim != tgt.dim:
        raise FormatError(
            f"embedding dimensions differ: {src_path} has {src.dim}, "
            f"{tgt_path} has {tgt.dim}"
        )
    return src, tgt


def _cmd_normalize(args: argparse.Namespace) -> int:
    table = corpus.load_signature_table(args.table, args.keywords)
    lines = 0
    kept = 0
    dropped = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for seq in corpus.read_corpus(getattr(args, "in")):
            normalized, n_dropped = corpus.normalize_sequence(seq, table)
            if args.class_level:
                normalized = corpus.to_class_level(normalized)
            out.write(" ".join(normalized) + "\n")
            lines += 1
            kept += len(normalized)
            dropped += n_dropped
    print(f"normalized {lines} lines: {kept} tokens kept, {dropped} dropped")
    return 0


def _train_config(args: argparse.Namespace) -> embedding.TrainConfig:
    return embedding.TrainConfig(
        dim=args.dim,
        epochs=args.epochs,
        learning_rate=args.lr,
        negatives=args.negatives,
        window=args.window,
        subsample=args.subsample,
        min_count=args.min_count,
        workers=args.workers,
        rng_seed=args.seed,
    )


def _cmd_embed(args: argparse.Namespace) -> int:
    space = embedding.train_skipgram(corpus.read_corpus(args.corpus), _train_config(args))
    embedding.save_space(space, args.out)
    print(f"trained {len(space)} x {space.dim} embedding space -> {args.out}")
    return 0


def _cmd_seeds(args: argparse.Namespace) -> int:
    src, tgt = _load_space_pair(args.src_emb, args.tgt_emb)
    mined = seeding.mine_signature_seeds(src.vocab, tgt.vocab)
    seeding.save_seeds(mined, args.out)
    print(f"mined {len(mined)} signature seeds -> {args.out}")
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    stages = [s.strip().lower() for s in args.stages.split(",") if s.strip()]
    if not stages or any(s not in ("s", "a", "r") for s in stages):
        raise FormatError(f"--stages must be a comma list from s,a,r, got {args.stages!r}")
    if [s for s in "sar" if s in stages] != stages:
        raise FormatError("--stages must keep the s,a,r order")
    src, tgt = _load_space_pair(args.src_emb, args.tgt_emb)

    if "s" in stages:
        if not args.seeds:
            raise FormatError("--seeds is required when the s stage is enabled")
        seeds = seeding.load_seeds(args.seeds)
        x_s, y_s = seeding.seed_matrices(seeds, src, tgt)
        w = seeding.solve_procrustes(x_s, y_s)
        print(f"seeding: solved on {x_s.shape[0]} usable seed pairs")
    else:
        w = seeding.MappingMatrix(
            seeding.random_orthogonal(src.dim, np.random.default_rng(args.seed)),
            seeding.STAGE_SEEDED,
            orthogonal=True,
        )
        print("seeding skipped: starting from a random orthogonal matrix")

    if "a" in stages:
        history: list[adversarial.AdvEpoch] = []
        w = adversarial.train_adversarial(w, src, tgt, _adv_config(args), history)
        if args.log:
            adversarial.write_training_log(history, args.log)
        best = max((h.criterion for h in history), default=float("nan"))
        print(f"adversarial: {len(history)} epochs, best criterion {best:.4f}")

    if "r" in stages:
        report: list[refinement.RefineStep] = []
        w = refinement.refine(w, src, tgt, _ref_config(args), report)
        if args.refine_report:
            refinement.write_refine_report(report, args.refine_report)
        print(f"refinement: {max(0, len(report) - 1)} iterations")

    seeding.save_matrix(w, args.out_matrix)
    print(f"mapping matrix ({w.stage}) -> {args.out_matrix}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    src, tgt = _load_space_pair(args.src_emb, args.tgt_emb)
    w = seeding.load_matrix(args.matrix)
    if w.dim != src.dim:
        raise FormatError(
            f"matrix dimension {w.dim} does not match embeddings ({src.dim})"
        )
    tokens = list(args.tokens)
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            tokens.extend(line.strip() for line in fh if line.strip())
    if not tokens:
        raise FormatError("no query tokens given (positional or --file)")
    results = query.batch_query(tokens, w, src, tgt, args.k, args.threshold)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for r in results:
            if r.oov:
                out.write(f"{r.query_token}\t-\tOOV\t-\n")
                continue
            for rank, (token, sim) in enumerate(r.neighbors, start=1):
                out.write(f"{r.query_token}\t{rank}\t{token}\t{sim:.6f}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    src, tgt = _load_space_pair(args.src_emb, args.tgt_emb)
    w = seeding.load_matrix(args.matrix)
    if w.dim != src.dim:
        raise FormatError(
            f"matrix dimension {w.dim} does not match embeddings ({src.dim})"
        )
    truth = evaluation.load_ground_truth(args.truth, args.multi_target)
    k_list = tuple(int(k) for k in args.k_list.split(","))
    config_echo = (
        f"matrix={args.matrix} truth={args.truth} k_list={args.k_list} seed={args.seed}"
    )

    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        out.write(f"# config: {config_echo}\n")
        sources = truth.sources()
        results = query.batch_query(sources, w, src, tgt, max(k_list))
        writer.writerow(["k", "accuracy"])
        for k in k_list:
            writer.writerow([k, f"{evaluation.topk_accuracy(results, truth, k):.6f}"])
        p, r, f = evaluation.precision_recall_f(results, truth)
        writer.writerow(["precision", f"{p:.6f}"])
        writer.writerow(["recall", f"{r:.6f}"])
        writer.writerow(["f_score", f"{f:.6f}"])
    finally:
        if args.out:
            out.close()

    if args.thresholds:
        thresholds = [float(t) for t in args.thresholds.split(",")]
        rows = evaluation.coverage_rows(results, truth, thresholds, k_list)
        dest = open(args.coverage_out, "w", encoding="utf-8", newline="") \
            if args.coverage_out else sys.stdout
        try:
            writer = csv.writer(dest)
            dest.write(f"# config: {config_echo} thresholds={args.thresholds}\n")
            writer.writerow(["threshold", "k", "coverage", "accuracy_covered",
                             "accuracy_overall"])
            for row in rows:
                writer.writerow([row.threshold, row.k, f"{row.coverage:.6f}",
                                 f"{row.accuracy_covered:.6f}",
                                 f"{row.accuracy_overall:.6f}"])
        finally:
            if args.coverage_out:
                dest.close()

    if args.ablation:
        if not args.seeds:
            raise FormatError("--seeds is required for --ablation")
        seeds = seeding.load_seeds(args.seeds)
        grid = [g.strip() for g in args.ablation.split(",") if g.strip()]
        reports = evaluation.run_ablation(
            src, tgt, seeds, truth, grid,
            adv_cfg=_adv_config(args), ref_cfg=_ref_config(args),
            k_list=k_list, rng_seed=args.seed,
        )
        dest = open(args.ablation_out, "w", encoding="utf-8", newline="") \
            if args.ablation_out else sys.stdout
        try:
            writer = csv.writer(dest)
            dest.write(f"# config: {config_echo} ablation={args.ablation}\n")
            writer.writerow(["stages", "k", "accuracy"])
            for name, report in reports.items():
                for k in k_list:
                    writer.writerow([name, k, f"{report.topk[k]:.6f}"])
        finally:
            if args.ablation_out:
                dest.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apimap",
        description="Mine cross-language API mappings by aligning two "
        "independently trained code-token embedding spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    p = sub.add_parser("normalize", help="normalize a raw token corpus", **fmt)
    p.add_argument("--in", required=True, help="input corpus, one sequence per line")
    p.add_argument("--table", required=True, help="TSV raw_token<TAB>qualified_signature")
    p.add_argument("--keywords", default=None, help="pass-through tokens, one per line")
    p.add_argument("--out", required=True)
    p.add_argument("--class-level", action="store_true",
                   help="truncate method signatures to package and class")
    p.set_defaults(func=_cmd_normalize)

    d = embedding.TrainConfig
    p = sub.add_parser("embed", help="train skip-gram embeddings", **fmt)
    p.add_argument("--corpus", required=True, help="normalized corpus file")
    p.add_argument("--out", required=True, help="embedding output path")
    p.add_argument("--dim", type=int, default=d.dim, help="embedding dimension")
    p.add_argument("--epochs", type=int, default=d.epochs, help="training passes")
    p.add_argument("--lr", type=float, default=d.learning_rate, help="initial learning rate")
    p.add_argument("--negatives", type=int, default=d.negatives,
                   help="negative samples per pair")
    p.add_argument("--window", type=int, default=d.window, help="maximum context window")
    p.add_argument("--subsample", type=float, default=d.subsample,
                   help="frequent-token subsampling rate")
    p.add_argument("--min-count", type=int, default=d.min_count, help="minimum token count")
    p.add_argument("--workers", type=int, default=d.workers,
                   help="training threads; 1 guarantees reproducibility")
    p.add_argument("--seed", type=int, default=d.rng_seed, help="RNG seed")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("seeds", help="mine signature-matched seed pairs", **fmt)
    p.add_argument("--src-emb", required=True, help="source embedding file")
    p.add_argument("--tgt-emb", required=True, help="target embedding file")
    p.add_argument("--out", required=True, help="seed TSV output path")
    p.set_defaults(func=_cmd_seeds)

    p = sub.add_parser("align", help="learn the mapping matrix", **fmt)
    p.add_argument("--src-emb", required=True, help="source embedding file")
    p.add_argument("--tgt-emb", required=True, help="target embedding file")
    p.add_argument("--seeds", default=None, help="seed TSV (required for stage s)")
    p.add_argument("--stages", default="s,a,r",
                   help="comma list from s (seed), a (adversarial), r (refine)")
    p.add_argument("--out-matrix", required=True, help="mapping matrix output path")
    p.add_argument("--log", default=None, help="adversarial per-epoch CSV log")
    p.add_argument("--refine-report", default=None, help="refinement per-iteration CSV")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_adversarial_flags(p)
    _add_refinement_flags(p)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("query", help="map tokens and rank target neighbors", **fmt)
    p.add_argument("tokens", nargs="*", help="query tokens")
    p.add_argument("--matrix", required=True, help="mapping matrix file")
    p.add_argument("--src-emb", required=True, help="source embedding file")
    p.add_argument("--tgt-emb", required=True, help="target embedding file")
    p.add_argument("--k", type=int, default=10, help="neighbors per query")
    p.add_argument("--threshold", type=float, default=None,
                   help="drop neighbors below this cosine similarity")
    p.add_argument("--file", default=None, help="extra query tokens, one per line")
    p.add_argument("--out", default=None, help="TSV output path (default stdout)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="score a mapping against ground truth", **fmt)
    p.add_argument("--matrix", required=True, help="mapping matrix file")
    p.add_argument("--src-emb", required=True, help="source embedding file")
    p.add_argument("--tgt-emb", required=True, help="target embedding file")
    p.add_argument("--truth", required=True, help="ground-truth TSV")
    p.add_argument("--k-list", default="1,5,10", help="comma list of cutoffs")
    p.add_argument("--thresholds", default=None,
                   help="comma list of cosine thresholds for the coverage table")
    p.add_argument("--ablation", default=None,
                   help="comma list of stage combinations, e.g. S,S+A,S+A+R")
    p.add_argument("--seeds", default=None, help="seed TSV (needed for --ablation)")
    p.add_argument("--multi-target", action="store_true",
                   help="allow several expected targets per source")
    p.add_argument("--out", default=None)
    p.add_argument("--coverage-out", default=None)
    p.add_argument("--ablation-out", default=None)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_adversarial_flags(p)
    _add_refinement_flags(p)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FormatError, ValueError, FileNotFoundError) as exc:
        print(f"apimap: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime / numeric failure
        print(f"apimap: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
