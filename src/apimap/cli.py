"""Command-line pipeline: normalize, embed, seeds, align, query, eval.

Subcommands pass state through files (embeddings, seed dictionaries, mapping
matrices), so expensive steps can be reused across runs. Exit codes: 0 on
success, 1 on runtime or numeric failure, 2 on usage or input-format errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import sys

from . import adversarial, corpus, embedding, evaluation, query, refinement, seeding
from .errors import FormatError


def _add_stage_flags(p: argparse.ArgumentParser) -> None:
    """The --seed flag and the flags of AdvConfig and RefineConfig."""
    p.add_argument("--seed", dest="rng_seed", type=int, default=0, help="RNG seed")
    d = adversarial.AdvConfig
    g = p.add_argument_group("adversarial stage")
    g.add_argument("--adv-epochs", dest="epochs", type=int, default=d.epochs,
                   help="adversarial epochs")
    g.add_argument("--adv-batch", dest="batch_size", type=int, default=d.batch_size,
                   help="batch size per side")
    g.add_argument("--adv-lr", dest="learning_rate", type=float, default=d.learning_rate,
                   help="momentum-SGD learning rate")
    g.add_argument("--adv-hidden", dest="hidden_dim", type=int, default=d.hidden_dim,
                   help="discriminator hidden width")
    g.add_argument("--adv-disc-steps", dest="disc_steps_per_map_step", type=int,
                   default=d.disc_steps_per_map_step,
                   help="discriminator updates per mapping update")
    g.add_argument("--adv-smoothing", dest="label_smoothing", type=float,
                   default=d.label_smoothing, help="label smoothing")
    g.add_argument("--adv-dropout", dest="input_dropout", type=float,
                   default=d.input_dropout, help="discriminator input dropout")
    g.add_argument("--adv-steps-per-epoch", dest="steps_per_epoch", type=int,
                   default=d.steps_per_epoch,
                   help="cycles per epoch (default: vocab size / batch)")
    g.add_argument("--selection-topk", type=int, default=d.selection_topk,
                   help="most-frequent source tokens scored by the selection criterion")
    d = refinement.RefineConfig
    g = p.add_argument_group("refinement stage")
    g.add_argument("--refine-topk", dest="topk", type=int, default=d.topk,
                   help="most frequent source tokens scanned for candidate pairs; "
                   "in either mode only these can enter the dictionary")
    g.add_argument("--refine-threshold", dest="threshold", type=float, default=d.threshold,
                   help="cosine threshold for the similarity candidate heuristic")
    g.add_argument("--refine-mode", dest="mode", choices=["union", "intersection"],
                   default=d.mode, help="candidate set combination")
    g.add_argument("--refine-iters", dest="max_iters", type=int, default=d.max_iters,
                   help="maximum iterations")
    g.add_argument("--refine-patience", dest="patience", type=int, default=d.patience,
                   help="iterations without improvement before stopping")


def _config(cls, args: argparse.Namespace):
    """Build config dataclass ``cls`` from the flags whose dests are its field names."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _load_space_pair(args: argparse.Namespace):
    src = embedding.load_space(args.src_emb)
    tgt = embedding.load_space(args.tgt_emb)
    if src.dim != tgt.dim:
        raise FormatError(
            f"embedding dimensions differ: {args.src_emb} has {src.dim}, "
            f"{args.tgt_emb} has {tgt.dim}"
        )
    return src, tgt


def _load_aligned(args: argparse.Namespace):
    """The source and target spaces and the mapping matrix, dimension-checked."""
    src, tgt = _load_space_pair(args)
    w = seeding.load_matrix(args.matrix)
    if w.dim != src.dim:
        raise FormatError(
            f"matrix dimension {w.dim} does not match embeddings ({src.dim})"
        )
    return src, tgt, w


@contextlib.contextmanager
def _output(path: str | None):
    """Yield ``path`` opened for writing, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _write_csv(path: str | None, comment: str | None, header: list[str], rows) -> None:
    """Write ``# config: <comment>`` unless comment is None, then header and rows as CSV."""
    with _output(path) as out:
        if comment is not None:
            out.write(f"# config: {comment}\n")
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def _distinct(flag: str, items: list) -> list:
    """``items``; a repeated item is a FormatError naming ``flag`` and the item."""
    for i, item in enumerate(items):
        if item in items[:i]:
            raise FormatError(f"{flag}: item {item} is repeated")
    return items


def _number_list(flag: str, text: str, kind, in_range, expected: str) -> list:
    """The comma-separated items of ``text`` as ``kind``; an item that does not
    parse, fails ``in_range`` or repeats is a FormatError naming ``flag``."""
    try:
        values = [kind(item) for item in text.split(",")]
    except ValueError as exc:
        raise FormatError(f"{flag}: {exc}") from exc
    if not all(map(in_range, values)):
        raise FormatError(f"{flag}: every item must be {expected}, got {text!r}")
    return _distinct(flag, values)


def _cmd_normalize(args: argparse.Namespace) -> int:
    table = corpus.load_signature_table(args.table, args.keywords)
    lines = 0
    kept = 0
    dropped = 0
    # the input is opened first, so a missing one leaves no --out file behind
    with open(getattr(args, "in"), encoding="utf-8-sig") as fh, \
            open(args.out, "w", encoding="utf-8") as out:
        for seq in map(str.split, fh):
            normalized, n_dropped = corpus.normalize_sequence(seq, table)
            if args.class_level:
                normalized = corpus.to_class_level(normalized)
            out.write(" ".join(normalized) + "\n")
            lines += 1
            kept += len(normalized)
            dropped += n_dropped
    print(f"normalized {lines} lines: {kept} tokens kept, {dropped} dropped")
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    space = embedding.train_skipgram(
        corpus.read_corpus(args.corpus), _config(embedding.TrainConfig, args)
    )
    embedding.save_space(space, args.out)
    print(f"trained {len(space)} x {space.dim} embedding space -> {args.out}")
    return 0


def _cmd_seeds(args: argparse.Namespace) -> int:
    src, tgt = _load_space_pair(args)
    mined = seeding.mine_signature_seeds(src.vocab, tgt.vocab)
    seeding.save_seeds(mined, args.out)
    print(f"mined {len(mined)} signature seeds -> {args.out}")
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    stages = evaluation.parse_stages(args.stages)
    if "S" in stages and not args.seeds:
        raise FormatError("--seeds is required when the s stage is enabled")
    if args.log and "A" not in stages:
        raise FormatError("--log needs the a stage in --stages")
    if args.refine_report and "R" not in stages:
        raise FormatError("--refine-report needs the r stage in --stages")
    if args.seeds and "S" not in stages:
        raise FormatError("--seeds needs the s stage in --stages")
    adv_cfg = _config(adversarial.AdvConfig, args)
    ref_cfg = _config(refinement.RefineConfig, args)
    src, tgt = _load_space_pair(args)
    seeds = seeding.load_seeds(args.seeds) if "S" in stages else None
    run = evaluation.run_stages(stages, src, tgt, seeds, adv_cfg, ref_cfg, args.rng_seed)
    if seeds is not None:
        print(f"seeding: solved on {run.usable_seeds} usable seed pairs")
    else:
        print("seeding skipped: starting from a random orthogonal matrix")
    if "A" in stages:
        if args.log:
            _write_csv(args.log, None, ["epoch", "L_D", "L_W", "disc_accuracy", "criterion"], (
                [h.epoch, f"{h.disc_loss:.6f}", f"{h.map_loss:.6f}",
                 f"{h.disc_accuracy:.6f}", f"{h.criterion:.6f}"] for h in run.epochs))
        best = max(h.criterion for h in run.epochs)
        print(f"adversarial: {len(run.epochs)} epochs, best criterion {best:.4f}")
    if "R" in stages:
        if args.refine_report:
            _write_csv(args.refine_report, None, ["iter", "candidates", "criterion"], (
                [r.iteration, r.candidates, f"{r.criterion:.6f}"] for r in run.iterations))
        print(f"refinement: {len(run.iterations) - 1} iterations")

    seeding.save_matrix(run.w, args.out_matrix)
    print(f"mapping matrix ({run.w.stage}) -> {args.out_matrix}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    tokens = list(args.tokens)
    if args.file:
        tokens.extend(corpus.read_tokens(args.file))
    if not tokens:
        raise FormatError("no query tokens given (positional or --file)")
    if args.k < 1:
        raise FormatError(f"--k must be >= 1, got {args.k}")
    if args.threshold is not None and not 0 <= args.threshold < 1:
        raise FormatError(f"--threshold must be a number in [0, 1), got {args.threshold}")
    src, tgt, w = _load_aligned(args)
    results = query.batch_query(tokens, w, src, tgt, args.k, args.threshold)
    with _output(args.out) as out:
        for r in results:
            if r.oov:
                out.write(f"{r.query_token}\t-\tOOV\t-\n")
                continue
            for rank, (token, sim) in enumerate(r.neighbors, start=1):
                out.write(f"{r.query_token}\t{rank}\t{token}\t{sim:.6f}\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    specs = (args.ablation or "").split(",")
    grid = _distinct("--ablation", [evaluation.parse_stages(g) for g in specs if g.strip()])
    seeded = any("S" in name for name in grid)
    if seeded and not args.seeds:
        raise FormatError("--seeds is required when an --ablation item contains S")
    if args.coverage_out and not args.thresholds:
        raise FormatError("--coverage-out needs --thresholds")
    if args.ablation_out and not grid:
        raise FormatError("--ablation-out needs --ablation")
    k_list = tuple(_number_list("--k-list", args.k_list, int, lambda k: k >= 1,
                                "an integer >= 1"))
    thresholds = _number_list("--thresholds", args.thresholds, float, lambda t: 0 <= t < 1,
                              "a number in [0, 1)") if args.thresholds else []
    if args.seeds and not seeded:
        raise FormatError("--seeds needs an --ablation item that contains S")
    if grid:
        adv_cfg = _config(adversarial.AdvConfig, args)
        ref_cfg = _config(refinement.RefineConfig, args)
    src, tgt, w = _load_aligned(args)
    truth = evaluation.load_ground_truth(args.truth, args.multi_target)
    seeds = seeding.load_seeds(args.seeds) if seeded else None
    config_echo = (
        f"matrix={args.matrix} truth={args.truth} k_list={args.k_list} seed={args.rng_seed}"
    )

    results = query.batch_query(truth.sources(), w, src, tgt, max(k_list))
    p, r, f = evaluation.precision_recall_f(results, truth)
    _write_csv(args.out, config_echo, ["k", "accuracy"], [
        *([k, f"{evaluation.topk_accuracy(results, truth, k):.6f}"] for k in k_list),
        ["precision", f"{p:.6f}"], ["recall", f"{r:.6f}"], ["f_score", f"{f:.6f}"],
    ])

    if thresholds:
        rows = evaluation.coverage_rows(results, truth, thresholds, k_list)
        _write_csv(
            args.coverage_out, f"{config_echo} thresholds={args.thresholds}",
            ["threshold", "k", "coverage", "accuracy_covered", "accuracy_overall"],
            ([row.threshold, row.k, f"{row.coverage:.6f}", f"{row.accuracy_covered:.6f}",
              f"{row.accuracy_overall:.6f}"] for row in rows),
        )

    if grid:
        reports = evaluation.run_ablation(src, tgt, seeds, truth, grid, adv_cfg, ref_cfg,
                                          k_list, args.rng_seed)
        _write_csv(
            args.ablation_out, f"{config_echo} ablation={args.ablation}",
            ["stages", "k", "accuracy"],
            ([name, k, f"{topk[k]:.6f}"]
             for name, topk in reports.items() for k in k_list),
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apimap",
        description="Mine cross-language API mappings by aligning two "
        "independently trained code-token embedding spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}
    spaces = argparse.ArgumentParser(add_help=False)
    spaces.add_argument("--src-emb", required=True, help="source embedding file")
    spaces.add_argument("--tgt-emb", required=True, help="target embedding file")
    pair = {"parents": [spaces], **fmt}

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
    p.add_argument("--lr", dest="learning_rate", type=float, default=d.learning_rate,
                   help="initial learning rate")
    p.add_argument("--negatives", type=int, default=d.negatives,
                   help="negative samples per pair")
    p.add_argument("--window", type=int, default=d.window, help="maximum context window")
    p.add_argument("--subsample", type=float, default=d.subsample,
                   help="frequent-token subsampling rate")
    p.add_argument("--min-count", type=int, default=d.min_count, help="minimum token count")
    p.add_argument("--workers", type=int, default=d.workers,
                   help="training threads; 1 guarantees reproducibility")
    p.add_argument("--seed", dest="rng_seed", type=int, default=d.rng_seed, help="RNG seed")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("seeds", help="mine signature-matched seed pairs", **pair)
    p.add_argument("--out", required=True, help="seed TSV output path")
    p.set_defaults(func=_cmd_seeds)

    p = sub.add_parser("align", help="learn the mapping matrix", **pair)
    p.add_argument("--seeds", default=None, help="seed TSV (required for stage s)")
    p.add_argument("--stages", default="s,a,r",
                   help="s (seed), a (adversarial), r (refine) in that order, "
                   "separated by ',' or '+'")
    p.add_argument("--out-matrix", required=True, help="mapping matrix output path")
    p.add_argument("--log", default=None, help="adversarial per-epoch CSV log")
    p.add_argument("--refine-report", default=None, help="refinement per-iteration CSV")
    _add_stage_flags(p)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("query", help="map tokens and rank target neighbors", **pair)
    p.add_argument("tokens", nargs="*", help="query tokens")
    p.add_argument("--matrix", required=True, help="mapping matrix file")
    p.add_argument("--k", type=int, default=10, help="neighbors per query")
    p.add_argument("--threshold", type=float, default=None,
                   help="drop neighbors below this cosine similarity")
    p.add_argument("--file", default=None, help="extra query tokens, one per line")
    p.add_argument("--out", default=None, help="TSV output path (default stdout)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="score a mapping against ground truth", **pair)
    p.add_argument("--matrix", required=True, help="mapping matrix file")
    p.add_argument("--truth", required=True, help="ground-truth TSV")
    p.add_argument("--k-list", default="1,5,10", help="comma list of cutoffs")
    p.add_argument("--thresholds", default=None,
                   help="comma list of cosine thresholds for the coverage table")
    p.add_argument("--ablation", default=None,
                   help="comma list of stage combinations in the --stages "
                   "order, e.g. S,S+A,S+A+R")
    p.add_argument("--seeds", default=None,
                   help="seed TSV (needed when an --ablation item contains S)")
    p.add_argument("--multi-target", action="store_true",
                   help="allow several expected targets per source")
    p.add_argument("--out", default=None)
    p.add_argument("--coverage-out", default=None)
    p.add_argument("--ablation-out", default=None)
    _add_stage_flags(p)
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
    except (FormatError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"apimap: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime / numeric failure
        print(f"apimap: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
