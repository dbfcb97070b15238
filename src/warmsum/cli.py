"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, bad configs,
bad checkpoints), 3 numeric failure (NaN abort).
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import experiment
from . import tokenizer as tok
from .assembly import COPIED_PREFIXES, AssemblyMode, assemble, load_checkpoint, save_checkpoint
from .errors import DataError, NumericError
from .experiment import (ExperimentConfig, config_to_json, encoder_quality_text, load_config,
                         load_results, pretraining_lines, run_experiment, tokenizer_lines)
from .fileio import read_lines, write_atomic
from .rouge import corpus_rouge, pair_rouge
from .training import MetricsLog, finetune, pretrain_mlm


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: {message}")


def _cmd_tokenizer_train(args) -> int:
    vocab_size = load_config(args.config).tokenizer.target_vocab_size
    vocab = tok.train_bpe(tokenizer_lines(corpus_mod.load_jsonl(args.corpus)), vocab_size)
    tok.save_vocab(vocab, args.out)
    print(f"trained vocabulary of {vocab.size} tokens "
          f"({len(vocab.merges)} merges) -> {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = load_config(args.config)
    vocab = tok.load_vocab(args.vocab)
    model_cfg = cfg.model.to_model_config(vocab.size)
    log = MetricsLog(args.log) if args.log else None
    ckpt = pretrain_mlm(pretraining_lines(corpus_mod.load_jsonl(args.corpus)), vocab,
                        model_cfg, cfg.pretrain, log)
    ckpt.vocab_ref = str(args.vocab)
    save_checkpoint(ckpt, args.out)
    print(f"pretrained encoder ({cfg.pretrain.total_steps} steps) -> {args.out}")
    return 0


def _cmd_assemble(args) -> int:
    mode = AssemblyMode(args.mode)
    if COPIED_PREFIXES[mode] and not args.encoder:
        args.usage_error(f"--encoder is required for mode {args.mode}")
    cfg = load_config(args.config)
    vocab = tok.load_vocab(args.vocab)
    model_cfg = cfg.model.to_model_config(vocab.size)
    source = load_checkpoint(args.encoder) if args.encoder else None
    ckpt = assemble(source, mode, model_cfg, args.seed, vocab_ref=str(args.vocab))
    save_checkpoint(ckpt, args.out)
    print(f"assembled {mode.value} checkpoint (seed {args.seed}) -> {args.out}")
    return 0


def _config_and_checkpoint(args):
    """The command's config and checkpoint, refused unless the config's windows fit."""
    cfg, ckpt = load_config(args.config), load_checkpoint(args.ckpt)
    try:
        experiment.check_windows(cfg, ckpt.config.max_positions, "its max_positions")
    except DataError as e:
        raise DataError(f"config {args.config} does not fit checkpoint {args.ckpt}: {e}") from None
    return cfg, ckpt


def _cmd_finetune(args) -> int:
    cfg, ckpt = _config_and_checkpoint(args)
    ft_cfg = cfg.finetune if args.seed is None else dataclasses.replace(cfg.finetune,
                                                                        seed=args.seed)
    vocab = tok.load_vocab(args.vocab)
    train_set = corpus_mod.load_jsonl(args.train)
    dev_set = corpus_mod.load_jsonl(args.dev)
    log = MetricsLog(args.log) if args.log else None
    best, log = finetune(ckpt, train_set, dev_set, vocab, ft_cfg, log,
                         eval_limit=cfg.dev_eval_limit)
    save_checkpoint(best, args.out)
    prov = best.provenance
    print(f"fine-tuned {ft_cfg.total_steps} steps; best dev rouge_l "
          f"{prov['best_dev_rouge_l']:.4f} at step {prov['best_step']} -> {args.out}")
    return 0


def _cmd_generate(args) -> int:
    cfg, ckpt = _config_and_checkpoint(args)
    vocab = tok.load_vocab(args.vocab)
    outs = experiment._decode_test(cfg, ckpt, read_lines(args.input), vocab)
    write_atomic(args.out, "".join(out + "\n" for out in outs))
    print(f"wrote {len(outs)} summaries -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cands = read_lines(args.candidates)
    refs = read_lines(args.references)
    if len(cands) != len(refs):
        raise DataError(f"candidate file has {len(cands)} lines, "
                        f"reference file has {len(refs)}")
    scores = corpus_rouge(list(zip(cands, refs)))
    print(f"{'metric':<8} {'precision':>10} {'recall':>10} {'f1':>10}")
    for name in ("rouge1", "rouge2", "rougeL"):
        s = scores[name]
        print(f"{name:<8} {s.precision * 100:>10.2f} {s.recall * 100:>10.2f} "
              f"{s.f1 * 100:>10.2f}")
    if args.csv:
        lines = ["line,metric,precision,recall,f1"]
        for i, (cand, ref) in enumerate(zip(cands, refs)):
            for name, sc in pair_rouge(cand, ref).items():
                lines.append(f"{i},{name},{sc.precision:.6f},{sc.recall:.6f},{sc.f1:.6f}")
        for name in ("rouge1", "rouge2", "rougeL"):
            s = scores[name]
            lines.append(f"aggregate,{name},{s.precision:.6f},{s.recall:.6f},{s.f1:.6f}")
        write_atomic(args.csv, "\n".join(lines) + "\n")
    return 0


def _ratios(text: str) -> tuple[float, ...]:
    """argparse type of --ratios: three comma-separated split ratios."""
    try:
        ratios = tuple(float(x) for x in text.split(","))
        corpus_mod.check_ratios(ratios)
    except ValueError as e:  # DataError is a ValueError
        raise argparse.ArgumentTypeError(f"{text!r}: {e}") from None
    return ratios


def _cmd_stats(args) -> int:
    examples = corpus_mod.load_jsonl(args.corpus)
    splits = corpus_mod.split(examples, args.ratios, args.seed)
    stats = corpus_mod.compute_stats(splits)
    name = args.name or Path(args.corpus).stem
    sys.stdout.write(corpus_mod.render_stats_table(stats, name))
    if args.csv:
        write_atomic(args.csv, corpus_mod.stats_csv(stats, name))
    return 0


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    # SIGTERM unwinds the run as Ctrl-C does, so its workers stop with it
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        run_experiment(cfg)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return _cmd_report(argparse.Namespace(dir=cfg.output_dir))  # what `report` prints


def _cmd_report(args) -> int:
    table = load_results(args.dir)
    sys.stdout.write(table.render_text() + encoder_quality_text(args.dir))
    return 0


def _cmd_config(args) -> int:
    sys.stdout.write(config_to_json(ExperimentConfig()))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="warmsum",
                     description="Desk-scale warm-started summarization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> _Parser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, usage_error=p.error)
        return p

    p = command("tokenizer-train", _cmd_tokenizer_train,
                "train a BPE vocabulary from a JSONL corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = command("pretrain", _cmd_pretrain, "MLM-pretrain an encoder")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--log")
    p.add_argument("--out", required=True)

    p = command("assemble", _cmd_assemble, "build a seq2seq checkpoint from an encoder")
    p.add_argument("--config", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--mode", required=True, type=str.upper,
                   choices=[m.value for m in AssemblyMode])
    p.add_argument("--encoder")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("finetune", _cmd_finetune,
                "teacher-forced fine-tuning on (body, abstract) pairs")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--log")
    p.add_argument("--out", required=True)

    p = command("generate", _cmd_generate,
                "summarize bodies from a file, one per line, as the config decodes")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = command("evaluate", _cmd_evaluate, "ROUGE between aligned candidate/reference files")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--csv")

    p = command("stats", _cmd_stats, "split a corpus and print its statistics table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ratios", type=_ratios, default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--name")
    p.add_argument("--csv")

    p = command("run", _cmd_run, "run the full comparison experiment from a config")
    p.add_argument("--config", required=True)

    p = command("report", _cmd_report, "render the results table from persisted artifacts")
    p.add_argument("--dir", required=True)

    command("config", _cmd_config, "print the default config")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, IsADirectoryError, PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
