"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, bad configs,
bad checkpoints), 3 numeric failure (NaN abort).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import tokenizer as tok
from .assembly import AssemblyMode, assemble, load_checkpoint, save_checkpoint
from .decoding import beam_search, greedy_decode_batch
from .errors import DataError, NumericError
from .experiment import (ExperimentConfig, config_from_json, config_to_json,
                         load_results, run_experiment)
from .model import EncoderDecoderModel
from .rouge import EvalTokenization, corpus_rouge, rouge_l, rouge_n, tokenize_for_eval
from .training import MetricsLog, finetune, frame_ids, pretrain_mlm


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: {message}")


def _load_config(path: str) -> ExperimentConfig:
    try:
        return config_from_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, DataError) as e:
        raise DataError(f"config {path}: {e}") from None


def _corpus_lines(path: str, fields: str) -> list[str]:
    examples = corpus_mod.load_jsonl(path)
    lines = []
    for name in fields.split(","):
        name = name.strip()
        if name not in ("body", "abstract"):
            raise DataError(f"unknown corpus field {name!r}")
        lines.extend(getattr(ex, name) for ex in examples)
    return lines


def _cmd_tokenizer_train(args) -> int:
    vocab = tok.train_bpe(_corpus_lines(args.corpus, args.fields),
                          args.vocab_size, args.pretokenize)
    tok.save_vocab(vocab, args.out)
    print(f"trained vocabulary of {vocab.size} tokens "
          f"({len(vocab.merges)} merges) -> {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _load_config(args.config)
    vocab = tok.load_vocab(args.vocab)
    model_cfg = cfg.model.to_model_config(vocab.size)
    log = MetricsLog(args.log) if args.log else None
    ckpt = pretrain_mlm(_corpus_lines(args.corpus, args.fields), vocab,
                        model_cfg, cfg.pretrain, log)
    ckpt.vocab_ref = str(args.vocab)
    save_checkpoint(ckpt, args.out)
    print(f"pretrained encoder ({cfg.pretrain.total_steps} steps) -> {args.out}")
    return 0


def _cmd_assemble(args) -> int:
    mode = AssemblyMode(args.mode.upper())
    if mode is not AssemblyMode.RND2RND and not args.encoder:
        args.usage_error(f"--encoder is required for mode {args.mode}")
    cfg = _load_config(args.config)
    vocab = tok.load_vocab(args.vocab)
    model_cfg = cfg.model.to_model_config(vocab.size)
    source = load_checkpoint(args.encoder) if args.encoder else None
    if mode is AssemblyMode.RND2RND:
        source = None
    ckpt = assemble(source, mode, model_cfg, args.seed, vocab_ref=str(args.vocab))
    save_checkpoint(ckpt, args.out)
    print(f"assembled {mode.value} checkpoint (seed {args.seed}) -> {args.out}")
    return 0


def _cmd_finetune(args) -> int:
    cfg = _load_config(args.config)
    ft_cfg = cfg.finetune if args.seed is None else dataclasses.replace(cfg.finetune,
                                                                        seed=args.seed)
    vocab = tok.load_vocab(args.vocab)
    ckpt = load_checkpoint(args.ckpt)
    train_set = corpus_mod.load_jsonl(args.train)
    dev_set = corpus_mod.load_jsonl(args.dev)
    log = MetricsLog(args.log) if args.log else None
    best, log = finetune(ckpt, train_set, dev_set, vocab, ft_cfg, log)
    save_checkpoint(best, args.out)
    prov = best.provenance
    print(f"fine-tuned {ft_cfg.total_steps} steps; best dev rouge_l "
          f"{prov['best_dev_rouge_l']:.4f} at step {prov['best_step']} -> {args.out}")
    return 0


def _cmd_generate(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    vocab = tok.load_vocab(args.vocab)
    model = EncoderDecoderModel.from_checkpoint(ckpt).eval()
    max_src = args.max_src_len or ckpt.config.max_positions
    bodies = Path(args.input).read_text(encoding="utf-8").splitlines()
    srcs = [frame_ids(tok.encode(body, vocab).ids, max_src) for body in bodies]
    if args.method == "greedy":
        outs = greedy_decode_batch(model, srcs, args.max_len)
    else:
        outs = [beam_search(model, s, args.beam_size, args.max_len, args.alpha,
                            args.block_repeat_ngram) for s in srcs]
    text = "\n".join(tok.decode(list(o), vocab) for o in outs) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {len(outs)} summaries -> {args.out}")
    return 0


def _read_lines(path: str) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _cmd_evaluate(args) -> int:
    cands = _read_lines(args.candidates)
    refs = _read_lines(args.references)
    if len(cands) != len(refs):
        raise DataError(f"candidate file has {len(cands)} lines, "
                        f"reference file has {len(refs)}")
    eval_tok = EvalTokenization(args.tokenization, args.lowercase)
    vocab = tok.load_vocab(args.vocab) if args.vocab else None
    scores = corpus_rouge(list(zip(cands, refs)), eval_tok, vocab)
    print(f"{'metric':<8} {'precision':>10} {'recall':>10} {'f1':>10}")
    for name in ("rouge1", "rouge2", "rougeL"):
        s = scores[name]
        print(f"{name:<8} {s.precision * 100:>10.2f} {s.recall * 100:>10.2f} "
              f"{s.f1 * 100:>10.2f}")
    if args.csv:
        lines = ["line,metric,precision,recall,f1"]
        for i, (cand, ref) in enumerate(zip(cands, refs)):
            ct = tokenize_for_eval(cand, eval_tok, vocab)
            rt = tokenize_for_eval(ref, eval_tok, vocab)
            for name, sc in (("rouge1", rouge_n(ct, rt, 1)),
                             ("rouge2", rouge_n(ct, rt, 2)),
                             ("rougeL", rouge_l(ct, rt))):
                lines.append(f"{i},{name},{sc.precision:.6f},{sc.recall:.6f},{sc.f1:.6f}")
        for name in ("rouge1", "rouge2", "rougeL"):
            s = scores[name]
            lines.append(f"aggregate,{name},{s.precision:.6f},{s.recall:.6f},{s.f1:.6f}")
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _cmd_stats(args) -> int:
    examples = corpus_mod.load_jsonl(args.corpus)
    ratios = tuple(float(x) for x in args.ratios.split(","))
    if len(ratios) != 3:
        raise DataError(f"--ratios needs three comma-separated numbers, got {args.ratios!r}")
    splits = corpus_mod.split(examples, ratios, args.seed)
    stats = corpus_mod.compute_stats(splits)
    name = args.name or Path(args.corpus).stem
    sys.stdout.write(corpus_mod.render_stats_table(stats, name))
    if args.csv:
        Path(args.csv).write_text(corpus_mod.stats_csv(stats, name), encoding="utf-8")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    table = run_experiment(cfg)
    sys.stdout.write(table.render_text())
    return 0


def _cmd_report(args) -> int:
    table = load_results(args.dir)
    sys.stdout.write(table.render_text())
    return 0


def _cmd_config(args) -> int:
    if not args.print_defaults:
        args.usage_error("nothing to do; use --print-defaults")
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
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--pretokenize", choices=tok.MODES, default="whitespace")
    p.add_argument("--fields", default="body,abstract")
    p.add_argument("--out", required=True)

    p = command("pretrain", _cmd_pretrain, "MLM-pretrain an encoder")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--fields", default="body,abstract")
    p.add_argument("--log")
    p.add_argument("--out", required=True)

    p = command("assemble", _cmd_assemble, "build a seq2seq checkpoint from an encoder")
    p.add_argument("--config", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--mode", required=True,
                   choices=["rnd2rnd", "warm2rnd", "warm2warm",
                            "RND2RND", "WARM2RND", "WARM2WARM"])
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

    p = command("generate", _cmd_generate, "summarize bodies from a file, one per line")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["greedy", "beam"], default="beam")
    p.add_argument("--beam-size", type=int, default=4)
    p.add_argument("--max-len", type=int, default=24)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--block-repeat-ngram", type=int, default=0)
    p.add_argument("--max-src-len", type=int)

    p = command("evaluate", _cmd_evaluate, "ROUGE between aligned candidate/reference files")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--tokenization", choices=["whitespace_words", "subword_ids"],
                   default="whitespace_words")
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--vocab")
    p.add_argument("--csv")

    p = command("stats", _cmd_stats, "split a corpus and print its statistics table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--name")
    p.add_argument("--csv")

    p = command("run", _cmd_run, "run the full comparison experiment from a config")
    p.add_argument("--config", required=True)

    p = command("report", _cmd_report, "render the results table from persisted artifacts")
    p.add_argument("--dir", required=True)

    p = command("config", _cmd_config, "configuration helpers")
    p.add_argument("--print-defaults", action="store_true")

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
