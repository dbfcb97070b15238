"""The three workloads: set-up, one round of timed operations, and checks.

Each workload runs in one process with one caller that waits for each call
(a closed loop). A round always attempts the same operations, so repeated
rounds give identical outputs, and the checks compare every round with the
first.

The program is called through module attributes (`decoding.greedy_decode_batch`,
not a name imported from it), so a traced run sees every call.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from warmsum import (assembly, corpus, decoding, experiment, rouge, synthetic,
                     tokenizer, training)
from warmsum.model import EncoderDecoderModel, ModelConfig

import checks

ROOT = Path(__file__).resolve().parent.parent
VIETNAMESE_CORPUS = ROOT / "data" / "mini_corpus.jsonl"
CELL_SEED = 1  # model initialization and batch order of every fine-tuned model
GREEDY_BATCH = 32


@dataclass
class Round:
    attempted: int
    failed: int
    quality: float  # ROUGE-L F1 x100 of the round's summaries
    outputs: dict  # what the checks compare across rounds
    errors: list[str] = field(default_factory=list)


def _attempt(errors: list[str], fn, *args):
    """Call fn; on failure record the traceback and return None."""
    try:
        return fn(*args)
    except Exception:  # the closed loop keeps going and counts the failure
        errors.append(traceback.format_exc())
        return None


def _encode_sources(examples, vocab, window: int) -> list[list[int]]:
    return [training.frame_ids(tokenizer.encode(ex.body, vocab).ids, window)
            for ex in examples]


def _beam_checks(model, srcs, hyps, greedy_outs, max_len: int) -> list[str | None]:
    """Beam-1 with alpha 0 equals greedy; every hypothesis scores as teacher forcing does."""
    results = []
    for src, hyp, greedy in zip(srcs, hyps, greedy_outs):
        one = decoding.beam_search(model, src, 1, max_len, 0.0)
        results.append(checks.check_same("beam-1 and greedy", one.tolist(), greedy.tolist()))
        results.append(checks.check_logprob(
            hyp.logprob, decoding.sequence_logprob(model, src, list(hyp.ids))))
    return results


def _rouge_parts(scores) -> dict[str, tuple[float, float, float]]:
    return {k: (s.precision, s.recall, s.f1) for k, s in scores.items()}


# -- warm-start ----------------------------------------------------------------


@dataclass(frozen=True)
class WarmStartSize:
    n_pairs: int = 2000
    mlm_steps: int = 1200
    finetune_steps: int = 300


class WarmStart:
    """run_experiment with one cell per mode, on the calibrated corpus and seeds.

    The inputs are those of ExperimentConfig() (corpus seed 7, split seed 13,
    cell seed 1) and do not depend on --seed: at this size the cells' ROUGE-L
    moves more between corpora than any bound allows.
    """

    name = "warm-start"
    corpus_seed = 7

    def __init__(self, size: WarmStartSize = WarmStartSize()):
        self.size = size

    def config(self, corpus_path: Path, out: Path) -> experiment.ExperimentConfig:
        base, s = experiment.ExperimentConfig(), self.size
        return replace(
            base,
            corpus=replace(base.corpus, path=str(corpus_path), synthetic=None,
                           ratios=(0.4, 0.1, 0.5)),
            model=replace(base.model, n_enc_layers=1, n_dec_layers=1),
            pretrain=replace(base.pretrain, learning_rate=1e-2, total_steps=s.mlm_steps,
                             warmup_steps=max(1, s.mlm_steps // 20)),
            finetune=replace(base.finetune, total_steps=s.finetune_steps,
                             warmup_steps=max(1, s.finetune_steps // 10)),
            seeds=(CELL_SEED,), output_dir=str(out))

    def setup(self, seed: int, work: Path) -> dict:
        examples = synthetic.generate_corpus(synthetic.SyntheticSettings(
            n_pairs=self.size.n_pairs, seed=self.corpus_seed))
        work.mkdir(parents=True, exist_ok=True)
        path = work / "corpus.jsonl"
        corpus.save_jsonl(examples, path)
        return {"corpus_path": path}

    def run(self, state: dict, work: Path) -> Round:
        cfg = self.config(state["corpus_path"], work)
        errors: list[str] = []
        table = _attempt(errors, experiment.run_experiment, cfg)
        n_ops = 1 + len(cfg.modes) * len(cfg.seeds)  # one pretraining run, then the cells
        if table is None:
            return Round(n_ops, n_ops, 0.0, {}, errors)
        errors += [f"{m} seed {s}: {msg}" for m, s, msg in table.failures]
        cells = {}
        for row in table.rows:
            scores = json.loads((work / "cells" / f"{row.mode}_s{row.seed}" / "scores.json")
                                .read_text(encoding="utf-8"))
            cells[row.mode] = scores["decodes_sha256"]
        quality = next((r.rougeL for r in table.rows if r.mode == "WARM2WARM"), 0.0)
        return Round(n_ops, len(table.failures), quality,
                     {"dir": work, "cfg": cfg, "decodes": cells}, errors)

    def check(self, state: dict, rounds: list[Round]) -> dict[str, str | None]:
        last = rounds[-1].outputs
        if not last:
            return {"experiment ran": "run_experiment raised"}
        out, cfg = last["dir"], last["cfg"]
        results = {"rounds agree": checks.first_failure(
            checks.check_same("round decodes", r.outputs.get("decodes"), last["decodes"])
            for r in rounds)}

        def read_split(name):
            with open(out / "data" / f"{name}.jsonl", encoding="utf-8") as f:
                return [json.loads(line) for line in f if line.strip()]

        def docs(split):
            return [f"{ex['body']} {ex['abstract']}" for ex in split]

        train, dev, test = read_split("train"), read_split("dev"), read_split("test")
        vocab = tokenizer.load_vocab(out / "vocab.txt")
        encoder = assembly.load_checkpoint(out / "encoder_mlm.ckpt")
        loss, _ = training.evaluate_mlm(encoder, docs(dev), vocab, cfg.pretrain)
        results["MLM beats unigram by 1 nat"] = checks.check_margin(
            loss, checks.unigram_entropy(docs(train)), 1.0)

        refs = [ex["abstract"] for ex in test]
        rouge_l, recomputed, hashes = {}, [], []
        for mode in cfg.modes:
            cell = out / "cells" / f"{mode}_s{CELL_SEED}"
            scores = json.loads((cell / "scores.json").read_text(encoding="utf-8"))
            decodes = (cell / "test_decodes.txt").read_text(encoding="utf-8").split("\n")[:-1]
            reported = {k: (scores[k]["precision"], scores[k]["recall"], scores[k]["f1"])
                        for k in ("rouge1", "rouge2", "rougeL")}
            if len(decodes) != len(refs):
                recomputed.append(f"{mode}: {len(decodes)} decodes for {len(refs)} references")
            else:
                recomputed.append(checks.check_rouge(list(zip(decodes, refs)), reported))
            hashes.append(checks.check_sha256(cell / "test_decodes.txt",
                                              scores["decodes_sha256"]))
            rouge_l[mode] = 100 * checks.rouge(list(zip(decodes, refs)))["rougeL"][2]
        results["ROUGE recomputed"] = checks.first_failure(recomputed)
        results["decodes_sha256"] = checks.first_failure(hashes)
        results["WARM2WARM >= WARM2RND >= RND2RND"] = checks.check_ordering(rouge_l)
        return results


# -- synthetic-decode -------------------------------------------------------------


@dataclass(frozen=True)
class DecodeSize:
    n_pairs: int = 5000
    finetune_steps: int = 200


class SyntheticDecode:
    """Greedy and beam decoding of the synthetic test split, then ROUGE.

    The decode model is fine-tuned during set-up and saved; each round loads
    it, as `warmsum generate` does. Fine-tuning runs in a child process, so
    the garbage of its taped steps stays out of this process's peak memory.
    --seed is the split seed.
    """

    name = "synthetic-decode"
    max_len = 10
    beam_size = 4
    beam_every = 100  # beam-decode every 100th test body
    check_every = 40  # teacher-force every 40th greedy decode

    def __init__(self, size: DecodeSize = DecodeSize()):
        self.size = size

    def setup(self, seed: int, work: Path) -> dict:
        base, s = experiment.ExperimentConfig(), self.size
        examples = synthetic.generate_corpus(replace(base.corpus.synthetic, n_pairs=s.n_pairs))
        splits = corpus.split(examples, base.corpus.ratios, seed)
        train = splits["train"]
        vocab = tokenizer.train_bpe([ex.body for ex in train] + [ex.abstract for ex in train],
                                    base.tokenizer.target_vocab_size)
        model_cfg = base.model.to_model_config(vocab.size)
        start = assembly.assemble(None, assembly.AssemblyMode.RND2RND, model_cfg, CELL_SEED)
        ft_cfg = replace(base.finetune, learning_rate=3e-3, total_steps=s.finetune_steps,
                         warmup_steps=max(1, s.finetune_steps // 10), seed=CELL_SEED)
        work.mkdir(parents=True, exist_ok=True)
        path = work / "decode_model.ckpt"
        child = multiprocessing.get_context("fork").Process(
            target=_finetune_and_save,
            args=(start, train, splits["dev"], vocab, ft_cfg, base.dev_eval_limit, path))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"fine-tuning the decode model exited with {child.exitcode}")
        test = splits["test"]
        return {"ckpt": path, "vocab": vocab, "test": test, "window": ft_cfg.max_src_len,
                "beam_idx": list(range(0, len(test), self.beam_every))}

    def run(self, state: dict, work: Path) -> Round:
        vocab, test, errors = state["vocab"], state["test"], []
        model = EncoderDecoderModel.from_checkpoint(assembly.load_checkpoint(state["ckpt"]))
        srcs = _encode_sources(test, vocab, state["window"])
        greedy, failed = [], 0
        for start in range(0, len(srcs), GREEDY_BATCH):
            batch = srcs[start:start + GREEDY_BATCH]
            outs = _attempt(errors, decoding.greedy_decode_batch, model, batch, self.max_len)
            failed += 0 if outs is not None else len(batch)
            greedy.extend(outs if outs is not None else [None] * len(batch))
        beams = [_attempt(errors, decoding.beam_search_hypothesis, model, srcs[i],
                          self.beam_size, self.max_len, 1.0) for i in state["beam_idx"]]
        failed += sum(h is None for h in beams)
        texts = [tokenizer.decode(list(o), vocab) for o in greedy if o is not None]
        refs = [ex.abstract for ex, o in zip(test, greedy) if o is not None]
        scores = rouge.corpus_rouge(list(zip(texts, refs)))
        outputs = {"model": model, "srcs": srcs, "greedy": greedy, "beams": beams,
                   "texts": texts, "refs": refs, "scores": _rouge_parts(scores),
                   "key": (texts, [h and h.ids for h in beams])}
        return Round(len(srcs) + len(beams), failed, 100 * scores["rougeL"].f1, outputs, errors)

    def check(self, state: dict, rounds: list[Round]) -> dict[str, str | None]:
        out = rounds[-1].outputs
        model, srcs, greedy = out["model"].eval(), out["srcs"], out["greedy"]
        results = {"rounds agree": checks.first_failure(
            checks.check_same("round outputs", r.outputs["key"], out["key"]) for r in rounds)}
        argmax = []
        for i in range(0, len(srcs), self.check_every):
            if greedy[i] is None:
                continue
            ids = greedy[i].tolist()
            src = np.asarray([srcs[i]])
            memory = model.encode(src)
            logits = model.decode_logits(np.asarray([ids[:-1]]), memory, src != checks.PAD).data[0]
            if len(ids) - 1 < self.max_len and ids[-1] != checks.EOS:
                argmax.append(f"example {i} stopped before max_len without EOS")
            argmax.append(checks.greedy_token_mismatch(logits, ids))
        results["greedy is teacher-forced argmax"] = checks.first_failure(argmax)
        pairs = [(i, h) for i, h in zip(state["beam_idx"], out["beams"])
                 if h is not None and greedy[i] is not None]
        results["beam-1 equals greedy; beam log-probs"] = checks.first_failure(_beam_checks(
            model, [srcs[i] for i, _ in pairs], [h for _, h in pairs],
            [greedy[i] for i, _ in pairs], self.max_len))
        results["ROUGE recomputed"] = checks.check_rouge(
            list(zip(out["texts"], out["refs"])), out["scores"])
        return results


def _finetune_and_save(start, train, dev, vocab, cfg, eval_limit, path) -> None:
    best, _ = training.finetune(start, train, dev, vocab, cfg,
                                eval_every=cfg.total_steps, eval_limit=eval_limit)
    assembly.save_checkpoint(best, path)


# -- vietnamese-long --------------------------------------------------------------


@dataclass(frozen=True)
class VietnameseSize:
    finetune_steps: int = 40


class VietnameseLong:
    """BPE, fine-tuning and beam-4 decoding on the bundled Vietnamese corpus.

    BPE is trained in set-up on all 60 bodies and abstracts, so every body
    encodes without UNK. Each round fine-tunes a fresh model with a source
    window that holds every body whole and beam-decodes the held-out bodies.
    The split (seed 13) and the cell seed are fixed and --seed is not used:
    trained on 36 pairs, the model emits one template summary, and which
    template it learns, and so its ROUGE-L, changes with the split.
    """

    name = "vietnamese-long"
    split_seed = 13
    vocab_size = 512
    src_window, tgt_window = 128, 16
    max_len, beam_size = 24, 4
    eval_every = 10  # fine-tuning's dev evaluation

    def __init__(self, size: VietnameseSize = VietnameseSize()):
        self.size = size

    def setup(self, seed: int, work: Path) -> dict:
        examples = corpus.load_jsonl(VIETNAMESE_CORPUS)
        splits = corpus.split(examples, (0.6, 0.2, 0.2), self.split_seed)
        vocab = tokenizer.train_bpe([ex.body for ex in examples]
                                    + [ex.abstract for ex in examples], self.vocab_size)
        model_cfg = ModelConfig(vocab.size, d_model=32, n_heads=4, d_ff=64, n_enc_layers=2,
                                n_dec_layers=2, max_positions=self.src_window, dropout=0.0)
        start = assembly.assemble(None, assembly.AssemblyMode.RND2RND, model_cfg, CELL_SEED)
        ft_cfg = training.TrainConfig(
            learning_rate=3e-3, total_steps=self.size.finetune_steps,
            warmup_steps=max(1, self.size.finetune_steps // 10), batch_size=8,
            max_src_len=self.src_window, max_tgt_len=self.tgt_window, seed=CELL_SEED)
        return {"examples": examples, "splits": splits, "vocab": vocab, "start": start,
                "ft_cfg": ft_cfg}

    def run(self, state: dict, work: Path) -> Round:
        splits, vocab, errors = state["splits"], state["vocab"], []
        test = splits["test"]
        tuned = _attempt(errors, training.finetune, state["start"], splits["train"],
                         splits["dev"], vocab, state["ft_cfg"], None, self.eval_every)
        if tuned is None:
            return Round(len(test), len(test), 0.0, {}, errors)
        best, log = tuned
        model = EncoderDecoderModel.from_checkpoint(best)
        srcs = _encode_sources(test, vocab, self.src_window)
        beams = [_attempt(errors, decoding.beam_search_hypothesis, model, s,
                          self.beam_size, self.max_len, 1.0) for s in srcs]
        kept = [(h, ex) for h, ex in zip(beams, test) if h is not None]
        texts = [tokenizer.decode(list(h.ids), vocab) for h, _ in kept]
        refs = [ex.abstract for _, ex in kept]
        scores = rouge.corpus_rouge(list(zip(texts, refs)))
        outputs = {"model": model, "srcs": srcs, "beams": beams, "log": log.rows,
                   "texts": texts, "refs": refs, "scores": _rouge_parts(scores),
                   "key": (texts, log.rows)}
        failed = sum(h is None for h in beams)
        return Round(len(test), failed, 100 * scores["rougeL"].f1, outputs, errors)

    def check(self, state: dict, rounds: list[Round]) -> dict[str, str | None]:
        out = rounds[-1].outputs
        if not out:
            return {"fine-tuning ran": "finetune raised"}
        vocab, cfg = state["vocab"], state["ft_cfg"]
        results = {"rounds agree": checks.first_failure(
            checks.check_same("round outputs", r.outputs.get("key"), out["key"])
            for r in rounds)}
        trips, windows = [], []
        for ex in state["examples"]:
            body_ids = tokenizer.encode(ex.body, vocab).ids
            trips.append(checks.check_round_trip(ex.body, body_ids,
                                                 tokenizer.decode(body_ids, vocab)))
            windows.append(checks.check_window(len(body_ids), self.src_window, f"body {ex.id}"))
            windows.append(checks.check_window(len(tokenizer.encode(ex.abstract, vocab).ids),
                                               self.tgt_window, f"abstract {ex.id}"))
        results["round trip without UNK"] = checks.first_failure(trips)
        results["windows hold every text"] = checks.first_failure(windows)

        losses = [row[2] for row in out["log"]]
        devs = [row[2] for row in out["log"] if row[1] == "dev"]
        start_loss = training._dev_loss(EncoderDecoderModel.from_checkpoint(state["start"]),
                                        training.encode_pairs(state["splits"]["dev"], vocab, cfg),
                                        cfg.batch_size)
        results["losses finite, dev loss falls"] = checks.check_losses(
            losses, start_loss, devs[-1] if devs else math.inf)

        model, srcs = out["model"].eval(), out["srcs"]
        pairs = [(s, h) for s, h in zip(srcs, out["beams"]) if h is not None]
        greedy = decoding.greedy_decode_batch(model, [s for s, _ in pairs], self.max_len) \
            if pairs else []
        results["beam-1 equals greedy; beam log-probs"] = checks.first_failure(_beam_checks(
            model, [s for s, _ in pairs], [h for _, h in pairs], greedy, self.max_len))
        results["ROUGE recomputed"] = checks.check_rouge(
            list(zip(out["texts"], out["refs"])), out["scores"])
        return results


WORKLOADS = {w.name: w for w in (WarmStart, SyntheticDecode, VietnameseLong)}
