"""Config-driven experiment orchestration.

One experiment chains tokenizer training, MLM pretraining, checkpoint
assembly, fine-tuning, decoding and ROUGE scoring into a comparison table
over (assembly mode, seed) cells. Every intermediate artifact is persisted
under the output directory, cells resume from their persisted scores, and
the final table is byte-identical across reruns of the same config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import corpus as corpus_mod
from . import tokenizer as tok
from .assembly import (AssemblyMode, assemble, load_checkpoint, save_checkpoint)
from .decoding import beam_search, greedy_decode_batch
from .errors import DataError
from .fileio import write_atomic
from .model import EncoderDecoderModel, ModelConfig
from .rouge import EvalTokenization, corpus_rouge
from .synthetic import SyntheticSettings, generate_corpus
from .training import MetricsLog, TrainConfig, finetune, frame_ids, pretrain_mlm


@dataclass(frozen=True)
class TokenizerSettings:
    target_vocab_size: int = 256
    pretokenize_mode: str = "whitespace"


@dataclass(frozen=True)
class DecodingSettings:
    method: str = "greedy"  # "greedy" | "beam"
    beam_size: int = 4
    max_len: int = 24
    length_penalty_alpha: float = 1.0

    def __post_init__(self):
        if self.method not in ("greedy", "beam"):
            raise DataError(f"unknown decoding method {self.method!r}")


@dataclass(frozen=True)
class CorpusSettings:
    path: str = ""  # JSONL file; empty means generate synthetically
    synthetic: SyntheticSettings | None = SyntheticSettings()
    ratios: tuple[float, float, float] = (0.1, 0.1, 0.8)  # supervision-scarce
    split_seed: int = 13
    dataset_name: str = "synthetic"


@dataclass(frozen=True)
class ModelSettings:
    """ModelConfig minus vocab_size, which comes from the trained tokenizer."""
    d_model: int = 32
    n_heads: int = 4
    d_ff: int = 64
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    max_positions: int = 64
    dropout: float = 0.0

    def __post_init__(self):
        self.to_model_config(vocab_size=1)  # checks every field; the vocabulary comes later

    def to_model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, **dataclasses.asdict(self))


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: CorpusSettings = CorpusSettings()
    tokenizer: TokenizerSettings = TokenizerSettings()
    model: ModelSettings = ModelSettings()
    # windows hold whole documents: body_max + lead_k + 2 for a pretraining
    # "body abstract" document, body_max + 2 and lead_k + 2 for a pair
    pretrain: TrainConfig = TrainConfig(learning_rate=3e-3, total_steps=2000,
                                        batch_size=16, max_src_len=34, seed=0)
    # 500 steps is half the budget at which RND2RND catches up with the warm
    # starts (see the README): the benchmark measures the supervision-scarce regime
    finetune: TrainConfig = TrainConfig(learning_rate=1e-3, total_steps=500,
                                        warmup_steps=50, batch_size=8,
                                        max_src_len=26, max_tgt_len=10)
    modes: tuple[str, ...] = ("RND2RND", "WARM2RND", "WARM2WARM")
    seeds: tuple[int, ...] = (1, 2, 3)
    decoding: DecodingSettings = DecodingSettings(max_len=10)
    eval_tokenization: EvalTokenization = EvalTokenization()
    dev_eval_limit: int | None = 64  # dev examples decoded per periodic eval
    output_dir: str = "runs/experiment"

    def __post_init__(self):
        if not self.seeds or not all(type(s) is int for s in self.seeds):
            raise DataError(f"seeds must be a nonempty list of integers, got {self.seeds!r}")
        if not isinstance(self.output_dir, str):
            raise DataError(f"output_dir must be a string, got {self.output_dir!r}")
        limit = self.dev_eval_limit
        if limit is not None and (type(limit) is not int or limit < 1):
            raise DataError(f"dev_eval_limit must be a positive integer or null, got {limit!r}")
        modes = [m.value for m in AssemblyMode]
        for m in self.modes:
            if m not in modes:
                raise DataError(f"unknown assembly mode {m!r}; expected one of {modes}")
        # the decoder reads BOS plus up to max_len generated tokens, and dev
        # evaluation greedy-decodes max_tgt_len tokens
        positions = self.model.max_positions
        for name, need in (("pretrain.max_src_len", self.pretrain.max_src_len),
                           ("finetune.max_src_len", self.finetune.max_src_len),
                           ("finetune.max_tgt_len + 1", self.finetune.max_tgt_len + 1),
                           ("decoding.max_len + 1", self.decoding.max_len + 1)):
            if need > positions:
                raise DataError(f"{name} is {need}, more than model.max_positions {positions}")


# -- config (de)serialization: one JSON document ----------------------------

_SECTIONS = {
    "corpus": CorpusSettings,
    "tokenizer": TokenizerSettings,
    "model": ModelSettings,
    "pretrain": TrainConfig,
    "finetune": TrainConfig,
    "decoding": DecodingSettings,
    "eval_tokenization": EvalTokenization,
}


def config_to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


def _build_section(cls, obj, where: str):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise DataError(f"config section {where} must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(obj) - names
    if unknown:
        raise DataError(f"unknown keys in config section {where}: {sorted(unknown)}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}
    if cls is CorpusSettings and "synthetic" in kwargs:
        kwargs["synthetic"] = _build_section(SyntheticSettings, obj["synthetic"],
                                             where + ".synthetic")
    try:
        return cls(**kwargs)
    except (DataError, TypeError) as e:  # a value of the wrong type fails its check
        raise DataError(f"config section {where}: {e}") from None


def config_from_json(text: str) -> ExperimentConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"config is not valid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DataError("config must be a JSON object")
    scalars = ("output_dir", "dev_eval_limit")
    unknown = set(obj) - set(_SECTIONS) - {"modes", "seeds", *scalars}
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, cls in _SECTIONS.items():
        if key in obj:
            kwargs[key] = _build_section(cls, obj[key], key)
    for key in ("modes", "seeds"):
        if key in obj:
            if not isinstance(obj[key], list):
                raise DataError(f"config key {key!r} must be a list, got {obj[key]!r}")
            kwargs[key] = tuple(obj[key])
    for key in scalars:
        if key in obj:
            kwargs[key] = obj[key]
    return ExperimentConfig(**kwargs)


# -- results table -----------------------------------------------------------


@dataclass(frozen=True)
class CellResult:
    mode: str
    seed: int
    rouge1: float  # f1 * 100
    rouge2: float
    rougeL: float


@dataclass
class ResultsTable:
    rows: list[CellResult] = field(default_factory=list)
    failures: list[tuple[str, int, str]] = field(default_factory=list)

    def medians(self) -> dict[str, tuple[float, float, float]]:
        out = {}
        for mode in dict.fromkeys(r.mode for r in self.rows):
            cells = [r for r in self.rows if r.mode == mode]
            out[mode] = (statistics.median(c.rouge1 for c in cells),
                         statistics.median(c.rouge2 for c in cells),
                         statistics.median(c.rougeL for c in cells))
        return out

    def render_text(self) -> str:
        lines = [f"{'model':<14} {'seed':>6} {'rouge1':>8} {'rouge2':>8} {'rougeL':>8}"]
        for r in self.rows:
            lines.append(f"{r.mode:<14} {r.seed:>6} {r.rouge1:>8.2f} "
                         f"{r.rouge2:>8.2f} {r.rougeL:>8.2f}")
        for mode, (m1, m2, ml) in self.medians().items():
            lines.append(f"{mode:<14} {'median':>6} {m1:>8.2f} {m2:>8.2f} {ml:>8.2f}")
        for mode, seed, msg in self.failures:
            lines.append(f"{mode:<14} {seed:>6} FAILED: {msg}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["mode,seed,rouge1,rouge2,rougeL"]
        for r in self.rows:
            lines.append(f"{r.mode},{r.seed},{r.rouge1:.2f},{r.rouge2:.2f},{r.rougeL:.2f}")
        for mode, (m1, m2, ml) in self.medians().items():
            lines.append(f"{mode},median,{m1:.2f},{m2:.2f},{ml:.2f}")
        return "\n".join(lines) + "\n"


# -- pipeline ----------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _prepare_splits(cfg: ExperimentConfig, out: Path) -> dict[str, list]:
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    names = ("train", "dev", "test")
    paths = {n: data_dir / f"{n}.jsonl" for n in names}
    if all(p.exists() for p in paths.values()):
        return {n: corpus_mod.load_jsonl(paths[n]) for n in names}
    if cfg.corpus.path:
        examples = corpus_mod.load_jsonl(cfg.corpus.path)
    elif cfg.corpus.synthetic is not None:
        examples = generate_corpus(cfg.corpus.synthetic)
    else:
        raise DataError("config gives neither a corpus path nor synthetic settings")
    splits = corpus_mod.split(examples, cfg.corpus.ratios, cfg.corpus.split_seed)
    for n in names:
        corpus_mod.save_jsonl(splits[n], paths[n])
    return splits


def _prepare_vocab(cfg: ExperimentConfig, out: Path, train_split) -> tok.Vocabulary:
    vocab_path = out / "vocab.txt"
    if vocab_path.exists():
        return tok.load_vocab(vocab_path)
    lines = [ex.body for ex in train_split] + [ex.abstract for ex in train_split]
    vocab = tok.train_bpe(lines, cfg.tokenizer.target_vocab_size,
                          cfg.tokenizer.pretokenize_mode)
    tok.save_vocab(vocab, vocab_path)
    return vocab


def pretraining_lines(examples) -> list[str]:
    """One MLM document per example: body then abstract, the way an article reads."""
    return [f"{ex.body} {ex.abstract}" for ex in examples]


def _prepare_encoder(cfg: ExperimentConfig, out: Path, model_cfg: ModelConfig,
                     train_split, vocab: tok.Vocabulary):
    enc_path = out / "encoder_mlm.ckpt"
    if enc_path.exists():
        return load_checkpoint(enc_path)
    ckpt = pretrain_mlm(pretraining_lines(train_split), vocab, model_cfg, cfg.pretrain,
                        MetricsLog(out / "pretrain_metrics.csv"))
    ckpt.vocab_ref = "vocab.txt"
    save_checkpoint(ckpt, enc_path)
    return ckpt


def _decode_test(cfg: ExperimentConfig, model_ckpt, test_split, vocab: tok.Vocabulary):
    model = EncoderDecoderModel.from_checkpoint(model_ckpt).eval()
    srcs = [frame_ids(tok.encode(ex.body, vocab).ids, cfg.finetune.max_src_len)
            for ex in test_split]
    dec = cfg.decoding
    if dec.method == "greedy":
        outs = greedy_decode_batch(model, srcs, dec.max_len)
    else:
        outs = [beam_search(model, s, dec.beam_size, dec.max_len,
                            dec.length_penalty_alpha) for s in srcs]
    return [tok.decode(list(o), vocab) for o in outs]


def _run_cell(cfg: ExperimentConfig, out: Path, mode: str, seed: int,
              model_cfg: ModelConfig, encoder_ckpt, splits, vocab) -> CellResult:
    cell = out / "cells" / f"{mode}_s{seed}"
    cell.mkdir(parents=True, exist_ok=True)
    scores_path = cell / "scores.json"
    if scores_path.exists():
        obj = json.loads(scores_path.read_text(encoding="utf-8"))
        return CellResult(obj["mode"], obj["seed"], obj["rouge1"]["f1"] * 100,
                          obj["rouge2"]["f1"] * 100, obj["rougeL"]["f1"] * 100)

    source = None if mode == AssemblyMode.RND2RND.value else encoder_ckpt
    assembled = assemble(source, AssemblyMode(mode), model_cfg, seed, vocab_ref="vocab.txt")
    save_checkpoint(assembled, cell / "assembled.ckpt")

    ft_cfg = replace(cfg.finetune, seed=seed)
    best, _ = finetune(assembled, splits["train"], splits["dev"], vocab, ft_cfg,
                       MetricsLog(cell / "metrics.csv"), eval_limit=cfg.dev_eval_limit)
    save_checkpoint(best, cell / "best.ckpt")

    decoded = _decode_test(cfg, best, splits["test"], vocab)
    decodes_path = cell / "test_decodes.txt"
    write_atomic(decodes_path, "\n".join(decoded) + "\n")

    scores = corpus_rouge(list(zip(decoded, [ex.abstract for ex in splits["test"]])),
                          cfg.eval_tokenization)
    record = {
        "mode": mode,
        "seed": seed,
        "checkpoint_sha256": _sha256(cell / "best.ckpt"),
        "decodes_sha256": _sha256(decodes_path),
    }
    for key, sc in scores.items():
        record[key] = {"precision": sc.precision, "recall": sc.recall, "f1": sc.f1}
    write_atomic(scores_path, json.dumps(record, indent=2, sort_keys=True) + "\n")
    return CellResult(mode, seed, scores["rouge1"].f1 * 100,
                      scores["rouge2"].f1 * 100, scores["rougeL"].f1 * 100)


def run_experiment(cfg: ExperimentConfig) -> ResultsTable:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    rendered = config_to_json(cfg)
    if cfg_path.exists():
        if cfg_path.read_text(encoding="utf-8") != rendered:
            raise DataError(f"{cfg_path} holds a different config; refusing to mix artifacts")
    else:
        write_atomic(cfg_path, rendered)

    splits = _prepare_splits(cfg, out)
    vocab = _prepare_vocab(cfg, out, splits["train"])
    model_cfg = cfg.model.to_model_config(vocab.size)
    needs_encoder = any(m != AssemblyMode.RND2RND.value for m in cfg.modes)
    encoder_ckpt = _prepare_encoder(cfg, out, model_cfg, splits["train"], vocab) \
        if needs_encoder else None

    table = ResultsTable()
    for mode in cfg.modes:
        for seed in cfg.seeds:
            try:
                table.rows.append(_run_cell(cfg, out, mode, seed, model_cfg,
                                            encoder_ckpt, splits, vocab))
            except Exception as e:  # record the diagnostic, keep other cells going
                cell = out / "cells" / f"{mode}_s{seed}"
                cell.mkdir(parents=True, exist_ok=True)
                (cell / "error.txt").write_text(traceback.format_exc(), encoding="utf-8")
                table.failures.append((mode, seed, f"{type(e).__name__}: {e}"))

    write_atomic(out / "results.txt", table.render_text())
    write_atomic(out / "results.csv", table.to_csv())
    return table


def load_results(output_dir) -> ResultsTable:
    """Rebuild the table from persisted per-cell scores without recomputing."""
    out = Path(output_dir)
    cfg = config_from_json((out / "config.json").read_text(encoding="utf-8"))
    table = ResultsTable()
    for mode in cfg.modes:
        for seed in cfg.seeds:
            scores_path = out / "cells" / f"{mode}_s{seed}" / "scores.json"
            if not scores_path.exists():
                table.failures.append((mode, seed, "no scores.json recorded"))
                continue
            obj = json.loads(scores_path.read_text(encoding="utf-8"))
            table.rows.append(CellResult(obj["mode"], obj["seed"],
                                         obj["rouge1"]["f1"] * 100,
                                         obj["rouge2"]["f1"] * 100,
                                         obj["rougeL"]["f1"] * 100))
    return table
