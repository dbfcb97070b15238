"""Config-driven experiment orchestration.

One experiment chains tokenizer training, MLM pretraining, checkpoint
assembly, fine-tuning, decoding and ROUGE scoring into a comparison table
over (assembly mode, seed) cells. Each stage writes its artifact under the
output directory unless it is there, and later stages read it back, on a
fresh run as on a resumed one; the table is byte-identical across reruns.

Pretraining and the cells run in a pool of forked worker processes, one per
usable core: the RND2RND cells, which need no encoder, run while the encoder
pretrains, and the warm cells start once it is done. A stage cut short by a
dead worker runs again alone. Stages that a profiler replaced by closures
cannot be sent to a worker; they run in one thread of this process instead.
A failed cell's error.txt, written here, is the one record of how it ended.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import statistics
import sys
import time
import traceback
import typing
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import corpus as corpus_mod
from . import tokenizer as tok
from .assembly import COPIED_PREFIXES, AssemblyMode, assemble, load_checkpoint, save_checkpoint
from .decoding import search
from .errors import DataError
from .fileio import write_atomic
from .model import EncoderDecoderModel, ModelConfig
from .rouge import corpus_rouge
from .synthetic import SyntheticSettings, generate_corpus
from .training import (MetricsLog, TrainConfig, _warn_cut, evaluate_mlm, finetune, frame_ids,
                       pretrain_mlm, unigram_entropy)


@dataclass(frozen=True)
class TokenizerSettings:
    target_vocab_size: int = 256

    def __post_init__(self):
        least = tok.NUM_SPECIALS + 2  # the specials, one character and the word end
        if self.target_vocab_size < least:
            raise DataError(f"target_vocab_size must be at least {least}, "
                            f"got {self.target_vocab_size}")


@dataclass(frozen=True)
class DecodingSettings:
    beam_size: int = 1  # 1 is greedy search

    def __post_init__(self):
        if self.beam_size < 1:
            raise DataError(f"decoding beam_size must be an integer >= 1, got {self.beam_size!r}")


@dataclass(frozen=True)
class CorpusSettings:
    path: str = ""  # JSONL file; empty means generate synthetically
    synthetic: SyntheticSettings | None = SyntheticSettings()
    ratios: tuple[float, float, float] = (0.1, 0.1, 0.8)  # supervision-scarce
    split_seed: int = 13

    def __post_init__(self):
        if not self.path and self.synthetic is None:
            raise DataError("corpus.path is empty and corpus.synthetic is null")
        corpus_mod.check_ratios(self.ratios)
        # an experiment trains on train, selects on dev and scores on test
        if not all(r > 0 for r in self.ratios):
            raise DataError(f"corpus.ratios must give train, dev and test each a positive "
                            f"share, got {self.ratios!r}")
        if not self.path:
            corpus_mod.split_cuts(self.synthetic.n_pairs, self.ratios)


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
    decoding: DecodingSettings = DecodingSettings()
    dev_eval_limit: int | None = 64  # dev examples decoded per periodic eval
    output_dir: str = "runs/experiment"

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:
            raise DataError(f"seeds must be a nonempty list of non-negative integers, "
                            f"got {list(self.seeds)}")
        if not self.modes:
            raise DataError("modes must be a nonempty list of assembly modes")
        # a repeated cell would count twice in the medians
        for name, values in (("seeds", self.seeds), ("modes", self.modes)):
            if len(set(values)) < len(values):
                raise DataError(f"{name} must not repeat, got {list(values)}")
        limit = self.dev_eval_limit
        if limit is not None and limit < 1:
            raise DataError(f"dev_eval_limit must be a positive integer or null, got {limit!r}")
        modes = [m.value for m in AssemblyMode]
        for m in self.modes:
            if m not in modes:
                raise DataError(f"unknown assembly mode {m!r}; expected one of {modes}")
        check_windows(self, self.model.max_positions, "model.max_positions")


def check_windows(cfg: ExperimentConfig, positions: int, owner: str) -> None:
    """Refuse a window of `cfg` longer than `positions`, the count `owner` names."""
    # dev evaluation and test decoding read BOS plus up to max_tgt_len generated tokens
    for name, need in (("pretrain.max_src_len", cfg.pretrain.max_src_len),
                       ("finetune.max_src_len", cfg.finetune.max_src_len),
                       ("finetune.max_tgt_len + 1", cfg.finetune.max_tgt_len + 1)):
        if need > positions:
            raise DataError(f"{name} is {need}, more than {owner} {positions}")


# -- config (de)serialization: one JSON document ----------------------------


def config_to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


def load_config(path) -> ExperimentConfig:
    """Read a config file; every failure is a DataError naming the file."""
    try:
        return config_from_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, DataError) as e:
        raise DataError(f"config {path}: {e}") from None


def config_from_json(text: str) -> ExperimentConfig:
    try:
        obj = json.loads(text)
    except ValueError as e:  # bad JSON, or an integer past Python's digit limit
        raise DataError(f"config is not valid JSON ({e})") from None
    return read_settings(ExperimentConfig, obj, "config", ExperimentConfig())


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def read_settings(cls, obj, where: str, default):
    """`obj`, parsed JSON whose dotted key is `where`, read as a `cls`: a dataclass
    from an object whose keys name some of its fields, the others kept from
    `default`; a tuple from a list, `X | None` from null too, and any other type
    from a JSON value of that type."""
    optional = type(None) in typing.get_args(cls)
    if optional and obj is None:
        return None
    hint = typing.get_args(cls)[0] if optional else cls
    if dataclasses.is_dataclass(hint) and isinstance(obj, dict):
        fields = typing.get_type_hints(hint)
        unknown = sorted(set(obj) - set(fields))
        if unknown:
            raise DataError(f"unknown keys in {where}: {unknown}")
        kwargs = {key: read_settings(fields[key], value, f"{where}.{key}",
                                     getattr(default, key))
                  for key, value in obj.items()}
        try:
            return replace(default, **kwargs)
        except DataError as e:  # a range or cross-field check of the section
            raise DataError(f"{where}: {e}") from None
    if typing.get_origin(hint) is tuple and isinstance(obj, list):  # one element type
        return tuple(read_settings(typing.get_args(hint)[0], value, f"{where}[{i}]", None)
                     for i, value in enumerate(obj))
    if type(obj) is hint or (hint is float and type(obj) is int):
        if type(obj) is float and not math.isfinite(obj):  # JSON's NaN and Infinity
            raise DataError(f"{where} must be a finite number, got {obj!r}")
        if hint is float and type(obj) is int and abs(obj) > sys.float_info.max:
            raise DataError(f"{where} must be a finite number, got an integer past "
                            f"float range")
        return obj  # an integer stays one, so config.json keeps its bytes
    kind = "a list" if typing.get_origin(hint) is tuple else _KINDS.get(hint, "an object")
    raise DataError(f"{where} must be {kind}{' or null' * optional}, got {obj!r}")


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
    if not all(p.exists() for p in paths.values()):
        if cfg.corpus.path:
            examples = corpus_mod.load_jsonl(cfg.corpus.path)
        else:
            examples = generate_corpus(cfg.corpus.synthetic)
        splits = corpus_mod.split(examples, cfg.corpus.ratios, cfg.corpus.split_seed)
        for n in names:
            corpus_mod.save_jsonl(splits[n], paths[n])
    return {n: corpus_mod.load_jsonl(paths[n]) for n in names}


def _prepare_vocab(cfg: ExperimentConfig, out: Path, train_split) -> tok.Vocabulary:
    vocab_path = out / "vocab.txt"
    if not vocab_path.exists():
        vocab = tok.train_bpe(tokenizer_lines(train_split), cfg.tokenizer.target_vocab_size)
        tok.save_vocab(vocab, vocab_path)
    return tok.load_vocab(vocab_path)


def tokenizer_lines(examples) -> list[str]:
    """The BPE training text: every body, then every abstract."""
    return [ex.body for ex in examples] + [ex.abstract for ex in examples]


def pretraining_lines(examples) -> list[str]:
    """One MLM document per example: body then abstract, the way an article reads."""
    return [f"{ex.body} {ex.abstract}" for ex in examples]


_QUALITY_FILE = "encoder_quality.json"


@contextmanager
def _timed(timings: dict, phase: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException as e:  # the traceback in error.txt names the phase
        e.add_note(f"in phase {phase}")
        raise
    timings[f"{phase}_s"] = time.perf_counter() - start


def _write_timings(directory: Path, timings: dict) -> None:
    """Record the wall time of each phase this process ran, not of those resumed
    from disk; no other artifact depends on the file, and no run reads it."""
    if timings:
        write_atomic(directory / "timings.json",
                     json.dumps(timings, indent=2, sort_keys=True) + "\n")


def _prepare_encoder(cfg: ExperimentConfig, out: Path, model_cfg: ModelConfig,
                     splits, vocab: tok.Vocabulary) -> None:
    enc_path = out / "encoder_mlm.ckpt"
    timings = {}
    if not enc_path.exists():
        with _timed(timings, "pretrain"):
            ckpt = pretrain_mlm(pretraining_lines(splits["train"]), vocab, model_cfg,
                                cfg.pretrain, MetricsLog(out / "pretrain_metrics.csv"))
            ckpt.vocab_ref = "vocab.txt"
            save_checkpoint(ckpt, enc_path)
    ckpt = load_checkpoint(enc_path)
    quality_path = out / _QUALITY_FILE
    if not quality_path.exists():
        with _timed(timings, "encoder_quality"):
            # the held-out masked-token loss, and the loss of a model that knows
            # only the training-token frequencies
            loss, accuracy = evaluate_mlm(ckpt, pretraining_lines(splits["dev"]), vocab,
                                          cfg.pretrain)
            entropy = unigram_entropy(pretraining_lines(splits["train"]), vocab,
                                      cfg.pretrain)
            quality = {"mlm_dev_loss": loss, "mlm_dev_accuracy": accuracy,
                       "unigram_entropy": entropy}
            write_atomic(quality_path, json.dumps(quality, indent=2, sort_keys=True) + "\n")
    _write_timings(out, timings)


def _decode_test(cfg: ExperimentConfig, model_ckpt, bodies: list[str],
                 vocab: tok.Vocabulary) -> list[str]:
    """Summaries of the bodies, each framed in the fine-tuning source window and at
    most `finetune.max_tgt_len` tokens long, the budget of dev evaluation; warns
    once if the window cuts any body."""
    model = EncoderDecoderModel.from_checkpoint(model_ckpt).eval()
    ids = [tok.encode(body, vocab).ids for body in bodies]
    _warn_cut(("bodies", ids, cfg.finetune.max_src_len))
    srcs = [frame_ids(body_ids, cfg.finetune.max_src_len) for body_ids in ids]
    hyps = search(model, srcs, cfg.decoding.beam_size, cfg.finetune.max_tgt_len)
    return [tok.decode(list(h.ids), vocab) for h in hyps]


def _read_scores(path: Path, mode: str, seed: int) -> CellResult:
    """The result a cell persisted; a malformed file is a DataError naming it."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        if (obj["mode"], obj["seed"]) != (mode, seed):
            raise ValueError(f"it records cell {obj['mode']!r} seed {obj['seed']!r}")
        f1 = [obj[key]["f1"] for key in ("rouge1", "rouge2", "rougeL")]
        if not all(type(x) in (int, float) and math.isfinite(x) for x in f1):
            raise ValueError(f"f1 scores must be finite numbers, got {f1!r}")
    # JSON and UTF-8 errors are ValueErrors; an integer past float range overflows
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise DataError(f"{path}: malformed scores ({type(e).__name__}: {e})") from None
    return CellResult(mode, seed, f1[0] * 100, f1[1] * 100, f1[2] * 100)


def _run_cell(cfg: ExperimentConfig, out: Path, mode: str, seed: int,
              model_cfg: ModelConfig, splits, vocab) -> None:
    """Run one cell unless its scores.json exists; that file is its result."""
    cell = out / "cells" / f"{mode}_s{seed}"
    cell.mkdir(parents=True, exist_ok=True)
    (cell / "error.txt").unlink(missing_ok=True)  # an earlier run's failure
    scores_path = cell / "scores.json"
    if scores_path.exists():
        return

    timings = {}
    with _timed(timings, "assemble"):
        warm = COPIED_PREFIXES[AssemblyMode(mode)]
        encoder = load_checkpoint(out / "encoder_mlm.ckpt") if warm else None
        assembled = assemble(encoder, AssemblyMode(mode), model_cfg, seed, vocab_ref="vocab.txt")
        save_checkpoint(assembled, cell / "assembled.ckpt")

    with _timed(timings, "finetune"):
        ft_cfg = replace(cfg.finetune, seed=seed)
        best, _ = finetune(assembled, splits["train"], splits["dev"], vocab, ft_cfg,
                           MetricsLog(cell / "metrics.csv"), eval_limit=cfg.dev_eval_limit)
        save_checkpoint(best, cell / "best.ckpt")

    with _timed(timings, "decode"):
        decoded = _decode_test(cfg, best, [ex.body for ex in splits["test"]], vocab)
        decodes_path = cell / "test_decodes.txt"
        write_atomic(decodes_path, "\n".join(decoded) + "\n")

    with _timed(timings, "score"):
        scores = corpus_rouge(list(zip(decoded, [ex.abstract for ex in splits["test"]])))
        record = {
            "mode": mode,
            "seed": seed,
            "checkpoint_sha256": _sha256(cell / "best.ckpt"),
            "decodes_sha256": _sha256(decodes_path),
        }
        for key, sc in scores.items():
            record[key] = {"precision": sc.precision, "recall": sc.recall, "f1": sc.f1}
    _write_timings(cell, timings)
    write_atomic(scores_path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def _pool_size(tasks: int) -> int:
    """One worker per usable core, and never more than `tasks`: a fork pool
    starts all of its workers at once."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cores = os.cpu_count() or 1
    return max(1, min(cores, tasks))


def _init_worker(parent: int) -> None:
    """Ctrl-C reaches the whole process group, and the parent alone acts on
    it; SIGTERM, which the parent sends to stop a worker, ends it even where
    the worker inherited a handler for it, and the kernel sends it when the
    parent dies, even by SIGKILL, where the C library has `prctl`."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    with suppress(OSError, TypeError, AttributeError):  # no C library handle, or no prctl
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent died before the request
        os._exit(1)


_ENCODER = "encoder"  # pretraining, a stage beside the (mode, seed) cells


def run_experiment(cfg: ExperimentConfig) -> ResultsTable:
    # imported here, so that processes which never run an experiment (the
    # staged CLI, decoding) do not hold the pool's modules
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

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
    cells = [(mode, seed) for mode in cfg.modes for seed in cfg.seeds]
    warm = [c for c in cells if COPIED_PREFIXES[AssemblyMode(c[0])]]
    # pretraining first; the cells that need no encoder run meanwhile
    stages = [_ENCODER] * bool(warm) + [c for c in cells if c not in warm] + warm
    futures = {}  # a stage's future carries only its error; its result is its file

    def submit(pool, stage):
        if stage in warm:
            futures[_ENCODER].result()  # a pretraining error propagates
        fn, args = (_prepare_encoder, ()) if stage == _ENCODER else (_run_cell, stage)
        futures[stage] = pool.submit(fn, cfg, out, *args, model_cfg, splits, vocab)

    def cut_short(stage):  # by a dead worker, or kept from starting
        return stage not in futures or isinstance(futures[stage].exception(), BrokenProcessPool)

    try:  # a stage that a profiler replaced by a closure cannot go to a worker
        pickle.dumps((_prepare_encoder, _run_cell))
        forked = True
    except (pickle.PicklingError, AttributeError, TypeError):
        forked = False

    def new_pool(workers):
        if not forked:  # one thread of this process, so the profiler sees a serial run
            return ThreadPoolExecutor(1)
        # forked workers start without importing numpy again; a fork pool forks
        # them all at the first submit, from this thread (CPython 3.11), whose
        # end is the parent's death that PR_SET_PDEATHSIG watches
        return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_init_worker, initargs=(os.getpid(),))

    callers = multiprocessing.active_children()  # the caller's own: not the run's to stop
    pool = new_pool(_pool_size(len(stages)))
    try:
        with suppress(BrokenProcessPool):  # a worker died
            for stage in stages:
                submit(pool, stage)
        pool.shutdown()  # wait for the running stages
        # what a dead worker cut short runs again alone, one stage at a time,
        # so only a stage that kills its own worker fails
        for stage in filter(cut_short, stages):
            pool = new_pool(1)
            try:
                submit(pool, stage)
            except BrokenProcessPool:  # pretraining killed its own worker
                futures[stage] = futures[_ENCODER]
            pool.shutdown()
    except BaseException:  # an error, Ctrl-C or SIGTERM: stop now; a rerun resumes
        pool.shutdown(wait=False, cancel_futures=True)
        workers = [p for p in multiprocessing.active_children() if p not in callers]
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join()
        raise

    for mode, seed in cells:
        try:
            futures[mode, seed].result()
        except Exception as e:  # record the diagnostic, keep other cells going
            cell = out / "cells" / f"{mode}_s{seed}"
            cell.mkdir(parents=True, exist_ok=True)
            message = f"{type(e).__name__}: {e}".splitlines()[0]  # the table's row
            write_atomic(cell / "error.txt", f"cell {mode} seed {seed}\n{message}\n"
                         + traceback.format_exc())

    table = load_results(out)
    write_atomic(out / "results.txt", table.render_text())
    write_atomic(out / "results.csv", table.to_csv())
    return table


def load_results(output_dir) -> ResultsTable:
    """The table of the cells' scores.json files, as `run` and `report` show it."""
    out = Path(output_dir)
    cfg = load_config(out / "config.json")
    table = ResultsTable()
    for mode in cfg.modes:
        for seed in cfg.seeds:
            scores_path = out / "cells" / f"{mode}_s{seed}" / "scores.json"
            if scores_path.exists():
                table.rows.append(_read_scores(scores_path, mode, seed))
                continue
            error = scores_path.with_name("error.txt")  # a failed cell's row is its line 2
            lines = error.read_text(encoding="utf-8", errors="replace").splitlines() \
                if error.exists() else []
            table.failures.append((mode, seed, lines[1] if len(lines) > 1
                                   else "no scores.json recorded"))
    return table


def encoder_quality_text(output_dir) -> str:
    """The run's encoder quality as one line for the report; "" when it has none."""
    path = Path(output_dir) / _QUALITY_FILE
    if not path.exists():
        return ""
    keys = ("mlm_dev_loss", "mlm_dev_accuracy", "unigram_entropy")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        loss, accuracy, entropy = (obj[k] for k in keys)
        if not all(type(x) in (int, float) and math.isfinite(x)
                   for x in (loss, accuracy, entropy)):
            raise ValueError(f"values must be finite numbers, got {[obj[k] for k in keys]!r}")
    except (ValueError, KeyError, TypeError, OverflowError) as e:  # as in _read_scores
        raise DataError(f"{path}: malformed encoder quality ({type(e).__name__}: {e})") from None
    return (f"MLM encoder: dev masked-token loss {loss:.3f} nats "
            f"(accuracy {accuracy:.1%}), unigram entropy {entropy:.3f} nats\n")
