"""Training procedures: Adam, MLM pretraining, teacher-forced fine-tuning.

Everything is deterministic given (seed, data, config): batches, masking
decisions and dropout all draw from one PCG64 stream seeded by the config.
The learning rate warms up linearly for `warmup_steps` then decays linearly
to zero at `total_steps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .assembly import Checkpoint, checkpoint_hash, fresh_params
from .decoding import greedy_decode_batch
from .errors import DataError, NumericError
from .model import EncoderDecoderModel, EncoderMlm, ModelConfig
from .rouge import rouge_l
from .tokenizer import BOS, EOS, MASK, PAD, NUM_SPECIALS, Vocabulary, decode, encode


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    warmup_steps: int = 100
    total_steps: int = 1000
    batch_size: int = 8
    max_src_len: int = 64
    max_tgt_len: int = 24
    mlm_mask_prob: float = 0.15
    seed: int = 0
    gradient_clip_norm: float = 1.0  # math.inf disables clipping

    def __post_init__(self):
        positive = ("beta1", "beta2", "adam_eps", "warmup_steps", "total_steps",
                    "batch_size", "max_src_len", "max_tgt_len", "gradient_clip_norm")
        for name in positive:
            if not getattr(self, name) > 0:
                raise DataError(f"TrainConfig.{name} must be positive")
        if self.learning_rate < 0:  # zero is allowed: a no-op run must stay bit-identical
            raise DataError("TrainConfig.learning_rate must be non-negative")
        if not 0.0 < self.mlm_mask_prob < 1.0:
            raise DataError(f"mlm_mask_prob must be in (0, 1), got {self.mlm_mask_prob}")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to learning_rate, then linear decay to zero; step is 1-based."""
    if step <= cfg.warmup_steps:
        return cfg.learning_rate * step / cfg.warmup_steps
    remaining = max(0, cfg.total_steps - step)
    return cfg.learning_rate * remaining / max(1, cfg.total_steps - cfg.warmup_steps)


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, T.Tensor]) -> "OptimizerState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()},
                   step=0)


def adam_step(params: dict[str, T.Tensor], state: OptimizerState,
              cfg: TrainConfig, lr: float | None = None) -> None:
    """One Adam update in place; grads are clipped by global norm first."""
    if lr is None:
        lr = cfg.learning_rate
    names = sorted(params)
    grads = {}
    for name in names:
        g = params[name].grad
        if g is None:
            g = np.zeros_like(params[name].data)
        elif not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter {name!r}")
        grads[name] = g

    if math.isfinite(cfg.gradient_clip_norm):
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if total > cfg.gradient_clip_norm:
            factor = cfg.gradient_clip_norm / total
            grads = {k: g * factor for k, g in grads.items()}

    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name in names:
        g = grads[name]
        state.m[name] = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * g
        state.v[name] = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        params[name].data -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


# ---------------------------------------------------------------------------
# batching helpers


def pad_batch(seqs: list[list[int]], length: int | None = None) -> np.ndarray:
    if length is None:
        length = max(len(s) for s in seqs)
    out = np.full((len(seqs), length), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
    return out


def frame_ids(ids: list[int], max_len: int) -> list[int]:
    """BOS + head-truncated ids + EOS, never longer than max_len."""
    return [BOS] + ids[:max_len - 2] + [EOS]


def encode_pairs(examples, vocab: Vocabulary, cfg: TrainConfig) -> list[tuple[list[int], list[int]]]:
    pairs = []
    for ex in examples:
        src = frame_ids(encode(ex.body, vocab).ids, cfg.max_src_len)
        tgt = frame_ids(encode(ex.abstract, vocab).ids, cfg.max_tgt_len)
        pairs.append((src, tgt))
    return pairs


class MetricsLog:
    """Append-only CSV of (step, split, loss, rouge_l); path optional."""

    def __init__(self, path=None):
        self.rows: list[tuple[int, str, float, float | None]] = []
        self._path = path
        if path is not None:
            with open(path, "w", encoding="utf-8") as f:
                f.write("step,split,loss,rouge_l\n")

    def add(self, step: int, split: str, loss: float, rouge: float | None = None) -> None:
        self.rows.append((step, split, loss, rouge))
        if self._path is not None:
            with open(self._path, "a", encoding="utf-8") as f:
                f.write(f"{step},{split},{loss:.6f},{'' if rouge is None else f'{rouge:.6f}'}\n")


# ---------------------------------------------------------------------------
# masked language model pretraining


def _mask_batch(batch: np.ndarray, vocab_size: int, prob: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """BERT-style corruption: returns (corrupted ids, targets with -1 ignores)."""
    maskable = batch >= NUM_SPECIALS
    selected = maskable & (rng.random(batch.shape) < prob)
    if not selected.any():
        # force one position so the loss is never empty (measure-zero case)
        flat = np.flatnonzero(maskable)
        if flat.size == 0:
            raise DataError("MLM batch contains no maskable positions")
        selected.flat[flat[0]] = True
    targets = np.where(selected, batch, -1)
    corrupted = batch.copy()
    action = rng.random(batch.shape)
    corrupted[selected & (action < 0.8)] = MASK
    random_ids = rng.integers(NUM_SPECIALS, vocab_size, size=batch.shape)
    swap = selected & (action >= 0.8) & (action < 0.9)
    corrupted[swap] = random_ids[swap]
    return corrupted, targets


def _mlm_documents(lines: list[str], vocab: Vocabulary, cfg: TrainConfig) -> list[list[int]]:
    """Framed id sequences of the nonblank lines that hold at least one token."""
    seqs = [frame_ids(encode(line, vocab).ids, cfg.max_src_len)
            for line in lines if line.strip()]
    return [s for s in seqs if len(s) > 2]


def pretrain_mlm(lines: list[str], vocab: Vocabulary, model_cfg: ModelConfig,
                 cfg: TrainConfig, log: MetricsLog | None = None) -> Checkpoint:
    """Train an encoder with the masked-token objective on raw text lines."""
    seqs = _mlm_documents(lines, vocab, cfg)
    if len(seqs) < cfg.batch_size:
        raise DataError(f"corpus has {len(seqs)} usable lines, fewer than one "
                        f"batch of {cfg.batch_size}")

    params = {name: T.parameter(arr, name)
              for name, arr in fresh_params(model_cfg, "encoder_mlm", cfg.seed).items()}
    model = EncoderMlm(model_cfg, params)
    state = OptimizerState.for_params(params)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    log = log or MetricsLog()
    log_every = max(1, cfg.total_steps // 20)

    for step in range(1, cfg.total_steps + 1):
        idx = rng.integers(0, len(seqs), size=cfg.batch_size)
        batch = pad_batch([seqs[i] for i in idx])
        corrupted, targets = _mask_batch(batch, model_cfg.vocab_size, cfg.mlm_mask_prob, rng)
        model.train(rng)
        with T.Tape():
            logits = model.logits(corrupted, batch != PAD)
            b, l, v = logits.shape
            loss = T.cross_entropy(T.reshape(logits, (b * l, v)),
                                   targets.reshape(-1), ignore_id=-1)
            T.backward(loss)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise NumericError(f"non-finite MLM loss at step {step}")
        adam_step(params, state, cfg, lr=lr_at(step, cfg))
        for p in params.values():
            p.zero_grad()
        if step % log_every == 0 or step == 1:
            log.add(step, "train", loss_val)

    return Checkpoint(model_cfg, "encoder_mlm",
                      {k: p.data.copy() for k, p in params.items()},
                      provenance={"mode": "TRAINED", "source": "", "seed": cfg.seed,
                                  "steps": cfg.total_steps, "objective": "mlm"})


def evaluate_mlm(ckpt: Checkpoint, lines: list[str], vocab: Vocabulary,
                 cfg: TrainConfig) -> tuple[float, float]:
    """Masked-token loss (nats) and accuracy of an MLM encoder on held-out lines.

    Lines are framed and corrupted as in pretraining, with masking drawn from
    `cfg.seed`, and the model runs in eval mode.
    """
    seqs = _mlm_documents(lines, vocab, cfg)
    if not seqs:
        raise DataError("no usable lines to evaluate the MLM encoder on")
    model = EncoderMlm.from_checkpoint(ckpt).eval()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    total, correct, count = 0.0, 0, 0
    for start in range(0, len(seqs), cfg.batch_size):
        batch = pad_batch(seqs[start:start + cfg.batch_size])
        corrupted, targets = _mask_batch(batch, ckpt.config.vocab_size,
                                         cfg.mlm_mask_prob, rng)
        logits = model.logits(corrupted, batch != PAD)
        b, l, v = logits.shape
        flat, targets = T.reshape(logits, (b * l, v)), targets.reshape(-1)
        keep = targets != -1
        n = int(keep.sum())
        total += T.cross_entropy(flat, targets, ignore_id=-1).item() * n
        correct += int((flat.data[keep].argmax(axis=1) == targets[keep]).sum())
        count += n
    return total / count, correct / count


def unigram_entropy(lines: list[str], vocab: Vocabulary, cfg: TrainConfig) -> float:
    """Entropy (nats) of the maskable tokens in the framed lines.

    This is the masked-token loss of a model that knows only token
    frequencies: an MLM encoder that has learned context beats it.
    """
    ids = np.concatenate([np.asarray(s) for s in _mlm_documents(lines, vocab, cfg)])
    counts = np.bincount(ids[ids >= NUM_SPECIALS])
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# sequence-to-sequence fine-tuning


def _dev_loss(model: EncoderDecoderModel, pairs, batch_size: int) -> float:
    model.eval()
    total, count = 0.0, 0
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        src = pad_batch([p[0] for p in chunk])
        tgt = pad_batch([p[1] for p in chunk])
        loss = model.forward_loss(src, tgt)
        n_tok = int(np.sum(tgt[:, 1:] != PAD))
        total += loss.item() * n_tok
        count += n_tok
    return total / max(1, count)


def _dev_rouge_l(model: EncoderDecoderModel, pairs, vocab: Vocabulary, max_len: int) -> float:
    outs = greedy_decode_batch(model, [p[0] for p in pairs], max_len)
    scores = []
    for out, (_, ref_ids) in zip(outs, pairs):
        cand = decode(list(out), vocab).split()
        ref = decode(list(ref_ids), vocab).split()
        scores.append(rouge_l(cand, ref).f1)
    return float(np.mean(scores)) if scores else 0.0


def finetune(ckpt: Checkpoint, train_set, dev_set, vocab: Vocabulary,
             cfg: TrainConfig, log: MetricsLog | None = None,
             eval_every: int | None = None,
             eval_limit: int | None = None) -> tuple[Checkpoint, MetricsLog]:
    """Teacher-forced fine-tuning; returns the best-dev-ROUGE-L checkpoint.

    Dev metrics drive model selection; eval_limit caps how many dev examples
    each periodic evaluation decodes (None evaluates the whole dev set).
    """
    if not train_set or not dev_set:
        raise DataError("finetune needs nonempty train and dev sets")
    train_pairs = encode_pairs(train_set, vocab, cfg)
    dev_pairs = encode_pairs(dev_set, vocab, cfg)
    if eval_limit is not None:
        dev_pairs = dev_pairs[:eval_limit]

    model = EncoderDecoderModel.from_checkpoint(ckpt)
    params = model.params
    state = OptimizerState.for_params(params)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    log = log or MetricsLog()
    if eval_every is None:
        eval_every = max(1, cfg.total_steps // 10)

    best_rouge, best_step = -1.0, -1
    best_params = {k: p.data.copy() for k, p in params.items()}

    for step in range(1, cfg.total_steps + 1):
        idx = rng.integers(0, len(train_pairs), size=cfg.batch_size)
        src = pad_batch([train_pairs[i][0] for i in idx])
        tgt = pad_batch([train_pairs[i][1] for i in idx])
        model.train(rng)
        with T.Tape():
            loss = model.forward_loss(src, tgt)
            T.backward(loss)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise NumericError(f"non-finite fine-tuning loss at step {step}")
        adam_step(params, state, cfg, lr=lr_at(step, cfg))
        for p in params.values():
            p.zero_grad()

        if step % eval_every == 0 or step == cfg.total_steps:
            log.add(step, "train", loss_val)
            d_loss = _dev_loss(model, dev_pairs, cfg.batch_size)
            d_rouge = _dev_rouge_l(model, dev_pairs, vocab, cfg.max_tgt_len)
            log.add(step, "dev", d_loss, d_rouge)
            if d_rouge > best_rouge:
                best_rouge, best_step = d_rouge, step
                best_params = {k: p.data.copy() for k, p in params.items()}

    provenance = {"mode": "TRAINED", "source": checkpoint_hash(ckpt), "seed": cfg.seed,
                  "steps": cfg.total_steps, "assembled_from": ckpt.provenance.get("mode", ""),
                  "best_step": best_step, "best_dev_rouge_l": best_rouge}
    best = Checkpoint(ckpt.config, "encoder_decoder", best_params, ckpt.vocab_ref, provenance)
    return best, log
