"""Training procedures: Adam, MLM pretraining, teacher-forced fine-tuning.

Everything is deterministic given (seed, data, config): batches, masking
decisions and dropout all draw from one PCG64 stream seeded by the config.
The learning rate warms up linearly for `warmup_steps` then decays linearly
to zero at `total_steps`. Adam, gradient clipping and MLM masking use the
fixed constants below.

Both phases run one optimisation step, `_train_step`, on the model's
`forward_loss`; an `OptimizerState` arena owns the parameters and gradients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .assembly import Checkpoint, checkpoint_hash, fresh_params
from .decoding import greedy_decode_batch
from .errors import DataError, NumericError
from .model import EncoderDecoderModel, EncoderMlm, ModelConfig, masked_token_loss, pad_batch
from .rouge import rouge_l
from .tokenizer import BOS, EOS, MASK, PAD, NUM_SPECIALS, Vocabulary, decode, encode

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
GRADIENT_CLIP_NORM = 1.0  # global L2 norm
MLM_MASK_PROB = 0.15  # share of maskable tokens that MLM corruption selects


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    warmup_steps: int = 100
    total_steps: int = 1000
    batch_size: int = 8
    max_src_len: int = 64
    max_tgt_len: int = 24
    seed: int = 0

    def __post_init__(self):
        for name in ("warmup_steps", "total_steps", "batch_size"):
            if not getattr(self, name) > 0:
                raise DataError(f"TrainConfig.{name} must be positive")
        for name in ("max_src_len", "max_tgt_len"):  # a window holds at least BOS and EOS
            if not getattr(self, name) >= 2:
                raise DataError(f"TrainConfig.{name} must be at least 2")
        if self.learning_rate < 0:  # zero is allowed: a no-op run must stay bit-identical
            raise DataError("TrainConfig.learning_rate must be non-negative")
        if self.seed < 0:  # PCG64 takes no negative seed
            raise DataError(f"TrainConfig.seed must be non-negative, got {self.seed}")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to learning_rate, then linear decay to zero; step is 1-based."""
    if step <= cfg.warmup_steps:
        return cfg.learning_rate * step / cfg.warmup_steps
    remaining = max(0, cfg.total_steps - step)
    return cfg.learning_rate * remaining / max(1, cfg.total_steps - cfg.warmup_steps)


class OptimizerState:
    """Adam's moments and step count, and the arena of the parameters they update.

    Building one builds the arena: every parameter's values move into one
    contiguous float64 buffer, in sorted-name order, and its `data` becomes a
    view of its slice; its `grad` becomes a view of the same slice of a
    second buffer, `grad`, so backward accumulates into the arena. The arena
    owns the gradients from then on: Adam reads only `grad`, and `m` and `v`
    are its flat moments. Replace or clear a parameter's `grad` and Adam no
    longer sees that parameter's gradient.
    """

    def __init__(self, params: dict[str, T.Tensor]):
        self.names = sorted(params)
        offsets = np.cumsum([0] + [params[n].data.size for n in self.names]).tolist()
        self.spans = list(zip(offsets[:-1], offsets[1:]))
        size = offsets[-1]
        self.data, self.grad = np.empty(size), np.zeros(size)
        self.m, self.v = np.zeros(size), np.zeros(size)
        # adam_step's temporaries: arrays of the arena's size, allocated anew on
        # every step, would be mapped and unmapped by the allocator each time
        self.work = np.empty((3, size))
        self.step = 0
        for name, (lo, hi) in zip(self.names, self.spans):
            p = params[name]
            shape = p.data.shape
            self.data[lo:hi] = p.data.reshape(-1)
            p.data = self.data[lo:hi].reshape(shape)
            grad = self.grad[lo:hi].reshape(shape)
            if p.grad is not None:  # a backward that ran before the arena existed
                grad[...] = p.grad
            p.grad = grad

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def adam_step(state: OptimizerState, lr: float) -> None:
    """One Adam update of the arena in place; grads are clipped by global norm first."""
    grad, (a, b, clipped) = state.grad, state.work
    sq = np.multiply(grad, grad, out=a)
    # per-tensor sums added in sorted-name order, as the norm has always been taken
    total = math.sqrt(sum(float(np.add.reduce(sq[lo:hi])) for lo, hi in state.spans))
    if not math.isfinite(total):  # a non-finite gradient makes the norm non-finite
        for name, (lo, hi) in zip(state.names, state.spans):
            if not np.isfinite(grad[lo:hi]).all():
                raise NumericError(f"non-finite gradient in parameter {name!r}")
    if total > GRADIENT_CLIP_NORM:
        grad = np.multiply(grad, GRADIENT_CLIP_NORM / total, out=clipped)

    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    # m = BETA1 * m + (1 - BETA1) * g and v = BETA2 * v + (1 - BETA2) * g * g,
    # then data -= lr * m_hat / (sqrt(v_hat) + eps), each product in that order
    m, v = state.m, state.v
    m *= BETA1
    m += np.multiply(grad, 1.0 - BETA1, out=a)
    v *= BETA2
    np.multiply(grad, 1.0 - BETA2, out=a)
    v += np.multiply(a, grad, out=a)
    np.multiply(np.divide(m, bc1, out=a), lr, out=a)
    np.sqrt(np.divide(v, bc2, out=b), out=b)
    b += ADAM_EPS
    state.data -= np.divide(a, b, out=a)


# ---------------------------------------------------------------------------
# batching helpers


def frame_ids(ids: list[int], max_len: int) -> list[int]:
    """BOS + head-truncated ids + EOS, never longer than max_len."""
    if max_len < 2:
        raise DataError(f"a window of {max_len} cannot hold BOS and EOS")
    return [BOS] + ids[:max_len - 2] + [EOS]


def _warn_cut(*groups: tuple[str, list[list[int]], int]) -> None:
    """One warning for the id lists that frame_ids will cut, if any: for each
    (what, id lists, window), how many are cut and to which window."""
    cuts = [f"{n} of {len(seqs)} {what} to the window of {max_len}"
            for what, seqs, max_len in groups
            if (n := sum(len(ids) > max_len - 2 for ids in seqs))]
    if cuts:
        warnings.warn(f"cut {' and '.join(cuts)} ids (BOS and EOS included); "
                      "the cut tokens are not read", stacklevel=3)


def encode_pairs(examples, vocab: Vocabulary, cfg: TrainConfig) -> list[tuple[list[int], list[int]]]:
    """Framed (body, abstract) ids; warns once if a window cuts any of them."""
    bodies = [encode(ex.body, vocab).ids for ex in examples]
    abstracts = [encode(ex.abstract, vocab).ids for ex in examples]
    _warn_cut(("bodies", bodies, cfg.max_src_len), ("abstracts", abstracts, cfg.max_tgt_len))
    return [(frame_ids(src, cfg.max_src_len), frame_ids(tgt, cfg.max_tgt_len))
            for src, tgt in zip(bodies, abstracts)]


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


def _train_step(model, state: OptimizerState, cfg: TrainConfig, step: int,
                rng: np.random.Generator, loss_of, what: str) -> float:
    """Tape `loss_of()` and its backward in train mode, then Adam at `lr_at(step)`;
    returns the loss. A non-finite loss or gradient raises before any parameter moves."""
    model.train(rng)
    with T.Tape():
        loss = loss_of()
        T.backward(loss)
    loss_val = loss.item()
    if not math.isfinite(loss_val):
        raise NumericError(f"non-finite {what} loss at step {step}")
    try:
        adam_step(state, lr_at(step, cfg))
    except NumericError as e:  # a non-finite gradient; its message names the parameter
        raise NumericError(f"{e} at {what} step {step}") from None
    state.zero_grad()
    return loss_val


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
    """Framed id sequences of the nonblank lines that hold at least one token;
    warns once if the window cuts any of them."""
    docs = [ids for line in lines if line.strip() and (ids := encode(line, vocab).ids)]
    _warn_cut(("documents", docs, cfg.max_src_len))
    # a window of 2 holds BOS and EOS alone: nothing is left to mask
    return [s for s in (frame_ids(ids, cfg.max_src_len) for ids in docs) if len(s) > 2]


def pretrain_mlm(lines: list[str], vocab: Vocabulary, model_cfg: ModelConfig,
                 cfg: TrainConfig, log: MetricsLog | None = None) -> Checkpoint:
    """Train an encoder with the masked-token objective on raw text lines."""
    seqs = _mlm_documents(lines, vocab, cfg)
    if len(seqs) < cfg.batch_size:
        raise DataError(f"corpus has {len(seqs)} usable lines, fewer than one "
                        f"batch of {cfg.batch_size}")

    params = {name: T.Tensor(arr)
              for name, arr in fresh_params(model_cfg, "encoder_mlm", cfg.seed).items()}
    model = EncoderMlm(model_cfg, params)
    state = OptimizerState(params)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    log = log or MetricsLog()
    log_every = max(1, cfg.total_steps // 20)

    for step in range(1, cfg.total_steps + 1):
        idx = rng.integers(0, len(seqs), size=cfg.batch_size)
        batch = pad_batch([seqs[i] for i in idx])
        corrupted, targets = _mask_batch(batch, model_cfg.vocab_size, MLM_MASK_PROB, rng)
        loss_val = _train_step(model, state, cfg, step, rng,
                               lambda: model.forward_loss(corrupted, targets), "MLM")
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
                                         MLM_MASK_PROB, rng)
        logits = model.logits(corrupted)
        keep = targets != -1
        n = int(keep.sum())
        total += masked_token_loss(logits, targets).item() * n
        correct += int((logits.data[keep].argmax(axis=1) == targets[keep]).sum())
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


def _dev_rouge_l(model: EncoderDecoderModel, pairs, refs: list[list[str]],
                 vocab: Vocabulary, max_len: int) -> float:
    """Mean ROUGE-L F1 of greedy decodes of the pairs' sources against `refs`,
    the words of the pairs' targets."""
    outs = greedy_decode_batch(model, [p[0] for p in pairs], max_len)
    scores = [rouge_l(decode(list(out), vocab).split(), ref).f1 for out, ref in zip(outs, refs)]
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
    dev_pairs = encode_pairs(dev_set[:eval_limit], vocab, cfg)
    dev_refs = [decode(list(tgt), vocab).split() for _, tgt in dev_pairs]

    model = EncoderDecoderModel.from_checkpoint(ckpt)
    params = model.params
    state = OptimizerState(params)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    log = log or MetricsLog()
    if eval_every is None:
        eval_every = max(1, cfg.total_steps // 10)

    best_rouge, best_step = -1.0, -1  # the first evaluation, at least 0, replaces it

    for step in range(1, cfg.total_steps + 1):
        idx = rng.integers(0, len(train_pairs), size=cfg.batch_size)
        src = pad_batch([train_pairs[i][0] for i in idx])
        tgt = pad_batch([train_pairs[i][1] for i in idx])
        loss_val = _train_step(model, state, cfg, step, rng,
                               lambda: model.forward_loss(src, tgt), "fine-tuning")

        if step % eval_every == 0 or step == cfg.total_steps:
            log.add(step, "train", loss_val)
            d_loss = _dev_loss(model, dev_pairs, cfg.batch_size)
            d_rouge = _dev_rouge_l(model, dev_pairs, dev_refs, vocab, cfg.max_tgt_len)
            log.add(step, "dev", d_loss, d_rouge)
            if d_rouge > best_rouge:
                best_rouge, best_step = d_rouge, step
                best_params = {k: p.data.copy() for k, p in params.items()}

    provenance = {"mode": "TRAINED", "source": checkpoint_hash(ckpt), "seed": cfg.seed,
                  "steps": cfg.total_steps, "assembled_from": ckpt.provenance.get("mode", ""),
                  "best_step": best_step, "best_dev_rouge_l": best_rouge}
    best = Checkpoint(ckpt.config, "encoder_decoder", best_params, ckpt.vocab_ref, provenance)
    return best, log
