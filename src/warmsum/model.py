"""Transformer encoder-decoder on the float64 tensor kernel.

Post-norm residual blocks, learned absolute position embeddings, additive
-1e9 attention masking, attention scaled by 1/sqrt(d_model / n_heads).
The decoder runs causal self-attention plus cross-attention over the
encoder memory; its output projection is tied to its token embedding (one
tensor, two uses), so logits are exactly hidden @ E^T.

Parameters live in a flat dict keyed by canonical dotted names, e.g.
``encoder.layer.0.self_attn.q.weight``; each attention or feed-forward
group carries its own following layer norm (``...self_attn.norm.gain``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError, ShapeMismatchError
from .tokenizer import BOS, EOS, PAD

LN_EPS = 1e-12
NEG_INF = -1e9

KINDS = ("encoder_mlm", "encoder_decoder")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    max_positions: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "d_ff", "n_enc_layers",
                     "n_dec_layers", "max_positions"):
            value = getattr(self, name)
            least = 0 if name.endswith("_layers") else 1
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise DataError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise DataError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if isinstance(self.dropout, bool) or not isinstance(self.dropout, (int, float)) \
                or not 0.0 <= self.dropout < 1.0:
            raise DataError(f"dropout must be a number in [0, 1), got {self.dropout!r}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


def _attn_shapes(prefix: str, d: int) -> dict[str, tuple[int, ...]]:
    shapes = {}
    for proj in ("q", "k", "v", "o"):
        shapes[f"{prefix}.{proj}.weight"] = (d, d)
        shapes[f"{prefix}.{proj}.bias"] = (d,)
    shapes[f"{prefix}.norm.gain"] = (d,)
    shapes[f"{prefix}.norm.bias"] = (d,)
    return shapes


def _ff_shapes(prefix: str, d: int, f: int) -> dict[str, tuple[int, ...]]:
    return {
        f"{prefix}.in.weight": (d, f),
        f"{prefix}.in.bias": (f,),
        f"{prefix}.out.weight": (f, d),
        f"{prefix}.out.bias": (d,),
        f"{prefix}.norm.gain": (d,),
        f"{prefix}.norm.bias": (d,),
    }


def _embed_shapes(prefix: str, cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    return {
        f"{prefix}.embed.token": (cfg.vocab_size, cfg.d_model),
        f"{prefix}.embed.position": (cfg.max_positions, cfg.d_model),
        f"{prefix}.embed.norm.gain": (cfg.d_model,),
        f"{prefix}.embed.norm.bias": (cfg.d_model,),
    }


def expected_param_shapes(cfg: ModelConfig, kind: str) -> dict[str, tuple[int, ...]]:
    """The exact name -> shape table a checkpoint of `kind` must carry."""
    if kind not in KINDS:
        raise DataError(f"unknown checkpoint kind {kind!r}")
    shapes = _embed_shapes("encoder", cfg)
    for i in range(cfg.n_enc_layers):
        shapes.update(_attn_shapes(f"encoder.layer.{i}.self_attn", cfg.d_model))
        shapes.update(_ff_shapes(f"encoder.layer.{i}.ff", cfg.d_model, cfg.d_ff))
    if kind == "encoder_mlm":
        shapes["mlm.bias"] = (cfg.vocab_size,)
        return shapes
    shapes.update(_embed_shapes("decoder", cfg))
    for i in range(cfg.n_dec_layers):
        shapes.update(_attn_shapes(f"decoder.layer.{i}.self_attn", cfg.d_model))
        shapes.update(_attn_shapes(f"decoder.layer.{i}.cross_attn", cfg.d_model))
        shapes.update(_ff_shapes(f"decoder.layer.{i}.ff", cfg.d_model, cfg.d_ff))
    return shapes


def validate_params(params: dict, cfg: ModelConfig, kind: str) -> None:
    expected = expected_param_shapes(cfg, kind)
    missing = sorted(set(expected) - set(params))
    extra = sorted(set(params) - set(expected))
    if missing or extra:
        raise DataError(f"parameter names do not match config: missing={missing} extra={extra}")
    for name, shape in expected.items():
        got = tuple(params[name].shape)
        if got != shape:
            raise ShapeMismatchError(f"parameter {name} has shape {got}, expected {shape}")


def pad_mask_from_ids(ids: np.ndarray, pad_id: int = PAD) -> np.ndarray:
    return np.asarray(ids) != pad_id


def _key_mask(real: np.ndarray) -> np.ndarray:
    # [B, Lk] bool -> additive [B, 1, 1, Lk]
    return np.where(real, 0.0, NEG_INF)[:, None, None, :]


def _causal_mask(length: int) -> np.ndarray:
    m = np.triu(np.full((length, length), NEG_INF), k=1)
    return m[None, None, :, :]


class _Forward:
    """One forward pass over a parameter dict; rng enables dropout."""

    def __init__(self, params: dict[str, T.Tensor], cfg: ModelConfig,
                 rng: np.random.Generator | None):
        self.p = params
        self.cfg = cfg
        self.rng = rng

    def drop(self, x: T.Tensor) -> T.Tensor:
        if self.rng is None or self.cfg.dropout == 0.0:
            return x
        return T.dropout(x, self.cfg.dropout, self.rng)

    def linear(self, name: str, x: T.Tensor) -> T.Tensor:
        return T.add(T.matmul(x, self.p[f"{name}.weight"]), self.p[f"{name}.bias"])

    def norm(self, name: str, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.p[f"{name}.gain"], self.p[f"{name}.bias"], LN_EPS)

    def _heads(self, x: T.Tensor) -> T.Tensor:
        b, l, _ = x.shape
        x = T.reshape(x, (b, l, self.cfg.n_heads, self.cfg.head_dim))
        return T.transpose(x, (0, 2, 1, 3))

    def attention(self, prefix: str, x_q: T.Tensor, x_kv: T.Tensor,
                  add_mask: np.ndarray | None) -> T.Tensor:
        q = self._heads(self.linear(f"{prefix}.q", x_q))
        k = self._heads(self.linear(f"{prefix}.k", x_kv))
        v = self._heads(self.linear(f"{prefix}.v", x_kv))
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                         1.0 / np.sqrt(self.cfg.head_dim))
        if add_mask is not None:
            scores = T.add_const(scores, add_mask)
        attn = self.drop(T.softmax(scores, axis=-1))
        ctx = T.transpose(T.matmul(attn, v), (0, 2, 1, 3))
        b, l = ctx.shape[0], ctx.shape[1]
        ctx = T.reshape(ctx, (b, l, self.cfg.d_model))
        return self.linear(f"{prefix}.o", ctx)

    def feed_forward(self, prefix: str, x: T.Tensor) -> T.Tensor:
        return self.linear(f"{prefix}.out", T.gelu(self.linear(f"{prefix}.in", x)))

    def sublayer(self, prefix: str, x: T.Tensor, out: T.Tensor) -> T.Tensor:
        return self.norm(f"{prefix}.norm", T.add(x, self.drop(out)))

    def embed(self, prefix: str, ids: np.ndarray) -> T.Tensor:
        b, l = ids.shape
        if l > self.cfg.max_positions:
            raise DataError(f"sequence length {l} exceeds max_positions {self.cfg.max_positions}")
        x = T.embedding_lookup(self.p[f"{prefix}.embed.token"], ids)
        pos = T.embedding_lookup(self.p[f"{prefix}.embed.position"],
                                 np.broadcast_to(np.arange(l), (b, l)))
        return self.drop(self.norm(f"{prefix}.embed.norm", T.add(x, pos)))

    def encoder_stack(self, src_ids: np.ndarray, src_real: np.ndarray) -> T.Tensor:
        mask = _key_mask(src_real)
        x = self.embed("encoder", src_ids)
        for i in range(self.cfg.n_enc_layers):
            base = f"encoder.layer.{i}"
            x = self.sublayer(f"{base}.self_attn", x,
                              self.attention(f"{base}.self_attn", x, x, mask))
            x = self.sublayer(f"{base}.ff", x, self.feed_forward(f"{base}.ff", x))
        return x

    def decoder_stack(self, tgt_ids: np.ndarray, memory: T.Tensor,
                      src_real: np.ndarray) -> T.Tensor:
        causal = _causal_mask(tgt_ids.shape[1])
        cross_mask = _key_mask(src_real)
        x = self.embed("decoder", tgt_ids)
        for i in range(self.cfg.n_dec_layers):
            base = f"decoder.layer.{i}"
            x = self.sublayer(f"{base}.self_attn", x,
                              self.attention(f"{base}.self_attn", x, x, causal))
            x = self.sublayer(f"{base}.cross_attn", x,
                              self.attention(f"{base}.cross_attn", x, memory, cross_mask))
            x = self.sublayer(f"{base}.ff", x, self.feed_forward(f"{base}.ff", x))
        return x


class _Model:
    """A parameter dict of one checkpoint kind, run in train or eval mode."""

    kind = ""

    def __init__(self, config: ModelConfig, params: dict[str, T.Tensor]):
        validate_params(params, config, self.kind)
        self.config = config
        self.params = params
        self._rng: np.random.Generator | None = None

    @classmethod
    def from_checkpoint(cls, ckpt):
        if ckpt.kind != cls.kind:
            raise DataError(f"expected an {cls.kind} checkpoint, got {ckpt.kind!r}")
        params = {name: T.parameter(arr.copy(), name) for name, arr in ckpt.params.items()}
        return cls(ckpt.config, params)

    def train(self, rng: np.random.Generator):
        self._rng = rng
        return self

    def eval(self):
        self._rng = None
        return self


class EncoderDecoderModel(_Model):
    kind = "encoder_decoder"

    @property
    def output_matrix(self) -> T.Tensor:
        return self.params["decoder.embed.token"]

    def encode(self, src_ids: np.ndarray) -> T.Tensor:
        src_ids = np.asarray(src_ids, dtype=np.int64)
        fwd = _Forward(self.params, self.config, self._rng)
        return fwd.encoder_stack(src_ids, pad_mask_from_ids(src_ids))

    def decode_logits(self, tgt_ids: np.ndarray, memory: T.Tensor,
                      src_pad_mask: np.ndarray) -> T.Tensor:
        tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
        fwd = _Forward(self.params, self.config, self._rng)
        h = fwd.decoder_stack(tgt_ids, memory, np.asarray(src_pad_mask))
        return T.matmul(h, T.transpose(self.output_matrix))

    def forward_loss(self, src_ids: np.ndarray, tgt_ids: np.ndarray) -> T.Tensor:
        """Teacher-forced loss: predict tgt[1:] from tgt[:-1], PAD ignored."""
        src_ids = np.asarray(src_ids, dtype=np.int64)
        tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
        _check_target_framing(tgt_ids)
        memory = self.encode(src_ids)
        logits = self.decode_logits(tgt_ids[:, :-1], memory, pad_mask_from_ids(src_ids))
        b, l, v = logits.shape
        flat = T.reshape(logits, (b * l, v))
        targets = tgt_ids[:, 1:].reshape(-1)
        return T.cross_entropy(flat, targets, ignore_id=PAD)


def _check_target_framing(tgt_ids: np.ndarray) -> None:
    for row in tgt_ids:
        content = row[row != PAD]
        if content.size == 0:
            continue  # an all-PAD row contributes nothing; loss errors if the whole batch is
        if content[0] != BOS or content[-1] != EOS:
            raise DataError("target rows must start with BOS and end with EOS before padding")


class EncoderMlm(_Model):
    """Encoder stack with a tied masked-token prediction head.

    The head is hidden @ token_embedding^T plus a per-vocabulary bias. The
    bias soaks up the token marginal so the embedding geometry stays clean
    for reuse as a warm-started decoder's tied output head; it is dropped
    at assembly.
    """

    kind = "encoder_mlm"

    def logits(self, ids: np.ndarray) -> T.Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        fwd = _Forward(self.params, self.config, self._rng)
        h = fwd.encoder_stack(ids, pad_mask_from_ids(ids))
        scores = T.matmul(h, T.transpose(self.params["encoder.embed.token"]))
        return T.add(scores, self.params["mlm.bias"])
