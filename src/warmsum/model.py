"""Transformer encoder-decoder on the float64 tensor kernel.

Post-norm residual blocks, learned absolute position embeddings, additive
-1e9 attention masking, attention scaled by 1/sqrt(d_model / n_heads).
The decoder runs causal self-attention plus cross-attention over the
encoder memory; its output projection is tied to its token embedding (one
tensor, two uses), so logits are exactly hidden @ E^T.

Parameters live in a flat dict keyed by canonical dotted names, e.g.
``encoder.layer.0.self_attn.q.weight``; each attention or feed-forward
group carries its own following layer norm (``...self_attn.norm.gain``).

Both models run their forward pass through the private methods of one base
class; each model's `forward_loss` is the loss a training step minimises.
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
    d_model: int
    n_heads: int
    d_ff: int
    n_enc_layers: int
    n_dec_layers: int
    max_positions: int
    dropout: float

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


def pad_batch(seqs: list[list[int]]) -> np.ndarray:
    """Rows of ids, PAD-filled to the longest."""
    out = np.full((len(seqs), max(len(s) for s in seqs)), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
    return out


def _key_mask(real: np.ndarray) -> np.ndarray:
    # [B, Lk] bool -> additive [B, 1, 1, Lk]
    return np.where(real, 0.0, NEG_INF)[:, None, None, :]


def _causal_mask(length: int, start: int = 0) -> np.ndarray:
    # queries are positions start..start+length-1; keys are positions 0..start+length-1
    m = np.triu(np.full((length, start + length), NEG_INF), k=start + 1)
    return m[None, None, :, :]


class DecoderCache:
    """Keys and values of an incremental decode, per attention sublayer.

    Pass one to `EncoderDecoderModel.decode_logits` with only the newest
    positions of each row. The first call projects every layer's
    cross-attention keys and values from the encoder memory and keeps the
    source mask; later calls reuse them and ignore `memory` and
    `src_real`. Self-attention entries grow by the positions of each call.
    A caller's cache is for inference only: cached arrays carry no graph, so
    passing one while a tape is active raises.
    """

    def __init__(self):
        self.length = 0  # decoder positions cached so far
        self.kv: dict[str, tuple[T.Tensor, T.Tensor]] = {}
        self.cross_mask: np.ndarray | None = None

    def reorder(self, rows: np.ndarray) -> None:
        """Keep, in order, the given batch rows (a row may repeat), e.g. a beam's parents."""
        self.kv = {p: (T.Tensor(k.data[rows]), T.Tensor(v.data[rows]))
                   for p, (k, v) in self.kv.items()}
        if self.cross_mask is not None:
            self.cross_mask = self.cross_mask[rows]


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
        params = {name: T.Tensor(arr.copy()) for name, arr in ckpt.params.items()}
        return cls(ckpt.config, params)

    def train(self, rng: np.random.Generator):
        self._rng = rng
        return self

    def eval(self):
        self._rng = None
        return self

    def _drop(self, x: T.Tensor) -> T.Tensor:
        if self._rng is None or self.config.dropout == 0.0:
            return x
        return T.dropout(x, self.config.dropout, self._rng)

    def _linear(self, name: str, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.params[f"{name}.weight"], self.params[f"{name}.bias"])

    def _add_norm(self, name: str, x: T.Tensor, y: T.Tensor) -> T.Tensor:
        return T.add_layer_norm(x, y, self.params[f"{name}.gain"], self.params[f"{name}.bias"],
                                LN_EPS)

    def _attention(self, prefix: str, x_q: T.Tensor, x_kv: T.Tensor,
                   add_mask: np.ndarray | None, cache: DecoderCache | None = None) -> T.Tensor:
        """Multi-head attention of x_q over x_kv; x_kv is x_q for self-attention.

        With a cache, self-attention appends this call's keys and values to the
        cached ones, and cross-attention projects x_kv on the first call only.
        """
        n_heads = self.config.n_heads
        q = T.split_heads(self._linear(f"{prefix}.q", x_q), n_heads)
        cached = cache.kv.get(prefix) if cache is not None else None
        if cached is not None and x_kv is not x_q:
            k, v = cached
        else:
            k = T.split_heads(self._linear(f"{prefix}.k", x_kv), n_heads)
            v = T.split_heads(self._linear(f"{prefix}.v", x_kv), n_heads)
            if cached is not None:
                k = T.Tensor(np.concatenate([cached[0].data, k.data], axis=2))
                v = T.Tensor(np.concatenate([cached[1].data, v.data], axis=2))
            if cache is not None:
                cache.kv[prefix] = (k, v)
        attn = self._drop(T.attention_probs(q, k, 1.0 / np.sqrt(self.config.head_dim), add_mask))
        return self._linear(f"{prefix}.o", T.merge_heads(T.matmul(attn, v)))

    def _feed_forward(self, prefix: str, x: T.Tensor) -> T.Tensor:
        return self._linear(f"{prefix}.out", T.gelu(self._linear(f"{prefix}.in", x)))

    def _sublayer(self, prefix: str, x: T.Tensor, out: T.Tensor) -> T.Tensor:
        return self._add_norm(f"{prefix}.norm", x, self._drop(out))

    def _embed(self, prefix: str, ids: np.ndarray, start: int = 0) -> T.Tensor:
        """Token plus position embeddings; the first column is position `start`."""
        b, l = ids.shape
        if start + l > self.config.max_positions:
            raise DataError(f"sequence length {start + l} exceeds max_positions "
                            f"{self.config.max_positions}")
        x = T.embedding_lookup(self.params[f"{prefix}.embed.token"], ids)
        pos = T.position_lookup(self.params[f"{prefix}.embed.position"], start, b, l)
        return self._drop(self._add_norm(f"{prefix}.embed.norm", x, pos))

    def _encoder_stack(self, src_ids: np.ndarray, src_real: np.ndarray) -> T.Tensor:
        mask = _key_mask(src_real)
        x = self._embed("encoder", src_ids)
        for i in range(self.config.n_enc_layers):
            base = f"encoder.layer.{i}"
            x = self._sublayer(f"{base}.self_attn", x,
                               self._attention(f"{base}.self_attn", x, x, mask))
            x = self._sublayer(f"{base}.ff", x, self._feed_forward(f"{base}.ff", x))
        return x


class EncoderDecoderModel(_Model):
    kind = "encoder_decoder"

    @property
    def output_matrix(self) -> T.Tensor:
        return self.params["decoder.embed.token"]

    def encode(self, src_ids: np.ndarray) -> T.Tensor:
        src_ids = np.asarray(src_ids, dtype=np.int64)
        return self._encoder_stack(src_ids, src_ids != PAD)

    def decode_logits(self, tgt_ids: np.ndarray, memory: T.Tensor, src_real: np.ndarray,
                      cache: DecoderCache | None = None) -> T.Tensor:
        """Logits [B, L, V] for the positions of tgt_ids, the positions after
        those already in `cache`; the cache grows by them. Without a cache
        tgt_ids is the whole prefix.
        """
        tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
        h = self._decoder_stack(tgt_ids, memory, np.asarray(src_real), cache)
        return T.matmul(h, T.transpose(self.output_matrix))

    def forward_loss(self, src_ids: np.ndarray, tgt_ids: np.ndarray) -> T.Tensor:
        """Teacher-forced loss: predict tgt[1:] from tgt[:-1], PAD ignored."""
        src_ids = np.asarray(src_ids, dtype=np.int64)
        tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
        _check_target_framing(tgt_ids)
        memory = self.encode(src_ids)
        logits = self.decode_logits(tgt_ids[:, :-1], memory, src_ids != PAD)
        return T.cross_entropy(logits, tgt_ids[:, 1:], ignore_id=PAD)

    def _decoder_stack(self, tgt_ids: np.ndarray, memory: T.Tensor, src_real: np.ndarray,
                       cache: DecoderCache | None = None) -> T.Tensor:
        """Decoder states of tgt_ids, the positions after those in `cache`; a
        fresh cache when None, so a whole prefix runs the same body as a step."""
        if cache is None:
            cache = DecoderCache()
        elif T.recording():
            raise RuntimeError("a decoder cache is for inference only; "
                               "cached keys and values carry no graph")
        if cache.cross_mask is None:
            cache.cross_mask = _key_mask(src_real)
        # one new position sees every cached key, so it needs no causal mask
        causal = _causal_mask(tgt_ids.shape[1], cache.length) if tgt_ids.shape[1] > 1 else None
        x = self._embed("decoder", tgt_ids, cache.length)
        for i in range(self.config.n_dec_layers):
            base = f"decoder.layer.{i}"
            x = self._sublayer(f"{base}.self_attn", x,
                               self._attention(f"{base}.self_attn", x, x, causal, cache))
            x = self._sublayer(f"{base}.cross_attn", x,
                               self._attention(f"{base}.cross_attn", x, memory,
                                               cache.cross_mask, cache))
            x = self._sublayer(f"{base}.ff", x, self._feed_forward(f"{base}.ff", x))
        cache.length += tgt_ids.shape[1]
        return x


def _check_target_framing(tgt_ids: np.ndarray) -> None:
    for row in tgt_ids:
        content = row[row != PAD]
        if content.size == 0:
            continue  # an all-PAD row contributes nothing; loss errors if the whole batch is
        if content[0] != BOS or content[-1] != EOS:
            raise DataError("target rows must start with BOS and end with EOS before padding")


def masked_token_loss(logits: T.Tensor, targets: np.ndarray) -> T.Tensor:
    """The MLM loss: mean cross-entropy of [B, L, V] logits where targets is not -1."""
    return T.cross_entropy(logits, targets, ignore_id=-1)


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
        h = self._encoder_stack(ids, ids != PAD)
        return T.linear(h, T.transpose(self.params["encoder.embed.token"]),
                        self.params["mlm.bias"])

    def forward_loss(self, ids: np.ndarray, targets: np.ndarray) -> T.Tensor:
        return masked_token_loss(self.logits(ids), targets)
