"""Checkpoint surgery and serialization.

Assembly builds a seq2seq checkpoint from an encoder-only one. A mode is the
set of name prefixes it copies from the encoder (`COPIED_PREFIXES`); a decoder
tensor copies the encoder tensor of its own path, and every other is fresh:

  RND2RND    ()                        every weight fresh; no source is read
  WARM2RND   ("encoder.",)             encoder copied verbatim, decoder fresh
  WARM2WARM  ("encoder.", "decoder.")  decoder self-attention, feed-forward,
             norms and embeddings copied too; cross-attention stays fresh

Causality is a runtime mask, never a weight transformation, so copied
self-attention weights are untouched. Fresh weights are truncated normal
with std 0.02 (cut at 2 sigma), norm gains 1, biases 0.

File format: 8-byte magic, uint32 LE version, uint64 LE header length, a
canonical-JSON header (config, kind, vocab_ref, provenance, name/shape/offset
table sorted by name), then raw little-endian float64 buffers.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import asdict, dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import CheckpointError, DataError
from .fileio import write_atomic
from .model import ModelConfig, expected_param_shapes, validate_params

MAGIC = b"WARMSUMC"
FORMAT_VERSION = 1
INIT_STD = 0.02


class AssemblyMode(str, Enum):
    RND2RND = "RND2RND"
    WARM2RND = "WARM2RND"
    WARM2WARM = "WARM2WARM"


COPIED_PREFIXES = {AssemblyMode.RND2RND: (), AssemblyMode.WARM2RND: ("encoder.",),
                   AssemblyMode.WARM2WARM: ("encoder.", "decoder.")}


@dataclass
class Checkpoint:
    config: ModelConfig
    kind: str  # "encoder_mlm" | "encoder_decoder"
    params: dict[str, np.ndarray]
    vocab_ref: str = ""
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        validate_params(self.params, self.config, self.kind)
        mode = self.provenance.get("mode")
        if mode not in {*(m.value for m in AssemblyMode), "TRAINED"}:
            raise DataError(f"checkpoint provenance mode {mode!r} is not a known mode")


def _truncated_normal(rng: np.random.Generator, shape: tuple[int, ...],
                      std: float = INIT_STD) -> np.ndarray:
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def _fresh_value(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    if name.endswith(".gain"):
        return np.ones(shape)
    if name.endswith(".bias"):
        return np.zeros(shape)
    return _truncated_normal(rng, shape)


def fresh_params(config: ModelConfig, kind: str, seed: int) -> dict[str, np.ndarray]:
    """Deterministic fresh initialization; names drawn in sorted order."""
    if seed < 0:  # PCG64 takes no negative seed
        raise DataError(f"seed must be non-negative, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    shapes = expected_param_shapes(config, kind)
    return {name: _fresh_value(name, shapes[name], rng) for name in sorted(shapes)}


def warm_copy_map(config: ModelConfig, mode: AssemblyMode) -> dict[str, str]:
    """assembled name -> source encoder name for every tensor the mode copies;
    cross-attention has no encoder tensor of its own path and stays fresh."""
    return {name: "encoder." + name.split(".", 1)[1]
            for name in expected_param_shapes(config, "encoder_decoder")
            if name.startswith(COPIED_PREFIXES[AssemblyMode(mode)])
            and ".cross_attn." not in name}


def _check_source_compatible(source: Checkpoint, config: ModelConfig,
                             mode: AssemblyMode) -> None:
    src = source.config
    for attr in ("vocab_size", "d_model", "n_heads", "d_ff", "max_positions"):
        if getattr(src, attr) != getattr(config, attr):
            raise DataError(
                f"source checkpoint incompatible: {attr} is {getattr(src, attr)}, "
                f"target config wants {getattr(config, attr)}"
            )
    copies_decoder = "decoder." in COPIED_PREFIXES[mode]
    needed = max(config.n_enc_layers, config.n_dec_layers if copies_decoder else 0)
    if src.n_enc_layers < needed:
        raise DataError(
            f"source encoder has {src.n_enc_layers} layers, assembly needs {needed}"
        )


def assemble(encoder_ckpt: Checkpoint | None, mode: AssemblyMode,
             config: ModelConfig, seed: int, vocab_ref: str = "") -> Checkpoint:
    """Build an encoder-decoder checkpoint; deterministic in (inputs, seed).
    A mode that copies nothing ignores `encoder_ckpt`."""
    mode = AssemblyMode(mode)
    if not COPIED_PREFIXES[mode]:
        encoder_ckpt = None
    elif encoder_ckpt is None:
        raise DataError(f"assembly mode {mode.value} requires a source encoder checkpoint")
    elif encoder_ckpt.kind != "encoder_mlm":
        raise DataError(f"source checkpoint kind must be encoder_mlm, got {encoder_ckpt.kind!r}")
    else:
        _check_source_compatible(encoder_ckpt, config, mode)

    params = fresh_params(config, "encoder_decoder", seed)
    if encoder_ckpt is not None:
        for dst, src in warm_copy_map(config, mode).items():
            params[dst] = encoder_ckpt.params[src].copy()
    provenance = {
        "mode": mode.value,
        "source": checkpoint_hash(encoder_ckpt) if encoder_ckpt is not None else "",
        "seed": seed,
    }
    if not vocab_ref and encoder_ckpt is not None:
        vocab_ref = encoder_ckpt.vocab_ref
    return Checkpoint(config, "encoder_decoder", params, vocab_ref, provenance)


# ---------------------------------------------------------------------------
# serialization


def save_checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    names = sorted(ckpt.params)
    table = []
    offset = 0
    for name in names:
        arr = ckpt.params[name]
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    header = {
        "config": asdict(ckpt.config),
        "kind": ckpt.kind,
        "provenance": ckpt.provenance,
        "tensors": table,
        "vocab_ref": ckpt.vocab_ref,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False).encode("utf-8")
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    buf.write(struct.pack("<Q", len(header_bytes)))
    buf.write(header_bytes)
    for name in names:
        buf.write(np.ascontiguousarray(ckpt.params[name], dtype="<f8").tobytes())
    return buf.getvalue()


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    write_atomic(path, save_checkpoint_bytes(ckpt))


def load_checkpoint_bytes(blob: bytes, origin: str = "<bytes>") -> Checkpoint:
    if len(blob) < len(MAGIC) + 12 or blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{origin}: not a checkpoint file")
    version = struct.unpack_from("<I", blob, len(MAGIC))[0]
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{origin}: format version {version} is not the supported version {FORMAT_VERSION}"
        )
    header_len = struct.unpack_from("<Q", blob, len(MAGIC) + 4)[0]
    header_start = len(MAGIC) + 12
    header_end = header_start + header_len
    if len(blob) < header_end:
        raise CheckpointError(f"{origin}: truncated checkpoint header")
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{origin}: unreadable checkpoint header ({e})") from None
    try:
        return _from_header(header, blob, header_end)
    except DataError as e:
        raise CheckpointError(f"{origin}: {e}") from None


_HEADER_TYPES = {"config": dict, "kind": str, "provenance": dict, "tensors": list,
                 "vocab_ref": str}


def _from_header(header, blob: bytes, data_start: int) -> Checkpoint:
    """Read the tensors a parsed header describes; they must tile the data exactly."""
    if not isinstance(header, dict) or set(header) - set(_HEADER_TYPES):
        raise DataError(f"checkpoint header is not an object with keys {sorted(_HEADER_TYPES)}")
    for key, typ in _HEADER_TYPES.items():
        if not isinstance(header.get(key), typ):
            raise DataError(f"checkpoint header key {key!r} is missing or not a {typ.__name__}")
    keys, names = set(header["config"]), {f.name for f in fields(ModelConfig)}
    if keys != names:
        raise DataError(f"model config has unknown keys {sorted(keys - names)} "
                        f"and lacks keys {sorted(names - keys)}")
    config = ModelConfig(**header["config"])
    expected = expected_param_shapes(config, header["kind"])
    params = {}
    offset = 0
    for entry in header["tensors"]:
        if not isinstance(entry, dict) or set(entry) != {"name", "shape", "offset"}:
            raise DataError(f"malformed shape table entry {entry!r}")
        name = entry["name"]
        if not isinstance(name, str) or name not in expected or name in params:
            raise DataError(f"unexpected or repeated tensor {name!r} in shape table")
        shape = expected[name]
        if entry["shape"] != list(shape):
            raise DataError(f"tensor {name!r} has shape {entry['shape']}, config expects {shape}")
        if entry["offset"] != offset:
            raise DataError(f"tensor {name!r} is at offset {entry['offset']}, but the tensors "
                            f"before it end at {offset}")
        count = int(np.prod(shape))
        if data_start + offset + 8 * count > len(blob):
            raise DataError(f"truncated checkpoint data at tensor {name!r}")
        params[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                     offset=data_start + offset).reshape(shape).astype(np.float64)
        offset += 8 * count
    if data_start + offset != len(blob):
        raise DataError("checkpoint size disagrees with its shape table")
    return Checkpoint(config, header["kind"], params, header["vocab_ref"], header["provenance"])


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    return load_checkpoint_bytes(blob, origin=str(path))


def checkpoint_hash(ckpt: Checkpoint) -> str:
    return hashlib.sha256(save_checkpoint_bytes(ckpt)).hexdigest()
