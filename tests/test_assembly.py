import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from warmsum.assembly import (MAGIC, AssemblyMode, Checkpoint, assemble,
                              checkpoint_hash, fresh_params, load_checkpoint,
                              load_checkpoint_bytes, save_checkpoint,
                              save_checkpoint_bytes, warm_copy_map)
from warmsum.cli import main
from warmsum.errors import CheckpointError, DataError
from warmsum.model import EncoderDecoderModel, ModelConfig
from warmsum.tokenizer import BOS, EOS, PAD

CFG = ModelConfig(vocab_size=24, d_model=8, n_heads=2, d_ff=16,
                  n_enc_layers=2, n_dec_layers=2, max_positions=12, dropout=0.0)


@pytest.fixture(scope="module")
def encoder_ckpt():
    return Checkpoint(CFG, "encoder_mlm", fresh_params(CFG, "encoder_mlm", seed=77),
                      vocab_ref="vocab.txt", provenance={"mode": "TRAINED", "source": "",
                                                         "seed": 77})


def test_rnd2rnd_init_statistics():
    big = ModelConfig(vocab_size=64, d_model=32, n_heads=4, d_ff=64,
                      n_enc_layers=2, n_dec_layers=2, max_positions=32, dropout=0.0)
    ckpt = assemble(None, AssemblyMode.RND2RND, big, seed=0)
    weights = np.concatenate([
        arr.ravel() for name, arr in ckpt.params.items()
        if not name.endswith((".gain", ".bias"))
    ])
    # std of a normal truncated at 2 sigma: sigma * sqrt(1 - 4*phi(2)/(2*Phi(2)-1))
    phi2 = np.exp(-2.0) / np.sqrt(2 * np.pi)
    trunc_std = 0.02 * np.sqrt(1.0 - 4.0 * phi2 / 0.9544997361036416)
    assert abs(weights.mean()) < 5e-4
    assert abs(weights.std() - trunc_std) < 5e-4
    assert np.abs(weights).max() <= 0.04
    gains = [arr for name, arr in ckpt.params.items() if name.endswith(".gain")]
    biases = [arr for name, arr in ckpt.params.items() if name.endswith(".bias")]
    assert all(np.all(g == 1.0) for g in gains)
    assert all(np.all(b == 0.0) for b in biases)


def test_assembly_deterministic(encoder_ckpt):
    a = assemble(encoder_ckpt, AssemblyMode.WARM2RND, CFG, seed=5)
    b = assemble(encoder_ckpt, AssemblyMode.WARM2RND, CFG, seed=5)
    assert save_checkpoint_bytes(a) == save_checkpoint_bytes(b)
    c = assemble(encoder_ckpt, AssemblyMode.WARM2RND, CFG, seed=6)
    assert save_checkpoint_bytes(a) != save_checkpoint_bytes(c)


def test_warm2rnd_copies_encoder_only(encoder_ckpt):
    ckpt = assemble(encoder_ckpt, AssemblyMode.WARM2RND, CFG, seed=1)
    rnd = assemble(None, AssemblyMode.RND2RND, CFG, seed=1)
    for name, arr in ckpt.params.items():
        if name.startswith("encoder."):
            assert np.array_equal(arr, encoder_ckpt.params[name]), name
        else:
            assert np.array_equal(arr, rnd.params[name]), name


def test_warm2warm_copy_definition(encoder_ckpt):
    ckpt = assemble(encoder_ckpt, AssemblyMode.WARM2WARM, CFG, seed=2)
    for k in range(CFG.n_dec_layers):
        for suffix in ("q.weight", "q.bias", "k.weight", "v.weight", "o.weight",
                       "norm.gain", "norm.bias"):
            src = encoder_ckpt.params[f"encoder.layer.{k}.self_attn.{suffix}"]
            assert np.array_equal(ckpt.params[f"encoder.layer.{k}.self_attn.{suffix}"], src)
            assert np.array_equal(ckpt.params[f"decoder.layer.{k}.self_attn.{suffix}"], src)
        for suffix in ("in.weight", "in.bias", "out.weight", "out.bias",
                       "norm.gain", "norm.bias"):
            src = encoder_ckpt.params[f"encoder.layer.{k}.ff.{suffix}"]
            assert np.array_equal(ckpt.params[f"decoder.layer.{k}.ff.{suffix}"], src)
    for name in ("embed.token", "embed.position", "embed.norm.gain", "embed.norm.bias"):
        assert np.array_equal(ckpt.params[f"decoder.{name}"],
                              encoder_ckpt.params[f"encoder.{name}"])


def test_warm2warm_structural_diff_isolates_cross_attention(encoder_ckpt):
    # a tensor equals the encoder's tensor of its name, with `decoder.` read
    # as `encoder.`, if and only if it is not cross-attention
    ckpt = assemble(encoder_ckpt, AssemblyMode.WARM2WARM, CFG, seed=3)
    for name, arr in ckpt.params.items():
        source = name.replace("decoder.", "encoder.", 1)
        copied = source in encoder_ckpt.params and np.array_equal(arr, encoder_ckpt.params[source])
        assert copied == (".cross_attn." not in name), name


@pytest.mark.parametrize("mode", list(AssemblyMode))
def test_warm_copy_map_covers_every_non_cross_attention_name(mode):
    mapping = warm_copy_map(CFG, mode)
    names = set(fresh_params(CFG, "encoder_decoder", 0))
    if mode is AssemblyMode.RND2RND:
        assert mapping == {}
    elif mode is AssemblyMode.WARM2RND:
        assert mapping == {n: n for n in names if n.startswith("encoder.")}
    else:  # every name but cross-attention's, from the encoder tensor of its path
        assert mapping == {n: n.replace("decoder.", "encoder.", 1)
                           for n in names if ".cross_attn." not in n}


def test_warm2warm_produces_finite_logits(encoder_ckpt):
    ckpt = assemble(encoder_ckpt, AssemblyMode.WARM2WARM, CFG, seed=4)
    model = EncoderDecoderModel.from_checkpoint(ckpt)
    src = np.array([[BOS, 6, 7, EOS, PAD]])
    tgt = np.array([[BOS, 9, 10]])
    real = src != PAD
    logits = model.decode_logits(tgt, model.encode(src), real)
    assert np.all(np.isfinite(logits.data))


def test_assemble_never_mutates_source(encoder_ckpt):
    before = {k: v.copy() for k, v in encoder_ckpt.params.items()}
    ckpt = assemble(encoder_ckpt, AssemblyMode.WARM2WARM, CFG, seed=5)
    ckpt.params["encoder.embed.token"][:] = 0.0
    assert all(np.array_equal(encoder_ckpt.params[k], before[k]) for k in before)


def test_warm_modes_require_source():
    with pytest.raises(DataError, match="requires a source"):
        assemble(None, AssemblyMode.WARM2RND, CFG, seed=0)


def test_incompatible_source_rejected(encoder_ckpt):
    narrow = dataclasses.replace(CFG, d_model=16, n_heads=4)
    with pytest.raises(DataError, match="d_model"):
        assemble(encoder_ckpt, AssemblyMode.WARM2WARM, narrow, seed=0)
    deeper = dataclasses.replace(CFG, n_dec_layers=3)
    with pytest.raises(DataError, match="layers"):
        assemble(encoder_ckpt, AssemblyMode.WARM2WARM, deeper, seed=0)
    # a mode that copies no decoder tensor needs no encoder layer per decoder layer
    assemble(encoder_ckpt, AssemblyMode.WARM2RND, deeper, seed=0)


def test_provenance_recorded(encoder_ckpt):
    ckpt = assemble(encoder_ckpt, AssemblyMode.WARM2WARM, CFG, seed=9)
    assert ckpt.provenance["mode"] == "WARM2WARM"
    assert ckpt.provenance["seed"] == 9
    assert ckpt.provenance["source"] == checkpoint_hash(encoder_ckpt)
    assert ckpt.vocab_ref == "vocab.txt"
    # RND2RND records nothing of a source it is given
    rnd = assemble(encoder_ckpt, AssemblyMode.RND2RND, CFG, seed=9)
    assert save_checkpoint_bytes(rnd) == save_checkpoint_bytes(
        assemble(None, AssemblyMode.RND2RND, CFG, seed=9))
    with pytest.raises(DataError, match="mode"):
        Checkpoint(CFG, "encoder_decoder", fresh_params(CFG, "encoder_decoder", 0),
                   provenance={"mode": "bogus"})


# -- serialization ------------------------------------------------------------


def test_round_trip_bit_identical(encoder_ckpt, tmp_path):
    ckpt = assemble(encoder_ckpt, AssemblyMode.WARM2WARM, CFG, seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert save_checkpoint_bytes(loaded) == save_checkpoint_bytes(ckpt)
    assert loaded.provenance == ckpt.provenance
    assert loaded.config == ckpt.config
    assert loaded.vocab_ref == ckpt.vocab_ref
    assert all(np.array_equal(loaded.params[k], ckpt.params[k]) for k in ckpt.params)


def test_corrupted_magic_rejected(encoder_ckpt):
    blob = bytearray(save_checkpoint_bytes(encoder_ckpt))
    blob[:4] = b"XXXX"
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint_bytes(bytes(blob))


def test_future_version_rejected(encoder_ckpt):
    blob = bytearray(save_checkpoint_bytes(encoder_ckpt))
    struct.pack_into("<I", blob, len(MAGIC), 99)
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint_bytes(bytes(blob))


def test_truncated_file_rejected(encoder_ckpt):
    blob = save_checkpoint_bytes(encoder_ckpt)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint_bytes(blob[:len(blob) // 2])


def test_shape_table_disagreement_rejected(encoder_ckpt):
    blob = save_checkpoint_bytes(encoder_ckpt)
    header_len = struct.unpack_from("<Q", blob, len(MAGIC) + 4)[0]
    start = len(MAGIC) + 12
    header = json.loads(blob[start:start + header_len].decode("utf-8"))
    header["tensors"][0]["shape"] = [1, 1]
    patched = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    rebuilt = (blob[:len(MAGIC)] + struct.pack("<I", 1) + struct.pack("<Q", len(patched))
               + patched + blob[start + header_len:])
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint_bytes(rebuilt)


def test_extra_tensor_in_table_rejected(encoder_ckpt):
    params = dict(encoder_ckpt.params)
    params["rogue.weight"] = np.zeros((2, 2))
    with pytest.raises(DataError, match="extra"):
        Checkpoint(CFG, "encoder_mlm", params, provenance={"mode": "TRAINED"})


# -- malformed headers ----------------------------------------------------------

SMALL = ModelConfig(vocab_size=8, d_model=2, n_heads=1, d_ff=2, n_enc_layers=1,
                    n_dec_layers=1, max_positions=4, dropout=0.0)
SMALL_BLOB = save_checkpoint_bytes(assemble(None, AssemblyMode.RND2RND, SMALL, seed=0))


def _with_header(blob: bytes, edit) -> bytes:
    """The blob with its JSON header passed through edit(header)."""
    header_len = struct.unpack_from("<Q", blob, len(MAGIC) + 4)[0]
    start = len(MAGIC) + 12
    header = json.loads(blob[start:start + header_len].decode("utf-8"))
    edit(header)
    patched = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return (blob[:len(MAGIC) + 4] + struct.pack("<Q", len(patched)) + patched
            + blob[start + header_len:])


def test_negative_tensor_offset_rejected():
    def edit(header):
        header["tensors"][0]["offset"] = -16

    with pytest.raises(CheckpointError, match="offset -16"):
        load_checkpoint_bytes(_with_header(SMALL_BLOB, edit))


def test_tensors_sharing_bytes_rejected():
    def edit(header):
        header["tensors"][0]["offset"] = header["tensors"][1]["offset"]

    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint_bytes(_with_header(SMALL_BLOB, edit))


def test_header_without_kind_rejected():
    with pytest.raises(CheckpointError, match="'kind' is missing"):
        load_checkpoint_bytes(_with_header(SMALL_BLOB, lambda h: h.pop("kind")))


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.update(n_layerz=2), "unknown keys \\['n_layerz'\\]"),
    (lambda c: c.pop("d_ff"), "lacks keys \\['d_ff'\\]"),
    (lambda c: c.update(d_model="2"), "d_model must be an integer"),
    (lambda c: c.update(dropout=None), "dropout must be a number"),
])
def test_bad_config_keys_rejected(edit, message):
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint_bytes(_with_header(SMALL_BLOB, lambda h: edit(h["config"])))


def test_checkpoint_with_retired_config_keys_is_refused(tmp_path, capsys):
    # written by an earlier version whose model config had three more options
    path = DATA_DIR / "retired_config_keys.ckpt"
    with pytest.raises(CheckpointError, match="unknown keys"):
        load_checkpoint(path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}", encoding="utf-8")
    assert main(["generate", "--config", str(cfg), "--ckpt", str(path), "--vocab", "v.txt",
                 "--input", "in.txt", "--out", "out.txt"]) == 2
    assert "unknown keys" in capsys.readouterr().err


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_or_truncated_blob_loads_or_raises_data_error(data):
    blob = bytearray(SMALL_BLOB)
    header_end = len(MAGIC) + 12 + struct.unpack_from("<Q", blob, len(MAGIC) + 4)[0]
    if data.draw(st.booleans()):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        # half the mutations land in the magic, version, length or header
        positions = st.one_of(st.integers(0, header_end - 1), st.integers(0, len(blob) - 1))
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(positions)] = data.draw(st.integers(0, 255))
    try:
        load_checkpoint_bytes(bytes(blob))
    except DataError:
        pass
