import dataclasses

import numpy as np
import pytest

import reference_ops as ref
from gradcheck import fd_grad_components, rel_err
from warmsum import tensor as T
from warmsum.assembly import AssemblyMode, assemble
from warmsum.errors import DataError, ShapeMismatchError
from warmsum.model import (DecoderCache, EncoderDecoderModel, EncoderMlm, ModelConfig,
                           expected_param_shapes, validate_params)
from warmsum.tokenizer import BOS, EOS, PAD

TINY = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                   n_enc_layers=2, n_dec_layers=2, max_positions=16, dropout=0.0)


def tiny_model(seed=0, config=TINY):
    return EncoderDecoderModel.from_checkpoint(
        assemble(None, AssemblyMode.RND2RND, config, seed=seed))


def random_batch(rng, config, batch=2, src_len=7, tgt_len=5):
    src = rng.integers(5, config.vocab_size, size=(batch, src_len))
    src[:, 0] = BOS
    src[:, -1] = EOS
    tgt = rng.integers(5, config.vocab_size, size=(batch, tgt_len))
    tgt[:, 0] = BOS
    tgt[:, -1] = EOS
    return src, tgt


def test_config_validation():
    with pytest.raises(DataError):
        dataclasses.replace(TINY, d_model=10, n_heads=3)
    with pytest.raises(DataError, match="n_heads"):
        dataclasses.replace(TINY, n_heads=0)
    with pytest.raises(DataError, match="d_model"):
        dataclasses.replace(TINY, d_model=64.0)


def test_expected_shapes_tied_vs_untied():
    tied = expected_param_shapes(TINY, "encoder_decoder")
    assert not any(n.startswith("decoder.output") for n in tied)  # logits reuse the embedding
    mlm = expected_param_shapes(TINY, "encoder_mlm")
    assert mlm["mlm.bias"] == (20,)
    assert not any(n.startswith("decoder.") for n in mlm)
    assert set(mlm) - {"mlm.bias"} == {n for n in tied if n.startswith("encoder.")}


def test_validate_params_rejects_missing_and_misshapen():
    model = tiny_model()
    params = dict(model.params)
    removed = params.pop("encoder.embed.token")
    with pytest.raises(DataError, match="missing"):
        validate_params(params, TINY, "encoder_decoder")
    params["encoder.embed.token"] = T.Tensor(np.zeros((3, 3)))
    with pytest.raises(ShapeMismatchError, match="encoder.embed.token"):
        validate_params(params, TINY, "encoder_decoder")
    params["encoder.embed.token"] = removed


def test_encode_output_shape():
    model = tiny_model()
    out = model.encode(np.array([[BOS, 6, 7, EOS, PAD]]))
    assert out.shape == (1, 5, 8)


def test_zero_layer_encoder_returns_embeddings():
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=0, n_dec_layers=1, max_positions=16, dropout=0.0)
    model = tiny_model(config=cfg)
    src = np.array([[BOS, 6, 7, EOS]])
    out = model.encode(src)
    embedded = model._embed("encoder", src)
    assert np.array_equal(out.data, embedded.data)


def test_encoder_pad_positions_never_attended():
    model = tiny_model(seed=3)
    src = np.array([[BOS, 6, 7, EOS, PAD, PAD]])
    tgt = np.array([[BOS, 8, 9]])
    real = src != PAD
    memory = model.encode(src)
    base = model.decode_logits(tgt, memory, real).data
    junk = memory.data.copy()
    junk[0, 4:] = 100.0 * np.random.default_rng(3).normal(size=junk[0, 4:].shape)
    perturbed = model.decode_logits(tgt, T.Tensor(junk), real).data  # junk behind the mask
    assert np.max(np.abs(perturbed - base)) < 1e-10
    exposed = model.decode_logits(tgt, T.Tensor(junk), np.ones_like(real)).data
    assert np.max(np.abs(exposed - base)) > 1e-6  # sanity: unmasked junk moves the logits


def test_encoder_output_invariant_to_extra_padding():
    model = tiny_model(seed=4)
    src = np.array([[BOS, 6, 7, 9, EOS]])
    base = model.encode(src).data
    padded = np.concatenate([src, np.full((1, 3), PAD)], axis=1)
    out = model.encode(padded).data
    assert np.max(np.abs(out[0, :5] - base[0])) < 1e-10


def test_decoder_causality():
    rng = np.random.default_rng(5)
    model = tiny_model(seed=6)
    src, tgt = random_batch(rng, TINY, batch=1, src_len=6, tgt_len=6)
    real = src != PAD
    memory = model.encode(src)
    base = model.decode_logits(tgt, memory, real).data
    t = 2
    mutated = tgt.copy()
    mutated[0, t + 1:] = rng.integers(5, TINY.vocab_size, size=tgt.shape[1] - t - 1)
    out = model.decode_logits(mutated, memory, real).data
    assert np.max(np.abs(out[0, :t + 1] - base[0, :t + 1])) < 1e-10
    assert np.max(np.abs(out[0, t + 1:] - base[0, t + 1:])) > 1e-6  # sanity: later rows move


def test_tied_logits_are_hidden_times_embedding_transpose():
    model = tiny_model(seed=7)
    src = np.array([[BOS, 6, EOS]])
    tgt = np.array([[BOS, 8, 9]])
    real = src != PAD
    memory = model.encode(src)
    logits = model.decode_logits(tgt, memory, real)
    hidden = model._decoder_stack(tgt, memory, real)
    manual = hidden.data @ model.params["decoder.embed.token"].data.T
    assert np.array_equal(logits.data, manual)
    assert model.output_matrix is model.params["decoder.embed.token"]


def padded_sources(rng, lengths, config=TINY):
    """A batch of BOS ... EOS sources of the given lengths, PAD-filled to the longest."""
    src = np.full((len(lengths), max(lengths)), PAD)
    for i, n in enumerate(lengths):
        src[i, :n] = [BOS, *rng.integers(5, config.vocab_size, size=n - 2), EOS]
    return src


def test_cached_logits_match_full_prefix():
    rng = np.random.default_rng(20)
    for seed in range(5):
        model = tiny_model(seed=seed).eval()
        src = padded_sources(rng, [3, 9, 6])
        real = src != PAD
        memory = model.encode(src)
        tgt = rng.integers(5, TINY.vocab_size, size=(3, 8))
        tgt[:, 0] = BOS
        cache = DecoderCache()
        # a first call of three positions, then one position per call
        cached = [model.decode_logits(tgt[:, :3], memory, real, cache=cache).data]
        for t in range(3, tgt.shape[1]):
            cached.append(model.decode_logits(tgt[:, t:t + 1], memory, real, cache=cache).data)
        assert cache.length == tgt.shape[1]
        full = model.decode_logits(tgt, memory, real).data
        assert np.max(np.abs(np.concatenate(cached, axis=1) - full)) < 1e-12, f"seed {seed}"


def test_a_whole_prefix_decodes_as_a_first_call_on_a_fresh_cache():
    rng = np.random.default_rng(22)
    for seed in range(3):
        model = tiny_model(seed=seed).eval()
        src = padded_sources(rng, [5, 9])
        memory = model.encode(src)
        tgt = rng.integers(5, TINY.vocab_size, size=(2, 6))
        tgt[:, 0] = BOS
        full = model.decode_logits(tgt, memory, src != PAD).data
        cache = DecoderCache()
        first = model.decode_logits(tgt, memory, src != PAD, cache=cache).data
        assert full.tobytes() == first.tobytes(), f"seed {seed}"
        assert cache.length == tgt.shape[1]


def test_reordered_cache_matches_a_cache_rebuilt_from_the_selected_prefixes():
    rng = np.random.default_rng(21)
    model = tiny_model(seed=11).eval()
    src = padded_sources(rng, [4, 8, 5])
    real = src != PAD
    memory = model.encode(src)
    prefixes = rng.integers(5, TINY.vocab_size, size=(3, 4))
    prefixes[:, 0] = BOS
    cache = DecoderCache()
    for t in range(prefixes.shape[1]):
        model.decode_logits(prefixes[:, t:t + 1], memory, real, cache=cache)
    rows = np.array([2, 0, 0, 1])
    cache.reorder(rows)
    nxt = rng.integers(5, TINY.vocab_size, size=(4, 1))
    got = model.decode_logits(nxt, memory, real, cache=cache).data

    rebuilt = DecoderCache()
    model.decode_logits(prefixes[rows], T.Tensor(memory.data[rows]), real[rows], cache=rebuilt)
    expect = model.decode_logits(nxt, memory, real, cache=rebuilt).data
    assert np.max(np.abs(got - expect)) < 1e-12


def test_cached_call_on_an_active_tape_raises():
    model = tiny_model(seed=12)
    src = np.array([[BOS, 6, 7, EOS]])
    memory = model.encode(src)
    with T.Tape():
        with pytest.raises(RuntimeError, match="inference only"):
            model.decode_logits(np.array([[BOS]]), memory, src != PAD, cache=DecoderCache())


def test_cached_positions_past_max_positions_rejected():
    model = tiny_model(seed=13).eval()
    src = np.array([[BOS, 6, EOS]])
    memory = model.encode(src)
    cache = DecoderCache()
    model.decode_logits(np.full((1, TINY.max_positions), 6), memory, src != PAD, cache=cache)
    with pytest.raises(DataError, match="max_positions"):
        model.decode_logits(np.array([[6]]), memory, src != PAD, cache=cache)


def test_random_model_logits_finite():
    rng = np.random.default_rng(8)
    for seed in range(10):
        model = tiny_model(seed=seed)
        src, tgt = random_batch(rng, TINY)
        real = src != PAD
        logits = model.decode_logits(tgt, model.encode(src), real)
        assert np.all(np.isfinite(logits.data))


def test_sequence_too_long_rejected():
    model = tiny_model()
    src = np.full((1, TINY.max_positions + 1), 6)
    src[0, 0] = BOS
    with pytest.raises(DataError, match="max_positions"):
        model.encode(src)


def test_forward_loss_matches_manual_cross_entropy():
    model = tiny_model(seed=9)
    src = np.array([[BOS, 6, 7, EOS]])
    tgt = np.array([[BOS, 10, 11, EOS, PAD]])
    loss = model.forward_loss(src, tgt)
    real = src != PAD
    logits = model.decode_logits(tgt[:, :-1], model.encode(src), real)
    manual = T.cross_entropy(ref.reshape(logits, (4, TINY.vocab_size)),
                             tgt[:, 1:].reshape(-1), ignore_id=PAD)
    assert loss.item() == pytest.approx(manual.item(), rel=1e-12)


def test_a_training_step_of_a_2_plus_2_model_records_91_nodes():
    # 3 per embedding, 15 per encoder layer, 26 per decoder layer, and the tied
    # output projection (transpose, matmul) plus the loss
    model = tiny_model(seed=9).train(np.random.default_rng(0))
    src, tgt = random_batch(np.random.default_rng(9), TINY)
    with T.Tape() as tape:
        T.backward(model.forward_loss(src, tgt))
        assert len(tape) == 2 * 3 + 2 * 15 + 2 * 26 + 3 == 91


def test_forward_loss_invariant_to_src_padding():
    model = tiny_model(seed=10)
    src = np.array([[BOS, 6, 7, 9, EOS]])
    tgt = np.array([[BOS, 10, 11, EOS]])
    base = model.forward_loss(src, tgt).item()
    padded = np.concatenate([src, np.full((1, 4), PAD)], axis=1)
    assert abs(model.forward_loss(padded, tgt).item() - base) < 1e-10


def test_forward_loss_all_pad_target_is_empty_loss():
    model = tiny_model()
    src = np.array([[BOS, 6, EOS]])
    tgt = np.full((1, 4), PAD)
    with pytest.raises(DataError, match="empty loss"):
        model.forward_loss(src, tgt)


def test_forward_loss_rejects_missing_bos_eos():
    model = tiny_model()
    src = np.array([[BOS, 6, EOS]])
    with pytest.raises(DataError, match="BOS"):
        model.forward_loss(src, np.array([[6, 7, EOS]]))
    with pytest.raises(DataError, match="BOS"):
        model.forward_loss(src, np.array([[BOS, 7, 8]]))


def test_dropout_only_active_in_train_mode():
    cfg = ModelConfig(**{**TINY.__dict__, "dropout": 0.2})
    model = tiny_model(config=cfg)
    src = np.array([[BOS, 6, 7, EOS]])
    a = model.encode(src).data
    b = model.encode(src).data
    assert np.array_equal(a, b)  # eval mode is deterministic
    model.train(np.random.default_rng(0))
    c = model.encode(src).data
    model.train(np.random.default_rng(0))
    d = model.encode(src).data
    assert np.array_equal(c, d)  # same rng stream, same mask
    assert not np.array_equal(a, c)


def test_full_model_gradient_against_finite_differences():
    rng = np.random.default_rng(11)
    model = tiny_model(seed=12)
    src, tgt = random_batch(rng, TINY, batch=2, src_len=6, tgt_len=5)

    with T.Tape():
        loss = model.forward_loss(src, tgt)
        T.backward(loss)

    def loss_fn():
        return model.forward_loss(src, tgt).item()

    analytic, numeric = [], []
    for name in sorted(model.params):
        p = model.params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = g.reshape(-1)
        idx = [int(np.argmax(np.abs(flat)))] + list(rng.integers(0, flat.size, size=2))
        analytic.extend(flat[i] for i in idx)
        numeric.extend(fd_grad_components(loss_fn, p, idx))
    assert rel_err(np.array(analytic), np.array(numeric)) < 1e-4


def test_mlm_head_ties_encoder_embedding():
    from warmsum.assembly import fresh_params

    params = {name: T.Tensor(arr)
              for name, arr in fresh_params(TINY, "encoder_mlm", seed=1).items()}
    mlm = EncoderMlm(TINY, params)
    ids = np.array([[BOS, 6, 7, EOS]])
    logits = mlm.logits(ids)
    assert logits.shape == (1, 4, TINY.vocab_size)
    hidden = mlm._encoder_stack(ids, ids != PAD)
    manual = hidden.data @ params["encoder.embed.token"].data.T + params["mlm.bias"].data
    assert np.array_equal(logits.data, manual)
