import numpy as np
import pytest

from gradcheck import fd_grad_components, rel_err
from warmsum import tensor as T
from warmsum.assembly import AssemblyMode, assemble
from warmsum.errors import DataError, ShapeMismatchError
from warmsum.model import (EncoderDecoderModel, EncoderMlm, ModelConfig, _Forward,
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
        ModelConfig(vocab_size=10, d_model=10, n_heads=3)
    with pytest.raises(DataError, match="n_heads"):
        ModelConfig(vocab_size=10, n_heads=0)
    with pytest.raises(DataError, match="d_model"):
        ModelConfig(vocab_size=10, d_model=64.0)


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
    fwd = _Forward(model.params, cfg, None)
    embedded = fwd.embed("encoder", src)
    assert np.array_equal(out.data, embedded.data)


def test_encoder_pad_positions_never_attended():
    model = tiny_model(seed=3)
    src = np.array([[BOS, 6, 7, EOS, PAD, PAD]])
    base = model.encode(src).data
    junk = src.copy()
    junk[0, 4:] = [9, 13]  # junk content behind the pad mask
    perturbed = model.encode(junk, src_pad_mask=(src != PAD)).data
    assert np.max(np.abs(perturbed[0, :4] - base[0, :4])) < 1e-10


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
    memory = model.encode(src, real)
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
    memory = model.encode(src, real)
    logits = model.decode_logits(tgt, memory, real)
    fwd = _Forward(model.params, TINY, None)
    hidden = fwd.decoder_stack(tgt, memory, real)
    manual = hidden.data @ model.params["decoder.embed.token"].data.T
    assert np.array_equal(logits.data, manual)
    assert model.output_matrix is model.params["decoder.embed.token"]


def test_random_model_logits_finite():
    rng = np.random.default_rng(8)
    for seed in range(10):
        model = tiny_model(seed=seed)
        src, tgt = random_batch(rng, TINY)
        real = src != PAD
        logits = model.decode_logits(tgt, model.encode(src, real), real)
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
    logits = model.decode_logits(tgt[:, :-1], model.encode(src, real), real)
    manual = T.cross_entropy(T.reshape(logits, (4, TINY.vocab_size)),
                             tgt[:, 1:].reshape(-1), ignore_id=PAD)
    assert loss.item() == pytest.approx(manual.item(), rel=1e-12)


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

    params = {name: T.parameter(arr, name)
              for name, arr in fresh_params(TINY, "encoder_mlm", seed=1).items()}
    mlm = EncoderMlm(TINY, params)
    ids = np.array([[BOS, 6, 7, EOS]])
    logits = mlm.logits(ids)
    assert logits.shape == (1, 4, TINY.vocab_size)
    fwd = _Forward(params, TINY, None)
    hidden = fwd.encoder_stack(ids, ids != PAD)
    manual = hidden.data @ params["encoder.embed.token"].data.T + params["mlm.bias"].data
    assert np.array_equal(logits.data, manual)
