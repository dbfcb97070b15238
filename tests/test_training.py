import ctypes
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

import reference_ops as ref
from test_acceptance import _op_cases
from warmsum import tensor as T
from warmsum.assembly import AssemblyMode, assemble, fresh_params, save_checkpoint_bytes
from warmsum.corpus import CorpusExample
from warmsum.decoding import search
from warmsum.errors import DataError, NumericError
from warmsum.model import EncoderDecoderModel, EncoderMlm, ModelConfig, pad_batch
from warmsum.synthetic import SyntheticSettings, generate_corpus
from warmsum.tokenizer import BOS, EOS, MASK, PAD, encode, train_bpe
from warmsum.training import (ADAM_EPS, BETA1, BETA2, GRADIENT_CLIP_NORM, MetricsLog,
                              OptimizerState, PretrainConfig, TrainConfig, _mask_batch,
                              _mlm_documents, adam_step, encode_pairs, evaluate_mlm, finetune,
                              frame_ids, lr_at, pretrain_mlm, unigram_entropy)


def _param(value, name="p"):
    t = T.Tensor(np.asarray(value, dtype=np.float64))
    return {name: t}


def test_adam_first_step_closed_form():
    params = _param([1.0])
    state = OptimizerState(params)
    params["p"].grad[...] = 1.0
    adam_step(state, 0.1)
    # bias-corrected m_hat = v_hat = 1, so the step is lr / (1 + eps)
    assert params["p"].data[0] == pytest.approx(1.0 - 0.1, abs=1e-8)
    assert state.step == 1


def test_adam_zero_gradient_keeps_params():
    params = _param([2.5])
    state = OptimizerState(params)
    params["p"].grad[...] = 0.0
    adam_step(state, 0.1)
    assert params["p"].data[0] == 2.5
    assert state.step == 1


def test_adam_global_norm_clipping_halves_gradient():
    assert GRADIENT_CLIP_NORM == 1.0
    params = _param([0.0, 0.0])
    state = OptimizerState(params)
    params["p"].grad[...] = [1.2, 1.6]  # norm 2.0 -> scaled by 0.5
    adam_step(state, 0.1)
    assert np.allclose(state.m, 0.1 * np.array([0.6, 0.8]))
    assert np.allclose(state.v, 0.001 * np.array([0.6, 0.8]) ** 2)


def test_adam_rejects_nan_gradient_naming_parameter():
    params = _param([1.0], name="encoder.embed.token")
    state = OptimizerState(params)
    params["encoder.embed.token"].grad[...] = np.nan
    with pytest.raises(NumericError, match="encoder.embed.token"):
        adam_step(state, 0.1)


def _per_tensor_adam(params, m, v, step, lr):
    """Adam one parameter tensor at a time, as it ran before the arena."""
    names = sorted(params)
    grads = {n: params[n].grad if params[n].grad is not None else np.zeros_like(params[n].data)
             for n in names}
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > GRADIENT_CLIP_NORM:
        factor = GRADIENT_CLIP_NORM / total
        grads = {n: g * factor for n, g in grads.items()}
    bc1, bc2 = 1.0 - BETA1**step, 1.0 - BETA2**step
    for n in names:
        g = grads[n]
        m[n] = BETA1 * m.get(n, 0.0) + (1.0 - BETA1) * g
        v[n] = BETA2 * v.get(n, 0.0) + (1.0 - BETA2) * g * g
        params[n].data -= lr * (m[n] / bc1) / (np.sqrt(v[n] / bc2) + ADAM_EPS)
        params[n].grad = None


def _arena_update(states):
    def update(params):
        state = OptimizerState(params)
        for p in params.values():
            assert np.shares_memory(p.data, state.data) and np.shares_memory(p.grad, state.grad)
        states.append(state)

        def step_fn(step, lr):
            adam_step(state, lr)
            state.zero_grad()
        return step_fn
    return update


def _reference_update(params):
    m, v = {}, {}
    return lambda step, lr: _per_tensor_adam(params, m, v, step, lr)


def _train_steps(update, steps=12, seed=4):
    """Fine-tune a 2+2-layer model with dropout 0.1 on random pairs; returns model, losses."""
    cfg = ModelConfig(vocab_size=24, d_model=16, n_heads=2, d_ff=32, n_enc_layers=2,
                      n_dec_layers=2, max_positions=16, dropout=0.1)
    model = EncoderDecoderModel.from_checkpoint(
        assemble(None, AssemblyMode.RND2RND, cfg, seed=seed))
    data = np.random.default_rng(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    step_fn = update(model.params)
    losses = []
    for step in range(1, steps + 1):
        src = data.integers(5, cfg.vocab_size, size=(4, 9))
        tgt = data.integers(5, cfg.vocab_size, size=(4, 6))
        src[:, 0], src[:, -1], tgt[:, 0], tgt[:, -1] = BOS, EOS, BOS, EOS
        src[1, 5:], tgt[2, 4:] = PAD, PAD
        tgt[2, 3] = EOS
        model.train(rng)
        with T.Tape():
            loss = model.forward_loss(src, tgt)
            T.backward(loss)
        losses.append(loss.item())
        step_fn(step, lr_at(step, TrainConfig(learning_rate=3e-2, warmup_steps=3)))
    return model, losses


def test_fused_ops_and_arena_train_bit_identically_to_primitive_ops(monkeypatch):
    states = []
    fused, fused_losses = _train_steps(_arena_update(states))
    with monkeypatch.context() as patch:
        ref.install(patch)
        reference, reference_losses = _train_steps(_reference_update)
    assert fused_losses == reference_losses
    assert fused_losses[-1] < fused_losses[0]
    for name, p in reference.params.items():
        assert np.array_equal(fused.params[name].data, p.data), name
    # training left every parameter's values and gradient in the arena
    for name, p in fused.params.items():
        assert np.shares_memory(p.data, states[0].data), name
        assert np.shares_memory(p.grad, states[0].grad), name


def _train_mlm_steps(update, steps=8, seed=5):
    """MLM-train a 2-layer encoder with dropout 0.1 on masked batches whose rows
    have unequal lengths, one of them all PAD; returns model, losses."""
    cfg = ModelConfig(vocab_size=24, d_model=16, n_heads=2, d_ff=32, n_enc_layers=2,
                      n_dec_layers=0, max_positions=16, dropout=0.1)
    params = {name: T.Tensor(arr) for name, arr in fresh_params(cfg, "encoder_mlm", seed).items()}
    model = EncoderMlm(cfg, params)
    data = np.random.default_rng(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    step_fn = update(params)
    losses = []
    for step in range(1, steps + 1):
        docs = [[BOS, *data.integers(5, cfg.vocab_size, size=n), EOS] for n in (12, 3, 7, 9, 5)]
        batch = pad_batch(docs + [[]])  # a PAD row: its every key is masked
        corrupted, targets = _mask_batch(batch, cfg.vocab_size, 0.3, data)
        model.train(rng)
        with T.Tape():
            loss = model.forward_loss(corrupted, targets)
            T.backward(loss)
        losses.append(loss.item())
        step_fn(step, lr_at(step, TrainConfig(learning_rate=3e-2, warmup_steps=3)))
    return model, losses


def test_fused_ops_and_arena_pretrain_bit_identically_to_primitive_ops(monkeypatch):
    fused, fused_losses = _train_mlm_steps(_arena_update([]))
    with monkeypatch.context() as patch:
        ref.install(patch)
        reference, reference_losses = _train_mlm_steps(_reference_update)
    assert fused_losses == reference_losses
    assert fused_losses[-1] < fused_losses[0]
    for name, p in reference.params.items():
        assert np.array_equal(fused.params[name].data, p.data), name


@pytest.mark.parametrize("beam_size", [1, 4])
def test_fused_ops_decode_bit_identically_to_primitive_ops(monkeypatch, beam_size):
    model, _ = _train_steps(_arena_update([]))
    model.eval()
    data = np.random.default_rng(6)
    srcs = [[BOS, *data.integers(5, 24, size=n), EOS] for n in (9, 2, 6, 13, 4)]
    fused = search(model, srcs, beam_size, 8)
    with monkeypatch.context() as patch:
        ref.install(patch)
        reference = search(model, srcs, beam_size, 8)
    assert [(h.ids, h.logprob) for h in fused] == [(h.ids, h.logprob) for h in reference]
    assert len({h.logprob for h in fused}) == len(srcs)  # each source scores its own


def _recorded_ops(monkeypatch, run):
    """The ops that record nodes while `run` runs, each named as the benchmark's
    spans name it: by its backward closure's qualified name up to the first dot."""
    names = set()
    record = T.Tape.record

    def named_record(tape, out, inputs, backward_fn):
        names.add(backward_fn.__qualname__.split(".", 1)[0])
        record(tape, out, inputs, backward_fn)

    with monkeypatch.context() as patch:
        patch.setattr(T.Tape, "record", named_record)
        run()
    return names


def test_every_library_op_has_a_gradient_case_and_training_records_only_library_ops(
        monkeypatch):
    exported = {name for name, fn in vars(T).items() if inspect.isfunction(fn)
                and fn.__module__ == T.__name__ and not name.startswith("_")}
    exported -= {"backward", "recording"}

    def gradient_cases():
        for _, _, build in _op_cases(np.random.default_rng(0)):
            with T.Tape():
                build()

    def training_steps():
        _train_steps(_arena_update([]), steps=1)
        _train_mlm_steps(_arena_update([]), steps=1)

    cased = _recorded_ops(monkeypatch, gradient_cases)
    trained = _recorded_ops(monkeypatch, training_steps)
    assert exported <= cased, f"ops with no A1 case: {sorted(exported - cased)}"
    assert trained and trained <= exported, \
        f"training records ops that warmsum.tensor does not export: {sorted(trained - exported)}"


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_training_steps_keep_freed_memory_in_the_process():
    # the warm-start benchmark's MLM shapes; every step frees its graph as
    # backward walks it, and the next step must not fault the pages back in
    import resource

    cfg = ModelConfig(vocab_size=256, d_model=32, n_heads=4, d_ff=64, n_enc_layers=1,
                      n_dec_layers=0, max_positions=64, dropout=0.0)
    params = {name: T.Tensor(arr)
              for name, arr in fresh_params(cfg, "encoder_mlm", 0).items()}
    model = EncoderMlm(cfg, params)
    state = OptimizerState(params)
    rng = np.random.default_rng(0)
    batches = [_mask_batch(rng.integers(5, 256, size=(16, 34)), 256, 0.15, rng)
               for _ in range(25)]

    def step(corrupted, targets):
        with T.Tape():
            T.backward(model.forward_loss(corrupted, targets))
        adam_step(state, 1e-3)
        state.zero_grad()

    for batch in batches[:5]:
        step(*batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches[5:]:
        step(*batch)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, f"20 training steps made {faults} minor page faults"


def test_a_training_step_peaks_near_its_forward_memory():
    # the vietnamese-long benchmark's fine-tuning shapes: backward frees each
    # node as it runs, so the step's peak stays near what the forward left
    # live; a tape that held every output and gradient to the end of the block
    # peaked at 33.0 MiB, 85% above its forward
    import gc
    import tracemalloc

    cfg = ModelConfig(vocab_size=512, d_model=32, n_heads=4, d_ff=64, n_enc_layers=2,
                      n_dec_layers=2, max_positions=128, dropout=0.0)
    model = EncoderDecoderModel.from_checkpoint(assemble(None, AssemblyMode.RND2RND, cfg, seed=1))
    OptimizerState(model.params)
    rng = np.random.default_rng(0)
    src, tgt = rng.integers(5, 512, size=(8, 90)), rng.integers(5, 512, size=(8, 14))
    src[:, 0], src[:, -1], tgt[:, 0], tgt[:, -1] = BOS, EOS, BOS, EOS
    with T.Tape():
        T.backward(model.forward_loss(src, tgt))  # warm-up
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with T.Tape():
            loss = model.forward_loss(src, tgt)
            forward = tracemalloc.get_traced_memory()[0] - base
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    mib = 2**20
    assert peak <= 1.1 * forward, f"step peak {peak / mib:.2f} MiB, forward {forward / mib:.2f} MiB"
    assert peak <= 33.0 * mib / 2, f"step peak {peak / mib:.2f} MiB"


def test_lr_schedule_shape():
    cfg = TrainConfig(learning_rate=1.0, warmup_steps=100, total_steps=1000)
    assert lr_at(50, cfg) == pytest.approx(0.5)
    assert lr_at(100, cfg) == pytest.approx(1.0)
    assert lr_at(550, cfg) == pytest.approx(0.5)
    assert lr_at(1000, cfg) == 0.0


def test_train_config_validation():
    with pytest.raises(DataError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(DataError):
        TrainConfig(batch_size=0)
    for window in ({"max_src_len": 1}, {"max_tgt_len": 1}, {"max_tgt_len": 0}):
        with pytest.raises(DataError, match="at least 2"):
            TrainConfig(**window)
    TrainConfig(learning_rate=0.0)  # zero lr is a valid no-op configuration
    TrainConfig(max_src_len=2, max_tgt_len=2)  # BOS and EOS alone
    # pretraining has a source window only, and its messages name its own class
    with pytest.raises(DataError, match="^PretrainConfig.max_src_len must be at least 2$"):
        PretrainConfig(max_src_len=1)
    with pytest.raises(TypeError):
        PretrainConfig(max_tgt_len=24)


def test_pad_batch_and_framing():
    batch = pad_batch([[2, 5, 3], [2, 3]])
    assert batch.tolist() == [[2, 5, 3], [2, 3, PAD]]
    framed = frame_ids(list(range(100, 150)), max_len=10)
    assert len(framed) == 10
    assert framed[0] == 2 and framed[-1] == 3
    assert framed[1:-1] == list(range(100, 108))  # head truncation
    assert frame_ids([10, 11, 12, 13], 2) == [2, 3]
    for window in (1, 0, -1):
        with pytest.raises(DataError):
            frame_ids([10, 11, 12, 13], window)


def test_encode_pairs_respects_truncation_limits():
    vocab = train_bpe(["mot hai ba bon nam sau bay tam"] * 3, 60)
    cfg = TrainConfig(max_src_len=8, max_tgt_len=5)
    examples = [CorpusExample("a", "mot hai ba bon nam sau bay tam " * 5, "mot hai ba bon nam")]
    with pytest.warns(UserWarning, match="cut 1 of 1 bodies to the window of 8 and "
                                         "1 of 1 abstracts to the window of 5 ids"):
        pairs = encode_pairs(examples, vocab, cfg)
    assert len(pairs[0][0]) <= 8
    assert len(pairs[0][1]) <= 5


def test_a_short_window_warns_once_with_the_number_of_documents_cut(recwarn):
    vocab = train_bpe(["mot hai ba bon nam sau bay tam"] * 3, 60)
    lines = ["mot hai ba", "mot hai ba bon nam sau", "  ", "mot", "mot hai ba bon nam"]
    cfg = TrainConfig(max_src_len=6, max_tgt_len=4)  # holds 4 content ids, then 2
    assert [len(s) for s in _mlm_documents(lines, vocab, cfg)] == [5, 6, 3, 6]
    examples = [CorpusExample(str(i), line, line) for i, line in enumerate(lines)]
    encode_pairs(examples, vocab, cfg)
    assert [str(w.message) for w in recwarn] == [
        "cut 2 of 4 documents to the window of 6 ids (BOS and EOS included); "
        "the cut tokens are not read",
        "cut 2 of 5 bodies to the window of 6 and 3 of 5 abstracts to the window of 4 ids "
        "(BOS and EOS included); the cut tokens are not read"]
    recwarn.clear()
    encode_pairs(examples[:1], vocab, TrainConfig(max_src_len=6, max_tgt_len=6))
    assert not recwarn  # nothing cut, nothing said


def test_a_window_of_two_leaves_no_usable_mlm_line():
    vocab = train_bpe(["mot hai ba bon nam sau bay tam"] * 3, 60)
    cfg = PretrainConfig(max_src_len=2, batch_size=1)
    with pytest.warns(UserWarning, match="cut 2 of 2 documents to the window of 2"):
        assert _mlm_documents(["mot hai", "ba"], vocab, cfg) == []
    with pytest.warns(UserWarning), pytest.raises(DataError, match="0 usable lines"):
        pretrain_mlm(["mot hai", "ba"], vocab, ModelConfig(vocab.size, 16, 2, 32, 1, 1, 8, 0.0), cfg)


# -- MLM masking ---------------------------------------------------------------


def test_mask_batch_bookkeeping():
    rng = np.random.default_rng(0)
    batch = rng.integers(5, 50, size=(64, 24))
    batch[:, 0] = 2
    batch[:, -1] = 3
    batch[:, -2] = PAD
    corrupted, targets = _mask_batch(batch, 50, 0.15, np.random.default_rng(1))
    selected = targets != -1
    assert not selected[:, 0].any() and not selected[:, -1].any() and not selected[:, -2].any()
    assert np.array_equal(corrupted[~selected], batch[~selected])
    assert np.array_equal(targets[selected], batch[selected])
    sel_vals = corrupted[selected]
    assert np.all((sel_vals == MASK) | (sel_vals >= 5))


def test_mask_batch_fraction_near_requested_probability():
    rng = np.random.default_rng(2)
    batch = rng.integers(5, 50, size=(400, 100))
    corrupted, targets = _mask_batch(batch, 50, 0.15, np.random.default_rng(3))
    frac = (targets != -1).mean()
    assert abs(frac - 0.15) < 0.003
    selected = targets != -1
    masked = (corrupted == MASK) & selected
    assert abs(masked.sum() / selected.sum() - 0.8) < 0.02


def test_mask_batch_forces_one_selection():
    batch = np.array([[2, 7, 3]])  # one maskable position, tiny probability
    corrupted, targets = _mask_batch(batch, 10, 1e-9, np.random.default_rng(4))
    assert (targets != -1).sum() == 1


# -- MLM pretraining -----------------------------------------------------------


@pytest.fixture(scope="module")
def chain_setup():
    settings = SyntheticSettings(n_pairs=300, seed=5, n_words=20, body_min=12,
                                 body_max=20, lead_k=4, chain_prob=1.0)
    examples = generate_corpus(settings)
    lines = [ex.body for ex in examples]
    vocab = train_bpe(lines, 120)
    model_cfg = ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2, d_ff=32,
                            n_enc_layers=1, n_dec_layers=1, max_positions=32, dropout=0.0)
    return lines, vocab, model_cfg


def test_mlm_initial_loss_near_log_vocab(chain_setup):
    lines, vocab, model_cfg = chain_setup
    cfg = PretrainConfig(total_steps=1, warmup_steps=1, batch_size=8, max_src_len=24, seed=0)
    log = MetricsLog()
    pretrain_mlm(lines, vocab, model_cfg, cfg, log)
    first_loss = log.rows[0][2]
    assert abs(first_loss - math.log(vocab.size)) < 0.1 * math.log(vocab.size)


def test_mlm_learns_deterministic_structure(chain_setup):
    lines, vocab, model_cfg = chain_setup
    cfg = PretrainConfig(learning_rate=1e-2, total_steps=600, warmup_steps=50,
                         batch_size=16, max_src_len=24, seed=1)
    log = MetricsLog()
    pretrain_mlm(lines, vocab, model_cfg, cfg, log)
    first = log.rows[0][2]
    last = log.rows[-1][2]
    assert last < 0.5 * first


def test_mlm_deterministic_per_seed(chain_setup):
    lines, vocab, model_cfg = chain_setup
    cfg = PretrainConfig(total_steps=40, warmup_steps=10, batch_size=8, max_src_len=24, seed=9)
    log_a, log_b = MetricsLog(), MetricsLog()
    ckpt_a = pretrain_mlm(lines, vocab, model_cfg, cfg, log_a)
    ckpt_b = pretrain_mlm(lines, vocab, model_cfg, cfg, log_b)
    assert log_a.rows == log_b.rows
    assert save_checkpoint_bytes(ckpt_a) == save_checkpoint_bytes(ckpt_b)


def test_mlm_requires_one_batch_of_lines(chain_setup):
    _, vocab, model_cfg = chain_setup
    cfg = PretrainConfig(total_steps=5, batch_size=8)
    with pytest.raises(DataError, match="fewer than one"):
        pretrain_mlm(["va ke mo"], vocab, model_cfg, cfg)


def test_unigram_entropy_closed_form():
    lines = ["ba be", "ba bi"] * 3
    vocab = train_bpe(lines, 120)
    assert [len(encode(w, vocab).ids) for w in ("ba", "be", "bi")] == [1, 1, 1]
    # token frequencies 1/2, 1/4, 1/4
    assert unigram_entropy(lines, vocab, PretrainConfig()) == pytest.approx(1.5 * math.log(2))


def test_evaluate_mlm_separates_trained_from_fresh_encoder(chain_setup):
    lines, vocab, model_cfg = chain_setup
    train, held_out = lines[:-50], lines[-50:]
    cfg = PretrainConfig(learning_rate=1e-2, total_steps=600, warmup_steps=50,
                         batch_size=16, max_src_len=24, seed=1)
    entropy = unigram_entropy(train, vocab, cfg)
    fresh = pretrain_mlm(train, vocab, model_cfg,
                         replace(cfg, learning_rate=0.0, total_steps=1, warmup_steps=1))
    fresh_loss, fresh_acc = evaluate_mlm(fresh, held_out, vocab, cfg)
    assert fresh_loss > entropy

    trained = pretrain_mlm(train, vocab, model_cfg, cfg)
    loss, acc = evaluate_mlm(trained, held_out, vocab, cfg)
    assert loss < entropy - 1.0
    assert acc > fresh_acc + 0.2
    assert evaluate_mlm(trained, held_out, vocab, cfg) == (loss, acc)


def test_metrics_log_csv_format(tmp_path, chain_setup):
    lines, vocab, model_cfg = chain_setup
    path = tmp_path / "metrics.csv"
    cfg = PretrainConfig(total_steps=20, warmup_steps=5, batch_size=8, max_src_len=24)
    pretrain_mlm(lines, vocab, model_cfg, cfg, MetricsLog(path))
    rows = path.read_text().splitlines()
    assert rows[0] == "step,split,loss,rouge_l"
    assert all(r.split(",")[1] == "train" for r in rows[1:])


# -- fine-tuning ---------------------------------------------------------------


@pytest.fixture(scope="module")
def copy_task_setup():
    settings = SyntheticSettings(n_pairs=40, seed=11, n_words=16, body_min=8,
                                 body_max=12, lead_k=4, chain_prob=0.5, remap=False)
    examples = generate_corpus(settings)
    vocab = train_bpe([ex.body for ex in examples], 110)
    model_cfg = ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2, d_ff=32,
                            n_enc_layers=1, n_dec_layers=1, max_positions=32, dropout=0.0)
    return examples, vocab, model_cfg


def test_finetune_zero_learning_rate_is_identity(copy_task_setup):
    examples, vocab, model_cfg = copy_task_setup
    assembled = assemble(None, AssemblyMode.RND2RND, model_cfg, seed=0)
    cfg = TrainConfig(learning_rate=0.0, total_steps=10, warmup_steps=2,
                      batch_size=4, max_src_len=20, max_tgt_len=8, seed=0)
    best, _ = finetune(assembled, examples[:8], examples[8:12], vocab, cfg)
    for name, arr in assembled.params.items():
        assert np.array_equal(best.params[name], arr), name


def test_finetune_reduces_loss_and_tracks_best(copy_task_setup):
    examples, vocab, model_cfg = copy_task_setup
    assembled = assemble(None, AssemblyMode.RND2RND, model_cfg, seed=1)
    cfg = TrainConfig(learning_rate=3e-3, total_steps=150, warmup_steps=20,
                      batch_size=8, max_src_len=20, max_tgt_len=8, seed=1)
    best, log = finetune(assembled, examples[:32], examples[32:], vocab, cfg)
    train_rows = [r for r in log.rows if r[1] == "train"]
    dev_rows = [r for r in log.rows if r[1] == "dev"]
    assert train_rows[-1][2] < train_rows[0][2]
    assert best.provenance["mode"] == "TRAINED"
    assert best.provenance["assembled_from"] == "RND2RND"
    assert best.provenance["best_dev_rouge_l"] == pytest.approx(
        max(r[3] for r in dev_rows))


def test_finetune_deterministic(copy_task_setup):
    examples, vocab, model_cfg = copy_task_setup
    assembled = assemble(None, AssemblyMode.RND2RND, model_cfg, seed=2)
    cfg = TrainConfig(learning_rate=1e-3, total_steps=30, warmup_steps=5,
                      batch_size=4, max_src_len=20, max_tgt_len=8, seed=3)
    best_a, log_a = finetune(assembled, examples[:16], examples[16:20], vocab, cfg)
    best_b, log_b = finetune(assembled, examples[:16], examples[16:20], vocab, cfg)
    assert log_a.rows == log_b.rows
    assert save_checkpoint_bytes(best_a) == save_checkpoint_bytes(best_b)


def test_finetune_rejects_empty_splits(copy_task_setup):
    examples, vocab, model_cfg = copy_task_setup
    assembled = assemble(None, AssemblyMode.RND2RND, model_cfg, seed=0)
    with pytest.raises(DataError, match="nonempty"):
        finetune(assembled, [], examples[:4], vocab, TrainConfig())


def test_non_finite_loss_names_the_phase_and_step(monkeypatch, chain_setup, copy_task_setup):
    for cls in (EncoderMlm, EncoderDecoderModel):
        monkeypatch.setattr(cls, "forward_loss", lambda self, *ids, loss=cls.forward_loss:
                            ref.scale(loss(self, *ids), math.nan))
    lines, vocab, model_cfg = chain_setup
    cfg = PretrainConfig(total_steps=3, warmup_steps=1, batch_size=8, max_src_len=24)
    with pytest.raises(NumericError, match="^non-finite MLM loss at step 1$"):
        pretrain_mlm(lines, vocab, model_cfg, cfg)

    examples, vocab, model_cfg = copy_task_setup
    assembled = assemble(None, AssemblyMode.RND2RND, model_cfg, seed=0)
    cfg = TrainConfig(total_steps=3, warmup_steps=1, batch_size=4, max_src_len=20, max_tgt_len=8)
    with pytest.raises(NumericError, match="^non-finite fine-tuning loss at step 1$"):
        finetune(assembled, examples[:8], examples[8:12], vocab, cfg)


def test_non_finite_gradient_names_the_parameter_the_phase_and_step(monkeypatch, chain_setup,
                                                                    copy_task_setup):
    import warmsum.training as training

    states, steps = [], []

    class RecordedState(OptimizerState):
        def __init__(self, params):
            super().__init__(params)
            states.append(self)
            steps.clear()

    def backward(loss, real=T.backward):
        real(loss)
        steps.append(len(steps) + 1)
        if steps[-1] == 3:  # one gradient of the arena turns NaN at step 3
            states[-1].grad[states[-1].spans[0][0]] = math.nan

    monkeypatch.setattr(training, "OptimizerState", RecordedState)
    monkeypatch.setattr(training.T, "backward", backward)
    lines, vocab, model_cfg = chain_setup
    cfg = PretrainConfig(total_steps=4, warmup_steps=1, batch_size=8, max_src_len=24)
    with pytest.raises(NumericError) as info:
        pretrain_mlm(lines, vocab, model_cfg, cfg)
    assert str(info.value) == (f"non-finite gradient in parameter {states[-1].names[0]!r} "
                               "at MLM step 3")

    examples, vocab, model_cfg = copy_task_setup
    assembled = assemble(None, AssemblyMode.RND2RND, model_cfg, seed=0)
    cfg = TrainConfig(total_steps=4, warmup_steps=1, batch_size=4, max_src_len=20, max_tgt_len=8)
    with pytest.raises(NumericError) as info:
        finetune(assembled, examples[:8], examples[8:12], vocab, cfg)
    assert str(info.value) == (f"non-finite gradient in parameter {states[-1].names[0]!r} "
                               "at fine-tuning step 3")
