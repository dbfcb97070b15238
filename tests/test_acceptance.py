"""End-to-end acceptance suite.

Each test prints one PASS line with its measured numbers; run with -s (or
read captured output) to see them. The warm-start comparison (criterion 3)
runs the full benchmark pipeline and takes several minutes of CPU.
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reference_ops as ref
from conftest import DATA_DIR
from gradcheck import fd_grad_components, rel_err
from warmsum import tensor as T
from warmsum.assembly import (AssemblyMode, assemble, load_checkpoint,
                              load_checkpoint_bytes, save_checkpoint_bytes)
from warmsum.corpus import CorpusStats, load_jsonl, render_stats_table
from warmsum.decoding import (beam_search, greedy_decode_batch,
                              length_penalty, sequence_logprob)
from warmsum.experiment import ExperimentConfig, pretraining_lines, run_experiment
from warmsum.model import EncoderDecoderModel, ModelConfig
from warmsum.rouge import lcs_length, rouge_n
from warmsum.synthetic import SyntheticSettings, generate_corpus
from warmsum.tokenizer import BOS, EOS, PAD, decode, load_vocab, train_bpe
from warmsum.training import (OptimizerState, TrainConfig, adam_step, encode_pairs,
                              evaluate_mlm, finetune, unigram_entropy)

GRAD_TOL = 1e-4
TINY = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                   n_enc_layers=2, n_dec_layers=2, max_positions=16, dropout=0.0)


def _tiny_model(seed):
    return EncoderDecoderModel.from_checkpoint(
        assemble(None, AssemblyMode.RND2RND, TINY, seed=seed))


def _random_pair(rng, config=TINY, batch=2, src_len=6, tgt_len=5):
    src = rng.integers(5, config.vocab_size, size=(batch, src_len))
    src[:, 0], src[:, -1] = BOS, EOS
    tgt = rng.integers(5, config.vocab_size, size=(batch, tgt_len))
    tgt[:, 0], tgt[:, -1] = BOS, EOS
    return src, tgt


# ---------------------------------------------------------------------------
# A1: gradient suite


def _op_cases(rng):
    """(name, tensors, build) triples covering every differentiable op."""
    x34 = T.Tensor(rng.normal(size=(3, 4)))
    y42 = T.Tensor(rng.normal(size=(4, 2)))
    b234 = T.Tensor(rng.normal(size=(2, 3, 4)))
    b245 = T.Tensor(rng.normal(size=(2, 4, 5)))
    bias = T.Tensor(rng.normal(size=4))
    gain = T.Tensor(rng.normal(size=4) + 1.0)
    table = T.Tensor(rng.normal(size=(6, 3)))
    ids = rng.integers(0, 6, size=(2, 4))
    logit = T.Tensor(rng.normal(size=(5, 7)))
    targets = np.array([0, 3, -1, 6, 2])
    w34 = rng.normal(size=(3, 4))
    w234 = rng.normal(size=(2, 3, 4))
    w122 = rng.normal(size=(12, 2))
    w44 = T.Tensor(rng.normal(size=(4, 4)))
    x2344 = T.Tensor(rng.normal(size=(2, 3, 4)))
    q = T.Tensor(rng.normal(size=(2, 2, 3, 4)))
    k = T.Tensor(rng.normal(size=(2, 2, 5, 4)))
    key_mask = np.where(rng.random((2, 1, 1, 5)) < 0.3, -1e9, 0.0)
    key_mask[..., 0] = 0.0  # every query attends to at least one key
    w2234 = rng.normal(size=(2, 2, 3, 4))
    w2235 = rng.normal(size=(2, 2, 3, 5))
    # the decoder's self-attention mask: causal plus PAD keys, about half the scores
    k5 = T.Tensor(rng.normal(size=(2, 2, 5, 4)))
    q5 = T.Tensor(rng.normal(size=(2, 2, 5, 4)))
    causal_mask = np.triu(np.full((5, 5), -1e9), k=1) + key_mask
    w2255 = rng.normal(size=(2, 2, 5, 5))

    return [
        ("matmul", [x34, y42], lambda: ref.sum_all(T.matmul(x34, y42))),
        ("matmul_batched", [b234, b245], lambda: ref.sum_all(T.matmul(b234, b245))),
        ("matmul_stacked", [b234, y42], lambda: ref.sum_all(T.matmul(b234, y42))),
        ("add", [x34], lambda: ref.dot(ref.add(x34, T.Tensor(w34)), w34)),
        ("add_bias", [b234, bias], lambda: ref.dot(ref.add(b234, bias), w234)),
        ("add_const", [x34], lambda: ref.dot(ref.add_const(x34, w34), w34)),
        ("scale", [x34], lambda: ref.dot(ref.scale(x34, -1.7), w34)),
        ("softmax", [x34], lambda: ref.dot(ref.softmax(x34, axis=-1), w34)),
        ("layer_norm", [x34, gain, bias],
         lambda: ref.dot(ref.layer_norm(x34, gain, bias, eps=1e-8), w34)),
        ("gelu", [x34], lambda: ref.dot(T.gelu(x34), w34)),
        ("dropout", [x34],
         lambda: ref.dot(T.dropout(x34, 0.35, np.random.default_rng(1234)), w34)),
        ("embedding_lookup", [table], lambda: ref.sum_all(T.embedding_lookup(table, ids))),
        ("position_lookup", [table], lambda: ref.dot(T.position_lookup(table, 1, 2, 4), w234)),
        ("cross_entropy", [logit], lambda: T.cross_entropy(logit, targets, ignore_id=-1)),
        ("reshape_transpose", [b234],
         lambda: ref.dot(T.transpose(ref.reshape(b234, (2, 12)), (1, 0)), w122)),
        ("sum_all", [b234], lambda: ref.sum_all(b234)),
        ("linear", [b234, w44, bias], lambda: ref.dot(T.linear(b234, w44, bias), w234)),
        ("split_heads", [b234], lambda: ref.dot(T.split_heads(b234, 2), w234)),
        ("merge_heads", [q], lambda: ref.dot(T.merge_heads(q), w2234)),
        ("attention_probs", [q, k],
         lambda: ref.dot(T.attention_probs(q, k, 0.5, key_mask), w2235)),
        ("attention_probs_causal", [q5, k5],
         lambda: ref.dot(T.attention_probs(q5, k5, 0.5, causal_mask), w2255)),
        ("add_layer_norm", [b234, x2344, gain, bias],
         lambda: ref.dot(T.add_layer_norm(b234, x2344, gain, bias, eps=1e-8), w234)),
    ]


def _sample_indices(grad_flat, rng, k):
    """Largest-magnitude component (anchors the scale) plus k random ones."""
    idx = {int(np.argmax(np.abs(grad_flat)))}
    idx.update(int(i) for i in rng.integers(0, grad_flat.size, size=k))
    return sorted(idx)


@pytest.mark.slow
def test_a1_gradient_suite():
    start = time.time()
    worst_op = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for name, tensors, build in _op_cases(rng):
            for t in tensors:
                t.grad = None
            with T.Tape():
                T.backward(build())
            for t in tensors:
                analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
                flat = analytic.reshape(-1)
                idx = _sample_indices(flat, rng, k=4)
                numeric = fd_grad_components(lambda: build().item(), t, idx)
                err = rel_err(flat[idx], numeric)
                assert err < GRAD_TOL, f"op {name} seed {seed}: rel err {err:.2e}"
                worst_op = max(worst_op, err)

    worst_model = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        model = _tiny_model(seed)
        src, tgt = _random_pair(rng, batch=1, src_len=5, tgt_len=4)
        with T.Tape():
            T.backward(model.forward_loss(src, tgt))

        def loss_fn():
            return model.forward_loss(src, tgt).item()

        analytic, numeric = [], []
        for name in sorted(model.params):
            p = model.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            flat = g.reshape(-1)
            idx = _sample_indices(flat, rng, k=1)
            analytic.extend(flat[i] for i in idx)
            numeric.extend(fd_grad_components(loss_fn, p, idx))
        err = rel_err(np.array(analytic), np.array(numeric))
        assert err < GRAD_TOL, f"full model seed {seed}: rel err {err:.2e}"
        worst_model = max(worst_model, err)

    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"
    print(f"\nA1 gradient suite: PASS  (worst op rel err {worst_op:.2e}, "
          f"worst full-model rel err {worst_model:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A2: overfit oracle


@pytest.mark.slow
def test_a2_overfit_oracle():
    examples = generate_corpus(SyntheticSettings(
        n_pairs=8, seed=3, n_words=16, body_min=8, body_max=12, lead_k=4,
        chain_prob=0.5, remap=False))
    vocab = train_bpe([ex.body for ex in examples], 120)
    model_cfg = ModelConfig(vocab_size=vocab.size, d_model=32, n_heads=4, d_ff=64,
                            n_enc_layers=2, n_dec_layers=2, max_positions=32,
                            dropout=0.0)
    train_cfg = TrainConfig(learning_rate=1e-2, total_steps=1000, warmup_steps=50,
                            batch_size=8, max_src_len=16, max_tgt_len=16, seed=0)
    assembled = assemble(None, AssemblyMode.RND2RND, model_cfg, seed=0)
    best, log = finetune(assembled, examples, examples, vocab, train_cfg)

    model = EncoderDecoderModel.from_checkpoint(best).eval()
    pairs = encode_pairs(examples, vocab, train_cfg)
    losses = []
    for src, tgt in pairs:
        losses.append(model.forward_loss(np.asarray([src]), np.asarray([tgt])).item())
    final_loss = float(np.mean(losses))
    assert final_loss < 0.1, f"overfit training loss {final_loss:.4f} >= 0.1"

    outs = greedy_decode_batch(model, [p[0] for p in pairs], max_len=14)
    matches = sum(decode(list(o), vocab) == ex.abstract
                  for o, ex in zip(outs, examples))
    assert matches == 8, f"greedy reproduced only {matches}/8 references"
    print(f"\nA2 overfit oracle: PASS  (loss {final_loss:.4f}, 8/8 exact, "
          f"<= {train_cfg.total_steps} steps)")


# ---------------------------------------------------------------------------
# A3: warm-start ordering on the default benchmark config


def _final_dev_loss(out_dir, mode, seed):
    rows = (out_dir / "cells" / f"{mode}_s{seed}" / "metrics.csv").read_text().splitlines()
    dev = [r.split(",") for r in rows[1:] if r.split(",")[1] == "dev"]
    return float(dev[-1][2])


@pytest.mark.slow
def test_a3_warm_start_ordering(tmp_path):
    out = tmp_path / "warm_start"
    cfg = ExperimentConfig(output_dir=str(out))
    start = time.time()
    table = run_experiment(cfg)
    elapsed = time.time() - start
    assert not table.failures, f"cells failed: {table.failures}"
    assert len(table.rows) == 9

    # the warm start has something to pass on: on held-out dev text the MLM
    # encoder beats a model that knows only the training-token frequencies
    vocab = load_vocab(out / "vocab.txt")
    train, dev = (pretraining_lines(load_jsonl(out / "data" / f"{n}.jsonl"))
                  for n in ("train", "dev"))
    mlm_loss, mlm_acc = evaluate_mlm(load_checkpoint(out / "encoder_mlm.ckpt"), dev,
                                     vocab, cfg.pretrain)
    entropy = unigram_entropy(train, vocab, cfg.pretrain)
    assert mlm_loss <= entropy - 1.0, (
        f"MLM encoder learned little beyond token frequencies: held-out masked-token "
        f"loss {mlm_loss:.3f} (accuracy {mlm_acc:.1%}) is not 1 nat below the "
        f"unigram entropy {entropy:.3f}")

    meds = table.medians()
    assert len(meds) == 3
    w2w, w2r, r2r = meds["WARM2WARM"][2], meds["WARM2RND"][2], meds["RND2RND"][2]
    assert w2w >= w2r >= r2r, f"ordering violated: {w2w:.2f} / {w2r:.2f} / {r2r:.2f}"
    assert w2w - r2r >= 2.0, f"gap {w2w - r2r:.2f} < 2.0 points"
    assert elapsed < 600.0, f"warm-start experiment took {elapsed:.0f}s (budget 600s)"

    # matched-step dev loss tells the same story as test ROUGE
    dev_w2w = float(np.median([_final_dev_loss(out, "WARM2WARM", s) for s in cfg.seeds]))
    dev_r2r = float(np.median([_final_dev_loss(out, "RND2RND", s) for s in cfg.seeds]))
    assert dev_w2w <= dev_r2r, f"median dev loss {dev_w2w:.3f} > RND2RND {dev_r2r:.3f}"

    print(f"\nA3 warm-start ordering: PASS  (median ROUGE-L x100: "
          f"WARM2WARM={w2w:.2f} >= WARM2RND={w2r:.2f} >= RND2RND={r2r:.2f}, "
          f"gap {w2w - r2r:.2f} >= 2.0; median dev loss {dev_w2w:.3f} <= {dev_r2r:.3f}; "
          f"MLM dev loss {mlm_loss:.3f} vs unigram entropy {entropy:.3f}; {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# A4: ROUGE oracle equivalence


def _subsequence_buckets(seq):
    buckets = {}
    for k in range(len(seq) + 1):
        buckets[k] = frozenset(itertools.combinations(seq, k))
    return buckets


@pytest.mark.slow
def test_a4_rouge_oracle_equivalence():
    start = time.time()
    alphabet = (0, 1, 2)
    sequences = [seq for length in range(7)
                 for seq in itertools.product(alphabet, repeat=length)]
    buckets = [_subsequence_buckets(s) for s in sequences]
    checked = 0
    for i, a in enumerate(sequences):
        for j in range(i, len(sequences)):
            b = sequences[j]
            dp = lcs_length(list(a), list(b))
            brute = 0
            for k in range(min(len(a), len(b)), 0, -1):
                if buckets[i][k] & buckets[j][k]:
                    brute = k
                    break
            assert dp == brute, f"LCS mismatch for {a} vs {b}: dp {dp}, brute {brute}"
            checked += 1

    rng = np.random.default_rng(4)
    for _ in range(1000):
        cand = [int(x) for x in rng.integers(0, 6, size=rng.integers(0, 12))]
        ref = [int(x) for x in rng.integers(0, 6, size=rng.integers(0, 12))]
        for n in (1, 2):
            s = rouge_n(cand, ref, n)
            p, r, f1 = _naive_clipped(cand, ref, n)
            assert abs(s.precision - p) <= 1e-12
            assert abs(s.recall - r) <= 1e-12
            assert abs(s.f1 - f1) <= 1e-12

    hand = rouge_n("the cat sat".split(), "the cat".split(), 1)
    assert hand.f1 == pytest.approx(0.8, abs=1e-15)
    assert hand.recall == 1.0 and hand.precision == pytest.approx(2 / 3, abs=1e-15)
    print(f"\nA4 ROUGE oracle equivalence: PASS  ({checked} LCS pairs, "
          f"1000 n-gram pairs, hand fixtures, {time.time() - start:.1f}s)")


def _naive_clipped(cand, ref, n):
    cand_grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
    ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
    remaining = list(ref_grams)
    overlap = 0
    for g in cand_grams:
        if g in remaining:
            remaining.remove(g)
            overlap += 1
    p = overlap / len(cand_grams) if cand_grams else 0.0
    r = overlap / len(ref_grams) if ref_grams else 0.0
    return p, r, (0.0 if p + r == 0 else 2 * p * r / (p + r))


# ---------------------------------------------------------------------------
# A5: causality and tying


@pytest.mark.slow
def test_a5_causality_and_tying():
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(case)
        model = _tiny_model(2000 + case)
        src, tgt = _random_pair(rng, tgt_len=6)
        real = src != PAD
        memory = model.encode(src)
        base = model.decode_logits(tgt, memory, real).data
        t = int(rng.integers(0, tgt.shape[1] - 1))
        mutated = tgt.copy()
        mutated[:, t + 1:] = rng.integers(5, TINY.vocab_size,
                                          size=(tgt.shape[0], tgt.shape[1] - t - 1))
        out = model.decode_logits(mutated, memory, real).data
        delta = float(np.max(np.abs(out[:, :t + 1] - base[:, :t + 1])))
        assert delta <= 1e-10, f"case {case}: past logits moved by {delta:.2e}"
        worst = max(worst, delta)

        # tying survives an optimizer step bit-for-bit: the projection used by
        # decode_logits is the embedding storage itself, after the update
        with T.Tape():
            T.backward(model.forward_loss(src, tgt))
        state = OptimizerState(model.params)
        adam_step(state, 1e-3)
        emb = model.params["decoder.embed.token"]
        assert model.output_matrix is emb

        memory2 = model.encode(src)
        logits = model.decode_logits(tgt, memory2, real)
        hidden = model._decoder_stack(tgt, memory2, real)
        assert np.array_equal(logits.data, hidden.data @ emb.data.T)
    print(f"\nA5 causality and tying: PASS  (100 cases, worst past-logit drift "
          f"{worst:.2e} <= 1e-10, tied storage identity after Adam)")


# ---------------------------------------------------------------------------
# A6: checkpoint round trip


@pytest.mark.slow
def test_a6_checkpoint_round_trip():
    rng = np.random.default_rng(6)
    modes = [AssemblyMode.RND2RND, AssemblyMode.WARM2RND, AssemblyMode.WARM2WARM]
    from warmsum.assembly import Checkpoint, fresh_params

    for case in range(20):
        mode = modes[case % 3]
        seed = int(rng.integers(0, 10000))
        encoder = Checkpoint(TINY, "encoder_mlm", fresh_params(TINY, "encoder_mlm", seed),
                             vocab_ref="v.txt", provenance={"mode": "TRAINED",
                                                            "source": "", "seed": seed})
        source = None if mode is AssemblyMode.RND2RND else encoder
        ckpt = assemble(source, mode, TINY, seed=seed + 1)
        blob = save_checkpoint_bytes(ckpt)
        loaded = load_checkpoint_bytes(blob)
        assert save_checkpoint_bytes(loaded) == blob, f"case {case} not bit-identical"
        if mode is AssemblyMode.WARM2WARM:  # only cross-attention is not the encoder's
            for name, arr in ckpt.params.items():
                source = name.replace("decoder.", "encoder.", 1)
                copied = source in encoder.params and np.array_equal(arr, encoder.params[source])
                assert copied == (".cross_attn." not in name), f"case {case}: {name}"
    print("\nA6 checkpoint round trip: PASS  (20 checkpoints bit-identical, "
          "WARM2WARM diff isolates cross-attention)")


# ---------------------------------------------------------------------------
# A7: stats golden


@pytest.mark.slow
def test_a7_stats_golden():
    golden = (DATA_DIR / "mini_corpus_stats.golden.txt").read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "warmsum", "stats",
         "--corpus", str(DATA_DIR / "mini_corpus.jsonl"),
         "--ratios", "0.6,0.2,0.2", "--seed", "13", "--name", "mini_corpus"],
        capture_output=True, cwd=Path(__file__).resolve().parent.parent)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == golden, "stats output differs from the committed golden file"

    rendered = render_stats_table(CorpusStats(13707, 1957, 3916, 521.0, 44.0),
                                  "Wikilingua")
    assert rendered == (
        "                                    Wikilingua\n"
        "Size (train / dev / test)  13707 / 1957 / 3916\n"
        "#avg of words in body                      521\n"
        "#avg of words in abstract                   44\n"
    )
    print("\nA7 stats golden: PASS  (byte-exact golden, reference layout fixture)")


# ---------------------------------------------------------------------------
# A8: decoding equivalences


@pytest.mark.slow
def test_a8_decoding():
    rng = np.random.default_rng(8)
    for case in range(100):
        model = _tiny_model(3000 + case)
        src = [BOS, *rng.integers(5, TINY.vocab_size, size=3).tolist(), EOS]
        greedy = greedy_decode_batch(model, [src], max_len=5)[0]
        beam = beam_search(model, src, beam_size=1, max_len=5, length_penalty_alpha=0.0)
        assert np.array_equal(greedy, beam), f"case {case}: beam-1 != greedy"

    cfg5 = ModelConfig(vocab_size=7, d_model=8, n_heads=2, d_ff=16,
                       n_enc_layers=1, n_dec_layers=1, max_positions=12, dropout=0.0)
    mismatch = 0
    for seed in range(5):
        model = EncoderDecoderModel.from_checkpoint(
            assemble(None, AssemblyMode.RND2RND, cfg5, seed=seed))
        src = [BOS, 5, 6, EOS]
        best = None
        stack = [(BOS,)]
        while stack:  # exhaustive search over the 5-way branching tree
            prefix = stack.pop()
            for tok in (1, 3, 4, 5, 6):
                seq = prefix + (tok,)
                gen_len = len(seq) - 1
                if tok == EOS or gen_len == 4:
                    lp = sequence_logprob(model, src, list(seq))
                    score = lp / length_penalty(gen_len, 1.0)
                    key = (-score, seq)
                    if best is None or key < best[0]:
                        best = (key, seq)
                else:
                    stack.append(seq)
        got = beam_search(model, src, beam_size=5**4, max_len=4, length_penalty_alpha=1.0)
        if tuple(got) != best[1]:
            mismatch += 1
    assert mismatch == 0, f"{mismatch}/5 exhaustive argmax mismatches"
    print("\nA8 decoding: PASS  (beam-1 == greedy on 100 models, "
          "beam-625 == exhaustive argmax on vocab-5/len-4)")
