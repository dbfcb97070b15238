import numpy as np
import pytest

from warmsum import tensor as T
from warmsum.assembly import AssemblyMode, assemble
from warmsum.decoding import (BANNED_GENERATION_IDS, BeamHypothesis, adjusted_score,
                              beam_search, beam_search_hypothesis, greedy_decode_batch,
                              length_penalty, search, sequence_logprob)
from warmsum.errors import DataError
from warmsum.model import EncoderDecoderModel, ModelConfig
from warmsum.tokenizer import BOS, EOS, PAD


def random_model(seed, vocab_size=12, max_positions=16, layers=1):
    cfg = ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=layers, n_dec_layers=layers, max_positions=max_positions,
                      dropout=0.0)
    return EncoderDecoderModel.from_checkpoint(
        assemble(None, AssemblyMode.RND2RND, cfg, seed=seed))


def greedy_one(model, src, max_len):
    return greedy_decode_batch(model, [src], max_len)[0]


def random_src(rng, vocab_size=12, length=5):
    body = rng.integers(5, vocab_size, size=length - 2)
    return [BOS, *body.tolist(), EOS]


# -- scripted model for distribution-level tests -------------------------------
#
# decode_logits depends only on the last prefix token, via a fixed logit table,
# so the induced sequence distribution is a known tree.


class ScriptedModel:
    def __init__(self, table: dict[int, np.ndarray], vocab_size: int, max_positions=32):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.config = ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2,
                                  d_ff=16, n_enc_layers=1, n_dec_layers=1,
                                  max_positions=max_positions, dropout=0.0)
        self.vocab_size = vocab_size

    def eval(self):
        return self

    def encode(self, src_ids):
        b, l = np.asarray(src_ids).shape
        return T.Tensor(np.zeros((b, l, self.config.d_model)))

    def decode_logits(self, tgt_ids, memory, src_real, cache=None):
        tgt_ids = np.asarray(tgt_ids)
        b, l = tgt_ids.shape
        out = np.zeros((b, l, self.vocab_size))
        for i in range(b):
            for t in range(l):
                out[i, t] = self.table[int(tgt_ids[i, t])]
        return T.Tensor(out)


def scripted_bimodal():
    """P(EOS | BOS) = 0.50, P(5 | BOS) = 0.498, P(EOS | 5) ~ 1."""
    v = 6
    bos_row = np.log(np.array([1e-12, 1e-3, 1e-12, 0.5, 1e-3, 0.498]))
    five_row = np.log(np.array([1e-12, 1e-9, 1e-12, 1.0 - 3e-9, 1e-9, 1e-9]))
    other = np.log(np.full(v, 1.0 / v))
    table = {i: other for i in range(v)}
    table[BOS] = bos_row
    table[5] = five_row
    return ScriptedModel(table, v)


def enumerate_decodable(model, src, max_len, alpha):
    """Brute-force argmax over every sequence the decoder could emit."""
    allowed = [i for i in range(model.config.vocab_size) if i not in BANNED_GENERATION_IDS]
    best = None
    stack = [(BOS,)]
    while stack:
        prefix = stack.pop()
        for tok in allowed:
            seq = prefix + (tok,)
            gen_len = len(seq) - 1
            if tok == EOS or gen_len == max_len:
                lp = sequence_logprob(model, src, list(seq))
                score = lp / length_penalty(gen_len, alpha)
                key = (-score, seq)
                if best is None or key < best[0]:
                    best = (key, seq)
            else:
                stack.append(seq)
    return best[1]


# -- greedy --------------------------------------------------------------------


def test_greedy_is_deterministic():
    model = random_model(0)
    src = random_src(np.random.default_rng(0))
    a = greedy_one(model, src, max_len=8)
    b = greedy_one(model, src, max_len=8)
    assert np.array_equal(a, b)


def test_greedy_max_len_one():
    model = random_model(1)
    out = greedy_one(model, random_src(np.random.default_rng(1)), max_len=1)
    assert len(out) == 2 and out[0] == BOS


def test_greedy_output_structure():
    rng = np.random.default_rng(2)
    for seed in range(10):
        model = random_model(seed)
        out = greedy_one(model, random_src(rng), max_len=6)
        assert out[0] == BOS
        assert PAD not in out
        assert out[-1] == EOS or len(out) == 7


@pytest.mark.parametrize("beam_size", [1, 2, 4, 16])  # 16 is wider than the vocabulary
def test_greedy_batch_matches_single(beam_size):
    model = random_model(3)
    rng = np.random.default_rng(3)
    srcs = [random_src(rng, length=l) for l in (4, 7, 3, 6, 5)]
    for src, hyp in zip(srcs, search(model, srcs, beam_size, max_len=8)):
        one = beam_search_hypothesis(model, src, beam_size, max_len=8)
        assert hyp.ids == one.ids
        assert abs(hyp.logprob - one.logprob) < 1e-12


def test_search_breaks_exact_ties_within_each_source():
    # A row's live tokens sit at logits 0 and -1 and the rest underflow, so
    # scores are sums of a few exact values and tie exactly. Every source sees
    # the same logits. At step 2 of a two-wide beam, (BOS, 5, 6) leads, and
    # (BOS, 5, 7) and (BOS, 4, 8) tie for the second place: the tie goes to the
    # smaller parent ids, (BOS, 4), though token 7 is smaller than 8.
    v = 12

    def row(top, second=()):
        r = np.full(v, -5000.0)
        r[list(second)] = -1.0
        r[list(top)] = 0.0
        return r

    table = {i: row(range(4, v)) for i in range(v)}
    table.update({BOS: row([5], [4]), 5: row([6], [7]), 4: row([8], [9]), 8: row([EOS]),
                  7: row([10])})
    model = ScriptedModel(table, v)
    srcs = [[BOS, EOS], [BOS, 5, 6, 4, EOS], [BOS, 4, EOS]]
    best = enumerate_decodable(model, srcs[0], max_len=3, alpha=1.0)
    assert best == (BOS, 4, 8, EOS)
    for beam_size, expect in ((1, (BOS, 5, 6, 4)), (2, best), (3, best), (16, best)):
        hyps = search(model, srcs, beam_size, max_len=3)
        assert [h.ids for h in hyps] == [expect] * len(srcs), f"beam {beam_size}"
        assert len({h.logprob for h in hyps}) == 1


def test_greedy_tokens_are_the_teacher_forced_argmax():
    rng = np.random.default_rng(11)
    for seed in range(8):
        model = random_model(seed + 80, vocab_size=16, layers=2)
        srcs = [random_src(rng, vocab_size=16, length=n) for n in (3, 10, 6, 4)]
        for src, out in zip(srcs, greedy_decode_batch(model, srcs, max_len=9)):
            src_arr = np.asarray([src])
            logits = model.decode_logits(out[None, :-1], model.encode(src_arr),
                                         src_arr != PAD).data[0]
            logits[:, list(BANNED_GENERATION_IDS)] = -np.inf
            assert out[1:].tolist() == np.argmax(logits, axis=-1).tolist(), f"seed {seed}"


def test_greedy_rejects_overlong_max_len():
    model = random_model(4, max_positions=8)
    with pytest.raises(DataError):
        greedy_one(model, [BOS, 6, EOS], max_len=8)


# -- beam search ----------------------------------------------------------------


def test_beam_one_alpha_zero_equals_greedy():
    # a one-wide beam finishes one hypothesis, so the length penalty never chooses
    rng = np.random.default_rng(5)
    for seed in range(20):
        model = random_model(seed)
        src = random_src(rng)
        greedy = greedy_one(model, src, max_len=6)
        for alpha in (0.0, 0.6, 1.0):
            beam = beam_search(model, src, beam_size=1, max_len=6, length_penalty_alpha=alpha)
            assert np.array_equal(greedy, beam), f"seed {seed}, alpha {alpha}"


def test_beam_matches_exhaustive_enumeration_scripted():
    rng = np.random.default_rng(6)
    for trial in range(5):
        v = 7
        table = {i: rng.normal(size=v) * 2.0 for i in range(v)}
        model = ScriptedModel(table, v)
        src = [BOS, EOS]
        expect = enumerate_decodable(model, src, max_len=3, alpha=1.0)
        got = beam_search(model, src, beam_size=5**3, max_len=3, length_penalty_alpha=1.0)
        assert tuple(got) == expect, f"trial {trial}"


def test_beam_matches_exhaustive_enumeration_real_model():
    model = random_model(9, vocab_size=7)
    src = [BOS, 5, 6, EOS]
    expect = enumerate_decodable(model, src, max_len=3, alpha=1.0)
    got = beam_search(model, src, beam_size=5**3, max_len=3, length_penalty_alpha=1.0)
    assert tuple(got) == expect


def test_length_penalty_changes_selected_length():
    model = scripted_bimodal()
    src = [BOS, EOS]
    short = beam_search(model, src, beam_size=2, max_len=4, length_penalty_alpha=0.0)
    long = beam_search(model, src, beam_size=2, max_len=4, length_penalty_alpha=1.0)
    assert len(short) != len(long)
    assert tuple(short) == (BOS, EOS)
    assert tuple(long) == (BOS, 5, EOS)


def test_widening_beam_never_lowers_returned_score():
    rng = np.random.default_rng(7)
    for trial in range(30):
        v = 8
        table = {i: rng.normal(size=v) * 3.0 for i in range(v)}
        model = ScriptedModel(table, v)
        src = [BOS, EOS]
        scores = []
        for k in (1, 2, 3, 5, 8):
            hyp = beam_search_hypothesis(model, src, k, max_len=5, length_penalty_alpha=1.0)
            scores.append(adjusted_score(hyp, 1.0))
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:])), f"trial {trial}"


def test_beam_output_structure():
    rng = np.random.default_rng(8)
    for seed in range(10):
        model = random_model(seed + 40)
        out = beam_search(model, random_src(rng), beam_size=3, max_len=5)
        assert out[0] == BOS
        assert PAD not in out
        assert BOS not in out[1:]
        assert out[-1] == EOS or len(out) == 6


def test_rescoring_reproduces_hypothesis_logprob():
    rng = np.random.default_rng(9)
    for seed in range(10):
        model = random_model(seed + 60)
        src = random_src(rng)
        hyp = beam_search_hypothesis(model, src, beam_size=4, max_len=6)
        rescored = sequence_logprob(model, src, list(hyp.ids))
        assert abs(rescored - hyp.logprob) < 1e-8


def test_beam_logprob_is_the_teacher_forced_logprob():
    rng = np.random.default_rng(12)
    for seed in range(8):
        model = random_model(seed + 90, vocab_size=16, layers=2)
        src = random_src(rng, vocab_size=16, length=3 + seed)
        hyp = beam_search_hypothesis(model, src, beam_size=4, max_len=9)
        assert abs(sequence_logprob(model, src, list(hyp.ids)) - hyp.logprob) < 1e-12


def test_beam_hypothesis_invariants():
    hyp = BeamHypothesis((BOS, 7, EOS), -1.5)
    assert hyp.generated_len() == 2
    assert adjusted_score(hyp, 0.0) == -1.5
    assert adjusted_score(hyp, 1.0) == pytest.approx(-1.5 / ((5 + 2) / 6))


def test_beam_validates_arguments():
    model = random_model(10)
    with pytest.raises(DataError):
        beam_search(model, [BOS, EOS], beam_size=0, max_len=4)
    with pytest.raises(DataError):
        beam_search(model, [BOS, EOS], beam_size=2, max_len=0)
