"""Tests of the benchmark itself: its checks reject wrong outputs, and every
workload runs to its end at a tiny size.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from warmsum import decoding, rouge, tokenizer  # noqa: E402

TINY = {
    "warm-start": lambda: W.WarmStart(W.WarmStartSize(n_pairs=200, mlm_steps=20,
                                                      finetune_steps=10)),
    "synthetic-decode": lambda: W.SyntheticDecode(W.DecodeSize(n_pairs=500, finetune_steps=30)),
    "vietnamese-long": lambda: W.VietnameseLong(W.VietnameseSize(finetune_steps=4)),
}
# these judge how well the model learned, which a tiny run does not
QUALITY_CHECKS = {"MLM beats unigram by 1 nat", "WARM2WARM >= WARM2RND >= RND2RND"}


# -- each check rejects a deliberately wrong output --------------------------------

PAIRS = [("ba ke mi lo", "ba ke lo"), ("su ta", "su ta ne"), ("", "vo")]


def _program_scores(pairs):
    return {k: (s.precision, s.recall, s.f1) for k, s in rouge.corpus_rouge(pairs).items()}


def test_rouge_check_accepts_the_program_and_rejects_a_shifted_score():
    scores = _program_scores(PAIRS)
    assert checks.check_rouge(PAIRS, scores) is None
    shifted = dict(scores, rougeL=(scores["rougeL"][0], scores["rougeL"][1],
                                   scores["rougeL"][2] + 1e-6))
    assert checks.check_rouge(PAIRS, shifted) is not None


def test_rouge_check_rejects_a_perturbed_decode():
    scores = _program_scores(PAIRS)
    perturbed = [("ba ke lo mi", PAIRS[0][1])] + PAIRS[1:]
    assert checks.check_rouge(perturbed, scores) is not None


def test_reference_rouge_matches_hand_counts():
    (p1, r1, f1), (p2, _, _), (pl, rl, _) = (checks.rouge([("a b a c", "a a b")])[k]
                                             for k in ("rouge1", "rouge2", "rougeL"))
    assert (p1, r1) == (3 / 4, 3 / 3) and math.isclose(f1, 2 * 0.75 / 1.75)
    assert p2 == 1 / 3  # bigrams ab, ba, ac against aa, ab
    assert (pl, rl) == (2 / 4, 2 / 3)  # LCS "a b"


def test_sha256_check_rejects_a_changed_decode(tmp_path):
    path = tmp_path / "test_decodes.txt"
    path.write_text("ba ke\nsu ta\n", encoding="utf-8")
    recorded = checks.sha256_file(path)
    assert checks.check_sha256(path, recorded) is None
    path.write_text("ba ke\nsu to\n", encoding="utf-8")
    assert checks.check_sha256(path, recorded) is not None


def test_ordering_and_margin_checks():
    assert checks.check_ordering({"WARM2WARM": 30, "WARM2RND": 20, "RND2RND": 20}) is None
    assert checks.check_ordering({"WARM2WARM": 19, "WARM2RND": 20, "RND2RND": 10}) is not None
    assert checks.check_margin(2.2, 4.09, 1.0) is None
    assert checks.check_margin(3.2, 4.09, 1.0) is not None


def test_unigram_entropy_closed_form():
    assert math.isclose(checks.unigram_entropy(["a b", "c d"]), math.log(4))


def test_window_check_rejects_a_cut_body():
    assert checks.check_window(126, 128, "body") is None
    assert checks.check_window(127, 128, "body") is not None


def test_round_trip_check_rejects_unknown_symbols():
    vocab = tokenizer.train_bpe(["xin chào bạn"], 40)
    good, bad = "chào bạn", "chào bạn ơi"
    ids = tokenizer.encode(good, vocab).ids
    assert checks.check_round_trip(good, ids, tokenizer.decode(ids, vocab)) is None
    ids = tokenizer.encode(bad, vocab).ids
    assert checks.check_round_trip(bad, ids, tokenizer.decode(ids, vocab)) is not None


def test_loss_check():
    assert checks.check_losses([3.0, 2.0], 4.0, 2.5) is None
    assert checks.check_losses([3.0, math.nan], 4.0, 2.5) is not None
    assert checks.check_losses([3.0, 2.0], 4.0, 4.0) is not None


@pytest.fixture(scope="module")
def decode_round(tmp_path_factory):
    workload = TINY["synthetic-decode"]()
    state = workload.setup(1, tmp_path_factory.mktemp("setup"))
    return workload, state, workload.run(state, tmp_path_factory.mktemp("round"))


def test_greedy_check_rejects_a_perturbed_token(decode_round):
    _, _, rnd = decode_round
    model, src, ids = rnd.outputs["model"], rnd.outputs["srcs"][0], rnd.outputs["greedy"][0]
    src_arr = np.asarray([src])
    logits = model.decode_logits(np.asarray([ids[:-1]]), model.encode(src_arr),
                                 src_arr != checks.PAD).data[0]
    assert checks.greedy_token_mismatch(logits, ids.tolist()) is None
    wrong = ids.tolist()
    wrong[1] = 5 + (wrong[1] - 4) % (logits.shape[1] - 5)  # another real token
    assert checks.greedy_token_mismatch(logits, wrong) is not None


def test_beam_checks_reject_a_wrong_log_prob_and_a_wrong_greedy(decode_round):
    workload, state, rnd = decode_round
    i = state["beam_idx"][0]
    model, src, hyp = rnd.outputs["model"], rnd.outputs["srcs"][i], rnd.outputs["beams"][0]
    greedy = rnd.outputs["greedy"][i]
    assert all(r is None for r in W._beam_checks(model, [src], [hyp], [greedy], workload.max_len))
    teacher_forced = decoding.sequence_logprob(model, src, list(hyp.ids))
    assert checks.check_logprob(hyp.logprob, teacher_forced) is None
    assert checks.check_logprob(hyp.logprob + 1e-6, teacher_forced) is not None
    other = np.append(greedy[:-1], (greedy[-1] + 1) % 7 + 5)
    results = W._beam_checks(model, [src], [hyp], [other], workload.max_len)
    assert any(r is not None for r in results)


def test_round_comparison_rejects_a_changed_round(decode_round):
    workload, state, rnd = decode_round
    changed = W.Round(rnd.attempted, rnd.failed, rnd.quality,
                      dict(rnd.outputs, key=(rnd.outputs["texts"][1:], [])))
    assert workload.check(state, [rnd, rnd])["rounds agree"] is None
    assert workload.check(state, [changed, rnd])["rounds agree"] is not None


# -- each workload completes at a tiny size -----------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_completes_at_tiny_size(name, tmp_path):
    details = harness.run(name, 3, 0.0, False, tmp_path, workload=TINY[name]())
    assert details["attempted"] > 0 and details["failed"] == 0
    assert [k for k in details["metrics"]] == ["setup_s", "peak_rss_mb", "round_s", "rougeL"]
    assert all(details["metrics"][k]["value"] > 0 for k in ("setup_s", "peak_rss_mb", "round_s"))
    failed = {k: v for k, v in details["checks"].items() if v is not None}
    assert set(failed) <= QUALITY_CHECKS, failed
    assert (tmp_path / f"result-{name}-s3-t0.json").is_file()


def test_traced_run_reports_every_layer_metric_and_restores_the_program(tmp_path):
    import warmsum.experiment as experiment
    import warmsum.tensor as tensor
    originals = (experiment.finetune, tensor.matmul, tensor.Tape.record)
    details = harness.run("warm-start", 3, 0.0, True, tmp_path, workload=TINY["warm-start"]())
    assert (experiment.finetune, tensor.matmul, tensor.Tape.record) == originals
    names = [n for n, _ in spans.metric_names()]
    assert list(details["metrics"]) == names and len(names) == len(set(names))
    m = {k: v["value"] for k, v in details["metrics"].items()}
    assert m["tensor.tape_nodes_per_step"] > 0 and m["training.mlm_step_ms"] > 0
    assert m["experiment.cell_decode_s"] > 0 and m["tokenizer.encode_calls_per_text"] >= 1
    assert m["tensor.cycle_objects_freed"] > 0
    assert len(details["round_times_s"]) >= 2  # one counting round, then recorded ones
    saved = np.load(tmp_path / "spans-warm-start-s3.npz")
    assert {"name", "start", "end", "parent", "run_id", "names"} <= set(saved.files)
    assert (saved["end"] >= saved["start"]).all()
