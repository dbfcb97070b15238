import dataclasses
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR
from warmsum.assembly import load_checkpoint
from warmsum.cli import build_parser, main
from warmsum.corpus import load_jsonl
from warmsum.experiment import (ExperimentConfig, config_from_json, config_to_json,
                                encoder_quality_text)

from test_experiment import _warmsum_env, tiny_config


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "warmsum", *map(str, args)],
                          capture_output=True, text=True, env=_warmsum_env(),
                          cwd=Path(__file__).resolve().parent.parent)
    return proc.returncode, proc.stdout, proc.stderr


def test_stats_matches_committed_golden_file():
    code, out, err = run_cli("stats", "--corpus", DATA_DIR / "mini_corpus.jsonl",
                             "--ratios", "0.6,0.2,0.2", "--seed", "13",
                             "--name", "mini_corpus")
    assert code == 0, err
    golden = (DATA_DIR / "mini_corpus_stats.golden.txt").read_text(encoding="utf-8")
    assert out == golden


def test_stats_missing_corpus_is_data_error():
    code, _, err = run_cli("stats", "--corpus", "no/such/file.jsonl")
    assert code == 2
    assert "error" in err.lower()


def test_evaluate_identical_files_scores_100(tmp_path):
    lines = "con mèo ngủ\nbản tin sáng nay\n"
    cand = tmp_path / "cand.txt"
    ref = tmp_path / "ref.txt"
    cand.write_text(lines, encoding="utf-8")
    ref.write_text(lines, encoding="utf-8")
    code, out, _ = run_cli("evaluate", "--candidates", cand, "--references", ref,
                           "--csv", tmp_path / "scores.csv")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split()[1:] == ["100.00", "100.00", "100.00"]
    csv = (tmp_path / "scores.csv").read_text().splitlines()
    assert csv[0] == "line,metric,precision,recall,f1"
    assert csv[-1] == "aggregate,rougeL,1.000000,1.000000,1.000000"


def test_evaluate_mismatched_lengths_is_data_error(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("x\ny\n")
    b.write_text("x\n")
    code, _, err = run_cli("evaluate", "--candidates", a, "--references", b)
    assert code == 2


def test_assemble_without_encoder_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_to_json(tiny_config(tmp_path / "runs")))
    code, _, err = run_cli("assemble", "--config", cfg_path, "--vocab", "v.txt",
                           "--mode", "warm2warm", "--out", tmp_path / "out.ckpt")
    assert code == 1
    assert "--encoder" in err


def test_unknown_flag_is_usage_error():
    code, _, err = run_cli("stats", "--corpus", "x", "--bogus-flag")
    assert code == 1


def test_readme_cli_examples_parse():
    readme = (DATA_DIR.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line.split("#")[0].split(">")[0])
                for line in lines if line.startswith("warmsum ")]
    assert len(commands) == 10  # one per subcommand
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_numeric_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    from warmsum import cli
    from warmsum.errors import NumericError

    def explode(args):
        raise NumericError("non-finite gradient in parameter 'mlm.bias'")

    monkeypatch.setattr(cli, "_cmd_pretrain", explode)
    code = main(["pretrain", "--config", "c.json", "--corpus", "c.jsonl",
                 "--vocab", "v.txt", "--out", str(tmp_path / "o.ckpt")])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_config_print_defaults_round_trips():
    code, out, _ = run_cli("config")
    assert code == 0
    cfg = config_from_json(out)
    assert cfg == config_from_json(config_to_json(cfg))

    def settable_values(obj):
        return sum(map(settable_values, obj.values())) if isinstance(obj, dict) else 1

    readme = (DATA_DIR.parent / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"`warmsum config` prints (\d+) settable values", readme)
    assert stated and settable_values(json.loads(out)) == int(stated[1])


@pytest.mark.slow
def test_cli_pipeline_end_to_end(tmp_path, monkeypatch):
    """tokenizer-train -> pretrain -> assemble -> finetune -> generate -> evaluate
    write the artifacts of the `run` cell with the same config, byte for byte."""
    out = tmp_path / "runs"
    cfg = dataclasses.replace(tiny_config(out, modes=("WARM2WARM",), seeds=(1,)),
                              dev_eval_limit=4)  # below the 12-example dev split
    # with 800 MLM steps, not 60, the encoder learns, so the warm cell starts from it
    cfg = dataclasses.replace(cfg, pretrain=dataclasses.replace(cfg.pretrain,
                                                                total_steps=800))
    cfg_path = str(tmp_path / "cfg.json")
    Path(cfg_path).write_text(config_to_json(cfg), encoding="utf-8")
    assert main(["run", "--config", cfg_path]) == 0
    data, cell = out / "data", out / "cells" / "WARM2WARM_s1"
    quality = json.loads((out / "encoder_quality.json").read_text(encoding="utf-8"))
    assert quality["mlm_dev_loss"] < quality["unigram_entropy"]
    # best.ckpt is not the first evaluation's, so its bytes cover later steps too
    dev_steps = [int(line.split(",")[0]) for line in
                 (cell / "metrics.csv").read_text(encoding="utf-8").splitlines()
                 if line.split(",")[1] == "dev"]
    assert load_checkpoint(cell / "best.ckpt").provenance["best_step"] > dev_steps[0]

    stages = tmp_path / "stages"
    stages.mkdir()
    monkeypatch.chdir(stages)  # checkpoints record the vocabulary path as given
    train, dev = str(data / "train.jsonl"), str(data / "dev.jsonl")
    test = load_jsonl(data / "test.jsonl")
    Path("bodies.txt").write_text("".join(ex.body + "\n" for ex in test), encoding="utf-8")
    Path("refs.txt").write_text("".join(ex.abstract + "\n" for ex in test), encoding="utf-8")
    for argv, produced in (
            (["tokenizer-train", "--config", cfg_path, "--corpus", train,
              "--out", "vocab.txt"],
             out / "vocab.txt"),
            (["pretrain", "--config", cfg_path, "--corpus", train, "--vocab", "vocab.txt",
              "--out", "encoder.ckpt"], out / "encoder_mlm.ckpt"),
            (["assemble", "--config", cfg_path, "--vocab", "vocab.txt", "--mode", "warm2warm",
              "--encoder", "encoder.ckpt", "--seed", "1", "--out", "assembled.ckpt"],
             cell / "assembled.ckpt"),
            (["finetune", "--config", cfg_path, "--ckpt", "assembled.ckpt", "--train", train,
              "--dev", dev, "--vocab", "vocab.txt", "--seed", "1", "--log", "metrics.csv",
              "--out", "best.ckpt"], cell / "best.ckpt"),
            (["generate", "--config", cfg_path, "--ckpt", "best.ckpt", "--vocab", "vocab.txt",
              "--input", "bodies.txt", "--out", "summaries.txt"], cell / "test_decodes.txt")):
        assert main(argv) == 0, argv
        assert Path(argv[-1]).read_bytes() == produced.read_bytes(), argv[-1]
    assert Path("metrics.csv").read_bytes() == (cell / "metrics.csv").read_bytes()
    assert main(["evaluate", "--candidates", "summaries.txt", "--references", "refs.txt"]) == 0


@pytest.mark.slow
def test_cli_run_and_report(tmp_path):
    out = tmp_path / "runs"
    cfg = tiny_config(out, modes=("WARM2WARM",), seeds=(1,))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_to_json(cfg), encoding="utf-8")
    code, run_out, err = run_cli("run", "--config", cfg_path)
    assert code == 0, err
    code, report_out, err = run_cli("report", "--dir", out)
    assert code == 0, err
    assert report_out == run_out
    # the table as results.txt holds it, then the encoder's quality
    quality = encoder_quality_text(out)
    assert quality.startswith("MLM encoder: ")
    assert report_out == (out / "results.txt").read_text(encoding="utf-8") + quality


# -- malformed inputs are data errors (exit 2), not tracebacks ---------------------


def test_corpus_with_numeric_body_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "body": 5, "abstract": "x"}\n', encoding="utf-8")
    assert main(["stats", "--corpus", str(path)]) == 2
    assert f"{path}:1: body must be a string" in capsys.readouterr().err


def test_vocab_without_pretokenize_mode_exits_2(tmp_path, capsys):
    from warmsum.tokenizer import save_vocab, train_bpe

    vocab = tmp_path / "vocab.txt"
    save_vocab(train_bpe(["ba ke mi"], 20), vocab)
    lines = vocab.read_text(encoding="utf-8").splitlines()
    vocab.write_text("\n".join(lines[:-1] + ["#PRETOKENIZE"]) + "\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_to_json(tiny_config(tmp_path / "runs")), encoding="utf-8")
    assert main(["assemble", "--config", str(cfg), "--vocab", str(vocab), "--mode", "rnd2rnd",
                 "--out", str(tmp_path / "o.ckpt")]) == 2
    assert f"{vocab}: unknown pretokenize mode ''" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("{not json", "not valid JSON"),
    ('{"seeds": 5}', "config.seeds must be a list, got 5"),
    ('{"modes": [], "output_dir": "OUT"}', "modes must be a nonempty list"),
    ('{"decoding": {"method": "beam"}, "output_dir": "OUT"}',
     "unknown keys in config.decoding: ['method']"),
    ('{"dev_eval_limit": "5", "output_dir": "OUT"}',
     "dev_eval_limit must be an integer or null, got '5'"),
    ('{"output_dir": 5}', "output_dir must be a string"),
    # every value is checked against its field's type
    ('{"corpus": {"synthetic": {"n_pairs": "5"}}, "output_dir": "OUT"}',
     "config.corpus.synthetic.n_pairs must be an integer, got '5'"),
    ('{"tokenizer": {"target_vocab_size": "256"}, "output_dir": "OUT"}',
     "config.tokenizer.target_vocab_size must be an integer, got '256'"),
    ('{"pretrain": {"batch_size": 2.5}, "output_dir": "OUT"}',
     "config.pretrain.batch_size must be an integer, got 2.5"),
    ('{"corpus": {"split_seed": "13"}, "output_dir": "OUT"}',
     "config.corpus.split_seed must be an integer, got '13'"),
    ('{"corpus": {"path": 5}, "output_dir": "OUT"}',
     "config.corpus.path must be a string, got 5"),
    ('{"finetune": {"total_steps": 2.5}, "output_dir": "OUT"}',
     "config.finetune.total_steps must be an integer, got 2.5"),
    ('{"corpus": {"synthetic": {"remap": 1}}, "output_dir": "OUT"}',
     "config.corpus.synthetic.remap must be true or false, got 1"),
    ('{"finetune": {"learning_rate": "x"}, "output_dir": "OUT"}',
     "config.finetune.learning_rate must be a number, got 'x'"),
    # JSON's non-finite numbers, which Python's reader accepts
    ('{"finetune": {"learning_rate": NaN}, "output_dir": "OUT"}',
     "config.finetune.learning_rate must be a finite number, got nan"),
    ('{"pretrain": {"learning_rate": Infinity}, "output_dir": "OUT"}',
     "config.pretrain.learning_rate must be a finite number, got inf"),
    ('{"corpus": {"ratios": [0.1, -Infinity, 0.8]}, "output_dir": "OUT"}',
     "config.corpus.ratios[1] must be a finite number, got -inf"),
    # keys that earlier versions had
    ('{"decoding": {"max_len": 10}, "output_dir": "OUT"}',
     "unknown keys in config.decoding: ['max_len']"),
    ('{"decoding": {"length_penalty_alpha": 1.0}, "output_dir": "OUT"}',
     "unknown keys in config.decoding: ['length_penalty_alpha']"),
    ('{"pretrain": {"max_tgt_len": 24}, "output_dir": "OUT"}',
     "unknown keys in config.pretrain: ['max_tgt_len']"),
    # cross-field checks run when the config is built
    ('{"corpus": {"synthetic": {"body_min": 4}}, "output_dir": "OUT"}',
     "config.corpus.synthetic: need lead_k <= body_min <= body_max, got 8/4/24"),
    ('{"corpus": {"synthetic": null}, "output_dir": "OUT"}',
     "corpus.path is empty and corpus.synthetic is null"),
    ('{"corpus": {"ratios": [0.5, 0.5]}, "output_dir": "OUT"}',
     "ratios must be three non-negative numbers that sum to 1"),
    ('{"corpus": {"ratios": [1.1, -0.05, -0.05]}, "output_dir": "OUT"}',
     "ratios must be three non-negative numbers that sum to 1"),
    ('{"corpus": {"ratios": [0.85, 0.15, 0.0]}, "output_dir": "OUT"}',
     "corpus.ratios must give train, dev and test each a positive share"),
    ('{"decoding": {"beam_size": 0}, "output_dir": "OUT"}',
     "decoding beam_size must be an integer >= 1, got 0"),
    # seeds that PCG64 refuses, and values that would mis-run without an error
    ('{"pretrain": {"seed": -1}, "output_dir": "OUT"}',
     "config.pretrain: PretrainConfig.seed must be non-negative, got -1"),
    ('{"finetune": {"seed": -1}, "output_dir": "OUT"}',
     "config.finetune: TrainConfig.seed must be non-negative, got -1"),
    ('{"corpus": {"synthetic": {"seed": -1}}, "output_dir": "OUT"}',
     "config.corpus.synthetic: seed must be non-negative, got -1"),
    ('{"corpus": {"synthetic": {"n_words": 0}}, "output_dir": "OUT"}',
     "config.corpus.synthetic: n_words must be at least 1, got 0"),
    ('{"corpus": {"synthetic": {"n_words": 781}}, "output_dir": "OUT"}',
     "config.corpus.synthetic: word inventory supports at most 780 words, asked for 781"),
    ('{"corpus": {"synthetic": {"chain_prob": 2.0}}, "output_dir": "OUT"}',
     "config.corpus.synthetic: chain_prob must be between 0 and 1, got 2.0"),
    ('{"seeds": [-1], "output_dir": "OUT"}',
     "seeds must be a nonempty list of non-negative integers, got [-1]"),
    ('{"seeds": [1, 1], "output_dir": "OUT"}', "seeds must not repeat, got [1, 1]"),
    ('{"modes": ["RND2RND", "RND2RND"], "output_dir": "OUT"}',
     "modes must not repeat, got ['RND2RND', 'RND2RND']"),
    # values that no corpus could run with
    ('{"tokenizer": {"target_vocab_size": 0}, "output_dir": "OUT"}',
     "config.tokenizer: target_vocab_size must be at least 7, got 0"),
    ('{"corpus": {"synthetic": {"n_pairs": 0}}, "output_dir": "OUT"}',
     "config.corpus: splitting 0 examples by ratios [0.1, 0.1, 0.8] leaves the train set empty"),
    ('{"corpus": {"synthetic": {"n_pairs": 5}}, "output_dir": "OUT"}',
     "config.corpus: splitting 5 examples by ratios [0.1, 0.1, 0.8] leaves the train set empty"),
])
def test_malformed_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text.replace("OUT", str(tmp_path / "runs")), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err
    assert not (tmp_path / "runs").exists()  # checked whole before anything is written


def test_integer_past_float_range_exits_2_before_any_artifact(tmp_path, capsys):
    out = tmp_path / "runs"
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"pretrain": {{"learning_rate": 1{"0" * 400}}}, "output_dir": "{out}"}}',
                    encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert ("config.pretrain.learning_rate must be a finite number, got an integer past "
            "float range") in capsys.readouterr().err
    assert not out.exists()


def test_bad_model_settings_exit_2_before_any_artifact(tmp_path, capsys):
    out = tmp_path / "runs"
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"model": {{"n_heads": 0}}, "output_dir": "{out}"}}', encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "n_heads must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def _run_dir_with_scores(tmp_path, scores_text):
    out = tmp_path / "runs"
    cell = out / "cells" / "RND2RND_s1"
    cell.mkdir(parents=True)
    config = config_to_json(tiny_config(out, modes=("RND2RND",), seeds=(1,)))
    (out / "config.json").write_text(config, encoding="utf-8")
    (cell / "scores.json").write_text(scores_text, encoding="utf-8")
    return out, cell / "scores.json"


SCORES = ('{"mode": "RND2RND", "seed": 1, "rouge1": {"f1": 0.5}, "rouge2": {"f1": 0.25}, '
          '"rougeL": {"f1": 0.5}}')


@pytest.mark.parametrize("command", ["report", "run"])
def test_report_with_truncated_scores_exits_2(tmp_path, capsys, command):
    out, scores = _run_dir_with_scores(tmp_path, SCORES[:40])
    where = ["--dir", out] if command == "report" else ["--config", out / "config.json"]
    assert main([command, *map(str, where)]) == 2
    err = capsys.readouterr().err
    assert f"{scores}: malformed scores (JSONDecodeError" in err
    assert not (out / "results.txt").exists()


def test_report_with_scores_missing_rouge1_exits_2(tmp_path, capsys):
    out, scores = _run_dir_with_scores(tmp_path, SCORES.replace('"rouge1"', '"rouge9"'))
    assert main(["report", "--dir", str(out)]) == 2
    assert f"{scores}: malformed scores (KeyError: 'rouge1')" in capsys.readouterr().err


@pytest.mark.parametrize("value, error", [
    ("NaN", "ValueError: f1 scores must be finite numbers"),
    ("-Infinity", "ValueError: f1 scores must be finite numbers"),
    ("1" + "0" * 400, "OverflowError: int too large to convert to float"),
], ids=["nan", "-infinity", "integer-past-float-range"])
def test_report_with_non_finite_scores_exits_2(tmp_path, capsys, value, error):
    out, scores = _run_dir_with_scores(tmp_path, SCORES.replace("0.25", value))
    assert main(["report", "--dir", str(out)]) == 2
    assert f"{scores}: malformed scores ({error}" in capsys.readouterr().err


def test_report_names_the_config_it_cannot_read(tmp_path, capsys):
    out, _ = _run_dir_with_scores(tmp_path, SCORES)
    cfg = out / "config.json"
    cfg.write_text(cfg.read_text(encoding="utf-8").replace(
        '"split_seed"', '"dataset_name": "synthetic",\n    "split_seed"'), encoding="utf-8")
    assert main(["report", "--dir", str(out)]) == 2
    assert f"config {cfg}: unknown keys in config.corpus: ['dataset_name']" \
        in capsys.readouterr().err


def test_report_prints_the_encoder_quality_and_refuses_a_malformed_one(tmp_path, capsys):
    out, _ = _run_dir_with_scores(tmp_path, SCORES)
    quality = out / "encoder_quality.json"
    quality.write_text('{"mlm_dev_accuracy": 0.5, "mlm_dev_loss": 2.25, '
                       '"unigram_entropy": 4.0}', encoding="utf-8")
    assert main(["report", "--dir", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "MLM encoder: dev masked-token loss 2.250 nats (accuracy 50.0%), "
        "unigram entropy 4.000 nats")
    for loss in ('"2.25"', "NaN"):
        quality.write_text(f'{{"mlm_dev_accuracy": 0.5, "mlm_dev_loss": {loss}, '
                           '"unigram_entropy": 4.0}', encoding="utf-8")
        assert main(["report", "--dir", str(out)]) == 2
        assert f"{quality}: malformed encoder quality (ValueError" in capsys.readouterr().err


def test_run_whose_output_dir_is_a_regular_file_exits_2(tmp_path, capsys):
    out = tmp_path / "runs"
    out.write_text("a file\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_to_json(tiny_config(out)), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"File exists: '{out}'" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "a file\n"


def test_out_under_a_regular_file_exits_2(tmp_path, capsys):
    cfg, afile = tmp_path / "cfg.json", tmp_path / "afile"
    cfg.write_text("{}", encoding="utf-8")
    afile.write_text("", encoding="utf-8")
    assert main(["tokenizer-train", "--config", str(cfg), "--corpus",
                 str(DATA_DIR / "mini_corpus.jsonl"), "--out", str(afile / "vocab.txt")]) == 2
    assert "Not a directory" in capsys.readouterr().err


def test_evaluate_non_utf8_candidates_exits_2(tmp_path, capsys):
    cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
    cand.write_bytes(b"con m\xe8o\n")
    ref.write_text("con mèo\n", encoding="utf-8")
    assert main(["evaluate", "--candidates", str(cand), "--references", str(ref)]) == 2
    assert f"{cand}: not valid UTF-8" in capsys.readouterr().err


def test_evaluate_splits_its_files_at_newlines_only(tmp_path, capsys):
    cand, ref, csv = tmp_path / "cand.txt", tmp_path / "ref.txt", tmp_path / "scores.csv"
    cand.write_bytes("con\u2028mèo\r\ncon chó\r\n".encode("utf-8"))  # U+2028 is no newline
    ref.write_text("con mèo\ncon chó\n", encoding="utf-8")
    assert main(["evaluate", "--candidates", str(cand), "--references", str(ref),
                 "--csv", str(csv)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["rougeL"] + ["100.00"] * 3
    rows = csv.read_text(encoding="utf-8").splitlines()[1:]
    assert sorted({row.split(",")[0] for row in rows}) == ["0", "1", "aggregate"]


def test_evaluate_scores_each_pair_once_and_aggregates_as_corpus_rouge(tmp_path, monkeypatch):
    import warmsum.cli as cli
    import warmsum.rouge as rouge

    cands = ["con mèo ngủ trên ghế", "bản tin sáng", "a b a b c"]
    refs = ["con mèo ngủ", "bản tin sáng nay", "b a b c a"]
    expected = [f"aggregate,{name},{s.precision:.6f},{s.recall:.6f},{s.f1:.6f}"
                for name, s in rouge.corpus_rouge(list(zip(cands, refs))).items()]
    cand, ref, csv = tmp_path / "cand.txt", tmp_path / "ref.txt", tmp_path / "scores.csv"
    cand.write_text("\n".join(cands) + "\n", encoding="utf-8")
    ref.write_text("\n".join(refs) + "\n", encoding="utf-8")
    scored, pair_rouge = [], rouge.pair_rouge
    for module in (cli, rouge):  # wherever `evaluate` reaches it from
        monkeypatch.setattr(module, "pair_rouge", lambda c, r: scored.append(c) or pair_rouge(c, r))
    assert main(["evaluate", "--candidates", str(cand), "--references", str(ref),
                 "--csv", str(csv)]) == 0
    assert scored == cands
    assert csv.read_text(encoding="utf-8").splitlines()[-3:] == expected


FITS_16 = {"pretrain": {"max_src_len": 16}, "finetune": {"max_src_len": 16}}


@pytest.fixture
def generate_args(tmp_path):
    """`generate` arguments for a random 16-position model, its vocabulary and a
    config that fits it and decodes up to 10 tokens greedily, minus --input."""
    from warmsum.assembly import AssemblyMode, assemble, save_checkpoint
    from warmsum.model import ModelConfig
    from warmsum.tokenizer import save_vocab, train_bpe

    vocab = train_bpe(["ba lo ba lo"], 20)
    save_vocab(vocab, tmp_path / "vocab.txt")
    cfg = ModelConfig(vocab.size, d_model=8, n_heads=2, d_ff=8, n_enc_layers=1,
                      n_dec_layers=1, max_positions=16, dropout=0.0)
    save_checkpoint(assemble(None, AssemblyMode.RND2RND, cfg, seed=1), tmp_path / "m.ckpt")
    (tmp_path / "cfg.json").write_text(json.dumps(FITS_16), encoding="utf-8")
    return ["generate", "--config", str(tmp_path / "cfg.json"), "--ckpt",
            str(tmp_path / "m.ckpt"), "--vocab", str(tmp_path / "vocab.txt"),
            "--out", str(tmp_path / "out.txt")]


@pytest.mark.parametrize("argv", [
    ["assemble", "--mode", "rnd2rnd"],
    ["finetune", "--ckpt", "m.ckpt", "--train", "train.jsonl", "--dev", "dev.jsonl"],
], ids=["assemble", "finetune"])
def test_negative_seed_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                  generate_args, argv):
    monkeypatch.chdir(tmp_path)  # beside generate_args' cfg.json, vocab.txt and m.ckpt
    assert main([*argv, "--config", "cfg.json", "--vocab", "vocab.txt", "--seed", "-1",
                 "--out", "new.ckpt"]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "new.ckpt").exists()


def test_generate_non_utf8_input_exits_2(tmp_path, capsys, generate_args):
    bodies = tmp_path / "in.txt"
    bodies.write_bytes(b"ba \xff lo\n")
    assert main([*generate_args, "--input", str(bodies)]) == 2
    assert f"{bodies}: not valid UTF-8" in capsys.readouterr().err


def test_generate_writes_one_summary_per_newline_ended_line(tmp_path, generate_args):
    bodies = tmp_path / "in.txt"
    bodies.write_text("ba\u2028lo ba\nlo\n", encoding="utf-8")  # `wc -l` counts 2 lines
    assert main([*generate_args, "--input", str(bodies)]) == 0
    assert (tmp_path / "out.txt").read_bytes().count(b"\n") == 2


@pytest.mark.parametrize("beam_size", [1, 3], ids=["greedy", "beam"])
def test_generate_empty_input_writes_an_empty_file(tmp_path, generate_args, beam_size):
    bodies = tmp_path / "in.txt"
    bodies.write_text("", encoding="utf-8")
    cfg = {**FITS_16, "decoding": {"beam_size": beam_size}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main([*generate_args, "--input", str(bodies)]) == 0
    assert (tmp_path / "out.txt").read_bytes() == b""


def test_generate_beam_writes_what_per_source_beam_search_gives(tmp_path, generate_args):
    import itertools

    from warmsum.assembly import load_checkpoint, save_checkpoint
    from warmsum.corpus import CorpusExample
    from warmsum.decoding import beam_search
    from warmsum.model import EncoderDecoderModel
    from warmsum.tokenizer import decode, encode, load_vocab
    from warmsum.training import TrainConfig, finetune, frame_ids

    # a random model writes the same summary for every body; a short copy task
    # makes the summaries depend on the source
    vocab = load_vocab(tmp_path / "vocab.txt")
    words = [" ".join(w) for n in (1, 2, 3) for w in itertools.product(["ba", "lo"], repeat=n)]
    pairs = [CorpusExample(str(i), w, w) for i, w in enumerate(words)]
    copier, _ = finetune(load_checkpoint(tmp_path / "m.ckpt"), pairs, pairs[:2], vocab,
                         TrainConfig(learning_rate=3e-2, warmup_steps=2, total_steps=80,
                                     max_src_len=16, max_tgt_len=10), eval_every=80)
    save_checkpoint(copier, tmp_path / "m.ckpt")
    lines = ["ba lo", "lo ba ba", "ba", "lo lo ba lo ba", "ba ba"]
    bodies = tmp_path / "in.txt"
    bodies.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    (tmp_path / "cfg.json").write_text(json.dumps({**FITS_16, "decoding": {"beam_size": 3}}),
                                       encoding="utf-8")
    assert main([*generate_args, "--input", str(bodies)]) == 0

    model = EncoderDecoderModel.from_checkpoint(copier)
    max_len = ExperimentConfig().finetune.max_tgt_len
    expect = [decode(list(beam_search(model, frame_ids(encode(line, vocab).ids, 16), 3, max_len)),
                     vocab) for line in lines]
    assert len(set(expect)) > 1
    assert (tmp_path / "out.txt").read_text(encoding="utf-8").splitlines() == expect


def test_generate_failed_write_keeps_the_old_output(tmp_path, monkeypatch, generate_args):
    import warmsum.fileio

    bodies = tmp_path / "in.txt"
    bodies.write_text("ba lo\nlo ba\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    out.write_text("old\n", encoding="utf-8")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(warmsum.fileio.os, "replace", fail)
    with pytest.raises(OSError):
        main([*generate_args, "--input", str(bodies)])
    assert out.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "in.txt", "m.ckpt",
                                                          "out.txt", "vocab.txt"]


def test_stats_ratios_that_are_not_numbers_are_a_usage_error(capsys):
    assert main(["stats", "--corpus", str(DATA_DIR / "mini_corpus.jsonl"),
                 "--ratios", "a,b,c"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: warmsum stats") and "argument --ratios" in err


GENERATE = ["--config", "c.json", "--ckpt", "m.ckpt", "--vocab", "v.txt", "--input", "in.txt",
            "--out", "o.txt"]


@pytest.mark.parametrize("argv", [
    ["tokenizer-train", "--config", "c.json", "--corpus", "c.jsonl", "--out", "v.txt",
     "--pretokenize", "character"],
    ["generate", *GENERATE, "--block-repeat-ngram", "2"],
    ["evaluate", "--candidates", "a.txt", "--references", "b.txt", "--tokenization",
     "subword_ids"],
    ["evaluate", "--candidates", "a.txt", "--references", "b.txt", "--lowercase"],
    ["evaluate", "--candidates", "a.txt", "--references", "b.txt", "--vocab", "v.txt"],
    ["tokenizer-train", "--config", "c.json", "--corpus", "c.jsonl", "--out", "v.txt",
     "--fields", "body"],
    ["pretrain", "--config", "c.json", "--corpus", "c.jsonl", "--vocab", "v.txt",
     "--out", "e.ckpt", "--fields", "body"],
    ["generate", *GENERATE, "--method", "greedy"],
    ["generate", *GENERATE, "--beam-size", "4"],
    ["generate", *GENERATE, "--max-len", "16"],
    ["generate", *GENERATE, "--alpha", "1.0"],
    ["generate", *GENERATE, "--max-src-len", "26"],
    ["tokenizer-train", "--config", "c.json", "--corpus", "c.jsonl", "--out", "v.txt",
     "--vocab-size", "50"],
    ["config", "--print-defaults"],
])
def test_removed_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "finetune"])
def test_config_windows_must_fit_the_checkpoint(tmp_path, capsys, generate_args, command):
    config = tmp_path / "cfg.json"
    config.write_text(config_to_json(ExperimentConfig()), encoding="utf-8")  # 34-token window
    bodies = tmp_path / "in.txt"
    bodies.write_text(" ".join(["ba lo"] * 20) + "\n", encoding="utf-8")
    argv = {"generate": [*generate_args, "--input", str(bodies)],
            "finetune": ["finetune", *generate_args[1:], "--train", "t.jsonl",
                         "--dev", "d.jsonl"]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (f"config {config} does not fit checkpoint {tmp_path / 'm.ckpt'}: "
            "pretrain.max_src_len is 34, more than its max_positions 16") in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command", ["generate", "finetune"])
def test_a_vocabulary_of_another_size_than_the_checkpoint_exits_2(tmp_path, capsys,
                                                                  generate_args, command):
    from warmsum.tokenizer import load_vocab, save_vocab, train_bpe

    vocab, other = tmp_path / "vocab.txt", tmp_path / "other_vocab.txt"
    save_vocab(train_bpe(["ba lo mì ke ba lo mì ke"], 40), other)
    sizes = load_vocab(vocab).size, load_vocab(other).size
    assert sizes[0] != sizes[1]
    bodies, pairs = tmp_path / "in.txt", tmp_path / "pairs.jsonl"
    bodies.write_text("ba lo mì ke\n", encoding="utf-8")
    pairs.write_text('{"body": "ba lo mì ke", "abstract": "ba ke"}\n' * 8, encoding="utf-8")
    common = [str(other) if arg == str(vocab) else arg for arg in generate_args[1:]]
    argv = {"generate": ["generate", *common, "--input", str(bodies)],
            "finetune": ["finetune", *common, "--train", str(pairs), "--dev", str(pairs)]}[command]
    assert main(argv) == 2
    assert (f"vocabulary {other} has {sizes[1]} tokens, but checkpoint {tmp_path / 'm.ckpt'} "
            f"has vocab_size {sizes[0]}") in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()
