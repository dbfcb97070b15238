import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR
from warmsum.cli import main
from warmsum.experiment import config_to_json, config_from_json

from test_experiment import tiny_config


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "warmsum", *map(str, args)],
                          capture_output=True, text=True,
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
    code, out, _ = run_cli("config", "--print-defaults")
    assert code == 0
    cfg = config_from_json(out)
    assert cfg == config_from_json(config_to_json(cfg))


@pytest.mark.slow
def test_cli_pipeline_end_to_end(tmp_path):
    """tokenizer-train -> pretrain -> assemble -> finetune -> generate -> evaluate."""
    cfg = tiny_config(tmp_path / "unused", seeds=(1,))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_to_json(cfg), encoding="utf-8")

    from warmsum.corpus import save_jsonl, split
    from warmsum.synthetic import generate_corpus

    splits = split(generate_corpus(cfg.corpus.synthetic), cfg.corpus.ratios,
                   cfg.corpus.split_seed)
    train_path = tmp_path / "train.jsonl"
    dev_path = tmp_path / "dev.jsonl"
    save_jsonl(splits["train"], train_path)
    save_jsonl(splits["dev"], dev_path)

    vocab_path = tmp_path / "vocab.txt"
    assert main(["tokenizer-train", "--corpus", str(train_path), "--vocab-size", "120",
                 "--out", str(vocab_path)]) == 0

    enc_path = tmp_path / "encoder.ckpt"
    assert main(["pretrain", "--config", str(cfg_path), "--corpus", str(train_path),
                 "--vocab", str(vocab_path), "--out", str(enc_path)]) == 0

    asm_path = tmp_path / "assembled.ckpt"
    assert main(["assemble", "--config", str(cfg_path), "--vocab", str(vocab_path),
                 "--mode", "warm2warm", "--encoder", str(enc_path),
                 "--seed", "1", "--out", str(asm_path)]) == 0

    best_path = tmp_path / "best.ckpt"
    assert main(["finetune", "--config", str(cfg_path), "--ckpt", str(asm_path),
                 "--train", str(train_path), "--dev", str(dev_path),
                 "--vocab", str(vocab_path), "--out", str(best_path),
                 "--log", str(tmp_path / "metrics.csv")]) == 0
    assert (tmp_path / "metrics.csv").read_text().startswith("step,split,loss,rouge_l")

    bodies_path = tmp_path / "bodies.txt"
    refs_path = tmp_path / "refs.txt"
    bodies_path.write_text("\n".join(ex.body for ex in splits["dev"]) + "\n",
                           encoding="utf-8")
    refs_path.write_text("\n".join(ex.abstract for ex in splits["dev"]) + "\n",
                         encoding="utf-8")
    out_path = tmp_path / "summaries.txt"
    assert main(["generate", "--ckpt", str(best_path), "--vocab", str(vocab_path),
                 "--input", str(bodies_path), "--out", str(out_path),
                 "--method", "greedy", "--max-len", "8"]) == 0
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == len(splits["dev"])

    assert main(["evaluate", "--candidates", str(out_path),
                 "--references", str(refs_path)]) == 0


@pytest.mark.slow
def test_cli_run_and_report(tmp_path):
    out = tmp_path / "runs"
    cfg = tiny_config(out, modes=("RND2RND",), seeds=(1,))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_to_json(cfg), encoding="utf-8")
    code, run_out, err = run_cli("run", "--config", cfg_path)
    assert code == 0, err
    code, report_out, err = run_cli("report", "--dir", out)
    assert code == 0, err
    assert report_out == run_out
    assert (out / "results.txt").read_text(encoding="utf-8") == report_out


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
    text = tmp_path / "a.txt"
    text.write_text("ba ke\n", encoding="utf-8")
    assert main(["evaluate", "--candidates", str(text), "--references", str(text),
                 "--vocab", str(vocab)]) == 2
    assert f"{vocab}: unknown pretokenize mode ''" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("{not json", "not valid JSON"),
    ('{"seeds": 5}', "'seeds' must be a list"),
    ('{"dev_eval_limit": "5", "output_dir": "OUT"}', "dev_eval_limit must be a positive integer"),
    ('{"output_dir": 5}', "output_dir must be a string"),
])
def test_malformed_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text.replace("OUT", str(tmp_path / "runs")), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err


def test_bad_model_settings_exit_2_before_any_artifact(tmp_path, capsys):
    out = tmp_path / "runs"
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"model": {{"n_heads": 0}}, "output_dir": "{out}"}}', encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "n_heads must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()
