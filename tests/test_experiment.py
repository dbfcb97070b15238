import dataclasses
import json
import re

import pytest

from warmsum.assembly import load_checkpoint
from warmsum.cli import main
from warmsum.errors import DataError
from warmsum.experiment import (CellResult, CorpusSettings, ExperimentConfig, ModelSettings,
                                ResultsTable, TokenizerSettings, config_from_json,
                                config_to_json, encoder_quality_text, load_results,
                                pretraining_lines, run_experiment)
from warmsum.corpus import load_jsonl, split
from warmsum.synthetic import SyntheticSettings, generate_corpus, word_inventory
from warmsum.tokenizer import encode, load_vocab, train_bpe
from warmsum.training import TrainConfig, evaluate_mlm, unigram_entropy


def tiny_config(output_dir, modes=("RND2RND", "WARM2WARM"), seeds=(1, 2)):
    return ExperimentConfig(
        corpus=CorpusSettings(
            synthetic=SyntheticSettings(n_pairs=80, seed=3, n_words=20, body_min=10,
                                        body_max=14, lead_k=4, chain_prob=0.8),
            ratios=(0.7, 0.15, 0.15), split_seed=5),
        tokenizer=TokenizerSettings(target_vocab_size=120),
        model=ModelSettings(d_model=16, n_heads=2, d_ff=32, n_enc_layers=1,
                            n_dec_layers=1, max_positions=32, dropout=0.0),
        pretrain=TrainConfig(learning_rate=1e-2, total_steps=60, warmup_steps=10,
                             batch_size=8, max_src_len=20, seed=0),
        finetune=TrainConfig(learning_rate=3e-3, total_steps=60, warmup_steps=10,
                             batch_size=8, max_src_len=20, max_tgt_len=10),
        modes=modes,
        seeds=seeds,
        output_dir=str(output_dir),
    )


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    text = config_to_json(cfg)
    assert config_from_json(text) == cfg
    defaults = config_from_json(config_to_json(ExperimentConfig()))
    assert defaults == ExperimentConfig()


def test_config_rejects_unknown_keys():
    obj = json.loads(config_to_json(ExperimentConfig()))
    obj["model"]["n_layerz"] = 3
    with pytest.raises(DataError, match="n_layerz"):
        config_from_json(json.dumps(obj))
    with pytest.raises(DataError, match="bogus"):
        config_from_json(json.dumps({"bogus": 1}))


def _wrong_json_types(value):
    """Values whose JSON type differs from that of `value`."""
    if isinstance(value, bool):
        return [5, "true"]
    if isinstance(value, (int, float)):
        return ["5", [5], True]
    if isinstance(value, str):
        return [5, [value]]
    return [5, "x"]  # a list or an object


def _leaves(obj, key="config"):
    """Every (dotted key, path, value) below a JSON object, lists and objects included."""
    for name, value in obj.items():
        yield f"{key}.{name}", (name,), value
        if isinstance(value, dict):
            for sub, path, leaf in _leaves(value, f"{key}.{name}"):
                yield sub, (name, *path), leaf
        elif isinstance(value, list):
            yield f"{key}.{name}[0]", (name, 0), value[0]


def test_config_refuses_a_value_of_the_wrong_type_at_every_key():
    defaults = json.loads(config_to_json(ExperimentConfig()))
    # every settable value, every section and the first element of each list
    for key, path, value in _leaves(defaults):
        for wrong in _wrong_json_types(value):
            obj = json.loads(config_to_json(ExperimentConfig()))
            parent = obj
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = wrong
            with pytest.raises(DataError, match=f"^{re.escape(key)} must be "):
                config_from_json(json.dumps(obj))


def test_a_config_naming_one_printed_value_reads_as_the_defaults():
    defaults = ExperimentConfig()
    for key, path, value in _leaves(json.loads(config_to_json(defaults))):
        if isinstance(value, dict) or not isinstance(path[-1], str):
            continue  # a section, or an element of a list
        obj = value
        for step in reversed(path):
            obj = {step: obj}
        assert config_from_json(json.dumps(obj)) == defaults, key
    # the keys a section leaves out keep their printed values
    assert config_from_json('{"finetune": {"max_src_len": 16}}') == dataclasses.replace(
        defaults, finetune=dataclasses.replace(defaults.finetune, max_src_len=16))


def test_config_validates_modes_and_seeds(tmp_path):
    with pytest.raises(ValueError):
        tiny_config(tmp_path, modes=("RND2BOGUS",))
    with pytest.raises(DataError):
        tiny_config(tmp_path, seeds=())


def test_default_windows_hold_whole_documents():
    cfg = ExperimentConfig()
    syn = cfg.corpus.synthetic
    train = split(generate_corpus(syn), cfg.corpus.ratios, cfg.corpus.split_seed)["train"]
    vocab = train_bpe([ex.body for ex in train] + [ex.abstract for ex in train],
                      cfg.tokenizer.target_vocab_size)
    # every word is one token, so the windows follow from word counts
    assert all(len(encode(w, vocab).ids) == 1 for w in word_inventory(syn.n_words))
    assert cfg.pretrain.max_src_len >= syn.body_max + syn.lead_k + 2  # "body abstract"
    assert cfg.finetune.max_src_len >= syn.body_max + 2
    assert cfg.finetune.max_tgt_len >= syn.lead_k + 2


def test_results_table_rendering():
    table = ResultsTable(rows=[
        CellResult("RND2RND", 1, 10.0, 5.0, 9.5),
        CellResult("RND2RND", 2, 12.0, 6.0, 10.5),
        CellResult("WARM2WARM", 1, 20.0, 11.0, 19.0),
        CellResult("WARM2WARM", 2, 22.0, 12.0, 21.0),
    ])
    meds = table.medians()
    assert meds["RND2RND"] == (11.0, 5.5, 10.0)
    text = table.render_text()
    assert "RND2RND" in text and "median" in text
    csv = table.to_csv()
    assert csv.splitlines()[0] == "mode,seed,rouge1,rouge2,rougeL"
    assert "WARM2WARM,median,21.00,11.50,20.00" in csv


@pytest.mark.slow
def test_run_experiment_end_to_end(tmp_path, capsys):
    out = tmp_path / "runs"
    cfg = tiny_config(out)
    table = run_experiment(cfg)
    assert len(table.rows) == 4
    assert not table.failures
    assert all(0.0 <= r.rougeL <= 100.0 for r in table.rows)

    # artifacts exist and every score is traceable to hashes
    assert (out / "vocab.txt").exists()
    assert (out / "encoder_mlm.ckpt").exists()
    for mode in cfg.modes:
        for seed in cfg.seeds:
            cell = out / "cells" / f"{mode}_s{seed}"
            scores = json.loads((cell / "scores.json").read_text())
            assert scores["checkpoint_sha256"]
            assert scores["decodes_sha256"]
            assert (cell / "assembled.ckpt").exists()
            assert (cell / "best.ckpt").exists()
            assert (cell / "metrics.csv").exists()
            n_decodes = len((cell / "test_decodes.txt").read_text().splitlines())
            assert n_decodes == len((out / "data" / "test.jsonl").read_text().splitlines())

    results_txt = (out / "results.txt").read_bytes()
    results_csv = (out / "results.csv").read_bytes()
    mtimes = {p: p.stat().st_mtime_ns for p in (out / "cells").rglob("scores.json")}

    # rerun: byte-identical table, no cell recomputation
    table2 = run_experiment(cfg)
    assert (out / "results.txt").read_bytes() == results_txt
    assert (out / "results.csv").read_bytes() == results_csv
    assert {p: p.stat().st_mtime_ns for p in (out / "cells").rglob("scores.json")} == mtimes
    assert [dataclasses.astuple(r) for r in table2.rows] == \
        [dataclasses.astuple(r) for r in table.rows]

    # report path reproduces the same rows without recomputation
    loaded = load_results(out)
    assert [dataclasses.astuple(r) for r in loaded.rows] == \
        [dataclasses.astuple(r) for r in table.rows]

    # the encoder's quality is recorded next to it, unchanged by a rerun, and
    # recomputed when a resumed run finds it missing
    quality_path = out / "encoder_quality.json"
    quality_bytes = quality_path.read_bytes()
    vocab = load_vocab(out / "vocab.txt")
    train, dev = (pretraining_lines(load_jsonl(out / "data" / f"{n}.jsonl"))
                  for n in ("train", "dev"))
    loss, accuracy = evaluate_mlm(load_checkpoint(out / "encoder_mlm.ckpt"), dev, vocab,
                                  cfg.pretrain)
    assert json.loads(quality_bytes) == {
        "mlm_dev_loss": loss, "mlm_dev_accuracy": accuracy,
        "unigram_entropy": unigram_entropy(train, vocab, cfg.pretrain)}
    quality_path.unlink()
    run_experiment(cfg)
    assert quality_path.read_bytes() == quality_bytes
    assert main(["report", "--dir", str(out)]) == 0
    assert capsys.readouterr().out == results_txt.decode() + encoder_quality_text(out)
    assert encoder_quality_text(out).startswith(f"MLM encoder: dev masked-token loss {loss:.3f}")


def test_run_experiment_rejects_conflicting_config(tmp_path):
    out = tmp_path / "runs"
    out.mkdir()
    (out / "config.json").write_text(config_to_json(ExperimentConfig()), encoding="utf-8")
    cfg = tiny_config(out)
    with pytest.raises(DataError, match="different config"):
        run_experiment(cfg)


@pytest.mark.parametrize("section, change, name", [
    ("pretrain", {"max_src_len": 65}, "pretrain.max_src_len"),
    ("finetune", {"max_src_len": 65}, "finetune.max_src_len"),
    ("finetune", {"max_tgt_len": 64}, "finetune.max_tgt_len \\+ 1"),
])
def test_windows_must_fit_the_positions(section, change, name):
    cfg = ExperimentConfig()
    assert cfg.model.max_positions == 64
    with pytest.raises(DataError, match=f"{name} is 65, more than model.max_positions 64"):
        dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section),
                                                                 **change)})
