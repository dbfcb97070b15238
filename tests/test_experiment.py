import dataclasses
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest

import warmsum.experiment as experiment
from warmsum.assembly import AssemblyMode, assemble, load_checkpoint
from warmsum.cli import main
from warmsum.errors import CheckpointError, DataError
from warmsum.experiment import (CellResult, CorpusSettings, ExperimentConfig, ModelSettings,
                                ResultsTable, TokenizerSettings, config_from_json,
                                config_to_json, encoder_quality_text, load_results,
                                pretraining_lines, run_experiment)
from warmsum.corpus import load_jsonl, split
from warmsum.model import ModelConfig
from warmsum.synthetic import SyntheticSettings, generate_corpus, word_inventory
from warmsum.tokenizer import encode, load_vocab, train_bpe
from warmsum.training import (PretrainConfig, TrainConfig, _mlm_documents, encode_pairs,
                              evaluate_mlm, unigram_entropy)


def tiny_config(output_dir, modes=("RND2RND", "WARM2WARM"), seeds=(1, 2)):
    return ExperimentConfig(
        corpus=CorpusSettings(
            synthetic=SyntheticSettings(n_pairs=80, seed=3, n_words=20, body_min=10,
                                        body_max=14, lead_k=4, chain_prob=0.8),
            ratios=(0.7, 0.15, 0.15), split_seed=5),
        tokenizer=TokenizerSettings(target_vocab_size=120),
        model=ModelSettings(d_model=16, n_heads=2, d_ff=32, n_enc_layers=1,
                            n_dec_layers=1, max_positions=32, dropout=0.0),
        pretrain=PretrainConfig(learning_rate=1e-2, total_steps=60, warmup_steps=10,
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


def test_config_refuses_an_integer_past_float_range():
    huge = "1" + "0" * 400
    with pytest.raises(DataError, match="^config.pretrain.learning_rate must be a finite "
                                        "number, got an integer past float range$"):
        config_from_json(f'{{"pretrain": {{"learning_rate": {huge}}}}}')
    with pytest.raises(DataError, match="^config.corpus.ratios\\[1\\] must be a finite"):
        config_from_json(f'{{"corpus": {{"ratios": [0.1, -{huge}, 0.8]}}}}')
    # past Python's digit limit the JSON reader itself refuses the number
    with pytest.raises(DataError, match="^config is not valid JSON"):
        config_from_json(f'{{"pretrain": {{"learning_rate": 1{"0" * 5000}}}}}')
    # an integer in range stays an integer, so config.json keeps its bytes
    cfg = config_from_json('{"pretrain": {"learning_rate": 1}}')
    assert type(cfg.pretrain.learning_rate) is int
    assert '"learning_rate": 1,' in config_to_json(cfg)


def test_config_validates_modes_and_seeds(tmp_path):
    with pytest.raises(ValueError):
        tiny_config(tmp_path, modes=("RND2BOGUS",))
    with pytest.raises(DataError):
        tiny_config(tmp_path, seeds=())


def test_config_refuses_a_fine_tuning_config_for_pretraining():
    # pretraining reads no target window, so config.json must not print one
    with pytest.raises(DataError, match="pretrain must be a PretrainConfig, not a TrainConfig"):
        ExperimentConfig(pretrain=TrainConfig(max_src_len=34))
    assert "max_tgt_len" not in json.loads(config_to_json(ExperimentConfig()))["pretrain"]


def _default_splits_and_vocab(cfg: ExperimentConfig):
    splits = split(generate_corpus(cfg.corpus.synthetic), cfg.corpus.ratios, cfg.corpus.split_seed)
    return splits, train_bpe(experiment.tokenizer_lines(splits["train"]),
                             cfg.tokenizer.target_vocab_size)


def test_default_windows_hold_whole_documents():
    cfg = ExperimentConfig()
    syn = cfg.corpus.synthetic
    _, vocab = _default_splits_and_vocab(cfg)
    # every word is one token, so the windows follow from word counts
    assert all(len(encode(w, vocab).ids) == 1 for w in word_inventory(syn.n_words))
    assert cfg.pretrain.max_src_len >= syn.body_max + syn.lead_k + 2  # "body abstract"
    assert cfg.finetune.max_src_len >= syn.body_max + 2
    assert cfg.finetune.max_tgt_len >= syn.lead_k + 2


def test_default_config_frames_every_document_without_a_warning():
    cfg = ExperimentConfig()
    splits, vocab = _default_splits_and_vocab(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cut document would raise here
        for examples in splits.values():
            _mlm_documents(experiment.pretraining_lines(examples), vocab, cfg.pretrain)
            encode_pairs(examples, vocab, cfg.finetune)


def test_test_decoding_warns_when_the_window_cuts_a_body():
    vocab = train_bpe(["mot hai ba bon nam sau bay tam chin muoi"] * 3, 60)
    body = "mot hai ba bon nam sau bay tam chin muoi"
    assert len(encode(body, vocab).ids) == 10
    cfg = ExperimentConfig()
    cfg = dataclasses.replace(cfg, finetune=dataclasses.replace(cfg.finetune, max_src_len=6))
    model_cfg = ModelConfig(vocab.size, 16, 2, 32, 1, 1, 16, 0.0)
    ckpt = assemble(None, AssemblyMode.RND2RND, model_cfg, seed=0)
    with pytest.warns(UserWarning) as record:
        experiment._decode_test(cfg, ckpt, [body], vocab)
    assert [str(w.message) for w in record] == [
        "cut 1 of 1 bodies to the window of 6 ids (BOS and EOS included); "
        "the cut tokens are not read"]


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

    # each phase's wall time, written by the process that ran it
    assert multiprocessing.active_children() == []
    phases = {"": ["encoder_quality_s", "pretrain_s"],
              **{f"cells/{m}_s{s}": ["assemble_s", "decode_s", "finetune_s", "score_s"]
                 for m in cfg.modes for s in cfg.seeds}}
    timings = {d: json.loads((out / d / "timings.json").read_text()) for d in phases}
    for d, keys in phases.items():
        assert sorted(timings[d]) == keys and all(t >= 0 for t in timings[d].values()), d

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
    # a resumed run times only what it ran
    assert list(json.loads((out / "timings.json").read_text())) == ["encoder_quality_s"]
    assert json.loads((out / "cells" / "RND2RND_s1" / "timings.json").read_text()) == \
        timings["cells/RND2RND_s1"]
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


# -- the stages' processes -------------------------------------------------------


def _count_stage_processes(monkeypatch, notes):
    """Make each stage's process note its pid in `notes`, and in `notes`/live
    how many of the noted processes are running as it starts."""
    init_worker = experiment._init_worker
    notes.mkdir()

    def noting_init(parent):
        (notes / str(os.getpid())).touch()
        running = [p for p in notes.glob("[0-9]*") if _running(int(p.name))]
        with open(notes / "live", "a") as f:
            f.write(f"{len(running)}\n")
        init_worker(parent)

    monkeypatch.setattr(experiment, "_init_worker", noting_init)


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="reads process states from /proc")
def test_a_run_never_has_more_stage_processes_than_cores(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert experiment._cores() == 64
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 48)
    assert experiment._cores() == 48
    monkeypatch.undo()

    for cores in (1, 2):
        monkeypatch.setattr(experiment, "_cores", lambda: cores)
        _count_stage_processes(monkeypatch, tmp_path / f"notes{cores}")
        table = run_experiment(tiny_config(tmp_path / f"runs{cores}"))
        assert len(table.rows) == 4
        live = [int(n) for n in (tmp_path / f"notes{cores}" / "live").read_text().split()]
        # pretraining and four cells; with two cores, a cell runs beside pretraining
        assert len(live) == 5 and max(live) == cores, cores
        monkeypatch.undo()

    # one RND2RND cell is one stage, so the run starts one process on a 64-core host
    monkeypatch.setattr(experiment, "_cores", lambda: 64)
    _count_stage_processes(monkeypatch, tmp_path / "notes64")
    table = run_experiment(tiny_config(tmp_path / "runs64", modes=("RND2RND",), seeds=(1,)))
    assert len(table.rows) == 1
    assert (tmp_path / "notes64" / "live").read_text() == "1\n"


def _cells_failing_in_a_worker(monkeypatch, failing, fail):
    """Make `experiment.assemble` call fail() in the cells named in `failing`."""
    assemble = experiment.assemble
    parent = os.getpid()

    def assemble_or_fail(encoder, mode, model_cfg, seed, **kwargs):
        if (mode.value, seed) in failing:
            assert os.getpid() != parent, "cells run in workers"
            fail()
        return assemble(encoder, mode, model_cfg, seed, **kwargs)

    monkeypatch.setattr(experiment, "assemble", assemble_or_fail)


def _boom():
    raise RuntimeError("boom")


@pytest.mark.slow
def test_a_cell_that_raises_in_a_worker_fails_alone(tmp_path, monkeypatch):
    out = tmp_path / "runs"
    _cells_failing_in_a_worker(monkeypatch, {("WARM2WARM", 2)}, _boom)
    table = run_experiment(tiny_config(out))
    assert multiprocessing.active_children() == []
    assert [(r.mode, r.seed) for r in table.rows] == [("RND2RND", 1), ("RND2RND", 2),
                                                       ("WARM2WARM", 1)]
    assert table.failures == [("WARM2WARM", 2, "RuntimeError: boom")]
    error_path = out / "cells" / "WARM2WARM_s2" / "error.txt"
    error = error_path.read_text()
    # the cell, the table's row, then the worker's traceback down to the raise
    assert error.startswith("cell WARM2WARM seed 2\nRuntimeError: boom\n")
    assert "in _run_cell" in error and 'raise RuntimeError("boom")' in error
    assert error.endswith("\nRuntimeError: boom\nin phase assemble\n")
    results = (out / "results.txt").read_text()
    assert results == table.render_text() and "2 FAILED: RuntimeError: boom\n" in results
    assert load_results(out).render_text() == results  # `report` reads the same row
    assert not (out / "cells" / "WARM2WARM_s1" / "error.txt").exists()

    # a rerun that succeeds leaves no failure behind
    monkeypatch.undo()
    table = run_experiment(tiny_config(out))
    assert not table.failures and len(table.rows) == 4
    assert not error_path.exists()
    assert "FAILED" not in (out / "results.txt").read_text()


def test_a_failed_cells_row_is_line_2_of_its_error_txt(tmp_path):
    out = tmp_path / "runs"
    cfg = tiny_config(out, modes=("RND2RND",), seeds=(1, 2, 3, 4))
    out.mkdir()
    (out / "config.json").write_text(config_to_json(cfg), encoding="utf-8")
    for seed, error in ((2, b"cell RND2RND seed 2\n"),  # no row recorded
                        (3, b"cell RND2RND seed 3\nValueError: bad \xff byte\nTraceback"),
                        (4, b"cell RND2RND seed 4\nTraceback (most recent call last):\n")):
        (out / "cells" / f"RND2RND_s{seed}").mkdir(parents=True)
        (out / "cells" / f"RND2RND_s{seed}" / "error.txt").write_bytes(error)
    assert load_results(out).failures == [
        ("RND2RND", 1, "no scores.json recorded"), ("RND2RND", 2, "no scores.json recorded"),
        ("RND2RND", 3, "ValueError: bad \ufffd byte"),
        ("RND2RND", 4, "Traceback (most recent call last):")]  # an older run's file


@pytest.mark.slow
def test_stages_that_cannot_be_pickled_run_in_this_process_in_serial_order(tmp_path,
                                                                          monkeypatch):
    plain = tmp_path / "plain"
    run_experiment(tiny_config(plain))
    calls = []

    def wrap(fn):  # a closure, as a profiler installs it
        def wrapped(cfg, out, *args):
            calls.append((os.getpid(), fn.__name__, *args[:-3]))
            return fn(cfg, out, *args)
        return wrapped

    for name in ("_prepare_encoder", "_run_cell"):
        monkeypatch.setattr(experiment, name, wrap(getattr(experiment, name)))
    wrapped = tmp_path / "wrapped"
    run_experiment(tiny_config(wrapped))
    assert multiprocessing.active_children() == []
    pid = os.getpid()
    assert calls == [(pid, "_prepare_encoder"),
                     (pid, "_run_cell", "RND2RND", 1), (pid, "_run_cell", "RND2RND", 2),
                     (pid, "_run_cell", "WARM2WARM", 1), (pid, "_run_cell", "WARM2WARM", 2)]
    assert (wrapped / "results.txt").read_bytes() == (plain / "results.txt").read_bytes()


@pytest.mark.slow
@pytest.mark.parametrize("stage", ["cell", "pretraining"])
def test_a_dead_worker_fails_its_cells_not_the_run(tmp_path, monkeypatch, stage):
    out = tmp_path / "runs"
    if stage == "cell":
        _cells_failing_in_a_worker(monkeypatch, {("WARM2WARM", 2)}, lambda: os._exit(1))
        dead = {("WARM2WARM", 2)}
    else:
        parent = os.getpid()

        def die(*args):
            assert os.getpid() != parent, "pretraining runs in a worker"
            os._exit(1)

        monkeypatch.setattr(experiment, "pretrain_mlm", die)
        dead = {("WARM2WARM", 1), ("WARM2WARM", 2)}
    cfg = tiny_config(out)
    table = run_experiment(cfg)
    assert multiprocessing.active_children() == []
    failed = {(mode, seed) for mode, seed, _ in table.failures}
    assert failed == dead  # no other stage is lost
    assert sorted(failed | {(r.mode, r.seed) for r in table.rows}) == \
        sorted((m, s) for m in cfg.modes for s in cfg.seeds)
    row = "RuntimeError: the process of {} ended with exit code 1".format(
        "cell WARM2WARM seed 2" if stage == "cell" else "pretraining")
    for mode, seed, message in table.failures:
        assert message == row
        error = (out / "cells" / f"{mode}_s{seed}" / "error.txt").read_text()
        assert error.startswith(f"cell {mode} seed {seed}\n{row}\n")
    assert (out / "results.txt").read_text() == table.render_text()


@pytest.mark.slow
def test_a_dead_worker_costs_no_other_stage(tmp_path, monkeypatch):
    """Each cell's assembly starts once, also the warm cell that runs beside
    the one whose process dies."""
    starts = tmp_path / "starts"
    assemble = experiment.assemble

    def noted_assemble(encoder, mode, model_cfg, seed, **kwargs):
        with open(starts, "a") as f:
            f.write(f"{mode.value} {seed}\n")
        if (mode.value, seed) == ("WARM2WARM", 2):
            deadline = time.monotonic() + 30  # die while WARM2WARM 1 runs, given two cores
            while "WARM2WARM 1" not in starts.read_text() and time.monotonic() < deadline:
                time.sleep(0.05)
            os._exit(1)
        return assemble(encoder, mode, model_cfg, seed, **kwargs)

    monkeypatch.setattr(experiment, "assemble", noted_assemble)
    cfg = tiny_config(tmp_path / "runs")
    table = run_experiment(cfg)
    assert [(mode, seed) for mode, seed, _ in table.failures] == [("WARM2WARM", 2)]
    assert sorted(starts.read_text().splitlines()) == \
        sorted(f"{m} {s}" for m in cfg.modes for s in cfg.seeds)


# `warmsum run --config cfg.json` on two cores, with every cell's assembly
# slowed by a minute; a cell announces its start with a file in `started/`
_SLOW_RUN = """
import os, sys, time
from pathlib import Path
import warmsum.experiment as experiment
from warmsum.cli import main

assemble = experiment.assemble

def slow_assemble(*args, **kwargs):
    Path("started", str(os.getpid())).touch()
    time.sleep(60)
    return assemble(*args, **kwargs)

Path("started").mkdir()
experiment._cores = lambda: 2
experiment.assemble = slow_assemble
sys.exit(main(["run", "--config", "cfg.json"]))
"""


def _warmsum_env():
    src = Path(experiment.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": str(src)}


@contextmanager
def _slow_run(run_dir):
    """Start the slowed run in its own session and yield it once both workers
    run a cell; every process of the session is killed on the way out."""
    run_dir.mkdir()
    (run_dir / "cfg.json").write_text(config_to_json(tiny_config("runs")), encoding="utf-8")
    with open(run_dir / "stderr.txt", "wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-c", _SLOW_RUN], cwd=run_dir,
                                env=_warmsum_env(), start_new_session=True, stderr=stderr)
    try:
        deadline = time.monotonic() + 120
        # two cells started: pretraining is done, and the parent waits on them
        while len(list((run_dir / "started").glob("*"))) < 2:
            assert proc.poll() is None, (run_dir / "stderr.txt").read_text()
            assert time.monotonic() < deadline, "no cell started"
            time.sleep(0.1)
        yield proc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def _interrupt_a_run(run_dir, send):
    """Call send(pid) once the slowed run's workers run a cell, and return its
    exit status; no process of the session may outlive it."""
    with _slow_run(run_dir) as proc:
        send(proc.pid)
        status = proc.wait(timeout=30)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        return status


@pytest.mark.slow
def test_ctrl_c_stops_a_pooled_run_and_a_rerun_resumes(tmp_path):
    run_dir = tmp_path / "interrupted"
    status = _interrupt_a_run(run_dir, lambda pid: os.killpg(pid, signal.SIGINT))
    assert status == -signal.SIGINT
    assert not (run_dir / "runs" / "results.txt").exists()
    encoder = (run_dir / "runs" / "encoder_mlm.ckpt").stat().st_mtime_ns

    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / "cfg.json").write_bytes((run_dir / "cfg.json").read_bytes())
    for cwd in (run_dir, fresh):
        proc = subprocess.run([sys.executable, "-m", "warmsum", "run", "--config", "cfg.json"],
                              cwd=cwd, env=_warmsum_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    results = (fresh / "runs" / "results.txt").read_text()
    assert (run_dir / "runs" / "results.txt").read_text() == results
    assert "FAILED" not in results
    assert (run_dir / "runs" / "encoder_mlm.ckpt").stat().st_mtime_ns == encoder  # reused


@pytest.mark.slow
def test_sigterm_to_the_parent_stops_its_workers(tmp_path):
    status = _interrupt_a_run(tmp_path / "run", lambda pid: os.kill(pid, signal.SIGTERM))
    assert status == 128 + signal.SIGTERM


def _running(pid):
    """Whether process `pid` exists and has not ended; a zombie has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):  # reaped, or reaped while read
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # the state follows the name


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="parent-death signals are Linux's")
def test_sigkill_to_the_parent_ends_its_workers(tmp_path):
    run_dir = tmp_path / "run"
    with _slow_run(run_dir) as proc:
        workers = [int(p.name) for p in (run_dir / "started").iterdir()]
        proc.kill()
        proc.wait()
        # reparented, an ended worker stays a zombie until its new parent reaps it
        deadline = time.monotonic() + 10
        while running := [pid for pid in workers if _running(pid)]:
            assert time.monotonic() < deadline, f"workers {running} outlived their parent"
            time.sleep(0.1)


def test_a_pretraining_error_still_exits_2(tmp_path, capsys):
    out = tmp_path / "runs"
    out.mkdir()
    (out / "encoder_mlm.ckpt").write_bytes(b"not a checkpoint")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_to_json(tiny_config(out)), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "encoder_mlm.ckpt" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert not (out / "results.txt").exists()


def test_a_stopped_run_leaves_the_callers_own_children_running(tmp_path):
    out = tmp_path / "runs"
    out.mkdir()
    (out / "encoder_mlm.ckpt").write_bytes(b"not a checkpoint")
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    child.start()
    try:
        with pytest.raises(CheckpointError, match="encoder_mlm.ckpt"):
            run_experiment(tiny_config(out))
        assert child.is_alive()
        assert multiprocessing.active_children() == [child]  # no worker is left
    finally:
        child.terminate()
        child.join()


def test_a_stopped_run_leaves_a_child_started_meanwhile_running(tmp_path, monkeypatch):
    """A child that the caller starts from another thread while the run is
    under way is the caller's, not the run's, to stop."""
    marks = tmp_path / "marks"
    marks.mkdir()

    def pretrain_then_fail(*args):  # waits, in its process, for the caller's child
        (marks / "pretraining").touch()
        deadline = time.monotonic() + 30
        while not (marks / "child").exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        raise DataError("no encoder")

    children = []

    def start_a_child():
        deadline = time.monotonic() + 30
        while not (marks / "pretraining").exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        children.append(multiprocessing.get_context("fork").Process(target=time.sleep,
                                                                    args=(60,)))
        children[0].start()
        (marks / "child").touch()

    monkeypatch.setattr(experiment, "pretrain_mlm", pretrain_then_fail)
    caller = threading.Thread(target=start_a_child)
    caller.start()
    try:
        with pytest.raises(DataError, match="no encoder"):
            run_experiment(tiny_config(tmp_path / "runs", modes=("WARM2WARM",), seeds=(1,)))
        caller.join(timeout=30)
        assert not caller.is_alive() and children[0].is_alive()
        assert multiprocessing.active_children() == children  # no stage's process is left
    finally:
        caller.join(timeout=30)
        for child in children:
            child.terminate()
            child.join()


@pytest.mark.slow
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # pretraining batches of 44 documents of up to 20 tokens at d_model 32 make
    # weight gradients whose inner dimension OpenBLAS splits between threads
    cfg = tiny_config("runs", modes=("RND2RND", "WARM2WARM"), seeds=(1,))
    cfg = dataclasses.replace(
        cfg, corpus=dataclasses.replace(cfg.corpus, synthetic=dataclasses.replace(
            cfg.corpus.synthetic, n_pairs=160)),
        model=dataclasses.replace(cfg.model, d_model=32, d_ff=64),
        pretrain=dataclasses.replace(cfg.pretrain, batch_size=44))
    src = Path(experiment.__file__).resolve().parent.parent
    artifacts = {}
    for threads in ("1", "2", None):
        run_dir = tmp_path / f"threads-{threads}"
        run_dir.mkdir()
        (run_dir / "cfg.json").write_text(config_to_json(cfg), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(src)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-m", "warmsum", "run", "--config", "cfg.json"],
                              cwd=run_dir, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        artifacts[threads] = {p.relative_to(run_dir): p.read_bytes()
                              for p in sorted((run_dir / "runs").rglob("*"))
                              if p.is_file() and p.name != "timings.json"}
    assert len(artifacts["1"]) == 20  # run, data, encoder and two cells
    assert artifacts["2"] == artifacts["1"]
    assert artifacts[None] == artifacts["1"]
