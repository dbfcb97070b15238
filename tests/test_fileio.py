import builtins
import errno

import pytest

from warmsum.assembly import AssemblyMode, assemble, save_checkpoint
from warmsum.corpus import CorpusExample, save_jsonl
from warmsum.fileio import write_atomic
from warmsum.model import ModelConfig
from warmsum.tokenizer import save_vocab, train_bpe

WRITERS = {
    "checkpoint": lambda path: save_checkpoint(assemble(None, AssemblyMode.RND2RND, ModelConfig(
        vocab_size=8, d_model=2, n_heads=1, d_ff=2, n_enc_layers=1, n_dec_layers=1,
        max_positions=4, dropout=0.0), seed=0), path),
    "vocab": lambda path: save_vocab(train_bpe(["ba ke mi"], 20), path),
    "jsonl": lambda path: save_jsonl([CorpusExample(str(i), "ba ke", "ba") for i in range(3)],
                                     path),
    "text": lambda path: write_atomic(path, "results\n"),
}


class _FullDisk:
    """A file whose write stores half of the data, then fails as a full disk does."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[:len(data) // 2])
        self._f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("old", [b"old artifact\n", None])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_failing_partway_leaves_old_file_or_none(tmp_path, monkeypatch, writer, old):
    path = tmp_path / "artifact"
    if old is not None:
        path.write_bytes(old)
    real_open = builtins.open

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return _FullDisk(f) if "w" in mode else f

    monkeypatch.setattr(builtins, "open", open_on_full_disk)
    with pytest.raises(OSError, match="No space"):
        WRITERS[writer](path)
    monkeypatch.undo()
    if old is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_whole_file(tmp_path, writer):
    path = tmp_path / "artifact"
    WRITERS[writer](path)
    first = path.read_bytes()
    path.write_bytes(b"x" * (10 * len(first)))  # a longer old file leaves no tail behind
    WRITERS[writer](path)
    assert path.read_bytes() == first
    assert list(tmp_path.iterdir()) == [path]
