import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from warmsum import tokenizer as tok
from warmsum.corpus import load_jsonl
from warmsum.errors import DataError
from warmsum.training import frame_ids


@pytest.fixture(scope="module")
def mini_lines():
    examples = load_jsonl(DATA_DIR / "mini_corpus.jsonl")
    return [ex.body for ex in examples] + [ex.abstract for ex in examples]


@pytest.fixture(scope="module")
def mini_vocab(mini_lines):
    return tok.train_bpe(mini_lines, 220)


@pytest.fixture(scope="module")
def vocab_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    tok.save_vocab(tok.train_bpe(["ba lo ba lo mì mì", "bà lô"], 24), path)
    return path.read_bytes()


def test_first_merge_is_most_frequent_pair():
    vocab = tok.train_bpe(["low", "low", "lower"], 40)
    # (l,o) and (o,w) both occur 3 times; the lexicographically smaller wins
    assert vocab.merges[0] == ("l", "o")


def test_degenerate_target_size_gives_character_vocab():
    corpus = ["low", "low", "lower"]
    base = {ch for w in corpus for ch in w} | {tok.WORD_END}
    vocab = tok.train_bpe(corpus, len(base) + tok.NUM_SPECIALS)
    assert vocab.merges == []
    assert vocab.size == len(base) + tok.NUM_SPECIALS


def test_training_is_deterministic(mini_lines, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    tok.save_vocab(tok.train_bpe(mini_lines, 180), a)
    tok.save_vocab(tok.train_bpe(mini_lines, 180), b)
    assert a.read_bytes() == b.read_bytes()


def test_specials_occupy_first_five_ids(mini_vocab):
    assert mini_vocab.id_to_token[:5] == ["<pad>", "<unk>", "<s>", "</s>", "<mask>"]
    assert (tok.PAD, tok.UNK, tok.BOS, tok.EOS, tok.MASK) == (0, 1, 2, 3, 4)


def test_round_trip_on_mini_corpus(mini_lines, mini_vocab):
    for line in mini_lines:
        ids = tok.encode(line, mini_vocab).ids
        assert tok.decode(ids, mini_vocab) == tok.normalize_text(line)


def test_word_cache_keeps_ids_equality_and_repr(mini_lines):
    vocab = tok.train_bpe(mini_lines, 220)
    fresh = tok.Vocabulary(list(vocab.id_to_token), list(vocab.merges))

    def reference(line):  # every merge applied to every word, nothing cached
        ids = []
        for syms in tok._pretokenize(line):
            for pair in vocab.merges:
                syms = tok._apply_merge(syms, pair, pair[0] + pair[1])
            ids.extend(vocab.token_to_id.get(s, tok.UNK) for s in syms)
        return ids

    for _ in range(2):  # the second pass reads every word from the cache
        for line in mini_lines + ["xyz cà phê cà"]:
            assert tok.encode(line, vocab).ids == reference(line)
    assert vocab._word_ids
    assert vocab == fresh and repr(vocab) == repr(fresh)


def test_unknown_symbol_becomes_unk():
    vocab = tok.train_bpe(["ab ab abc"], 30)
    ids = tok.encode("abz", vocab).ids
    assert tok.UNK in ids
    assert tok.decode(ids, vocab) == "ab<unk>"


def test_encode_bos_eos_framing(mini_vocab):
    ids = frame_ids(tok.encode("cà phê", mini_vocab).ids, 64)
    assert ids[0] == tok.BOS and ids[-1] == tok.EOS
    assert tok.decode(ids, mini_vocab) == "cà phê"


def test_all_ids_in_range(mini_lines, mini_vocab):
    for line in mini_lines:
        assert all(0 <= i < mini_vocab.size for i in tok.encode(line, mini_vocab).ids)


def test_prefix_stability_under_whitespace_pretokenization(mini_lines, mini_vocab):
    rng = np.random.default_rng(0)
    words = sorted({w for line in mini_lines for w in line.split()})
    for _ in range(100):
        a = " ".join(rng.choice(words, size=rng.integers(1, 6)))
        b = str(rng.choice(words))
        enc_a = tok.encode(a, mini_vocab).ids
        enc_ab = tok.encode(a + " " + b, mini_vocab).ids
        assert enc_ab[:len(enc_a)] == enc_a


def test_decode_empty_sequence(mini_vocab):
    assert tok.decode([], mini_vocab) == ""


def test_decode_out_of_range_id(mini_vocab):
    with pytest.raises(DataError, match="out of range"):
        tok.decode([mini_vocab.size], mini_vocab)


def test_empty_corpus_rejected():
    with pytest.raises(DataError, match="empty corpus"):
        tok.train_bpe([], 50)
    with pytest.raises(DataError, match="empty corpus"):
        tok.train_bpe(["   "], 50)


def test_target_below_base_symbols_rejected():
    with pytest.raises(DataError, match="base symbols"):
        tok.train_bpe(["abcdefgh"], 6)


def test_vocab_size_capped_by_achievable_merges():
    # one word occurring once: no pair reaches frequency 2, so no merges
    vocab = tok.train_bpe(["xyz"], 500)
    assert vocab.size == tok.NUM_SPECIALS + 4  # x, y, z, word-end marker
    assert vocab.merges == []


def test_every_token_occurs_in_training_corpus(mini_lines, mini_vocab):
    corpus_text = "\x00".join(
        "".join(sym for unit in tok._pretokenize(line) for sym in unit)
        for line in mini_lines)
    for token in mini_vocab.id_to_token[tok.NUM_SPECIALS:]:
        assert token in corpus_text


def test_every_merge_result_is_a_vocabulary_entry(mini_vocab):
    for a, b in mini_vocab.merges:
        assert a + b in mini_vocab.token_to_id


# words that start with a marker of the vocabulary file give tokens and merges that do too
MARKER_WORD_VOCABS = {"#MERGES": (["#MERGES x"] * 5 + ["ab cd"], 40),
                      "#PRETOKENIZE": (["#PRETOKENIZE x"] * 5 + ["ab cd"], 60)}


def test_vocab_file_round_trip(mini_vocab, tmp_path):
    vocabs = [mini_vocab]
    for marker, (corpus, size) in MARKER_WORD_VOCABS.items():
        vocabs.append(tok.train_bpe(corpus, size))
        assert marker in vocabs[-1].token_to_id and (marker, tok.WORD_END) in vocabs[-1].merges
    path = tmp_path / "vocab.txt"
    for vocab in vocabs:
        tok.save_vocab(vocab, path)
        loaded = tok.load_vocab(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.merges == vocab.merges


def test_vocab_file_is_line_per_token(mini_vocab, tmp_path):
    path = tmp_path / "vocab.txt"
    tok.save_vocab(mini_vocab, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    merge_at = lines.index("#MERGES")
    assert merge_at == mini_vocab.size
    assert lines[:5] == tok.SPECIAL_TOKENS
    assert lines[-1] == "#PRETOKENIZE whitespace"


def test_vocab_file_naming_another_mode_rejected(tmp_path):
    path = tmp_path / "vocab.txt"
    tok.save_vocab(tok.train_bpe(["ba lo ba lo"], 20), path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("#PRETOKENIZE whitespace", "#PRETOKENIZE character"),
                    encoding="utf-8")
    with pytest.raises(DataError, match="unknown pretokenize mode 'character'"):
        tok.load_vocab(path)


def test_vocab_file_merge_of_missing_token_rejected(tmp_path):
    path = tmp_path / "vocab.txt"
    vocab = tok.train_bpe(["ba lo ba lo"], 20)
    assert ("lo", "</w>") in vocab.merges
    tok.save_vocab(vocab, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines.remove("lo</w>")  # the merge lo + </w> now makes a string that is no token
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: merge 'lo' '</w>'")):
        tok.load_vocab(path)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_or_truncated_vocab_file_loads_or_raises_data_error(vocab_blob, tmp_path_factory,
                                                                     data):
    blob = bytearray(vocab_blob)
    if data.draw(st.booleans()):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    path = tmp_path_factory.getbasetemp() / "fuzzed_vocab.txt"
    path.write_bytes(bytes(blob))
    try:
        vocab = tok.load_vocab(path)
    except DataError:
        return
    tok.decode(tok.encode("ba lo mì", vocab).ids, vocab)  # a vocabulary that loads also works


@settings(deadline=None, max_examples=30)
@given(st.text(alphabet="abcde ", min_size=0, max_size=40))
def test_round_trip_property_within_alphabet(text):
    vocab = tok.train_bpe(["ab ab cde cde ea"], 30)
    assert tok.decode(tok.encode(text, vocab).ids, vocab) == tok.normalize_text(text)
