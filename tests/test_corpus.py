"""Tokenization, vocabulary construction, and id encoding."""

import collections
import os
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ulrlab.corpus import (
    CLS_ID,
    MASK_ID,
    NUM_SPECIALS,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    CorpusError,
    Vocabulary,
    atomic_open,
    build_vocabulary,
    encode,
    read_corpus,
    tokenize,
)


def make_documents(*texts):
    return [tokenize(t) for t in texts]


class TestTokenize:
    def test_lowercases_strips_punctuation_and_splits(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat"]

    def test_empty_input_yields_empty_sequence(self):
        assert tokenize("") == []
        assert tokenize("   \t ") == []

    def test_plain_sentence(self):
        assert tokenize("London is the capital of England") == [
            "london", "is", "the", "capital", "of", "england",
        ]

    def test_punctuation_only_tokens_vanish(self):
        assert tokenize("well -- yes!? (maybe)") == ["well", "yes", "maybe"]

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        """Re-tokenizing the joined output changes nothing."""
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestBuildVocabulary:
    def test_specials_occupy_first_five_ids(self):
        vocab = build_vocabulary(make_documents("a a a a a b"), min_count=1, max_size=10)
        for sid, token in enumerate(SPECIAL_TOKENS):
            assert vocab.tokens()[sid] == token
        assert (PAD_ID, UNK_ID, MASK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3, 4)
        assert NUM_SPECIALS == 5

    def test_min_count_threshold(self):
        vocab = build_vocabulary(make_documents("a a a b"), min_count=2, max_size=10)
        assert vocab.tokens() == list(SPECIAL_TOKENS) + ["a"]

    def test_max_size_lexicographic_tie_break(self):
        vocab = build_vocabulary(make_documents("a b a b a b"), min_count=1, max_size=6)
        assert vocab.tokens() == list(SPECIAL_TOKENS) + ["a"]

    def test_ranked_by_count_then_token(self):
        vocab = build_vocabulary(
            make_documents("c c c b b a a z"), min_count=1, max_size=20
        )
        assert vocab.tokens()[NUM_SPECIALS:] == ["c", "a", "b", "z"]

    def test_counts_match_independent_counter(self):
        """Vocabulary counts agree with a separately written tally."""
        rng = np.random.default_rng(42)
        words = [f"w{k}" for k in range(30)]
        texts = [
            " ".join(rng.choice(words, size=rng.integers(5, 40)))
            for _ in range(40)
        ]
        docs = make_documents(*texts)
        tally = {}
        for text in texts:
            for token in text.split():
                tally[token] = tally.get(token, 0) + 1
        vocab = build_vocabulary(docs, min_count=1, max_size=1000)
        for token, expected in tally.items():
            assert vocab._id_to_count[vocab.id_of(token)] == expected

    def test_empty_corpus_raises(self):
        with pytest.raises(CorpusError, match="empty corpus"):
            build_vocabulary(make_documents("", "  "), min_count=1, max_size=10)

    def test_deterministic_across_runs(self):
        docs = make_documents("b a c a b a", "c b c")
        first = build_vocabulary(docs, min_count=1, max_size=50)
        second = build_vocabulary(docs, min_count=1, max_size=50)
        assert first.tokens() == second.tokens()

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocabulary(
            make_documents("alpha beta alpha gamma"), min_count=1, max_size=20
        )
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens() == vocab.tokens()
        for tid in range(len(vocab)):
            assert loaded._id_to_count[tid] == vocab._id_to_count[tid]

    def test_load_rejects_scrambled_ids(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        lines = [f"{tok}\t{i}\t0" for i, tok in enumerate(SPECIAL_TOKENS)]
        lines.append("word\t9\t3")  # gap in the id sequence
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusError):
            Vocabulary.load(path)


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary(make_documents("a b c a b a"), min_count=1, max_size=20)

    def test_unknown_tokens_map_to_unk(self, vocab):
        seq = encode(["a", "zzz"], vocab)
        assert seq.ids == (vocab.id_of("a"), UNK_ID)

    def test_empty_sequence(self, vocab):
        assert encode([], vocab).ids == ()
        assert encode([], vocab).m == 0

    def test_roundtrip_for_in_vocabulary_tokens(self, vocab):
        tokens = ["b", "a", "c", "c"]
        assert [vocab.tokens()[i] for i in encode(tokens, vocab).ids] == tokens

    @given(st.lists(st.sampled_from(["a", "b", "c", "oov"]), max_size=30))
    def test_length_preserved(self, tokens):
        vocab = build_vocabulary(make_documents("a b c a b a"), min_count=1, max_size=20)
        assert encode(tokens, vocab).m == len(tokens)


class TestReadCorpus:
    def test_one_document_per_line_blank_skipped(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("First doc here.\n\n  \nSecond DOC\n", encoding="utf-8")
        docs = list(read_corpus(path))
        assert [list(tokens) for tokens in docs] == [
            ["first", "doc", "here"],
            ["second", "doc"],
        ]

    def test_tokens_contain_no_punctuation_characters(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a,b.c  (d) e!\n", encoding="utf-8")
        (tokens,) = read_corpus(path)
        stripped = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
        for token in tokens:
            assert token
            assert not (set(token) & stripped)


class TestAtomicOpen:
    def test_symlink_keeps_its_link_and_replaces_its_target(self, tmp_path):
        (tmp_path / "real.txt").write_text("old")
        (tmp_path / "link.txt").symlink_to("real.txt")
        with atomic_open(tmp_path / "link.txt") as fh:
            fh.write("new")
        assert (tmp_path / "link.txt").is_symlink()
        assert (tmp_path / "real.txt").read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    def test_pipe_is_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(pipe.read_text()), daemon=True
        )
        reader.start()
        with atomic_open(pipe) as fh:
            fh.write("through the pipe")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ["through the pipe"] and pipe.is_fifo()
