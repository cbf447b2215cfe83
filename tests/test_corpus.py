"""Tokenization, vocabulary construction, and id encoding."""

import collections
import os
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import table_entries
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
from ulrlab.evaluation import (
    read_analogy_file,
    read_retrieval_corpus,
    read_retrieval_queries,
    read_word_vectors,
)
from ulrlab.ngram import NgramError, load_table


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


SPECIAL_ROWS = [(tok, 0) for tok in SPECIAL_TOKENS]
BAD_VOCABULARIES = {
    "missing reserved token": SPECIAL_ROWS[:-1] + [("word", 3)],
    "reserved tokens reordered": [SPECIAL_ROWS[1], SPECIAL_ROWS[0], *SPECIAL_ROWS[2:]],
    "reserved token not first": [("word", 3), *SPECIAL_ROWS],
    "duplicate token": SPECIAL_ROWS + [("word", 3), ("other", 2), ("word", 1)],
}


def write_vocabulary_rows(path, rows):
    path.write_text("".join(f"{tok}\t{i}\t{count}\n" for i, (tok, count) in enumerate(rows)))


class TestVocabularyChecks:
    @pytest.mark.parametrize("case", sorted(BAD_VOCABULARIES))
    def test_constructor_rejects(self, case):
        rows = BAD_VOCABULARIES[case]
        with pytest.raises(CorpusError, match="duplicate.*'word'|reserved tokens"):
            Vocabulary([tok for tok, _ in rows], [count for _, count in rows])

    @pytest.mark.parametrize("case", sorted(BAD_VOCABULARIES))
    def test_load_rejects_naming_the_file(self, tmp_path, case):
        path = tmp_path / "vocab.tsv"
        write_vocabulary_rows(path, BAD_VOCABULARIES[case])
        with pytest.raises(CorpusError, match=r"vocab\.tsv: .*(duplicate|reserved tokens)"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("row", ["word\t5", "word\t5\t3\textra", "word"])
    def test_load_rejects_malformed_row(self, tmp_path, row):
        path = tmp_path / "vocab.tsv"
        write_vocabulary_rows(path, SPECIAL_ROWS)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(CorpusError, match=r"vocab\.tsv:6: malformed vocabulary row"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("row", ["word\tfive\t3", "word\t5\t3.5", "word\t5\t"])
    def test_load_names_file_and_line_of_a_bad_number(self, tmp_path, row):
        path = tmp_path / "vocab.tsv"
        write_vocabulary_rows(path, SPECIAL_ROWS)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(CorpusError, match=r"vocab\.tsv:6: id and count must be integers"):
            Vocabulary.load(path)


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary(make_documents("a b c a b a"), min_count=1, max_size=20)

    def test_unknown_tokens_map_to_unk(self, vocab):
        seq = encode(["a", "zzz"], vocab)
        assert seq == (vocab.id_of("a"), UNK_ID)

    def test_empty_sequence(self, vocab):
        assert encode([], vocab) == ()
        assert len(encode([], vocab)) == 0

    def test_roundtrip_for_in_vocabulary_tokens(self, vocab):
        tokens = ["b", "a", "c", "c"]
        assert [vocab.tokens()[i] for i in encode(tokens, vocab)] == tokens

    @given(st.lists(st.sampled_from(["a", "b", "c", "oov"]), max_size=30))
    def test_length_preserved(self, tokens):
        vocab = build_vocabulary(make_documents("a b c a b a"), min_count=1, max_size=20)
        assert len(encode(tokens, vocab)) == len(tokens)

    @given(st.lists(st.sampled_from(["a", "b", "c", "oov", "", SPECIAL_TOKENS[1]]) | st.text(),
                    max_size=30))
    def test_equals_id_of_per_token(self, tokens):
        vocab = build_vocabulary(make_documents("a b c a b a"), min_count=1, max_size=20)
        assert encode(tokens, vocab) == tuple(vocab.id_of(t) for t in tokens)


class TestReadCorpus:
    def test_one_document_per_line_blank_skipped(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("First doc here.\n\n  \nSecond DOC\n", encoding="utf-8")
        docs = list(read_corpus(path))
        assert [list(tokens) for tokens in docs] == [
            ["first", "doc", "here"],
            ["second", "doc"],
        ]

    def test_equal_tokens_share_one_string(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("red fox\nthe red dog\n", encoding="utf-8")
        first, second = read_corpus(path)
        assert first[0] is second[1]

    def test_tokens_contain_no_punctuation_characters(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a,b.c  (d) e!\n", encoding="utf-8")
        (tokens,) = read_corpus(path)
        stripped = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
        for token in tokens:
            assert token
            assert not (set(token) & stripped)


READ_VOCAB = Vocabulary([*SPECIAL_TOKENS, "red", "fox"], [0] * NUM_SPECIALS + [2, 1])

# Every reader that goes through read_lines: (read, good rows, a bad row or None
# if the reader accepts any line, the reader's error class, a comparable view).
READERS = {
    "vocabulary": (
        Vocabulary.load, [f"{t}\t{i}\t0" for i, t in enumerate(READ_VOCAB.tokens())],
        "blue\t7", CorpusError, Vocabulary.tokens,
    ),
    "corpus": (read_corpus, ["Red fox.", "fox"], None, None, None),
    "table": (
        lambda path: load_table(path, READ_VOCAB), ["tokens\tcount\tpmi", "red fox\t2\t1.5"],
        "fox red\t2\tx", NgramError, table_entries,
    ),
    "word vectors": (
        read_word_vectors, ["red 1 2", "fox 3 4"], "blue 1", ValueError,
        lambda vectors: {t: v.tolist() for t, v in vectors.items()},
    ),
    "analogy": (read_analogy_file, ["cat\ta\tb\tc\tx|y\t1"], "cat\ta\tb", ValueError, None),
    "retrieval corpus": (read_retrieval_corpus, ["d0\tred", "d1\tfox"], "d0\tx", ValueError, None),
    "retrieval queries": (
        lambda path: read_retrieval_queries(path, ["d0"]), ["red\td0"], "fox\td7", ValueError, None,
    ),
}


@pytest.mark.parametrize("case", sorted(READERS))
def test_reader_skips_whitespace_lines_and_names_a_bad_row(tmp_path, case):
    read, rows, bad, error, view = READERS[case]
    view = view or list
    plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
    plain.write_text("\n".join(rows) + "\n", encoding="utf-8")
    spaced.write_text("\n".join([rows[0], " \t ", *rows[1:]]) + "\n", encoding="utf-8")
    assert view(read(spaced)) == view(read(plain))
    if bad is not None:
        spaced.write_text(spaced.read_text(encoding="utf-8") + bad + "\n", encoding="utf-8")
        with pytest.raises(error, match=rf"spaced\.txt:{len(rows) + 2}: ") as info:
            read(spaced)
        assert type(info.value) is error


@pytest.mark.parametrize("case", sorted(READERS))
def test_reader_names_the_line_that_is_not_utf8(tmp_path, case):
    read, rows, _, _, view = READERS[case]
    view = view or list
    lf, mixed = tmp_path / "lf.txt", tmp_path / "mixed.txt"
    lf.write_text("\n".join(rows) + "\n", encoding="utf-8")
    # A lone CR and a CRLF end lines as a LF does, in the reader and in its line count.
    mixed.write_bytes(("\r".join(rows) + "\r\n").encode("utf-8"))
    assert view(read(mixed)) == view(read(lf))
    mixed.write_bytes(mixed.read_bytes() + b"x \xff\xfe\n")
    bad_line = rf"mixed\.txt:{len(rows) + 1}: .* byte 0xff in position 2"
    with pytest.raises(UnicodeError, match=bad_line):
        read(mixed)


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
