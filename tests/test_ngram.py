"""N-gram counting, extended PMI, pruning, and greedy span marking."""

import itertools
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import oracle_mark, oracle_mined_table, oracle_table_text
from ulrlab.corpus import UNK_ID, NUM_SPECIALS, SPECIAL_TOKENS, Vocabulary, build_vocabulary
from ulrlab.ngram import (
    _SAVE_CHUNK,
    NgramError,
    NgramTable,
    Span,
    SpanAnnotation,
    build_table,
    count_ngrams,
    inject_entities,
    length_histogram,
    load_table,
    mark_sequence,
    prune_table,
    save_table,
    _exact_log,
)


def seqs_from_texts(texts, token_ids):
    """Encode whitespace token strings through an explicit id map."""
    return [
        tuple(token_ids[t] for t in text.split())
        for text in texts
    ]


IDS = {t: i + NUM_SPECIALS for i, t in enumerate("abcdefghij")}


def ngram_counts(counts):
    """``{id tuple: count}`` of every counted n-gram, from the unpruned table."""
    return {w: c for w, (c, _) in build_table(counts).entries.items()}


def compute_pmi(w, counts):
    """The score of n-gram ``w`` in the unpruned table."""
    return build_table(counts).entries[tuple(w)][1]


def privileged(table):
    return {w for w, flag in zip(table.entries, table.is_privileged.tolist()) if flag}
IDS.update({t: i + NUM_SPECIALS + 10 for i, t in enumerate(["the", "cat", "sat", "ran"])})

# Small alphabets give n-grams repeated inside one document and exact pmi
# ties; documents of 0..9 tokens include ones shorter than n_max.
MAX_ALPHABET = 5
MINING_VOCAB = build_vocabulary(
    [tuple(f"t{i}" for i in range(MAX_ALPHABET))], min_count=1, max_size=50_000
)


@st.composite
def mining_inputs(draw):
    """Corpus, n_max, threshold, per-document K and entities for one mining run."""
    size = draw(st.integers(min_value=2, max_value=MAX_ALPHABET))
    ids = st.integers(min_value=NUM_SPECIALS, max_value=NUM_SPECIALS + size - 1)
    n_max = draw(st.integers(min_value=2, max_value=4))
    docs = draw(
        st.lists(st.lists(ids, max_size=9), min_size=1, max_size=6).filter(
            lambda d: any(d)
        )
    )
    entities = draw(st.lists(st.lists(ids, min_size=2, max_size=n_max), max_size=3))
    threshold = draw(st.sampled_from([-math.inf, -0.3, 0.0, 0.2, math.inf]))
    per_doc_top_k = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    return docs, n_max, threshold, per_doc_top_k, [tuple(e) for e in entities]


def mine(docs, n_max, threshold, per_doc_top_k, entities):
    table = build_table(count_ngrams([tuple(d) for d in docs], n_max))
    table = inject_entities(table, entities)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty result warns
        return prune_table(table, pmi_threshold=threshold, per_doc_top_k=per_doc_top_k)


def saved_text(table, vocab):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.tsv"
        save_table(table, vocab, path)
        return path.read_text(encoding="utf-8")


def reloaded_text(text, vocab):
    """``text`` loaded as a table and saved again."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.tsv"
        path.write_text(text, encoding="utf-8")
        return saved_text(load_table(path, vocab), vocab)


class TestCountNgrams:
    def test_direct_count_fixture(self):
        (seq,) = seqs_from_texts(["a b a b"], IDS)
        counts = count_ngrams([seq], n_max=2)
        a, b = IDS["a"], IDS["b"]
        assert counts.unigrams[a] == 2
        assert counts.unigrams[b] == 2
        assert ngram_counts(counts)[(a, b)] == 2
        assert ngram_counts(counts)[(b, a)] == 1
        assert counts.total_tokens == 4

    def test_unigram_counts_sum_to_total(self):
        rng = np.random.default_rng(7)
        seqs = [
            tuple(rng.integers(5, 25, size=rng.integers(1, 30)))
            for _ in range(20)
        ]
        counts = count_ngrams(seqs, n_max=4)
        assert sum(counts.unigrams.values()) == counts.total_tokens

    def test_matches_nested_loop_counter(self):
        """Counts equal a brute-force sliding-window recount."""
        rng = np.random.default_rng(11)
        seqs = [
            tuple(rng.integers(5, 15, size=rng.integers(2, 60)))
            for _ in range(30)
        ]
        n_max = 4
        counts = count_ngrams(seqs, n_max=n_max)
        expected = {}
        total = 0
        for ids in seqs:
            total += len(ids)
            for n in range(1, n_max + 1):
                for i in range(len(ids) - n + 1):
                    gram = ids[i : i + n]
                    expected[gram] = expected.get(gram, 0) + 1
        assert counts.total_tokens == total
        ngrams = ngram_counts(counts)
        for gram, count in expected.items():
            if len(gram) == 1:
                assert counts.unigrams[gram[0]] == count, gram
            else:
                assert ngrams[gram] == count, gram
        assert sum(ngrams.values()) == sum(
            c for g, c in expected.items() if len(g) > 1
        )

    def test_empty_corpus_raises(self):
        with pytest.raises(NgramError, match="empty corpus"):
            count_ngrams([()], n_max=2)

    def test_n_max_must_cover_bigrams(self):
        (seq,) = seqs_from_texts(["a b"], IDS)
        with pytest.raises(NgramError):
            count_ngrams([seq], n_max=1)


class TestComputePmi:
    def test_independence_gives_zero(self):
        """When P(w) factorizes exactly, the score vanishes."""
        (seq,) = seqs_from_texts(["a b a c a b a c"], IDS)
        counts = count_ngrams([seq], n_max=2)
        # Craft counts where P(ef) = P(e)P(f) exactly: 2/8 = (4/8)(4/8).
        counts = replace(
            counts,
            grams=np.vstack([counts.grams, [(IDS["e"], IDS["f"])]]),
            counts=np.append(counts.counts, 2),
            unigrams={**counts.unigrams, IDS["e"]: 4, IDS["f"]: 4},
        )
        pmi = compute_pmi((IDS["e"], IDS["f"]), counts)
        assert pmi == pytest.approx(0.0, abs=1e-12)

    def test_half_ln_two_fixture(self):
        (seq,) = seqs_from_texts(["a b a b"], IDS)
        counts = count_ngrams([seq], n_max=2)
        pmi = compute_pmi((IDS["a"], IDS["b"]), counts)
        assert pmi == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_half_ln_three_fixture(self):
        (seq,) = seqs_from_texts(["the cat sat the cat ran"], IDS)
        counts = count_ngrams([seq], n_max=2)
        pmi = compute_pmi((IDS["the"], IDS["cat"]), counts)
        assert pmi == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    @given(st.integers(min_value=2, max_value=50))
    def test_invariant_under_count_scaling(self, k):
        """Multiplying every count and T by k leaves PMI unchanged."""
        (seq,) = seqs_from_texts(["a b c a b"], IDS)
        counts = count_ngrams([seq], n_max=3)
        w = (IDS["a"], IDS["b"])
        base = compute_pmi(w, counts)
        counts = replace(
            counts,
            counts=counts.counts * k,
            unigrams={gram: c * k for gram, c in counts.unigrams.items()},
            total_tokens=counts.total_tokens * k,
        )
        assert compute_pmi(w, counts) == pytest.approx(base, abs=1e-12)

    def test_strictly_increasing_in_joint_count(self):
        (seq,) = seqs_from_texts(["a b a b a b a a"], IDS)
        counts = count_ngrams([seq], n_max=2)
        w = (IDS["a"], IDS["b"])
        values = []
        row = (counts.grams == w).all(axis=1)
        for joint in (1, 2, 3):
            joint_counts = replace(counts, counts=np.where(row, joint, counts.counts))
            values.append(compute_pmi(w, joint_counts))
        assert values[0] < values[1] < values[2]


class TestExactLog:
    # Many values below 300 are found by a bincount; a few large ones by np.unique.
    @given(st.lists(st.integers(1, 300), max_size=400)
           | st.lists(st.integers(1, 300) | st.integers(2**31, 2**62), max_size=60))
    @example([1])
    @example([1, 2**31, 2**31 + 1, 2**62])
    @example(list(range(300, 0, -3)) * 2)
    @settings(max_examples=300, deadline=None)
    def test_equals_math_log_elementwise(self, values):
        got = _exact_log(np.array(values, dtype=np.int64))
        assert got.dtype == np.float64 and got.shape == (len(values),)
        assert got.tolist() == [math.log(v) for v in values]


def toy_table(entries, n_max=3):
    """A table of ``entries`` in the canonical order."""
    return NgramTable.from_entries(dict(entries), n_max=n_max)._sorted()


class TestCanonicalOrder:
    @given(st.dictionaries(
        st.lists(st.integers(0, 3), min_size=2, max_size=4).map(tuple),
        st.tuples(st.integers(0, 3),
                  st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5, -2.0])),
        max_size=30,
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_python_sort(self, entries):
        """NaN first, then pmi descending, count descending, ids ascending,
        also where a NaN score ties pmi +inf and -0.0 ties 0.0."""
        table = toy_table(entries, n_max=4)._in_order()

        def rank(g):
            count, pmi = entries[g]
            return (0, 0.0, -count, g) if math.isnan(pmi) else (1, -pmi, -count, g)

        assert list(table.entries) == sorted(entries, key=rank)


class TestPruneTable:
    def test_infinite_threshold_empties_table(self):
        (seq,) = seqs_from_texts(["a b a b c d"], IDS)
        table = build_table(count_ngrams([seq], n_max=2))
        with pytest.warns(UserWarning):
            pruned = prune_table(table, pmi_threshold=math.inf, per_doc_top_k=None)
        assert len(pruned) == 0

    def test_threshold_is_strict(self):
        entries = {(5, 6): (3, 0.5), (6, 7): (2, 0.0)}
        pruned = prune_table(toy_table(entries), pmi_threshold=0.0, per_doc_top_k=None)
        assert (5, 6) in pruned.entries and (6, 7) not in pruned.entries

    def test_per_document_top_k_matches_sort_oracle(self):
        """Per-doc retention keeps exactly the k best by the stated order."""
        rng = np.random.default_rng(3)
        seqs = [
            tuple(rng.integers(5, 12, size=40)) for _ in range(4)
        ]
        counts = count_ngrams(seqs, n_max=3)
        table = build_table(counts)
        k = 5
        pruned = prune_table(table, pmi_threshold=-math.inf, per_doc_top_k=k)
        kept = set()
        for seq in seqs:
            present = set()
            for n in range(2, 4):
                for i in range(len(seq) - n + 1):
                    gram = seq[i : i + n]
                    if gram in table.entries:
                        present.add(gram)
            ranked = sorted(
                present,
                key=lambda g: (-table.entries[g][1], -table.entries[g][0], g),
            )
            kept.update(ranked[:k])
        assert set(pruned.entries) == kept

    def test_output_is_subset_with_unchanged_entries(self):
        (seq,) = seqs_from_texts(["a b c a b c d e"], IDS)
        table = build_table(count_ngrams([seq], n_max=3))
        pruned = prune_table(table, pmi_threshold=0.0, per_doc_top_k=3)
        for gram, entry in pruned.entries.items():
            assert table.entries[gram] == entry


class TestInjectEntities:
    def test_inject_into_empty_table(self):
        table = inject_entities(toy_table({}), [(7, 8)])
        assert (7, 8) in table.entries
        assert (7, 8) in privileged(table)

    def test_duplicate_injection_is_idempotent(self):
        table = inject_entities(toy_table({}), [(7, 8)])
        snapshot = dict(table.entries)
        table = inject_entities(table, [(7, 8)])
        assert table.entries == snapshot

    def test_entity_survives_infinite_threshold(self):
        (seq,) = seqs_from_texts(["a b a b"], IDS)
        table = build_table(count_ngrams([seq], n_max=2))
        table = inject_entities(table, [(IDS["a"], IDS["b"])])
        pruned = prune_table(table, pmi_threshold=math.inf, per_doc_top_k=None)
        assert (IDS["a"], IDS["b"]) in pruned.entries

    def test_bad_length_skipped_with_warning(self):
        table = toy_table({}, n_max=3)
        with pytest.warns(UserWarning):
            inject_entities(table, [(5,), (5, 6, 7, 8)])
        assert len(table) == 0


class TestMarkSequence:
    def test_longest_match_wins(self):
        ids = (IDS["a"], IDS["b"], IDS["c"])
        table = toy_table({(IDS["a"], IDS["b"], IDS["c"]): (2, 1.0),
                           (IDS["a"], IDS["b"]): (3, 2.0)})
        ann = mark_sequence(ids, table)
        assert ann.spans == (Span(1, 3),)

    def test_non_overlap(self):
        a, b, c = IDS["a"], IDS["b"], IDS["c"]
        table = toy_table({(a, b): (2, 1.0), (b, c): (2, 1.0)})
        ann = mark_sequence((a, b, b, c), table)
        assert ann.spans == (Span(1, 2), Span(3, 4))

    def test_no_match_yields_empty_annotation(self):
        table = toy_table({})
        ann = mark_sequence((5, 6, 7), table)
        assert ann.spans == ()

    def test_matches_interval_scan_oracle(self):
        """Greedy annotation equals an oracle built from the full interval set."""
        rng = np.random.default_rng(19)
        grams = set()
        while len(grams) < 60:
            n = int(rng.integers(2, 5))
            grams.add(tuple(int(x) for x in rng.integers(5, 13, size=n)))
        table = toy_table({g: (1, 1.0) for g in grams}, n_max=4)
        for _ in range(200):
            ids = tuple(int(x) for x in rng.integers(5, 13, size=50))
            assert mark_sequence(ids, table).spans == oracle_mark(ids, table)


class TestSpanTypes:
    def test_span_length(self):
        assert Span(2, 4).length == 3

    def test_annotation_rejects_overlap(self):
        with pytest.raises(NgramError):
            SpanAnnotation(spans=(Span(1, 3), Span(3, 5)))

    def test_annotation_rejects_unsorted(self):
        with pytest.raises(NgramError):
            SpanAnnotation(spans=(Span(4, 5), Span(1, 2)))

    def test_annotation_rejects_singleton_span(self):
        with pytest.raises(NgramError):
            SpanAnnotation(spans=(Span(2, 2),))


class TestTableIO:
    @pytest.fixture
    def vocab(self):
        from ulrlab.corpus import build_vocabulary, tokenize

        text = "a b c d e the cat sat " * 6
        docs = [tokenize(text)]
        return build_vocabulary(docs, min_count=1, max_size=100)

    def test_roundtrip_and_stable_bytes(self, tmp_path, vocab):
        ids = [vocab.id_of(t) for t in ("a", "b", "c", "d")]
        entries = {
            (ids[0], ids[1]): (5, 1.25),
            (ids[1], ids[2], ids[3]): (2, 0.333333333),
            (ids[2], ids[3]): (2, float("nan")),
        }
        table = toy_table(entries, n_max=3)
        path = tmp_path / "table.tsv"
        save_table(table, vocab, path)
        first = path.read_bytes()
        loaded = load_table(path, vocab)
        assert set(loaded.entries) == set(entries)
        assert privileged(loaded) == {(ids[2], ids[3])}
        assert loaded.entries[(ids[0], ids[1])][0] == 5
        save_table(loaded, vocab, path)
        assert path.read_bytes() == first

    def test_failed_save_keeps_the_earlier_file(self, tmp_path, vocab):
        ids = [vocab.id_of(t) for t in ("a", "b")]
        path = tmp_path / "table.tsv"
        save_table(toy_table({tuple(ids): (5, 1.25)}), vocab, path)
        before = path.read_bytes()
        # An id past the vocabulary fails after the header is written.
        with pytest.raises(IndexError):
            save_table(toy_table({(len(vocab), ids[0]): (1, 0.5)}), vocab, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["table.tsv"]

    @given(st.dictionaries(
        st.lists(st.integers(NUM_SPECIALS, NUM_SPECIALS + MAX_ALPHABET - 1), min_size=2,
                 max_size=4).map(tuple),
        st.tuples(st.integers(0, 5), st.sampled_from([-2.0, 0.5, 1.0, math.nan]),
                  st.integers(0, 50)),
        max_size=12,
    ))
    # Both scores print as 1; a reload that re-sorted put the count-2 row first.
    @example({(5, 6): (1, 1.0, 12), (6, 7): (2, 1.0, 11)})
    @settings(max_examples=200, deadline=None)
    def test_save_load_save_is_byte_identical(self, rows):
        # Scores 1e-11 apart print alike at 9 digits: near ties everywhere.
        entries = {w: (count, base + 1e-11 * k) for w, (count, base, k) in rows.items()}
        text = saved_text(toy_table(entries, n_max=4), MINING_VOCAB)
        assert reloaded_text(text, MINING_VOCAB) == text

    def test_header_and_sort_order(self, tmp_path, vocab):
        ids = [vocab.id_of(t) for t in ("a", "b", "c")]
        entries = {(ids[0], ids[1]): (5, 0.5), (ids[1], ids[2]): (9, 2.0)}
        path = tmp_path / "table.tsv"
        save_table(toy_table(entries), vocab, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tokens\tcount\tpmi"
        assert lines[1].startswith("b c\t9\t")  # higher pmi first

    def test_load_rejects_token_outside_vocabulary(self, tmp_path, vocab):
        path = tmp_path / "table.tsv"
        path.write_text("tokens\tcount\tpmi\na b\t3\t1.5\nzzz qqq\t1\t0.5\n")
        with pytest.raises(NgramError, match=r"table\.tsv:3: .*zzz"):
            load_table(path, vocab)

    @pytest.mark.parametrize("row", ["a b\tthree\t1.5", "a b\t3.0\t1.5", "a b\t3\thigh"])
    def test_load_names_file_and_line_of_a_bad_number(self, tmp_path, vocab, row):
        path = tmp_path / "table.tsv"
        path.write_text(f"tokens\tcount\tpmi\nb c\t2\t0.5\n{row}\n")
        with pytest.raises(NgramError, match=r"table\.tsv:3: bad count or pmi"):
            load_table(path, vocab)

    @pytest.mark.parametrize("count", [-3, 2**62])
    def test_negative_or_huge_count_round_trips(self, vocab, count):
        text = f"tokens\tcount\tpmi\na b\t{count}\t1.5\nb c\t2\t0.5\nc d\t0\tnan\n"
        assert reloaded_text(text, vocab) == text

    def test_load_accepts_saved_unk(self, tmp_path, vocab):
        path = tmp_path / "table.tsv"
        path.write_text("tokens\tcount\tpmi\n[UNK] cat\t2\t0.5\n")
        loaded = load_table(path, vocab)
        assert set(loaded.entries) == {(UNK_ID, vocab.id_of("cat"))}

    def test_loaded_n_max_is_longest_entry(self, tmp_path, vocab):
        rng = np.random.default_rng(5)
        path = tmp_path / "table.tsv"
        for n_max in (2, 3, 4):
            seqs = [
                tuple(int(x) for x in rng.integers(5, 9, size=12))
                for _ in range(6)
            ]
            table = prune_table(
                build_table(count_ngrams(seqs, n_max)), pmi_threshold=-math.inf, per_doc_top_k=None
            )
            save_table(table, vocab, path)
            loaded = load_table(path, vocab)
            assert loaded.n_max == max(map(len, loaded.entries)) == n_max
            for _ in range(50):
                ids = tuple(int(x) for x in rng.integers(5, 9, size=20))
                assert mark_sequence(ids, loaded).spans == oracle_mark(ids, loaded)

    def test_load_rejects_a_repeated_ngram(self, tmp_path, vocab):
        seqs = [tuple(vocab.id_of(t) for t in "the cat sat a b the cat sat c d".split())]
        table = build_table(count_ngrams(seqs, 3))
        path = tmp_path / "t.tsv"
        save_table(table, vocab, path)
        text = path.read_text()
        save_table(load_table(path, vocab), vocab, path)
        assert path.read_text() == text
        (row,) = [line for line in text.splitlines() if line.startswith("the cat\t")]
        gram, _, pmi = row.split("\t")
        path.write_text(f"{text}{gram}\t99\t{pmi}\n")
        line = len(text.splitlines()) + 1
        with pytest.raises(NgramError, match=rf"t\.tsv:{line}: duplicate n-gram 'the cat'"):
            load_table(path, vocab)

    @pytest.mark.parametrize("row", ["red\t2\t1.5", "cat\t2\t1.5", "\t2\t1.5"])
    def test_load_rejects_a_one_token_row(self, tmp_path, vocab, row):
        path = tmp_path / "table.tsv"
        path.write_text(f"tokens\tcount\tpmi\nb c\t2\t0.5\n{row}\n")
        with pytest.raises(NgramError, match=r"table\.tsv:3: n-gram .* fewer than 2 tokens"):
            load_table(path, vocab)

    def test_load_rejects_bad_header(self, tmp_path, vocab):
        path = tmp_path / "table.tsv"
        path.write_text("nope\n")
        with pytest.raises(NgramError):
            load_table(path, vocab)


# Tokens the writer must copy as they are: format directives, braces and
# characters outside ASCII.
ODD_TOKENS = ["100%", "%s", "%d%%", "%(x)s", "{", "{0}", "}", "naïve", "東京", "a"]
ODD_VOCAB = Vocabulary(
    [*SPECIAL_TOKENS, *ODD_TOKENS], [0] * len(SPECIAL_TOKENS) + [1] * len(ODD_TOKENS)
)
EDGE_SCORES = [math.nan, -0.0, 0.0, 1e-5, -1e-5, 1 / 3, 123456789.5, 5e-324, math.inf]


def edge_table(n_rows, n_max, seed):
    """``n_rows`` n-grams of lengths 2..n_max over ODD_VOCAB, a fifth of them
    with an edge score; NaN rows are entities with count 0."""
    rng = np.random.default_rng(seed)
    grams = rng.integers(0, len(ODD_VOCAB), size=(n_rows, n_max)).astype(np.int32)
    grams[np.arange(n_max) >= rng.integers(2, n_max + 1, size=(n_rows, 1))] = -1
    pmi = rng.normal(0.0, 3.0, size=n_rows)
    edge = rng.random(n_rows) < 0.2
    pmi[edge] = rng.choice(EDGE_SCORES, size=int(edge.sum()))
    counts = np.where(np.isnan(pmi), 0, rng.integers(1, 2**40, size=n_rows))
    return NgramTable(grams, counts, pmi, np.isnan(pmi), n_max)


class TestTableWriter:
    """save_table's bytes against the per-row reference writer."""

    def test_chunk_boundary(self):
        table = edge_table(_SAVE_CHUNK + 3, n_max=6, seed=0)
        text = saved_text(table, ODD_VOCAB)
        assert text.count("\n") == _SAVE_CHUNK + 4
        assert text == oracle_table_text(table, ODD_VOCAB)

    def test_edge_scores_counts_and_tokens(self):
        tok = {t: ODD_VOCAB.id_of(t) for t in ODD_TOKENS}
        entries = {
            (tok["100%"], tok["%s"]): (0, math.nan),
            (tok["%d%%"], tok["{"], tok["}"]): (3, -0.0),
            (tok["{0}"], tok["naïve"]): (7, 1e-5),
            (tok["東京"], tok["%(x)s"], tok["a"], tok["a"]): (2, -1e-5),
        }
        table = NgramTable.from_entries(entries, n_max=4)
        text = saved_text(table, ODD_VOCAB)
        assert text.splitlines()[1:] == [
            "100% %s\t0\tnan", "%d%% { }\t3\t-0", "{0} naïve\t7\t1e-05",
            "東京 %(x)s a a\t2\t-1e-05",
        ]
        assert text == oracle_table_text(table, ODD_VOCAB)
        assert reloaded_text(text, ODD_VOCAB) == text

    @pytest.mark.parametrize("token", ["nul\x00byte", "%" + "x" * 100_000])
    def test_unusual_token_round_trips(self, token):
        vocab = Vocabulary([*SPECIAL_TOKENS, token, "a"], [0] * NUM_SPECIALS + [1, 1])
        long_id, a = NUM_SPECIALS, NUM_SPECIALS + 1
        table = NgramTable.from_entries(
            {(a, long_id): (2, 0.5), (long_id, a, long_id): (1, -1.25), (a, a): (3, 2.0)}, 3
        )
        text = saved_text(table, vocab)
        assert text == oracle_table_text(table, vocab)
        assert reloaded_text(text, vocab) == text

    def test_memory_follows_output_bytes_not_the_longest_token(self):
        # One row holds a 100 kB token; a writer that padded every token of a
        # chunk to the longest one's width would take rows x 100 kB.
        short = list("abcdef")
        vocab = Vocabulary([*SPECIAL_TOKENS, "x" * 100_000, *short],
                           [0] * NUM_SPECIALS + [1] * (1 + len(short)))
        ids = range(NUM_SPECIALS + 1, len(vocab))
        grams = list(itertools.product(ids, repeat=3))[:200] + [(NUM_SPECIALS, ids[0])]
        table = NgramTable.from_entries({w: (k, k / 7) for k, w in enumerate(grams)}, 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.tsv"
            tracemalloc.start()
            try:
                save_table(table, vocab, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = path.stat().st_size
        assert len(table) < _SAVE_CHUNK and size < 200_000
        assert peak < 32 * size

    @given(st.integers(0, 40), st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_row_writer(self, n_rows, n_max, seed):
        table = edge_table(n_rows, n_max, seed)
        assert saved_text(table, ODD_VOCAB) == oracle_table_text(table, ODD_VOCAB)


class TestMinedTableOracle:
    @given(mining_inputs(), st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
    @settings(max_examples=300, deadline=None)
    def test_saved_text_and_histogram_match_brute_force(self, inputs, top_n):
        table = mine(*inputs)
        text, hist = oracle_mined_table(*inputs, MINING_VOCAB.tokens(), top_n)
        assert saved_text(table, MINING_VOCAB) == text
        assert length_histogram(table, top_n=top_n) == hist

    @given(mining_inputs())
    @settings(max_examples=150, deadline=None)
    def test_save_load_round_trip(self, inputs):
        table = mine(*inputs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.tsv"
            save_table(table, MINING_VOCAB, path)
            loaded = load_table(path, MINING_VOCAB)
        assert set(loaded.entries) == set(table.entries)
        for w, (count, pmi) in table.entries.items():
            assert loaded.entries[w][0] == count
            assert f"{loaded.entries[w][1]:.9g}" == f"{pmi:.9g}"
        unseen = {w for w in privileged(table) if math.isnan(table.entries[w][1])}
        assert unseen <= privileged(loaded)
        # The one loss of the file format, by name.
        lost_flags = privileged(table) - privileged(loaded)
        assert lost_flags == {w for w in privileged(table) if not math.isnan(table.entries[w][1])}


class TestLengthHistogram:
    def test_counts_lengths_of_top_entries(self):
        entries = {
            (5, 6): (4, 3.0),
            (6, 7): (4, 2.5),
            (5, 6, 7): (2, 2.0),
            (7, 8): (2, 0.5),
        }
        hist = length_histogram(toy_table(entries), top_n=3)
        assert hist == {2: 2, 3: 1}

    def test_no_limit_counts_everything(self):
        entries = {(5, 6): (1, 1.0), (5, 6, 7, 8): (1, 0.5)}
        hist = length_histogram(toy_table(entries, n_max=4))
        assert hist == {2: 1, 4: 1}
