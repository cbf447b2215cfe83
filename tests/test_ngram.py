"""N-gram counting, extended PMI, pruning, and greedy span marking."""

import itertools
import math
import tempfile
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import table_entries, table_of
from oracles import oracle_mark, oracle_mined_table, oracle_ngram_counts, oracle_table_text
from ulrlab.corpus import UNK_ID, NUM_SPECIALS, SPECIAL_TOKENS, Vocabulary, build_vocabulary
from ulrlab.ngram import (
    PAD,
    NgramError,
    NgramTable,
    RawNgramCounts,
    Span,
    SpanAnnotation,
    build_table,
    count_ngrams,
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
    return {w: c for w, (c, _) in table_entries(build_table(counts)).items()}


def compute_pmi(w, counts):
    """The score of n-gram ``w`` in the unpruned table."""
    return table_entries(build_table(counts))[tuple(w)][1]


def raw_counts(ngrams, unigrams, n_max):
    """Counts of the ``{id tuple: count}`` n-grams and ``{id: count}`` unigrams."""
    table = table_of({w: (c, 0.0) for w, c in ngrams.items()}, n_max)
    uni = np.zeros(max(unigrams) + 1, dtype=np.int64)
    uni[list(unigrams)] = list(unigrams.values())
    return RawNgramCounts(table.grams, table.counts, uni)


IDS.update({t: i + NUM_SPECIALS + 10 for i, t in enumerate(["the", "cat", "sat", "ran"])})

# Small alphabets give n-grams repeated inside one document and exact pmi
# ties; documents of 0..9 tokens include ones shorter than n_max.
MAX_ALPHABET = 5
MINING_VOCAB = build_vocabulary(
    [tuple(f"t{i}" for i in range(MAX_ALPHABET))], min_count=1, max_size=50_000
)


def corpus_ids(size):
    """Token ids of an alphabet of ``size`` words, with UNK_ID as likely as each word."""
    return st.integers(NUM_SPECIALS - 1, NUM_SPECIALS + size - 1).map(
        lambda i: UNK_ID if i == NUM_SPECIALS - 1 else i
    )


@st.composite
def mining_inputs(draw):
    """Corpus, n_max, threshold, per-document K and count floor for one
    mining run."""
    size = draw(st.integers(min_value=2, max_value=MAX_ALPHABET))
    n_max = draw(st.integers(min_value=2, max_value=4))
    docs = draw(
        st.lists(st.lists(corpus_ids(size), max_size=9), min_size=1, max_size=6).filter(
            lambda d: any(d)
        )
    )
    threshold = draw(st.sampled_from([-math.inf, -0.3, 0.0, 0.2, math.inf]))
    per_doc_top_k = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    min_count = draw(st.integers(min_value=1, max_value=3))
    return docs, n_max, threshold, per_doc_top_k, min_count


@st.composite
def marking_inputs(draw):
    """Rows of lengths 2..n_max over a four-token alphabet, with every shorter
    prefix of the drawn full-length rows left out, and a sequence built of
    rows and loose tokens."""
    n_max = draw(st.integers(min_value=2, max_value=6))
    alphabet = st.integers(NUM_SPECIALS, NUM_SPECIALS + 3)
    grams = draw(st.sets(st.lists(alphabet, min_size=2, max_size=n_max).map(tuple), max_size=20))
    full = draw(st.sets(st.lists(alphabet, min_size=n_max, max_size=n_max).map(tuple),
                        max_size=3))
    grams = {g for g in grams if not any(f[: len(g)] == g for f in full)} | full
    pieces = st.lists(alphabet, max_size=3).map(tuple)
    if grams:
        pieces = pieces | st.sampled_from(sorted(grams))
    ids = draw(st.lists(pieces, max_size=12).map(lambda ps: sum(ps, ())))
    return {g: (1, 1.0) for g in sorted(grams)}, n_max, ids


def mine(docs, n_max, threshold, per_doc_top_k, min_count):
    table = build_table(count_ngrams([tuple(d) for d in docs], n_max, min_count))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty result warns
        return prune_table(table, pmi_threshold=threshold, per_doc_top_k=per_doc_top_k)


def zipf_documents(n_tokens, seed):
    """Seeded documents of 8..40 ids, Zipf-distributed (exponent 1.05) over
    2000 words."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(np.arange(1, 2001, dtype=np.float64) ** -1.05)
    ids = (np.searchsorted(cdf / cdf[-1], rng.random(n_tokens)) + NUM_SPECIALS).tolist()
    ends = np.cumsum(rng.integers(8, 41, size=n_tokens // 8))
    ends = [0, *ends[ends < n_tokens].tolist(), n_tokens]
    return [tuple(ids[a:b]) for a, b in zip(ends, ends[1:])]


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
        assert counts.unigrams.sum() == 4

    def test_unigram_counts_sum_to_total(self):
        rng = np.random.default_rng(7)
        seqs = [
            tuple(rng.integers(5, 25, size=rng.integers(1, 30)))
            for _ in range(20)
        ]
        counts = count_ngrams(seqs, n_max=4)
        assert counts.unigrams.sum() == sum(map(len, seqs))

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
        assert counts.unigrams.sum() == total
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

    def test_min_count_must_be_positive(self):
        (seq,) = seqs_from_texts(["a b"], IDS)
        with pytest.raises(NgramError, match="min_count must be >= 1, got 0"):
            count_ngrams([seq], n_max=2, min_count=0)

    @given(
        st.integers(2, MAX_ALPHABET).flatmap(
            lambda size: st.lists(st.lists(corpus_ids(size), max_size=12), min_size=1,
                                  max_size=6).filter(any)
        ),
        st.integers(2, 5),
        st.integers(1, 4),
    )
    @example([[5, 6, 5, 6, UNK_ID, 5, 6]], 3, 2)
    @settings(max_examples=300, deadline=None)
    def test_floor_equals_floor_one_filtered(self, docs, n_max, floor):
        """Floor f keeps exactly the floor-1 rows of count >= f: the same grams,
        counts, scores to the bit, canonical order, and occurrences; no row
        holds UNK_ID and no marked span covers one."""
        docs = [tuple(d) for d in docs]
        full = count_ngrams(docs, n_max)
        cut = count_ngrams(docs, n_max, min_count=floor)
        keep = full.counts >= floor
        assert cut.unigrams.tolist() == full.unigrams.tolist()
        assert cut.grams.tolist() == full.grams[keep].tolist()
        assert cut.counts.tolist() == full.counts[keep].tolist()
        row = np.cumsum(keep) - 1  # a floor-1 row's index among the kept rows
        full_docs, full_rows = full.occurrences
        hit = keep[full_rows]
        assert cut.occurrences[0].tolist() == full_docs[hit].tolist()
        assert cut.occurrences[1].tolist() == row[full_rows[hit]].tolist()
        full_table, table = build_table(full), build_table(cut)
        at_floor = full_table.counts >= floor
        assert table.grams.tolist() == full_table.grams[at_floor].tolist()
        assert table.pmi.view(np.int64).tolist() == full_table.pmi[at_floor].view(np.int64).tolist()
        assert not (cut.grams == UNK_ID).any()
        for seq in docs:
            for span in mark_sequence(seq, table).spans:
                assert UNK_ID not in seq[span.start - 1 : span.end]

    @pytest.mark.parametrize("docs, floor", [
        ([(UNK_ID,) * 4, (UNK_ID,)], 1),  # every token unknown
        ([(5, 6, 7), (7, 6, 5)], 2),  # no n-gram occurs twice
        ([(5, 6, 5, 6), (UNK_ID, 5)], 3),  # tokens reach the floor, n-grams do not
    ])
    def test_nothing_at_the_floor_gives_an_empty_count(self, docs, floor):
        counts = count_ngrams(docs, n_max=3, min_count=floor)
        assert counts.grams.shape == (0, 3) and len(counts.counts) == 0
        assert counts.unigrams.sum() == sum(map(len, docs))
        assert [len(a) for a in counts.occurrences] == [0, 0]
        with pytest.warns(UserWarning, match="empty n-gram table"):
            table = prune_table(build_table(counts), pmi_threshold=-math.inf, per_doc_top_k=3)
        assert len(table) == 0 and length_histogram(table, top_n=2000) == {}

    @given(
        st.integers(2, MAX_ALPHABET).flatmap(
            lambda size: st.lists(st.lists(corpus_ids(size), max_size=12), min_size=1,
                                  max_size=6).filter(any)
        ),
        st.integers(2, 14),
        st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle(self, docs, n_max, floor):
        """Grams, counts and unigrams equal the brute-force counter's, and the
        occurrences are the multiset of (document, n-gram) windows at the floor."""
        docs = [tuple(d) for d in docs]
        counts = count_ngrams(docs, n_max, min_count=floor)
        joint, single, total = oracle_ngram_counts(docs, n_max, floor)
        grams = [tuple(i for i in row if i != PAD) for row in counts.grams.tolist()]
        assert len(grams) == len(joint)
        assert dict(zip(grams, counts.counts.tolist())) == joint
        assert {i: c for i, c in enumerate(counts.unigrams.tolist()) if c} == single
        assert counts.unigrams.sum() == total
        assert counts.grams.shape[1] == min(n_max, max(2, *map(len, docs)))
        windows = Counter(
            (d, seq[i : i + n]) for d, seq in enumerate(docs) for n in range(2, n_max + 1)
            for i in range(len(seq) - n + 1) if seq[i : i + n] in joint
        )
        doc_ids, rows = counts.occurrences
        assert doc_ids.dtype == rows.dtype == np.int32
        assert Counter(zip(doc_ids.tolist(), [grams[r] for r in rows.tolist()])) == windows

    @pytest.mark.parametrize("floor", [1, 2])
    def test_n_max_past_the_longest_document(self, floor):
        """An n_max beyond the longest document counts as that length does:
        grams as wide as that document, the same occurrences and table bytes."""
        docs = [(5, 6, 7, 5, 6, 7, 5, 6), (6, 7, 5, 6, UNK_ID, 5, 6), (7, 5, 6, 7)]
        at_longest, past = count_ngrams(docs, 8, floor), count_ngrams(docs, 20000, floor)
        assert past.grams.shape == at_longest.grams.shape and past.grams.shape[1] == 8
        assert [a.tolist() for a in past.occurrences] == [
            a.tolist() for a in at_longest.occurrences
        ]
        assert (saved_text(build_table(past), MINING_VOCAB)
                == saved_text(build_table(at_longest), MINING_VOCAB))

    def test_peak_memory_per_token(self):
        """Counting 200k Zipf tokens at floor 5 peaks at 64 traced bytes per
        token or fewer: positions are int32 and no corpus-length int64 array
        outlives its length."""
        docs = zipf_documents(200_000, seed=3)
        tracemalloc.start()
        try:
            count_ngrams(docs, n_max=6, min_count=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 200_000 <= 64

    def test_two_to_the_31_positions_rejected(self):
        """Tokens plus one end per document must stay below 2^31, checked
        before any token is read."""

        class Unread:
            def __init__(self, length):
                self.length = length

            def __len__(self):
                return self.length

            def __iter__(self):
                raise AssertionError("tokens read before the size check")

        for docs in ([Unread(2**31 - 1)], [Unread(2**30), Unread(2**30 - 2)]):
            with pytest.raises(NgramError, match=r"reach 2\^31"):
                count_ngrams(docs, n_max=2)

    def test_n_max_must_cover_bigrams(self):
        (seq,) = seqs_from_texts(["a b"], IDS)
        with pytest.raises(NgramError):
            count_ngrams([seq], n_max=1)


class TestComputePmi:
    def test_independence_gives_zero(self):
        """When P(w) factorizes exactly, the score vanishes."""
        e, f = IDS["e"], IDS["f"]
        # Craft counts where P(ef) = P(e)P(f) exactly: 2/8 = (4/8)(4/8).
        counts = raw_counts({(e, f): 2}, {e: 4, f: 4}, n_max=2)
        pmi = compute_pmi((e, f), counts)
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
        """Multiplying every count, and so T, by k leaves PMI unchanged."""
        (seq,) = seqs_from_texts(["a b c a b"], IDS)
        counts = count_ngrams([seq], n_max=3)
        w = (IDS["a"], IDS["b"])
        base = compute_pmi(w, counts)
        counts = replace(counts, counts=counts.counts * k, unigrams=counts.unigrams * k)
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
    return table_of(dict(entries), n_max=n_max)._sorted()


class TestCanonicalOrder:
    @given(st.dictionaries(
        st.lists(st.integers(0, 3), min_size=2, max_size=4).map(tuple),
        st.tuples(st.integers(0, 3),
                  st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1.5, -2.0])),
        max_size=30,
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_python_sort(self, entries):
        """Pmi descending, count descending, ids ascending, also where
        -0.0 ties 0.0."""
        table = toy_table(entries, n_max=4)

        def rank(g):
            count, pmi = entries[g]
            return (-pmi, -count, g)

        assert list(table_entries(table)) == sorted(entries, key=rank)


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
        assert list(table_entries(pruned)) == [(5, 6)]

    def test_per_document_top_k_matches_sort_oracle(self):
        """Per-doc retention keeps exactly the k best by the stated order."""
        rng = np.random.default_rng(3)
        seqs = [
            tuple(rng.integers(5, 12, size=40)) for _ in range(4)
        ]
        counts = count_ngrams(seqs, n_max=3)
        table = build_table(counts)
        entries = table_entries(table)
        k = 5
        pruned = prune_table(table, pmi_threshold=-math.inf, per_doc_top_k=k)
        kept = set()
        for seq in seqs:
            present = set()
            for n in range(2, 4):
                for i in range(len(seq) - n + 1):
                    gram = seq[i : i + n]
                    if gram in entries:
                        present.add(gram)
            ranked = sorted(
                present,
                key=lambda g: (-entries[g][1], -entries[g][0], g),
            )
            kept.update(ranked[:k])
        assert set(table_entries(pruned)) == kept

    def test_output_is_subset_with_unchanged_entries(self):
        (seq,) = seqs_from_texts(["a b c a b c d e"], IDS)
        table = build_table(count_ngrams([seq], n_max=3))
        pruned = prune_table(table, pmi_threshold=0.0, per_doc_top_k=3)
        entries = table_entries(table)
        for gram, entry in table_entries(pruned).items():
            assert entries[gram] == entry


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

    @given(marking_inputs())
    @example(({(5, 6, 7, 8, 5, 6): (1, 1.0), (6, 7): (1, 1.0)}, 6, (5, 6, 7, 8, 5, 6, 7)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle_on_any_table(self, inputs):
        entries, n_max, ids = inputs
        table = table_of(entries, n_max)
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
            (ids[2], ids[3]): (2, -1.5),
        }
        table = toy_table(entries, n_max=3)
        path = tmp_path / "table.tsv"
        save_table(table, vocab, path)
        first = path.read_bytes()
        loaded = load_table(path, vocab)
        assert set(table_entries(loaded)) == set(entries)
        assert table_entries(loaded)[(ids[0], ids[1])][0] == 5
        save_table(loaded, vocab, path)
        assert path.read_bytes() == first

    def test_failed_save_keeps_the_earlier_file(self, tmp_path, vocab):
        ids = [vocab.id_of(t) for t in ("a", "b")]
        path = tmp_path / "table.tsv"
        save_table(toy_table({tuple(ids): (5, 1.25)}), vocab, path)
        before = path.read_bytes()
        # An id past the vocabulary fails after the header is written.
        message = f"token id {len(vocab)} outside a vocabulary of {len(vocab)}"
        with pytest.raises(IndexError, match=message):
            save_table(toy_table({(len(vocab), ids[0]): (1, 0.5)}), vocab, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["table.tsv"]

    @given(st.dictionaries(
        st.lists(st.integers(NUM_SPECIALS, NUM_SPECIALS + MAX_ALPHABET - 1), min_size=2,
                 max_size=4).map(tuple),
        st.tuples(st.integers(1, 5), st.sampled_from([-2.0, -0.0, 0.5, 1.0]),
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

    @pytest.mark.parametrize("count", [2**53 + 1, 2**62, 2**63 - 1])
    def test_huge_count_round_trips(self, vocab, count):
        text = f"tokens\tcount\tpmi\na b\t{count}\t1.5\nb c\t2\t0.5\nc d\t1\t-0.25\n"
        assert reloaded_text(text, vocab) == text

    @pytest.mark.parametrize("count", ["0", "-3", "100000000000000000000", "1.5"])
    def test_load_rejects_a_count_outside_one_to_two_to_the_63(self, tmp_path, vocab, count):
        path = tmp_path / "table.tsv"
        path.write_text(f"tokens\tcount\tpmi\nb c\t2\t0.5\na b\t{count}\t1.5\n")
        with pytest.raises(NgramError, match=r"table\.tsv:3: (count|bad count)"):
            load_table(path, vocab)

    @pytest.mark.parametrize("pmi", ["nan", "inf", "-inf", "1e999"])
    def test_load_rejects_a_non_finite_pmi(self, tmp_path, vocab, pmi):
        # Mining computes finite scores only, so such a row is not a saved table's.
        path = tmp_path / "table.tsv"
        path.write_text(f"tokens\tcount\tpmi\nb c\t2\t0.5\na b\t3\t{pmi}\n")
        with pytest.raises(NgramError, match=rf"table\.tsv:3: pmi '{pmi}' is not finite"):
            load_table(path, vocab)

    @pytest.mark.parametrize(
        "gram",
        ["b [UNK]", "[PAD] a", "a [MASK] b", "[CLS] a", "a [SEP]"],
        ids=["unk", "pad", "mask", "cls", "sep"],
    )
    def test_load_rejects_a_reserved_token(self, tmp_path, vocab, gram):
        # An old table's `b [UNK]` would mark `b` before any unknown word.
        path = tmp_path / "table.tsv"
        path.write_text(f"tokens\tcount\tpmi\nb c\t2\t0.5\n{gram}\t3\t0.25\n")
        with pytest.raises(NgramError, match=r"table\.tsv:3: n-gram .* reserved token"):
            load_table(path, vocab)

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
            assert loaded.n_max == max(map(len, table_entries(loaded))) == n_max
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

    @given(st.dictionaries(
        st.lists(st.integers(NUM_SPECIALS, NUM_SPECIALS + MAX_ALPHABET - 1), min_size=2,
                 max_size=4).map(tuple),
        st.tuples(st.integers(1, 2**63 - 1), st.floats(allow_nan=False, allow_infinity=False)),
        max_size=12,
    ))
    @example({(5, 6): (2**53 + 1, 0.5), (6, 7): (2**63 - 1, -1.0), (7, 5): (1, 0.0)})
    @settings(max_examples=200, deadline=None)
    def test_counts_and_bytes_survive_save_load_save(self, entries):
        table = table_of(entries, n_max=4)
        text = saved_text(table, MINING_VOCAB)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.tsv"
            path.write_text(text, encoding="utf-8")
            loaded = load_table(path, MINING_VOCAB)
        assert loaded.counts.dtype == np.int64
        assert loaded.counts.tolist() == [count for count, _ in entries.values()]
        assert saved_text(loaded, MINING_VOCAB) == text

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
EDGE_SCORES = [-0.0, 0.0, 1e-5, -1e-5, 1 / 3, 123456789.5, 5e-324]


def edge_table(n_rows, n_max, seed):
    """``n_rows`` n-grams of lengths 2..n_max over ODD_VOCAB, a fifth of them
    with an edge score."""
    rng = np.random.default_rng(seed)
    grams = rng.integers(0, len(ODD_VOCAB), size=(n_rows, n_max)).astype(np.int32)
    grams[np.arange(n_max) >= rng.integers(2, n_max + 1, size=(n_rows, 1))] = -1
    pmi = rng.normal(0.0, 3.0, size=n_rows)
    edge = rng.random(n_rows) < 0.2
    pmi[edge] = rng.choice(EDGE_SCORES, size=int(edge.sum()))
    return NgramTable(grams, rng.integers(1, 2**40, size=n_rows), pmi)


class TestTableWriter:
    """save_table's bytes against the per-row reference writer."""

    def test_chunk_boundary(self):
        table = edge_table(8195, n_max=6, seed=0)
        text = saved_text(table, ODD_VOCAB)
        assert text.count("\n") == 8196
        assert text == oracle_table_text(table, ODD_VOCAB)

    def test_edge_scores_counts_and_tokens(self):
        tok = {t: ODD_VOCAB.id_of(t) for t in ODD_TOKENS}
        entries = {
            (tok["%d%%"], tok["{"], tok["}"]): (3, -0.0),
            (tok["{0}"], tok["naïve"]): (7, 1e-5),
            (tok["東京"], tok["%(x)s"], tok["a"], tok["a"]): (2, -1e-5),
        }
        table = table_of(entries, n_max=4)
        text = saved_text(table, ODD_VOCAB)
        assert text.splitlines()[1:] == [
            "%d%% { }\t3\t-0", "{0} naïve\t7\t1e-05", "東京 %(x)s a a\t2\t-1e-05",
        ]
        assert text == oracle_table_text(table, ODD_VOCAB)
        assert reloaded_text(text, ODD_VOCAB) == text

    @pytest.mark.parametrize("pmi", [math.nan, math.inf, -math.inf])
    def test_writer_refuses_a_non_finite_score(self, tmp_path, pmi):
        tok = {t: ODD_VOCAB.id_of(t) for t in ODD_TOKENS}
        table = table_of({(tok["a"], tok["{0}"]): (3, 0.5), (tok["100%"], tok["%s"]): (1, pmi)}, 2)
        with pytest.raises(NgramError, match=rf"pmi {pmi} of n-gram '100% %s' is not finite"):
            save_table(table, ODD_VOCAB, tmp_path / "table.tsv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("token", ["nul\x00byte", "%" + "x" * 100_000])
    def test_unusual_token_round_trips(self, token):
        vocab = Vocabulary([*SPECIAL_TOKENS, token, "a"], [0] * NUM_SPECIALS + [1, 1])
        long_id, a = NUM_SPECIALS, NUM_SPECIALS + 1
        table = table_of(
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
        table = table_of({w: (k, k / 7) for k, w in enumerate(grams)}, 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.tsv"
            tracemalloc.start()
            try:
                save_table(table, vocab, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = path.stat().st_size
        assert size < 200_000
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
            loaded = table_entries(load_table(path, MINING_VOCAB))
        entries = table_entries(table)
        assert set(loaded) == set(entries)
        for w, (count, pmi) in entries.items():
            assert loaded[w][0] == count
            assert f"{loaded[w][1]:.9g}" == f"{pmi:.9g}"


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
