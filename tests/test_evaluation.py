"""Analogy answering, embedders, retrieval, BM25 and the file formats."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import write_analogy_file, write_word_vectors
from oracles import oracle_bm25
from ulrlab.corpus import build_vocabulary
from ulrlab.encoder import EncoderConfig, Model, save_checkpoint
from ulrlab.evaluation import (
    EMBED_BATCH,
    AnalogyQuestion,
    CategoryResult,
    ModelEmbedder,
    RetrievalSet,
    WordVectorEmbedder,
    answer_analogy,
    bm25_rank,
    bm25_scores,
    embed_corpus,
    evaluate_analogy,
    is_syntactic,
    read_analogy_file,
    read_retrieval_corpus,
    read_retrieval_queries,
    read_word_vectors,
    retrieve_topk,
    topk_accuracy,
    topk_accuracy_by_group,
)


class DictEmbedder:
    """Test double: whole texts map straight to fixed vectors."""

    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def embed_many(self, texts):
        return np.stack([self.table[text] for text in texts])


def oracle_answer(question, embedder):
    """Independent cosine ranking: explicit loops, no shared code path."""
    def unit(v):
        v = [float(x) for x in v]
        n = math.sqrt(sum(x * x for x in v))
        return [x / n for x in v]

    def embed(text):
        return embedder.embed_many([text])[0]

    va = unit(embed(question.a))
    vb = unit(embed(question.b))
    vc = unit(embed(question.c))
    target = [c + b - a for a, b, c in zip(va, vb, vc)]
    best_idx, best_cos = 0, -math.inf
    tnorm = math.sqrt(sum(x * x for x in target))
    for idx, cand in enumerate(question.candidates):
        vd = unit(embed(cand))
        cos = sum(t * d for t, d in zip(target, vd)) / tnorm
        if cos > best_cos + 1e-12:
            best_idx, best_cos = idx, cos
    return best_idx


class TestAnalogyQuestion:
    def test_rejects_duplicate_candidates(self):
        with pytest.raises(ValueError, match="distinct"):
            AnalogyQuestion("cat", "a", "b", "c", ("x", "x"), 0)

    def test_rejects_bad_answer_index(self):
        with pytest.raises(ValueError, match="answer_index"):
            AnalogyQuestion("cat", "a", "b", "c", ("x", "y"), 2)

    def test_rejects_empty_candidates(self):
        with pytest.raises(ValueError, match="non-empty"):
            AnalogyQuestion("cat", "a", "b", "c", (), 0)


class TestIsSyntactic:
    def test_named_categories(self):
        assert is_syntactic("present-participle")
        assert is_syntactic("positive-comparative")
        assert is_syntactic("positive-negative")
        assert is_syntactic("gram1-adjective-to-adverb")

    def test_semantic_categories(self):
        assert not is_syntactic("capital-common-countries")
        assert not is_syntactic("male-female")


class TestAnswerAnalogy:
    def test_kinship_fixture(self):
        emb = DictEmbedder(
            {
                "boy": (1.0, 0.0, 0.0),
                "girl": (0.0, 1.0, 0.0),
                "brother": (1.0, 0.0, 1.0),
                "sister": (0.0, 1.0, 1.0),
                "dog": (1.0, 0.0, 0.0),
                "car": (0.0, 0.0, 1.0),
            }
        )
        q = AnalogyQuestion(
            "male-female", "boy", "girl", "brother", ("sister", "dog", "car"), 0
        )
        assert answer_analogy(q, emb) == 0

    def test_exact_arithmetic_in_orthogonal_basis(self):
        e = np.eye(4)
        emb = DictEmbedder(
            {"a": e[0], "b": e[1], "c": e[2], "good": e[2] + e[1] - e[0], "bad": e[3]}
        )
        # target = c + b - a exactly equals the gold candidate.
        q = AnalogyQuestion("t", "a", "b", "c", ("bad", "good"), 1)
        assert answer_analogy(q, emb) == 1

    def test_tie_breaks_to_lowest_index(self):
        emb = DictEmbedder(
            {"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (1.0, 0.0),
             "d1": (0.0, 2.0), "d2": (0.0, 3.0), "d3": (1.0, 0.0)}
        )
        # d1 and d2 normalize to the same vector: identical cosines.
        q = AnalogyQuestion("t", "a", "b", "c", ("d3", "d1", "d2"), 1)
        assert answer_analogy(q, emb) == 1

    def test_zero_target_warns_and_returns_zero(self):
        emb = DictEmbedder(
            {
                "a": (0.5, math.sqrt(3) / 2),
                "b": (-0.5, math.sqrt(3) / 2),
                "c": (1.0, 0.0),
                "d1": (0.0, 1.0),
                "d2": (1.0, 1.0),
            }
        )
        q = AnalogyQuestion("t", "a", "b", "c", ("d2", "d1"), 0)
        with pytest.warns(UserWarning, match="degenerate zero target"):
            assert answer_analogy(q, emb) == 0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(40)]
        emb = DictEmbedder({w: rng.normal(size=8) for w in vocab})
        for _ in range(200):
            picks = rng.choice(40, size=8, replace=False)
            a, b, c, *cands = (vocab[i] for i in picks)
            q = AnalogyQuestion("t", a, b, c, tuple(cands), 0)
            assert answer_analogy(q, emb) == oracle_answer(q, emb)


class TestEvaluateAnalogy:
    def perfect_questions(self):
        e = np.eye(6)
        emb = DictEmbedder(
            {
                "a": e[0], "b": e[1], "c": e[2],
                "gold": e[2] + e[1] - e[0],
                "x1": e[3], "x2": e[4], "x3": e[5],
            }
        )
        qs = [
            AnalogyQuestion("capital-common", "a", "b", "c", ("gold", "x1", "x2"), 0),
            AnalogyQuestion("capital-common", "a", "b", "c", ("x1", "gold", "x2"), 1),
            AnalogyQuestion("gram1-adj", "a", "b", "c", ("x2", "x3", "gold"), 2),
        ]
        return qs, emb

    def test_perfect_embedder_scores_100(self):
        qs, emb = self.perfect_questions()
        report = evaluate_analogy(qs, emb)
        assert report.semantic == CategoryResult(2, 2)
        assert report.syntactic == CategoryResult(1, 1)
        assert report.average == 1.0

    def test_recount_matches_per_question_loop(self):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(30)]
        emb = DictEmbedder({w: rng.normal(size=6) for w in vocab})
        qs = []
        for i in range(60):
            picks = rng.choice(30, size=7, replace=False)
            a, b, c, *cands = (vocab[j] for j in picks)
            cat = ["capital-common", "male-female", "gram2-opposite"][i % 3]
            qs.append(AnalogyQuestion(cat, a, b, c, tuple(cands), int(rng.integers(4))))
        report = evaluate_analogy(qs, emb)
        manual = {}
        for q in qs:
            c, t = manual.setdefault(q.category, [0, 0])
            manual[q.category] = [c + (answer_analogy(q, emb) == q.answer_index), t + 1]
        for cat, (c, t) in manual.items():
            assert report.per_category[cat] == CategoryResult(c, t)
        sem = [v for k, v in manual.items() if not is_syntactic(k)]
        assert report.semantic.total == sum(t for _, t in sem)

    def test_random_embedder_near_chance(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(50)]
        emb = DictEmbedder({w: rng.normal(size=16) for w in vocab})
        qs = []
        for _ in range(1000):
            picks = rng.choice(50, size=8, replace=False)
            a, b, c, *cands = (vocab[j] for j in picks)
            qs.append(AnalogyQuestion("t", a, b, c, tuple(cands), int(rng.integers(5))))
        acc = evaluate_analogy(qs, emb).per_category["t"].accuracy
        sigma = math.sqrt(0.2 * 0.8 / 1000)
        assert abs(acc - 0.2) < 4 * sigma

    def test_missing_side_is_none_and_average_uses_other(self):
        qs, emb = self.perfect_questions()
        sem_only = [q for q in qs if q.category == "capital-common"]
        report = evaluate_analogy(sem_only, emb)
        assert report.syntactic is None
        assert report.average == report.semantic.accuracy

    def test_no_questions_average_none(self):
        report = evaluate_analogy([], DictEmbedder({}))
        assert report.average is None and report.per_category == {}

    def test_candidate_permutation_preserves_correctness(self):
        qs, emb = self.perfect_questions()
        for q in qs:
            perm = tuple(reversed(q.candidates))
            moved = AnalogyQuestion(
                q.category, q.a, q.b, q.c, perm, perm.index(q.candidates[q.answer_index])
            )
            assert answer_analogy(moved, emb) == moved.answer_index


class TestWordVectorEmbedder:
    def test_averages_known_tokens(self):
        emb = WordVectorEmbedder({"red": (1.0, 0.0), "fox": (0.0, 1.0)})
        got = embed_corpus(["the red fox"], emb)[0]  # "the" unknown, skipped
        np.testing.assert_allclose(got, np.array([1.0, 1.0]) / math.sqrt(2))

    def test_word_order_does_not_change_bits(self):
        # 1e16 + 1 rounds to 1e16: summed in text order, "big one neg"
        # would point along (0, 1) and "big neg one" along (1, 1).
        emb = WordVectorEmbedder({
            "big": (1e16, 0.0), "neg": (-1e16, 0.0), "one": (1.0, 1.0),
            "x": (1.0, 0.0), "x2": (1.0, 0.0), "y": (0.0, 1.0),
        })
        rows = emb.embed_many(["big neg one", "big one neg", "one neg big"])
        assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[0], rows[2])
        # The same bag gives the same cosine, so the tie goes to the lowest index.
        q = AnalogyQuestion("t", "x", "y", "x2", ("big neg one", "big one neg"), 0)
        assert answer_analogy(q, emb) == 0

    def test_unit_norm_output(self):
        emb = WordVectorEmbedder({"a": (3.0, 4.0)})
        assert np.linalg.norm(embed_corpus(["a"], emb)[0]) == pytest.approx(1.0)

    def test_empty_text_rejected(self):
        emb = WordVectorEmbedder({"a": (1.0, 0.0)})
        with pytest.raises(ValueError, match="empty text"):
            emb.embed_many(["   "])

    def test_no_known_tokens_rejected(self):
        emb = WordVectorEmbedder({"a": (1.0, 0.0)})
        with pytest.raises(ValueError, match="no known tokens"):
            emb.embed_many(["b c d"])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            WordVectorEmbedder({"a": (1.0, 0.0), "b": (1.0, 0.0, 0.0)})


@pytest.fixture(scope="module")
def model_embedder(tmp_path_factory):
    cfg = EncoderConfig(
        vocab_size=30, d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=16,
        dropout=0.0, seed=5,
    )
    model = Model.init(cfg)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(model.params, cfg, path)
    tokens = [f"t{i}" for i in range(25)]
    vocab = build_vocabulary([tokens], min_count=1, max_size=30)
    return ModelEmbedder.from_checkpoint(path, vocab, pooling="mean"), tokens


class TestModelEmbedder:
    def test_unit_norm_and_determinism(self, model_embedder):
        emb, tokens = model_embedder
        v1 = embed_corpus(["t0 t1 t2"], emb)[0]
        v2 = embed_corpus(["t0 t1 t2"], emb)[0]
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)
        assert np.array_equal(v1, v2)

    def test_batch_matches_singletons(self, model_embedder):
        emb, tokens = model_embedder
        texts = ["t0 t1", "t2 t3 t4 t5", "t6"]
        batch = emb.embed_many(texts)
        for i, t in enumerate(texts):
            np.testing.assert_allclose(batch[i], emb.embed_many([t])[0], atol=1e-6)

    def test_truncation_warns(self, model_embedder):
        emb, tokens = model_embedder
        long_text = " ".join(tokens[0:1] * 40)
        with pytest.warns(UserWarning, match="truncating"):
            vec = embed_corpus([long_text], emb)[0]
        want = embed_corpus([" ".join(tokens[0:1] * 14)], emb)[0]
        np.testing.assert_allclose(vec, want, atol=1e-6)

    def test_empty_text_rejected(self, model_embedder):
        emb, _ = model_embedder
        with pytest.raises(ValueError, match="empty text"):
            emb.embed_many([""])

    def test_unknown_pooling_rejected(self, model_embedder):
        emb, _ = model_embedder
        with pytest.raises(ValueError, match="pooling"):
            ModelEmbedder(emb.model, emb.vocab, pooling="sum")

    @settings(max_examples=30, deadline=None)
    @given(
        pooling=st.sampled_from(["cls", "mean", "max"]),
        lengths=st.lists(
            st.integers(1, 20), min_size=EMBED_BATCH + 1, max_size=2 * EMBED_BATCH + 3
        ),
        seed=st.integers(0, 2**16),
    )
    def test_padding_and_chunks_do_not_change_rows(self, model_embedder, pooling, lengths, seed):
        base, tokens = model_embedder
        emb = ModelEmbedder(base.model, base.vocab, pooling=pooling)
        rng = np.random.default_rng(seed)
        texts = [" ".join(rng.choice(tokens, size=n)) for n in lengths]
        limit = emb.model.config.max_len - 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = embed_corpus(texts, emb)
            singles = np.stack([embed_corpus([t], emb)[0] for t in texts])
        truncated = any("truncating" in str(w.message) for w in caught)
        assert truncated == (max(lengths) > limit)
        np.testing.assert_allclose(batch, singles, atol=1e-6)


class TestEmbedCorpus:
    def test_rows_match_embedder(self):
        emb = WordVectorEmbedder({"a": (1.0, 2.0), "b": (0.0, 1.0)})
        mat = embed_corpus(["a", "b", "a b"], emb)
        assert mat.shape == (3, 2)
        raw = emb.embed_many(["a"])[0]
        np.testing.assert_allclose(mat[0], raw / np.linalg.norm(raw))
        np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-12)

    def test_identical_texts_identical_rows(self):
        emb = WordVectorEmbedder({"a": (1.0, 2.0)})
        mat = embed_corpus(["a", "a"], emb)
        assert np.array_equal(mat[0], mat[1])

    def test_empty_text_names_index(self):
        emb = WordVectorEmbedder({"a": (1.0, 2.0)})
        with pytest.raises(ValueError, match="index 1"):
            embed_corpus(["a", "  ", "a"], emb)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            embed_corpus([], WordVectorEmbedder({"a": (1.0,)}))

    def test_degenerate_row_names_index(self):
        emb = WordVectorEmbedder({"a": (1.0, 2.0), "z": (0.0, 0.0)})
        with pytest.raises(ValueError, match="degenerate embedding .*index 1"):
            embed_corpus(["a", "z"], emb)


class TestRetrieveTopk:
    def test_self_retrieval(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(20, 8))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        for i in range(20):
            assert retrieve_topk(mat[i], mat, 1) == [i]

    def test_zero_scores_fall_back_to_id_order(self):
        corpus = np.eye(4)[:3]  # three orthogonal docs
        query = np.array([0.0, 0.0, 0.0, 1.0])  # orthogonal to all
        assert retrieve_topk(query, corpus, 3) == [0, 1, 2]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(30, 6))
        for _ in range(100):
            q = rng.normal(size=6)
            got = retrieve_topk(q, mat, 30)
            # Independent oracle via per-document cosine and stable sort.
            cosines = []
            for i in range(30):
                dot = float(np.dot(q, mat[i]))
                cos = dot / (np.linalg.norm(q) * np.linalg.norm(mat[i]))
                cosines.append(cos)
            want = sorted(range(30), key=lambda i: (-cosines[i], i))
            assert got == pytest.approx(want)

    def test_prefix_consistency(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(15, 4))
        q = rng.normal(size=4)
        full = retrieve_topk(q, mat, 15)
        for k in (1, 5, 10):
            assert retrieve_topk(q, mat, k) == full[:k]

    def test_string_ids(self):
        mat = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = retrieve_topk(np.array([1.0, 0.1]), mat, 2, ids=["doc-a", "doc-b"])
        assert got == ["doc-a", "doc-b"]

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            retrieve_topk(np.ones(2), np.ones((3, 2)), 4)


class TestTopkAccuracy:
    def test_rank_fixture(self):
        rankings = [[3, 1, 2, 0]]
        gold = [{2}]
        acc = topk_accuracy(rankings, gold, ks=(1, 2, 3, 4))
        assert acc == {1: 0.0, 2: 0.0, 3: 1.0, 4: 1.0}

    def test_ten_query_fixture(self):
        # Gold lands at rank i+1 for query i.
        rankings = [list(range(i, i + 10)) for i in range(10)]
        gold = [{2 * i} for i in range(10)]
        acc = topk_accuracy(rankings, gold, ks=(1, 5, 10))
        # gold 2i sits at position i in ranking i (0-based) when i <= 9.
        assert acc[1] == 0.1   # only query 0 has gold first
        assert acc[5] == 0.5
        assert acc[10] == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        rankings = [list(rng.permutation(20)) for _ in range(50)]
        gold = [{int(rng.integers(20))} for _ in range(50)]
        acc = topk_accuracy(rankings, gold, ks=range(1, 21))
        values = [acc[k] for k in range(1, 21)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_missing_gold_rejected(self):
        with pytest.raises(ValueError, match="missing gold"):
            topk_accuracy([[1]], [set()], (1,))
        with pytest.raises(ValueError, match="missing gold"):
            topk_accuracy([[1], [2]], [{1}], (1,))

    def test_by_group(self):
        rankings = [[0, 1], [1, 0], [0, 1], [1, 0]]
        gold = [{0}, {0}, {1}, {1}]
        groups = ["short", "short", "long", "long"]
        out = topk_accuracy_by_group(rankings, gold, groups, ks=(1,))
        assert out == {"short": {1: 0.5}, "long": {1: 0.5}}


class TestBm25:
    DOCS = [["a", "b", "a"], ["b", "c"]]

    def test_hand_computed_fixture(self):
        # N=2, avg_len=2.5.  Term "a": df=1, idf=ln 2; doc 0 tf=2, len 3.
        scores = bm25_scores([["a"]], self.DOCS)[0]
        denom = 2 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2.5)
        want0 = math.log(2.0) * 2 * 2.2 / denom
        np.testing.assert_allclose(scores, [want0, 0.0], atol=1e-9)

    def test_shared_term_prefers_shorter_doc(self):
        # "b" occurs once in both docs; the shorter doc scores higher.
        scores = bm25_scores([["b"]], self.DOCS)[0]
        idf_b = math.log(1 + 0.5 / 2.5)
        want0 = idf_b * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 3 / 2.5))
        want1 = idf_b * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 2 / 2.5))
        np.testing.assert_allclose(scores, [want0, want1], atol=1e-9)
        assert bm25_rank([["b"]], self.DOCS, [0, 1]) == [[1, 0]]

    def test_repeated_query_terms_double(self):
        once = bm25_scores([["b"]], self.DOCS)[0]
        twice = bm25_scores([["b", "b"]], self.DOCS)[0]
        np.testing.assert_allclose(twice, 2 * once, atol=1e-12)

    def test_absent_term_and_empty_query(self):
        np.testing.assert_array_equal(bm25_scores([["zzz"]], self.DOCS)[0], [0.0, 0.0])
        assert bm25_rank([[]], self.DOCS, [0, 1]) == [[0, 1]]
        assert bm25_rank([["zzz"]], self.DOCS, ids=["d1", "d0"]) == [["d0", "d1"]]

    def test_idf_nonnegative_even_for_ubiquitous_terms(self):
        docs = [["x"], ["x"], ["x"]]
        scores = bm25_scores([["x"]], docs)[0]
        assert np.all(scores > 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            bm25_scores([["a"]], [])

    def test_string_query_rejected(self):
        # A string is a sequence of one-letter tokens: the query "ab" would
        # silently score as the query "a", "b".
        with pytest.raises(TypeError, match="query 0 is a string"):
            bm25_scores(["ab"], self.DOCS)

    @settings(max_examples=200, deadline=None)
    @given(
        corpus=st.lists(
            st.lists(st.sampled_from("abcde"), max_size=6), min_size=1, max_size=8
        ),
        queries=st.lists(
            st.lists(st.sampled_from("abcdexy"), max_size=5), min_size=1, max_size=5
        ),
        k1=st.floats(0.0, 3.0),
        b=st.floats(0.0, 1.0),
    )
    def test_batch_equals_scalar_oracle(self, corpus, queries, k1, b):
        want = np.stack([oracle_bm25(q, corpus, k1, b) for q in queries])
        assert np.array_equal(bm25_scores(queries, corpus, k1, b), want)


class TestRetrievalSet:
    def test_valid_set(self):
        rs = RetrievalSet(
            corpus=(("d0", "alpha"), ("d1", "beta")),
            queries=(("alpha?", frozenset({"d0"})),),
        )
        assert rs.queries[0][1] == {"d0"}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RetrievalSet(corpus=(("d0", "x"), ("d0", "y")), queries=())

    def test_missing_gold_rejected(self):
        with pytest.raises(ValueError, match="missing gold set for query 0"):
            RetrievalSet(corpus=(("d0", "x"),), queries=(("q", frozenset()),))

    def test_unknown_gold_rejected(self):
        with pytest.raises(ValueError, match="unknown gold"):
            RetrievalSet(corpus=(("d0", "x"),), queries=(("q", frozenset({"d9"})),))


class TestFileFormats:
    def test_analogy_roundtrip(self, tmp_path):
        qs = [
            AnalogyQuestion("cap", "athens greece", "b", "c", ("x", "y z"), 1),
            AnalogyQuestion("gram1", "a", "b", "c", ("p", "q", "r"), 0),
        ]
        path = tmp_path / "qs.tsv"
        write_analogy_file(qs, path)
        assert read_analogy_file(path) == qs

    def test_analogy_bad_field_count(self, tmp_path):
        path = tmp_path / "qs.tsv"
        path.write_text("cap\ta\tb\tc\n")
        with pytest.raises(ValueError, match="6 tab-separated"):
            read_analogy_file(path)

    def test_retrieval_files(self, tmp_path):
        cpath = tmp_path / "corpus.tsv"
        cpath.write_text("d0\talpha beta\n\nd1\tgamma\n")
        assert read_retrieval_corpus(cpath) == [("d0", "alpha beta"), ("d1", "gamma")]
        qpath = tmp_path / "queries.tsv"
        qpath.write_text("alpha?\td0,d1\ngamma?\td1\n")
        got = read_retrieval_queries(qpath)
        assert got == [("alpha?", frozenset({"d0", "d1"})), ("gamma?", frozenset({"d1"}))]

    def test_word_vectors_roundtrip(self, tmp_path):
        vecs = {"red": np.array([0.5, -0.25]), "fox": np.array([1.0, 2.0])}
        path = tmp_path / "vecs.txt"
        write_word_vectors(vecs, path)
        back = read_word_vectors(path)
        assert list(back) == ["red", "fox"]
        np.testing.assert_allclose(back["red"], vecs["red"])

    def test_word_vectors_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0\na 2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_word_vectors(path)

    def test_word_vectors_ragged_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(ValueError, match="dimension"):
            read_word_vectors(path)
