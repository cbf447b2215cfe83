"""Analogy and retrieval evaluation for sequence embedders.

Analogy questions A : B :: C : ? are answered by vector arithmetic:
the candidate maximizing cosine(c + b - a, d) wins.  The same machinery
evaluates words, phrases, and sentences — an embedder maps texts to
raw vectors, whether it averages static word vectors or pools
transformer states, and :func:`embed_corpus` unit-normalizes them.  A text
is a tuple of tokens: the file readers tokenize each text once, and
nothing after them tokenizes it again.  Retrieval ranks a corpus by cosine
against a batch of queries and scores Top-k accuracy, with an Okapi BM25
baseline for a non-embedding reference point.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Protocol, Sequence

import numpy as np

from .corpus import Vocabulary, encode, frame, read_lines, tokenize
from .encoder import (
    POOLING_STRATEGIES, Model, forward, group_views, load_checkpoint, pack, pool, truncate,
)

_EPS = 1e-12

#: Most texts per packed forward pass in :meth:`ModelEmbedder.embed_many`, so
#: a pass holds at most 16 x ``max_len`` rows.  The ``eval`` benchmark's four
#: stage processes peak (``VmHWM``) at 35.9-39.4 MB with it, and at 64-67 MB
#: with one pass over all their texts.
EMBED_BATCH = 16

#: Categories scored on the syntactic side of the report; everything
#: else (and any ``gram*`` prefix, for externally formatted files)
#: counts as semantic unless listed here.
SYNTACTIC_CATEGORIES = frozenset(
    {"present-participle", "positive-comparative", "positive-negative"}
)


#: A text as the readers keep it: its tokens after :func:`tokenize`, in order.
Tokens = tuple[str, ...]


class Embedder(Protocol):
    def embed_many(self, texts: Sequence[Tokens]) -> np.ndarray:
        """Raw (n, d) vectors, one row per token tuple; :func:`embed_corpus` normalizes."""


def is_syntactic(category: str) -> bool:
    return category in SYNTACTIC_CATEGORIES or category.startswith("gram")


@dataclass(frozen=True)
class AnalogyQuestion:
    """A : B :: C : ? with a closed candidate list; every text is a token tuple."""

    category: str
    a: Tokens
    b: Tokens
    c: Tokens
    candidates: tuple[Tokens, ...]
    answer_index: int

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise ValueError("candidates must be non-empty")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidates must be distinct")
        if not 0 <= self.answer_index < len(self.candidates):
            raise ValueError(
                f"answer_index {self.answer_index} outside candidates "
                f"(n={len(self.candidates)})"
            )


# ---------------------------------------------------------------------------
# embedders


class WordVectorEmbedder:
    """Bag-of-words baseline: average static word vectors.

    Tokens missing from the vector table are skipped; a text with no
    known tokens cannot be embedded.  Vectors are summed in sorted token
    order, so texts with the same bag of words embed to the same bits and
    their ties fall to the tie rules, not to rounding.
    """

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        if not vectors:
            raise ValueError("empty word-vector table")
        self._vectors: dict[str, np.ndarray] = {}
        dim = None
        for token, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"vector for {token!r} is not 1-d")
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise ValueError(
                    f"vector for {token!r} has dimension {arr.shape[0]}, expected {dim}"
                )
            self._vectors[token] = arr

    def embed_many(self, texts: Sequence[Tokens]) -> np.ndarray:
        rows = []
        for tokens in texts:
            known = [self._vectors[t] for t in sorted(tokens) if t in self._vectors]
            if not known:
                raise ValueError(f"no known tokens in text {' '.join(tokens)!r}")
            rows.append(np.mean(known, axis=0))
        return np.stack(rows)


class ModelEmbedder:
    """Embed texts with an encoder checkpoint and a pooling strategy.

    Token tuples are encoded with the supplied vocabulary, cut to fit the
    model's maximum length (:func:`truncate`) and framed.  Each distinct
    framed sequence is encoded and pooled once: sorted by length,
    :data:`EMBED_BATCH` at a time go through one packed pass (:func:`pack`)
    of unpadded groups of one length each, so attention, layer norm and
    pooling reduce over its own tokens alone and its vector does not depend
    on the rest of the call.
    """

    def __init__(self, model: Model, vocab: Vocabulary, pooling: str):
        if pooling not in POOLING_STRATEGIES:
            raise ValueError(
                f"unknown pooling strategy {pooling!r}; expected one of {POOLING_STRATEGIES}"
            )
        if len(vocab) != model.config.vocab_size:
            raise ValueError(
                f"vocabulary has {len(vocab)} tokens but the checkpoint was trained "
                f"on {model.config.vocab_size}"
            )
        self.model = model
        self.vocab = vocab
        self.pooling = pooling

    @classmethod
    def from_checkpoint(cls, path: str | Path, vocab: Vocabulary, pooling: str) -> "ModelEmbedder":
        return cls(load_checkpoint(path), vocab, pooling)

    def embed_many(self, texts: Sequence[Tokens]) -> np.ndarray:
        ids = [encode(t, self.vocab) for t in texts]
        framed = [frame(seq) for seq in truncate(ids, self.model.config.max_len)]
        # Sorted by length, so each pass's groups' rows run through ``distinct`` in order.
        distinct = sorted(dict.fromkeys(framed), key=len)
        row_of = {seq: i for i, seq in enumerate(distinct)}
        params, config = self.model.params, self.model.config
        pooled = []
        for i in range(0, len(distinct), EMBED_BATCH):
            ids, shapes, _ = pack(distinct[i : i + EMBED_BATCH])
            hidden = forward(params, config, ids, shapes=shapes)
            pooled += [pool(h, self.pooling, params) for h in group_views(hidden, shapes)]
        return np.concatenate(pooled)[[row_of[seq] for seq in framed]]


# ---------------------------------------------------------------------------
# analogy


def answer_analogies(
    questions: Sequence[AnalogyQuestion], embedder: Embedder
) -> list[int]:
    """Predicted candidate index per question: argmax cosine(c + b - a, d).

    The questions' distinct texts are embedded in one :func:`embed_corpus`
    call.  Ties break to the lowest index.  A degenerate zero target
    vector (possible when a = c + b up to normalization) makes every
    cosine undefined; the tie rule then applies to all candidates, with a
    warning.
    """
    texts = [(q.a, q.b, q.c, *q.candidates) for q in questions]
    distinct = list(dict.fromkeys(t for row in texts for t in row))
    vectors = dict(zip(distinct, embed_corpus(distinct, embedder))) if distinct else {}
    picks = []
    for row in texts:
        va, vb, vc, *candidates = (vectors[t] for t in row)
        target = vc + vb - va
        norm = float(np.linalg.norm(target))
        if norm < _EPS:
            warnings.warn(
                "degenerate zero target vector; falling back to lowest candidate index"
            )
            picks.append(0)
            continue
        target = target / norm
        picks.append(int(np.argmax([float(target @ d) for d in candidates])))
    return picks


@dataclass(frozen=True)
class CategoryResult:
    correct: int
    total: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.total


@dataclass(frozen=True)
class AnalogyReport:
    """Per-category counts plus the semantic/syntactic/average rollup.

    Aggregates are micro-averages (total correct over total questions
    on each side).  A side with no questions is reported as None, and
    the overall average is the mean of the sides that exist.
    """

    per_category: dict[str, CategoryResult]

    def _side(self, syntactic: bool) -> CategoryResult | None:
        correct = total = 0
        for cat, res in self.per_category.items():
            if is_syntactic(cat) == syntactic:
                correct += res.correct
                total += res.total
        if total == 0:
            return None
        return CategoryResult(correct, total)

    @property
    def semantic(self) -> CategoryResult | None:
        return self._side(False)

    @property
    def syntactic(self) -> CategoryResult | None:
        return self._side(True)

    @property
    def average(self) -> float | None:
        sides = [s.accuracy for s in (self.semantic, self.syntactic) if s is not None]
        if not sides:
            return None
        return sum(sides) / len(sides)


def evaluate_analogy(
    questions: Sequence[AnalogyQuestion], embedder: Embedder
) -> AnalogyReport:
    """Accuracy per category; empty categories are absent, never 0."""
    counts: dict[str, list[int]] = {}
    for q, pick in zip(questions, answer_analogies(questions, embedder)):
        tally = counts.setdefault(q.category, [0, 0])
        tally[0] += int(pick == q.answer_index)
        tally[1] += 1
    return AnalogyReport(
        per_category={c: CategoryResult(v[0], v[1]) for c, v in counts.items()}
    )


# ---------------------------------------------------------------------------
# retrieval


def embed_corpus(texts: Sequence[Tokens], embedder: Embedder) -> np.ndarray:
    """One ``embed_many`` call on token tuples, its rows unit-normalized."""
    if len(texts) == 0:
        raise ValueError("cannot embed an empty corpus")
    for i, tokens in enumerate(texts):
        if isinstance(tokens, str):
            raise TypeError(f"text {i} is a string; pass a tuple of tokens")
        if len(tokens) == 0:
            raise ValueError(f"cannot embed empty text at index {i}")
    rows = np.asarray(embedder.embed_many(texts), dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    degenerate = np.flatnonzero(norms < _EPS)
    if degenerate.size:
        raise ValueError(f"degenerate embedding for text at index {degenerate[0]}")
    return rows / norms[:, None]


def _rank(scores: np.ndarray, ids: Sequence, k: int) -> list[list]:
    """Per row of the (queries, documents) ``scores``, the first k ids by
    descending score; ties break by ascending id.  The ids are sorted once,
    then every row is ranked by one stable argsort against that order."""
    by_id = np.argsort(np.array(ids), kind="stable")
    top = by_id[np.argsort(-scores[:, by_id], axis=1, kind="stable")[:, :k]]
    return [[ids[i] for i in row] for row in top.tolist()]


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """``matrix``'s rows divided by their norms; a near-zero row is divided by 1."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms < _EPS, 1.0, norms)


def retrieve_topk(
    queries: np.ndarray, corpus: np.ndarray, k: int, ids: Sequence | None = None
) -> list[list]:
    """Per row of the (Q, d) ``queries``, the top-k ids of the (N, d)
    ``corpus`` by cosine similarity; ties break by ascending id.  Both sides
    are normalized once and scored by one ``einsum``, not BLAS: OpenBLAS can
    round two equal corpus rows differently by position, so rounding, not
    the id, would break their tie."""
    n = corpus.shape[0]
    if k > n:
        raise ValueError(f"k ({k}) exceeds corpus size ({n})")
    ids = range(n) if ids is None else ids
    if len(ids) != n:
        raise ValueError("ids length must match corpus size")
    scores = np.einsum("qd,nd->qn", _unit_rows(queries), _unit_rows(corpus))
    return _rank(scores, ids, k)


def topk_accuracy(
    rankings: Sequence[Sequence],
    gold_sets: Sequence[set],
    ks: Sequence[int],
) -> dict[int, float]:
    """Fraction of queries with any gold id inside the top k."""
    if len(rankings) != len(gold_sets):
        raise ValueError(
            f"missing gold set: {len(rankings)} rankings vs {len(gold_sets)} gold sets"
        )
    for i, gold in enumerate(gold_sets):
        if not gold:
            raise ValueError(f"missing gold set for query {i}")
    out = {}
    for k in ks:
        hits = sum(
            1 for ranking, gold in zip(rankings, gold_sets)
            if any(r in gold for r in ranking[:k])
        )
        out[k] = hits / len(rankings)
    return out


def topk_accuracy_by_group(
    rankings: Sequence[Sequence],
    gold_sets: Sequence[set],
    groups: Sequence,
    ks: Sequence[int],
) -> dict[Any, dict[int, float]]:
    """Top-k accuracy computed separately per query group, in sorted group order."""
    if len(groups) != len(rankings):
        raise ValueError("groups length must match rankings")
    out = {}
    for label in sorted(set(groups)):
        idx = [i for i, g in enumerate(groups) if g == label]
        out[label] = topk_accuracy(
            [rankings[i] for i in idx], [gold_sets[i] for i in idx], ks
        )
    return out


def bm25_scores(
    queries: Sequence[Sequence[str]],
    corpus_tokens: Sequence[Sequence[str]],
    k1: float = 1.2,
    b: float = 0.75,
) -> np.ndarray:
    """(queries, documents) Okapi BM25 scores of tokenized queries.

    Inverse document frequency uses the nonnegative form
    ln(1 + (N - df + 0.5)/(df + 0.5)), so a term occurring in a single
    document of a 2-document corpus still votes for that document.
    Repeated query terms contribute once per occurrence; an empty query
    scores every document 0.  Each term's weights are computed once.
    """
    for qi, query in enumerate(queries):
        if isinstance(query, str):
            raise TypeError(f"query {qi} is a string; pass a list of tokens")
    n = len(corpus_tokens)
    if n == 0:
        raise ValueError("empty corpus")
    lengths = np.array([len(doc) for doc in corpus_tokens], dtype=np.float64)
    avg_len = float(lengths.mean()) if lengths.sum() > 0 else 1.0
    len_norm = k1 * (1.0 - b + b * lengths / avg_len)
    postings = defaultdict(list)
    for di, doc in enumerate(corpus_tokens):
        for term, tf in Counter(doc).items():
            postings[term].append((di, tf))
    weights = {}
    for term, pairs in postings.items():
        docs, tf = np.array(pairs).T
        idf = math.log(1.0 + (n - len(docs) + 0.5) / (len(docs) + 0.5))
        weights[term] = (docs, idf * tf * (k1 + 1.0) / (tf + len_norm[docs]))
    scores = np.zeros((len(queries), n))
    for qi, query in enumerate(queries):
        for term in query:
            if term in weights:
                docs, w = weights[term]
                scores[qi, docs] += w
    return scores


def bm25_rank(
    queries: Sequence[Sequence[str]],
    corpus_tokens: Sequence[Sequence[str]],
    ids: Sequence,
    k: int | None = None,
) -> list[list]:
    """Per query, the first ``k`` document ids (all of them if None) by BM25
    score; ties break by ascending id."""
    return _rank(bm25_scores(queries, corpus_tokens), ids, len(ids) if k is None else k)


# ---------------------------------------------------------------------------
# file formats


def _split_tsv(line: str, n: int) -> list[str]:
    parts = line.split("\t")
    if len(parts) != n:
        raise ValueError(f"expected {n} tab-separated fields, got {len(parts)}")
    return parts


def _tokens(text: str) -> Tokens:
    """``text`` tokenized; a text without tokens is rejected."""
    tokens = tuple(tokenize(text))
    if not tokens:
        raise ValueError(f"text {text!r} has no tokens")
    return tokens


def read_analogy_file(path: str | Path) -> list[AnalogyQuestion]:
    """TSV rows: category, a, b, c, pipe-joined candidates, answer index; at least
    one row, every text keeping a token after :func:`tokenize`, and the
    candidates distinct after it.  Texts come back as token tuples."""
    def question(line: str) -> AnalogyQuestion:
        category, *abc, candidates, answer = _split_tsv(line, 6)
        return AnalogyQuestion(category, *map(_tokens, abc),
                               tuple(map(_tokens, candidates.split("|"))), int(answer))

    return read_lines(path, question, what="questions")


def read_retrieval_corpus(path: str | Path) -> list[tuple[str, Tokens]]:
    """TSV rows: id, text; at least one row, no id twice, and every text must
    keep a token after :func:`tokenize`.  Rows come back as (id, tokens)."""
    seen = set()

    def document(line: str) -> tuple[str, Tokens]:
        doc_id, text = _split_tsv(line, 2)
        if doc_id in seen:
            raise ValueError(f"duplicate corpus id {doc_id!r}")
        seen.add(doc_id)
        return doc_id, _tokens(text)

    return read_lines(path, document, what="documents")


def read_retrieval_queries(path: str | Path, ids: Sequence[str]) -> list[tuple[Tokens, frozenset]]:
    """TSV rows: text, comma-joined gold ids; at least one row, every text
    keeping a token after :func:`tokenize`, and every gold set non-empty and
    inside ``ids``.  Rows come back as (tokens, gold ids)."""
    known = set(ids)

    def query(line: str) -> tuple[Tokens, frozenset[str]]:
        text, gold = _split_tsv(line, 2)
        tokens = _tokens(text)
        gold = frozenset(filter(None, gold.split(",")))
        if not gold:
            raise ValueError("missing gold set")
        if not gold <= known:
            raise ValueError(f"unknown gold ids {sorted(gold - known)}")
        return tokens, gold

    return read_lines(path, query, what="queries")


def read_word_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Space-separated rows: token v1 v2 ... vd, every component finite; at least
    one row, insertion order kept."""
    vectors: dict[str, np.ndarray] = {}

    def row(line: str) -> None:
        token, *values = line.split()
        if not values:
            raise ValueError("no vector components")
        first = next(iter(vectors.values()), values)
        if len(values) != len(first):
            raise ValueError(f"dimension {len(values)} != {len(first)}")
        if token in vectors:
            raise ValueError(f"duplicate token {token!r}")
        vector = np.array([float(v) for v in values])
        if not np.isfinite(vector).all():
            raise ValueError(f"non-finite component in the vector of {token!r}")
        vectors[token] = vector

    read_lines(path, row, what="vectors")
    return vectors
