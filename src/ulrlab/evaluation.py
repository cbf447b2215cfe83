"""Analogy and retrieval evaluation for sequence embedders.

Analogy questions A : B :: C : ? are answered by vector arithmetic:
the candidate maximizing cosine(c + b - a, d) wins.  The same machinery
evaluates words, phrases, and sentences — an embedder maps texts to
raw vectors, whether it averages static word vectors or pools
transformer states, and :func:`embed_corpus` unit-normalizes them.
Retrieval ranks a corpus by cosine against each query and scores Top-k
accuracy, with an Okapi BM25 baseline for a non-embedding reference point.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .corpus import Vocabulary, encode, frame, tokenize
from .encoder import POOLING_STRATEGIES, Model, forward, load_checkpoint, pad_batch, pool

_EPS = 1e-12

#: Texts per forward pass in :meth:`ModelEmbedder.embed_many`: peak RSS of
#: the ``eval`` benchmark is flat up to 16 and grows by 4.4 MB at 64.
EMBED_BATCH = 16

#: Categories scored on the syntactic side of the report; everything
#: else (and any ``gram*`` prefix, for externally formatted files)
#: counts as semantic unless listed here.
SYNTACTIC_CATEGORIES = frozenset(
    {"present-participle", "positive-comparative", "positive-negative"}
)


class Embedder(Protocol):
    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Raw (n, d) vectors, one row per text; :func:`embed_corpus` normalizes."""


def is_syntactic(category: str) -> bool:
    return category in SYNTACTIC_CATEGORIES or category.startswith("gram")


@dataclass(frozen=True)
class AnalogyQuestion:
    """A : B :: C : ? with a closed candidate list."""

    category: str
    a: str
    b: str
    c: str
    candidates: tuple[str, ...]
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


@dataclass(frozen=True)
class RetrievalSet:
    """A paraphrase-retrieval task: an id'd corpus plus gold-labelled queries."""

    corpus: tuple[tuple[str, str], ...]
    queries: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        object.__setattr__(self, "corpus", tuple((i, t) for i, t in self.corpus))
        object.__setattr__(
            self, "queries", tuple((t, frozenset(g)) for t, g in self.queries)
        )
        ids = [i for i, _ in self.corpus]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate corpus ids")
        known = set(ids)
        for qi, (_, gold) in enumerate(self.queries):
            if not gold:
                raise ValueError(f"missing gold set for query {qi}")
            if not gold <= known:
                raise ValueError(
                    f"query {qi} references unknown gold ids {sorted(gold - known)}"
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

    @classmethod
    def from_file(cls, path: str | Path) -> "WordVectorEmbedder":
        return cls(read_word_vectors(path))

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        rows = []
        for text in texts:
            tokens = tokenize(text)
            if not tokens:
                raise ValueError(f"cannot embed empty text {text!r}")
            known = [self._vectors[t] for t in sorted(tokens) if t in self._vectors]
            if not known:
                raise ValueError(f"no known tokens in text {text!r}")
            rows.append(np.mean(known, axis=0))
        return np.stack(rows)


class ModelEmbedder:
    """Embed texts with an encoder checkpoint and a pooling strategy.

    Texts are tokenized with the supplied vocabulary, framed with the
    sequence delimiters, truncated to fit the model's maximum length
    (with a warning), and pooled in chunks of :data:`EMBED_BATCH` texts.
    """

    def __init__(self, model: Model, vocab: Vocabulary, pooling: str):
        if pooling not in POOLING_STRATEGIES:
            raise ValueError(
                f"unknown pooling strategy {pooling!r}; expected one of {POOLING_STRATEGIES}"
            )
        self.model = model
        self.vocab = vocab
        self.pooling = pooling

    @classmethod
    def from_checkpoint(cls, path: str | Path, vocab: Vocabulary, pooling: str) -> "ModelEmbedder":
        return cls(load_checkpoint(path), vocab, pooling)

    def _framed_ids(self, text: str) -> tuple[int, ...]:
        tokens = tokenize(text)
        if not tokens:
            raise ValueError(f"cannot embed empty text {text!r}")
        ids = encode(tokens, self.vocab).ids
        limit = self.model.config.max_len - 2
        if len(ids) > limit:
            warnings.warn(
                f"truncating sequence of {len(ids)} tokens to max_len-2 = {limit}",
                stacklevel=3,
            )
            ids = ids[:limit]
        return frame(ids)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        framed = [self._framed_ids(t) for t in texts]
        chunks = []
        for start in range(0, len(framed), EMBED_BATCH):
            ids, mask = pad_batch(framed[start : start + EMBED_BATCH])
            hidden = forward(self.model.params, self.model.config, ids, mask)
            chunks.append(pool(hidden, mask, self.pooling, self.model.params))
        return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# analogy


def answer_analogy(question: AnalogyQuestion, embedder: Embedder) -> int:
    """Predicted candidate index: argmax cosine(c + b - a, d).

    Ties break to the lowest index.  A degenerate zero target vector
    (possible when a = c + b up to normalization) makes every cosine
    undefined; the tie rule then applies to all candidates, with a
    warning.
    """
    va, vb, vc, *candidates = embed_corpus(
        [question.a, question.b, question.c, *question.candidates], embedder
    )
    target = vc + vb - va
    norm = float(np.linalg.norm(target))
    if norm < _EPS:
        warnings.warn(
            "degenerate zero target vector; falling back to lowest candidate index"
        )
        return 0
    target = target / norm
    return int(np.argmax([float(target @ d) for d in candidates]))


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
    for q in questions:
        tally = counts.setdefault(q.category, [0, 0])
        tally[0] += int(answer_analogy(q, embedder) == q.answer_index)
        tally[1] += 1
    return AnalogyReport(
        per_category={c: CategoryResult(v[0], v[1]) for c, v in counts.items()}
    )


# ---------------------------------------------------------------------------
# retrieval


def embed_corpus(texts: Sequence[str], embedder: Embedder) -> np.ndarray:
    """One ``embed_many`` call; the only place rows are unit-normalized."""
    if len(texts) == 0:
        raise ValueError("cannot embed an empty corpus")
    for i, text in enumerate(texts):
        if not tokenize(text):
            raise ValueError(f"cannot embed empty text at index {i}")
    rows = np.asarray(embedder.embed_many(texts), dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    degenerate = np.flatnonzero(norms < _EPS)
    if degenerate.size:
        raise ValueError(f"degenerate embedding for text at index {degenerate[0]}")
    return rows / norms[:, None]


def _rank(scores: np.ndarray, ids: Sequence, k: int) -> list:
    """The first k ids by descending score; ties break by ascending id."""
    order = np.lexsort((np.array(ids), -scores))
    return [ids[i] for i in order[:k]]


def retrieve_topk(
    query_vec: np.ndarray,
    corpus_matrix: np.ndarray,
    k: int,
    ids: Sequence | None = None,
):
    """Top-k corpus ids by cosine similarity; ties break by ascending id."""
    n = corpus_matrix.shape[0]
    if k > n:
        raise ValueError(f"k ({k}) exceeds corpus size ({n})")
    if ids is None:
        ids = list(range(n))
    if len(ids) != n:
        raise ValueError("ids length must match corpus size")
    query_vec = np.asarray(query_vec, dtype=np.float64)
    qnorm = float(np.linalg.norm(query_vec))
    if qnorm >= _EPS:
        query_vec = query_vec / qnorm
    row_norms = np.linalg.norm(corpus_matrix, axis=1)
    safe = np.where(row_norms < _EPS, 1.0, row_norms)
    scores = (corpus_matrix @ query_vec) / safe
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
) -> dict[str, dict[int, float]]:
    """Top-k accuracy computed separately per query group label."""
    if len(groups) != len(rankings):
        raise ValueError("groups length must match rankings")
    out = {}
    for label in sorted(set(str(g) for g in groups), key=str):
        idx = [i for i, g in enumerate(groups) if str(g) == label]
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
) -> list[list]:
    """One ranking of every document per query, by BM25 score; ties break by ascending id."""
    scores = bm25_scores(queries, corpus_tokens)
    return [_rank(row, ids, len(ids)) for row in scores]


# ---------------------------------------------------------------------------
# file formats


def _read_tsv(path: str | Path, n_fields: int):
    """Yield the fields of every non-blank TSV row, which must number ``n_fields``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise ValueError(
                    f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(parts)}"
                )
            yield parts


def read_analogy_file(path: str | Path) -> list[AnalogyQuestion]:
    """TSV rows: category, a, b, c, pipe-joined candidates, answer index."""
    return [
        AnalogyQuestion(category, a, b, c, tuple(candidates.split("|")), int(answer))
        for category, a, b, c, candidates, answer in _read_tsv(path, 6)
    ]


def read_retrieval_corpus(path: str | Path) -> list[tuple[str, str]]:
    """TSV rows: id, text."""
    return [(doc_id, text) for doc_id, text in _read_tsv(path, 2)]


def read_retrieval_queries(path: str | Path) -> list[tuple[str, frozenset[str]]]:
    """TSV rows: text, comma-joined gold ids."""
    return [
        (text, frozenset(g for g in gold.split(",") if g))
        for text, gold in _read_tsv(path, 2)
    ]


def read_word_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Space-separated rows: token v1 v2 ... vd; insertion order kept."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if not values:
                raise ValueError(f"{path}:{lineno}: no vector components")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ValueError(
                    f"{path}:{lineno}: dimension {len(values)} != {dim}"
                )
            if token in vectors:
                raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
            vectors[token] = np.array([float(v) for v in values])
    if not vectors:
        raise ValueError(f"{path}: empty word-vector file")
    return vectors
