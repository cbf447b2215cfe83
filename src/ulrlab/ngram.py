"""N-gram counting, PMI scoring, pruning, and sequence span marking.

The association score of an n-gram ``w = (x_1, .., x_n)`` is

    pmi(w) = (1/n) * (ln P(w) - sum_k ln P(x_k))

with every probability estimated as ``count / total_tokens`` (one shared
denominator for all lengths) and natural logarithms.  The ``1/n`` factor
keeps long n-grams from being drowned by their many marginal terms.

Pruning runs in two stages: a global score threshold, then a per-document
top-K cut; the union over documents is the final table.  Entity n-grams
can be injected as privileged entries that are exempt from pruning.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import EncodedSequence, Vocabulary


class NgramError(ValueError):
    """Raised for invalid n-gram statistics input."""


class Span(NamedTuple):
    """Inclusive token span, 1-based: positions ``start..end`` of a sequence."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class SpanAnnotation:
    """Non-overlapping spans of one sequence, sorted by start position."""

    spans: tuple[Span, ...]

    def __post_init__(self) -> None:
        prev_end = 0
        for sp in self.spans:
            if not (1 <= sp.start < sp.end):
                raise NgramError(f"invalid span {sp}: need 1 <= start < end")
            if sp.start <= prev_end:
                raise NgramError(f"span {sp} overlaps or is out of order")
            prev_end = sp.end

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)


@dataclass
class RawNgramCounts:
    """Exact counts of all n-grams (lengths 2..n_max) and unigrams.

    Keeps the encoded documents so that per-document pruning can replay
    each document's n-gram inventory without storing it explicitly.
    """

    ngrams: Counter
    unigrams: Counter
    total_tokens: int
    n_max: int
    sequences: list[tuple[int, ...]] = field(default_factory=list)


def count_ngrams(documents: Iterable[EncodedSequence], n_max: int) -> RawNgramCounts:
    """Count every contiguous n-gram of length 2..n_max plus all unigrams.

    Returns exact counts and the total token count T.  Counting is a
    single pass; shards of documents could be counted independently and
    merged by summation.
    """
    if n_max < 2:
        raise NgramError(f"n_max must be >= 2, got {n_max}")
    ngrams: Counter = Counter()
    unigrams: Counter = Counter()
    total = 0
    sequences: list[tuple[int, ...]] = []
    for doc in documents:
        toks = tuple(doc.ids) if isinstance(doc, EncodedSequence) else tuple(doc)
        sequences.append(toks)
        total += len(toks)
        unigrams.update(toks)
        for n in range(2, n_max + 1):
            if len(toks) < n:
                break
            ngrams.update(zip(*(toks[i:] for i in range(n))))
    if total == 0:
        raise NgramError("empty corpus")
    return RawNgramCounts(
        ngrams=ngrams, unigrams=unigrams, total_tokens=total, n_max=n_max, sequences=sequences
    )


def compute_pmi(
    w: Sequence[int], counts: RawNgramCounts, total_tokens: int | None = None
) -> float:
    """Length-normalized PMI of n-gram ``w`` under ``counts``.

    Raises :class:`NgramError` if ``w`` or any of its tokens is unseen.
    """
    w = tuple(w)
    if len(w) < 2:
        raise NgramError(f"n-gram must have length >= 2, got {w}")
    c_w = counts.ngrams.get(w, 0)
    if c_w <= 0:
        raise NgramError(f"unseen n-gram: {w}")
    for x in w:
        if counts.unigrams.get(x, 0) <= 0:
            raise NgramError(f"unseen n-gram: token {x} of {w} has zero count")
    single = RawNgramCounts(
        ngrams=Counter({w: c_w}),
        unigrams=Counter({x: counts.unigrams[x] for x in w}),
        total_tokens=counts.total_tokens if total_tokens is None else total_tokens,
        n_max=len(w),
    )
    return build_table(single).pmi_of(w)


@dataclass
class NgramTable:
    """Scored n-gram inventory: id-tuple -> (count, pmi).

    ``privileged`` entries (injected entities) are exempt from pruning.
    ``_doc_sequences`` is carried only until pruning; a pruned or loaded
    table no longer holds it.
    """

    entries: dict[tuple[int, ...], tuple[int, float]]
    n_max: int
    total_tokens: int
    privileged: set[tuple[int, ...]] = field(default_factory=set)
    _doc_sequences: list[tuple[int, ...]] | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, w: tuple[int, ...]) -> bool:
        return w in self.entries

    def pmi_of(self, w: tuple[int, ...]) -> float:
        return self.entries[w][1]

    def count_of(self, w: tuple[int, ...]) -> int:
        return self.entries[w][0]


def build_table(counts: RawNgramCounts) -> NgramTable:
    """Score every counted n-gram, producing an unpruned table."""
    log_t = math.log(counts.total_tokens)
    log_uni = {x: math.log(c) for x, c in counts.unigrams.items()}
    entries: dict[tuple[int, ...], tuple[int, float]] = {}
    for w, c_w in counts.ngrams.items():
        n = len(w)
        acc = math.log(c_w) + (n - 1) * log_t
        for x in w:
            acc -= log_uni[x]
        entries[w] = (c_w, acc / n)
    return NgramTable(
        entries=entries,
        n_max=counts.n_max,
        total_tokens=counts.total_tokens,
        _doc_sequences=list(counts.sequences),
    )


def inject_entities(
    table: NgramTable, entity_ngrams: Iterable[Sequence[int]]
) -> NgramTable:
    """Mark entity n-grams as privileged, adding them if absent.

    Entities outside lengths 2..n_max are skipped with a warning.  An
    entity not present in the corpus is stored with count 0 and a NaN
    score; idempotent under repeated injection.  Mutates and returns
    ``table``.
    """
    for ent in entity_ngrams:
        w = tuple(ent)
        if not (2 <= len(w) <= table.n_max):
            warnings.warn(
                f"entity n-gram {w} has length {len(w)}, outside 2..{table.n_max}; skipped",
                stacklevel=2,
            )
            continue
        if w not in table.entries:
            table.entries[w] = (0, math.nan)
        table.privileged.add(w)
    return table


def _prune_sort_key(item: tuple[tuple[int, ...], tuple[int, float]]):
    w, (count, pmi) = item
    return (-pmi, -count, w)


def prune_table(
    table: NgramTable,
    pmi_threshold: float = 0.0,
    per_doc_top_k: int | None = 3000,
) -> NgramTable:
    """Apply the score threshold, then keep each document's top-K entries.

    Entries with ``pmi > pmi_threshold`` survive the first stage; the
    second keeps, for every document, the ``per_doc_top_k`` best
    surviving entries (pmi desc, count desc, id-tuple asc) and unions the
    result.  Privileged entries always survive.  Pass
    ``per_doc_top_k=None`` to skip the per-document stage.
    """
    above = {
        w: cp
        for w, cp in table.entries.items()
        if w in table.privileged or cp[1] > pmi_threshold
    }
    if per_doc_top_k is None:
        kept = above
    else:
        if per_doc_top_k < 1:
            raise NgramError(f"per_doc_top_k must be >= 1, got {per_doc_top_k}")
        if table._doc_sequences is None:
            raise NgramError("table has no document information for per-document pruning")
        keep: set[tuple[int, ...]] = set(table.privileged) & set(above)
        for toks in table._doc_sequences:
            doc_ngrams: set[tuple[int, ...]] = set()
            for n in range(2, table.n_max + 1):
                if len(toks) < n:
                    break
                for i in range(len(toks) - n + 1):
                    w = toks[i : i + n]
                    if w in above:
                        doc_ngrams.add(w)
            if len(doc_ngrams) > per_doc_top_k:
                ranked = sorted(
                    ((w, above[w]) for w in doc_ngrams), key=_prune_sort_key
                )
                keep.update(w for w, _ in ranked[:per_doc_top_k])
            else:
                keep.update(doc_ngrams)
        kept = {w: above[w] for w in keep}
    if not kept:
        warnings.warn("pruning produced an empty n-gram table", stacklevel=2)
    return NgramTable(
        entries=kept,
        n_max=table.n_max,
        total_tokens=table.total_tokens,
        privileged=set(table.privileged) & set(kept),
        _doc_sequences=None,
    )


def mark_sequence(seq: EncodedSequence | Sequence[int], table: NgramTable) -> SpanAnnotation:
    """Greedy left-to-right, longest-match-first span annotation.

    Span positions are 1-based inclusive.  Matched spans never overlap;
    every matched tuple is a table entry.
    """
    toks = tuple(seq.ids) if isinstance(seq, EncodedSequence) else tuple(seq)
    m = len(toks)
    spans: list[Span] = []
    i = 0
    while i < m - 1:
        matched = False
        for n in range(min(table.n_max, m - i), 1, -1):
            if toks[i : i + n] in table.entries:
                spans.append(Span(start=i + 1, end=i + n))
                i += n
                matched = True
                break
        if not matched:
            i += 1
    return SpanAnnotation(spans=tuple(spans))


_TABLE_HEADER = "tokens\tcount\tpmi"


def _table_sort_key(item: tuple[tuple[int, ...], tuple[int, float]]):
    w, (count, pmi) = item
    # non-finite scores (privileged entities unseen in the corpus) first
    if math.isnan(pmi):
        return (0, 0.0, -count, w)
    return (1, -pmi, -count, w)


def save_table(table: NgramTable, vocab: Vocabulary, path: str | Path) -> None:
    """Write TSV ``token .. token<TAB>count<TAB>pmi`` sorted by pmi descending.

    Scores are written with 9 significant digits; a NaN score marks a
    privileged entity that never occurred in the corpus.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TABLE_HEADER + "\n")
        for w, (count, pmi) in sorted(table.entries.items(), key=_table_sort_key):
            toks = " ".join(vocab.token_of(i) for i in w)
            fh.write(f"{toks}\t{count}\t{pmi:.9g}\n")


def load_table(path: str | Path, vocab: Vocabulary, n_max: int = 6) -> NgramTable:
    """Read a table written by :func:`save_table`.

    A token missing from ``vocab`` means the table and vocabulary do not
    belong together, and raises :class:`NgramError`.  Entries with NaN
    scores are restored as privileged.  The privileged flag of entities
    that do have a finite score is not preserved by the file format.
    """
    entries: dict[tuple[int, ...], tuple[int, float]] = {}
    privileged: set[tuple[int, ...]] = set()
    max_len = 2
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != _TABLE_HEADER:
            raise NgramError(f"{path}: missing table header")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise NgramError(f"{path}:{lineno}: malformed table row")
            toks = parts[0].split(" ")
            unknown = [t for t in toks if t not in vocab]
            if unknown:
                raise NgramError(f"{path}:{lineno}: token(s) {unknown} not in the vocabulary")
            w = tuple(vocab.id_of(t) for t in toks)
            pmi = float(parts[2])
            entries[w] = (int(parts[1]), pmi)
            if math.isnan(pmi):
                privileged.add(w)
            max_len = max(max_len, len(w))
    return NgramTable(
        entries=entries,
        n_max=max(n_max, max_len),
        total_tokens=0,
        privileged=privileged,
        _doc_sequences=None,
    )


def read_entity_file(path: str | Path, vocab: Vocabulary) -> list[tuple[int, ...]]:
    """Read one space-joined entity n-gram per line.

    Entities containing out-of-vocabulary tokens are skipped with a
    warning; matching them through UNK would mark unrelated spans.
    """
    out: list[tuple[int, ...]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if not toks:
                continue
            if any(t not in vocab for t in toks):
                warnings.warn(f"entity {' '.join(toks)!r} has OOV tokens; skipped", stacklevel=2)
                continue
            out.append(tuple(vocab.id_of(t) for t in toks))
    return out


def length_histogram(table: NgramTable, top_n: int | None = None) -> dict[int, int]:
    """Histogram of n-gram lengths over the ``top_n`` best-scored entries."""
    items = sorted(table.entries.items(), key=_table_sort_key)
    if top_n is not None:
        items = items[:top_n]
    hist: Counter = Counter(len(w) for w, _ in items)
    return dict(sorted(hist.items()))
