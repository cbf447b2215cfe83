"""N-gram counting, PMI scoring, pruning, and sequence span marking.

The association score of an n-gram ``w = (x_1, .., x_n)`` is

    pmi(w) = (1/n) * (ln P(w) - sum_k ln P(x_k))

with every probability estimated as ``count / T``, T the number of tokens (one
shared denominator for all lengths), and natural logarithms.  The ``1/n``
factor keeps long n-grams from being drowned by their many marginal terms.

Counting keeps only the n-grams that occur at least ``min_count`` times
and hold no ``[UNK]``.  Pruning runs in two stages: a global score
threshold, then a per-document top-K cut; the union over documents is the
final table.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import SPECIAL_TOKENS, UNK_ID, Vocabulary, atomic_open, read_lines

PAD = -1  # fills a row after the last id of an n-gram shorter than n_max


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


def _pad(grams: list[tuple[int, ...]], width: int) -> np.ndarray:
    return np.array([(*w, *[PAD] * (width - len(w))) for w in grams], np.int32).reshape(-1, width)


def _lengths(grams: np.ndarray) -> np.ndarray:
    return np.count_nonzero(grams != PAD, axis=1)


def _tuples(grams: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(row[:n]) for row, n in zip(grams.tolist(), _lengths(grams).tolist())]


def _exact_log(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each positive integer (``np.log`` may differ in the last bit)."""
    return np.array([math.log(v) for v in values.tolist()], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class RawNgramCounts:
    """Exact counts of the n-grams (lengths 2..n_max) at the count floor, and
    of all unigrams.

    One row of ``grams`` per distinct n-gram, ``counts`` its count, and the
    (document, row) pairs of all its ``occurrences`` for pruning.
    ``unigrams[i]`` counts token id ``i``; their sum is the token count T.
    """

    grams: np.ndarray
    counts: np.ndarray
    unigrams: np.ndarray
    occurrences: tuple[np.ndarray, np.ndarray] | None = None


def count_ngrams(
    documents: Iterable[Sequence[int]], n_max: int, min_count: int = 1
) -> RawNgramCounts:
    """Count the contiguous n-grams of length 2..n_max that occur at least
    ``min_count`` times, plus all unigrams.

    No n-gram starts at or extends over ``UNK_ID``: an unknown token ends a
    run of tokens as a document end does.  Counting runs as apriori mining
    does: length n extends only the occurrences of kept (n-1)-grams.  An
    n-gram never occurs more often than its prefix, so every kept count is
    exact.  Every unigram is kept: the unigram counts cover every token.

    ``grams`` is ``min(n_max, longest document)`` columns wide (at least
    2); counting stops there, or at the first length with no n-gram at the
    floor.  The corpus is one int32 array with an ``[UNK]`` after each
    document, so no run crosses a document end, and each length's
    occurrences are int32 start positions in corpus order.  An extension
    appends the next token to the (n-1)-gram's row in one int64 key per
    occurrence, built in place; one argsort and one in-place sort group
    the keys, and the occurrences of a kept key take its row.  Each
    length's temporaries are freed before the next, so the peak, at
    length 2, is the corpus, positions, keys and their argsort: 33 to 38
    traced bytes per token on Zipf corpora of 0.2M to 10.5M tokens at
    floor 5.  The ``occurrences`` are int32 (document, row) pairs, by
    length and then position.  Tokens and documents together must number
    below 2^31.
    """
    if n_max < 2:
        raise NgramError(f"n_max must be >= 2, got {n_max}")
    if min_count < 1:
        raise NgramError(f"min_count must be >= 1, got {min_count}")
    seqs = list(documents)
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        raise NgramError("empty corpus")
    if total + len(seqs) >= 2**31:
        raise NgramError(f"{total} tokens and {len(seqs)} documents reach 2^31: "
                         "positions are int32")
    tokens = np.fromiter(itertools.chain.from_iterable((*s, UNK_ID) for s in seqs),
                         dtype=np.int32, count=total + len(seqs))
    ends = np.cumsum(lengths + 1, dtype=np.int32) - 1  # each document's [UNK]
    unigrams = np.bincount(tokens)
    unigrams[UNK_ID] -= len(seqs)
    base = len(unigrams)
    width = min(n_max, max(2, int(lengths.max())))
    pos = np.flatnonzero(tokens != UNK_ID).astype(np.int32)
    rank, prefix = tokens[pos], np.arange(base, dtype=np.int32)[:, None]
    blocks, counts, docs, rows = [], [], [], []
    for n in range(2, width + 1):
        key = rank.astype(np.int64)
        key *= base
        key += tokens[n - 1 :][pos]
        del rank
        order = np.argsort(key)
        key.sort()
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        first = np.flatnonzero(first)  # where each distinct key starts
        keys = key[first]
        del key
        freq = np.diff(first, append=len(pos))
        del first
        kept = (freq >= min_count) & (keys % base != UNK_ID)  # none ends at an [UNK]
        keys = keys[kept]
        row = np.where(kept, np.cumsum(kept) - 1, -1).astype(np.int32)  # -1: not kept
        rank = np.empty(len(pos), dtype=np.int32)
        rank[order] = np.repeat(row, freq)
        del order
        hit = rank >= 0
        pos, rank = pos[hit], rank[hit]
        prefix = np.hstack([prefix[keys // base], (keys % base).astype(np.int32)[:, None]])
        blocks.append(np.pad(prefix, ((0, 0), (0, width - n)), constant_values=PAD))
        rows.append(rank + sum(map(len, counts)))
        counts.append(freq[kept])
        per_doc = np.diff(np.searchsorted(pos, ends), prepend=0)
        docs.append(np.repeat(np.arange(len(seqs), dtype=np.int32), per_doc))
        if not len(pos):
            break
    grams, occurrences = np.vstack(blocks), (np.concatenate(docs), np.concatenate(rows))
    return RawNgramCounts(grams, np.concatenate(counts), unigrams, occurrences)


@dataclass(frozen=True, eq=False)
class NgramTable:
    """Scored n-gram inventory, one row per entry, stored in the table's order.
    Mining stores the canonical order: pmi descending, count descending,
    ids ascending.  Pruning keeps the order of the rows it keeps, and
    loading the file's.

    The (document, row) pairs of all n-gram ``occurrences`` are carried
    only until pruning.  ``stage_counts`` is the entry count after each
    stage.  ``n_max`` is the width of ``grams``.
    """

    grams: np.ndarray
    counts: np.ndarray
    pmi: np.ndarray
    occurrences: tuple[np.ndarray, np.ndarray] | None = None
    stage_counts: tuple[tuple[str, int], ...] = ()

    @property
    def n_max(self) -> int:
        return self.grams.shape[1]

    def _sorted(self) -> NgramTable:
        """This table with its rows and occurrences moved into the canonical
        order.  PAD is below every id, so a prefix sorts first, as Python
        orders tuples."""
        order = np.lexsort((*self.grams.T[::-1], -self.counts, -self.pmi))
        if self.occurrences is None:
            return self._rows(order)
        docs, rows = self.occurrences
        return self._rows(order, occurrences=(docs, np.argsort(order)[rows]))

    def _rows(
        self, index: np.ndarray, occurrences: tuple[np.ndarray, np.ndarray] | None = None,
        **changes,
    ) -> NgramTable:
        """These rows stored in ``index``'s order, with ``occurrences``."""
        return replace(
            self, grams=self.grams[index], counts=self.counts[index], pmi=self.pmi[index],
            occurrences=occurrences, **changes,
        )

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def gram_set(self) -> frozenset[tuple[int, ...]]:
        """The id tuple of every row, for marking."""
        return frozenset(_tuples(self.grams))


def build_table(counts: RawNgramCounts) -> NgramTable:
    """Score every counted n-gram, producing an unpruned table.

    The float operations are those of the scalar formula, in its order.
    """
    log_t = math.log(counts.unigrams.sum())
    # an absent token's log is 0, and PAD (-1) finds the 0 appended at the end
    log_uni = np.append(_exact_log(np.maximum(counts.unigrams, 1)), 0.0)
    lengths = _lengths(counts.grams)
    acc = _exact_log(counts.counts) + (lengths - 1) * log_t
    for col in counts.grams.T:
        acc -= log_uni[col]
    return NgramTable(
        counts.grams, counts.counts, acc / lengths, counts.occurrences,
        (("counted", len(acc)),),
    )._sorted()


def prune_table(
    table: NgramTable, pmi_threshold: float, per_doc_top_k: int | None
) -> NgramTable:
    """Apply the score threshold, then keep each document's top-K entries.

    Entries with ``pmi > pmi_threshold`` survive the first stage; the
    second keeps, for every document, the ``per_doc_top_k`` best
    surviving entries (pmi desc, count desc, id-tuple asc) and unions the
    result.  Pass ``per_doc_top_k=None`` to skip the per-document stage.
    """
    keep = table.pmi > pmi_threshold
    stage_counts = table.stage_counts + (("above threshold", int(keep.sum())),)
    if per_doc_top_k is not None:
        if per_doc_top_k < 1:
            raise NgramError(f"per_doc_top_k must be >= 1, got {per_doc_top_k}")
        if table.occurrences is None:
            raise NgramError("table has no document information for per-document pruning")
        docs, rows = table.occurrences
        hit = keep[rows]
        # Distinct (document, row) pairs, by document and then by row, so
        # each document's first K are its best K.
        stride = len(table) + 1
        pairs = np.sort(docs[hit].astype(np.int64) * stride + rows[hit])
        pairs = pairs[np.diff(pairs, prepend=-1) > 0]
        pair_doc = pairs // stride
        # a pair is in its document's first K unless the pair K places back shares it
        top = np.ones(len(pairs), dtype=bool)
        top[per_doc_top_k:] = pair_doc[per_doc_top_k:] != pair_doc[:-per_doc_top_k]
        keep = np.zeros(len(table), dtype=bool)
        keep[pairs[top] % stride] = True
        stage_counts += (("after per-document top-K", int(keep.sum())),)
    if not keep.any():
        warnings.warn("pruning produced an empty n-gram table", stacklevel=2)
    return table._rows(np.flatnonzero(keep), stage_counts=stage_counts)


def mark_sequence(ids: Sequence[int], table: NgramTable) -> SpanAnnotation:
    """Greedy left-to-right, longest-match-first span annotation.

    Span positions are 1-based inclusive.  Matched spans never overlap;
    every matched tuple is a table entry.
    """
    toks = tuple(ids)
    m = len(toks)
    spans: list[Span] = []
    i = 0
    while i < m - 1:
        for n in range(min(table.n_max, m - i), 1, -1):
            if toks[i : i + n] in table.gram_set:
                spans.append(Span(start=i + 1, end=i + n))
                i += n
                break
        else:
            i += 1
    return SpanAnnotation(spans=tuple(spans))


_TABLE_HEADER = "tokens\tcount\tpmi"


def save_table(table: NgramTable, vocab: Vocabulary, path: str | Path) -> None:
    """Write TSV ``token .. token<TAB>count<TAB>pmi``, rows in the table's order.

    Scores are written with 9 significant digits.  A token id outside
    ``vocab`` raises IndexError, and a score that is not finite, which
    :func:`load_table` would reject, raises :class:`NgramError`; either
    leaves ``path`` as it was.
    """
    tokens = vocab.tokens()
    with atomic_open(path) as fh:
        fh.write(_TABLE_HEADER + "\n")
        if table.grams.max(initial=0) >= len(tokens):
            raise IndexError(f"token id {table.grams.max()} outside a vocabulary of {len(tokens)}")
        rows = zip(table.grams.tolist(), _lengths(table.grams).tolist(),
                   table.counts.tolist(), table.pmi.tolist())
        for gram, n, count, pmi in rows:
            text = " ".join([tokens[i] for i in gram[:n]])
            if not math.isfinite(pmi):
                raise NgramError(f"pmi {pmi} of n-gram {text!r} is not finite")
            fh.write(f"{text}\t{count}\t{pmi:.9g}\n")


def load_table(path: str | Path, vocab: Vocabulary) -> NgramTable:
    """Read a table written by :func:`save_table`.

    ``n_max`` is the length of the longest entry.  A repeated n-gram, a
    row of fewer than two tokens (which no span can match), a token
    missing from ``vocab`` (the table and vocabulary do not belong
    together), a reserved token such as ``[UNK]`` (which would match
    unrelated spans), a count that is not an integer in [1, 2^63), or a pmi
    that is not finite (mining computes none) raises :class:`NgramError`.
    Rows keep the file's order: a reload never re-breaks ties between
    scores that the 9 written digits made equal, so save, load and save
    again writes the same bytes.
    """
    seen: set[tuple[int, ...]] = set()

    def check_header(line: str) -> None:
        if line != _TABLE_HEADER:
            raise NgramError("missing table header")

    def entry(line: str) -> tuple[tuple[int, ...], int, float]:
        parts = line.split("\t")
        if len(parts) != 3:
            raise NgramError("malformed table row")
        toks = parts[0].split(" ")
        if len(toks) < 2:
            raise NgramError(f"n-gram {parts[0]!r} has fewer than 2 tokens")
        unknown = [t for t in toks if t not in vocab]
        if unknown:
            raise NgramError(f"token(s) {unknown} not in the vocabulary")
        reserved = [t for t in toks if t in SPECIAL_TOKENS]
        if reserved:
            raise NgramError(f"n-gram {parts[0]!r} holds reserved token(s) {reserved}")
        gram = tuple(vocab.id_of(t) for t in toks)
        if gram in seen:
            raise NgramError(f"duplicate n-gram {parts[0]!r}")
        seen.add(gram)
        try:
            count, score = int(parts[1]), float(parts[2])
        except ValueError:
            raise NgramError(f"bad count or pmi in {parts[1:]}") from None
        if not 1 <= count < 2**63:
            raise NgramError(f"count {count} is not an integer in [1, 2^63)")
        if not math.isfinite(score):
            raise NgramError(f"pmi {parts[2]!r} is not finite")
        return gram, count, score

    rows = read_lines(path, entry, header=check_header)
    n_max = max([2, *(len(gram) for gram, _, _ in rows)])
    return NgramTable(_pad([gram for gram, _, _ in rows], n_max),
                      np.array([c for _, c, _ in rows], dtype=np.int64),
                      np.array([pmi for _, _, pmi in rows], dtype=np.float64))


def length_histogram(table: NgramTable, top_n: int | None = None) -> dict[int, int]:
    """Histogram of n-gram lengths over the ``top_n`` best-scored entries (the first rows)."""
    hist = np.bincount(_lengths(table.grams[:top_n]))
    return {n: int(c) for n, c in enumerate(hist.tolist()) if c}
