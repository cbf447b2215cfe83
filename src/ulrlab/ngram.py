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

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Vocabulary, atomic_open, read_lines

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


def _pad(grams: Iterable[tuple[int, ...]], width: int) -> np.ndarray:
    rows = [(*w, *[PAD] * (width - len(w))) for w in grams]
    return np.array(rows, dtype=np.int32).reshape(len(rows), width)


def _lengths(grams: np.ndarray) -> np.ndarray:
    return np.count_nonzero(grams != PAD, axis=1)


def _tuples(grams: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(row[:n]) for row, n in zip(grams.tolist(), _lengths(grams).tolist())]


def _exact_log(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each positive integer (``np.log`` may differ in the last bit),
    once per distinct value, found by a bincount unless it would outgrow the input."""
    if values.max(initial=0) > 4 * len(values):
        distinct, inverse = np.unique(values, return_inverse=True)
    else:
        seen = np.bincount(values) > 0
        distinct, inverse = np.flatnonzero(seen), np.cumsum(seen)[values] - 1
    return np.array([math.log(v) for v in distinct.tolist()], dtype=np.float64)[inverse]


@dataclass(frozen=True, eq=False)
class RawNgramCounts:
    """Exact counts of all n-grams (lengths 2..n_max) and unigrams.

    One row of ``grams`` per distinct n-gram, ``counts`` its count, and the
    (document, row) pairs of all n-gram ``occurrences`` for pruning.
    """

    grams: np.ndarray
    counts: np.ndarray
    unigrams: dict[int, int]
    total_tokens: int
    n_max: int
    occurrences: tuple[np.ndarray, np.ndarray] | None = None


def count_ngrams(documents: Iterable[Sequence[int]], n_max: int) -> RawNgramCounts:
    """Count every contiguous n-gram of length 2..n_max plus all unigrams.

    Returns exact counts and the total token count T.  Length n extends
    the lexicographic rank of each (n-1)-gram occurrence by the next token
    into one int64 key; one ``np.unique`` counts the keys and ranks them.
    """
    if n_max < 2:
        raise NgramError(f"n_max must be >= 2, got {n_max}")
    seqs = list(documents)
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        raise NgramError("empty corpus")
    tokens = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64, count=total)
    doc_of = np.repeat(np.arange(len(seqs), dtype=np.int32), lengths)
    # tokens from each position to the end of its document, itself included
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(total)
    uni_ids, uni_counts = np.unique(tokens, return_counts=True)
    base = int(uni_ids[-1]) + 1
    pos, rank, prefix = np.arange(total), tokens, np.arange(base, dtype=np.int32)[:, None]
    blocks, counts, docs, rows = [], [], [], []
    for n in range(2, n_max + 1):
        fits = room[pos] >= n
        pos, rank = pos[fits], rank[fits]
        keys, inverse, freq = np.unique(
            rank * base + tokens[pos + n - 1], return_inverse=True, return_counts=True
        )
        prefix = np.hstack([prefix[keys // base], (keys % base).astype(np.int32)[:, None]])
        blocks.append(np.pad(prefix, ((0, 0), (0, n_max - n)), constant_values=PAD))
        rows.append(inverse + sum(map(len, counts)))
        counts.append(freq)
        docs.append(doc_of[pos])
        rank = inverse
    unigrams = dict(zip(uni_ids.tolist(), uni_counts.tolist()))
    grams, occurrences = np.vstack(blocks), (np.concatenate(docs), np.concatenate(rows))
    return RawNgramCounts(grams, np.concatenate(counts), unigrams, total, n_max, occurrences)


@dataclass(frozen=True, eq=False)
class NgramTable:
    """Scored n-gram inventory, one row per entry, in the canonical order:
    NaN scores (entities unseen in the corpus) first, then pmi descending,
    count descending, ids ascending.  :meth:`from_entries` keeps the order
    it is given, so a loaded table keeps its file's.

    ``is_privileged`` marks injected entities, which pruning keeps.  The
    (document, row) pairs of all n-gram ``occurrences`` are carried only
    until pruning.  ``stage_counts`` is the entry count after each stage.
    """

    grams: np.ndarray
    counts: np.ndarray
    pmi: np.ndarray
    is_privileged: np.ndarray
    n_max: int
    occurrences: tuple[np.ndarray, np.ndarray] | None = None
    stage_counts: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_entries(cls, entries: Mapping, n_max: int) -> NgramTable:
        """A table of ``{id tuple: (count, pmi)}`` in the mapping's order;
        NaN scores mark unseen entities."""
        values = np.array(list(entries.values()), dtype=np.float64).reshape(-1, 2)
        counts, pmi = values[:, 0].astype(np.int64), values[:, 1]
        return cls(_pad(entries, n_max), counts, pmi, np.isnan(pmi), n_max)

    def _sorted(self) -> NgramTable:
        """These rows in the canonical order, by one lexsort.  PAD is below
        every id, so a prefix sorts first, as Python orders tuples."""
        nan = np.isnan(self.pmi)
        # ids + 1 (PAD is 0) in the narrowest unsigned type, which lexsort
        # sorts by radix when it has 16 bits or fewer
        ids = (self.grams + 1).astype(np.min_scalar_type(int(self.grams.max(initial=0)) + 1))
        order = np.lexsort((*ids.T[::-1], -self.counts, np.where(nan, 0.0, -self.pmi), ~nan))
        if self.occurrences is None:
            return self._rows(order, None)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return self._rows(order, (self.occurrences[0], rank[self.occurrences[1]]))

    def _rows(self, index: np.ndarray, occurrences, **changes) -> NgramTable:
        return replace(
            self, grams=self.grams[index], counts=self.counts[index], pmi=self.pmi[index],
            is_privileged=self.is_privileged[index], occurrences=occurrences, **changes,
        )

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def entries(self) -> dict[tuple[int, ...], tuple[int, float]]:
        """``{id tuple: (count, pmi)}``, for lookups."""
        return dict(zip(_tuples(self.grams), zip(self.counts.tolist(), self.pmi.tolist())))


def build_table(counts: RawNgramCounts) -> NgramTable:
    """Score every counted n-gram, producing an unpruned table.

    The float operations are those of the scalar formula, in its order.
    """
    log_t = math.log(counts.total_tokens)
    log_uni = np.zeros(max(counts.unigrams) + 1)
    log_uni[list(counts.unigrams)] = [math.log(c) for c in counts.unigrams.values()]
    lengths = _lengths(counts.grams)
    acc = _exact_log(counts.counts) + (lengths - 1) * log_t
    for col in counts.grams.T:
        acc -= np.where(col == PAD, 0.0, log_uni[col])
    return NgramTable(
        counts.grams, counts.counts, acc / lengths, np.zeros(len(acc), dtype=bool),
        counts.n_max, counts.occurrences, (("counted", len(acc)),),
    )._sorted()


def inject_entities(table: NgramTable, entity_ngrams: Iterable[Sequence[int]]) -> NgramTable:
    """Mark entity n-grams as privileged, adding them if absent.

    Entities outside lengths 2..n_max are skipped with a warning.  An
    entity not present in the corpus is stored with count 0 and a NaN
    score.  Returns a new table, or ``table`` itself when every entity
    already is a privileged entry, so injection is idempotent.
    """
    rows = {w: i for i, w in enumerate(_tuples(table.grams))}
    marked = []
    for w in map(tuple, entity_ngrams):
        if 2 <= len(w) <= table.n_max:
            marked.append(rows.setdefault(w, len(rows)))
        else:
            warnings.warn(
                f"entity n-gram {w} has length {len(w)}, outside 2..{table.n_max}; skipped",
                stacklevel=2,
            )
    added = list(rows)[len(table) :]
    if not added and table.is_privileged[marked].all():
        return table
    is_privileged = np.pad(table.is_privileged, (0, len(added)))
    is_privileged[marked] = True
    return replace(
        table,
        grams=np.vstack([table.grams, _pad(added, table.n_max)]),
        counts=np.pad(table.counts, (0, len(added))),
        pmi=np.pad(table.pmi, (0, len(added)), constant_values=math.nan),
        is_privileged=is_privileged,
        stage_counts=table.stage_counts + (("with entities", len(rows)),),
    )._sorted()


def prune_table(
    table: NgramTable, pmi_threshold: float, per_doc_top_k: int | None
) -> NgramTable:
    """Apply the score threshold, then keep each document's top-K entries.

    Entries with ``pmi > pmi_threshold`` survive the first stage; the
    second keeps, for every document, the ``per_doc_top_k`` best
    surviving entries (pmi desc, count desc, id-tuple asc) and unions the
    result.  Privileged entries always survive.  Pass
    ``per_doc_top_k=None`` to skip the per-document stage.
    """
    keep = table.is_privileged | (table.pmi > pmi_threshold)
    stage_counts = table.stage_counts + (("above threshold", int(keep.sum())),)
    if per_doc_top_k is not None:
        if per_doc_top_k < 1:
            raise NgramError(f"per_doc_top_k must be >= 1, got {per_doc_top_k}")
        if table.occurrences is None:
            raise NgramError("table has no document information for per-document pruning")
        docs, rows = table.occurrences
        hit = keep[rows]
        # Distinct (document, row) pairs, by document and then by row: the
        # rows are in the canonical order, so each document's first K are
        # its best K.
        stride = len(table) + 1
        pairs = np.sort(docs[hit].astype(np.int64) * stride + rows[hit])
        pairs = pairs[np.diff(pairs, prepend=-1) > 0]
        pair_doc = pairs // stride
        nth = np.arange(len(pairs)) - np.searchsorted(pair_doc, pair_doc)
        keep = table.is_privileged.copy()
        keep[pairs[nth < per_doc_top_k] % stride] = True
        stage_counts += (("after per-document top-K", int(keep.sum())),)
    if not keep.any():
        warnings.warn("pruning produced an empty n-gram table", stacklevel=2)
    return table._rows(keep, None, stage_counts=stage_counts)


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
            if toks[i : i + n] in table.entries:
                spans.append(Span(start=i + 1, end=i + n))
                i += n
                break
        else:
            i += 1
    return SpanAnnotation(spans=tuple(spans))


_TABLE_HEADER = "tokens\tcount\tpmi"
_SAVE_CHUNK = 1 << 16  # rows formatted per write


def save_table(table: NgramTable, vocab: Vocabulary, path: str | Path) -> None:
    """Write TSV ``token .. token<TAB>count<TAB>pmi``, rows in the table's order.

    Scores are written with 9 significant digits; a NaN score marks a
    privileged entity that never occurred in the corpus.  A chunk of rows
    is one ``%`` of their formats, picked by length, over their non-PAD fields.
    """
    names = np.array(vocab.tokens(), dtype=object)
    formats = [" ".join(["%s"] * n) + "\t%d\t%.9g\n" for n in range(table.n_max + 1)]
    with atomic_open(path) as fh:
        fh.write(_TABLE_HEADER + "\n")
        for lo in range(0, len(table), _SAVE_CHUNK):
            rows = slice(lo, lo + _SAVE_CHUNK)
            grams, counts, pmi = table.grams[rows], table.counts[rows], table.pmi[rows]
            fields = np.column_stack([names[grams], counts.astype(object), pmi.astype(object)])
            present = np.pad(grams != PAD, ((0, 0), (0, 2)), constant_values=True)
            row_format = "".join([formats[n] for n in _lengths(grams).tolist()])
            fh.write(row_format % tuple(fields[present]))


def load_table(path: str | Path, vocab: Vocabulary) -> NgramTable:
    """Read a table written by :func:`save_table`.

    ``n_max`` is the length of the longest entry.  A repeated n-gram, a
    row of fewer than two tokens (which no span can match), or a token
    missing from ``vocab`` (the table and vocabulary do not belong
    together) raises :class:`NgramError`.  Entries with NaN
    scores are restored as privileged; the format loses the privileged
    flag of entities with a finite score.  Rows keep the file's order: a
    reload never re-breaks ties between scores that the 9 written digits
    made equal, so save, load and save again writes the same bytes.
    """
    entries: dict[tuple[int, ...], tuple[int, float]] = {}

    def check_header(line: str) -> None:
        if line != _TABLE_HEADER:
            raise NgramError("missing table header")

    def entry(line: str) -> None:
        parts = line.split("\t")
        if len(parts) != 3:
            raise NgramError("malformed table row")
        toks = parts[0].split(" ")
        if len(toks) < 2:
            raise NgramError(f"n-gram {parts[0]!r} has fewer than 2 tokens")
        unknown = [t for t in toks if t not in vocab]
        if unknown:
            raise NgramError(f"token(s) {unknown} not in the vocabulary")
        gram = tuple(vocab.id_of(t) for t in toks)
        if gram in entries:
            raise NgramError(f"duplicate n-gram {parts[0]!r}")
        try:
            entries[gram] = int(parts[1]), float(parts[2])
        except ValueError:
            raise NgramError(f"bad count or pmi in {parts[1:]}") from None

    read_lines(path, entry, header=check_header)
    return NgramTable.from_entries(entries, max([2, *map(len, entries)]))


def read_entity_file(path: str | Path, vocab: Vocabulary) -> list[tuple[int, ...]]:
    """Read one space-joined entity n-gram per line.

    Entities containing out-of-vocabulary tokens are skipped with a
    warning; matching them through UNK would mark unrelated spans.
    """
    out: list[tuple[int, ...]] = []
    for toks in read_lines(path, str.split):
        if any(t not in vocab for t in toks):
            warnings.warn(f"entity {' '.join(toks)!r} has OOV tokens; skipped", stacklevel=2)
        else:
            out.append(tuple(vocab.id_of(t) for t in toks))
    return out


def length_histogram(table: NgramTable, top_n: int | None = None) -> dict[int, int]:
    """Histogram of n-gram lengths over the ``top_n`` best-scored entries (the first rows)."""
    hist = np.bincount(_lengths(table.grams[:top_n]))
    return {n: int(c) for n, c in enumerate(hist.tolist()) if c}
