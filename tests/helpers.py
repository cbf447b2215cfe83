"""Small test helpers: fixture-file writers, a scalar MiSAD loss, a
one-group encoder pass, and n-gram tables to and from ``{id tuple: (count,
pmi)}`` dicts."""

import numpy as np

from ulrlab.encoder import forward
from ulrlab.evaluation import AnalogyQuestion
from ulrlab.ngram import PAD, NgramTable
from ulrlab.training import _misad_with_grads


def misad_loss(e_w, e_r, e_s) -> float:
    """MiSAD loss of single vectors or (n, d) stacks, as training computes it."""
    stacks = (np.atleast_2d(np.asarray(e, dtype=float)) for e in (e_w, e_r, e_s))
    return _misad_with_grads(*stacks, 1.0)[0]


def forward_batch(params, config, ids, **kwargs):
    """``forward`` over one unpadded (B, L) batch, a packed pass of one group,
    with its hidden states as (B, L, d); ``(hidden, cache)`` with ``want_cache``."""
    ids = np.asarray(ids)
    out = forward(params, config, ids.reshape(-1), shapes=[ids.shape], **kwargs)
    if kwargs.get("want_cache"):
        return out[0].reshape(*ids.shape, -1), out[1]
    return out.reshape(*ids.shape, -1)


def analogy_question(category, a, b, c, candidates, answer_index) -> AnalogyQuestion:
    """An ``AnalogyQuestion`` from whitespace-separated texts, split into token tuples."""
    a, b, c = (tuple(text.split()) for text in (a, b, c))
    candidates = tuple(tuple(text.split()) for text in candidates)
    return AnalogyQuestion(category, a, b, c, candidates, answer_index)


def write_analogy_file(questions, path) -> None:
    """TSV rows in the format ``read_analogy_file`` reads."""
    lines = [
        "\t".join([q.category, *map(" ".join, (q.a, q.b, q.c)),
                   "|".join(map(" ".join, q.candidates)), str(q.answer_index)])
        for q in questions
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_word_vectors(vectors, path) -> None:
    """``token v1 .. vd`` rows in the format ``read_word_vectors`` reads."""
    lines = [f"{t} {' '.join(f'{float(x):.8g}' for x in np.ravel(v))}" for t, v in vectors.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def table_of(entries, n_max) -> NgramTable:
    """A table of the ``{id tuple: (count, pmi)}`` rows in the mapping's order."""
    grams = np.full((len(entries), n_max), PAD, dtype=np.int32)
    for row, gram in zip(grams, entries):
        row[: len(gram)] = gram
    counts = np.array([count for count, _ in entries.values()], dtype=np.int64)
    pmi = np.array([pmi for _, pmi in entries.values()], dtype=np.float64)
    return NgramTable(grams, counts, pmi)


def table_entries(table) -> dict:
    """``{id tuple: (count, pmi)}`` of the table's rows, in stored order."""
    return {
        tuple(i for i in row if i != PAD): (count, pmi)
        for row, count, pmi in zip(table.grams.tolist(), table.counts.tolist(), table.pmi.tolist())
    }
