"""Independent reference implementations used to cross-check the library.

Everything here is written the "dumb" way on purpose — explicit loops,
no shared code with the package — so agreement is evidence, not
tautology.
"""

import math

import numpy as np

from ulrlab.corpus import CLS_ID, MASK_ID, SEP_ID, UNK_ID
from ulrlab.encoder import forward, mlm_head_rows
from ulrlab.ngram import Span


def oracle_mark(ids, table):
    """Independent greedy marker: enumerate all matching intervals first,
    then repeatedly take the longest interval at the leftmost available
    start position."""
    grams = set()
    for row in table.grams.tolist():
        gram = []
        for i in row:
            if i == -1:  # padding after the last id
                break
            gram.append(i)
        grams.add(tuple(gram))
    m = len(ids)
    intervals = []
    for i in range(m):
        for j in range(i + 1, m):
            if j - i + 1 > table.n_max:
                break
            if tuple(ids[i : j + 1]) in grams:
                intervals.append((i + 1, j + 1))  # 1-based inclusive
    spans = []
    cursor = 1
    while cursor <= m:
        at_cursor = [iv for iv in intervals if iv[0] == cursor]
        if at_cursor:
            best = max(at_cursor, key=lambda iv: iv[1])
            spans.append(Span(best[0], best[1]))
            cursor = best[1] + 1
        else:
            cursor += 1
    return tuple(spans)


def oracle_ngram_counts(sequences, n_max, min_count=1):
    """Brute-force joint and per-token counts via nested loops: every window
    without UNK_ID is counted, then joint counts below ``min_count`` are
    dropped; per-token counts and the total cover every token."""
    joint = {}
    single = {}
    total = 0
    for seq in sequences:
        total += len(seq)
        for tok in seq:
            single[tok] = single.get(tok, 0) + 1
        for n in range(2, n_max + 1):
            for i in range(len(seq) - n + 1):
                gram = tuple(seq[i : i + n])
                if UNK_ID not in gram:
                    joint[gram] = joint.get(gram, 0) + 1
    joint = {gram: count for gram, count in joint.items() if count >= min_count}
    return joint, single, total


def oracle_pmi(gram, joint, single, total):
    """Direct evaluation of the length-normalized PMI formula."""
    n = len(gram)
    value = math.log(joint[gram]) + (n - 1) * math.log(total)
    for tok in gram:
        value -= math.log(single[tok])
    return value / n


def oracle_mined_table(
    sequences, n_max, pmi_threshold, per_doc_top_k, min_count, names, top_n
):
    """Brute-force mining: the saved table text and the top-n length histogram.

    Counts and scores come from the oracles above; entries above the
    threshold, then each document's top-K among its counted n-grams, are
    kept; rows are written by pmi descending, count descending and ids
    ascending, by one Python sort.
    """
    joint, single, total = oracle_ngram_counts(sequences, n_max, min_count)
    scored = {g: (c, oracle_pmi(g, joint, single, total)) for g, c in joint.items()}

    def rank(g):
        count, pmi = scored[g]
        return (-pmi, -count, g)

    above = {g for g, (_, pmi) in scored.items() if pmi > pmi_threshold}
    kept = above
    if per_doc_top_k is not None:
        kept = set()
        for seq in sequences:
            present = set()
            for n in range(2, n_max + 1):
                for i in range(len(seq) - n + 1):
                    gram = tuple(seq[i : i + n])
                    if gram in above:
                        present.add(gram)
            kept.update(sorted(present, key=rank)[:per_doc_top_k])
    rows = sorted(kept, key=rank)
    lines = ["tokens\tcount\tpmi\n"]
    for g in rows:
        count, pmi = scored[g]
        lines.append(f"{' '.join(names[i] for i in g)}\t{count}\t{pmi:.9g}\n")
    hist = {}
    for g in rows[:top_n]:
        hist[len(g)] = hist.get(len(g), 0) + 1
    return "".join(lines), dict(sorted(hist.items()))


def oracle_table_text(table, vocab):
    """The table file written the plain way: one f-string per row, the
    n-gram's ids up to the first -1 (padding) looked up one by one."""
    tokens = vocab.tokens()
    lines = ["tokens\tcount\tpmi\n"]
    for row, count, pmi in zip(table.grams.tolist(), table.counts.tolist(), table.pmi.tolist()):
        words = []
        for i in row:
            if i == -1:
                break
            words.append(tokens[i])
        lines.append(f"{' '.join(words)}\t{count}\t{pmi:.9g}\n")
    return "".join(lines)


def oracle_answer(question, embedder):
    """Exhaustive cosine ranking with explicit loops; first best wins."""

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
    tnorm = math.sqrt(sum(x * x for x in target))
    best_idx, best_cos = 0, -math.inf
    for idx, cand in enumerate(question.candidates):
        vd = unit(embed(cand))
        cos = sum(t * d for t, d in zip(target, vd)) / tnorm
        if cos > best_cos:
            best_idx, best_cos = idx, cos
    return best_idx


def oracle_gelu(x):
    """Exact GELU, x Φ(x) = 0.5 x (1 + erf(x / √2)), element by element
    from ``math.erf`` in float64."""
    return np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in map(float, x)])


def oracle_rank(query_vec, corpus_matrix):
    """Exhaustive-sort retrieval ranking by cosine, ties by ascending id; an
    all-zero vector has cosine 0 with everything."""
    cosines = []
    qnorm = math.sqrt(sum(float(x) * float(x) for x in query_vec))
    for row in corpus_matrix:
        dot = sum(float(q) * float(d) for q, d in zip(query_vec, row))
        dnorm = math.sqrt(sum(float(d) * float(d) for d in row))
        cosines.append(dot / (qnorm * dnorm) if qnorm and dnorm else 0.0)
    return sorted(range(len(corpus_matrix)), key=lambda i: (-cosines[i], i))


def oracle_bm25(query_tokens, corpus_tokens, k1=1.2, b=0.75):
    """Okapi BM25 of one query: rescan every document for every query term."""
    n = len(corpus_tokens)
    if n == 0:
        raise ValueError("empty corpus")
    df: dict[str, int] = {}
    for doc in corpus_tokens:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    lengths = np.array([len(doc) for doc in corpus_tokens], dtype=np.float64)
    avg_len = float(lengths.mean()) if lengths.sum() > 0 else 1.0
    scores = np.zeros(n)
    for term in query_tokens:
        d_f = df.get(term)
        if not d_f:
            continue
        idf = math.log(1.0 + (n - d_f + 0.5) / (d_f + 0.5))
        for di, doc in enumerate(corpus_tokens):
            tf = doc.count(term)
            if tf == 0:
                continue
            denom = tf + k1 * (1.0 - b + b * lengths[di] / avg_len)
            scores[di] += idf * tf * (k1 + 1.0) / denom
    return scores


def oracle_split(tokens, span):
    """Framed (w, R, S) of a sequence around a 1-based inclusive span, by a
    walk over the positions: w takes the span's tokens, R every other
    token in order, and S all of them."""
    w, r = [], []
    for pos, tok in enumerate(tokens, start=1):
        if span.start <= pos <= span.end:
            w.append(tok)
        else:
            r.append(tok)
    return (CLS_ID, *w, SEP_ID), (CLS_ID, *r, SEP_ID), (CLS_ID, *tokens, SEP_ID)


def oracle_score_spans(pairs, model):
    """Span scores from full forward passes: every layer at every position
    of each masked copy, run on its own and unpadded, then one MLM head
    call over the masked rows of all copies and a running mean per span.

    It shares the encoder and the head with the package: what it checks
    is that scoring only the masked rows, in one-length groups, changes no
    bit.
    """
    variants, picks = [], []
    for seq, ann in pairs:
        for span in ann.spans:
            ids = [CLS_ID, *seq, SEP_ID]
            for pos in range(span.start, span.end + 1):
                ids[pos] = MASK_ID
            variants.append(ids)
            picks.append([(pos, seq[pos - 1]) for pos in range(span.start, span.end + 1)])
    if not variants:
        return [[] for _ in pairs]
    rows = []
    for ids, pick in zip(variants, picks):
        hidden = forward(model.params, model.config, np.array(ids), shapes=[(1, len(ids))])
        rows.extend(hidden[pos] for pos, _ in pick)
    log_probs, _ = mlm_head_rows(model.params, np.stack(rows))
    scores, j = [], 0
    for pick in picks:
        total = 0.0
        for _, target in pick:
            total += float(np.exp(log_probs[j, target]))
            j += 1
        scores.append(total / len(pick))
    flat = iter(scores)
    return [[next(flat) for _ in ann.spans] for _, ann in pairs]


def oracle_adam_step(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with bias correction, one tensor at a time, as written in
    Kingma & Ba; ``step`` is the 1-based step of this update."""
    for name, p in params.items():
        g = grads[name]
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        p -= lr * (m[name] / (1.0 - beta1**step)) / (np.sqrt(v[name] / (1.0 - beta2**step)) + eps)
