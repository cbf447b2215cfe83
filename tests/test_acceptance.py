"""End-to-end acceptance gate: one test per headline property.

Every test here re-derives its expected answer through an independent
route (brute-force oracle, finite differences, hand arithmetic, byte
comparison) and prints a one-line PASS summary straight to the terminal
so the run log shows each verdict with its numbers.

The full-scale headline numbers quoted in the README (analogy 45.8,
GLUE 80.6, retrieval 39.7/66.0/77.3) need hundred-million-parameter
pretrained checkpoints and ~10M-sentence training runs; they are out of
reach on a desk and are deliberately NOT reproduced.  What this gate
certifies instead is that every mechanism is exact and that the
compositional objective measurably helps at a scale where a controlled
A/B comparison is possible.
"""

import ast
import math
import site
import sys
import sysconfig
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import analogy_question, misad_loss, table_entries, table_of
from oracles import (
    oracle_answer,
    oracle_mark,
    oracle_ngram_counts,
    oracle_pmi,
    oracle_rank,
    oracle_split,
)
from ulrlab.cli import main
from ulrlab.corpus import build_vocabulary, encode, frame, tokenize
from ulrlab.encoder import (
    EncoderConfig,
    Model,
    forward,
    group_views,
    init_params,
    load_checkpoint,
    pack,
    pool,
    save_checkpoint,
)
from ulrlab.evaluation import (
    AnalogyQuestion,
    ModelEmbedder,
    answer_analogies,
    bm25_scores,
    evaluate_analogy,
    retrieve_topk,
    topk_accuracy,
)
from ulrlab.ngram import (
    Span,
    build_table,
    count_ngrams,
    length_histogram,
    mark_sequence,
    prune_table,
)
from ulrlab.training import (
    Trainer,
    TrainingConfig,
    TrainingExample,
    loss_and_gradients,
    mask_for_mlm,
    prepare_batch,
)


def report(capsys, line):
    """Print past pytest's capture so the verdict lands in the run log."""
    with capsys.disabled():
        print(f"\n{line}")


# --------------------------------------------------------------------------
# Criterion: the README states which published numbers are out of scope.


def test_criterion_nonreproducibility_statement(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    for number in ("45.8", "80.6", "39.7", "66.0", "77.3"):
        assert number in text, f"README must quote the full-scale figure {number}"
    assert "not reproducible" in text.lower()
    report(capsys, "PASS non-reproducibility statement: README quotes 45.8 / 80.6 / "
                   "39.7-66.0-77.3 and marks them not reproducible at desk scale")


# --------------------------------------------------------------------------
# Criterion: every (count, PMI) pair matches a brute-force recount.


def test_criterion_pmi_oracle(capsys):
    rng = np.random.default_rng(2025)
    raw = [tuple(int(x) for x in rng.integers(5, 19, size=50)) for _ in range(20)]
    counts = count_ngrams(raw, n_max=4)
    joint, single, total = oracle_ngram_counts(raw, 4)
    assert total == 1000 and counts.unigrams.sum() == 1000

    table = build_table(counts)
    entries = table_entries(table)
    assert set(entries) == set(joint)
    worst = 0.0
    for gram, (count, pmi) in entries.items():
        assert count == joint[gram]
        expected = oracle_pmi(gram, joint, single, total)
        assert abs(pmi - expected) <= 1e-12
        worst = max(worst, abs(pmi - expected))

    # Hand-derived closed forms on two miniature corpora.
    def pmi_of(ids):
        return table_entries(build_table(count_ngrams([ids], 2)))[(5, 6)][1]

    half_ln2 = pmi_of((5, 6, 5, 6))
    half_ln3 = pmi_of((5, 6, 7, 5, 6, 8))
    assert abs(half_ln2 - 0.5 * math.log(2)) <= 1e-12
    assert abs(half_ln3 - 0.5 * math.log(3)) <= 1e-12
    report(capsys, f"PASS PMI oracle: {len(entries)} n-grams on a 1000-token "
                   f"corpus, counts exact, max |dPMI| {worst:.2e} (<= 1e-12); "
                   f"half-ln2 and half-ln3 fixtures exact")


# --------------------------------------------------------------------------
# Criterion: greedy marking equals the interval-scan oracle, exact.


def test_criterion_marking_oracle(capsys):
    rng = np.random.default_rng(7)
    checked = 0
    for table_round in range(5):
        grams = set()
        while len(grams) < 80:
            n = int(rng.integers(2, 5))
            grams.add(tuple(int(x) for x in rng.integers(5, 15, size=n)))
        table = table_of({g: (1, 1.0) for g in grams}, n_max=4)
        for _ in range(200):
            ids = tuple(int(x) for x in rng.integers(5, 15, size=50))
            assert mark_sequence(ids, table).spans == oracle_mark(ids, table)
            checked += 1
    assert checked == 1000
    report(capsys, "PASS marking oracle: greedy annotation == interval-scan oracle "
                   "on 1000 random 50-token sequences (5 random tables)")


# --------------------------------------------------------------------------
# Criterion: compositional-loss mechanics are exact.


def test_criterion_misad_mechanics(capsys):
    # Exact composition: all three norms are powers of two, so the unit
    # vectors and their sum are exact dyadic floats and the loss is 0.0.
    loss = misad_loss(
        np.array([2.0, 0.0, 0.0, 0.0]),
        np.array([-1.0, 1.0, 1.0, 1.0]),
        np.array([1.0, 1.0, 1.0, 1.0]),
    )
    assert loss == 0.0

    # Masking never touches the selected span or the frame specials.
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(10_000):
        m = int(rng.integers(6, 24))
        ids = tuple(int(x) for x in rng.integers(5, 50, size=m))
        framed = frame(ids)
        if rng.random() < 0.5:
            span = None
            protected = set()
        else:
            start = int(rng.integers(1, m + 1))
            end = int(rng.integers(start, m + 1))
            span = Span(start, end)
            protected = set(range(start, end + 1))
        rate = float(rng.uniform(0.05, 0.95))
        masked, positions, targets = mask_for_mlm(framed, span, 50, rng, rate)
        last = len(framed) - 1
        for pos, tgt in zip(positions, targets):
            if pos in protected or pos == 0 or pos == last:
                violations += 1
            if tgt != framed[pos]:
                violations += 1
        for pos in set(range(len(framed))) - set(positions):
            if masked[pos] != framed[pos]:
                violations += 1
    assert violations == 0

    # Multiset conservation: tokens of w plus tokens of R equal tokens of S.
    examples = []
    while len(examples) < 1000:
        m = int(rng.integers(3, 20))
        ids = tuple(int(x) for x in rng.integers(5, 50, size=m))
        start = int(rng.integers(1, m + 1))
        end = int(rng.integers(start, m + 1))
        if start == 1 and end == m:
            continue  # whole-sequence spans have no remainder to test
        examples.append(TrainingExample(ids, Span(start, end)))
    batch = prepare_batch(examples, 50, rng, mask_rate=0.0)
    assert batch.misad_s_rows.tolist() == list(range(1000))
    conserved = 0
    for ex, w_f, r_f, s_f in zip(examples, batch.w_ids, batch.r_ids, batch.s_ids):
        assert tuple(s_f) == frame(ex.tokens)
        assert Counter(w_f[1:-1]) + Counter(r_f[1:-1]) == Counter(ex.tokens)
        conserved += 1
    assert conserved == 1000
    report(capsys, "PASS compositional mechanics: exact-composition loss == 0.0; "
                   "0 masking violations in 10000 draws; w + R = S multiset "
                   "conservation on 1000 random splits")


# --------------------------------------------------------------------------
# Criterion: analytic gradients match central finite differences for
# every parameter tensor, both losses and their sum, three seeds.


def test_criterion_gradient_suite(capsys):
    t0 = time.monotonic()
    eps = 1e-4
    compared = 0
    worst = 0.0
    for seed in (0, 1, 2):
        config = EncoderConfig(
            vocab_size=50, d_model=16, n_heads=2, n_layers=2, d_ff=32,
            max_len=32, dropout=0.0, seed=seed,
        )
        params = init_params(config, dtype=np.float64)
        rng = np.random.default_rng(100 + seed)

        examples = []
        for k in range(3):
            m = int(rng.integers(8, 14))
            ids = tuple(int(x) for x in rng.integers(5, 50, size=m))
            examples.append(TrainingExample(ids, Span(2, 3 + k)))
        ids = tuple(int(x) for x in rng.integers(5, 50, size=9))
        examples.append(TrainingExample(ids, None))
        batch = prepare_batch(examples, config.vocab_size, rng, mask_rate=0.3)
        assert batch.n_masked > 0 and batch.n_misad > 0

        def joint(mw, lw):
            return loss_and_gradients(
                params, config, batch, TrainingConfig(
                    total_steps=1, pooling_for_misad="cls", misad_weight=mw, mlm_weight=lw,
                ),
            )

        _, g_misad = joint(1.0, 0.0)
        _, g_mlm = joint(0.0, 1.0)
        _, g_total = joint(1.0, 1.0)
        assert set(g_misad) == set(g_mlm) == set(g_total) == set(params)

        for name in params:
            flat = params[name].ravel()
            if flat.size <= 6:
                idxs = range(flat.size)
            else:
                idxs = rng.choice(flat.size, size=6, replace=False)
            for idx in idxs:
                old = flat[idx]
                flat[idx] = old + eps
                rep_p, _ = joint(1.0, 1.0)
                flat[idx] = old - eps
                rep_n, _ = joint(1.0, 1.0)
                flat[idx] = old
                fd = (
                    (rep_p.l_misad - rep_n.l_misad) / (2 * eps),
                    (rep_p.l_mlm - rep_n.l_mlm) / (2 * eps),
                    (rep_p.l_total - rep_n.l_total) / (2 * eps),
                )
                for grads, fd_val in zip((g_misad, g_mlm, g_total), fd):
                    analytic = grads[name].ravel()[idx]
                    np.testing.assert_allclose(
                        analytic, fd_val, rtol=1e-3, atol=1e-6,
                        err_msg=f"seed {seed}, tensor {name}, entry {idx}",
                    )
                    worst = max(worst, abs(analytic - fd_val))
                    compared += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(capsys, f"PASS gradient suite: {compared} analytic-vs-FD comparisons "
                   f"across all tensors, 3 seeds, worst |diff| {worst:.2e} "
                   f"(rtol 1e-3 / atol 1e-6), {elapsed:.1f}s (< 120s)")


# --------------------------------------------------------------------------
# Criterion: analogy, retrieval, and BM25 match independent oracles.


class _TableEmbedder:
    """Table lookup used in place of a trained model."""

    def __init__(self, table):
        self.table = table

    def embed_many(self, texts):
        return np.stack([self.table[text] for text in texts])


def test_criterion_evaluation_oracles(capsys):
    rng = np.random.default_rng(3)
    words = [f"w{i:02d}" for i in range(60)]
    table = {(w,): rng.normal(size=8) for w in words}
    embedder = _TableEmbedder(table)

    questions = []
    for _ in range(1000):
        picks = rng.choice(60, size=8, replace=False)
        a, b, c = ((words[i],) for i in picks[:3])
        candidates = tuple((words[i],) for i in picks[3:])
        questions.append(AnalogyQuestion(
            category="t", a=a, b=b, c=c, candidates=candidates, answer_index=0
        ))
    mismatches = sum(
        pick != oracle_answer(question, embedder)
        for question, pick in zip(questions, answer_analogies(questions, embedder))
    )
    assert mismatches == 0

    matrix = rng.normal(size=(80, 8))
    queries = rng.normal(size=(500, 8))
    rankings = retrieve_topk(queries, matrix, k=80)
    assert rankings == [oracle_rank(q, matrix) for q in queries]

    gold_sets = [
        frozenset(int(g) for g in rng.choice(80, size=int(rng.integers(1, 3)),
                                             replace=False))
        for _ in queries
    ]
    ks = list(range(1, 81))
    acc = topk_accuracy(rankings, gold_sets, ks)
    assert all(acc[k] <= acc[k + 1] for k in ks[:-1])
    assert acc[80] == 1.0  # every gold id is somewhere in a full ranking

    # Okapi BM25 against hand-computed scores (k1=1.2, b=0.75, doc
    # lengths 3 and 2, average 2.5).
    docs = [["a", "b", "a"], ["b", "c"]]
    got_a = bm25_scores([["a"]], docs)[0]
    exp_a = [math.log(2.0) * 2 * 2.2 / (2 + 1.2 * (0.25 + 0.75 * 3 / 2.5)), 0.0]
    np.testing.assert_allclose(got_a, exp_a, rtol=0, atol=1e-9)
    got_b = bm25_scores([["b"]], docs)[0]
    exp_b = [
        math.log(1.2) * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 3 / 2.5)),
        math.log(1.2) * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 2 / 2.5)),
    ]
    np.testing.assert_allclose(got_b, exp_b, rtol=0, atol=1e-9)
    report(capsys, "PASS evaluation oracles: 1000 analogy predictions exact, "
                   "500 retrieval rankings exact, Top-k monotone for k=1..80, "
                   "BM25 hand fixture within 1e-9")


# --------------------------------------------------------------------------
# Criterion: training and checkpointing are bit-for-bit deterministic.


def test_criterion_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "the cat sat on the mat near the old mill\n"
        "the dog sat on the rug near the old barn\n"
        "a cat and a dog sat on the mat\n"
        "the old mill stood near the river bank\n"
        "a dog ran past the old mill at dawn\n"
        "the cat ran past the river bank at dusk\n",
        encoding="utf-8",
    )
    table = tmp_path / "table.tsv"
    assert main([
        "extract-ngrams", "--corpus", str(corpus), "--min-count", "1",
        "--n-max", "3", "--threshold", "0.0", "--out", str(table),
    ]) == 0

    outs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        metrics = tmp_path / f"{tag}.tsv"
        assert main([
            "train", "--corpus", str(corpus), "--table", str(table),
            "--vocab", f"{table}.vocab", "--total-steps", "12",
            "--batch-size", "8", "--d-model", "16", "--n-heads", "2",
            "--n-layers", "1", "--d-ff", "32", "--max-len", "16",
            "--seed", "7", "--out", str(ckpt), "--metrics-out", str(metrics),
        ]) == 0
        outs.append((ckpt.read_bytes(), metrics.read_bytes()))
    assert outs[0][0] == outs[1][0], "checkpoint bytes differ between reruns"
    assert outs[0][1] == outs[1][1], "metrics bytes differ between reruns"

    model = load_checkpoint(tmp_path / "a.ckpt")
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(model.params, model.config, resaved)
    assert resaved.read_bytes() == outs[0][0], "save/load round-trip not bit-exact"
    again = load_checkpoint(resaved)
    for name, tensor in model.params.items():
        assert tensor.dtype == np.float32
        assert np.array_equal(tensor, again.params[name])
    report(capsys, f"PASS determinism: rerun checkpoints ({len(outs[0][0])} bytes) "
                   f"and metrics logs byte-identical; save/load round-trip bit-exact")


# --------------------------------------------------------------------------
# Criterion: on a synthetic compositional language, adding the
# compositional loss beats an MLM-only control with identical
# initialization and budget, on held-out composition error and on
# candidate-ranked analogies.

N_UNITS = 100


def _unit_text(i):
    return f"si{i} xu{i}"


def _make_sentences(n, rng):
    """Sentences are concatenations of 2-4 distinct two-word units."""
    out = []
    for _ in range(n):
        k = int(rng.integers(2, 5))
        units = rng.choice(N_UNITS, size=k, replace=False)
        out.append(" ".join(_unit_text(u) for u in units))
    return out


def _scrambled_questions(qrng, n):
    """U_x U_p : U_x U_q :: U_y U_p : ?  with scrambled-bag distractors.

    Two distractors use exactly the gold answer's token multiset with the
    units cross-paired, so bag-of-words vector arithmetic cannot separate
    them from the gold; two more swap in unrelated units.
    """
    questions = []
    for _ in range(n):
        x, y, p, q, r1, r2 = qrng.choice(N_UNITS, size=6, replace=False)
        gold = f"{_unit_text(y)} {_unit_text(q)}"
        cands = [
            gold,
            f"si{y} xu{q} si{q} xu{y}",
            f"si{q} xu{y} si{y} xu{q}",
            f"{_unit_text(y)} {_unit_text(r1)}",
            f"{_unit_text(y)} {_unit_text(r2)}",
        ]
        order = qrng.permutation(5)
        cands = [cands[i] for i in order]
        questions.append(
            analogy_question(
                category="unit-analogy",
                a=f"{_unit_text(x)} {_unit_text(p)}",
                b=f"{_unit_text(x)} {_unit_text(q)}",
                c=f"{_unit_text(y)} {_unit_text(p)}",
                candidates=tuple(cands),
                answer_index=cands.index(gold),
            )
        )
    return questions


@pytest.mark.slow
def test_criterion_compositional_experiment(capsys):
    t0 = time.monotonic()
    train_texts = _make_sentences(5000, np.random.default_rng(2024))
    held_texts = _make_sentences(500, np.random.default_rng(77))
    docs = [tuple(t.split()) for t in train_texts]
    vocab = build_vocabulary(docs, min_count=5, max_size=50_000)
    assert len(vocab) == 205  # 100 units x 2 word types + 5 specials
    encoded = [encode(tokens, vocab) for tokens in docs]
    table = prune_table(
        build_table(count_ngrams(encoded, n_max=2)),
        pmi_threshold=2.0, per_doc_top_k=None,
    )
    # The threshold keeps exactly the 100 within-unit bigrams: their PMI
    # is ~2.5-2.7 while cross-boundary bigrams sit near 1.0.
    assert len(table) == N_UNITS

    config = EncoderConfig(
        vocab_size=len(vocab), d_model=32, n_heads=2, n_layers=2,
        d_ff=64, max_len=16, dropout=0.0, seed=5,
    )

    def train_model(misad_weight):
        model = Model.init(config)
        schedule = TrainingConfig(
            total_steps=600, batch_size=64, peak_lr=2e-3, warmup_fraction=0.1,
            pooling_for_misad="mean", misad_weight=misad_weight,
            mlm_weight=1.0, seed=15,
        )
        Trainer(model, table, encoded, schedule).run()
        return model

    def composition_error(model):
        held = [encode(tuple(t.split()), vocab) for t in held_texts]
        w_seqs, r_seqs, s_seqs = [], [], []
        for seq in held:
            annotation = mark_sequence(seq, table)
            if not annotation.spans or annotation.spans[0].length == len(seq):
                continue  # no span, or no remainder
            w_f, r_f, s_f = oracle_split(seq, annotation.spans[0])
            w_seqs.append(w_f)
            r_seqs.append(r_f)
            s_seqs.append(s_f)
        assert len(s_seqs) >= 450  # nearly every held-out sentence splits

        def embed(seqs):
            ids, shapes, starts = pack(seqs)
            hidden = forward(model.params, model.config, ids, shapes=shapes)
            pooled = np.empty((len(seqs), model.config.d_model), dtype=np.float32)
            pooled[np.argsort(starts)] = np.concatenate(
                [pool(h, "mean") for h in group_views(hidden, shapes)]
            )
            return pooled

        return float(misad_loss(embed(w_seqs), embed(r_seqs), embed(s_seqs)))

    questions = _scrambled_questions(np.random.default_rng(101), 500)

    def accuracy(model):
        embedder = ModelEmbedder(model, vocab, pooling="mean")
        return evaluate_analogy(questions, embedder).per_category[
            "unit-analogy"
        ].accuracy

    joint_model = train_model(misad_weight=2.0)
    mlm_model = train_model(misad_weight=0.0)

    mse_joint = composition_error(joint_model)
    mse_mlm = composition_error(mlm_model)
    acc_joint = accuracy(joint_model)
    acc_mlm = accuracy(mlm_model)
    elapsed = time.monotonic() - t0

    assert mse_joint < mse_mlm, (
        f"held-out composition error not improved: {mse_joint} vs {mse_mlm}"
    )
    assert acc_joint > 0.20, f"joint model at or below 5-way chance: {acc_joint}"
    assert acc_joint - acc_mlm >= 0.05, (
        f"analogy margin below 5 points: {acc_joint} vs {acc_mlm}"
    )
    assert elapsed < 900.0
    report(capsys, f"PASS compositional experiment: held-out composition MSE "
                   f"{mse_joint:.5f} (joint) < {mse_mlm:.5f} (mlm-only); analogy "
                   f"{acc_joint:.3f} vs {acc_mlm:.3f} "
                   f"(+{100 * (acc_joint - acc_mlm):.1f} pts, chance 0.200); "
                   f"{elapsed:.0f}s (< 900s)")


# --------------------------------------------------------------------------
# Criterion: the mining pipeline runs whole at the million-token scale
# and the top-2000 length histogram is produced and logged.  The
# histogram itself is reported qualitatively, not thresholded.  The count
# floor of 5, the vocabulary's, holds for n-grams too, so no singleton
# reaches the ranking; long n-grams still lead it, because docstrings
# repeat code examples, references and boilerplate phrases across
# functions, and a repeated long n-gram scores high.  On the docstrings
# of one Python install and its site-packages the histogram read
# {2: 47, 3: 268, 4: 432, 5: 562, 6: 691}, a 2-3-word share of 0.158.


def _harvest_docstrings(min_tokens):
    """Collect deduplicated docstrings from installed Python sources."""
    roots = [Path(sysconfig.get_paths()["stdlib"])]
    roots += [Path(p) for p in site.getsitepackages()]
    seen_roots, texts, total, seen = set(), [], 0, set()
    for root in roots:
        if root in seen_roots or not root.exists():
            continue
        seen_roots.add(root)
        for source in sorted(root.rglob("*.py")):
            try:
                tree = ast.parse(source.read_text(encoding="utf-8", errors="ignore"))
            except (SyntaxError, ValueError, OSError):
                continue
            for node in ast.walk(tree):
                if isinstance(
                    node,
                    (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
                ):
                    doc = ast.get_docstring(node)
                    if not doc or len(doc.split()) < 5:
                        continue
                    line = " ".join(doc.split())
                    if line in seen:
                        continue
                    seen.add(line)
                    tokens = tokenize(line)
                    if tokens:
                        texts.append(tokens)
                        total += len(tokens)
            if total >= min_tokens:
                return texts, total
    return texts, total


@pytest.mark.slow
def test_criterion_scale_sanity(capsys):
    t0 = time.monotonic()
    texts, total = _harvest_docstrings(min_tokens=1_050_000)
    assert total >= 1_000_000, f"harvested only {total} tokens"
    t_mine = time.monotonic()

    docs = [tuple(toks) for toks in texts]
    vocab = build_vocabulary(docs, min_count=5, max_size=50_000)
    encoded = [encode(tokens, vocab) for tokens in docs]
    table = prune_table(
        build_table(count_ngrams(encoded, n_max=6, min_count=5)),
        pmi_threshold=0.0, per_doc_top_k=3000,
    )
    hist = length_histogram(table, top_n=2000)
    mining = time.monotonic() - t_mine
    assert sum(hist.values()) == 2000, "top-2000 histogram not fully produced"
    short_share = (hist.get(2, 0) + hist.get(3, 0)) / 2000
    elapsed = time.monotonic() - t0

    report(capsys, f"PASS scale sanity: {total} tokens, {len(docs)} docstrings, "
                   f"{len(table)} surviving n-grams, {elapsed:.0f}s "
                   f"(harvest {t_mine - t0:.1f}s, mining {mining:.1f}s)")
    report(capsys, f"  top-2000 length histogram: "
                   f"{dict(sorted(hist.items()))}, 2-3-word share {short_share:.3f}")
    report(capsys, "  observed: every n-gram occurs at least 5 times; long n-grams still "
                   "lead, because docstrings repeat examples and boilerplate phrases")
