"""Seeded inputs, CLI stage lists and output checks for the benchmark workloads.

Each workload builds its inputs from one seed during set-up; the program
only ever sees the generated files.  Every stage is one ``ulrlab``
command line, and each stage carries the check that its output must
pass and the output files whose sha256 must repeat exactly from one run
of the stage to the next.

- ``mine``: ``extract-ngrams`` (n_max 6, per-document top-K 3000) on a
  Zipfian corpus with planted phrases.  The corpus and ngram layers do
  all the work and the encoder none, so a mining change shows here only.
- ``train``: ``train`` at the acceptance config on the two-word-unit
  language.  Its table is mined in set-up, so mining only loads the table
  and marks spans; the encoder runs forward and backward.
- ``eval``: ``embed``, model and BM25 ``eval-retrieval`` and
  ``eval-analogy`` against a checkpoint trained in set-up.  The encoder
  runs forward only, on padded batches of varied length and on many
  batch-1 calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

N_UNITS = 100

# mine: a 50k-token corpus keeps one extract-ngrams run near 3 s and its
# peak RSS under 200 MB.
MINE_TOKENS = 50_000
MINE_VOCAB = 2_000
MINE_ZIPF_EXPONENT = 1.05
MINE_DOC_LENGTHS = (8, 40)
MINE_PHRASES = 40
MINE_PLANTS_PER_PHRASE = 15

# train: the acceptance config named in ROADMAP.md.
TRAIN_SENTENCES = 5_000
TRAIN_STEPS = 50
TRAIN_FLAGS = [
    "--batch-size", "64", "--d-model", "32", "--n-heads", "2", "--n-layers", "2",
    "--d-ff", "64", "--max-len", "16", "--dropout", "0", "--peak-lr", "2e-3",
    "--pooling-for-misad", "mean", "--misad-weight", "2.0",
]
UNIT_TABLE_FLAGS = ["--n-max", "2", "--threshold", "2.0", "--top-k", "none"]

# eval: the checkpoint is trained in set-up, briefly; only its shape and
# determinism matter to the timings.
EVAL_TRAIN_SENTENCES = 2_000
EVAL_TRAIN_STEPS = 30
EVAL_DOCS = 1_000  # including one cross-paired twin per query
EVAL_DOC_UNITS = (1, 7)  # 2..14 tokens, inside max_len 16 with [CLS]/[SEP]
EVAL_QUERIES = 150
EVAL_ANALOGIES = 200
EVAL_KS = (1, 5, 10)

UNIT_NORM_ATOL = 1e-6


class CheckFailed(Exception):
    """A stage exited non-zero or its output failed a check."""


@dataclass
class Stage:
    """One ``ulrlab`` command and what its output must satisfy."""

    label: str
    args: list[str]
    items: int  # units of work, for the stage's throughput
    throughput: str  # name of that throughput in the report
    check: Callable[[str], dict[str, tuple[float, str]]]  # stdout -> {name: (value, unit)}
    digests: list[Path] = field(default_factory=list)


RunCli = Callable[[list[str]], str]


# ---------------------------------------------------------------------------
# generators


def unit_text(u: int) -> str:
    return f"si{u} xu{u}"


def zipf_corpus(rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """Zipfian documents with planted phrases; returns (lines, phrases).

    Each planted phrase (2..6 words drawn from ranks 50..499, so every
    word clears the vocabulary's min_count) is written over the start of
    MINE_PLANTS_PER_PHRASE distinct documents.
    """
    ranks = np.arange(1, MINE_VOCAB + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-MINE_ZIPF_EXPONENT)
    cdf /= cdf[-1]
    ids = np.searchsorted(cdf, rng.random(MINE_TOKENS), side="right")
    ids = np.minimum(ids, MINE_VOCAB - 1)
    lo, hi = MINE_DOC_LENGTHS
    ends = np.cumsum(rng.integers(lo, hi + 1, size=MINE_TOKENS // lo + 1))
    ends = np.append(ends[ends < MINE_TOKENS - lo], MINE_TOKENS)
    starts = np.concatenate(([0], ends[:-1]))
    phrases = [
        rng.choice(np.arange(50, 500), size=n, replace=False)
        for n in rng.integers(2, 7, size=MINE_PHRASES)
    ]
    hosts = rng.permutation(len(starts))[: MINE_PHRASES * MINE_PLANTS_PER_PHRASE]
    offsets = rng.random(len(hosts))
    for j, doc in enumerate(hosts):
        phrase = phrases[j % MINE_PHRASES]
        room = ends[doc] - starts[doc] - len(phrase)
        at = starts[doc] + int(offsets[j] * (room + 1))
        ids[at : at + len(phrase)] = phrase
    words = np.array([f"w{i}" for i in range(MINE_VOCAB)])
    lines = [" ".join(words[ids[a:b]]) for a, b in zip(starts, ends)]
    return lines, [" ".join(words[p]) for p in phrases]


def unit_orders(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[list[int]]:
    """n sequences of lo..hi distinct units, in random order."""
    counts = rng.integers(lo, hi + 1, size=n)
    units = np.argsort(rng.random((n, N_UNITS)), axis=1)[:, :hi]
    return [units[i, : counts[i]].tolist() for i in range(n)]


def unit_sentence(units: list[int]) -> str:
    return " ".join(unit_text(u) for u in units)


def scrambled_analogies(rng: np.random.Generator, n: int) -> list[str]:
    """TSV rows of ``U_x U_p : U_x U_q :: U_y U_p : ?`` questions.

    Two distractors hold exactly the gold answer's words with the units
    cross-paired, so bag-of-words arithmetic cannot separate them from
    the gold; two more swap in unrelated units.
    """
    picks = np.argsort(rng.random((n, N_UNITS)), axis=1)[:, :6]
    orders = np.argsort(rng.random((n, 5)), axis=1)
    rows = []
    for (x, y, p, q, r1, r2), order in zip(picks.tolist(), orders.tolist()):
        gold = f"{unit_text(y)} {unit_text(q)}"
        cands = [
            gold,
            f"si{y} xu{q} si{q} xu{y}",
            f"si{q} xu{y} si{y} xu{q}",
            f"{unit_text(y)} {unit_text(r1)}",
            f"{unit_text(y)} {unit_text(r2)}",
        ]
        cands = [cands[i] for i in order]
        rows.append(
            f"unit-analogy\t{unit_text(x)} {unit_text(p)}\t{unit_text(x)} {unit_text(q)}"
            f"\t{unit_text(y)} {unit_text(p)}\t{'|'.join(cands)}\t{cands.index(gold)}"
        )
    return rows


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _stdout_value(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(key + " = "):
            return line[len(key) + 3 :]
    raise CheckFailed(f"stdout has no {key!r} line")


def check_table(stdout: str, table: Path, phrases: list[str]) -> dict[str, tuple[float, str]]:
    """The top-2000 histogram sums to min(2000, entries); the table file
    holds exactly that many rows and every planted phrase."""
    n = int(_stdout_value(stdout, "ngrams"))
    hist = _stdout_value(stdout, "top-2000 length histogram")
    total = sum(int(part.split(":")[1]) for part in hist.split()) if n else 0
    _require(total == min(2000, n), f"top-2000 histogram sums to {total}, not {min(2000, n)}")
    rows = table.read_text(encoding="utf-8").splitlines()
    _require(rows[0] == "tokens\tcount\tpmi", "table header missing")
    _require(len(rows) - 1 == n, f"table has {len(rows) - 1} rows, stdout says {n}")
    mined = {row.split("\t", 1)[0] for row in rows[1:]}
    missing = [p for p in phrases if p not in mined]
    _require(not missing, f"planted phrases missing from the table: {missing[:3]}")
    return {"ngram_entries": (n, "count")}


def check_metrics(metrics: Path, steps: int) -> dict[str, tuple[float, str]]:
    """The metrics TSV has one finite row per step and the loss fell."""
    rows = metrics.read_text(encoding="utf-8").splitlines()
    _require(rows[0] == "step\tl_misad\tl_mlm\tl_total\tlr", "metrics header missing")
    values = np.array([[float(v) for v in row.split("\t")] for row in rows[1:]])
    _require(values.shape == (steps, 5), f"metrics shape {values.shape}, expected ({steps}, 5)")
    _require(bool(np.isfinite(values).all()), "non-finite value in the metrics TSV")
    _require(values[-1, 3] < values[0, 3], "l_total did not fall over the run")
    return {"final_l_total": (float(values[-1, 3]), "nats")}


def check_embeddings(out: Path, n_texts: int) -> dict[str, tuple[float, str]]:
    """One unit-norm row per text."""
    rows = np.loadtxt(out, ndmin=2)
    _require(rows.shape[0] == n_texts, f"{rows.shape[0]} embedding rows for {n_texts} texts")
    err = float(np.abs(np.linalg.norm(rows, axis=1) - 1.0).max())
    _require(err <= UNIT_NORM_ATOL, f"embedding row norm off by {err:.3g}")
    return {}


def check_topk(stdout: str, prefix: str) -> dict[str, tuple[float, str]]:
    """Top-k accuracy lies in [0, 1] and never falls as k grows."""
    lines = stdout.strip().splitlines()
    _require(lines[0] == "top_k\taccuracy", "retrieval report header missing")
    acc = {int(k): float(a) for k, a in (line.split("\t") for line in lines[1:])}
    _require(sorted(acc) == list(EVAL_KS), f"cutoffs {sorted(acc)}, expected {list(EVAL_KS)}")
    vals = [acc[k] for k in EVAL_KS]
    _require(all(0.0 <= a <= 1.0 for a in vals), f"accuracy outside [0, 1]: {vals}")
    _require(vals == sorted(vals), f"Top-k accuracy not monotone in k: {vals}")
    return {f"{prefix}_top{k}": (acc[k], "ratio") for k in EVAL_KS}


def check_analogy(stdout: str, n_questions: int) -> dict[str, tuple[float, str]]:
    """Every question is scored once and accuracy lies in [0, 1]."""
    row = next((line for line in stdout.splitlines() if line.startswith("unit-analogy\t")), None)
    _require(row is not None, "analogy report has no unit-analogy row")
    _, correct, total, acc = row.split("\t")
    _require(int(total) == n_questions, f"{total} questions scored, expected {n_questions}")
    _require(0.0 <= float(acc) <= 1.0 and int(correct) <= int(total), "bad analogy accuracy")
    return {"analogy_acc": (float(acc), "ratio")}


# ---------------------------------------------------------------------------
# workloads


class Mine:
    name = "mine"

    def setup(self, seed: int, d: Path, run_cli: RunCli) -> None:
        lines, self.phrases = zipf_corpus(np.random.default_rng([seed, 1]))
        write_lines(d / "corpus.txt", lines)

    def stages(self, d: Path) -> list[Stage]:
        table = d / "table.tsv"
        return [
            Stage(
                "extract-ngrams",
                ["extract-ngrams", "--corpus", str(d / "corpus.txt"), "--n-max", "6",
                 "--top-k", "3000", "--out", str(table)],
                items=MINE_TOKENS,
                throughput="mine_tokens_per_s",
                check=lambda out: check_table(out, table, self.phrases),
                digests=[table, d / "table.tsv.vocab"],
            )
        ]


def _mine_unit_table(d: Path, run_cli: RunCli) -> None:
    """The 100 within-unit bigrams, as in the compositional experiment."""
    out = run_cli(["extract-ngrams", "--corpus", str(d / "train.txt"), *UNIT_TABLE_FLAGS,
                   "--out", str(d / "table.tsv")])
    n = int(_stdout_value(out, "ngrams"))
    _require(n == N_UNITS, f"unit table has {n} entries, expected {N_UNITS}")


def _train_args(d: Path, seed: int, steps: int, out: Path) -> list[str]:
    return ["train", "--corpus", str(d / "train.txt"), "--table", str(d / "table.tsv"),
            "--vocab", str(d / "table.tsv.vocab"), "--total-steps", str(steps),
            *TRAIN_FLAGS, "--seed", str(seed), "--out", str(out)]


class Train:
    name = "train"

    def setup(self, seed: int, d: Path, run_cli: RunCli) -> None:
        orders = unit_orders(np.random.default_rng([seed, 2]), TRAIN_SENTENCES, 2, 4)
        write_lines(d / "train.txt", [unit_sentence(u) for u in orders])
        _mine_unit_table(d, run_cli)
        self.seed = seed

    def stages(self, d: Path) -> list[Stage]:
        ckpt, metrics = d / "model.ckpt", d / "model.ckpt.metrics.tsv"
        return [
            Stage(
                "train",
                _train_args(d, self.seed, TRAIN_STEPS, ckpt),
                items=TRAIN_STEPS,
                throughput="train_steps_per_s",
                check=lambda out: check_metrics(metrics, TRAIN_STEPS),
                digests=[ckpt, metrics],
            )
        ]


class Eval:
    name = "eval"

    def setup(self, seed: int, d: Path, run_cli: RunCli) -> None:
        rng = np.random.default_rng([seed, 3])
        write_lines(d / "train.txt", [
            unit_sentence(u) for u in unit_orders(rng, EVAL_TRAIN_SENTENCES, 2, 4)
        ])
        docs = unit_orders(rng, EVAL_DOCS - EVAL_QUERIES, *EVAL_DOC_UNITS)
        hosts = [i for i in rng.permutation(len(docs)).tolist() if len(docs[i]) > 1]
        hosts = hosts[:EVAL_QUERIES]
        # Each query rotates the unit order of a host document.  The host
        # has a twin with the same words but its units cross-paired, which
        # BM25 scores the same as the host and only a unit-aware encoder
        # can rank below it.
        texts = [unit_sentence(u) for u in docs] + [
            " ".join(f"si{a} xu{b}" for a, b in zip(docs[i], docs[i][1:] + docs[i][:1]))
            for i in hosts
        ]
        # Ids in random order, so that BM25's ties between a host and its
        # twin (broken by ascending id) favour neither.
        ids = [f"d{i}" for i in rng.permutation(len(texts)).tolist()]
        write_lines(d / "texts.txt", texts)
        write_lines(d / "docs.tsv", [f"{i}\t{t}" for i, t in zip(ids, texts)])
        shifts = rng.integers(1, EVAL_DOC_UNITS[1], size=EVAL_QUERIES)
        write_lines(d / "queries.tsv", [
            f"{unit_sentence(np.roll(docs[i], int(s) % (len(docs[i]) - 1) + 1).tolist())}"
            f"\t{ids[i]}"
            for i, s in zip(hosts, shifts)
        ])
        write_lines(d / "analogy.tsv", scrambled_analogies(rng, EVAL_ANALOGIES))
        _mine_unit_table(d, run_cli)
        run_cli(_train_args(d, seed, EVAL_TRAIN_STEPS, d / "model.ckpt"))

    def stages(self, d: Path) -> list[Stage]:
        model = ["--checkpoint", str(d / "model.ckpt"), "--vocab", str(d / "table.tsv.vocab"),
                 "--pooling", "mean"]
        retrieval = ["eval-retrieval", "--corpus", str(d / "docs.tsv"),
                     "--queries", str(d / "queries.tsv"),
                     "--ks", ",".join(str(k) for k in EVAL_KS)]
        emb = d / "embeddings.txt"
        return [
            Stage(
                "embed",
                ["embed", *model, "--texts", str(d / "texts.txt"), "--out", str(emb)],
                items=EVAL_DOCS,
                throughput="embed_texts_per_s",
                check=lambda out: check_embeddings(emb, EVAL_DOCS),
                digests=[emb],
            ),
            Stage(
                "eval-retrieval-model",
                [*retrieval, "--backend", "model", *model],
                items=EVAL_QUERIES,
                throughput="retrieval_queries_per_s",
                check=lambda out: check_topk(out, "retrieval"),
            ),
            Stage(
                "eval-retrieval-bm25",
                [*retrieval, "--backend", "bm25"],
                items=EVAL_QUERIES,
                throughput="bm25_queries_per_s",
                check=lambda out: check_topk(out, "bm25"),
            ),
            Stage(
                "eval-analogy",
                ["eval-analogy", "--dataset", str(d / "analogy.tsv"), *model],
                items=EVAL_ANALOGIES,
                throughput="analogy_questions_per_s",
                check=lambda out: check_analogy(out, EVAL_ANALOGIES),
            ),
        ]


WORKLOADS = {w.name: w for w in (Mine, Train, Eval)}
