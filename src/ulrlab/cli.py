"""Command-line pipelines: n-gram extraction, training, evaluation, embedding.

Every command resolves its settings the same way: built-in defaults
(for ``train``, the field defaults of ``EncoderConfig`` and
``TrainingConfig``), then a flat ``key = value`` config file, then
command-line flags (flags win).  Unknown config keys are rejected, and
so is a config-file value outside its setting's choices, as argparse
rejects such a flag.  The fully resolved config is echoed to stderr.
Only ``train`` draws random numbers, all from its one seed; the other
commands are deterministic — so a rerun with the same config reproduces
artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Callable, get_type_hints

from .corpus import (
    NUM_SPECIALS,
    Vocabulary,
    atomic_open,
    build_vocabulary,
    encode,
    open_text,
    read_corpus,
    tokenize,
)
from .encoder import (
    POOLING_STRATEGIES,
    CheckpointError,
    EncoderConfig,
    Model,
    save_checkpoint,
)
from .evaluation import (
    ModelEmbedder,
    WordVectorEmbedder,
    bm25_rank,
    embed_corpus,
    evaluate_analogy,
    read_analogy_file,
    read_retrieval_corpus,
    read_retrieval_queries,
    read_word_vectors,
    retrieve_topk,
    topk_accuracy,
    topk_accuracy_by_group,
)
from .ngram import (
    build_table,
    count_ngrams,
    inject_entities,
    length_histogram,
    load_table,
    prune_table,
    read_entity_file,
    save_table,
)
from .training import Trainer, TrainingConfig


class CliError(RuntimeError):
    """A user-facing command failure (bad input, bad config)."""


# ---------------------------------------------------------------------------
# config resolution


def _int_or_none(text: str):
    return None if text.strip().lower() == "none" else int(text)


@dataclass(frozen=True)
class Setting:
    """One config key: its converter, default and command-line flag.

    The flag is ``--`` plus the key with dashes, unless ``flag`` names it.
    """

    convert: Callable[[str], Any]
    default: Any = None
    required: bool = False
    help: str | None = None
    flag: str | None = None
    choices: tuple[str, ...] | None = None


def _config_settings(*configs: type) -> dict[str, Setting]:
    """One setting per config field but ``vocab_size``, converted by the field's type,
    defaulted by its default (required if none), with ``choices`` from its metadata;
    a field that two configs share is one setting."""
    settings = {}
    for config in configs:
        types = get_type_hints(config)
        for f in fields(config):
            if f.name != "vocab_size":
                settings[f.name] = Setting(
                    types[f.name], None if f.default is MISSING else f.default,
                    required=f.default is MISSING, choices=f.metadata.get("choices"),
                )
    return settings


OUT_HELP = "primary output path"
POOLING = Setting(str, "mean", choices=POOLING_STRATEGIES)

# Each command's keys in the order its --help lists them.
COMMAND_SETTINGS: dict[str, dict[str, Setting]] = {
    "extract-ngrams": {
        "out": Setting(str, required=True, help=OUT_HELP),
        "corpus": Setting(str, required=True, help="input corpus, one document per line"),
        "n_max": Setting(int, 6, help="longest n-gram length"),
        "pmi_threshold": Setting(float, 0.0, flag="--threshold",
                                 help="global PMI threshold (strictly greater-than)"),
        "per_doc_top_k": Setting(_int_or_none, 3000, flag="--top-k",
                                 help="per-document top-K cap, or 'none'"),
        "min_count": Setting(int, 5),
        "max_size": Setting(int, 50_000),
        "entities": Setting(str, help="privileged entity n-grams, one per line"),
        "vocab_out": Setting(str, help="vocabulary output path"),
    },
    "train": {
        "out": Setting(str, required=True, help=OUT_HELP),
        "corpus": Setting(str, required=True),
        "table": Setting(str, required=True, help="n-gram table file"),
        "vocab": Setting(str, required=True, help="vocabulary file"),
        "metrics_out": Setting(str),
        **_config_settings(EncoderConfig, TrainingConfig),
    },
    "eval-analogy": {
        "out": Setting(str, help=OUT_HELP),
        "dataset": Setting(str, required=True, help="analogy TSV file"),
        "checkpoint": Setting(str),
        "vocab": Setting(str),
        "vectors": Setting(str, help="static word-vector file"),
        "pooling": POOLING,
    },
    "eval-retrieval": {
        "out": Setting(str, help=OUT_HELP),
        "backend": Setting(str, required=True, choices=("model", "vectors", "bm25")),
        "corpus": Setting(str, required=True, help="retrieval corpus TSV (id, text)"),
        "queries": Setting(str, required=True, help="queries TSV (text, gold ids)"),
        "checkpoint": Setting(str),
        "vocab": Setting(str),
        "vectors": Setting(str),
        "pooling": POOLING,
        "ks": Setting(str, "1,5,10", help="comma-separated cutoffs"),
        "group_by_length": Setting(_int_or_none, help="bucket queries by token count"),
    },
    "embed": {
        "out": Setting(str, help=OUT_HELP),
        "checkpoint": Setting(str, required=True),
        "vocab": Setting(str, required=True),
        "texts": Setting(str, required=True, help="input texts, one per line"),
        "pooling": POOLING,
    },
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and # comments allowed."""
    settings: dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise CliError(f"{path}:{lineno}: empty key")
            if key in settings:
                raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
            settings[key] = value.strip()
    return settings


def resolve_config(command: str, args: argparse.Namespace) -> dict[str, Any]:
    """Merge defaults <- config file <- flags; reject unknown keys."""
    known = COMMAND_SETTINGS[command]
    resolved = {key: s.default for key, s in known.items()}
    if getattr(args, "config", None):
        file_settings = parse_config_file(args.config)
        unknown = sorted(set(file_settings) - set(known))
        if unknown:
            raise CliError(
                f"unknown config key(s) for {command}: {', '.join(unknown)}"
            )
        for key, text in file_settings.items():
            choices = known[key].choices
            try:
                resolved[key] = known[key].convert(text)
            except ValueError as exc:
                raise CliError(f"config key {key!r}: bad value {text!r} ({exc})")
            if choices is not None and resolved[key] not in choices:
                raise CliError(
                    f"config key {key!r}: bad value {text!r}; valid values: {', '.join(choices)}"
                )
    resolved.update((key, value) for key, value in vars(args).items() if key in known)
    missing = sorted(k for k, s in known.items() if s.required and resolved[k] is None)
    if missing:
        raise CliError(f"missing required setting(s) for {command}: {', '.join(missing)}")
    echo = "\n".join(f"{k} = {resolved[k]}" for k in sorted(resolved))
    print(f"# resolved config ({command})\n{echo}", file=sys.stderr)
    return resolved


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with atomic_open(out) as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_extract_ngrams(cfg: dict[str, Any]) -> int:
    for flag, key, least in (("--n-max", "n_max", 2), ("--top-k", "per_doc_top_k", 1),
                             ("--min-count", "min_count", 1),
                             ("--max-size", "max_size", NUM_SPECIALS + 1)):
        if cfg[key] is not None and cfg[key] < least:
            raise CliError(f"{flag} must be >= {least}, got {cfg[key]}")
    if math.isnan(cfg["pmi_threshold"]):
        raise CliError("--threshold must be a number, got nan")
    docs = list(read_corpus(cfg["corpus"]))
    vocab = build_vocabulary(docs, min_count=cfg["min_count"], max_size=cfg["max_size"])
    encoded = [encode(tokens, vocab) for tokens in docs]
    table = build_table(count_ngrams(encoded, n_max=cfg["n_max"]))
    if cfg["entities"]:
        table = inject_entities(table, read_entity_file(cfg["entities"], vocab))
    table = prune_table(
        table, pmi_threshold=cfg["pmi_threshold"], per_doc_top_k=cfg["per_doc_top_k"]
    )
    vocab_out = cfg["vocab_out"] or f"{cfg['out']}.vocab"
    vocab.save(vocab_out)
    save_table(table, vocab, cfg["out"])
    hist = length_histogram(table, top_n=2000)
    hist_text = " ".join(f"{n}:{c}" for n, c in sorted(hist.items()))
    for stage, n in table.stage_counts:
        print(f"entries {stage} = {n}")
    print(f"ngrams = {len(table)}")
    print(f"top-2000 length histogram = {hist_text or '(empty)'}")
    print(f"table written to {cfg['out']}; vocabulary to {vocab_out}")
    return 0


def cmd_train(cfg: dict[str, Any]) -> int:
    train_config = TrainingConfig(**{f.name: cfg[f.name] for f in fields(TrainingConfig)})
    vocab = Vocabulary.load(cfg["vocab"])
    sequences = [encode(tokens, vocab) for tokens in read_corpus(cfg["corpus"])]
    table = load_table(cfg["table"], vocab)
    enc_config = EncoderConfig(
        vocab_size=len(vocab),
        **{f.name: cfg[f.name] for f in fields(EncoderConfig) if f.name != "vocab_size"},
    )
    model = Model.init(enc_config)
    trainer = Trainer(model, table, sequences, train_config)
    metrics_path = cfg["metrics_out"] or f"{cfg['out']}.metrics.tsv"
    rows = trainer.run(metrics_path=metrics_path)
    save_checkpoint(model.params, enc_config, cfg["out"])
    first, last = rows[0], rows[-1]
    print(f"steps = {len(rows)}")
    print(f"l_total first = {first[3]:.9g}, last = {last[3]:.9g}")
    print(f"checkpoint written to {cfg['out']}; metrics to {metrics_path}")
    return 0


def _build_embedder(cfg: dict[str, Any], backend: str, used_by: str):
    """The embedder of ``backend``, "vectors", "model" or "bm25" (None); unused sources fail."""
    for key, user in (("vectors", "vectors"), ("checkpoint", "model"), ("vocab", "model")):
        if cfg.get(key) and backend != user:
            raise CliError(f"--{key} is not used with {used_by}")
    if backend == "vectors" and cfg["vectors"]:
        return WordVectorEmbedder(read_word_vectors(cfg["vectors"]))
    if cfg["checkpoint"]:
        if not cfg["vocab"]:
            raise CliError("a checkpoint embedder needs a vocab file (--vocab)")
        vocab = Vocabulary.load(cfg["vocab"])
        return ModelEmbedder.from_checkpoint(cfg["checkpoint"], vocab, pooling=cfg["pooling"])
    if backend != "bm25":
        source = "--vectors" if backend == "vectors" else "--checkpoint (with --vocab)"
        raise CliError(f"no embedder source: pass {source}")


def cmd_eval_analogy(cfg: dict[str, Any]) -> int:
    questions = read_analogy_file(cfg["dataset"])
    if not cfg["vectors"] and not cfg["checkpoint"]:
        raise CliError("no embedder source: pass --checkpoint (with --vocab) or --vectors")
    embedder = _build_embedder(cfg, "vectors" if cfg["vectors"] else "model", "--vectors")
    report = evaluate_analogy(questions, embedder)
    lines = ["category\tcorrect\ttotal\taccuracy"]
    for name in sorted(report.per_category):
        res = report.per_category[name]
        lines.append(f"{name}\t{res.correct}\t{res.total}\t{res.accuracy:.4f}")
    for label, side in (("sem", report.semantic), ("syn", report.syntactic)):
        if side is not None:
            lines.append(f"{label}\t{side.correct}\t{side.total}\t{side.accuracy:.4f}")
    if report.average is not None:
        lines.append(f"avg\t-\t-\t{report.average:.4f}")
    _write_or_print("\n".join(lines) + "\n", cfg["out"])
    return 0


def cmd_eval_retrieval(cfg: dict[str, Any]) -> int:
    ids, docs = zip(*read_retrieval_corpus(cfg["corpus"]))
    queries, gold_sets = zip(*read_retrieval_queries(cfg["queries"], ids))
    try:
        ks = sorted({int(k) for k in cfg["ks"].split(",") if k.strip()})
    except ValueError:
        raise CliError(f"ks must be comma-separated integers, got {cfg['ks']!r}") from None
    if not ks:
        raise CliError("ks must name at least one cutoff")
    bucket = cfg["group_by_length"]
    for name, value in (("ks", ks[0]), ("group_by_length", bucket)):
        if value is not None and value < 1:
            raise CliError(f"{name} must be >= 1, got {value}")
    depth = min(max(ks), len(ids))
    embedder = _build_embedder(cfg, cfg["backend"], f"--backend {cfg['backend']}")
    if embedder is None:
        rankings = bm25_rank(queries, docs, ids, depth)
    else:
        matrix = embed_corpus(docs, embedder)
        rankings = retrieve_topk(embed_corpus(queries, embedder), matrix, depth, ids=ids)
    acc = topk_accuracy(rankings, gold_sets, ks)
    lines = ["top_k\taccuracy"]
    for k in ks:
        lines.append(f"{k}\t{acc[k]:.4f}")
    if bucket is not None:
        groups = [((len(q) - 1) // bucket + 1) * bucket for q in queries]
        grouped = topk_accuracy_by_group(rankings, gold_sets, groups, ks)
        lines.append("group\ttop_k\taccuracy")
        for bound, acc_by_k in grouped.items():
            for k in ks:
                lines.append(f"len<={bound}\t{k}\t{acc_by_k[k]:.4f}")
    _write_or_print("\n".join(lines) + "\n", cfg["out"])
    return 0


def cmd_embed(cfg: dict[str, Any]) -> int:
    embedder = _build_embedder(cfg, "model", "embed")
    with open_text(cfg["texts"]) as fh:
        texts = [tuple(tokenize(line)) for line in fh]
    if not texts:
        raise CliError(f"{cfg['texts']}: no texts")
    for lineno, tokens in enumerate(texts, 1):
        if not tokens:
            raise CliError(f"{cfg['texts']}:{lineno}: text has no tokens")
    matrix = embed_corpus(texts, embedder)
    row_format = " ".join(["%.9g"] * matrix.shape[1]) + "\n"
    _write_or_print((row_format * len(matrix)) % tuple(matrix.ravel().tolist()), cfg["out"])
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulrlab",
        description="PMI n-gram mining, compositional encoder training, and "
        "analogy/retrieval evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "extract-ngrams": (cmd_extract_ngrams, "mine a pruned PMI n-gram table"),
        "train": (cmd_train, "train the encoder with the joint objective"),
        "eval-analogy": (cmd_eval_analogy, "score analogy questions"),
        "eval-retrieval": (cmd_eval_retrieval, "Top-k paraphrase retrieval"),
        "embed": (cmd_embed, "write one unit-norm vector per input line"),
    }
    for command, (func, help_text) in commands.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="flat key = value settings file")
        for key, s in COMMAND_SETTINGS[command].items():
            p.add_argument(s.flag or "--" + key.replace("_", "-"), dest=key,
                           type=s.convert, choices=s.choices, help=s.help)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(resolve_config(args.command, args))
    except (CliError, CheckpointError, FloatingPointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
