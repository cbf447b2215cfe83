"""Span tracing of one ``ulrlab`` CLI stage, and the per-layer metrics.

Run as ``python bench/tracer.py SPANS.json ARGS...`` with ``src`` on
``PYTHONPATH``: the script wraps each layer's public functions under the
names their callers look them up by (the modules import by name, so
``ulrlab.cli.count_ngrams`` is patched, not ``ulrlab.ngram.count_ngrams``),
runs ``ulrlab.cli.main(ARGS)`` in this process inside a root span, and
writes the spans to SPANS.json when the stage ends.  A span is
``[name, start, end, parent index, attrs]``; the part of a span's time
that no child span covers is its self time.  Nothing under ``src/``
changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

LAYERS = ("cli", "corpus", "ngram", "encoder", "training", "evaluation")


def _forward_attrs(args, kwargs, result):
    ids = np.asarray(args[2] if len(args) > 2 else kwargs["ids"])
    mask = args[3] if len(args) > 3 else kwargs.get("mask")
    real = ids.size if mask is None else int(np.count_nonzero(mask))
    return {"positions": int(ids.size), "real": real}


def _select_attrs(args, kwargs, result):
    return {"variants": sum(len(ann.spans) for _, ann in args[0])}


def _prepare_attrs(args, kwargs, result):
    return {"misad": result.n_misad, "examples": result.n_examples, "masked": result.n_masked}


# (owner, attribute, span name, attrs) - owner is the namespace the caller
# looks the name up in: a module for functions, a class for methods.
PATCHES: list[tuple[str, str, str, Callable | None]] = [
    ("ulrlab.corpus", "tokenize", "corpus.tokenize", None),
    ("ulrlab.corpus.Vocabulary", "load", "corpus.vocab", None),
    ("ulrlab.corpus.Vocabulary", "save", "corpus.vocab", None),
    ("ulrlab.cli", "read_corpus", "corpus.read", None),
    ("ulrlab.cli", "tokenize", "corpus.tokenize", None),
    ("ulrlab.cli", "build_vocabulary", "corpus.vocab", None),
    ("ulrlab.cli", "encode", "corpus.encode", None),
    ("ulrlab.cli", "count_ngrams", "ngram.count", None),
    ("ulrlab.cli", "build_table", "ngram.score", lambda a, k, r: {"entries": len(r)}),
    ("ulrlab.cli", "prune_table", "ngram.prune", lambda a, k, r: {"entries": len(r)}),
    ("ulrlab.cli", "length_histogram", "ngram.hist", None),
    ("ulrlab.cli", "save_table", "ngram.save", None),
    ("ulrlab.cli", "load_table", "ngram.load", None),
    ("ulrlab.cli", "save_checkpoint", "encoder.ckpt_save", None),
    ("ulrlab.cli", "embed_corpus", "evaluation.embed_corpus", None),
    ("ulrlab.cli", "retrieve_topk", "evaluation.dense_rank", None),
    ("ulrlab.cli", "bm25_rank", "evaluation.bm25", None),
    ("ulrlab.cli", "evaluate_analogy", "evaluation.analogy", None),
    ("ulrlab.cli", "read_analogy_file", "evaluation.read", None),
    ("ulrlab.cli", "read_retrieval_corpus", "evaluation.read", None),
    ("ulrlab.cli", "read_retrieval_queries", "evaluation.read", None),
    ("ulrlab.cli", "topk_accuracy", "evaluation.topk", None),
    ("ulrlab.encoder.Model", "init", "encoder.init", None),
    ("ulrlab.training", "mark_sequence", "ngram.mark", lambda a, k, r: {"spans": len(r)}),
    ("ulrlab.training", "forward", "encoder.forward", _forward_attrs),
    ("ulrlab.training", "backward", "encoder.backward", None),
    ("ulrlab.training", "mlm_head_rows", "encoder.mlm_head", None),
    ("ulrlab.training", "mlm_head_rows_backward", "encoder.mlm_head", None),
    ("ulrlab.training", "_pool_with_cache", "encoder.pool", None),
    ("ulrlab.training", "pool_backward", "encoder.pool", None),
    ("ulrlab.training", "make_examples", "training.select", _select_attrs),
    ("ulrlab.training", "train_step", "training.update", None),
    ("ulrlab.training", "prepare_batch", "training.prepare", _prepare_attrs),
    ("ulrlab.training", "loss_and_gradients", "training.loss_grad", None),
    ("ulrlab.training", "adam_step", "training.adam", None),
    ("ulrlab.training", "write_metrics", "training.write", None),
    ("ulrlab.training.Trainer", "__init__", "training.setup", None),
    ("ulrlab.training.Trainer", "run", "training.run", None),
    ("ulrlab.evaluation", "tokenize", "corpus.tokenize", None),
    ("ulrlab.evaluation", "encode", "corpus.encode", None),
    ("ulrlab.evaluation", "forward", "encoder.forward", _forward_attrs),
    ("ulrlab.evaluation", "pool", "encoder.pool", None),
    ("ulrlab.evaluation", "load_checkpoint", "encoder.ckpt_load", None),
    ("ulrlab.evaluation.ModelEmbedder", "embed_many", "evaluation.embed", None),
]

# Generator functions: the wrapper drains them inside the span.  Their
# only caller, the CLI, turns the result into a list straight away.
GENERATORS = {"read_corpus"}


class Tracer:
    """Spans kept in memory, in the order they start."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack = [-1]
        self.embedded_texts: set[str] = set()

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1], None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def _embed_attrs(self, args, kwargs, result):
        texts = args[1]
        self.embedded_texts.update(texts)
        return {"texts": len(texts)}

    def install(self) -> None:
        for owner_path, attr, name, attrs in PATCHES:
            owner = _resolve(owner_path)
            raw = inspect.getattr_static(owner, attr)
            if name == "evaluation.embed":
                attrs = self._embed_attrs
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, attrs)))
                continue
            fn = raw
            if attr in GENERATORS:
                gen = raw
                fn = functools.wraps(gen)(lambda *a, _gen=gen, **k: iter(list(_gen(*a, **k))))
            setattr(owner, attr, self.wrap(name, fn, attrs))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "unique_texts": len(self.embedded_texts)}, fh)


def _resolve(path: str):
    """Module or module-level class named by a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(path)


# ---------------------------------------------------------------------------
# analysis


class TraceError(Exception):
    """Spans that do not nest, or self times that do not add up."""


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children lie inside their parent and
    never overlap each other; both are checked.
    """
    own = [end - start for _, start, end, _, _ in spans]
    last_end: dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if parent < 0:
            continue
        p_name, p_start, p_end, _, _ = spans[parent]
        if not (p_start <= start <= end <= p_end) or start < last_end.get(parent, p_start):
            raise TraceError(f"span {name} does not nest inside {p_name}")
        last_end[parent] = end
        own[parent] -= end - start
    return own


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def _median_ms(durations: list[float]) -> float:
    return 1000.0 * float(np.median(durations)) if durations else 0.0


def layer_metrics(stages: list[tuple[float, dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``stages`` holds, per stage, its wall time measured from outside the
    process and its span dump.  ``*_s`` metrics are summed self times;
    ``*_ms`` metrics are medians of one span's duration per training
    step; the rest are counts and ratios.  Layer self times plus
    ``process.self_s`` (interpreter start-up, imports, writing the
    spans) add up to ``trace.wall_s``.
    """
    self_s: dict[str, float] = defaultdict(float)
    forward_by_parent: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    sums: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    wall = process = 0.0
    n_spans = 0
    for stage_wall, dump in stages:
        spans = dump["spans"]
        own = self_times(spans)
        roots = [i for i, s in enumerate(spans) if s[3] < 0]
        if len(roots) != 1 or spans[roots[0]][0] != "cli.main":
            raise TraceError("a stage must have exactly one cli.main root span")
        root_dur = spans[roots[0]][2] - spans[roots[0]][1]
        if abs(sum(own) - root_dur) > 1e-6 * max(1.0, len(spans)):
            raise TraceError("self times do not add up to the root span")
        wall += stage_wall
        process += stage_wall - root_dur
        n_spans += len(spans)
        sums["unique_texts"] += dump["unique_texts"]
        for (name, start, end, parent, attrs), s in zip(spans, own):
            self_s[name] += s
            calls[name] += 1
            durations[name].append(end - start)
            for key, value in (attrs or {}).items():
                sums[f"{name}.{key}"] += value
            if name == "encoder.forward":
                forward_by_parent[spans[parent][0]] += s

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    steps = [a + b for a, b in zip(durations["training.select"], durations["training.update"])]
    m = {
        "corpus.read_s": self_s["corpus.read"],
        "corpus.tokenize_s": self_s["corpus.tokenize"],
        "corpus.vocab_s": self_s["corpus.vocab"],
        "corpus.encode_s": self_s["corpus.encode"],
        "ngram.count_s": self_s["ngram.count"],
        "ngram.score_s": self_s["ngram.score"],
        "ngram.prune_s": self_s["ngram.prune"],
        "ngram.hist_s": self_s["ngram.hist"],
        "ngram.save_s": self_s["ngram.save"],
        "ngram.load_s": self_s["ngram.load"],
        "ngram.mark_s": self_s["ngram.mark"],
        "ngram.raw_entries": sums["ngram.score.entries"],
        "ngram.kept_entries": sums["ngram.prune.entries"],
        "ngram.kept_ratio": ratio(sums["ngram.prune.entries"], sums["ngram.score.entries"]),
        "ngram.spans_per_seq": ratio(sums["ngram.mark.spans"], calls["ngram.mark"]),
        "encoder.forward_s": self_s["encoder.forward"],
        "encoder.forward_select_s": forward_by_parent["training.select"],
        "encoder.forward_loss_s": forward_by_parent["training.loss_grad"],
        "encoder.forward_eval_s": forward_by_parent["evaluation.embed"],
        "encoder.backward_s": self_s["encoder.backward"],
        "encoder.mlm_head_s": self_s["encoder.mlm_head"],
        "encoder.pool_s": self_s["encoder.pool"],
        "encoder.ckpt_save_s": self_s["encoder.ckpt_save"],
        "encoder.ckpt_load_s": self_s["encoder.ckpt_load"],
        "encoder.forward_calls": calls["encoder.forward"],
        "encoder.forward_positions": sums["encoder.forward.positions"],
        "encoder.pad_ratio": ratio(sums["encoder.forward.real"], sums["encoder.forward.positions"]),
        "training.step_ms_p50": 1000.0 * float(np.percentile(steps, 50)) if steps else 0.0,
        "training.step_ms_p90": 1000.0 * float(np.percentile(steps, 90)) if steps else 0.0,
        "training.select_ms": _median_ms(durations["training.select"]),
        "training.prepare_ms": _median_ms(durations["training.prepare"]),
        "training.loss_grad_ms": _median_ms(durations["training.loss_grad"]),
        "training.adam_ms": _median_ms(durations["training.adam"]),
        "training.span_variants_per_step": ratio(
            sums["training.select.variants"], calls["training.select"]
        ),
        "training.misad_share": ratio(
            sums["training.prepare.misad"], sums["training.prepare.examples"]
        ),
        "training.n_masked": ratio(sums["training.prepare.masked"], calls["training.prepare"]),
        "evaluation.embed_s": self_s["evaluation.embed"] + self_s["evaluation.embed_corpus"],
        "evaluation.embed_calls": calls["evaluation.embed"],
        "evaluation.unique_text_ratio": ratio(
            sums["unique_texts"], sums["evaluation.embed.texts"]
        ),
        "evaluation.dense_rank_s": self_s["evaluation.dense_rank"],
        "evaluation.bm25_s": self_s["evaluation.bm25"],
        "evaluation.analogy_s": self_s["evaluation.analogy"],
        "process.self_s": process,
        "trace.wall_s": wall,
        "trace.spans": n_spans,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + process
    if abs(total - wall) > 1e-6 * max(1.0, n_spans):
        raise TraceError(f"layer self times add up to {total}, traced wall is {wall}")
    return m


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from ulrlab.cli import main as cli_main

    try:
        return tracer.wrap("cli.main", cli_main)(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
