"""The benchmark's layer tracer patches names that still exist, and a
traced run of the CLI still records every span the per-layer metrics read."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ulrlab

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _, _ in tracer.PATCHES]
)
def test_patch_target_resolves(owner, attr):
    inspect.getattr_static(tracer._resolve(owner), attr)


def traced_spans(tmp_path, *argv):
    """Run one CLI stage under ``bench/tracer.py``; return its spans."""
    spans_path = tmp_path / f"{argv[0]}.spans.json"
    src = str(Path(ulrlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text())["spans"]


def test_traced_train_and_embed(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("red fox jumps over the lazy dog\nblue bird sings in the old tree\n" * 8)
    table, ckpt = tmp_path / "table.tsv", tmp_path / "m.ckpt"
    vocab = tmp_path / "table.tsv.vocab"
    traced_spans(tmp_path, "extract-ngrams", "--corpus", corpus, "--min-count", "1",
                      "--n-max", "3", "--out", table)
    train = traced_spans(
        tmp_path, "train", "--corpus", corpus, "--table", table, "--vocab", vocab,
        "--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--d-ff", "32",
        "--max-len", "16", "--total-steps", "3", "--batch-size", "4", "--out", ckpt,
    )
    names = [name for name, *_ in train]
    # Every training-side name the tracer patches is still called by that
    # name: a pinned name that stops being called fails here, not only as a
    # per-layer metric that reads zero.
    for owner, attr, span, _ in tracer.PATCHES:
        if owner.startswith("ulrlab.training"):
            assert span in names, f"{owner}.{attr}"
    assert names.count("ngram.mark") == 16  # once per corpus line
    for span in ("training.select", "training.prepare", "training.update", "training.adam"):
        assert names.count(span) == 3, span  # once per step
    assert names.count("encoder.backward") >= 3
    forward_parents = {train[parent][0] for name, _, _, parent, _ in train
                       if name == "encoder.forward"}
    assert {"training.select", "training.loss_grad"} <= forward_parents
    prepared = [attrs for name, _, _, _, attrs in train if name == "training.prepare"]
    assert all(attrs["examples"] == 4 and attrs["masked"] >= 0 and 0 <= attrs["misad"] <= 4
               for attrs in prepared)
    texts = tmp_path / "texts.txt"
    texts.write_text("red fox\nblue bird sings\n")
    embed = traced_spans(tmp_path, "embed", "--checkpoint", ckpt, "--vocab", vocab,
                              "--texts", texts, "--out", tmp_path / "e.txt")
    assert "evaluation.embed" in [name for name, *_ in embed]
    docs, queries = tmp_path / "docs.tsv", tmp_path / "queries.tsv"
    docs.write_text("d0\tred fox jumps\nd1\tblue bird sings\nd2\tthe lazy dog\n")
    queries.write_text("red fox\td0\nold tree\td1,d2\n")
    retrieval = traced_spans(tmp_path, "eval-retrieval", "--backend", "model",
                             "--checkpoint", ckpt, "--vocab", vocab, "--corpus", docs,
                             "--queries", queries, "--ks", "1,2")
    names = [name for name, *_ in retrieval]
    assert names.count("evaluation.dense_rank") == 1
    # The tracer wraps ``ulrlab.corpus.tokenize`` before ``ulrlab.evaluation``
    # imports it, and then wraps that import again: each call records a
    # span inside a second one.  Count the outer spans.
    tokenized = [name for name, _, _, parent, _ in retrieval
                 if name == "corpus.tokenize" and retrieval[parent][0] != name]
    assert len(tokenized) == 5  # one per corpus and query line
