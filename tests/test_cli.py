"""End-to-end command-line runs, in process via main(argv)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ulrlab
from helpers import write_analogy_file, write_word_vectors
from ulrlab.cli import COMMAND_SETTINGS, build_parser, main, parse_config_file, resolve_config
from ulrlab.corpus import Vocabulary
from ulrlab.encoder import load_checkpoint
from ulrlab.evaluation import AnalogyQuestion, ModelEmbedder, embed_corpus

CORPUS_LINES = [
    "red fox jumps over the lazy dog",
    "red fox sleeps under the old tree",
    "blue bird sings in the old tree",
    "the lazy dog chases the blue bird",
    "red fox and blue bird share the tree",
] * 6


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    corpus.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def extracted(workspace):
    """A mined table + vocabulary shared by the train/eval tests."""
    table = workspace / "table.tsv"
    code = main([
        "extract-ngrams",
        "--corpus", str(workspace / "corpus.txt"),
        "--min-count", "1",
        "--n-max", "3",
        "--out", str(table),
    ])
    assert code == 0
    return {"table": table, "vocab": table.with_name("table.tsv.vocab")}


@pytest.fixture(scope="module")
def trained(workspace, extracted):
    ckpt = workspace / "run.ckpt"
    code = main([
        "train",
        "--corpus", str(workspace / "corpus.txt"),
        "--table", str(extracted["table"]),
        "--vocab", str(extracted["vocab"]),
        "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
        "--d-ff", "32", "--max-len", "16", "--dropout", "0.1",
        "--total-steps", "10", "--batch-size", "8", "--peak-lr", "1e-3",
        "--seed", "7",
        "--out", str(ckpt),
    ])
    assert code == 0
    return {"ckpt": ckpt, "metrics": ckpt.with_name("run.ckpt.metrics.tsv")}


class TestExtractNgrams:
    def test_reports_and_writes_artifacts(self, capsys, workspace, tmp_path):
        out = tmp_path / "t.tsv"
        code, stdout, stderr = run(capsys, [
            "extract-ngrams",
            "--corpus", str(workspace / "corpus.txt"),
            "--min-count", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert "ngrams = " in stdout
        assert "length histogram" in stdout
        assert "# resolved config (extract-ngrams)" in stderr
        assert out.exists() and out.with_name("t.tsv.vocab").exists()
        header = out.read_text().splitlines()[0]
        assert header == "tokens\tcount\tpmi"

    @pytest.mark.parametrize("top_k", ["2", "none"])
    def test_reports_monotone_stage_counts(self, capsys, workspace, tmp_path, top_k):
        code, stdout, _ = run(capsys, [
            "extract-ngrams",
            "--corpus", str(workspace / "corpus.txt"),
            "--min-count", "1",
            "--n-max", "4",
            "--top-k", top_k,
            "--out", str(tmp_path / "t.tsv"),
        ])
        assert code == 0
        values = dict(line.split(" = ") for line in stdout.splitlines() if " = " in line)
        stages = ["entries counted", "entries above threshold"]
        if top_k != "none":
            stages.append("entries after per-document top-K")
        counts = [int(values[stage]) for stage in stages]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == int(values["ngrams"])
        if top_k != "none":
            assert counts[-1] < counts[-2]  # the cut binds on this corpus

    def test_rerun_is_byte_identical(self, capsys, workspace, tmp_path):
        args = [
            "extract-ngrams",
            "--corpus", str(workspace / "corpus.txt"),
            "--min-count", "1",
        ]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run(capsys, args + ["--out", str(a)])[0] == 0
        assert run(capsys, args + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_name("a.tsv.vocab").read_bytes() == b.with_name("b.tsv.vocab").read_bytes()

    def test_infinite_threshold_leaves_header_only(self, capsys, workspace, tmp_path):
        out = tmp_path / "empty.tsv"
        with pytest.warns(UserWarning):
            code, stdout, _ = run(capsys, [
                "extract-ngrams",
                "--corpus", str(workspace / "corpus.txt"),
                "--min-count", "1",
                "--threshold", "inf",
                "--out", str(out),
            ])
        assert code == 0
        assert "ngrams = 0" in stdout
        assert out.read_text() == "tokens\tcount\tpmi\n"

    def test_empty_corpus_fails_cleanly(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n")
        code, _, stderr = run(capsys, [
            "extract-ngrams", "--corpus", str(empty), "--out", str(tmp_path / "t.tsv"),
        ])
        assert code == 1
        assert stderr.splitlines()[-1].startswith("error:")

    def test_missing_required_setting(self, capsys, tmp_path):
        code, _, stderr = run(capsys, ["extract-ngrams", "--out", str(tmp_path / "t")])
        assert code == 1
        assert "missing required" in stderr and "corpus" in stderr


class TestConfigResolution:
    def test_config_file_supplies_values(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# mining settings\n"
            f"corpus = {workspace / 'corpus.txt'}\n"
            "min_count = 1\n"
            "n_max = 2\n"
        )
        out = tmp_path / "t.tsv"
        code, _, stderr = run(capsys, [
            "extract-ngrams", "--config", str(cfg), "--out", str(out),
        ])
        assert code == 0
        assert "n_max = 2" in stderr
        # n_max = 2 keeps only bigrams.
        lengths = {len(line.split("\t")[0].split())
                   for line in out.read_text().splitlines()[1:]}
        assert lengths <= {2}

    def test_flags_override_config(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {workspace / 'corpus.txt'}\nmin_count = 1\nn_max = 2\n")
        code, _, stderr = run(capsys, [
            "extract-ngrams", "--config", str(cfg), "--n-max", "4",
            "--out", str(tmp_path / "t.tsv"),
        ])
        assert code == 0
        assert "n_max = 4" in stderr

    def test_unknown_config_key_rejected(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {workspace / 'corpus.txt'}\nmystery_knob = 3\n")
        code, _, stderr = run(capsys, [
            "extract-ngrams", "--config", str(cfg), "--out", str(tmp_path / "t.tsv"),
        ])
        assert code == 1
        assert "unknown config key" in stderr and "mystery_knob" in stderr

    @pytest.mark.parametrize("weight", ["0", "1"])
    def test_config_file_value_outside_choices_rejected(
        self, capsys, workspace, extracted, tmp_path, weight
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pooling_for_misad = foo\nmisad_weight = {weight}\n")
        out = tmp_path / "m.ckpt"
        code, _, stderr = run(capsys, [
            "train", "--config", str(cfg), "--corpus", str(workspace / "corpus.txt"),
            "--table", str(extracted["table"]), "--vocab", str(extracted["vocab"]),
            "--total-steps", "2", "--out", str(out),
        ])
        assert code == 1
        assert "'pooling_for_misad'" in stderr and "valid values: cls, mean, max" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("batch_size", ["0", "-1"])
    def test_bad_batch_size_rejected_before_training(
        self, capsys, workspace, extracted, tmp_path, batch_size
    ):
        out = tmp_path / "m.ckpt"
        code, _, stderr = run(capsys, [
            "train", "--corpus", str(workspace / "corpus.txt"),
            "--table", str(extracted["table"]), "--vocab", str(extracted["vocab"]),
            "--total-steps", "2", "--batch-size", batch_size, "--out", str(out),
        ])
        assert code == 1
        assert f"batch_size ({batch_size}) must be >= 1" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--peak-lr", "-1"), ("--misad-weight", "nan")])
    def test_bad_rate_or_weight_rejected_before_reading_input(
        self, capsys, tmp_path, flag, value
    ):
        missing = tmp_path / "absent"
        out = tmp_path / "m.ckpt"
        code, _, stderr = run(capsys, [
            "train", "--corpus", str(missing), "--table", str(missing),
            "--vocab", str(missing), "--total-steps", "2", flag, value, "--out", str(out),
        ])
        assert code == 1
        [error] = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert error.startswith(f"error: {flag[2:].replace('-', '_')} ({float(value)})")
        assert not out.exists()

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(Exception, match="key = value"):
            parse_config_file(cfg)

    def test_duplicate_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("n_max = 2\nn_max = 3\n")
        with pytest.raises(Exception, match="duplicate"):
            parse_config_file(cfg)


PARENT_FLAGS = {
    "extract-ngrams": "--corpus --entities --max-size --min-count --n-max --out "
                      "--threshold --top-k --vocab-out",
    "train": "--batch-size --corpus --d-ff --d-model --dropout --mask-rate --max-len "
             "--metrics-out --misad-weight --mlm-weight --n-heads --n-layers --out "
             "--peak-lr --pooling-for-misad --seed --table --total-steps --vocab "
             "--warmup-fraction",
    "eval-analogy": "--checkpoint --dataset --out --pooling --vectors --vocab",
    "eval-retrieval": "--backend --checkpoint --corpus --group-by-length --ks --out "
                      "--pooling --queries --vectors --vocab",
    "embed": "--checkpoint --out --pooling --texts --vocab",
}


def _file_and_flag_text(setting):
    """Two distinct values a setting accepts, for the file and the flag."""
    if setting.choices:
        return setting.choices[0], setting.choices[-1]
    if setting.convert is float:
        return "0.5", "0.25"
    if setting.convert is str:
        return "from-file", "from-flag"
    return "3", "7"


class TestEverySetting:
    @pytest.mark.parametrize("command", sorted(PARENT_FLAGS))
    def test_help_lists_the_same_flags(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", "--config", "--threads", *PARENT_FLAGS[command].split()}

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, settings in COMMAND_SETTINGS.items() for key in settings
    ])
    def test_flag_overrides_config_file(self, capsys, tmp_path, command, key):
        settings = COMMAND_SETTINGS[command]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {_file_and_flag_text(s)[0]}\n" for k, s in settings.items()))
        setting = settings[key]
        flag = setting.flag or "--" + key.replace("_", "-")
        flag_text = _file_and_flag_text(setting)[1]
        args = build_parser().parse_args([command, "--config", str(cfg), flag, flag_text])
        resolved = resolve_config(command, args)
        assert resolved[key] == setting.convert(flag_text)
        assert f"{key} = {setting.convert(flag_text)}" in capsys.readouterr().err.splitlines()


class TestSeedOnlyOnTrain:
    @pytest.mark.parametrize("command", [
        "extract-ngrams", "eval-analogy", "eval-retrieval", "embed",
    ])
    def test_seed_flag_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_seed_config_key_rejected_by_embed(self, capsys, tmp_path):
        cfg = tmp_path / "embed.cfg"
        cfg.write_text("seed = 1\n")
        code, _, stderr = run(capsys, ["embed", "--config", str(cfg)])
        assert code == 1
        assert "unknown config key" in stderr and "seed" in stderr


class TestTrain:
    def test_metrics_row_per_step(self, trained):
        lines = trained["metrics"].read_text().splitlines()
        assert lines[0] == "step\tl_misad\tl_mlm\tl_total\tlr"
        assert len(lines) == 11
        assert [int(l.split("\t")[0]) for l in lines[1:]] == list(range(1, 11))

    def test_checkpoint_loads_with_cli_architecture(self, trained):
        model = load_checkpoint(trained["ckpt"])
        assert model.config.d_model == 16
        assert model.config.n_layers == 1
        assert model.config.seed == 7

    def test_rerun_is_byte_identical(self, capsys, workspace, extracted, tmp_path):
        def train_to(path):
            code, _, _ = run(capsys, [
                "train",
                "--corpus", str(workspace / "corpus.txt"),
                "--table", str(extracted["table"]),
                "--vocab", str(extracted["vocab"]),
                "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
                "--d-ff", "32", "--max-len", "16",
                "--total-steps", "4", "--batch-size", "8",
                "--seed", "11",
                "--out", str(path),
            ])
            assert code == 0

        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        train_to(a)
        train_to(b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.ckpt.metrics.tsv").read_bytes() == \
            (tmp_path / "b.ckpt.metrics.tsv").read_bytes()

    def test_bad_architecture_fails_cleanly(self, capsys, workspace, extracted, tmp_path):
        code, _, stderr = run(capsys, [
            "train",
            "--corpus", str(workspace / "corpus.txt"),
            "--table", str(extracted["table"]),
            "--vocab", str(extracted["vocab"]),
            "--d-model", "10", "--n-heads", "3",
            "--total-steps", "2",
            "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 1
        assert "error:" in stderr


class TestEvalAnalogy:
    @pytest.fixture()
    def oracle_files(self, tmp_path):
        e = np.eye(6)
        vectors = {
            "alpha": e[0], "beta": e[1], "gamma": e[2],
            "delta": e[2] + e[1] - e[0],
            "noise1": e[3], "noise2": e[4],
        }
        vec_path = tmp_path / "vectors.txt"
        write_word_vectors(vectors, vec_path)
        questions = [
            AnalogyQuestion("capital-common", "alpha", "beta", "gamma",
                            ("delta", "noise1", "noise2"), 0),
            AnalogyQuestion("gram1-adj", "alpha", "beta", "gamma",
                            ("noise1", "delta"), 1),
        ]
        q_path = tmp_path / "questions.tsv"
        write_analogy_file(questions, q_path)
        return vec_path, q_path

    def test_oracle_fixture_scores_100(self, capsys, oracle_files, tmp_path):
        vec_path, q_path = oracle_files
        out = tmp_path / "report.tsv"
        code, _, _ = run(capsys, [
            "eval-analogy", "--dataset", str(q_path), "--vectors", str(vec_path),
            "--out", str(out),
        ])
        assert code == 0
        report = out.read_text()
        assert "capital-common\t1\t1\t1.0000" in report
        assert "sem\t1\t1\t1.0000" in report
        assert "syn\t1\t1\t1.0000" in report
        assert "avg\t-\t-\t1.0000" in report

    def test_stdout_when_no_out_flag(self, capsys, oracle_files):
        vec_path, q_path = oracle_files
        code, stdout, _ = run(capsys, [
            "eval-analogy", "--dataset", str(q_path), "--vectors", str(vec_path),
        ])
        assert code == 0
        assert stdout.startswith("category\tcorrect\ttotal\taccuracy")

    def test_no_embedder_source_fails(self, capsys, oracle_files):
        _, q_path = oracle_files
        code, _, stderr = run(capsys, ["eval-analogy", "--dataset", str(q_path)])
        assert code == 1
        assert "no embedder source" in stderr


class TestEvalRetrieval:
    @pytest.fixture()
    def retrieval_files(self, tmp_path):
        rng = np.random.default_rng(0)
        tokens = [f"tok{i}" for i in range(12)]
        vectors = {t: rng.normal(size=8) for t in tokens}
        vec_path = tmp_path / "vectors.txt"
        write_word_vectors(vectors, vec_path)
        docs = [
            ("d0", "tok0 tok1 tok2"),
            ("d1", "tok3 tok4 tok5"),
            ("d2", "tok6 tok7 tok8"),
            ("d3", "tok9 tok10 tok11"),
        ]
        corpus_path = tmp_path / "corpus.tsv"
        corpus_path.write_text(
            "\n".join(f"{i}\t{t}" for i, t in docs) + "\n", encoding="utf-8"
        )
        queries_path = tmp_path / "queries.tsv"
        queries_path.write_text(
            "\n".join(f"{t}\t{i}" for i, t in docs) + "\n", encoding="utf-8"
        )
        return vec_path, corpus_path, queries_path

    def test_self_retrieval_top1_is_one(self, capsys, retrieval_files, tmp_path):
        vec_path, corpus_path, queries_path = retrieval_files
        out = tmp_path / "acc.tsv"
        code, _, _ = run(capsys, [
            "eval-retrieval", "--backend", "vectors",
            "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--vectors", str(vec_path), "--ks", "1,2,4",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "top_k\taccuracy"
        assert lines[1] == "1\t1.0000"
        accs = [float(l.split("\t")[1]) for l in lines[1:4]]
        assert accs == sorted(accs)  # monotone in k

    def test_bm25_backend_hand_fixture(self, capsys, tmp_path):
        corpus_path = tmp_path / "c.tsv"
        corpus_path.write_text("d0\ta b a\nd1\tb c\n")
        queries_path = tmp_path / "q.tsv"
        # "b" prefers the shorter d1; "a" only matches d0.
        queries_path.write_text("b\td1\na\td0\n")
        out = tmp_path / "acc.tsv"
        code, _, _ = run(capsys, [
            "eval-retrieval", "--backend", "bm25",
            "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--ks", "1,2",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[1] == "1\t1.0000"

    def test_model_backend_self_retrieval(self, capsys, trained, extracted, tmp_path):
        corpus_path = tmp_path / "c.tsv"
        docs = [("d0", "red fox jumps"), ("d1", "blue bird sings"), ("d2", "lazy dog chases")]
        corpus_path.write_text("\n".join(f"{i}\t{t}" for i, t in docs) + "\n")
        queries_path = tmp_path / "q.tsv"
        queries_path.write_text("\n".join(f"{t}\t{i}" for i, t in docs) + "\n")
        out = tmp_path / "acc.tsv"
        code, _, _ = run(capsys, [
            "eval-retrieval", "--backend", "model",
            "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--checkpoint", str(trained["ckpt"]), "--vocab", str(extracted["vocab"]),
            "--ks", "1,3",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[1] == "1\t1.0000"

    def test_group_by_length_breakdown(self, capsys, retrieval_files, tmp_path):
        vec_path, corpus_path, queries_path = retrieval_files
        out = tmp_path / "acc.tsv"
        code, _, _ = run(capsys, [
            "eval-retrieval", "--backend", "vectors",
            "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--vectors", str(vec_path), "--ks", "1",
            "--group-by-length", "5",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "group\ttop_k\taccuracy" in text
        assert "len<=5\t1\t1.0000" in text

    @pytest.mark.parametrize("flags, setting", [
        (["--ks=-1"], "ks"),
        (["--ks", "0,1"], "ks"),
        (["--group-by-length=-2"], "group_by_length"),
        (["--group-by-length", "0"], "group_by_length"),
    ], ids=["ks-negative", "ks-zero", "group-negative", "group-zero"])
    def test_cutoffs_below_one_rejected(self, capsys, retrieval_files, flags, setting):
        vec_path, corpus_path, queries_path = retrieval_files
        code, stdout, stderr = run(capsys, [
            "eval-retrieval", "--backend", "vectors",
            "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--vectors", str(vec_path), *flags,
        ])
        assert code == 1
        assert stdout == ""
        assert f"error: {setting} " in stderr and "must be >= 1" in stderr

    def test_unknown_backend_lists_valid_ones(self, capsys, retrieval_files):
        vec_path, corpus_path, queries_path = retrieval_files
        with pytest.raises(SystemExit) as exc:
            main([
                "eval-retrieval", "--backend", "lucene",
                "--corpus", str(corpus_path), "--queries", str(queries_path),
            ])
        assert exc.value.code == 2
        stderr = capsys.readouterr().err
        assert "invalid choice: 'lucene'" in stderr
        assert re.search(r"choose from '?model'?, '?vectors'?, '?bm25", stderr)

    def test_unknown_backend_in_config_file_lists_valid_ones(
        self, capsys, retrieval_files, tmp_path
    ):
        vec_path, corpus_path, queries_path = retrieval_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("backend = lucene\n")
        code, stdout, stderr = run(capsys, [
            "eval-retrieval", "--config", str(cfg),
            "--corpus", str(corpus_path), "--queries", str(queries_path),
        ])
        assert code == 1 and stdout == ""
        assert "'backend'" in stderr and "valid values: model, vectors, bm25" in stderr


class TestEmbed:
    @pytest.fixture()
    def texts_file(self, tmp_path):
        path = tmp_path / "texts.txt"
        path.write_text("red fox jumps\nblue bird sings\nred fox jumps\n")
        return path

    def test_one_vector_per_line(self, capsys, trained, extracted, texts_file):
        code, stdout, _ = run(capsys, [
            "embed", "--checkpoint", str(trained["ckpt"]),
            "--vocab", str(extracted["vocab"]), "--texts", str(texts_file),
        ])
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == lines[2]  # identical inputs, identical vectors
        assert lines[0] != lines[1]
        vec = np.array([float(x) for x in lines[0].split()])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)

    def test_matches_library_embeddings(self, capsys, trained, extracted, texts_file):
        code, stdout, _ = run(capsys, [
            "embed", "--checkpoint", str(trained["ckpt"]),
            "--vocab", str(extracted["vocab"]), "--texts", str(texts_file),
            "--pooling", "mean",
        ])
        assert code == 0
        got = np.array(
            [[float(x) for x in line.split()] for line in stdout.strip().splitlines()]
        )
        vocab = Vocabulary.load(extracted["vocab"])
        embedder = ModelEmbedder.from_checkpoint(trained["ckpt"], vocab, pooling="mean")
        want = embed_corpus(texts_file.read_text().splitlines(), embedder)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_out_flag_writes_file(self, capsys, trained, extracted, texts_file, tmp_path):
        out = tmp_path / "vectors.txt"
        code, stdout, _ = run(capsys, [
            "embed", "--checkpoint", str(trained["ckpt"]),
            "--vocab", str(extracted["vocab"]), "--texts", str(texts_file),
            "--out", str(out),
        ])
        assert code == 0
        assert stdout == ""
        assert len(out.read_text().splitlines()) == 3

    def test_empty_line_fails_cleanly(self, capsys, trained, extracted, tmp_path):
        bad = tmp_path / "texts.txt"
        bad.write_text("red fox\n\nblue bird\n")
        code, _, stderr = run(capsys, [
            "embed", "--checkpoint", str(trained["ckpt"]),
            "--vocab", str(extracted["vocab"]), "--texts", str(bad),
        ])
        assert code == 1
        assert "error:" in stderr and "index 1" in stderr

    def test_unknown_pooling_rejected_by_parser(self, trained, extracted, texts_file):
        with pytest.raises(SystemExit):
            main([
                "embed", "--checkpoint", str(trained["ckpt"]),
                "--vocab", str(extracted["vocab"]), "--texts", str(texts_file),
                "--pooling", "sum",
            ])


def test_no_command_imports_scipy(workspace, tmp_path):
    # The encoder's GELU uses its own erf; importing scipy.special would
    # cost every process ~0.3 s and ~16 MB.
    corpus_path = tmp_path / "c.tsv"
    corpus_path.write_text("d0\tred fox jumps\nd1\tblue bird sings\n")
    queries_path = tmp_path / "q.tsv"
    queries_path.write_text("blue bird\td1\n")
    texts_path = tmp_path / "texts.txt"
    texts_path.write_text("red fox jumps\nblue bird sings\n")
    analogy_path = tmp_path / "analogy.tsv"
    write_analogy_file(
        [AnalogyQuestion("capital-common", "red", "fox", "blue", ("bird", "dog"), 0)],
        analogy_path,
    )
    table, ckpt = tmp_path / "t.tsv", tmp_path / "m.ckpt"
    model = ["--checkpoint", str(ckpt), "--vocab", str(tmp_path / "t.tsv.vocab")]
    retrieval = ["eval-retrieval", "--corpus", str(corpus_path), "--queries", str(queries_path)]
    runs = [
        ["extract-ngrams", "--corpus", str(workspace / "corpus.txt"),
         "--min-count", "1", "--n-max", "3", "--out", str(table)],
        ["train", "--corpus", str(workspace / "corpus.txt"), "--table", str(table),
         "--vocab", str(tmp_path / "t.tsv.vocab"), "--d-model", "16", "--n-heads", "2",
         "--n-layers", "1", "--d-ff", "32", "--max-len", "16",
         "--total-steps", "2", "--batch-size", "8", "--out", str(ckpt)],
        ["embed", *model, "--texts", str(texts_path), "--out", str(tmp_path / "e.txt")],
        ["eval-analogy", "--dataset", str(analogy_path), *model],
        [*retrieval, "--backend", "model", *model],
        [*retrieval, "--backend", "bm25"],
    ]
    script = (
        "import json, sys\n"
        "from ulrlab.cli import main\n"
        "assert 'scipy' not in sys.modules, 'import ulrlab.cli loaded scipy'\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv[0]\n"
        "    assert 'scipy' not in sys.modules, f'{argv[0]} loaded scipy'\n"
    )
    src = str(Path(ulrlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
