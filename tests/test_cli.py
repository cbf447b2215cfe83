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
from ulrlab import cli, evaluation
from helpers import analogy_question, write_analogy_file, write_word_vectors
from ulrlab.cli import (
    COMMAND_SETTINGS,
    _int_or_none,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from ulrlab.corpus import Vocabulary, tokenize
from ulrlab.encoder import load_checkpoint
from ulrlab.evaluation import ModelEmbedder, embed_corpus

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


def child_env(**extra):
    """This environment, with ``ulrlab`` importable from a child process."""
    src = str(Path(ulrlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                **extra)


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
        else:
            assert "entries after per-document top-K" not in values
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

    @pytest.mark.parametrize("flag, value, least", [
        ("--n-max", "1", 2), ("--top-k", "0", 1), ("--min-count", "0", 1),
        ("--max-size", "5", 6), ("--threshold", "nan", None),
    ])
    def test_bad_setting_rejected_before_reading_the_corpus(
        self, capsys, tmp_path, flag, value, least
    ):
        out = tmp_path / "t.tsv"
        code, _, stderr = run(capsys, [
            "extract-ngrams", "--corpus", str(tmp_path / "absent"), flag, value,
            "--out", str(out),
        ])
        assert code == 1
        [error] = [line for line in stderr.splitlines() if line.startswith("error:")]
        if least is None:
            assert error == f"error: {flag} must be a number, got {value}"
        else:
            assert error == f"error: {flag} must be >= {least}, got {value}"
        assert not out.exists()

    def test_nan_threshold_in_a_config_file_rejected(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {workspace / 'corpus.txt'}\npmi_threshold = nan\n")
        out = tmp_path / "t.tsv"
        code, _, stderr = run(capsys, [
            "extract-ngrams", "--config", str(cfg), "--out", str(out),
        ])
        assert code == 1
        assert "error: --threshold must be a number, got nan" in stderr
        assert not out.exists()

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

    def test_config_line_not_utf8_is_named(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# settings\nmin_count = 1\nout = t\xff.tsv\n")
        with pytest.raises(UnicodeError, match=rf"run\.cfg:3: .* byte 0xff"):
            parse_config_file(cfg)
        code, stdout, stderr = run(capsys, [
            "extract-ngrams", "--config", str(cfg), "--corpus", str(workspace / "corpus.txt"),
        ])
        assert code == 1
        assert f"error: {cfg}:3: 'utf-8' codec can't decode byte 0xff" in stderr

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
        assert listed == {"--help", "--config", *PARENT_FLAGS[command].split()}

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, settings in COMMAND_SETTINGS.items() for key in settings
    ])
    def test_flag_overrides_config_file(self, capsys, tmp_path, command, key):
        settings = COMMAND_SETTINGS[command]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {_file_and_flag_text(s)[0]}\n" for k, s in settings.items()))
        setting = settings[key]
        flag = setting.flag or "--" + key.replace("_", "-")
        flag_texts = [_file_and_flag_text(setting)[1]]
        if setting.convert is _int_or_none:
            flag_texts.append("none")  # a flag given as none still beats the file
        for flag_text in flag_texts:
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

    def test_blas_thread_count_does_not_change_bits(self, capsys, tmp_path):
        # At this shape a threaded OpenBLAS splits the MLM head's
        # weight-gradient products (inner dimension: the ~600 masked rows)
        # by thread count; two steps, because step 1's learning rate is 0.
        rng = np.random.default_rng(0)
        corpus = tmp_path / "units.txt"
        corpus.write_text("".join(
            " ".join(f"si{u} xu{u}" for u in rng.integers(0, 100, rng.integers(4, 30))) + "\n"
            for _ in range(600)
        ))
        table = tmp_path / "units.tsv"
        code, _, _ = run(capsys, [
            "extract-ngrams", "--corpus", str(corpus), "--n-max", "2",
            "--threshold", "2.0", "--top-k", "none", "--out", str(table),
        ])
        assert code == 0
        outputs = []
        for threads in ("1", "2"):
            ckpt = tmp_path / f"threads{threads}.ckpt"
            proc = subprocess.run(
                [sys.executable, "-m", "ulrlab.cli", "train",
                 "--corpus", str(corpus), "--table", str(table),
                 "--vocab", str(table) + ".vocab",
                 "--total-steps", "2", "--batch-size", "128", "--d-model", "32",
                 "--n-heads", "2", "--n-layers", "1", "--d-ff", "64", "--max-len", "64",
                 "--dropout", "0", "--seed", "1", "--out", str(ckpt)],
                env=child_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((ckpt.read_bytes(), Path(f"{ckpt}.metrics.tsv").read_bytes()))
        assert outputs[0] == outputs[1]

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
            analogy_question("capital-common", "alpha", "beta", "gamma",
                             ("delta", "noise1", "noise2"), 0),
            analogy_question("gram1-adj", "alpha", "beta", "gamma",
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

    def test_vectors_and_checkpoint_together_rejected(self, capsys, oracle_files, tmp_path):
        vec_path, q_path = oracle_files
        code, stdout, stderr = run(capsys, [
            "eval-analogy", "--dataset", str(q_path), "--vectors", str(vec_path),
            "--checkpoint", str(tmp_path / "missing.ckpt"), "--vocab", str(tmp_path / "nov"),
        ])
        assert code == 1
        assert stdout == ""
        assert stderr.endswith("error: --checkpoint is not used with --vectors\n")

    def test_vocab_with_vectors_rejected(self, capsys, oracle_files, tmp_path):
        vec_path, q_path = oracle_files
        code, stdout, stderr = run(capsys, [
            "eval-analogy", "--dataset", str(q_path), "--vectors", str(vec_path),
            "--vocab", str(tmp_path / "missing.vocab"),
        ])
        assert code == 1
        assert stdout == ""
        assert stderr.endswith("error: --vocab is not used with --vectors\n")

    def test_dataset_without_questions_is_named(self, capsys, oracle_files, tmp_path):
        vec_path, _ = oracle_files
        dataset = tmp_path / "empty.tsv"
        dataset.write_text("\n")
        code, stdout, stderr = run(capsys, [
            "eval-analogy", "--dataset", str(dataset), "--vectors", str(vec_path),
        ])
        assert code == 1
        assert stdout == ""
        assert stderr.endswith(f"error: {dataset}: no questions\n")


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

    def test_length_groups_print_in_numeric_order(self, capsys, tmp_path):
        corpus_path = tmp_path / "c.tsv"
        corpus_path.write_text("d0\ta b c\nd1\tk\n")
        queries_path = tmp_path / "q.tsv"
        queries_path.write_text("a\td0\na b\td0\na b c\td0\na b c d e f g h i j k\td1\n")
        code, stdout, _ = run(capsys, [
            "eval-retrieval", "--backend", "bm25",
            "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--ks", "1", "--group-by-length", "5",
        ])
        assert code == 0
        groups = stdout.split("group\ttop_k\taccuracy\n")[1].splitlines()
        assert [row.split("\t")[0] for row in groups] == ["len<=5", "len<=15"]

    @pytest.mark.parametrize("backend", ["bm25", "vectors", "model"])
    def test_empty_queries_file_is_named(self, capsys, retrieval_files, tmp_path, backend):
        vec_path, corpus_path, _ = retrieval_files
        queries_path = tmp_path / "queries.tsv"
        queries_path.write_text("")
        code, stdout, stderr = run(capsys, [
            "eval-retrieval", "--backend", backend,
            "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--vectors", str(vec_path),
        ])
        assert code == 1
        assert stdout == ""
        assert stderr.endswith(f"error: {queries_path}: no queries\n")

    @pytest.mark.parametrize("backend, unused", [
        ("model", "vectors"), ("vectors", "checkpoint"), ("vectors", "vocab"),
        ("bm25", "vectors"), ("bm25", "checkpoint"), ("bm25", "vocab"),
    ])
    def test_source_the_backend_does_not_use_rejected(
        self, capsys, retrieval_files, trained, extracted, tmp_path, backend, unused
    ):
        vec_path, corpus_path, queries_path = retrieval_files
        sources = {
            "vectors": ["--vectors", str(vec_path)],
            "checkpoint": [
                "--checkpoint", str(trained["ckpt"]), "--vocab", str(extracted["vocab"]),
            ],
            "vocab": ["--vocab", str(tmp_path / "missing.vocab")],
        }
        code, stdout, stderr = run(capsys, [
            "eval-retrieval", "--backend", backend,
            "--corpus", str(corpus_path), "--queries", str(queries_path), *sources[unused],
        ])
        assert code == 1
        assert stdout == ""
        assert stderr.endswith(f"error: --{unused} is not used with --backend {backend}\n")

    def test_corpus_row_not_utf8_is_named(self, capsys, retrieval_files):
        _, corpus_path, queries_path = retrieval_files
        lines = corpus_path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b"tok3", b"tok3 \xff\xfe")
        corpus_path.write_bytes(b"".join(lines))
        code, stdout, stderr = run(capsys, [
            "eval-retrieval", "--backend", "bm25",
            "--corpus", str(corpus_path), "--queries", str(queries_path),
        ])
        assert code == 1
        assert stdout == ""
        assert f"error: {corpus_path}:2: 'utf-8' codec can't decode byte 0xff" in stderr

    @pytest.mark.parametrize("backend", ["bm25", "vectors", "model"])
    @pytest.mark.parametrize("bad_file", ["corpus", "queries"])
    def test_row_without_tokens_is_named(
        self, capsys, retrieval_files, trained, extracted, backend, bad_file
    ):
        vec_path, corpus_path, queries_path = retrieval_files
        bad_path = corpus_path if bad_file == "corpus" else queries_path
        lines = bad_path.read_text().splitlines()
        lines[1] = "d1\t!!!" if bad_file == "corpus" else "!!!\td1"
        bad_path.write_text("\n".join(lines) + "\n")
        sources = {
            "bm25": [],
            "vectors": ["--vectors", str(vec_path)],
            "model": ["--checkpoint", str(trained["ckpt"]), "--vocab", str(extracted["vocab"])],
        }
        code, stdout, stderr = run(capsys, [
            "eval-retrieval", "--backend", backend,
            "--corpus", str(corpus_path), "--queries", str(queries_path), *sources[backend],
        ])
        assert code == 1 and stdout == ""
        assert stderr.endswith(f"error: {bad_path}:2: text '!!!' has no tokens\n")

    def test_ks_not_integers_names_the_setting(self, capsys, retrieval_files):
        vec_path, corpus_path, queries_path = retrieval_files
        code, stdout, stderr = run(capsys, [
            "eval-retrieval", "--backend", "vectors",
            "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--vectors", str(vec_path), "--ks", "1,x",
        ])
        assert code == 1 and stdout == ""
        assert stderr.endswith("error: ks must be comma-separated integers, got '1,x'\n")

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

    @pytest.mark.parametrize("backend, source", [
        ("vectors", "--vectors"),
        ("model", "--checkpoint (with --vocab)"),
    ], ids=["vectors", "model"])
    def test_missing_source_names_the_backends_flag(
        self, capsys, retrieval_files, backend, source
    ):
        _, corpus_path, queries_path = retrieval_files
        code, stdout, stderr = run(capsys, [
            "eval-retrieval", "--backend", backend,
            "--corpus", str(corpus_path), "--queries", str(queries_path),
        ])
        assert code == 1 and stdout == ""
        assert stderr.splitlines()[-1] == f"error: no embedder source: pass {source}"

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
        texts = [tuple(tokenize(line)) for line in texts_file.read_text().splitlines()]
        want = embed_corpus(texts, embedder)
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
        assert f"error: {bad}:2: text has no tokens" in stderr

    @pytest.mark.parametrize("content, where", [
        ("", ""),
        ("red fox\n!!!\nblue bird\n", ":2"),
    ], ids=["empty-file", "no-tokens"])
    def test_bad_texts_file_is_named(self, capsys, trained, extracted, tmp_path, content, where):
        texts = tmp_path / "texts.txt"
        texts.write_text(content)
        code, stdout, stderr = run(capsys, [
            "embed", "--checkpoint", str(trained["ckpt"]),
            "--vocab", str(extracted["vocab"]), "--texts", str(texts),
        ])
        assert code == 1 and stdout == ""
        problem = "text has no tokens" if where else "no texts"
        assert f"error: {texts}{where}: {problem}" in stderr

    def test_text_not_utf8_is_named(self, capsys, trained, extracted, tmp_path):
        texts = tmp_path / "texts.txt"
        texts.write_bytes(b"red fox\r\nblue \xff bird\r\n")
        out = tmp_path / "emb.txt"
        code, _, stderr = run(capsys, [
            "embed", "--checkpoint", str(trained["ckpt"]), "--vocab", str(extracted["vocab"]),
            "--texts", str(texts), "--out", str(out),
        ])
        assert code == 1
        assert f"error: {texts}:2: 'utf-8' codec can't decode byte 0xff in position 5" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("change", [-3, 20])
    def test_vocabulary_of_another_size_rejected(
        self, capsys, trained, extracted, tmp_path, change
    ):
        trained_tokens = Vocabulary.load(extracted["vocab"]).tokens()
        if change < 0:
            tokens = trained_tokens[:change]
        else:
            tokens = trained_tokens + [f"extra{i}" for i in range(change)]
        other = tmp_path / "other.vocab"
        Vocabulary(tokens, [1] * len(tokens)).save(other)
        texts = tmp_path / "texts.txt"
        texts.write_text(" ".join(tokens[-3:]) + "\n")
        code, _, stderr = run(capsys, [
            "embed", "--checkpoint", str(trained["ckpt"]),
            "--vocab", str(other), "--texts", str(texts),
        ])
        assert code == 1
        assert f"error: vocabulary has {len(tokens)} tokens" in stderr
        assert f"trained on {len(trained_tokens)}" in stderr

    def test_unknown_pooling_rejected_by_parser(self, trained, extracted, texts_file):
        with pytest.raises(SystemExit):
            main([
                "embed", "--checkpoint", str(trained["ckpt"]),
                "--vocab", str(extracted["vocab"]), "--texts", str(texts_file),
                "--pooling", "sum",
            ])


def test_each_text_is_tokenized_once(capsys, monkeypatch, trained, extracted, tmp_path):
    # The reader that checks a text tokenizes it, and nothing after it does.
    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(evaluation, "tokenize", counting_tokenize)
    monkeypatch.setattr(cli, "tokenize", counting_tokenize)
    corpus_path = tmp_path / "c.tsv"
    corpus_path.write_text("d0\tred fox jumps\n\nd1\tblue bird sings\nd2\tthe lazy dog\n")
    queries_path = tmp_path / "q.tsv"
    queries_path.write_text("blue bird\td1\n  \nred fox!\td0,d2\n")
    vec_path = tmp_path / "vectors.txt"
    words = "red fox jumps blue bird sings the lazy dog".split()
    write_word_vectors({w: np.eye(len(words))[i] for i, w in enumerate(words)}, vec_path)
    analogy_path = tmp_path / "analogy.tsv"
    write_analogy_file(
        [analogy_question("capital-common", "red", "fox", "blue", ("bird", "lazy dog"), 0)] * 2,
        analogy_path,
    )
    texts_path = tmp_path / "texts.txt"
    texts_path.write_text("red fox jumps\nblue bird sings\nred fox jumps\n")
    model = ["--checkpoint", str(trained["ckpt"]), "--vocab", str(extracted["vocab"])]
    retrieval = ["eval-retrieval", "--corpus", str(corpus_path), "--queries", str(queries_path)]
    runs = [  # (argv, non-blank lines or analogy fields)
        ([*retrieval, "--backend", "bm25"], 5),
        ([*retrieval, "--backend", "bm25", "--group-by-length", "2"], 5),
        ([*retrieval, "--backend", "vectors", "--vectors", str(vec_path)], 5),
        ([*retrieval, "--backend", "model", *model], 5),
        (["eval-analogy", "--dataset", str(analogy_path), *model], 10),
        (["embed", *model, "--texts", str(texts_path)], 3),
    ]
    for argv, n_texts in runs:
        calls.clear()
        code, _, stderr = run(capsys, argv)
        assert code == 0, stderr
        assert len(calls) == n_texts, argv


def test_no_command_imports_scipy(workspace, tmp_path):
    # numpy is the only runtime dependency, and the encoder's tanh GELU
    # needs no special functions; importing scipy.special would cost every
    # process ~0.3 s and ~16 MB.
    corpus_path = tmp_path / "c.tsv"
    corpus_path.write_text("d0\tred fox jumps\nd1\tblue bird sings\n")
    queries_path = tmp_path / "q.tsv"
    queries_path.write_text("blue bird\td1\n")
    texts_path = tmp_path / "texts.txt"
    texts_path.write_text("red fox jumps\nblue bird sings\n")
    analogy_path = tmp_path / "analogy.tsv"
    write_analogy_file(
        [analogy_question("capital-common", "red", "fox", "blue", ("bird", "dog"), 0)],
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
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
