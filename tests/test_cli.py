import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mtltox.cli as cli
from mtltox.cli import main
from mtltox.corpus import IDENTITY_COLUMNS, CorpusError
from mtltox.embeddings import EmbeddingSources
from mtltox.metrics import ScoredExample, SubgroupStats, bias_report
from mtltox.network import Hyper
from mtltox.training import TrainConfig


CONFIG = {
    "hyper": {"hidden": 3, "dense1": 4, "dense2": 4, "n_aux": 9, "dropout_rate": 0.1, "max_len": 12},
    "embeddings": {"dim1": 3, "dim2": 3},
    "train": {"epochs": 1, "batch_size": 16, "k_folds": 2},
}


def write_fixture_csv(path, rows=12):
    header = "id,comment_text,target," + ",".join(IDENTITY_COLUMNS)
    lines = [header]
    for i in range(rows):
        toxic = i % 3 == 0
        identity = i % 4 == 0
        scores = ["0.9" if identity else "0.1"] + ["0.0"] * (len(IDENTITY_COLUMNS) - 1)
        text = f"comment {'bad awful' if toxic else 'nice kind'} number {i}"
        lines.append(f"{i},{text},{0.9 if toxic else 0.1},{','.join(scores)}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workdir(tmp_path):
    csv_path = tmp_path / "corpus.csv"
    write_fixture_csv(csv_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    return tmp_path


def run_prep(workdir):
    return main(
        [
            "prep",
            "--input", str(workdir / "corpus.csv"),
            "--vocab-out", str(workdir / "vocab.tsv"),
            "--max-len", "12",
            "--out", str(workdir / "data.jsonl"),
        ]
    )


def run_train(workdir, data="data.jsonl", out_dir="run", seed="5", extra=()):
    return main(
        [
            "train",
            "--data", str(workdir / data),
            "--vocab", str(workdir / "vocab.tsv"),
            "--config", str(workdir / "config.json"),
            "--folds", "2",
            "--seed", seed,
            "--out-dir", str(workdir / out_dir),
            *extra,
        ]
    )


class TestPrep:
    def test_fixture_stats(self, workdir, capsys):
        assert run_prep(workdir) == 0
        out = capsys.readouterr().out
        assert "comments: 12" in out
        assert "weighted (beta=3): 2" in out  # identity (i%4) and non-toxic (not i%3): i in {4, 8}

    @pytest.mark.parametrize("c", ["nan", "inf", "0", "-1"])
    def test_c_not_finite_and_above_0_exit_2(self, workdir, capsys, c):
        corpus, vocab, data = (str(workdir / name) for name in ("corpus.csv", "vocab.tsv", "data.jsonl"))
        with pytest.raises(SystemExit) as exc:
            main(["prep", "--input", corpus, "--vocab-out", vocab, f"--c={c}", "--out", data])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --c: must be finite and > 0, got '{c}'" in err and "Traceback" not in err
        assert not (workdir / "data.jsonl").exists() and not (workdir / "vocab.tsv").exists()

    @pytest.mark.parametrize("max_len", ["0", "-3", "2.5", "x"])
    def test_max_len_not_an_integer_of_at_least_1_exit_2_before_any_input_is_read(self, tmp_path, capsys, max_len):
        corpus, vocab, data = (str(tmp_path / name) for name in ("nope.csv", "vocab.tsv", "data.jsonl"))
        with pytest.raises(SystemExit) as exc:  # the input does not exist
            main(["prep", "--input", corpus, "--vocab-out", vocab, f"--max-len={max_len}", "--out", data])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-len: must be an integer >= 1, got '{max_len}'" in err and "Traceback" not in err
        assert not (tmp_path / "data.jsonl").exists() and not (tmp_path / "vocab.tsv").exists()

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "prep",
                "--input", str(tmp_path / "nope.csv"),
                "--vocab-out", str(tmp_path / "v.tsv"),
                "--out", str(tmp_path / "d.jsonl"),
            ]
        )
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,comment_text,target\n1,hello,abc\n")
        code = main(
            [
                "prep",
                "--input", str(bad),
                "--vocab-out", str(tmp_path / "v.tsv"),
                "--out", str(tmp_path / "d.jsonl"),
            ]
        )
        assert code == 2


class TestTrainEvaluate:
    def train(self, workdir, extra=()):
        run_prep(workdir)
        return main(
            [
                "train",
                "--data", str(workdir / "data.jsonl"),
                "--vocab", str(workdir / "vocab.tsv"),
                "--config", str(workdir / "config.json"),
                "--folds", "2",
                "--seed", "5",
                "--out-dir", str(workdir / "run"),
                *extra,
            ]
        )

    def test_two_fold_outputs(self, workdir):
        assert self.train(workdir) == 0
        assert (workdir / "run" / "checkpoint_fold0.json").exists()
        assert (workdir / "run" / "checkpoint_fold1.json").exists()
        assert (workdir / "run" / "run_fold0.json").exists()

    def test_alpha_grid_report(self, workdir):
        assert self.train(workdir, extra=("--alpha", "grid:0.4,0.8")) == 0
        grid = json.loads((workdir / "run" / "alpha_grid.json").read_text())
        assert {r["alpha"] for r in grid["results"]} == {0.4, 0.8}
        assert grid["chosen_alpha"] in (0.4, 0.8)

    def test_rerun_same_seed_identical_metrics(self, workdir, tmp_path):
        self.train(workdir)
        first = json.loads((workdir / "run" / "run_fold0.json").read_text())
        self.train(workdir)
        second = json.loads((workdir / "run" / "run_fold0.json").read_text())
        assert first["metrics"] == second["metrics"]
        assert first["epochs"] == second["epochs"]

    def test_evaluate_writes_report_and_csv(self, workdir, capsys):
        self.train(workdir)
        code = main(
            [
                "evaluate",
                "--checkpoint", str(workdir / "run" / "checkpoint_fold0.json"),
                "--data", str(workdir / "data.jsonl"),
                "--vocab", str(workdir / "vocab.tsv"),
                "--p", "-5",
                "--out", str(workdir / "report.json"),
            ]
        )
        assert code == 0
        report = json.loads((workdir / "report.json").read_text())
        assert report["power"] == -5
        assert set(report["subgroups"]) == set(IDENTITY_COLUMNS)
        csv_text = (workdir / "report.csv").read_text()
        assert csv_text.startswith("subgroup,")

    def test_evaluate_vocab_mismatch_exit_4(self, workdir):
        self.train(workdir)
        other_vocab = workdir / "other.tsv"
        other_vocab.write_text("zzz\t2\n")
        code = main(
            [
                "evaluate",
                "--checkpoint", str(workdir / "run" / "checkpoint_fold0.json"),
                "--data", str(workdir / "data.jsonl"),
                "--vocab", str(other_vocab),
                "--out", str(workdir / "r.json"),
            ]
        )
        assert code == 4


def unannotate_rows(workdir):
    """Empty the identity cells of three rows of the fixture corpus."""
    lines = (workdir / "corpus.csv").read_text().splitlines()
    for i in (2, 5, 8):
        id_, text, target = lines[i].split(",")[:3]
        lines[i] = ",".join([id_, text, target] + [""] * len(IDENTITY_COLUMNS))
    (workdir / "corpus.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("extra", [(), ("--alpha", "grid:0.4,0.8")], ids=["plain", "alpha-grid"])
def test_train_refuses_unannotated_rows_until_propagated(workdir, capsys, extra):
    unannotate_rows(workdir)
    assert run_prep(workdir) == 0
    assert "needing identity propagation: 3" in capsys.readouterr().out

    assert run_train(workdir, extra=extra) == 2
    assert "mtltox propagate" in capsys.readouterr().err
    assert not (workdir / "run" / "checkpoint_fold0.json").exists()

    code = main(
        [
            "propagate",
            "--data", str(workdir / "data.jsonl"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--config", str(workdir / "config.json"),
            "--out", str(workdir / "filled.jsonl"),
        ]
    )
    assert code == 0
    assert run_train(workdir, data="filled.jsonl", extra=extra) == 0


def test_train_names_file_and_row_of_a_truncated_line(workdir, capsys):
    assert run_prep(workdir) == 0
    lines = (workdir / "data.jsonl").read_text().splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]
    (workdir / "data.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_train(workdir) == 2
    err = capsys.readouterr().err
    assert "data.jsonl" in err and "row 4" in err
    assert not (workdir / "run").exists()


def test_train_names_file_and_row_of_a_non_comment_line(workdir, capsys):
    assert run_prep(workdir) == 0
    lines = (workdir / "data.jsonl").read_text().splitlines()
    lines[1] = json.dumps({"comment_text": "a raw corpus row", "target": 0.1})
    (workdir / "data.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_train(workdir) == 2
    err = capsys.readouterr().err
    assert "data.jsonl" in err and "row 2" in err


def run_propagate(workdir):
    return main(
        [
            "propagate",
            "--data", str(workdir / "data.jsonl"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--config", str(workdir / "config.json"),
            "--out", str(workdir / "filled.jsonl"),
        ]
    )


def test_propagate_refuses_a_c_other_than_the_corpus_weights(workdir, capsys):
    unannotate_rows(workdir)
    corpus, vocab, data = (str(workdir / name) for name in ("corpus.csv", "vocab.tsv", "data.jsonl"))
    assert main(["prep", "--input", corpus, "--vocab-out", vocab, "--max-len", "12", "--c", "5", "--out", data]) == 0
    capsys.readouterr()
    assert run_propagate(workdir) == 2  # the config leaves train.c at its default, 3.0
    err = capsys.readouterr().err
    assert "beta 5.0 but c is 3.0" in err and "Traceback" not in err
    assert not (workdir / "filled.jsonl").exists()


@pytest.mark.parametrize(
    "command, output", [(run_train, "run"), (run_propagate, "filled.jsonl")], ids=["train", "propagate"]
)
@pytest.mark.parametrize(
    "section, key",
    [("hyper", "bogus"), ("train", "bogus"), ("embeddings", "bogus"), (None, "bogus"), ("train", "beta1")],
    ids=["hyper", "train", "embeddings", "top-level", "removed-field"],
)
def test_unknown_config_key_exit_2(workdir, capsys, command, output, section, key):
    assert run_prep(workdir) == 0
    config = json.loads(json.dumps(CONFIG))
    (config.setdefault(section, {}) if section else config)[key] = 0.9
    (workdir / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert command(workdir) == 2
    err = capsys.readouterr().err
    dotted = f"{section}.{key}" if section else key
    assert f"{workdir / 'config.json'}: unknown key '{dotted}'" in err
    assert "Traceback" not in err
    assert not (workdir / output).exists()


@pytest.mark.parametrize(
    "config, named", [([CONFIG], "config"), ({**CONFIG, "hyper": None}, "'hyper'")], ids=["list", "null-section"]
)
def test_config_that_is_not_an_object_exit_2(workdir, capsys, config, named):
    assert run_prep(workdir) == 0
    (workdir / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert run_train(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'config.json'}: {named} must be a JSON object" in err


@pytest.mark.parametrize(
    "command, output", [(run_train, "run"), (run_propagate, "filled.jsonl")], ids=["train", "propagate"]
)
@pytest.mark.parametrize(
    "section, key, value, expected",
    [
        ("train", "epochs", "1", "an integer"),
        ("hyper", "hidden", "3", "an integer"),
        ("embeddings", "dim1", 2.5, "an integer"),
        ("train", "learning_rate", "fast", "a number"),
        ("train", "alpha", True, "a number"),
        ("train", "patience", None, "an integer"),
        ("train", "grad_clip_norm", "5", "a number or null"),
        ("hyper", "attention", 1, "true or false"),
        ("embeddings", "source1", None, "a string"),
        (None, "subgroups", "male", "a list of strings"),
        (None, "subgroups", ["male", 3], "a list of strings"),
    ],
    ids=[
        "str-epochs", "str-hidden", "float-dim1", "str-learning-rate", "bool-alpha", "null-patience",
        "str-grad-clip", "int-attention", "null-source1", "str-subgroups", "mixed-subgroups",
    ],
)
def test_config_value_of_wrong_type_exit_2(workdir, capsys, command, output, section, key, value, expected):
    assert run_prep(workdir) == 0
    config = json.loads(json.dumps(CONFIG))
    (config.setdefault(section, {}) if section else config)[key] = value
    (workdir / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert command(workdir) == 2
    err = capsys.readouterr().err
    dotted = f"{section}.{key}" if section else key
    assert f"{workdir / 'config.json'}: '{dotted}' must be {expected}" in err
    assert "Traceback" not in err
    assert not (workdir / output).exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "command, output", [(run_train, "run"), (run_propagate, "filled.jsonl")], ids=["train", "propagate"]
)
@pytest.mark.parametrize(
    "section, key, value, rule",
    [
        ("hyper", "hidden", 0, "must be >= 1, got 0"),
        ("hyper", "hidden", -2, "must be >= 1, got -2"),
        ("hyper", "dense1", 0, "must be >= 1, got 0"),
        ("hyper", "dense2", 0, "must be >= 1, got 0"),
        ("hyper", "max_len", 0, "must be >= 1, got 0"),
        ("hyper", "n_aux", -1, "must be >= 0, got -1"),
        ("hyper", "dropout_rate", 1.5, "must be in [0, 1), got 1.5"),
        ("hyper", "dropout_rate", -0.2, "must be in [0, 1), got -0.2"),
        ("hyper", "dropout_rate", NAN, "must be in [0, 1), got nan"),
        ("train", "learning_rate", 0, "must be finite and > 0, got 0"),
        ("train", "learning_rate", -0.001, "must be finite and > 0, got -0.001"),
        ("train", "learning_rate", NAN, "must be finite and > 0, got nan"),
        ("train", "learning_rate", INF, "must be finite and > 0, got inf"),
        ("train", "grad_clip_norm", -1, "must be None or finite and > 0, got -1"),
        ("train", "grad_clip_norm", 0, "must be None or finite and > 0, got 0"),
        ("train", "grad_clip_norm", NAN, "must be None or finite and > 0, got nan"),
        ("train", "epochs", -1, "must be >= 0, got -1"),
        ("train", "patience", 0, "must be >= 1, got 0"),
        ("train", "seed", -1, "must be >= 0, got -1"),
        ("train", "power", NAN, "must be finite, got nan"),
        ("train", "power", INF, "must be finite, got inf"),
        ("train", "power", -INF, "must be finite, got -inf"),
        ("train", "c", -1, "must be finite and > 0, got -1"),
        ("train", "c", 0, "must be finite and > 0, got 0"),
        ("train", "c", NAN, "must be finite and > 0, got nan"),
        ("train", "c", INF, "must be finite and > 0, got inf"),
        ("embeddings", "dim1", -1, "must be >= 0, got -1"),
        ("embeddings", "dim2", -1, "must be >= 0, got -1"),
        ("embeddings", "oov_seed", -1, "must be >= 0, got -1"),
    ],
    ids=[
        "hidden-0", "hidden-negative", "dense1-0", "dense2-0", "max_len-0", "n_aux-negative", "dropout-1.5",
        "dropout-negative", "dropout-nan", "learning-rate-0", "learning-rate-negative", "learning-rate-nan",
        "learning-rate-inf", "grad-clip-negative", "grad-clip-0", "grad-clip-nan", "epochs-negative", "patience-0",
        "seed-negative", "power-nan", "power-inf", "power-minus-inf", "c-negative", "c-0", "c-nan", "c-inf",
        "dim1-negative", "dim2-negative", "oov-seed-negative",
    ],
)
def test_config_value_out_of_range_exit_2(workdir, capsys, command, output, section, key, value, rule):
    assert run_prep(workdir) == 0
    config = json.loads(json.dumps(CONFIG))
    config[section][key] = value  # json writes NaN and Infinity, and reads them back
    (workdir / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert command(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'config.json'}: {section}.{key} {rule}" in err
    assert "Traceback" not in err
    assert not (workdir / output).exists()


@pytest.mark.parametrize("command", [run_train, run_propagate], ids=["train", "propagate"])
@pytest.mark.parametrize(
    "section, key, value, rule",
    [
        ("hyper", "hidden", 0, "must be >= 1, got 0"),
        ("train", "learning_rate", 0, "must be finite and > 0, got 0"),
        ("train", "power", NAN, "must be finite, got nan"),
    ],
    ids=["hidden-0", "learning-rate-0", "power-nan"],
)
def test_config_value_refused_before_any_input_file_is_read(workdir, capsys, command, section, key, value, rule):
    # No prep: the data and the vocabulary are missing, and so is the embedding file.
    config = json.loads(json.dumps(CONFIG))
    config[section][key] = value
    config["embeddings"]["source1"] = str(workdir / "missing.vec")
    (workdir / "config.json").write_text(json.dumps(config))
    assert command(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'config.json'}: {section}.{key} {rule}" in err
    assert "missing.vec" not in err and "data.jsonl" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, output", [(run_train, "run"), (run_propagate, "filled.jsonl")], ids=["train", "propagate"]
)
@pytest.mark.parametrize("section, key", [("embeddings", "dim1"), ("hyper", "hidden")], ids=["dim1", "hidden"])
def test_config_size_too_large_to_allocate_exit_2(workdir, capsys, command, output, section, key):
    if command is run_propagate:
        unannotate_rows(workdir)  # propagate trains a model only for unannotated rows
    assert run_prep(workdir) == 0
    config = json.loads(json.dumps(CONFIG))
    config[section][key] = 2**40  # no machine allocates a table or a weight matrix of that many values
    (workdir / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert command(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'config.json'}: a size is too large to allocate" in err and "Traceback" not in err
    assert not (workdir / output).exists()


@pytest.mark.parametrize(
    "command, output", [(run_train, "run"), (run_propagate, "filled.jsonl")], ids=["train", "propagate"]
)
@pytest.mark.parametrize(
    "section, key",
    [
        ("train", "learning_rate"), ("train", "grad_clip_norm"), ("train", "c"), ("train", "seed"),
        ("hyper", "hidden"), ("hyper", "n_aux"), ("hyper", "dense1"), ("embeddings", "dim1"),
    ],
)
def test_config_integer_too_large_for_a_float_exit_2(workdir, capsys, command, output, section, key):
    assert run_prep(workdir) == 0
    config = json.loads(json.dumps(CONFIG))
    config[section][key] = 10**400  # json writes and reads it as an integer literal
    (workdir / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert command(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'config.json'}: '{section}.{key}' is an integer too large for a float" in err
    assert "Traceback" not in err
    assert not (workdir / output).exists()


@pytest.mark.parametrize(
    "command, output", [(run_train, "run"), (run_propagate, "filled.jsonl")], ids=["train", "propagate"]
)
@pytest.mark.parametrize(
    "section, key, value",
    [("hyper", "hidden", 2**64), ("embeddings", "dim1", 10**300), ("train", "seed", 2**63)],
    ids=["hidden-2**64", "dim1-10**300", "seed-2**63"],
)
def test_config_integer_above_maxsize_exit_2(workdir, capsys, command, output, section, key, value):
    assert run_prep(workdir) == 0
    config = json.loads(json.dumps(CONFIG))
    config[section][key] = value  # a float can hold it, numpy takes no such size
    (workdir / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert command(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'config.json'}: '{section}.{key}' must be at most 9223372036854775807" in err
    assert "Traceback" not in err
    assert not (workdir / output).exists()


# A value of each JSON type a config field accepts, mostly near the fields' bounds; an integer serves as a number.
_TYPED = {
    int: st.integers(-2, 3),
    float: st.integers(-2, 3) | st.floats(-0.5, 1.5) | st.sampled_from([NAN, INF, -INF]),
    bool: st.booleans(),
    str: st.text(max_size=4),
    type(None): st.none(),
}
_ANY_JSON = st.recursive(
    st.one_of(*_TYPED.values(), st.integers(), st.floats(), st.just(10**400)),
    lambda values: st.lists(values, max_size=2) | st.dictionaries(st.text(max_size=2), values, max_size=2),
    max_leaves=4,
)


# Each config section's dataclass. Its fields are the section's keys, but Hyper's embed_dim, which is dim1 + dim2.
SECTIONS = {"hyper": Hyper, "embeddings": EmbeddingSources, "train": TrainConfig}


def section_keys(section):
    """Each key of a config section, with its field's annotation."""
    hints = typing.get_type_hints(SECTIONS[section])
    return {key: hint for key, hint in hints.items() if key != "embed_dim"}


# One value for each key of each config section: mostly of the key's type, sometimes any JSON value.
_CONFIG_VALUES = st.fixed_dictionaries({
    (section, key): st.one_of(*(_TYPED[t] for t in typing.get_args(hint) or (hint,)), _ANY_JSON)
    for section in SECTIONS
    for key, hint in section_keys(section).items()
})


@given(values=_CONFIG_VALUES)
@settings(max_examples=50, deadline=None)
def test_any_config_value_builds_the_sections_or_is_refused_naming_the_config(values):
    """Each key of the fixture's config in turn takes its drawn value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "config.json")
        for (section, key), value in values.items():
            config = json.loads(json.dumps(CONFIG))
            config[section][key] = value
            Path(path).write_text(json.dumps(config))  # json writes NaN and Infinity, and reads them back
            try:
                sources, _, cfg, _ = cli._load_config(path)
                # The generators that training and the embedding table's OOV rows draw from.
                np.random.default_rng(cfg.seed), np.random.default_rng(sources.oov_seed)
            except CorpusError as exc:
                assert str(exc).startswith(f"{path}: "), exc


def test_grid_run_trains_one_model_per_grid_alpha_and_one_per_later_fold(workdir, monkeypatch):
    import mtltox.training as training

    calls = []
    real_train_fold = training.train_fold
    monkeypatch.setattr(training, "train_fold", lambda *args: calls.append(args[-1].alpha) or real_train_fold(*args))
    assert run_prep(workdir) == 0
    assert run_train(workdir, extra=("--alpha", "grid:0.4,0.8")) == 0
    assert calls == [0.4, 0.8, 0.8]  # fold 0 keeps 0.8's model; fold 1 trains with 0.8


def test_fold_0_is_the_chosen_grid_point(workdir, monkeypatch):
    from mtltox.checkpoint import load_checkpoint
    import mtltox.training as training

    trained = []
    real_train_fold = training.train_fold

    def keep(*args):
        trained.append(real_train_fold(*args))
        return trained[-1]

    monkeypatch.setattr(training, "train_fold", keep)
    assert run_prep(workdir) == 0
    # Fold 0's GMB AUC is undefined at every alpha on the fixture, so the tie goes to 0.8, trained first.
    assert run_train(workdir, extra=("--alpha", "grid:0.8,0.4,0.6")) == 0
    run = workdir / "run"
    grid = json.loads((run / "alpha_grid.json").read_text())
    assert grid["chosen_alpha"] == 0.8
    assert json.loads((run / "run_fold0.json").read_text()) == grid["results"][0]
    params, _, _, meta = load_checkpoint(run / "checkpoint_fold0.json")
    assert meta["alpha"] == 0.8
    chosen = trained[0][0]
    assert params.tensors.keys() == chosen.tensors.keys()
    assert all(np.array_equal(params.tensors[name], chosen.tensors[name]) for name in chosen.tensors)


@pytest.mark.parametrize(
    "extra, alpha",
    [(("--alpha", "1.5"), None), (("--alpha", "grid:0.5,1.5"), None), ((), -0.1)],
    ids=["flag", "grid", "config"],
)
def test_train_refuses_alpha_outside_unit_interval(workdir, capsys, extra, alpha):
    assert run_prep(workdir) == 0
    if alpha is not None:
        (workdir / "config.json").write_text(json.dumps({**CONFIG, "train": {**CONFIG["train"], "alpha": alpha}}))
    capsys.readouterr()
    assert run_train(workdir, extra=extra) == 2
    err = capsys.readouterr().err
    assert "alpha must be in [0, 1]" in err and "Traceback" not in err
    assert not (workdir / "run").exists()


@pytest.mark.parametrize(
    "extra, train, message",
    [
        (("--folds", "1"), {}, "k_folds must be >= 2, got 1"),
        (("--folds", "20"), {}, "need at least 20 records, got 12"),
        ((), {"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ((), {"aux_source": "subtype"}, "aux_source must be 'identities' or 'subtypes', got 'subtype'"),
        (("--alpha", "grid:0.4,0.8", "--folds", "20"), {}, "need at least 20 records, got 12"),
        (("--seed", "-1"), {}, "seed must be >= 0, got -1"),
        (
            (),
            {"c": 7.0},  # the fixture is weighted with prep's default --c 3
            "comments are weighted with beta 3.0 but c is 7.0: set train.c to the --c the corpus was prepared with",
        ),
    ],
    ids=[
        "one-fold", "more-folds-than-comments", "batch-size-0", "aux-source", "grid-more-folds", "seed-flag-negative",
        "c-mismatch",
    ],
)
def test_train_refuses_a_bad_setting_without_making_out_dir(workdir, capsys, extra, train, message):
    assert run_prep(workdir) == 0
    (workdir / "config.json").write_text(json.dumps({**CONFIG, "train": {**CONFIG["train"], **train}}))
    capsys.readouterr()
    assert run_train(workdir, extra=extra) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (workdir / "run").exists()


# Subgroup names that cannot label the identity columns by position, and what is wrong with them.
BAD_SUBGROUPS = pytest.mark.parametrize(
    "names, problem",
    [
        ([*IDENTITY_COLUMNS, "asian"], "gives 10 names, but each comment has 9 identity columns"),
        (["male", "male"], "gives 'male' twice"),
    ],
    ids=["tenth-name", "repeated-name"],
)


@BAD_SUBGROUPS
def test_evaluate_subgroups_that_label_no_column_or_one_twice_refused_when_parsed(tmp_path, capsys, names, problem):
    # The checkpoint and data do not exist: the names are refused before any input is read.
    inputs = ["--checkpoint", str(tmp_path / "ckpt.json"), "--data", str(tmp_path / "data.jsonl")]
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", *inputs, "--subgroups", ",".join(names), "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --subgroups: {problem}" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@BAD_SUBGROUPS
def test_config_subgroups_that_label_no_column_or_one_twice_exit_2(workdir, capsys, names, problem):
    assert run_prep(workdir) == 0
    (workdir / "config.json").write_text(json.dumps({**CONFIG, "subgroups": names}))
    capsys.readouterr()
    assert run_train(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'config.json'}: 'subgroups' {problem}" in err and "Traceback" not in err
    assert not (workdir / "run").exists()


@pytest.mark.parametrize(
    "command, output", [(run_train, "run"), (run_propagate, "filled.jsonl")], ids=["train", "propagate"]
)
@pytest.mark.parametrize(
    "n_aux, aux_source, labels", [(3, "identities", 9), (9, "subtypes", 5)], ids=["identities", "subtypes"]
)
def test_n_aux_other_than_the_label_count_exit_2_before_any_input_is_read(
    workdir, capsys, command, output, n_aux, aux_source, labels
):
    # No prep: the data and vocabulary do not exist.
    config = {**CONFIG, "hyper": {**CONFIG["hyper"], "n_aux": n_aux}}
    config["train"] = {**CONFIG["train"], "aux_source": aux_source}
    (workdir / "config.json").write_text(json.dumps(config))
    assert command(workdir) == 2
    err = capsys.readouterr().err
    path = workdir / "config.json"
    assert f"{path}: 'hyper.n_aux' is {n_aux}, but each comment has {labels} {aux_source} labels" in err
    assert "Traceback" not in err and not (workdir / output).exists()
    for n_aux in (0, labels):  # no heads, or one per label
        path.write_text(json.dumps({**config, "hyper": {**config["hyper"], "n_aux": n_aux}}))
        assert cli._load_config(str(path))[1].n_aux == n_aux


def test_propagate_refuses_an_aux_source_other_than_identities(workdir, capsys):
    unannotate_rows(workdir)
    assert run_prep(workdir) == 0
    config = {**CONFIG, "hyper": {**CONFIG["hyper"], "n_aux": 5}}
    config["train"] = {**CONFIG["train"], "aux_source": "subtypes"}
    (workdir / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert run_propagate(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'config.json'}: 'train.aux_source' is 'subtypes'; propagate fills identity labels" in err
    assert "Traceback" not in err and not (workdir / "filled.jsonl").exists()


def train_with_overflowing_steps(workdir, batch_size):
    """``mtltox train`` in a subprocess with a step so large that it overflows the network on the next pass."""
    import os
    import subprocess
    import sys

    import mtltox

    assert run_prep(workdir) == 0
    train = {**CONFIG["train"], "learning_rate": 1e300, "grad_clip_norm": None, "batch_size": batch_size}
    (workdir / "config.json").write_text(json.dumps({**CONFIG, "train": train}))
    env = os.environ | {"PYTHONPATH": str(Path(mtltox.__file__).resolve().parents[1])}
    argv = ["--data", "data.jsonl", "--vocab", "vocab.tsv", "--config", "config.json", "--seed", "5"]
    return subprocess.run(
        [sys.executable, "-m", "mtltox.cli", "train", *argv, "--out-dir", "run"],
        cwd=workdir, env=env, capture_output=True, text=True,
    )


def test_numerical_failure_prints_only_its_message(workdir):
    # One batch per epoch: the first pass after the step is fold 0's validation pass.
    run = train_with_overflowing_steps(workdir, batch_size=16)
    assert run.returncode == 3
    assert run.stderr.splitlines() == [
        "numerical failure: fold 0, epoch 0, validation: non-finite activation in output heads"
    ]


def test_numerical_failure_in_a_training_step_names_the_step(workdir):
    # Batches of 2: the second step's gradients are not finite, which adam_step refuses.
    run = train_with_overflowing_steps(workdir, batch_size=2)
    assert run.returncode == 3
    assert run.stderr.splitlines() == ["numerical failure: fold 0, epoch 0, step 1: non-finite gradient for head_tox_w"]


@pytest.mark.parametrize("value, bad", [("abc", "'abc'"), ("grid:0.5,abc", "'abc'"), ("grid:", "''")])
def test_alpha_that_is_not_a_number_refused_when_parsed(tmp_path, capsys, value, bad):
    # The data and vocabulary do not exist: the value is refused before any input is read.
    argv = ["train", "--data", str(tmp_path / "d.jsonl"), "--vocab", str(tmp_path / "v.tsv")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--alpha={value}", "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --alpha: not a finite number: {bad}" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["evaluate", "bias-report"])
def test_non_finite_p_refused_when_parsed(tmp_path, capsys, command, value):
    pred = tmp_path / "preds.csv"
    pred.write_text("score,label,male\n0.9,1,1.0\n0.2,0,0.0\n0.8,1,0.0\n0.1,0,1.0\n")
    inputs = {
        "evaluate": ["--checkpoint", str(tmp_path / "ckpt.json"), "--data", str(tmp_path / "data.jsonl")],
        "bias-report": ["--predictions", str(pred), "--subgroups", "male"],
    }[command]
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, f"--p={value}", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --p: not a finite number: '{value}'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["report.csv", "report.CSV"])
@pytest.mark.parametrize("command", ["evaluate", "bias-report"])
def test_a_csv_out_is_refused_before_any_input_is_read(tmp_path, capsys, command, name):
    """The per-subgroup CSV is written beside --out with the suffix .csv, so it would replace a .csv --out."""
    pred = tmp_path / "preds.jsonl"
    pred.write_text('{"score": 0.9, "label": 1}\n{"score": 0.1, "label": 0}\n')
    inputs = {  # evaluate's checkpoint does not exist: the refusal comes before it is read
        "evaluate": ["--checkpoint", str(tmp_path / "ckpt.json"), "--data", str(tmp_path / "data.jsonl")],
        "bias-report": ["--predictions", str(pred)],
    }[command]
    out = tmp_path / name
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --out: '{out}' ends in .csv" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [pred]


@pytest.mark.parametrize("corpus", ["corpus.csv", "missing.csv"])  # refused before the input is read
def test_prep_refuses_one_file_for_out_and_vocab_out(workdir, capsys, monkeypatch, corpus):
    monkeypatch.chdir(workdir)
    before = sorted(workdir.iterdir())
    argv = ["prep", "--input", str(workdir / corpus), "--vocab-out", "same.txt", "--out", str(workdir / "same.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--out and --vocab-out are both " in err and "Traceback" not in err
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize(
    "argv, output, refused",
    [
        (["prep", "--input", "{dir}/corpus.csv", "--vocab-out", "v.tsv", "--out", "corpus.csv"], "--out", "--input"),
        (
            ["propagate", "--data", "{dir}/data.jsonl", "--vocab", "{dir}/vocab.tsv", "--config", "{dir}/config.json"]
            + ["--out", "vocab.tsv"],
            "--out", "--vocab",
        ),
        (
            ["evaluate", "--checkpoint", "{dir}/ckpt.json", "--data", "{dir}/data.jsonl", "--vocab", "{dir}/vocab.tsv"]
            + ["--out", "ckpt.json"],
            "--out", "--checkpoint",
        ),
        (["bias-report", "--predictions", "{dir}/p.csv", "--out", "p.json"], "--out's per-subgroup CSV", "--predictions"),
        (
            ["templates", "--checkpoint", "{dir}/ckpt.json", "--vocab", "{dir}/vocab.tsv", "--out", "vocab.tsv"],
            "--out", "--vocab",
        ),
    ],
    ids=["prep", "propagate", "evaluate", "bias-report", "templates"],
)
def test_an_output_that_is_an_input_is_refused_and_nothing_is_written(
    trained, tmp_path, capsys, monkeypatch, argv, output, refused
):
    """Inputs are named by absolute path and outputs relative to the working directory: both name one file."""
    workdir = trained[0]
    for name in ("corpus.csv", "config.json", "data.jsonl", "vocab.tsv"):
        (tmp_path / name).write_bytes((workdir / name).read_bytes())
    (tmp_path / "ckpt.json").write_bytes(trained[1])
    (tmp_path / "p.csv").write_text("score,label\n0.9,1\n0.1,0\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"{output} and {refused} are both " in err and "Traceback" not in err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_config_accepts_an_int_for_a_float_and_null_where_allowed(tmp_path):
    config = {
        "hyper": {"dropout_rate": 0, "attention": False},
        "train": {"learning_rate": 1, "grad_clip_norm": None},
        "subgroups": [],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    _, hyper, cfg, subgroups = cli._load_config(str(path))
    read = {
        "hyper": {"dropout_rate": hyper.dropout_rate, "attention": hyper.attention},
        "train": {"learning_rate": cfg.learning_rate, "grad_clip_norm": cfg.grad_clip_norm},
        "subgroups": subgroups,
    }
    assert read == config


@pytest.mark.parametrize("with_id", [True, False], ids=["id-column", "row-number"])
def test_prep_refuses_a_row_without_tokens(tmp_path, capsys, with_id):
    corpus = tmp_path / "corpus.csv"
    rows = [("7", "a fine comment"), ("8", "!!! ..."), ("9", "another one")]
    if with_id:
        corpus.write_text("id,comment_text,target\n" + "".join(f"{i},{t},0.1\n" for i, t in rows))
    else:
        corpus.write_text("comment_text,target\n" + "".join(f"{t},0.1\n" for _, t in rows))
    code = main(
        ["prep", "--input", str(corpus), "--vocab-out", str(tmp_path / "v.tsv"), "--out", str(tmp_path / "d.jsonl")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{corpus}: record '{8 if with_id else 2}'" in err and "no tokens" in err
    assert not (tmp_path / "v.tsv").exists() and not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize(
    "name, fmt, text", [("corpus.csv", "csv", "id,comment_text,target\n"), ("corpus.jsonl", "jsonl", "")],
    ids=["header-only-csv", "empty-jsonl"],
)
def test_prep_refuses_an_input_without_records(tmp_path, capsys, name, fmt, text):
    corpus = tmp_path / name
    corpus.write_text(text)
    code = main(
        [
            "prep",
            "--input", str(corpus),
            "--format", fmt,
            "--vocab-out", str(tmp_path / "v.tsv"),
            "--out", str(tmp_path / "d.jsonl"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{corpus}: no records" in err and "Traceback" not in err
    assert not (tmp_path / "v.tsv").exists() and not (tmp_path / "d.jsonl").exists()


def empty_third_comment(workdir):
    """Rewrite data.jsonl so that its third comment has no tokens."""
    lines = (workdir / "data.jsonl").read_text().splitlines()
    obj = json.loads(lines[2])
    obj["token_ids"] = [0] * len(obj["token_ids"])
    obj["true_length"] = 0
    lines[2] = json.dumps(obj)
    (workdir / "data.jsonl").write_text("\n".join(lines) + "\n")


def run_evaluate(workdir):
    return main(
        [
            "evaluate",
            "--checkpoint", str(workdir / "trained" / "checkpoint_fold0.json"),
            "--data", str(workdir / "data.jsonl"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--out", str(workdir / "report.json"),
        ]
    )


@pytest.mark.parametrize(
    "command, output",
    [(run_train, "run"), (run_propagate, "filled.jsonl"), (run_evaluate, "report.json")],
    ids=["train", "propagate", "evaluate"],
)
def test_prepared_comment_without_tokens_exit_2(workdir, capsys, command, output):
    assert run_prep(workdir) == 0
    if command is run_evaluate:
        assert run_train(workdir, out_dir="trained") == 0
    empty_third_comment(workdir)
    capsys.readouterr()
    assert command(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'data.jsonl'}: row 3: comment '2' has no tokens" in err
    assert "Traceback" not in err
    assert not (workdir / output).exists()


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize(
    "command, output",
    [(run_train, "run"), (run_propagate, "filled.jsonl"), (run_evaluate, "report.json")],
    ids=["train", "propagate", "evaluate"],
)
def test_prepared_file_without_comments_exit_2(workdir, capsys, command, output, text):
    assert run_prep(workdir) == 0
    if command is run_evaluate:
        assert run_train(workdir, out_dir="trained") == 0
    (workdir / "data.jsonl").write_text(text)
    capsys.readouterr()
    assert command(workdir) == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'data.jsonl'}: no comments" in err and "Traceback" not in err
    assert not (workdir / output).exists()


def rewrite_third_comment(workdir, change):
    """Apply change(obj) to the third comment of data.jsonl."""
    lines = (workdir / "data.jsonl").read_text().splitlines()
    obj = json.loads(lines[2])
    change(obj)
    lines[2] = json.dumps(obj)
    (workdir / "data.jsonl").write_text("\n".join(lines) + "\n")


def run_evaluate_without_vocab(workdir):
    return main(
        [
            "evaluate",
            "--checkpoint", str(workdir / "trained" / "checkpoint_fold0.json"),
            "--data", str(workdir / "data.jsonl"),
            "--out", str(workdir / "report.json"),
        ]
    )


def padded(obj, true_length):
    """Pad obj's token_ids to the fixture's max_len 12, as older lines were, with the given true_length."""
    obj["token_ids"] += [0] * (12 - len(obj["token_ids"]))
    obj["true_length"] = true_length


BAD_TOKENS = {
    "id-beyond-table": (lambda obj: obj["token_ids"].append(10**6), 4, "comment '2' has token id 1000000"),
    "negative-id": (lambda obj: obj["token_ids"].append(-1), 2, "row 3: bad comment"),
    "non-integer-id": (lambda obj: obj["token_ids"].insert(0, 2.5), 2, "row 3: bad comment"),
    "bad-true-length": (lambda obj: padded(obj, 50), 2, "row 3: bad comment"),
}


@pytest.mark.parametrize(
    "command, output",
    [
        (run_train, "run"),
        (run_propagate, "filled.jsonl"),
        (run_evaluate, "report.json"),
        (run_evaluate_without_vocab, "report.json"),
    ],
    ids=["train", "propagate", "evaluate", "evaluate-without-vocab"],
)
@pytest.mark.parametrize("change, code, message", BAD_TOKENS.values(), ids=BAD_TOKENS.keys())
def test_bad_token_ids_refused(workdir, capsys, command, output, change, code, message):
    assert run_prep(workdir) == 0
    if command in (run_evaluate, run_evaluate_without_vocab):
        assert run_train(workdir, out_dir="trained") == 0
    rewrite_third_comment(workdir, change)
    capsys.readouterr()
    assert command(workdir) == code
    err = capsys.readouterr().err
    assert f"{workdir / 'data.jsonl'}: {message}" in err
    assert "Traceback" not in err
    assert not (workdir / output).exists()


def test_evaluate_reads_padded_lines_as_the_same_comments(workdir):
    """data.jsonl in the older padded format, with true_length, scores to the same bytes."""
    assert run_prep(workdir) == 0
    assert run_train(workdir, out_dir="trained") == 0
    assert run_evaluate(workdir) == 0
    report = (workdir / "report.json").read_bytes()
    lines = (workdir / "data.jsonl").read_text().splitlines()
    objs = [json.loads(line) for line in lines]
    assert all("true_length" not in obj and 0 not in obj["token_ids"] for obj in objs)
    old = []
    for obj in objs:
        ids = obj.pop("token_ids")
        old.append({"id": obj.pop("id"), "token_ids": ids + [0] * (12 - len(ids)), "true_length": len(ids)} | obj)
    (workdir / "data.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in old))
    assert run_evaluate(workdir) == 0
    assert (workdir / "report.json").read_bytes() == report


# One field of the fixture's third prepared line (comment '2': y 0.1) set to a value prep never writes,
# and what the refusal says.
BAD_PREPARED_FIELDS = {
    "y-nan": ("y", math.nan, "field 'y' out of [0,1]: nan"),
    "y-above-1": ("y", 2.0, "field 'y' out of [0,1]: 2.0"),
    "y-string": ("y", "0.5", "field 'y' is not a number: '0.5'"),
    "y-bin-contradicts-y": ("y_bin", 7, "field 'y_bin' is 7, but 'y' 0.1 gives 0"),
    "id-list": ("id", [1], "field 'id' must be a string, got [1]"),
    "propagated-string": ("propagated", "no", "field 'propagated' must be true or false, got 'no'"),
    "beta-negative": ("beta", -1, "field 'beta' must be finite and > 0, got -1.0"),
    "needs-propagation-string": (
        "needs_propagation", "yes", "field 'needs_propagation' must be true or false, got 'yes'"
    ),
}


@pytest.mark.parametrize("key, value, message", BAD_PREPARED_FIELDS.values(), ids=BAD_PREPARED_FIELDS.keys())
def test_train_refuses_a_bad_prepared_field_naming_file_and_row(workdir, capsys, key, value, message):
    assert run_prep(workdir) == 0
    rewrite_third_comment(workdir, lambda obj: obj.update({key: value}))
    capsys.readouterr()
    assert run_train(workdir) == 2
    err = capsys.readouterr().err
    assert f"error: {workdir / 'data.jsonl'}: row 3: bad comment: {message}\n" == err
    assert not (workdir / "run").exists()


def test_train_names_the_first_unannotated_comment(workdir, capsys):
    """A line's null identity_labels is an unannotated comment: train refuses it by its id."""
    assert run_prep(workdir) == 0
    rewrite_third_comment(workdir, lambda obj: obj.update(identity_labels=None))
    capsys.readouterr()
    assert run_train(workdir) == 2
    err = capsys.readouterr().err
    assert "unannotated identity rows (comment '2' is the first)" in err and "mtltox propagate" in err
    assert "Traceback" not in err
    assert not (workdir / "run").exists()


# Values of every JSON type; each field of a prepared line refuses those it does not accept.
_PREPARED_POOL = [None, math.nan, math.inf, -math.inf, -1, 2, "x", "0.5", True, False, [0.5], ["x"], [], {"a": 1}]


def _accepts(key, value, line) -> bool:
    """Whether the prepared line ``line`` may hold ``value`` at ``key``; label counts are not checked there."""
    def score(v):
        return type(v) in (int, float) and 0 <= v <= 1

    scores = type(value) is list and all(map(score, value))
    return {
        "id": type(value) is str,
        "token_ids": type(value) is list and bool(value) and all(type(v) is int and v >= 0 for v in value),
        "y": score(value),
        "identity_labels": value is None or scores,
        "subtype_labels": scores,
        "beta": type(value) in (int, float) and 0 < value < math.inf,
        "propagated": type(value) is bool,
        "y_bin": type(value) is int and value == int(line["y"] >= 0.5),
        "needs_propagation": type(value) is bool,
        "true_length": type(value) is int and 1 <= value <= len(line["token_ids"]),
    }[key]


@given(
    key=st.sampled_from(
        ["id", "token_ids", "y", "identity_labels", "subtype_labels", "beta", "propagated"]
        + ["y_bin", "needs_propagation", "true_length"]  # the keys older lines hold
    ),
    value=st.sampled_from(_PREPARED_POOL),
)
@settings(max_examples=60, deadline=None)
def test_a_bad_prepared_field_exits_2_naming_file_and_row(trained, key, value):
    """train, propagate and evaluate each refuse the fixture's data with one field of its first line changed."""
    workdir = trained[0]
    lines = (workdir / "data.jsonl").read_text().splitlines()
    assume(not _accepts(key, value, json.loads(lines[0])))
    lines[0] = json.dumps(json.loads(lines[0]) | {key: value})  # json writes NaN and Infinity, and reads them back
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.jsonl"
        data.write_text("\n".join(lines) + "\n")
        inputs = ["--data", str(data), "--vocab", str(workdir / "vocab.tsv")]
        config = ["--config", str(workdir / "config.json")]
        for argv in (
            ["train", *inputs, *config, "--folds", "2", "--out-dir", f"{tmp}/run"],
            ["propagate", *inputs, *config, "--out", f"{tmp}/filled.jsonl"],
            ["evaluate", "--checkpoint", str(workdir / "run" / "checkpoint_fold0.json"), *inputs, "--out", f"{tmp}/r.json"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 2 and err.getvalue().startswith(f"error: {data}: row 1: "), (argv[0], err.getvalue())
            assert sorted(path.name for path in Path(tmp).iterdir()) == ["data.jsonl"]


def _older_line(obj: dict) -> dict:
    """A prepared line as written before y_bin and needs_propagation were worked out: both stored, and zeros
    for the labels of an unannotated comment."""
    labels = obj["identity_labels"]
    return {
        "id": obj["id"], "token_ids": obj["token_ids"], "y": obj["y"], "y_bin": int(obj["y"] >= 0.5),
        "identity_labels": [0.0] * len(IDENTITY_COLUMNS) if labels is None else labels,
        "subtype_labels": obj["subtype_labels"], "beta": obj["beta"], "needs_propagation": labels is None,
        "propagated": obj["propagated"],
    }


def test_older_prepared_files_load_to_the_same_comments_and_predictions(workdir):
    from mtltox.corpus import Vocabulary, comment_to_dict, load_comments
    from mtltox.embeddings import random_table
    from mtltox.network import init_params, predict

    unannotate_rows(workdir)
    assert run_prep(workdir) == 0 and run_propagate(workdir) == 0
    params = init_params(Hyper(embed_dim=6, hidden=3, dense1=4, dense2=4, n_aux=9, max_len=12), seed=3)
    table = random_table(Vocabulary.load(workdir / "vocab.tsv"), 3, 3, seed=1)
    for name, unannotated in (("data.jsonl", 3), ("filled.jsonl", 0)):
        older = workdir / f"older-{name}"
        lines = (workdir / name).read_text().splitlines()
        older.write_text("".join(json.dumps(_older_line(json.loads(line))) + "\n" for line in lines))
        new, old = load_comments(workdir / name), load_comments(older)
        assert sum(c.needs_propagation for c in old) == unannotated
        for a, b in zip(new, old, strict=True):
            assert comment_to_dict(a) == comment_to_dict(b)
            assert (a.y_bin, a.needs_propagation, a.true_length) == (b.y_bin, b.needs_propagation, b.true_length)
        for got, want in zip(predict(params, table, new), predict(params, table, old)):
            assert got.tobytes() == want.tobytes()


class _FullDisk:
    """A file whose first write stops halfway, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def run_templates(workdir):
    checkpoint = workdir / "trained" / "checkpoint_fold0.json"
    return main(["templates", "--checkpoint", str(checkpoint), "--vocab", str(workdir / "vocab.tsv"),
                 "--out", str(workdir / "probe.json")])


# Each output the CLI writes, the command that writes it, and what it needs first.
WRITERS = {
    "prep-vocab": ("vocab.tsv", run_prep, ()),
    "prep-data": ("data.jsonl", run_prep, ()),
    "propagate": ("filled.jsonl", run_propagate, ("prep",)),
    "checkpoint": ("run/checkpoint_fold0.json", run_train, ("prep",)),
    "run-record": ("run/run_fold0.json", run_train, ("prep",)),
    "alpha-grid": ("run/alpha_grid.json", lambda w: run_train(w, extra=("--alpha", "grid:0.4,0.8")), ("prep",)),
    "report": ("report.json", run_evaluate, ("prep", "train")),
    "report-csv": ("report.csv", run_evaluate, ("prep", "train")),
    "templates": ("probe.json", run_templates, ("prep", "train")),
}


@pytest.mark.parametrize("earlier", [None, b"an earlier output\n"], ids=["new", "replacing"])
@pytest.mark.parametrize("target, command, needs", WRITERS.values(), ids=WRITERS.keys())
def test_an_output_cut_short_leaves_the_target_as_it_was(workdir, capsys, monkeypatch, target, command, needs, earlier):
    import mtltox.corpus as corpus

    if "prep" in needs:
        assert run_prep(workdir) == 0
    if "train" in needs:
        assert run_train(workdir, out_dir="trained") == 0
    path = workdir / target
    if earlier is not None:
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(earlier)

    def open_cut_short(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return _FullDisk(fh) if Path(file).name.startswith(f"{path.name}.") else fh

    monkeypatch.setattr(corpus, "open", open_cut_short, raising=False)  # the open that atomic_write calls
    capsys.readouterr()
    assert command(workdir) == 2
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err
    assert (path.read_bytes() == earlier) if earlier is not None else not path.exists()
    assert list(workdir.rglob("*.tmp")) == []


@pytest.mark.parametrize(
    "name, command, beside",
    [("probe.json", run_templates, []), ("report.json", run_evaluate, ["report.csv"])],
    ids=["templates", "evaluate"],
)
def test_an_output_that_is_a_fifo_is_written_in_place(workdir, capsys, name, command, beside):
    """An --out that exists and is not a regular file (here a FIFO; /dev/null is
    one too) is written through, not replaced, and no temp file is made beside it."""
    assert run_prep(workdir) == 0
    assert run_train(workdir, out_dir="trained") == 0
    assert command(workdir) == 0
    expected = (workdir / name).read_bytes()
    assert len(expected) < 65536  # the pipe's buffer holds it, so the writer never waits for the read below
    for path in [workdir / name, *(workdir / b for b in beside)]:
        path.unlink()
    fifo = workdir / name
    os.mkfifo(fifo)
    before = sorted(p.name for p in workdir.iterdir())
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # open before the command, so its open does not block
    try:
        code = command(workdir)
        chunks = []
        while chunk := os.read(reader, 65536):
            chunks.append(chunk)
    finally:
        os.close(reader)
    assert code == 0, capsys.readouterr().err
    assert b"".join(chunks) == expected
    assert fifo.is_fifo()
    assert sorted(p.name for p in workdir.iterdir()) == sorted([*before, *beside])


def run_on_checkpoint(workdir, command, checkpoint):
    """Run evaluate or templates on a checkpoint, writing to workdir/out.json."""
    args = ["--checkpoint", str(checkpoint), "--vocab", str(workdir / "vocab.tsv"), "--out", str(workdir / "out.json")]
    if command == "evaluate":
        args += ["--data", str(workdir / "data.jsonl")]
    return main([command, *args])


def _edit_header(edit):
    """A corruption that rewrites the header line and keeps the payload, whose hash stays valid."""
    def corrupt(data):
        line, payload = data.split(b"\n", 1)
        return json.dumps(edit(json.loads(line))).encode() + b"\n" + payload
    return corrupt


def _with_hyper(**change):
    return _edit_header(lambda h: h | {"hyper": h["hyper"] | change})


def _renamed_tensor(h):
    return h | {"tensors": {"dense1_bias" if name == "dense1_b" else name: e for name, e in h["tensors"].items()}}


def _embedding_shape(h):
    rows = h["tensors"]["embedding"]["shape"][0]
    return h | {"tensors": h["tensors"] | {"embedding": {"shape": [2 * rows, 3], "offset": 0}}}


def _nan_in(tensor):
    """A corruption that writes a NaN over the tensor's first value and recomputes the payload's hash."""
    def corrupt(data):
        line, payload = data.split(b"\n", 1)
        header = json.loads(line)
        names = list(header["tensors"])
        at = 8 * sum(math.prod(header["tensors"][name]["shape"]) for name in names[: names.index(tensor)])
        payload = payload[:at] + np.array(NAN, "<f8").tobytes() + payload[at + 8 :]
        header["sha256"] = hashlib.sha256(payload).hexdigest()
        return json.dumps(header).encode() + b"\n" + payload
    return corrupt


# Each corruption of the fixture's checkpoint and a part of the error it gives. The
# header edits describe a model other than the fixture's (hidden 3, dense 4, n_aux 9,
# embedding 3 + 3) without touching the payload.
CORRUPTIONS = {
    "truncated": (lambda data: data[:-1], "payload holds"),
    "flipped-payload-byte": (
        lambda data: data[:-5] + bytes([data[-5] ^ 0x01]) + data[-4:], "payload SHA-256 does not match"
    ),
    "byte-appended": (lambda data: data + b"\0", "payload holds"),
    "version-1": (lambda data: b'{"version": 1}', "re-run"),
    "renamed-tensor": (
        _edit_header(_renamed_tensor), "'dense1_b' None (the model's [4]); 'dense1_bias' [4] (the model's None)"
    ),
    "hidden-4": (_with_hyper(hidden=4), "'lstm0_fwd_Wh' [3, 12] (the model's [4, 16])"),
    "n_aux-3": (_with_hyper(n_aux=3), "'head_aux_W' [4, 9] (the model's [4, 3])"),
    "hidden-string": (_with_hyper(hidden="x"), "'hyper.hidden' must be an integer"),
    "hidden-10**400": (_with_hyper(hidden=10**400), "'hyper.hidden' is an integer too large for a float"),
    "hidden-2**64": (_with_hyper(hidden=2**64), "'hyper.hidden' must be at most 9223372036854775807"),
    "embed_dim-7": (_with_hyper(embed_dim=7), "'hyper' embed_dim is 7, not dim1 + dim2 = 6"),
    "embedding-shape": (_edit_header(_embedding_shape), "tensor 'embedding' has shape [40, 3], not [rows, 6]"),
    "hidden-0": (_with_hyper(hidden=0), "hyper.hidden must be >= 1, got 0"),
    "dense1-0": (_with_hyper(dense1=0), "hyper.dense1 must be >= 1, got 0"),
    "max_len-negative": (_with_hyper(max_len=-4), "hyper.max_len must be >= 1, got -4"),
    "n_aux-negative": (_with_hyper(n_aux=-1), "hyper.n_aux must be >= 0, got -1"),
    "dropout-1.5": (_with_hyper(dropout_rate=1.5), "hyper.dropout_rate must be in [0, 1), got 1.5"),
    "dropout-nan": (_with_hyper(dropout_rate=float("nan")), "hyper.dropout_rate must be in [0, 1), got nan"),
    "nan-in-dense1_W": (_nan_in("dense1_W"), "tensor 'dense1_W' holds a non-finite value"),
    "nan-in-embedding": (_nan_in("embedding"), "tensor 'embedding' holds a non-finite value"),
}


@pytest.mark.parametrize("command", ["evaluate", "templates"])
@pytest.mark.parametrize("corrupt, message", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_corrupt_checkpoint_exit_4(workdir, capsys, command, corrupt, message):
    assert run_prep(workdir) == 0
    assert run_train(workdir) == 0
    bad = workdir / "bad.json"
    bad.write_bytes(corrupt((workdir / "run" / "checkpoint_fold0.json").read_bytes()))
    capsys.readouterr()
    assert run_on_checkpoint(workdir, command, bad) == 4
    err = capsys.readouterr().err
    assert f"{bad}: " in err and message in err and "Traceback" not in err, err
    assert not (workdir / "out.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "templates"])
def test_missing_checkpoint_exit_2_and_directory_exit_4(workdir, capsys, command):
    assert run_prep(workdir) == 0
    capsys.readouterr()
    assert run_on_checkpoint(workdir, command, workdir / "nope.json") == 2
    assert "nope.json" in capsys.readouterr().err
    assert run_on_checkpoint(workdir, command, workdir) == 4
    assert str(workdir) in capsys.readouterr().err
    assert not (workdir / "out.json").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The fixture corpus prepared and trained once: (its directory, fold 0's checkpoint bytes, and the
    bytes of the report and CSV that evaluate writes from that checkpoint)."""
    workdir = tmp_path_factory.mktemp("trained")
    write_fixture_csv(workdir / "corpus.csv")
    (workdir / "config.json").write_text(json.dumps(CONFIG))
    assert run_prep(workdir) == 0 and run_train(workdir) == 0
    checkpoint = workdir / "run" / "checkpoint_fold0.json"
    assert run_on_checkpoint(workdir, "evaluate", checkpoint) == 0
    outputs = [(workdir / name).read_bytes() for name in ("out.json", "out.csv")]
    return workdir, checkpoint.read_bytes(), outputs


def _header_paths(value, path=()):
    """The path of every value inside a checkpoint header, lists' items and objects' values alike."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield (*path, key)
        yield from _header_paths(item, (*path, key))


_DROP = object()  # a header mutation that deletes the field


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mutated_checkpoint_evaluates_as_before_or_exits_4_naming_it(trained, data):
    """One header field replaced or deleted, or one payload byte replaced, with the payload's hash recomputed
    or not. A changed payload with its hash recomputed is another model, whose report may differ."""
    workdir, original, outputs = trained
    line, original_payload = original.split(b"\n", 1)
    header, payload, new_model = json.loads(line), original_payload, False
    if data.draw(st.booleans(), label="mutate the header"):
        *parents, key = data.draw(st.sampled_from(list(_header_paths(header))), label="field")
        container = header
        for parent in parents:
            container = container[parent]
        value = data.draw(st.just(_DROP) | _ANY_JSON, label="value")
        if value is _DROP:
            del container[key]
        else:
            container[key] = value
    else:
        at = data.draw(st.integers(0, len(payload) - 1), label="payload byte")
        payload = payload[:at] + bytes([data.draw(st.integers(0, 255), label="new byte")]) + payload[at + 1 :]
        if data.draw(st.booleans(), label="recompute the hash"):
            header["sha256"] = hashlib.sha256(payload).hexdigest()
            new_model = payload != original_payload
    bad = workdir / "mutated.json"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    for name in ("out.json", "out.csv"):
        (workdir / name).unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_on_checkpoint(workdir, "evaluate", bad)
    if code == 0 and new_model:
        json.loads((workdir / "out.json").read_text(), parse_constant=_refuse_constant)
    elif code == 0:
        assert [(workdir / name).read_bytes() for name in ("out.json", "out.csv")] == outputs
    else:
        assert code == 4 and f"{bad}: " in err.getvalue(), err.getvalue()


def test_same_seed_checkpoints_byte_identical(workdir):
    assert run_prep(workdir) == 0
    assert run_train(workdir, out_dir="run_a") == 0
    assert run_train(workdir, out_dir="run_b") == 0
    names = sorted(path.name for path in (workdir / "run_a").glob("checkpoint_fold*.json"))
    assert names == ["checkpoint_fold0.json", "checkpoint_fold1.json"]
    for name in names:
        assert (workdir / "run_a" / name).read_bytes() == (workdir / "run_b" / name).read_bytes()


def test_cli_docstring_config_example_is_accepted(tmp_path):
    example = cli.__doc__.split("any other key is refused with exit code 2:", 1)[1].split("\n\n")[1]
    config = json.loads(example)
    path = tmp_path / "cfg.json"
    path.write_text(example)
    sources, hyper, cfg, subgroups = cli._load_config(str(path))
    built = {"hyper": hyper, "embeddings": sources, "train": cfg}
    assert {section: {key: getattr(built[section], key) for key in config[section]} for section in SECTIONS} == {
        section: config[section] for section in SECTIONS
    }
    assert hyper.embed_dim == sources.dim1 + sources.dim2
    assert subgroups == config["subgroups"]
    # The example shows every accepted key, so it cannot fall behind the code either.
    assert {section: set(config[section]) for section in SECTIONS} == {
        section: set(section_keys(section)) for section in SECTIONS
    }


def test_every_stored_report_has_the_keys_of_a_bias_report(workdir):
    """run_fold*.json's metrics, each alpha_grid.json result's metrics, and the
    files evaluate and bias-report write all hold BiasReport.to_dict()."""
    assert run_prep(workdir) == 0
    assert run_train(workdir, out_dir="trained") == 0
    assert run_train(workdir, out_dir="grid", extra=("--alpha", "grid:0.4,0.8")) == 0
    assert run_evaluate(workdir) == 0
    preds = workdir / "preds.csv"
    preds.write_text("score,label,male\n0.9,1,0.0\n0.2,0,0.9\n0.8,1,0.9\n")
    assert main(["bias-report", "--predictions", str(preds), "--out", str(workdir / "rep.json")]) == 0

    def read(path):
        return json.loads(path.read_text())

    stored = [read(path)["metrics"] for path in sorted(workdir.glob("*/run_fold*.json"))]
    stored += [result["metrics"] for result in read(workdir / "grid" / "alpha_grid.json")["results"]]
    stored += [read(workdir / "report.json"), read(workdir / "rep.json")]
    assert len(stored) == 2 + 2 + 2 + 2
    keys = set(bias_report([ScoredExample(0.9, 1), ScoredExample(0.2, 0)], ["male"]).to_dict())
    stats_keys = {f.name for f in dataclasses.fields(SubgroupStats)}
    for report in stored:
        assert set(report) == keys
        assert list(report["subgroups"]) == list(IDENTITY_COLUMNS)
        assert all(set(stats) == stats_keys for stats in report["subgroups"].values())


class TestBiasReportCommand:
    def test_offline_predictions(self, tmp_path, capsys):
        pred = tmp_path / "preds.csv"
        pred.write_text(
            "id,score,label,male\n"
            "1,0.9,1,0.0\n"
            "2,0.2,0,0.9\n"
            "3,0.8,1,0.9\n"
            "4,0.1,0,0.0\n"
        )
        code = main(
            [
                "bias-report",
                "--predictions", str(pred),
                "--subgroups", "male",
                "--out", str(tmp_path / "rep.json"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["overall_auc"] == 1.0
        assert report["subgroups"]["male"]["subgroup_auc"] == 1.0

    @pytest.mark.parametrize(
        "name, text, row, cause",
        [
            ("preds.jsonl", '{"score": 0.9, "label": 1}\n\n{"score": 0.2, label: 0}\n', 3, "invalid JSON"),
            (
                "preds.csv", "id,score,label,male\n1,0.9,1,0.0\n2,0.2,0,yes\n", 2,
                "could not convert string to float: 'yes'",
            ),
        ],
        ids=["bad-json", "non-numeric-subgroup"],
    )
    def test_bad_row_named_exit_2(self, tmp_path, capsys, name, text, row, cause):
        pred = tmp_path / name
        pred.write_text(text)
        code = main(
            [
                "bias-report",
                "--predictions", str(pred),
                "--subgroups", "male",
                "--out", str(tmp_path / "rep.json"),
            ]
        )
        assert code == 2
        assert f"{pred}: row {row}: {cause}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("preds.csv", "score,label\n0.9,1\nnan,0\n", "row 2: score 'nan' is not a finite number"),
            ("preds.csv", "score,label\n0.9,1\n-inf,0\n", "row 2: score '-inf' is not a finite"),
            ("preds.jsonl", '{"score": NaN, "label": 1}\n', "row 1: score nan is not a finite"),
            ("preds.csv", "score,label\n0.9,1\n0.2,2\n", "row 2: label '2' is not 0 or 1"),
            ("preds.csv", "score,label\n0.9,0.7\n", "row 1: label '0.7' is not 0 or 1"),
            ("preds.csv", "score,label\n0.9,nan\n", "row 1: label 'nan' is not 0 or 1"),
            ("preds.csv", "label,male\n1,0.0\n", "row 1: missing field 'score'"),
            ("preds.csv", "score,label\n", "no predictions"),
            ("preds.csv", "", "no predictions"),
            ("preds.jsonl", "\n\n", "no predictions"),
        ],
        ids=[
            "nan-score", "infinite-score", "json-nan-score", "label-2", "fractional-label", "nan-label",
            "no-score-column", "header-only-csv", "empty-csv", "blank-jsonl",
        ],
    )
    def test_bad_scores_labels_and_empty_files_exit_2(self, tmp_path, capsys, name, text, message):
        pred = tmp_path / name
        pred.write_text(text)
        out = tmp_path / "rep.json"
        assert main(["bias-report", "--predictions", str(pred), "--subgroups", "male", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{pred}: {message}" in err and "Traceback" not in err
        assert not out.exists()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


_TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=6)
_EDGE = ["nan", "inf", "1e400", "2", "0.7", ""]
# The cells of a valid predictions file, column by column.
_VALID = {
    "id": _TEXT,
    "score": st.floats(0, 1).map(repr),
    "label": st.sampled_from(["0", "1"]),
    "male": st.sampled_from(["0.0", "0.9", ""]),
}


@st.composite
def _predictions_file(draw):
    """(suffix, text) of a predictions file: arbitrary text, or valid rows
    with columns missing and one arbitrary value in some cells of a column."""
    suffix = draw(st.sampled_from([".csv", ".jsonl"]))
    if draw(st.integers(0, 4)) == 0:
        return suffix, draw(st.text(st.characters(exclude_categories=["Cs"]), max_size=40))
    missing = draw(st.lists(st.sampled_from(list(_VALID)), unique=True, max_size=2))
    columns = [c for c in _VALID if c not in missing]
    rows = [[draw(_VALID[c]) for c in columns] for _ in range(draw(st.integers(0, 6)))]
    bad = draw(st.sampled_from([c for c in columns if c != "id"] or [None]))
    if bad is not None:
        edge = _EDGE + ([float("nan"), 10**400, True, None, []] if suffix == ".jsonl" else [])
        value = draw(st.one_of(st.sampled_from(edge), _TEXT))
        for row in rows:
            if draw(st.booleans()):
                row[columns.index(bad)] = value
    if suffix == ".jsonl":
        return suffix, "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)
    buffer = io.StringIO()
    csv.writer(buffer).writerows([columns, *rows])
    return suffix, buffer.getvalue()


@given(predictions=_predictions_file())
@settings(max_examples=50, deadline=None)
def test_bias_report_ends_in_a_json_report_or_exit_2_naming_the_file(predictions):
    suffix, text = predictions
    with tempfile.TemporaryDirectory() as tmp:
        pred, out = Path(tmp) / f"preds{suffix}", Path(tmp) / "rep.json"
        pred.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["bias-report", "--predictions", str(pred), "--subgroups", "male", "--out", str(out)])
        if code == 0:
            json.loads(out.read_text(), parse_constant=_refuse_constant)
        else:
            assert code == 2 and str(pred) in err.getvalue(), err.getvalue()


class TestTemplatesCommand:
    def test_probe_runs(self, workdir, capsys):
        TestTrainEvaluate().train(workdir)
        code = main(
            [
                "templates",
                "--checkpoint", str(workdir / "run" / "checkpoint_fold0.json"),
                "--vocab", str(workdir / "vocab.tsv"),
                "--out", str(workdir / "probe.json"),
            ]
        )
        assert code == 0
        payload = json.loads((workdir / "probe.json").read_text())
        assert set(payload) == {"gay", "lesbian", "bisexual", "muslim", "jew", "black"}
        assert all(len(v["nontoxic_scores"]) == 7 for v in payload.values())

    @pytest.mark.parametrize(
        "bad_line, cause",
        [
            ("toxic I hate <Identity>", "expected polarity<TAB>text"),
            ("neutral\tI am <Identity>", "bad polarity: 'neutral'"),
        ],
        ids=["no-tab", "bad-polarity"],
    )
    def test_bad_templates_file_line_named_exit_2(self, workdir, capsys, bad_line, cause):
        TestTrainEvaluate().train(workdir)
        templates_file = workdir / "extra.tsv"
        templates_file.write_text(f"# extra probes\ntoxic\tI hate <Identity>\n{bad_line}\n")
        code = main(
            [
                "templates",
                "--checkpoint", str(workdir / "run" / "checkpoint_fold0.json"),
                "--vocab", str(workdir / "vocab.tsv"),
                "--templates-file", str(templates_file),
            ]
        )
        assert code == 2
        assert f"{templates_file}: row 3: {cause}" in capsys.readouterr().err

    def test_identity_the_vocabulary_cannot_spell_exit_2(self, workdir, capsys):
        # "zzzunknown" would probe the <unk> row, and "!!" (no token) the template with its slot emptied.
        TestTrainEvaluate().train(workdir)
        vocab = workdir / "vocab.tsv"
        argv = ["templates", "--checkpoint", str(workdir / "run" / "checkpoint_fold0.json"), "--vocab", str(vocab)]
        capsys.readouterr()
        for identities, message in (
            (
                "nice,zzzunknown",
                f"--identities: 'zzzunknown': its token 'zzzunknown' is outside the vocabulary {vocab}",
            ),
            ("nice,!!", f"--identities: '!!': it has no token in the vocabulary {vocab}"),
        ):
            assert main([*argv, "--identities", identities, "--out", str(workdir / "probe.json")]) == 2
            out, err = capsys.readouterr()
            assert message in err and "Traceback" not in err and out == ""
            assert not (workdir / "probe.json").exists()
        assert main([*argv, "--identities", "nice,kind"]) == 0
        assert capsys.readouterr().out.startswith("nice: mean nontoxic=")


class TestKsCompare:
    def write_run(self, path, aucs):
        path.mkdir(parents=True, exist_ok=True)
        for i, auc in enumerate(aucs):
            (path / f"run_fold{i}.json").write_text(
                json.dumps({"fold": i, "config": {"k_folds": len(aucs)}, "metrics": {"overall_auc": auc, "f1": auc}})
            )

    def test_identical_runs(self, tmp_path, capsys):
        self.write_run(tmp_path / "a", [0.8, 0.9])
        self.write_run(tmp_path / "b", [0.8, 0.9])
        code = main(["ks-compare", "--run-a", str(tmp_path / "a"), "--run-b", str(tmp_path / "b")])
        assert code == 0
        assert "D=0.0 p=1.0" in capsys.readouterr().out

    def test_disjoint_runs(self, tmp_path, capsys):
        self.write_run(tmp_path / "a", [0.1, 0.2])
        self.write_run(tmp_path / "b", [0.8, 0.9])
        main(["ks-compare", "--run-a", str(tmp_path / "a"), "--run-b", str(tmp_path / "b")])
        assert "D=1.0" in capsys.readouterr().out

    def test_compares_what_train_writes(self, workdir, capsys):
        run_prep(workdir)
        assert run_train(workdir, out_dir="run_a", seed="5") == 0
        assert run_train(workdir, out_dir="run_b", seed="6") == 0
        metrics = json.loads((workdir / "run_a" / "run_fold0.json").read_text())["metrics"]
        assert set(metrics["subgroups"]) == set(IDENTITY_COLUMNS)
        assert all({"bpsn_auc", "subgroup_auc"} <= set(s) for s in metrics["subgroups"].values())
        capsys.readouterr()
        code = main(["ks-compare", "--run-a", str(workdir / "run_a"), "--run-b", str(workdir / "run_b")])
        assert code == 0
        assert capsys.readouterr().out.startswith("D=")

    def test_reads_records_with_the_older_metrics_shape(self, tmp_path, capsys):
        """Records written before the metrics became a BiasReport held name -> AUC dicts."""
        for run, values in (("a", [0.1, 0.2]), ("b", [0.8, 0.9])):
            (tmp_path / run).mkdir()
            for fold, value in enumerate(values):
                metrics = {
                    "overall_auc": value, "precision": 0.5, "recall": 0.5, "f1": value,
                    "generalized_mean_bias_auc": None,
                    "bpsn_auc": {"male": 0.75, "female": None},
                    "subgroup_auc": {"male": 1.0, "female": None},
                }
                record = {"seed": 5 + fold, "alpha": 0.6, "fold": fold, "epochs": [], "metrics": metrics,
                          "wall_clock": 0.1, "config": {}}
                (tmp_path / run / f"run_fold{fold}.json").write_text(json.dumps(record, indent=2))
        for metric in ("auc", "f1"):
            argv = ["ks-compare", "--run-a", str(tmp_path / "a"), "--run-b", str(tmp_path / "b"), "--metric", metric]
            assert main(argv) == 0
            assert capsys.readouterr().out.startswith("D=1.0 ")

    def test_missing_metric_exit_2(self, tmp_path, capsys):
        self.write_run(tmp_path / "a", [0.8, 0.9])
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "run_fold0.json").write_text(json.dumps({"metrics": {}}))
        code = main(["ks-compare", "--run-a", str(tmp_path / "a"), "--run-b", str(tmp_path / "b"), "--metric", "f1"])
        assert code == 2
        assert f"{tmp_path / 'b' / 'run_fold0.json'}: 'metrics.f1' is missing or null" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[0.8, 0.9]", "run record must be a JSON object"),
            ('{"metrics": [0.8]}', "'metrics' must be a JSON object"),
            ('{"metrics": null}', "'metrics' must be a JSON object"),
            ('{"metrics": {"overall_auc": ', "cannot read run record"),
            ('{"metrics": {"overall_auc": "NaN"}}', "'metrics.overall_auc' must be a finite number, got 'NaN'"),
            ('{"metrics": {"overall_auc": NaN}}', "'metrics.overall_auc' must be a finite number, got nan"),
            ('{"metrics": {"overall_auc": Infinity}}', "'metrics.overall_auc' must be a finite number, got inf"),
            ('{"metrics": {"overall_auc": true}}', "'metrics.overall_auc' must be a finite number, got True"),
            ('{"metrics": {"overall_auc": null}}', "'metrics.overall_auc' is missing or null"),
            (None, "cannot read run record"),  # a directory where the record should be
        ],
        ids=["array", "metrics-list", "metrics-null", "bad-json", "nan-string", "nan-literal",
             "infinity", "bool", "null", "directory"],
    )
    def test_malformed_record_named_exit_2(self, tmp_path, capsys, text, message):
        self.write_run(tmp_path / "a", [0.8, 0.9])
        self.write_run(tmp_path / "b", [0.8])
        bad = tmp_path / "b" / "run_fold1.json"
        if text is None:
            bad.mkdir()
        else:
            bad.write_text(text)
        code = main(["ks-compare", "--run-a", str(tmp_path / "a"), "--run-b", str(tmp_path / "b")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: {message}" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "records",
        [
            [(0, 4), (3, 4)],  # two of a 4-fold run's records, the others gone
            [(0, 4), (1, 4)],
            [(0, 2), (2, 2)],
            [(0, 3), (1, 3), (1, 3)],
            [(0, 2), (None, 2)],
            [(0, None), (1, 3)],
        ],
        ids=["folds-0-and-3-of-4", "folds-0-and-1-of-4", "fold-2-of-2", "fold-1-twice", "no-fold", "k_folds-3"],
    )
    def test_a_directory_that_is_not_one_whole_run_exit_2(self, tmp_path, capsys, records):
        self.write_run(tmp_path / "a", [0.8, 0.9])
        run = tmp_path / "b"
        run.mkdir()
        for i, (fold, k_folds) in enumerate(records):
            record = {"fold": fold, "config": {} if k_folds is None else {"k_folds": k_folds},
                      "metrics": {"overall_auc": 0.5, "f1": 0.5}}
            (run / f"run_fold{i}.json").write_text(json.dumps(record))
        code = main(["ks-compare", "--run-a", str(tmp_path / "a"), "--run-b", str(run)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{run}: not one whole run: " in err and "Traceback" not in err


def test_readme_command_lines_parse():
    import shlex
    from pathlib import Path

    from mtltox.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = [
        line for line in section.replace("\\\n", " ").splitlines() if line.strip().startswith("mtltox ")
    ]
    assert len(commands) == 7
    parser = build_parser()
    for command in commands:
        tokens = shlex.split(command)[1:]
        args = vars(parser.parse_args(tokens))
        assert args["command"] == tokens[0]
        # argparse accepts unambiguous prefixes; the README spells flags out.
        for flag in (t for t in tokens if t.startswith("--")):
            assert flag[2:].replace("-", "_") in args, (command, flag)


def test_readme_documents_every_option():
    import argparse
    import re

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        (name, option)
        for name, sub in commands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert len(options) > 20
    # `--c` must not pass as the start of `--checkpoint`.
    missing = sorted(o for o in options if not re.search(re.escape(o[1]) + r"(?![\w-])", section))
    assert missing == []


def test_readme_lists_the_keys_of_a_prepared_line():
    import re

    from mtltox.corpus import Vocabulary, comment_to_dict, make_comment

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("A prepared file has one JSON object per line, with the keys", 1)[1].split(".", 1)[0]
    comment = make_comment("a", "some words", 0.2, None, Vocabulary.build([["some"]]), 4, 3.0)
    assert re.findall(r"`(\w+)`", sentence) == list(comment_to_dict(comment))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("value, expected", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_import_defaults_to_one_blas_thread(value, expected):
    import os
    import subprocess
    import sys

    import mtltox

    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env |= dict.fromkeys(BLAS_THREAD_VARS, value) if value is not None else {}
    env["PYTHONPATH"] = str(Path(mtltox.__file__).resolve().parents[1])
    script = f"import os, mtltox; print(*(os.environ[v] for v in {BLAS_THREAD_VARS}))"
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == [expected] * 3
