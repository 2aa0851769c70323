import json

import numpy as np
import pytest

from mtltox.cli import main
from mtltox.corpus import IDENTITY_COLUMNS


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
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["p"] == -5
        assert set(payload["report"]["subgroups"]) == set(IDENTITY_COLUMNS)
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


@pytest.mark.parametrize("extra", [(), ("--alpha", "grid:0.4,0.8")], ids=["plain", "alpha-grid"])
def test_train_refuses_unannotated_rows_until_propagated(workdir, capsys, extra):
    lines = (workdir / "corpus.csv").read_text().splitlines()
    for i in (2, 5, 8):
        id_, text, target = lines[i].split(",")[:3]
        lines[i] = ",".join([id_, text, target] + [""] * len(IDENTITY_COLUMNS))
    (workdir / "corpus.csv").write_text("\n".join(lines) + "\n")
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


def test_config_accepts_an_int_for_a_float_and_null_where_allowed(tmp_path):
    import mtltox.cli as cli

    config = {
        "hyper": {"dropout_rate": 0, "attention": False},
        "train": {"learning_rate": 1, "grad_clip_norm": None},
        "subgroups": [],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli._load_config(str(path)) == config


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


def test_cli_docstring_config_example_is_accepted(tmp_path):
    import mtltox.cli as cli

    example = cli.__doc__.split("any other key is refused with exit code 2:", 1)[1].split("\n\n")[1]
    config = json.loads(example)
    path = tmp_path / "cfg.json"
    path.write_text(example)
    assert cli._load_config(str(path)) == config
    # The example shows every accepted key, so it cannot fall behind the code either.
    assert {section: set(config[section]) for section in cli.CONFIG_SECTIONS} == cli.CONFIG_SECTIONS


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
        "name, text, row",
        [
            ("preds.jsonl", '{"score": 0.9, "label": 1}\n\n{"score": 0.2, label: 0}\n', 3),
            ("preds.csv", "id,score,label,male\n1,0.9,1,0.0\n2,0.2,0,yes\n", 2),
        ],
        ids=["bad-json", "non-numeric-subgroup"],
    )
    def test_bad_row_named_exit_2(self, tmp_path, capsys, name, text, row):
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
        assert f"predictions row {row}:" in capsys.readouterr().err


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
        "bad_line", ["toxic I hate <Identity>", "neutral\tI am <Identity>"], ids=["no-tab", "bad-polarity"]
    )
    def test_bad_templates_file_line_named_exit_2(self, workdir, capsys, bad_line):
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
        assert f"{templates_file}:3:" in capsys.readouterr().err


class TestKsCompare:
    def write_run(self, path, aucs):
        path.mkdir(parents=True, exist_ok=True)
        for i, auc in enumerate(aucs):
            (path / f"run_fold{i}.json").write_text(
                json.dumps({"metrics": {"overall_auc": auc, "f1": auc}})
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
        assert set(metrics["bpsn_auc"]) == set(IDENTITY_COLUMNS)
        assert set(metrics["subgroup_auc"]) == set(IDENTITY_COLUMNS)
        capsys.readouterr()
        code = main(["ks-compare", "--run-a", str(workdir / "run_a"), "--run-b", str(workdir / "run_b")])
        assert code == 0
        assert capsys.readouterr().out.startswith("D=")

    def test_missing_metric_exit_2(self, tmp_path):
        self.write_run(tmp_path / "a", [0.8, 0.9])
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "run_fold0.json").write_text(json.dumps({"metrics": {}}))
        code = main(["ks-compare", "--run-a", str(tmp_path / "a"), "--run-b", str(tmp_path / "b")])
        assert code == 2


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
