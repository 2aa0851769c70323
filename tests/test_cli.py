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
