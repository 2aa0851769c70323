"""Tests of the benchmark itself, at reduced size. Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mtltox.checkpoint as checkpoint  # noqa: E402
import mtltox.corpus as corpus  # noqa: E402
import mtltox.embeddings as embeddings  # noqa: E402
import mtltox.metrics as metrics  # noqa: E402
import mtltox.network as network  # noqa: E402
import mtltox.training as training  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Ledger  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The report metrics each workload must print: those of the phases it runs.
EXPECTED_REPORT = {
    "desk-bias": {
        "train_examples_per_s", "predict_examples_per_s", "checkpoint_save_s", "checkpoint_load_s",
        "report_s", "probe_s", "train_loss_final", "bpsn_auc_min",
    },
    "paper-train": {"train_examples_per_s", "checkpoint_save_s", "train_loss_final"},
    "paper-eval": {"predict_examples_per_s", "checkpoint_load_s", "report_s", "probe_s"},
}


@pytest.fixture(scope="module")
def traced_results(tmp_path_factory):
    return {
        name: harness.run_workload(name, 0, 0.01, True, tmp_path_factory.mktemp(name), tiny=True)
        for name in WORKLOADS
    }


def test_benchmark_json_names_what_the_harness_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(harness.E2E)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(traced_results, name):
    result = traced_results[name]
    untraced = dataclasses.replace(result, trace=False).final()
    assert untraced["correct"] is True
    assert untraced["metrics"].keys() == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        entry = untraced["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]) and entry["value"] > 0

    traced = result.final()
    assert traced["metrics"].keys() == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        entry = traced["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])

    units = dict(harness.REPORT)
    assert set(result.report) == {n for n, _ in harness.E2E} | {"failed_ratio"} | EXPECTED_REPORT[name]
    assert all(math.isfinite(v) for v in result.report.values())
    assert result.report["failed_ratio"] == result.failed / result.attempted
    assert all(name in units for name in result.report)


def test_empty_comments_fail_their_predict_chunks(traced_results):
    eval_result = traced_results["paper-eval"]
    assert eval_result.failed > 0  # the empty comment aborts its chunk
    assert traced_results["desk-bias"].failed == 0
    assert traced_results["paper-train"].failed == 0


def test_traced_run_covers_each_layer(traced_results):
    train = traced_results["paper-train"].per_layer
    assert train["network.backward.calls"] == 16  # one per training example
    assert train["network.forward.calls"] == 16 + 4  # plus the validation rows
    assert train["training.adam_step.calls"] == 1
    assert train["losses.calls"] > 0 and train["corpus.binarize.s"] > 0
    evaluation = traced_results["paper-eval"].per_layer
    assert evaluation["network.backward.calls"] == 0
    assert evaluation["templates.run_probe.probes"] == 84
    assert evaluation["corpus.rows"] == 32
    assert evaluation["metrics.bias_report.rows"] > 3000
    assert evaluation["checkpoint.load.s"] > 0 and evaluation["checkpoint.mb"] > 0
    desk = traced_results["desk-bias"].per_layer
    assert desk["embeddings.lookup.calls"] == desk["network.forward.calls"]


def test_tracer_rebinds_names_imported_elsewhere():
    original = network.forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert training.forward is network.forward
        assert training.forward is not original
    finally:
        tracer.uninstall()
    assert network.forward is original and training.forward is original


def _corrupt_first_tensor(monkeypatch):
    real_load = checkpoint.load_checkpoint

    def corrupted(path):
        params, table, vocab_checksum, meta = real_load(path)
        first = next(iter(params.tensors.values()))
        first.flat[0] = np.nextafter(first.flat[0], np.inf)
        return params, table, vocab_checksum, meta

    monkeypatch.setattr(checkpoint, "load_checkpoint", corrupted)


@pytest.mark.parametrize("name", ["desk-bias", "paper-eval"])  # the workloads that load
def test_checks_fire_on_a_corrupted_loaded_tensor(monkeypatch, tmp_path, name):
    _corrupt_first_tensor(monkeypatch)
    with pytest.raises(CheckFailed, match="checkpoint-roundtrip"):
        harness.run_workload(name, 0, 0.01, False, tmp_path, tiny=True)


def _digest(inputs) -> str:
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(obj.tobytes())
        elif isinstance(obj, list):
            for item in obj:
                feed(item)
        elif isinstance(obj, corpus.Comment):
            feed(obj.token_ids)
            feed(obj.identity_labels)
            h.update(repr((obj.true_length, obj.y, obj.beta)).encode())
        elif isinstance(obj, metrics.ScoredExample):
            h.update(repr((obj.score, obj.label, sorted(obj.subgroups))).encode())
        elif isinstance(obj, embeddings.EmbeddingTable):
            feed(obj.matrix)
        elif isinstance(obj, network.ModelParams):
            for key in sorted(obj.tensors):
                feed(obj.tensors[key])
        elif isinstance(obj, corpus.Vocabulary):
            h.update(obj.checksum().encode())
        elif isinstance(obj, Path):
            h.update(obj.read_bytes())
        else:
            raise TypeError(type(obj))

    for key in sorted(vars(inputs)):
        feed(vars(inputs)[key])
    return h.hexdigest()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_determines_inputs(tmp_path, name):
    def inputs(seed, run):
        workdir = tmp_path / f"{seed}-{run}"
        workdir.mkdir()
        return _digest(WORKLOADS[name](seed, workdir, tiny=True).setup())

    first = inputs(0, 0)
    assert inputs(0, 1) == first
    assert inputs(1, 0) != first


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_runs_agree_bitwise(tmp_path, name):
    workload = WORKLOADS[name](0, tmp_path, tiny=True)
    plain = workload.iterate(workload.setup(), Ledger())
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = workload.iterate(workload.setup(), Ledger(), tracer)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert plain.outputs.keys() == traced.outputs.keys()
    for key in plain.outputs:
        assert plain.outputs[key].tobytes() == traced.outputs[key].tobytes(), key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-bias", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
