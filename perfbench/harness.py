"""Run one workload, measure it, check it and print its metrics.

An untraced run sets up the inputs repeatedly, at least twice and until
SETUP_SECONDS have gone or SETUP_MAX setups are done (``setup_s`` is the
median), then repeats the workload's iteration while the next one is
expected to finish within ``--seconds``; there is always at least one. Each
metric is the median over iterations. A traced run (``--trace 1``) does the
same untraced over half the time, then installs the span tracer, sets up
once more and runs as many traced iterations: it reports the per-layer
metrics, and ``trace.overhead_s`` is the traced minus the untraced median
iteration time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import spans
from workloads import WORKLOADS, CheckFailed, Iteration, Ledger, WorkloadAborted, check, same_bits

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SECONDS = 3.0
SETUP_MAX = 11

# The end-to-end metrics BENCHMARK.json gates. Every workload reports each.
E2E = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("examples_per_s", "examples/s"),
    ("peak_rss_mb", "MB"),
)
# Every end-to-end metric the report prints, where the workload has the phase.
REPORT = E2E + (
    ("train_examples_per_s", "examples/s"),
    ("predict_examples_per_s", "examples/s"),
    ("checkpoint_save_s", "s"),
    ("checkpoint_load_s", "s"),
    ("report_s", "s"),
    ("probe_s", "s"),
    ("failed_ratio", "failed/attempted"),
    ("train_loss_final", "nats"),
    ("bpsn_auc_min", "AUC"),
)
PHASE_METRICS = {
    "save": "checkpoint_save_s",
    "load": "checkpoint_load_s",
    "report": "report_s",
    "probe": "probe_s",
}


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    report: dict[str, float]  # REPORT metrics the workload has
    iteration_wall_s: list[float]  # untraced iterations, in order
    per_layer: dict[str, float]  # empty unless traced
    attempted: int
    failed: int
    env: dict
    tracer: spans.Tracer | None = None  # its spans, when traced

    def final(self) -> dict:
        """The last output line: metrics as BENCHMARK.json names them."""
        names, values = (spans.PER_LAYER, self.per_layer) if self.trace else (E2E, self.report)
        return {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_setup(workload):
    gc.collect()
    start = time.perf_counter()
    inputs = workload.setup()
    return inputs, time.perf_counter() - start


def iterate_for(workload, inputs, seconds: float, ledger: Ledger, count: int | None = None, tracer=None):
    """Iterations until the next would end past ``seconds``, or ``count`` of them."""
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.phase = f"iteration{len(iterations)}"
        gc.collect()
        iterations.append(workload.iterate(inputs, ledger, tracer))
        if count is not None:
            if len(iterations) == count:
                return iterations
        elif time.perf_counter() - start + iterations[-1].wall_s > seconds:
            return iterations


def check_repeatable(first: list[Iteration], second: list[Iteration], name: str) -> None:
    for a, b in zip(first, second):
        check(a.outputs.keys() == b.outputs.keys(), name, "different outputs")
        for key in a.outputs:
            check(same_bits(a.outputs[key], b.outputs[key]), name, f"{key} differ")


def summarize(workload, setups: list[float], iterations: list[Iteration], ledger: Ledger) -> dict[str, float]:
    med = statistics.median
    out = {"setup_s": med(setups), "wall_s": med(it.wall_s for it in iterations)}
    phases = iterations[0].phases
    if "train" in phases:
        out["train_examples_per_s"] = med(it.counts["train_examples"] / it.phases["train"] for it in iterations)
    if "predict" in phases:
        out["predict_examples_per_s"] = med(
            it.counts["predict_examples"] / it.phases["predict"] for it in iterations
        )
    for phase, name in PHASE_METRICS.items():
        if phase in phases:
            out[name] = med(it.phases[phase] for it in iterations)
    out["examples_per_s"] = out[workload.headline]
    out["peak_rss_mb"] = peak_rss_mb()
    out["failed_ratio"] = ledger.failed / ledger.attempted
    for name in ("train_loss_final", "bpsn_auc_min"):
        if name in iterations[-1].counts:
            out[name] = iterations[-1].counts[name]
    return {name: out[name] for name, _ in REPORT if name in out}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mtltox").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool = False) -> Result:
    """Measure one workload; raises CheckFailed or WorkloadAborted on failure."""
    workload = WORKLOADS[name](seed, workdir, tiny=tiny)
    ledger = Ledger()
    setups: list[float] = []
    while True:
        inputs, elapsed = timed_setup(workload)
        setups.append(elapsed)
        if trace or len(setups) >= 2 and (sum(setups) >= SETUP_SECONDS or len(setups) >= SETUP_MAX):
            break
    plain = iterate_for(workload, inputs, seconds / 2 if trace else seconds, ledger)
    check_repeatable([plain[0]] * (len(plain) - 1), plain[1:], "iterations-repeat-bitwise")
    report = summarize(workload, setups, plain, ledger)
    per_layer: dict[str, float] = {}
    tracer = None
    if trace:
        del inputs
        tracer = spans.Tracer()
        tracer.install()
        try:
            inputs = workload.setup()
            traced = iterate_for(workload, inputs, seconds, ledger, count=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        check_repeatable(plain, traced, "traced-equals-untraced")
        overhead = statistics.median(it.wall_s for it in traced) - report["wall_s"]
        per_layer = tracer.per_layer(len(traced), overhead)
    return Result(
        name, seed, trace, report, [it.wall_s for it in plain], per_layer, ledger.attempted, ledger.failed,
        environment(seed), tracer,
    )


def _format(value: float) -> str:
    return f"{value:.6g}"


def spans_path(result: Result) -> Path:
    return OUT / f"spans-{result.workload}-seed{result.seed}.jsonl"


def print_result(result: Result) -> None:
    print(f"perfbench {result.workload} seed={result.seed} trace={int(result.trace)}")
    units = dict(REPORT)
    for name, value in result.report.items():
        extra = f" ({result.failed} failed / {result.attempted} attempted)" if name == "failed_ratio" else ""
        print(f"  {name:<28} {_format(value):>14} {units[name]}{extra}")
    print(f"  iterations: {len(result.iteration_wall_s)}, wall_s each: "
          + " ".join(_format(w) for w in result.iteration_wall_s))
    if result.trace:
        print("  per layer, for one setup plus one iteration:")
        for name, unit in spans.PER_LAYER:
            print(f"  {name:<34} {_format(result.per_layer[name]):>14} {unit}")
        print(f"  spans: {spans_path(result).relative_to(ROOT)}")
    print("env " + json.dumps(result.env, sort_keys=True))
    print(json.dumps(result.final()))


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (CheckFailed, WorkloadAborted) as exc:
        print(f"perfbench {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.tracer is not None:
        result.tracer.write(spans_path(result))
    print_result(result)
    return 0
