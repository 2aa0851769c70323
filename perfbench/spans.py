"""Span tracing around the public entry points of each mtltox layer.

A layer is one module of the package. ``Tracer.install`` wraps every public
function a layer module defines and rebinds the wrapper wherever the original
is bound, not only in its home module: ``training`` and ``templates`` import
``forward``, ``backward``, ``predict`` and ``lookup`` by name, and a wrapper
set only on ``mtltox.network`` would miss their calls. Spans stay in memory
and are written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

LAYERS = (
    "corpus",
    "embeddings",
    "network",
    "losses",
    "training",
    "metrics",
    "templates",
    "checkpoint",
)


@dataclass(slots=True)
class Span:
    name: str  # "<layer>.<function>"
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at the top
    phase: str  # "setup" or "iteration<k>"
    work: float  # tokens, bytes, rows or probes, where WORK names a measure
    error: bool

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _path_mb(path) -> float:
    return os.path.getsize(path) / 1e6


# How much work one call did, from its positional arguments and its result.
# The package and the benchmark pass these arguments by position.
WORK = {
    "network.forward": lambda args, out: out.true_length,
    "network.backward": lambda args, out: args[1].true_length,
    "embeddings.lookup": lambda args, out: out.nbytes,
    "training.clip_global_norm": lambda args, out: float(out is not args[0]),
    "metrics.bias_report": lambda args, out: len(args[0]),
    "templates.run_probe": lambda args, out: sum(
        len(r.nontoxic_scores) + len(r.toxic_scores) for r in out.values()
    ),
    "checkpoint.save_checkpoint": lambda args, out: _path_mb(args[0]),
    "checkpoint.load_checkpoint": lambda args, out: _path_mb(args[0]),
    "corpus.load_corpus": lambda args, out: len(out),
}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("network.forward.s", "s"),
    ("network.forward.calls", "count"),
    ("network.forward.tokens", "tokens"),
    ("network.forward.us_per_token", "us/token"),
    ("network.backward.s", "s"),
    ("network.backward.calls", "count"),
    ("network.backward.us_per_token", "us/token"),
    ("network.backward_forward_ratio", "ratio"),
    ("network.predict.s", "s"),
    ("embeddings.lookup.calls", "count"),
    ("embeddings.lookup.s", "s"),
    ("embeddings.lookup.mb", "MB"),
    ("losses.calls", "count"),
    ("losses.s", "s"),
    ("training.adam_step.calls", "count"),
    ("training.adam_step.s", "s"),
    ("training.clip.fired_ratio", "ratio"),
    ("training.dataset_loss.s", "s"),
    ("training.train_fold.self_s", "s"),
    ("metrics.bias_report.rows", "rows"),
    ("metrics.bias_report.s", "s"),
    ("templates.run_probe.probes", "probes"),
    ("templates.run_probe.self_s", "s"),
    ("checkpoint.save.s", "s"),
    ("checkpoint.load.s", "s"),
    ("checkpoint.mb", "MB"),
    ("corpus.load_corpus.s", "s"),
    ("corpus.binarize.s", "s"),
    ("corpus.rows", "rows"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records one span per call into a layer while installed and not paused."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        layer_modules = [importlib.import_module(f"mtltox.{layer}") for layer in LAYERS]
        bound_in = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "mtltox"]
        for layer, module in zip(LAYERS, layer_modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in bound_in:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapper)
                            self._patches.append((holder, name, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patches):
            setattr(holder, name, fn)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record no span."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name: str, fn):
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            out, error = None, True
            try:
                out = fn(*args, **kwargs)
                error = False
                return out
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                work = work_of(args, out) if work_of is not None and not error else 0.0
                self.spans[index] = Span(name, start, end, parent, self.phase, work, error)

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def per_layer(self, iterations: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics for one setup plus one iteration.

        Setup spans count once; iteration spans are averaged over the traced
        iterations. A layer's total (``losses.s``) counts only its outermost
        spans, so a layer function calling another is not counted twice.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_s[span.parent] += span.seconds
        per_name: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0])
        per_layer: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i, span in enumerate(spans):
            w = 1.0 if span.phase == "setup" else 1.0 / iterations
            agg = per_name[span.name]  # seconds, calls, work, self seconds
            agg[0] += w * span.seconds
            agg[1] += w
            agg[2] += w * span.work
            agg[3] += w * (span.seconds - child_s[i])
            layer = span.name.split(".")[0]
            if span.parent < 0 or spans[span.parent].name.split(".")[0] != layer:
                per_layer[layer][0] += w * span.seconds
                per_layer[layer][1] += w

        def get(name: str, field: int = 0) -> float:
            return per_name[name][field] if name in per_name else 0.0

        fwd_us = _ratio(get("network.forward") * 1e6, get("network.forward", 2))
        bwd_us = _ratio(get("network.backward") * 1e6, get("network.backward", 2))
        ckpt_mb = max(
            (s.work for s in spans if s.name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint")),
            default=0.0,
        )
        return {
            "network.forward.s": get("network.forward"),
            "network.forward.calls": get("network.forward", 1),
            "network.forward.tokens": get("network.forward", 2),
            "network.forward.us_per_token": fwd_us,
            "network.backward.s": get("network.backward"),
            "network.backward.calls": get("network.backward", 1),
            "network.backward.us_per_token": bwd_us,
            "network.backward_forward_ratio": _ratio(bwd_us, fwd_us),
            "network.predict.s": get("network.predict"),
            "embeddings.lookup.calls": get("embeddings.lookup", 1),
            "embeddings.lookup.s": get("embeddings.lookup"),
            "embeddings.lookup.mb": get("embeddings.lookup", 2) / 1e6,
            "losses.calls": per_layer["losses"][1],
            "losses.s": per_layer["losses"][0],
            "training.adam_step.calls": get("training.adam_step", 1),
            "training.adam_step.s": get("training.adam_step"),
            "training.clip.fired_ratio": _ratio(
                get("training.clip_global_norm", 2), get("training.clip_global_norm", 1)
            ),
            "training.dataset_loss.s": get("training.dataset_loss"),
            "training.train_fold.self_s": get("training.train_fold", 3),
            "metrics.bias_report.rows": get("metrics.bias_report", 2),
            "metrics.bias_report.s": get("metrics.bias_report"),
            "templates.run_probe.probes": get("templates.run_probe", 2),
            "templates.run_probe.self_s": get("templates.run_probe", 3),
            "checkpoint.save.s": get("checkpoint.save_checkpoint"),
            "checkpoint.load.s": get("checkpoint.load_checkpoint"),
            "checkpoint.mb": ckpt_mb,
            "corpus.load_corpus.s": get("corpus.load_corpus"),
            "corpus.binarize.s": get("corpus.binarize_and_weight"),
            "corpus.rows": get("corpus.load_corpus", 2),
            "trace.overhead_s": overhead_s,
        }


def paused(tracer: Tracer | None):
    """Context for the benchmark's checks: no spans, whether or not traced."""
    return tracer.paused() if tracer is not None else nullcontext()
