"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one caller issues the next call into mtltox
when the previous one returns. ``setup`` builds the inputs from the seed;
``iterate`` runs the measured calls once, times each phase and checks the
outputs. Calls go through module attributes (``training.train_fold``), never
names bound at import, so the traced run's wrappers see every one of them.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import mtltox.checkpoint as checkpoint
import mtltox.corpus as corpus
import mtltox.embeddings as embeddings
import mtltox.metrics as metrics
import mtltox.network as network
import mtltox.synthetic as synthetic
import mtltox.templates as templates
import mtltox.training as training
from inputs import comment_rows, length_profile, raw_record, report_rows, word_list, write_csv
from spans import paused

PREDICT_CHUNK = 16  # rows per predict call, and per block of the length profile
ORACLE_ROWS = 2000
DESK_IDENTITIES = list(templates.DEFAULT_IDENTITY_KEYWORDS)
# Errors the package documents for bad input or numerical failure. One of
# these from a call is a failed operation; anything else is a bug and ends
# the run.
PROGRAM_ERRORS = (
    network.NetworkError,
    checkpoint.CheckpointError,
    corpus.CorpusError,
    embeddings.EmbeddingError,
)

PAPER_HYPER = network.Hyper(
    embed_dim=600, hidden=256, dense1=512, dense2=512, n_aux=9,
    dropout_rate=0.2, attention=True, max_len=220,
)
TINY_PAPER_HYPER = network.Hyper(
    embed_dim=6, hidden=4, dense1=8, dense2=8, n_aux=9,
    dropout_rate=0.2, attention=True, max_len=220,
)


class CheckFailed(Exception):
    """An output check failed. The run exits non-zero and names the check."""


class WorkloadAborted(Exception):
    """A call whose result the rest of the iteration needs has failed."""


def check(ok: bool, name: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(f"check {name} failed" + (f": {detail}" if detail else ""))


class Ledger:
    """Operations attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args, ops: int = 1):
        """Call fn; a program error counts ``ops`` failed operations.

        Returns (succeeded, result).
        """
        self.attempted += ops
        try:
            return True, fn(*args)
        except PROGRAM_ERRORS:
            self.failed += ops
            return False, None

    def need(self, fn, *args, ops: int = 1):
        ok, out = self.run(fn, *args, ops=ops)
        if not ok:
            raise WorkloadAborted(f"{fn.__module__}.{fn.__name__} failed")
        return out


@dataclass
class Iteration:
    """One pass over a workload's measured calls."""

    phases: dict[str, float] = field(default_factory=dict)  # seconds per phase
    counts: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, np.ndarray] = field(default_factory=dict)  # compared bitwise

    @property
    def wall_s(self) -> float:
        return sum(self.phases.values())

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - start


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_scores(scores: np.ndarray, what: str) -> None:
    check(
        bool(np.all(np.isfinite(scores)) and np.all((scores >= 0.0) & (scores <= 1.0))),
        "predictions-in-unit-interval",
        f"{what} has a score that is not finite or lies outside [0, 1]",
    )


def check_roundtrip(loaded, params, table, vocab_checksum: str) -> None:
    """A loaded checkpoint must equal what was saved, bit for bit."""
    got_params, got_table, got_checksum, _ = loaded
    check(got_params.hyper == params.hyper, "checkpoint-roundtrip", "hyperparameters differ")
    check(set(got_params.tensors) == set(params.tensors), "checkpoint-roundtrip", "tensor names differ")
    for name, tensor in params.tensors.items():
        check(same_bits(got_params.tensors[name], tensor), "checkpoint-roundtrip", f"tensor {name} differs")
    check(
        same_bits(got_table.matrix, table.matrix) and (got_table.dim1, got_table.dim2) == (table.dim1, table.dim2),
        "checkpoint-roundtrip",
        "embedding table differs",
    )
    check(got_checksum == vocab_checksum, "checkpoint-roundtrip", "vocabulary checksum differs")


def pair_count_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """ROC AUC by counting every (positive, negative) pair: O(n^2)."""
    diff = scores[labels == 1][:, None] - scores[labels == 0][None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def check_auc_oracle(examples: list) -> None:
    scores = np.array([e.score for e in examples])
    labels = np.array([e.label for e in examples])
    got = metrics.roc_auc(examples)
    want = pair_count_auc(scores, labels)
    check(got is not None and abs(got - want) <= 1e-12, "auc-pair-oracle", f"roc_auc {got} != pair count {want}")


def check_probe(results: dict, n_identities: int) -> np.ndarray:
    scores = np.array([s for r in results.values() for s in r.nontoxic_scores + r.toxic_scores])
    expected = n_identities * len(templates.builtin_templates())
    check(len(scores) == expected, "probe-count", f"{len(scores)} probe scores, expected {expected}")
    check_scores(scores, "run_probe")
    return scores


def predict_in_chunks(ledger: Ledger, params, table, comments: list) -> tuple[np.ndarray, list]:
    """Score fixed-size chunks; a chunk that raises is one failed operation."""
    scores, scored = [], []
    for start in range(0, len(comments), PREDICT_CHUNK):
        chunk = comments[start : start + PREDICT_CHUNK]
        ok, out = ledger.run(network.predict, params, table, chunk)
        if ok:
            scores.append(out[0])
            scored.extend(chunk)
    return (np.concatenate(scores) if scores else np.zeros(0)), scored


def scored_examples(scores, comments, names) -> list:
    return [
        metrics.ScoredExample(
            score=float(s),
            label=c.y_bin,
            subgroups=frozenset(n for n, v in zip(names, c.identity_labels) if v >= 0.5),
        )
        for s, c in zip(scores, comments)
    ]


def train_checked(it: Iteration, ledger: Ledger, tracer, inputs, hyper, cfg):
    """The timed ``train_fold`` call, then the checks on its result."""
    with paused(tracer):
        table_before = embeddings.checksum(inputs.table)
    with it.phase("train"):
        params, record = ledger.need(
            training.train_fold, inputs.train, inputs.val, inputs.table, hyper, cfg,
            ops=math.ceil(len(inputs.train) / cfg.batch_size) * cfg.epochs,
        )
    losses = np.array([[e["train_loss"], e["val_loss"]] for e in record.epochs])
    with paused(tracer):
        check(embeddings.checksum(inputs.table) == table_before, "table-unchanged-by-training")
        check(bool(np.all(np.isfinite(losses))), "losses-finite")
    it.counts.update(train_examples=len(inputs.train), train_loss_final=record.epochs[-1]["train_loss"])
    it.outputs["losses"] = losses
    return params


class DeskBias:
    """The criterion-7 bias configuration: tiny matrices, Python-bound."""

    name = "desk-bias"
    headline = "train_examples_per_s"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.n_train, self.n_eval = (320, 80) if tiny else (3200, 800)
        self.hyper = network.Hyper(
            embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=6,
            dropout_rate=0.0, attention=True, max_len=16,
        )
        self.cfg = training.TrainConfig(
            epochs=1, batch_size=64, learning_rate=0.05, seed=seed, alpha=0.6, c=3.0, patience=1
        )

    def setup(self):
        train, evaluation, vocab = synthetic.biased_corpus(
            n_train=self.n_train, n_eval=self.n_eval, identity_cooccurrence=0.9, seed=self.seed
        )
        table = embeddings.random_table(vocab, 4, 4, seed=self.seed, scale=5.0)
        split = int(0.9 * len(train))
        return SimpleNamespace(
            train=train[:split], val=train[split:], evaluation=evaluation, vocab=vocab, table=table
        )

    def iterate(self, inputs, ledger: Ledger, tracer=None) -> Iteration:
        it = Iteration()
        vocab_checksum = inputs.vocab.checksum()
        params = train_checked(it, ledger, tracer, inputs, self.hyper, self.cfg)

        path = self.workdir / "desk-bias.ckpt.json"
        with it.phase("save"):
            ledger.need(checkpoint.save_checkpoint, path, params, inputs.table, vocab_checksum)
        with it.phase("load"):
            loaded = ledger.need(checkpoint.load_checkpoint, path)
        with paused(tracer):
            check_roundtrip(loaded, params, inputs.table, vocab_checksum)
        params_loaded, table_loaded = loaded[0], loaded[1]

        with it.phase("predict"):
            scores, scored = predict_in_chunks(ledger, params_loaded, table_loaded, inputs.evaluation)
        with paused(tracer):
            check_scores(scores, "predict")
            in_memory, _ = network.predict(params, inputs.table, scored)
            check(same_bits(in_memory, scores), "loaded-model-predicts-identically")

        with it.phase("report"):
            examples = scored_examples(scores, scored, DESK_IDENTITIES)
            ok, report = ledger.run(metrics.bias_report, examples, DESK_IDENTITIES)
        with paused(tracer):
            check_auc_oracle(examples)
        if ok:
            bpsn = [s.bpsn_auc for s in report.subgroups.values()]
            check(None not in bpsn, "bpsn-defined", "an identity has an undefined BPSN AUC")
            it.counts["bpsn_auc_min"] = min(bpsn)

        with it.phase("probe"):
            ok, probe = ledger.run(
                templates.run_probe, params_loaded, table_loaded, inputs.vocab, DESK_IDENTITIES
            )
        if ok:
            with paused(tracer):
                it.outputs["probe"] = check_probe(probe, len(DESK_IDENTITIES))

        it.counts["predict_examples"] = len(scored)
        it.outputs["predictions"] = scores
        return it


class PaperScale:
    """The paper's model size, a 2,000-word Zipf vocabulary and its table."""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.hyper = TINY_PAPER_HYPER if tiny else PAPER_HYPER
        self.dims = (3, 3) if tiny else (300, 300)
        self.vocab_words = 200 if tiny else 2000

    def words(self) -> tuple[np.random.Generator, list[str], corpus.Vocabulary]:
        words = word_list(self.vocab_words)
        return np.random.default_rng(self.seed), words, corpus.Vocabulary.build([words])


class PaperTrain(PaperScale):
    """One epoch at the paper's model size: compute-bound, backward-heavy."""

    name = "paper-train"
    headline = "train_examples_per_s"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        super().__init__(seed, workdir, tiny)
        self.val_rows = 4 if tiny else 8
        self.cfg = training.TrainConfig(epochs=1, batch_size=16, learning_rate=1e-3, seed=seed, patience=1)

    def setup(self):
        rng, words, vocab = self.words()
        rows = comment_rows(rng, words, length_profile(PREDICT_CHUNK), 1, "train")
        rows += comment_rows(rng, words, length_profile(self.val_rows), 1, "val")
        comments = [
            corpus.binarize_and_weight(raw_record(row), self.cfg.c, vocab, self.hyper.max_len)
            for row in rows
        ]
        table = embeddings.random_table(vocab, *self.dims, seed=self.seed)
        return SimpleNamespace(
            train=comments[:PREDICT_CHUNK], val=comments[PREDICT_CHUNK:], vocab=vocab, table=table
        )

    def iterate(self, inputs, ledger: Ledger, tracer=None) -> Iteration:
        it = Iteration()
        params = train_checked(it, ledger, tracer, inputs, self.hyper, self.cfg)
        vocab_checksum = inputs.vocab.checksum()
        # Not loaded back: paper-eval checks a checkpoint of this size, written
        # by the same save_checkpoint, bit for bit.
        with it.phase("save"):
            ledger.need(
                checkpoint.save_checkpoint, self.workdir / "paper-train.ckpt.json", params, inputs.table,
                vocab_checksum,
            )
        return it


class PaperEval(PaperScale):
    """The read side at paper scale: load, predict, bias report, probe."""

    name = "paper-eval"
    headline = "predict_examples_per_s"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        super().__init__(seed, workdir, tiny)
        # Every third predict chunk leads with a comment that tokenizes to
        # nothing: 1 row in 48. Leading its chunk, it fails the chunk before
        # any forward work, so the work lost is the same for every seed.
        self.eval_blocks, self.empty_blocks = (2, (1,)) if tiny else (6, (2, 5))
        self.n_report_rows = 3000 if tiny else 100_000

    def setup(self):
        rng, words, vocab = self.words()
        csv_path = self.workdir / "paper-eval.csv"
        write_csv(
            csv_path,
            comment_rows(rng, words, length_profile(PREDICT_CHUNK), self.eval_blocks, "eval", self.empty_blocks),
        )
        records = corpus.load_corpus(csv_path)
        comments = [corpus.binarize_and_weight(r, 3.0, vocab, self.hyper.max_len) for r in records]
        table = embeddings.random_table(vocab, *self.dims, seed=self.seed)
        params = network.init_params(self.hyper, self.seed)
        ckpt_path = self.workdir / "paper-eval.ckpt.json"
        checkpoint.save_checkpoint(ckpt_path, params, table, vocab.checksum())
        return SimpleNamespace(
            comments=comments, vocab=vocab, table=table, params=params, checkpoint=ckpt_path,
            report_rows=report_rows(rng, self.n_report_rows, corpus.IDENTITY_COLUMNS),
        )

    def iterate(self, inputs, ledger: Ledger, tracer=None) -> Iteration:
        it = Iteration()
        with it.phase("load"):
            loaded = ledger.need(checkpoint.load_checkpoint, inputs.checkpoint)
        with paused(tracer):
            check_roundtrip(loaded, inputs.params, inputs.table, inputs.vocab.checksum())
        params, table = loaded[0], loaded[1]

        with it.phase("predict"):
            scores, scored = predict_in_chunks(ledger, params, table, inputs.comments)
        with paused(tracer):
            check_scores(scores, "predict")

        with it.phase("report"):
            examples = scored_examples(scores, scored, corpus.IDENTITY_COLUMNS)
            ledger.run(metrics.bias_report, examples, corpus.IDENTITY_COLUMNS)
            ledger.run(metrics.bias_report, inputs.report_rows, corpus.IDENTITY_COLUMNS)
        with paused(tracer):
            check_auc_oracle(inputs.report_rows[:ORACLE_ROWS])

        with it.phase("probe"):
            ok, probe = ledger.run(templates.run_probe, params, table, inputs.vocab)
        if ok:
            with paused(tracer):
                it.outputs["probe"] = check_probe(probe, len(templates.DEFAULT_IDENTITY_KEYWORDS))

        it.counts.update(predict_examples=len(scored))
        it.outputs.update(predictions=scores)
        return it


WORKLOADS = {w.name: w for w in (DeskBias, PaperTrain, PaperEval)}
