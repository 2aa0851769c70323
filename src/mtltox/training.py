"""Adam training loop, K-fold orchestration with an optional alpha grid on
fold 0, and the identity-label propagation preprocessing stage.

Every run is fully determined by (config, seed, corpus): initialization,
epoch shuffles, and dropout masks all come from seeded generators, and batch
gradients are reduced in a fixed order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from mtltox.corpus import Comment, make_folds, reweight
from mtltox.embeddings import EmbeddingTable
from mtltox.losses import loss_grad_heads, multitask_loss
from mtltox.metrics import BiasReport, ScoredExample, bias_report
from mtltox.network import (
    Hyper,
    ModelParams,
    NetworkError,
    Tensors,
    backward,
    forward,
    init_params,
    predict,
    spatial_dropout_mask,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    alpha: float = 0.6
    c: float = 3.0  # the corpus's weight: propagate_identities weights with it, _check_c holds the corpus to it
    grad_clip_norm: float | None = 5.0
    patience: int = 5
    k_folds: int = 5
    aux_source: str = "identities"  # or "subtypes" for the subtype-head variant
    power: float = -5.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("learning_rate", "c"):
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails this too
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.grad_clip_norm is not None and not 0.0 < self.grad_clip_norm < np.inf:
            raise ValueError(f"grad_clip_norm must be None or finite and > 0, got {self.grad_clip_norm}")
        if not -np.inf < self.power < np.inf:  # the bias report's generalized mean; NaN fails this too
            raise ValueError(f"power must be finite, got {self.power}")
        for name, least in (("epochs", 0), ("batch_size", 1), ("patience", 1), ("seed", 0), ("k_folds", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.aux_source not in ("identities", "subtypes"):
            raise ValueError(f"aux_source must be 'identities' or 'subtypes', got {self.aux_source!r}")


@dataclass
class AdamState:
    """Adam's step count and moments, each moment a plain vector laid out like
    the parameter vector. ``adam_step`` makes them at the first step: by then
    the batch pass has freed its arrays, and the moments take that memory. Made
    before the pass, they were first written on top of what it left:
    paper-train's peak RSS read 254 MB, against 192-195 MB made at the first
    step (2 cores, numpy 2.4.6)."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


@dataclass
class RunRecord:
    """Everything needed to reproduce and compare one training run."""

    seed: int
    alpha: float
    fold: int = 0
    epochs: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def clip_global_norm(grads: Tensors, max_norm: float) -> Tensors:
    """Scale all gradients down so their joint L2 norm is at most max_norm.
    Returns ``grads`` itself when the norm already is, else a new Tensors over
    the vector of ``grads``, which is scaled in place."""
    if not isinstance(grads, Tensors):
        raise TypeError(f"gradients are a Tensors, not a {type(grads).__name__}")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    grads.vector *= max_norm / total
    return grads.like(grads.vector)


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's published defaults
# Values per in-place pass of adam_step: its two temporaries of this many
# values stay in cache, where vector-sized ones would not.
ADAM_BLOCK = 1 << 15


def adam_step(
    params: ModelParams,
    grads: Tensors,
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One Adam update with bias correction, in place, clipping first.

    ``grads`` is the Tensors that ``backward`` returns, with the parameters'
    names in their order. The update runs the textbook expressions, operation
    for operation, over blocks of the parameter, gradient and moment vectors.
    """
    if not isinstance(grads, Tensors):
        raise TypeError(f"gradients are a Tensors, not a {type(grads).__name__}")
    if list(grads) != list(params.tensors):
        raise ValueError(f"gradients for {list(grads)}, not for the parameters {list(params.tensors)}")
    if not np.isfinite(grads.vector).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NetworkError(f"non-finite gradient for {name}")
    if cfg.grad_clip_norm is not None:
        grads = clip_global_norm(grads, cfg.grad_clip_norm)
    if state.m is None:
        state.m, state.v = (np.zeros(params.tensors.vector.size) for _ in range(2))
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    vectors = params.tensors.vector, grads.vector, state.m, state.v
    temps = np.empty((2, min(ADAM_BLOCK, vectors[0].size)))
    for start in range(0, vectors[0].size, ADAM_BLOCK):
        p, g, m, v = (vector[start : start + ADAM_BLOCK] for vector in vectors)
        a, b = temps[:, : p.size]
        # m = BETA1 * m + (1 - BETA1) * g
        np.multiply(m, BETA1, out=m)
        np.add(m, np.multiply(g, 1.0 - BETA1, out=a), out=m)
        # v = BETA2 * v + (1 - BETA2) * g * g
        np.multiply(v, BETA2, out=v)
        np.multiply(g, 1.0 - BETA2, out=a)
        np.add(v, np.multiply(a, g, out=a), out=v)
        # p -= learning_rate * (m / bc1) / (sqrt(v / bc2) + ADAM_EPS)
        np.add(np.sqrt(np.divide(v, bc2, out=a), out=a), ADAM_EPS, out=a)
        np.multiply(np.divide(m, bc1, out=b), cfg.learning_rate, out=b)
        np.subtract(p, np.divide(b, a, out=b), out=p)
    return params, state


def _targets(comments: list[Comment], hyper: Hyper, cfg: TrainConfig):
    """(y, aux_y, beta) arrays for a list of comments."""
    aux_y = np.zeros((len(comments), hyper.n_aux))
    for n, comment in enumerate(comments):
        labels = comment.subtype_labels if cfg.aux_source == "subtypes" else comment.identity_labels
        if hyper.n_aux > 0 and len(labels) != hyper.n_aux:
            raise ValueError(
                f"comment {comment.id!r} has {len(labels)} {cfg.aux_source} labels but the model has "
                f"{hyper.n_aux} auxiliary heads"
            )
        aux_y[n] = labels[: hyper.n_aux]
    y = np.array([c.y for c in comments], dtype=float)
    return y, aux_y, np.array([c.beta for c in comments], dtype=float)


def _batch_pass(
    params: ModelParams,
    table: EmbeddingTable,
    comments: list[Comment],
    targets: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[Tensors, float]:
    """Forward + backward over one batch, whose ``_targets`` are ``targets``; returns (summed grads, batch loss)."""
    hyper = params.hyper
    masks = None
    if hyper.dropout_rate > 0.0:
        # One mask per comment, in batch order: the generator stream is the
        # same as with one forward pass per comment.
        masks = np.array([spatial_dropout_mask(hyper.embed_dim, hyper.dropout_rate, rng) for _ in comments])
    trace = forward(params, table, comments, masks)
    y_hat, aux_hat = trace.heads[:, 0], trace.heads[:, 1:]
    breakdown = multitask_loss(y_hat, aux_hat, *targets, cfg.alpha)
    d_y, d_aux = loss_grad_heads(y_hat, aux_hat, *targets, cfg.alpha)
    return backward(params, trace, d_y, d_aux), breakdown.total


def dataset_loss(
    params: ModelParams,
    table: EmbeddingTable,
    comments: list[Comment],
    targets: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: TrainConfig,
) -> float:
    """Mean-reduced loss over a dataset whose ``_targets`` are ``targets``, inference mode (no dropout)."""
    y_hat, aux_hat = predict(params, table, comments)
    return multitask_loss(y_hat, aux_hat, *targets, cfg.alpha).total


@contextlib.contextmanager
def _at(where: str):
    """Prefix a NetworkError raised inside with ``where`` it happened."""
    try:
        yield
    except NetworkError as exc:
        raise NetworkError(f"{where}{exc}") from exc


def _split(comments: list[Comment], fold: tuple) -> tuple[list[Comment], list[Comment]]:
    """The (train, validation) comments of one ``make_folds`` fold."""
    train_idx, val_idx = fold
    return [comments[i] for i in train_idx], [comments[i] for i in val_idx]


def train_fold(
    train_set: list[Comment],
    val_set: list[Comment],
    table: EmbeddingTable,
    hyper: Hyper,
    cfg: TrainConfig,
) -> tuple[ModelParams, RunRecord]:
    """Train one model on a train/validation split.

    Returns the checkpoint with the best validation loss and a per-epoch log.
    Early stopping after ``cfg.patience`` epochs without improvement.
    Comments whose identity labels are missing are refused, naming the first:
    fill them first.
    A NetworkError says where it happened: ``epoch <e>, step <s>: `` for a
    training step (the batch counted from 0), ``epoch <e>, validation: ``.

    The run holds at most five parameter-sized vectors: the parameters and
    Adam's two moments throughout, each step's gradient until its
    ``adam_step`` ends, and the best epoch's parameters. That copy is made at
    the first improving epoch that another epoch follows and refilled in
    place at later improvements; after an improving last epoch nothing
    changes the parameters, so they are returned themselves.
    """
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be nonempty")
    unannotated = next((c for c in (*train_set, *val_set) if c.needs_propagation), None)
    if unannotated is not None:
        raise ValueError(
            f"corpus has unannotated identity rows (comment {unannotated.id!r} is the first); fill them with "
            "propagate_identities (mtltox propagate) first"
        )
    started = time.perf_counter()
    params = init_params(hyper, cfg.seed)
    state = AdamState()
    rng = np.random.default_rng(cfg.seed + 1)
    record = RunRecord(seed=cfg.seed, alpha=cfg.alpha, config=dataclasses.asdict(cfg))

    train_targets, val_targets = (_targets(split, hyper, cfg) for split in (train_set, val_set))
    # Epoch 0's validation loss is finite (forward refuses non-finite heads, multitask_loss clamps its logs),
    # so epoch 0 always improves. best is None while params themselves are the result: before any epoch,
    # and after an improving last epoch.
    best, best_val = None, np.inf
    stale = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(train_set))
        order = perm.tolist()
        train_loss = 0.0
        for step, start in enumerate(range(0, len(perm), cfg.batch_size)):
            rows = perm[start : start + cfg.batch_size]
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            targets = tuple(a[rows] for a in train_targets)
            with _at(f"epoch {epoch}, step {step}: "):
                grads, batch_loss = _batch_pass(params, table, batch, targets, cfg, rng)
                adam_step(params, grads, state, cfg)
                del grads  # freed before the next step's backward makes one, and before validation
            train_loss += batch_loss * len(batch)
        train_loss /= len(train_set)
        with _at(f"epoch {epoch}, validation: "):
            val_loss = dataset_loss(params, table, val_set, val_targets, cfg)
        record.epochs.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            stale = 0
            if epoch + 1 == cfg.epochs:
                best = None
            elif best is None:
                best = params.copy()
            else:
                np.copyto(best.tensors.vector, params.tensors.vector)
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    record.wall_clock = time.perf_counter() - started
    return (params if best is None else best), record


def evaluate_model(
    params: ModelParams,
    table: EmbeddingTable,
    comments: list[Comment],
    subgroup_names,
    power: float = -5.0,
) -> BiasReport:
    """Score a dataset and build the full bias report.

    Subgroup membership comes from the comments' identity labels (>= 0.5),
    named positionally by ``subgroup_names``; an unannotated comment is in none.
    """
    y_hat, _ = predict(params, table, comments)
    names = list(subgroup_names)
    examples = []
    for score, comment in zip(y_hat, comments):
        groups = frozenset(name for name, present in zip(names, comment.identities_present) if present)
        examples.append(ScoredExample(score=float(score), label=comment.y_bin, subgroups=groups))
    return bias_report(examples, names, p=power)


def _check_c(comments: list[Comment], c: float) -> None:
    """Refuse comments weighted with a beta other than 1 and ``c``: ``c`` is not what the corpus was prepared with."""
    other = sorted({comment.beta for comment in comments if comment.beta != 1.0} - {c})
    if other:
        raise ValueError(
            f"comments are weighted with beta {', '.join(map(str, other))} but c is {c}: "
            "set train.c to the --c the corpus was prepared with"
        )


def propagate_identities(
    comments: list[Comment],
    table: EmbeddingTable,
    hyper: Hyper,
    cfg: TrainConfig,
) -> list[Comment]:
    """Fill identity scores for unannotated comments.

    Trains an identity-only predictor (same architecture minus the attention
    layer, alpha=0 so only the K identity heads learn, uniform example
    weights) on the annotated subset, then scores the rest. Annotated
    comments pass through untouched; filled ones are flagged ``propagated``
    and reweighted with ``cfg.c``, which must be the weight the corpus's
    other comments carry.
    """
    annotated = [c for c in comments if not c.needs_propagation]
    unannotated = [c for c in comments if c.needs_propagation]
    if not unannotated:
        return comments
    if not annotated:
        raise ValueError("cannot propagate identities: no annotated comments")
    if hyper.n_aux == 0:
        raise ValueError("identity propagation needs auxiliary heads (n_aux > 0)")
    _check_c(comments, cfg.c)

    prop_hyper = replace(hyper, attention=False)
    prop_cfg = replace(cfg, alpha=0.0)
    flat = [dataclasses.replace(c, beta=1.0) for c in annotated]
    k = min(10, max(2, len(flat) // 2))
    train_set, val_set = _split(flat, make_folds(len(flat), k, cfg.seed)[0])
    params, _ = train_fold(train_set, val_set, table, prop_hyper, prop_cfg)

    _, aux_hat = predict(params, table, unannotated)
    out: list[Comment] = []
    filled = iter(range(len(unannotated)))
    for comment in comments:
        if not comment.needs_propagation:
            out.append(comment)
            continue
        new = dataclasses.replace(comment, identity_labels=aux_hat[next(filled)].copy(), propagated=True)
        reweight(new, cfg.c)
        out.append(new)
    return out


def _rank(record: RunRecord) -> tuple[float, float]:
    """A grid point's order: its validation GMB AUC (undefined counts as worst), then the larger alpha."""
    gmb = record.metrics["generalized_mean_bias_auc"]
    return -np.inf if gmb is None else gmb, record.alpha


def run_experiment(
    comments: list[Comment],
    table: EmbeddingTable,
    hyper: Hyper,
    cfg: TrainConfig,
    subgroup_names,
    grid: Sequence[float] | None = None,
    on_fold: Callable[[ModelParams, RunRecord, list[RunRecord]], None] | None = None,
) -> list[RunRecord]:
    """K folds, each trained and scored on its validation split; one record per fold.

    With a ``grid`` of alphas, fold 0 trains one model per alpha and keeps
    the one with the best validation Generalized Mean Bias AUC (undefined
    counts as worst; exact ties go to the larger alpha); folds 1 to K-1
    train with its alpha. Two experiments' per-fold metric values can be
    compared with the KS test. ``on_fold(params, record, tried)`` is called
    once per fold, after the record's fold and metrics are set; ``tried``
    holds the fold's records in training order, one per grid alpha on fold
    0 and ``[record]`` otherwise. The corpus must be fully annotated and
    weighted with ``cfg.c`` (see ``propagate_identities``). A NetworkError
    names its fold first: ``fold <k>, ``.
    """
    run_cfgs = [cfg] if grid is None else [replace(cfg, alpha=alpha) for alpha in grid]  # checked before any run
    if not run_cfgs:
        raise ValueError("alpha grid must be nonempty")
    _check_c(comments, cfg.c)
    records: list[RunRecord] = []
    for fold, indices in enumerate(make_folds(len(comments), cfg.k_folds, cfg.seed)):
        train_set, val_set = _split(comments, indices)
        tried: list[RunRecord] = []

        def fit(run_cfg: TrainConfig) -> tuple[ModelParams, RunRecord]:
            with _at(f"fold {fold}, "):
                params, record = train_fold(train_set, val_set, table, hyper, replace(run_cfg, seed=cfg.seed + fold))
                record.fold = fold
                record.metrics = evaluate_model(params, table, val_set, subgroup_names, cfg.power).to_dict()
            tried.append(record)
            return params, record

        # max drops each model that is not the best so far before the next one trains.
        params, record = max(map(fit, run_cfgs), key=lambda fitted: _rank(fitted[1]))
        run_cfgs = [replace(cfg, alpha=record.alpha)]
        if on_fold is not None:
            on_fold(params, record, tried)
        records.append(record)
    return records
