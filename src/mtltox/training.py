"""Adam training loop, K-fold orchestration, alpha grid search, and the
identity-label propagation preprocessing stage.

Every run is fully determined by (config, seed, corpus): initialization,
epoch shuffles, and dropout masks all come from seeded generators, and batch
gradients are reduced in a fixed order.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field, replace

import numpy as np

from mtltox.corpus import Comment, make_folds, reweight
from mtltox.embeddings import EmbeddingTable
from mtltox.losses import LossConfig, loss_grad_heads, multitask_loss
from mtltox.metrics import BiasReport, ScoredExample, bias_report
from mtltox.network import (  # backward and forward stay bound here for perfbench's tracer test
    Hyper,
    ModelParams,
    NetworkError,
    backward,
    backward_batch,
    embed_batch,
    forward,
    forward_batch,
    init_params,
    predict,
    spatial_dropout_mask,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    alpha: float = 0.6
    c: float = 3.0
    alpha_grid: tuple[float, ...] = (0.2, 0.4, 0.5, 0.6, 0.8)
    grad_clip_norm: float | None = 5.0
    patience: int = 5
    k_folds: int = 5
    aux_source: str = "identities"  # or "subtypes" for the subtype-head variant
    loss_reduction: str = "mean"
    power: float = -5.0

    def loss_config(self, n_aux: int) -> LossConfig:
        return LossConfig(alpha=self.alpha, c=self.c, n_aux=n_aux, reduction=self.loss_reduction)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.tensors.items()},
            v={k: np.zeros_like(a) for k, a in params.tensors.items()},
        )


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


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients down so their joint L2 norm is at most max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    factor = max_norm / total
    return {k: g * factor for k, g in grads.items()}


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One Adam update with bias correction, in place, clipping first."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NetworkError(f"non-finite gradient for {name}")
    if cfg.grad_clip_norm is not None:
        grads = clip_global_norm(grads, cfg.grad_clip_norm)
    state.t += 1
    bc1 = 1.0 - cfg.beta1**state.t
    bc2 = 1.0 - cfg.beta2**state.t
    for name, g in grads.items():
        state.m[name] = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * g
        state.v[name] = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        params.tensors[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return params, state


def _targets(comments: list[Comment], hyper: Hyper, cfg: TrainConfig):
    """(y, aux_y, beta) arrays for a list of comments."""
    aux_y = np.zeros((len(comments), hyper.n_aux))
    for n, comment in enumerate(comments):
        labels = comment.subtype_labels if cfg.aux_source == "subtypes" else comment.identity_labels
        if hyper.n_aux > 0 and len(labels) != hyper.n_aux:
            raise ValueError(
                f"comment has {len(labels)} {cfg.aux_source} labels but the model has "
                f"{hyper.n_aux} auxiliary heads"
            )
        aux_y[n] = labels[: hyper.n_aux]
    y = np.array([c.y for c in comments], dtype=float)
    return y, aux_y, np.array([c.beta for c in comments], dtype=float)


def _batch_pass(
    params: ModelParams,
    table: EmbeddingTable,
    comments: list[Comment],
    cfg: TrainConfig,
    rng: np.random.Generator | None,
) -> tuple[dict[str, np.ndarray], float]:
    """Forward + backward over one batch; returns (summed grads, batch loss)."""
    hyper = params.hyper
    loss_cfg = cfg.loss_config(hyper.n_aux)
    masks = None
    if rng is not None and hyper.dropout_rate > 0.0:
        # One mask per comment, in batch order: the generator stream is the
        # same as with one forward pass per comment.
        masks = np.array([spatial_dropout_mask(hyper.embed_dim, hyper.dropout_rate, rng) for _ in comments])
    trace = forward_batch(params, *embed_batch(table, comments), masks)
    y_hat, aux_hat = trace.heads[:, 0], trace.heads[:, 1:]
    targets = _targets(comments, hyper, cfg)
    breakdown = multitask_loss(y_hat, aux_hat, *targets, loss_cfg)
    d_y, d_aux = loss_grad_heads(y_hat, aux_hat, *targets, loss_cfg)
    return backward_batch(params, trace, d_y, d_aux).tensors, breakdown.total


def dataset_loss(
    params: ModelParams,
    table: EmbeddingTable,
    comments: list[Comment],
    cfg: TrainConfig,
) -> float:
    """Mean-reduced loss over a dataset, inference mode (no dropout)."""
    hyper = params.hyper
    loss_cfg = replace(cfg.loss_config(hyper.n_aux), reduction="mean")
    y_hat, aux_hat = predict(params, table, comments)
    return multitask_loss(y_hat, aux_hat, *_targets(comments, hyper, cfg), loss_cfg).total


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
    """
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be nonempty")
    started = time.perf_counter()
    params = init_params(hyper, cfg.seed)
    state = AdamState.init(params)
    rng = np.random.default_rng(cfg.seed + 1)
    record = RunRecord(seed=cfg.seed, alpha=cfg.alpha, config=dataclasses.asdict(cfg))

    best_params = params.copy()
    best_val = np.inf
    stale = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(train_set))
        train_loss = 0.0
        for start in range(0, len(perm), cfg.batch_size):
            batch = [train_set[i] for i in perm[start : start + cfg.batch_size]]
            grads, batch_loss = _batch_pass(params, table, batch, cfg, rng)
            params, state = adam_step(params, grads, state, cfg)
            train_loss += batch_loss * len(batch)
        train_loss /= len(train_set)
        val_loss = dataset_loss(params, table, val_set, cfg)
        record.epochs.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    record.wall_clock = time.perf_counter() - started
    return best_params, record


def evaluate_model(
    params: ModelParams,
    table: EmbeddingTable,
    comments: list[Comment],
    subgroup_names,
    power: float = -5.0,
) -> BiasReport:
    """Score a dataset and build the full bias report.

    Subgroup membership comes from the comments' identity labels (>= 0.5),
    named positionally by ``subgroup_names``.
    """
    y_hat, _ = predict(params, table, comments)
    names = list(subgroup_names)
    examples = []
    for score, comment in zip(y_hat, comments):
        groups = frozenset(
            name
            for name, value in zip(names, comment.identity_labels[: len(names)])
            if value >= 0.5
        )
        examples.append(ScoredExample(score=float(score), label=comment.y_bin, subgroups=groups))
    return bias_report(examples, names, p=power)


def grid_search_alpha(
    comments: list[Comment],
    table: EmbeddingTable,
    hyper: Hyper,
    cfg: TrainConfig,
    subgroup_names,
    grid=None,
) -> tuple[float, list[dict]]:
    """Train one model per alpha on a fixed fold and pick the best.

    Selection maximizes the validation Generalized Mean Bias AUC (undefined
    counts as worst); exact ties go to the larger alpha.
    """
    grid = list(grid if grid is not None else cfg.alpha_grid)
    if not grid:
        raise ValueError("alpha grid must be nonempty")
    plan = make_folds(len(comments), cfg.k_folds, cfg.seed)
    train_idx, val_idx = plan.folds[0]
    train_set = [comments[i] for i in train_idx]
    val_set = [comments[i] for i in val_idx]

    results = []
    for alpha in grid:
        run_cfg = replace(cfg, alpha=alpha)
        params, _ = train_fold(train_set, val_set, table, hyper, run_cfg)
        report = evaluate_model(params, table, val_set, subgroup_names, cfg.power)
        results.append(
            {
                "alpha": alpha,
                "generalized_mean_bias_auc": report.generalized_mean_bias_auc,
                "overall_auc": report.overall_auc,
                "f1": report.f1,
            }
        )
    best = max(
        results,
        key=lambda r: (
            -np.inf if r["generalized_mean_bias_auc"] is None else r["generalized_mean_bias_auc"],
            r["alpha"],
        ),
    )
    return best["alpha"], results


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
    and reweighted.
    """
    annotated = [c for c in comments if not c.needs_propagation]
    unannotated = [c for c in comments if c.needs_propagation]
    if not unannotated:
        return comments
    if not annotated:
        raise ValueError("cannot propagate identities: no annotated comments")
    if hyper.n_aux == 0:
        raise ValueError("identity propagation needs auxiliary heads (n_aux > 0)")

    prop_hyper = replace(hyper, attention=False)
    prop_cfg = replace(cfg, alpha=0.0)
    flat = [dataclasses.replace(c, beta=1.0) for c in annotated]
    k = min(10, max(2, len(flat) // 2))
    plan = make_folds(len(flat), k, cfg.seed)
    train_idx, val_idx = plan.folds[0]
    params, _ = train_fold(
        [flat[i] for i in train_idx], [flat[i] for i in val_idx], table, prop_hyper, prop_cfg
    )

    _, aux_hat = predict(params, table, unannotated)
    out: list[Comment] = []
    filled = iter(range(len(unannotated)))
    for comment in comments:
        if not comment.needs_propagation:
            out.append(comment)
            continue
        new = dataclasses.replace(
            comment,
            identity_labels=aux_hat[next(filled)].copy(),
            needs_propagation=False,
            propagated=True,
        )
        reweight(new, cfg.c)
        out.append(new)
    return out


@dataclass
class ExperimentResult:
    records: list[RunRecord]
    reports: list[BiasReport]
    aggregate: dict


def run_experiment(
    comments: list[Comment],
    table: EmbeddingTable,
    hyper: Hyper,
    cfg: TrainConfig,
    subgroup_names,
    propagate: bool = False,
) -> ExperimentResult:
    """Full pipeline: propagate -> K folds -> train -> evaluate -> aggregate.

    Per-fold metric values are retained (not just means) so two experiments
    can be compared with the KS test.
    """
    if any(c.needs_propagation for c in comments):
        if not propagate:
            raise ValueError(
                "corpus has unannotated identity rows; enable propagation or drop them"
            )
        comments = propagate_identities(comments, table, hyper, cfg)

    plan = make_folds(len(comments), cfg.k_folds, cfg.seed)
    records: list[RunRecord] = []
    reports: list[BiasReport] = []
    for fold, (train_idx, val_idx) in enumerate(plan.folds):
        fold_cfg = replace(cfg, seed=cfg.seed + fold)
        params, record = train_fold(
            [comments[i] for i in train_idx],
            [comments[i] for i in val_idx],
            table,
            hyper,
            fold_cfg,
        )
        report = evaluate_model(params, table, [comments[i] for i in val_idx], subgroup_names, cfg.power)
        record.fold = fold
        record.metrics = {
            "overall_auc": report.overall_auc,
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "generalized_mean_bias_auc": report.generalized_mean_bias_auc,
            "bpsn_auc": {name: s.bpsn_auc for name, s in report.subgroups.items()},
            "subgroup_auc": {name: s.subgroup_auc for name, s in report.subgroups.items()},
        }
        records.append(record)
        reports.append(report)

    def _mean(values):
        defined = [v for v in values if v is not None]
        return float(np.mean(defined)) if defined else None

    aggregate = {
        "overall_auc": _mean([r.overall_auc for r in reports]),
        "f1": _mean([r.f1 for r in reports]),
        "generalized_mean_bias_auc": _mean([r.generalized_mean_bias_auc for r in reports]),
        "per_fold_auc": [r.overall_auc for r in reports],
        "per_fold_f1": [r.f1 for r in reports],
    }
    return ExperimentResult(records=records, reports=reports, aggregate=aggregate)
