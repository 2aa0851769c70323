"""Weighted multi-task binary cross-entropy and its gradient at the heads.

Per example n the objective contribution is

    beta_n * ( alpha * BCE(yhat_n, y_n) + (1 - alpha) * sum_k BCE(yhat_k_n, y_k_n) )

where beta_n upweights non-toxic identity-mentioning examples and alpha
trades the toxicity task against the auxiliary heads. Targets may be soft
(fractional annotator agreement); the auxiliary term is a per-label BCE sum,
not a categorical cross-entropy, because identities are non-exclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.6
    n_aux: int = 9
    epsilon: float = 1e-7
    reduction: str = "mean"  # "mean" divides by batch size; "sum" is the raw sum

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.reduction not in ("mean", "sum"):
            raise ValueError("reduction must be 'mean' or 'sum'")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    toxicity_term: float  # alpha-weighted, beta-weighted, reduced
    auxiliary_term: float
    per_example: np.ndarray  # unreduced beta_n * [...] contributions


def bce(y_hat: float, y: float, epsilon: float = 1e-7) -> float:
    """Binary cross-entropy with the prediction clamped to [eps, 1 - eps]."""
    p = min(max(y_hat, epsilon), 1.0 - epsilon)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def _clamp(y_hat: np.ndarray, epsilon: float) -> np.ndarray:
    return np.clip(y_hat, epsilon, 1.0 - epsilon)


def multitask_loss(
    y_hat: np.ndarray,
    aux_hat: np.ndarray,
    y: np.ndarray,
    aux_y: np.ndarray,
    beta: np.ndarray,
    cfg: LossConfig,
) -> LossBreakdown:
    """Evaluate the weighted multi-task objective over a batch.

    Shapes: y_hat, y, beta are (N,); aux_hat, aux_y are (N, K). K may be 0,
    in which case the auxiliary term is identically zero.
    """
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    aux_hat = np.asarray(aux_hat, dtype=float).reshape(len(y_hat), -1)
    aux_y = np.asarray(aux_y, dtype=float).reshape(len(y_hat), -1)
    if aux_hat.shape[1] != cfg.n_aux or aux_y.shape[1] != cfg.n_aux:
        raise ValueError(
            f"auxiliary head count mismatch: got {aux_hat.shape[1]}/{aux_y.shape[1]}, "
            f"config says {cfg.n_aux}"
        )

    p = _clamp(y_hat, cfg.epsilon)
    tox = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    if cfg.n_aux > 0:
        q = _clamp(aux_hat, cfg.epsilon)
        aux = -(aux_y * np.log(q) + (1.0 - aux_y) * np.log(1.0 - q)).sum(axis=1)
    else:
        aux = np.zeros_like(tox)

    per_example = beta * (cfg.alpha * tox + (1.0 - cfg.alpha) * aux)
    scale = 1.0 / len(y_hat) if cfg.reduction == "mean" else 1.0
    return LossBreakdown(
        total=float(per_example.sum() * scale),
        toxicity_term=float((beta * cfg.alpha * tox).sum() * scale),
        auxiliary_term=float((beta * (1.0 - cfg.alpha) * aux).sum() * scale),
        per_example=per_example,
    )


def loss_grad_heads(
    y_hat: np.ndarray,
    aux_hat: np.ndarray,
    y: np.ndarray,
    aux_y: np.ndarray,
    beta: np.ndarray,
    cfg: LossConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of multitask_loss w.r.t. the sigmoid head outputs.

    d/dp of BCE(p, y) is (p - y) / (p (1 - p)); composed with a sigmoid
    pre-activation this collapses to (p - y), which the network tests verify.
    Returns (dL/dy_hat shape (N,), dL/daux_hat shape (N, K)).
    """
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    aux_hat = np.asarray(aux_hat, dtype=float).reshape(len(y_hat), -1)
    aux_y = np.asarray(aux_y, dtype=float).reshape(len(y_hat), -1)

    scale = 1.0 / len(y_hat) if cfg.reduction == "mean" else 1.0
    p = _clamp(y_hat, cfg.epsilon)
    d_y = scale * beta * cfg.alpha * (p - y) / (p * (1.0 - p))
    if cfg.n_aux > 0:
        q = _clamp(aux_hat, cfg.epsilon)
        d_aux = scale * beta[:, None] * (1.0 - cfg.alpha) * (q - aux_y) / (q * (1.0 - q))
    else:
        d_aux = np.zeros((len(y_hat), 0))
    return d_y, d_aux
