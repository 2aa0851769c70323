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


EPS = 1e-7  # predictions are clamped to [EPS, 1 - EPS] before the logs


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    toxicity_term: float  # alpha-weighted, beta-weighted, mean-reduced
    auxiliary_term: float


def _arrays(y_hat, aux_hat, y, aux_y, beta):
    """The five inputs as float arrays, the auxiliary ones (N, K) with K from
    aux_hat; a target of another K is refused."""
    y_hat = np.asarray(y_hat, dtype=float)
    aux_hat = np.asarray(aux_hat, dtype=float).reshape(len(y_hat), -1)
    aux_y = np.asarray(aux_y, dtype=float).reshape(len(y_hat), -1)
    if aux_y.shape != aux_hat.shape:
        raise ValueError(f"auxiliary head count mismatch: {aux_hat.shape[1]} heads, {aux_y.shape[1]} targets")
    return y_hat, aux_hat, np.asarray(y, dtype=float), aux_y, np.asarray(beta, dtype=float)


def multitask_loss(y_hat, aux_hat, y, aux_y, beta, alpha: float) -> LossBreakdown:
    """Evaluate the weighted multi-task objective over a batch, mean-reduced.

    Shapes: y_hat, y, beta are (N,); aux_hat, aux_y are (N, K). K may be 0,
    in which case the auxiliary term is identically zero.
    """
    y_hat, aux_hat, y, aux_y, beta = _arrays(y_hat, aux_hat, y, aux_y, beta)
    p = np.clip(y_hat, EPS, 1.0 - EPS)
    tox = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    q = np.clip(aux_hat, EPS, 1.0 - EPS)
    aux = -(aux_y * np.log(q) + (1.0 - aux_y) * np.log(1.0 - q)).sum(axis=1)

    per_example = beta * (alpha * tox + (1.0 - alpha) * aux)
    scale = 1.0 / len(y_hat)
    return LossBreakdown(
        total=float(per_example.sum() * scale),
        toxicity_term=float((beta * alpha * tox).sum() * scale),
        auxiliary_term=float((beta * (1.0 - alpha) * aux).sum() * scale),
    )


def loss_grad_heads(y_hat, aux_hat, y, aux_y, beta, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of multitask_loss w.r.t. the sigmoid head outputs.

    d/dp of BCE(p, y) is (p - y) / (p (1 - p)); composed with a sigmoid
    pre-activation this collapses to (p - y), which the network tests verify.
    Returns (dL/dy_hat shape (N,), dL/daux_hat shape (N, K)).
    """
    y_hat, aux_hat, y, aux_y, beta = _arrays(y_hat, aux_hat, y, aux_y, beta)
    scale = 1.0 / len(y_hat)
    p = np.clip(y_hat, EPS, 1.0 - EPS)
    d_y = scale * beta * alpha * (p - y) / (p * (1.0 - p))
    q = np.clip(aux_hat, EPS, 1.0 - EPS)
    d_aux = scale * beta[:, None] * (1.0 - alpha) * (q - aux_y) / (q * (1.0 - q))
    return d_y, d_aux
