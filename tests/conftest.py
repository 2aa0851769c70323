import numpy as np
import pytest

from mtltox.corpus import Comment
from mtltox.embeddings import EmbeddingTable
from mtltox.losses import loss_grad_heads, multitask_loss
from mtltox.network import Hyper, backward, forward


def tiny_hyper(n_aux=1, attention=True, embed_dim=2, hidden=2, dense=2, max_len=3):
    return Hyper(
        embed_dim=embed_dim,
        hidden=hidden,
        dense1=dense,
        dense2=dense,
        n_aux=n_aux,
        dropout_rate=0.0,
        attention=attention,
        max_len=max_len,
    )


def random_example(hyper, seed, max_len=None):
    """Random (L, D) token array, with L in [1, max_len], and targets for a tiny model."""
    rng = np.random.default_rng(seed)
    m = max_len or hyper.max_len
    embedded = rng.normal(scale=0.8, size=(m, hyper.embed_dim))
    true_length = int(rng.integers(1, m + 1))
    y = float(rng.random())
    aux_y = rng.random(hyper.n_aux)
    beta = float(rng.choice([1.0, 3.0]))
    return embedded[:true_length], y, aux_y, beta


def per_token_batch(tokens, lengths):
    """A table whose rows are the given (T, D) tokens, and comments of the given lengths over it,
    comment after comment: each token has its own id, so each is its own row of the pass."""
    tokens = np.asarray(tokens, dtype=float)
    table = EmbeddingTable(tokens, tokens.shape[1], 0)
    starts = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    ids = [np.arange(starts[i], starts[i + 1]) for i in range(len(lengths))]
    return table, [
        Comment(id=str(i), token_ids=a, y=0.0, identity_labels=np.zeros(0), subtype_labels=np.zeros(0))
        for i, a in enumerate(ids)
    ]


def _heads_and_targets(params, tokens, y, aux_y, beta):
    """One comment's trace as a batch of one, and its loss inputs (y_hat, aux_hat, y, aux_y, beta)."""
    tr = forward(params, *per_token_batch(tokens, [len(tokens)]))
    targets = (np.array([y]), np.asarray(aux_y).reshape(1, -1), np.array([beta]))
    return tr, (tr.heads[:, 0], tr.heads[:, 1:], *targets)


def example_loss(params, tokens, y, aux_y, beta, alpha):
    return multitask_loss(*_heads_and_targets(params, tokens, y, aux_y, beta)[1], alpha).total


def analytic_grads(params, tokens, y, aux_y, beta, alpha):
    tr, args = _heads_and_targets(params, tokens, y, aux_y, beta)
    return backward(params, tr, *loss_grad_heads(*args, alpha))


def finite_difference_grads(params, tokens, y, aux_y, beta, alpha, eps=1e-4):
    fd = {}
    for name, arr in params.tensors.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            up = example_loss(params, tokens, y, aux_y, beta, alpha)
            arr[ix] = orig - eps
            down = example_loss(params, tokens, y, aux_y, beta, alpha)
            arr[ix] = orig
            g[ix] = (up - down) / (2.0 * eps)
        fd[name] = g
    return fd


def max_relative_error(analytic, fd, abs_floor=1e-8):
    """Worst element-wise relative error, with an absolute floor absorbing
    finite-difference truncation noise."""
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        f = fd[name].ravel()
        for av, fv in zip(a, f):
            diff = abs(av - fv)
            if diff <= abs_floor:
                continue
            worst = max(worst, diff / max(abs(av), abs(fv)))
    return worst


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import REPORT
    except ImportError:
        return
    if REPORT:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in REPORT:
            terminalreporter.write_line("  " + line)
