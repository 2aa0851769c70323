"""The shared network: two stacked BiLSTMs, attention pooling, dense layers,
and K+1 sigmoid heads, with forward and hand-derived backward passes in numpy.

Sequence handling: a batch is one (T, D) array of its comments' real tokens,
comment after comment. Padding is never gathered, so it cannot influence any
output. Each LSTM layer-direction projects all T tokens (``X·Wx``) before its
recurrence, which runs time-major with the longest comment first: step t
touches only the comments longer than t. The reverse direction runs the same
recurrence over each comment's tokens reversed within its own length.
Attention and pooling reduce over each comment's own tokens. In BPTT only
``dh·Whᵀ`` stays per step. ``forward``/``backward`` are a batch of one.

Gate layout inside the fused 4H-wide LSTM weights: input, forget, candidate,
output, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mtltox.corpus import Comment
from mtltox.embeddings import EmbeddingTable, lookup

PREDICT_BATCH = 64  # comments per forward pass inside predict()
# Rows per product for the input projections and the dense layers. Every
# such product has this one shape, because OpenBLAS picks its kernel by shape
# and two kernels can round a row differently (batch-composition rule).
_ROW_BLOCK = 128


class NetworkError(RuntimeError):
    """Numerical failure or structural mismatch inside the network."""


@dataclass(frozen=True)
class Hyper:
    """Architecture sizes. The full-scale values are hidden=256 (per
    direction), dense1=dense2=512, max_len=220; desk-scale runs shrink them
    through config without touching the math."""

    embed_dim: int
    hidden: int = 256
    dense1: int = 512
    dense2: int = 512
    n_aux: int = 9  # K output heads beside the toxicity head
    dropout_rate: float = 0.2
    attention: bool = True  # identity propagation uses the same net without it
    max_len: int = 220


@dataclass
class ModelParams:
    """All learnable tensors, keyed by name. Embeddings live outside and are
    frozen."""

    hyper: Hyper
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.hyper, {k: v.copy() for k, v in self.tensors.items()})


@dataclass
class _Packing:
    """Time-major order of a batch's tokens, longest comment first."""

    lengths: np.ndarray  # (B,) true lengths, in batch order
    starts: np.ndarray  # (B,) first token row of each comment
    steps: list[int]  # active comments at each step
    order: dict[str, np.ndarray]  # direction -> token row of each packed row
    prev: np.ndarray  # packed row one step earlier, for rows after step 0


def _pack(lengths: np.ndarray) -> _Packing:
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    by_length = np.argsort(-lengths, kind="stable")  # ties keep batch order
    sorted_len = lengths[by_length]
    steps = [int(np.count_nonzero(sorted_len > t)) for t in range(sorted_len[0])]
    step = np.repeat(np.arange(len(steps)), steps)
    rank = np.concatenate([np.arange(n) for n in steps])
    first = starts[by_length][rank]
    offsets = np.concatenate([[0], np.cumsum(steps)])
    order = {"fwd": first + step, "bwd": first + sorted_len[rank] - 1 - step}
    return _Packing(lengths, starts, steps, order, offsets[step[steps[0] :] - 1] + rank[steps[0] :])


@dataclass
class BatchTrace:
    """One forward_batch pass. Token arrays hold the real tokens, comment
    after comment; per-comment arrays are in batch order."""

    pack: _Packing
    layer_inputs: list[np.ndarray]  # input tokens of each LSTM layer (training only)
    lstm: dict[tuple[int, str], tuple]  # (layer, "fwd"/"bwd") -> packed gates, c, h; training only
    h_seq: np.ndarray  # (T, 2H) second-layer outputs
    attn_tanh: np.ndarray | None  # (T,) tanh scores
    attn_weights: np.ndarray  # (T,)
    pooled: np.ndarray  # (B, 2H)
    z1: np.ndarray
    z2: np.ndarray
    heads: np.ndarray  # (B, 1+K) sigmoid outputs: toxicity, then the K auxiliary heads


@dataclass
class ForwardTrace:
    """One example's outputs, padded to its input length, and its batch of one."""

    true_length: int
    h_seq: np.ndarray  # (M, 2H) second-layer outputs, zero at padding
    attn_weights: np.ndarray  # (M,), zero at padding
    pooled: np.ndarray  # (2H,)
    y_hat: float
    aux_hat: np.ndarray  # (K,)
    batch: BatchTrace


@dataclass
class ParamGrads:
    tensors: dict[str, np.ndarray]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def param_names(hyper: Hyper) -> list[str]:
    names = []
    for layer in (0, 1):
        for direction in ("fwd", "bwd"):
            prefix = f"lstm{layer}_{direction}"
            names += [f"{prefix}_Wx", f"{prefix}_Wh", f"{prefix}_b"]
    if hyper.attention:
        names.append("attn_w")
    names += ["dense1_W", "dense1_b", "dense2_W", "dense2_b", "head_tox_w", "head_tox_b"]
    if hyper.n_aux > 0:
        names += ["head_aux_W", "head_aux_b"]
    return names


def init_params(hyper: Hyper, seed: int = 0) -> ModelParams:
    """Fan-based uniform init; biases zero except the LSTM forget gate at 1."""
    rng = np.random.default_rng(seed)
    h = hyper.hidden
    tensors: dict[str, np.ndarray] = {}
    for layer in (0, 1):
        in_dim = hyper.embed_dim if layer == 0 else 2 * h
        for direction in ("fwd", "bwd"):
            prefix = f"lstm{layer}_{direction}"
            tensors[f"{prefix}_Wx"] = _glorot(rng, in_dim, 4 * h, (in_dim, 4 * h))
            tensors[f"{prefix}_Wh"] = _glorot(rng, h, 4 * h, (h, 4 * h))
            b = np.zeros(4 * h)
            b[h : 2 * h] = 1.0  # forget-gate bias
            tensors[f"{prefix}_b"] = b
    if hyper.attention:
        tensors["attn_w"] = _glorot(rng, 2 * h, 1, (2 * h,))
    tensors["dense1_W"] = _glorot(rng, 2 * h, hyper.dense1, (2 * h, hyper.dense1))
    tensors["dense1_b"] = np.zeros(hyper.dense1)
    tensors["dense2_W"] = _glorot(rng, hyper.dense1, hyper.dense2, (hyper.dense1, hyper.dense2))
    tensors["dense2_b"] = np.zeros(hyper.dense2)
    tensors["head_tox_w"] = _glorot(rng, hyper.dense2, 1, (hyper.dense2,))
    tensors["head_tox_b"] = np.zeros(1)
    if hyper.n_aux > 0:
        tensors["head_aux_W"] = _glorot(rng, hyper.dense2, hyper.n_aux, (hyper.dense2, hyper.n_aux))
        tensors["head_aux_b"] = np.zeros(hyper.n_aux)
    return ModelParams(hyper=hyper, tensors=tensors)


def spatial_dropout_mask(dim: int, rate: float, seed_or_rng) -> np.ndarray:
    """Per-channel keep mask with inverted scaling: entries are 0 or 1/(1-rate).

    The same mask is applied at every timestep, so whole embedding channels
    drop together.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return np.ones(dim)
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    keep = rng.random(dim) >= rate
    return keep / (1.0 - rate)


def _rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w as a stack of _ROW_BLOCK-row products, the last one zero-padded."""
    n, k = x.shape
    padded = np.zeros((-(-n // _ROW_BLOCK), _ROW_BLOCK, k))
    padded.reshape(-1, k)[:n] = x
    return (padded @ w).reshape(-1, w.shape[1])[:n]


def _rows_dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T for a w of few rows, as elementwise products summed per row.
    numpy sends a one-column product to GEMV, whose rounding of a row can
    depend on the rows around it (batch-composition rule)."""
    return (x[:, None, :] * w[None, :, :]).sum(axis=2)


def _heads(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Toxicity and auxiliary heads as one (1+K, dense2) weight and its bias."""
    t = params.tensors
    w_aux = t.get("head_aux_W", np.zeros((params.hyper.dense2, 0)))
    return np.vstack([t["head_tox_w"], w_aux.T]), np.concatenate([t["head_tox_b"], t.get("head_aux_b", [])])


def _recurrence(zx: np.ndarray, steps: list[int], wh: np.ndarray, keep: bool):
    """LSTM over packed rows; zx holds X·Wx + b. Returns (h, cache or None),
    the cache being (gates (T, 4H) after their nonlinearities, c, h)."""
    hdim = wh.shape[0]
    h = np.empty((zx.shape[0], hdim))
    cache = (np.empty(zx.shape), np.empty(h.shape), h) if keep else None
    # At least two state rows: a one-row product takes numpy's GEMV path,
    # which rounds differently from GEMM (batch-composition rule). Rows past
    # the active ones hold finished comments' states; their products are
    # discarded.
    h_state = np.zeros((max(steps[0], 2), hdim))
    c_state = np.zeros_like(h_state)
    off = 0
    for n in steps:
        z = zx[off : off + n] + (h_state[: max(n, 2)] @ wh)[:n]
        gates = _sigmoid(z)
        gates[:, 2 * hdim : 3 * hdim] = np.tanh(z[:, 2 * hdim : 3 * hdim])
        i_g, f_g, g_g, o_g = (gates[:, k * hdim : (k + 1) * hdim] for k in range(4))
        c_state[:n] = f_g * c_state[:n] + i_g * g_g
        h_state[:n] = o_g * np.tanh(c_state[:n])
        h[off : off + n] = h_state[:n]
        if keep:
            cache[0][off : off + n] = gates
            cache[1][off : off + n] = c_state[:n]
        off += n
    return h, cache


def forward_batch(
    params: ModelParams, tokens: np.ndarray, lengths, dropout_masks=None, keep_caches: bool = True
) -> BatchTrace:
    """B comments through the whole network.

    ``tokens`` is the (sum(lengths), D) array of the comments' real token
    embeddings, comment after comment; ``dropout_masks`` is (B, D) or None.
    Without ``keep_caches`` the trace holds outputs only (inference).
    """
    t = params.tensors
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != tokens.shape[0]:
        raise NetworkError(f"lengths {lengths.tolist()} do not partition {tokens.shape[0]} token rows")
    pack = _pack(lengths)
    row_comment = np.repeat(np.arange(len(lengths)), lengths)
    x = tokens * dropout_masks[row_comment] if dropout_masks is not None else tokens

    layer_inputs, lstm = [], {}
    for layer in (0, 1):
        layer_inputs.append(x)
        outputs = []
        for direction, order in pack.order.items():
            prefix = f"lstm{layer}_{direction}"
            zx = _rows_matmul(x[order], t[f"{prefix}_Wx"]) + t[f"{prefix}_b"]
            h, lstm[(layer, direction)] = _recurrence(zx, pack.steps, t[f"{prefix}_Wh"], keep_caches)
            # One finiteness check per layer-direction; packed rows are
            # time-major, so the first bad row is the first bad timestep.
            bad = np.flatnonzero(~np.isfinite(h).all(axis=1))
            if bad.size:
                row = order[bad[0]]
                comment = int(np.searchsorted(pack.starts, row, side="right")) - 1
                raise NetworkError(
                    f"non-finite activation in {prefix} at timestep {row - pack.starts[comment]} "
                    f"of batch row {comment}"
                )
            outputs.append(np.empty_like(h))
            outputs[-1][order] = h
        x = np.concatenate(outputs, axis=1)

    # Softmax and pooling reduce over each comment's own rows: a reduction
    # over a zero-padded axis rounds differently (batch-composition rule).
    attn_tanh = None
    if params.hyper.attention:
        attn_tanh = np.tanh(_rows_dot(x, t["attn_w"][None, :])[:, 0])
        shifted = np.exp(attn_tanh - np.maximum.reduceat(attn_tanh, pack.starts)[row_comment])
        attn_weights = shifted / np.add.reduceat(shifted, pack.starts)[row_comment]
    else:
        attn_weights = 1.0 / lengths[row_comment]
    pooled = np.add.reduceat(attn_weights[:, None] * x, pack.starts, axis=0)

    z1 = _rows_matmul(pooled, t["dense1_W"]) + t["dense1_b"]
    z2 = _rows_matmul(np.maximum(z1, 0.0), t["dense2_W"]) + t["dense2_b"]
    w_heads, b_heads = _heads(params)
    heads = _sigmoid(_rows_dot(np.maximum(z2, 0.0), w_heads) + b_heads)
    if not np.all(np.isfinite(heads)):
        raise NetworkError("non-finite activation in output heads")
    if not keep_caches:
        layer_inputs, lstm = [], {}
    return BatchTrace(pack, layer_inputs, lstm, x, attn_tanh, attn_weights, pooled, z1, z2, heads)


def forward(
    params: ModelParams, embedded: np.ndarray, true_length: int, dropout_mask: np.ndarray | None = None
) -> ForwardTrace:
    """One example through the whole network, as a batch of one.

    ``embedded`` is the (max_len, D) embedding matrix for the comment;
    positions at or beyond true_length are ignored entirely.
    """
    m = embedded.shape[0]
    if not 1 <= true_length <= m:
        raise NetworkError(f"true_length {true_length} outside [1, {m}]")
    masks = dropout_mask[None, :] if dropout_mask is not None else None
    batch = forward_batch(params, embedded[:true_length], [true_length], masks)
    h_seq = np.pad(batch.h_seq, ((0, m - true_length), (0, 0)))
    attn_weights = np.pad(batch.attn_weights, (0, m - true_length))
    heads = batch.heads[0]
    return ForwardTrace(true_length, h_seq, attn_weights, batch.pooled[0], float(heads[0]), heads[1:], batch)


def _bptt(cache: tuple, d_h_out: np.ndarray, pack: _Packing, wh: np.ndarray):
    """Backpropagation through time over packed rows. Only ``dh·Whᵀ`` runs
    per step. Returns (dZ of every row, dWh)."""
    hdim, steps = wh.shape[0], pack.steps
    gates, c, h = cache
    tanh_c = np.tanh(c)
    slope = gates * (1.0 - gates)  # sigmoid' for i, f, o
    slope[:, 2 * hdim : 3 * hdim] = 1.0 - gates[:, 2 * hdim : 3 * hdim] ** 2  # tanh' for g
    d_z = np.empty_like(gates)
    d_h_next = np.zeros((steps[0], hdim))
    d_c_next = np.zeros_like(d_h_next)
    offsets = np.concatenate([[0], np.cumsum(steps)])
    for step in range(len(steps) - 1, -1, -1):
        n = steps[step]
        rows = slice(offsets[step], offsets[step] + n)
        i_g, f_g, g_g, o_g = (gates[rows, k * hdim : (k + 1) * hdim] for k in range(4))
        c_prev = c[offsets[step - 1] : offsets[step - 1] + n] if step > 0 else 0.0
        d_h = d_h_out[rows] + d_h_next[:n]
        d_c = d_h * o_g * (1.0 - tanh_c[rows] ** 2) + d_c_next[:n]
        d_z[rows] = np.concatenate([d_c * g_g, d_c * c_prev, d_c * i_g, d_h * tanh_c[rows]], axis=1)
        d_z[rows] *= slope[rows]
        d_c_next[:n] = d_c * f_g
        d_h_next[:n] = d_z[rows] @ wh.T
    return d_z, h[pack.prev].T @ d_z[steps[0] :]


def backward_batch(
    params: ModelParams, trace: BatchTrace, d_y_hat: np.ndarray, d_aux_hat: np.ndarray
) -> ParamGrads:
    """Gradient of the loss w.r.t. every parameter tensor, summed over the
    batch. ``d_y_hat`` (B,) and ``d_aux_hat`` (B, K) are the loss gradients at
    the sigmoid head outputs (as produced by losses.loss_grad_heads).
    """
    hyper, t, pack = params.hyper, params.tensors, trace.pack
    if not trace.lstm:
        raise NetworkError("trace was built without caches; backward needs keep_caches=True")
    d_y_hat = np.asarray(d_y_hat, dtype=float)
    d_aux_hat = np.asarray(d_aux_hat, dtype=float)
    want = (len(pack.lengths), hyper.n_aux)
    if d_y_hat.shape != want[:1] or d_aux_hat.shape != want:
        raise NetworkError(f"gradient shapes {d_y_hat.shape}, {d_aux_hat.shape} != {want[:1]}, {want}")
    grads: dict[str, np.ndarray] = {}

    # Heads: sigmoid backward to the logits, then linear layers.
    d_logits = np.concatenate([d_y_hat[:, None], d_aux_hat], axis=1) * trace.heads * (1.0 - trace.heads)
    a2 = np.maximum(trace.z2, 0.0)
    grads["head_tox_w"] = a2.T @ d_logits[:, 0]
    grads["head_tox_b"] = d_logits[:, :1].sum(axis=0)
    if hyper.n_aux > 0:
        grads["head_aux_W"] = a2.T @ d_logits[:, 1:]
        grads["head_aux_b"] = d_logits[:, 1:].sum(axis=0)

    # Dense stack (ReLU).
    d_z2 = (d_logits @ _heads(params)[0]) * (trace.z2 > 0)
    grads["dense2_W"] = np.maximum(trace.z1, 0.0).T @ d_z2
    grads["dense2_b"] = d_z2.sum(axis=0)
    d_z1 = (d_z2 @ t["dense2_W"].T) * (trace.z1 > 0)
    grads["dense1_W"] = trace.pooled.T @ d_z1
    grads["dense1_b"] = d_z1.sum(axis=0)
    d_pooled = np.repeat(d_z1 @ t["dense1_W"].T, pack.lengths, axis=0)

    # Pooling back to each token's hidden state.
    a = trace.attn_weights
    d_h_seq = a[:, None] * d_pooled
    if hyper.attention:
        d_a = (trace.h_seq * d_pooled).sum(axis=1)
        d_u = a * (d_a - np.repeat(np.add.reduceat(a * d_a, pack.starts), pack.lengths))
        d_u *= 1.0 - trace.attn_tanh**2
        grads["attn_w"] = d_u @ trace.h_seq
        d_h_seq += d_u[:, None] * t["attn_w"][None, :]

    # Stacked BiLSTMs, top down. Layer 1's input grads feed layer 0's
    # outputs; layer 0's input is the frozen embedding, so it gets none.
    h = hyper.hidden
    for layer in (1, 0):
        x = trace.layer_inputs[layer]
        d_x = np.zeros_like(x) if layer == 1 else None
        for (direction, order), lo in zip(pack.order.items(), (0, h)):
            prefix = f"lstm{layer}_{direction}"
            d_z, grads[f"{prefix}_Wh"] = _bptt(
                trace.lstm[(layer, direction)], d_h_seq[order, lo : lo + h], pack, t[f"{prefix}_Wh"]
            )
            grads[f"{prefix}_Wx"] = x[order].T @ d_z
            grads[f"{prefix}_b"] = d_z.sum(axis=0)
            if d_x is not None:
                d_x[order] += d_z @ t[f"{prefix}_Wx"].T
        d_h_seq = d_x
    return ParamGrads(tensors={name: grads[name] for name in t})


def backward(params: ModelParams, trace: ForwardTrace, d_y_hat: float, d_aux_hat: np.ndarray) -> ParamGrads:
    """backward_batch for one example; padded timesteps contribute exactly zero."""
    return backward_batch(params, trace.batch, [d_y_hat], np.asarray(d_aux_hat, dtype=float)[None, :])


def embed_batch(table: EmbeddingTable, comments: list[Comment]) -> tuple[np.ndarray, np.ndarray]:
    """The comments' real tokens as one (T, D) array, and their lengths."""
    for c in comments:
        if not 1 <= c.true_length <= len(c.token_ids):
            raise NetworkError(
                f"comment {c.id!r}: true_length {c.true_length} outside [1, {len(c.token_ids)}]"
            )
    ids = np.concatenate([c.token_ids[: c.true_length] for c in comments])
    return lookup(table, ids), np.array([c.true_length for c in comments])


def predict(
    params: ModelParams, table: EmbeddingTable, comments: list[Comment]
) -> tuple[np.ndarray, np.ndarray]:
    """Inference over a batch (no dropout). Order is preserved.

    Returns (toxicity scores shape (N,), auxiliary scores shape (N, K)).
    """
    heads = np.zeros((len(comments), 1 + params.hyper.n_aux))
    for start in range(0, len(comments), PREDICT_BATCH):
        chunk = comments[start : start + PREDICT_BATCH]
        heads[start : start + len(chunk)] = forward_batch(
            params, *embed_batch(table, chunk), keep_caches=False
        ).heads
    return heads[:, 0].copy(), heads[:, 1:].copy()
