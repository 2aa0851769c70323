"""The shared network: two stacked BiLSTMs, attention pooling, dense layers,
and K+1 sigmoid heads, with forward and hand-derived backward passes in numpy.

Sequence handling: a batch is one (T, D) array of its comments' real tokens,
comment after comment. Padding is never gathered, so it cannot influence any
output. Each LSTM layer-direction projects all T tokens (``X·Wx``) before the
layer's recurrence, which runs both directions as one (2, n, H) state, time-major
with the longest comment first: step t touches only the comments longer than t.
The reverse direction takes those steps over each comment's tokens reversed.
Attention and pooling reduce over each comment's own tokens. In BPTT only
``dh·Whᵀ`` stays per step.

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
    offsets: list[int]  # first packed row of each step, then the row count
    order: np.ndarray  # (2, T) token row of each packed row: forward, then reverse direction
    prev: np.ndarray  # packed row one step earlier, for rows after step 0


def _pack(lengths: np.ndarray) -> _Packing:
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    by_length = np.argsort(-lengths, kind="stable")  # ties keep batch order
    steps = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]  # comments longer than t
    offsets = np.concatenate([[0], np.cumsum(steps)])
    step = np.repeat(np.arange(len(steps)), steps)
    rank = np.arange(offsets[-1]) - offsets[step]
    comment = by_length[rank]
    order = np.stack([starts[comment] + step, starts[comment] + lengths[comment] - 1 - step])
    prev = offsets[step[steps[0] :] - 1] + rank[steps[0] :]  # rows of step 0 have none
    return _Packing(lengths, starts, steps.tolist(), offsets.tolist(), order, prev)


@dataclass
class BatchTrace:
    """One forward pass. Token arrays hold the real tokens, comment after
    comment; per-comment arrays are in batch order."""

    pack: _Packing
    layer_inputs: list[np.ndarray]  # input tokens of each LSTM layer (training only)
    lstm: dict[int, tuple]  # layer -> packed gates, c, h of both directions; training only
    h_seq: np.ndarray  # (T, 2H) second-layer outputs
    attn_tanh: np.ndarray | None  # (T,) tanh scores
    attn_weights: np.ndarray  # (T,)
    pooled: np.ndarray  # (B, 2H)
    z1: np.ndarray
    z2: np.ndarray
    heads: np.ndarray  # (B, 1+K) sigmoid outputs: toxicity, then the K auxiliary heads

    @property
    def true_length(self) -> int:
        """The batch's real token count."""
        return int(self.pack.lengths.sum())


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def param_shapes(hyper: Hyper) -> dict[str, tuple[int, ...]]:
    """Every learnable tensor's name and shape, in the order init draws them and checkpoints store them."""
    h = hyper.hidden
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in (0, 1):
        in_dim = hyper.embed_dim if layer == 0 else 2 * h
        for direction in ("fwd", "bwd"):
            prefix = f"lstm{layer}_{direction}"
            shapes |= {f"{prefix}_Wx": (in_dim, 4 * h), f"{prefix}_Wh": (h, 4 * h), f"{prefix}_b": (4 * h,)}
    if hyper.attention:
        shapes["attn_w"] = (2 * h,)
    shapes |= {
        "dense1_W": (2 * h, hyper.dense1),
        "dense1_b": (hyper.dense1,),
        "dense2_W": (hyper.dense1, hyper.dense2),
        "dense2_b": (hyper.dense2,),
        "head_tox_w": (hyper.dense2,),
        "head_tox_b": (1,),
    }
    if hyper.n_aux > 0:
        shapes |= {"head_aux_W": (hyper.dense2, hyper.n_aux), "head_aux_b": (hyper.n_aux,)}
    return shapes


def init_params(hyper: Hyper, seed: int = 0) -> ModelParams:
    """Glorot uniform weights (a vector is one output column), drawn in ``param_shapes`` order;
    biases zero except the LSTM forget gate at 1."""
    rng = np.random.default_rng(seed)
    h = hyper.hidden
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(hyper).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
            if name.startswith("lstm"):
                tensors[name][h : 2 * h] = 1.0  # forget-gate bias
        else:
            fan_in, fan_out = shape if len(shape) == 2 else (shape[0], 1)
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-limit, limit, shape)
    return ModelParams(hyper=hyper, tensors=tensors)


def spatial_dropout_mask(dim: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Per-channel keep mask with inverted scaling: entries are 0 or 1/(1-rate).

    The same mask is applied at every timestep, so whole embedding channels
    drop together.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return np.ones(dim)
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


def _recurrence(zx: np.ndarray, pack: _Packing, wh: np.ndarray, keep: bool):
    """Both directions of an LSTM layer over packed rows: zx (2, T, 4H) holds X·Wx + b, wh (2, H, 4H)
    the two Wh. Returns (h, cache or None), the cache being (gates after their nonlinearities, c, h)."""
    hdim = wh.shape[1]
    h = np.empty(zx.shape[:2] + (hdim,))
    cache = (np.empty(zx.shape), np.empty(h.shape), h) if keep else None
    # At least two state rows per direction: a one-row product takes numpy's
    # GEMV path, which rounds differently from GEMM (batch-composition rule).
    # Rows past the active ones hold finished comments' states; their
    # products are discarded.
    h_state = np.zeros((2, max(pack.steps[0], 2), hdim))
    c_state = np.zeros_like(h_state)
    for off, n in zip(pack.offsets, pack.steps):
        z = zx[:, off : off + n] + (h_state[:, : max(n, 2)] @ wh)[:, :n]
        gates = _sigmoid(z)
        gates[..., 2 * hdim : 3 * hdim] = np.tanh(z[..., 2 * hdim : 3 * hdim])
        i_g, f_g, g_g, o_g = (gates[..., k * hdim : (k + 1) * hdim] for k in range(4))
        c_state[:, :n] = f_g * c_state[:, :n] + i_g * g_g
        h_state[:, :n] = o_g * np.tanh(c_state[:, :n])
        h[:, off : off + n] = h_state[:, :n]
        if keep:
            cache[0][:, off : off + n] = gates
            cache[1][:, off : off + n] = c_state[:, :n]
    return h, cache


def forward(
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

    hdim = params.hyper.hidden
    zx = np.empty((2, len(row_comment), 4 * hdim))  # both layers project into it
    layer_inputs, lstm = [], {}
    for layer in (0, 1):
        layer_inputs.append(x)
        prefixes = [f"lstm{layer}_{direction}" for direction in ("fwd", "bwd")]  # in pack.order's order
        for d, prefix in enumerate(prefixes):
            np.add(_rows_matmul(x[pack.order[d]], t[f"{prefix}_Wx"]), t[f"{prefix}_b"], out=zx[d])
        h, lstm[layer] = _recurrence(zx, pack, np.stack([t[f"{p}_Wh"] for p in prefixes]), keep_caches)
        # One finiteness check per layer, forward direction first. Packed rows
        # are time-major: a direction's first bad row is its first bad timestep.
        bad = np.argwhere(~np.isfinite(h).all(axis=2))
        if bad.size:
            row = pack.order[tuple(bad[0])]
            comment = int(np.searchsorted(pack.starts, row, side="right")) - 1
            raise NetworkError(
                f"non-finite activation in {prefixes[bad[0, 0]]} at timestep {row - pack.starts[comment]} "
                f"of batch row {comment}"
            )
        x = np.empty((len(row_comment), 2 * hdim))  # the forward direction in the first H columns
        x.reshape(-1, 2, hdim)[pack.order, [[0], [1]]] = h
        del h  # the next layer projects without it

    # Softmax and pooling reduce over each comment's own rows: a sum
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


def _bptt(cache: tuple, d_h_seq: np.ndarray, pack: _Packing, wh_t: np.ndarray, d_z: np.ndarray):
    """Backpropagation through time over both directions, from the layer's
    (T, 2H) output gradients; wh_t (2, 4H, H) holds the two Whᵀ. Only
    ``dh·Whᵀ`` runs per step. Fills d_z (2, T, 4H) with dZ of every row."""
    gates, c, _ = cache
    hdim, steps, offsets = c.shape[2], pack.steps, pack.offsets
    d_h_out = d_h_seq.reshape(-1, 2, hdim)[pack.order, [[0], [1]]]  # each direction's packed rows
    tanh_c = np.tanh(c)
    # d_z starts as the slopes, and each step multiplies its products in (bit for bit commutative).
    np.subtract(1.0, gates, out=d_z)
    d_z *= gates  # sigmoid' for i, f, o
    d_z[..., 2 * hdim : 3 * hdim] = 1.0 - gates[..., 2 * hdim : 3 * hdim] ** 2  # tanh' for g
    d_h_next = np.zeros((2, steps[0], hdim))
    d_c_next = np.zeros_like(d_h_next)
    for step in range(len(steps) - 1, -1, -1):
        n = steps[step]
        rows = slice(offsets[step], offsets[step + 1])
        i_g, f_g, g_g, o_g = (gates[:, rows, k * hdim : (k + 1) * hdim] for k in range(4))
        c_prev = c[:, offsets[step - 1] : offsets[step - 1] + n] if step > 0 else 0.0
        d_h = d_h_out[:, rows] + d_h_next[:, :n]
        d_c = d_h * o_g * (1.0 - tanh_c[:, rows] ** 2) + d_c_next[:, :n]
        d_z[:, rows] *= np.concatenate([d_c * g_g, d_c * c_prev, d_c * i_g, d_h * tanh_c[:, rows]], axis=2)
        d_c_next[:, :n] = d_c * f_g
        d_h_next[:, :n] = d_z[:, rows] @ wh_t


def backward(
    params: ModelParams, trace: BatchTrace, d_y_hat: np.ndarray, d_aux_hat: np.ndarray
) -> dict[str, np.ndarray]:
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
    d_z = np.empty((2, pack.order.shape[1], 4 * hyper.hidden))  # both layers backpropagate into it
    for layer in (1, 0):
        x, h_packed = trace.layer_inputs[layer], trace.lstm[layer][2]
        prefixes = [f"lstm{layer}_{direction}" for direction in ("fwd", "bwd")]
        wh_t = np.swapaxes(np.stack([t[f"{p}_Wh"] for p in prefixes]), 1, 2)  # slices keep Wh.T's layout
        _bptt(trace.lstm[layer], d_h_seq, pack, wh_t, d_z)
        d_x = np.zeros_like(x) if layer == 1 else None
        for d, prefix in enumerate(prefixes):
            grads[f"{prefix}_Wh"] = h_packed[d][pack.prev].T @ d_z[d, pack.steps[0] :]
            grads[f"{prefix}_Wx"] = x[pack.order[d]].T @ d_z[d]
            grads[f"{prefix}_b"] = d_z[d].sum(axis=0)
            if d_x is not None:
                d_x[pack.order[d]] += d_z[d] @ t[f"{prefix}_Wx"].T
        d_h_seq = d_x
    return {name: grads[name] for name in t}


def embed_batch(table: EmbeddingTable, comments: list[Comment]) -> tuple[np.ndarray, np.ndarray]:
    """The comments' tokens as one (T, D) array, and their lengths."""
    for c in comments:
        if c.true_length == 0:
            raise NetworkError(f"comment {c.id!r} has no tokens")
    ids = np.concatenate([c.token_ids for c in comments])
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
        heads[start : start + len(chunk)] = forward(params, *embed_batch(table, chunk), keep_caches=False).heads
    return heads[:, 0].copy(), heads[:, 1:].copy()
