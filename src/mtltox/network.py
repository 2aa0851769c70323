"""The shared network: two stacked BiLSTMs, attention pooling, dense layers,
and K+1 sigmoid heads, with forward and hand-derived backward passes in numpy.

Sequence handling: a batch is a list of comments. forward looks up their
real tokens, comment after comment, in the frozen embedding table: each
distinct token id once, keeping each token's index into those rows. Padding
is never gathered, so it cannot influence any output. Each LSTM
layer-direction's input projection (``X·Wx + b``) is made in _ROW_BLOCK-row
blocks as its recurrence reaches them, into a window of rows that the steps
read; no pass holds the projection of all its tokens. Layer 0 first
projects each distinct row of the pass once (with dropout, each distinct
(comment, token) pair, since the mask is per comment), and each block
gathers the products into packed order through the index; layer 1 projects
each block of its packed rows. The recurrence runs both directions as one
(2, n, H) state, time-major with the longest comment first: step t touches
only the comments longer than t.
The reverse direction takes those steps over each comment's tokens reversed.
A step is plain numpy expressions on that state, which lives only inside the
recurrence's call. Attention and pooling reduce over each comment's own tokens.
In BPTT only ``dh·Whᵀ`` stays per step. From hidden size ``_THREAD_MIN_HIDDEN``,
with two usable CPUs, each direction runs on its own thread instead (the reverse
one on a worker thread that the call starts and joins), with the same numpy
calls on its (1, n, H) slice of the stack, so the bits do not change.

Gate layout inside the fused 4H-wide LSTM weights: input, forget, candidate,
output, in that order.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from mtltox.corpus import Comment
from mtltox.embeddings import EmbeddingTable, lookup

# Real tokens per forward pass inside predict(); a longer comment runs alone.
# At hidden 256 and embed 600 a pass allocates about 12 KB per token, its
# input included (tracemalloc peak of predict: 48.6 MB at 4,062 tokens, 782
# of them distinct). The peak is inside a layer's recurrence, beside the
# 4 MB window: layer 1 holds its input and h, 8 KB per token, and layer 0
# its h, 4 KB per token, and the products of its distinct rows, 16 KB each.
PREDICT_TOKENS = 4096
# Rows per product for the input projections and the dense layers. Every
# such product has this one shape, because OpenBLAS picks its kernel by shape
# and two kernels can round a row differently (batch-composition rule).
_ROW_BLOCK = 128
# Each direction's window on X·Wx + b (see _recurrence) holds as many blocks as
# fit in about this many bytes, and never fewer than the widest step's and one.
_WINDOW_BYTES = 1 << 20
# From this hidden size, and when two CPUs are usable, each direction of a
# layer runs on its own thread, from its input projection to its weight
# gradients. One forward and backward pass of 16 comments at the paper's
# length profile (embed 600, 2 cores, 1 BLAS thread), threads against the
# stacked loop on one thread, two runs: hidden 8 0.74-0.76x, 16 0.71-0.77x,
# 32 0.82-0.87x, 64 0.96-0.99x, 128 1.10-1.27x, 256 1.48-1.66x.
_THREAD_MIN_HIDDEN = 128


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

    def __post_init__(self):
        for name in ("embed_dim", "hidden", "dense1", "dense2", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_aux < 0:
            raise ValueError(f"n_aux must be >= 0, got {self.n_aux}")
        if not 0.0 <= self.dropout_rate < 1.0:  # NaN fails this too
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


class Tensors(dict):
    """Name-keyed float64 arrays that are views of one vector, ``vector``, which
    holds them one after another in the dict's order. Write through the views
    or the vector: a name rebound to another array would leave the vector."""

    def __init__(self, shapes: dict[str, tuple[int, ...]], vector: np.ndarray | None = None):
        """Views of ``vector``, or of a new uninitialised one, with these names and shapes."""
        blocks, size = [], 0
        for name, shape in shapes.items():
            blocks.append((name, size, size + math.prod(shape), shape))
            size = blocks[-1][2]
        if vector is None and size > np.iinfo(np.intp).max // 8:  # numpy would call it a ValueError
            raise MemoryError(f"cannot allocate {size} float64 values")
        self.vector = np.empty(size) if vector is None else vector
        if self.vector.shape != (size,):
            raise ValueError(f"a vector of shape {self.vector.shape} cannot hold {size} values")
        super().__init__((name, self.vector[start:end].reshape(shape)) for name, start, end, shape in blocks)

    def like(self, vector: np.ndarray | None = None) -> "Tensors":
        """This dict's names and shapes over ``vector``, or over a new uninitialised one."""
        return Tensors({name: a.shape for name, a in self.items()}, vector)


@dataclass
class ModelParams:
    """All learnable tensors, keyed by name, as views of one vector
    (``tensors.vector``) in ``param_shapes`` order: a Tensors, and nothing
    else. Embeddings live outside and are frozen."""

    hyper: Hyper
    tensors: Tensors

    def __post_init__(self):
        if not isinstance(self.tensors, Tensors):
            raise TypeError(f"ModelParams holds a Tensors, not a {type(self.tensors).__name__}")

    def copy(self) -> "ModelParams":
        return ModelParams(self.hyper, self.tensors.like(self.tensors.vector.copy()))


@dataclass
class _Packing:
    """Time-major order of a batch's tokens, longest comment first."""

    lengths: np.ndarray  # (B,) true lengths, in batch order
    starts: np.ndarray  # (B,) first token row of each comment
    steps: list[int]  # active comments at each step
    offsets: list[int]  # first packed row of each step, then the row count
    order: np.ndarray  # (2, T) token row of each packed row: forward, then reverse direction


def _pack(lengths: np.ndarray) -> _Packing:
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    by_length = np.argsort(-lengths, kind="stable")  # ties keep batch order
    steps = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]  # comments longer than t
    offsets = np.concatenate([[0], np.cumsum(steps)])
    step = np.repeat(np.arange(len(steps)), steps)
    rank = np.arange(offsets[-1]) - offsets[step]
    comment = by_length[rank]
    order = np.stack([starts[comment] + step, starts[comment] + lengths[comment] - 1 - step])
    return _Packing(lengths, starts, steps.tolist(), offsets.tolist(), order)


@dataclass
class BatchTrace:
    """One forward pass. Token arrays hold the real tokens, comment after
    comment; per-comment arrays are in batch order. Each LSTM value is held
    once: a layer's h only in token order (layer 0's as layer 1's input)."""

    pack: _Packing
    layer_inputs: list[tuple]  # per LSTM layer: its input rows, and the (2, T) row of each packed row; training only
    lstm: dict[int, tuple]  # layer -> packed gates and c of both directions; training only, until backward
    h_seq: np.ndarray  # (T, 2H) second-layer outputs, the forward direction in the first H columns
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
    tensors = Tensors(param_shapes(hyper))
    for name, a in tensors.items():
        if name.endswith("_b"):
            a[...] = 0.0
            if name.startswith("lstm"):
                a[h : 2 * h] = 1.0  # forget-gate bias
        else:
            fan_in, fan_out = a.shape if a.ndim == 2 else (a.shape[0], 1)
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            a[...] = rng.uniform(-limit, limit, a.shape)
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


def _padded(x: np.ndarray) -> np.ndarray:
    """x's rows, then zero rows up to a whole number of _ROW_BLOCK-row blocks."""
    padded = np.zeros((-(-len(x) // _ROW_BLOCK) * _ROW_BLOCK, x.shape[1]))
    padded[: len(x)] = x
    return padded


def _blocks(a: np.ndarray) -> np.ndarray:
    """A padded (n, k) array as its (n / _ROW_BLOCK, _ROW_BLOCK, k) stack of blocks."""
    return a.reshape(-1, _ROW_BLOCK, a.shape[-1])


def _rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w as a stack of _ROW_BLOCK-row products, the last one zero-padded."""
    return (_blocks(_padded(x)) @ w).reshape(-1, w.shape[1])[: len(x)]


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


def _threaded(hdim: int) -> bool:
    """Whether each direction of a layer runs on its own thread."""
    if hdim < _THREAD_MIN_HIDDEN:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2


def _each_direction(threaded: bool, run, *args) -> None:
    """run(dirs, *args) over both directions of a layer: once over the stack
    slice(0, 2), or the forward direction here and the reverse one on a worker
    thread that this call starts and joins. Either way returns only when both
    are done, and the reverse direction's error, if any, is the one raised."""
    if not threaded:
        run(slice(0, 2), *args)
        return
    # Imported here: it costs 0.6 MB and 8 ms, which runs below _THREAD_MIN_HIDDEN never need.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="mtltox-reverse") as worker:
        # The copied context carries the caller's numpy error state (np.errstate) to the worker.
        reverse = worker.submit(contextvars.copy_context().run, run, slice(1, 2), *args)
        try:
            run(slice(0, 1), *args)
        finally:
            reverse.result()


def _recurrence(window: np.ndarray, fill, pack: _Packing, wh: np.ndarray, h: np.ndarray, cache) -> None:
    """A stack of S directions of an LSTM layer over packed rows; wh (S, H, 4H) holds the Wh. X·Wx + b reaches
    the steps through window (S, W, 4H): when a step needs rows it does not hold, the rows still to come move to
    its front and fill(start, stop, out) writes packed rows start to stop, whole _ROW_BLOCK blocks, into the
    rest. W holds the widest step's rows and one block more. Writes h (S, T, H) and, unless cache is None,
    cache's (gates after their nonlinearities, c) of every row."""
    s, hdim = wh.shape[:2]
    padded_rows = -(-pack.offsets[-1] // _ROW_BLOCK) * _ROW_BLOCK
    base = made = 0  # window[:, i] holds packed row base + i, for the rows below made
    # At least two state rows per direction: a one-row product takes numpy's
    # GEMV path, which rounds differently from GEMM (batch-composition rule).
    # A step of one active row reads its state from `pair`, whose second row's
    # product is discarded. Otherwise the state is the last step's own
    # arrays, and each output row is written once. (Collecting each step's h
    # for one concatenate per layer instead raised paper-train's peak RSS
    # from 278 to 311 MB, and to 329 MB with its gates and c.)
    h_t = c_t = np.zeros((s, max(pack.steps[0], 2), hdim))  # the state before step 0
    pair = np.zeros((s, 2, hdim))
    for off, n in zip(pack.offsets, pack.steps):
        if off + n > made:
            kept = made - off
            window[:, :kept] = window[:, off - base : made - base]
            base = off
            stop = min(made + (window.shape[1] - kept) // _ROW_BLOCK * _ROW_BLOCK, padded_rows)
            fill(made, stop, window[:, kept : stop - base])
            made = stop
        rows = slice(off, off + n)
        z = window[:, off - base : off - base + n] + (h_t[:, : max(n, 2)] @ wh)[:, :n]
        gates = _sigmoid(z)
        gates[..., 2 * hdim : 3 * hdim] = np.tanh(z[..., 2 * hdim : 3 * hdim])
        i_g, f_g, g_g, o_g = (gates[..., k * hdim : (k + 1) * hdim] for k in range(4))
        c_t = f_g * c_t[:, :n] + i_g * g_g
        h_t = o_g * np.tanh(c_t)
        h[:, rows] = h_t
        if cache:
            cache[0][:, rows] = gates
            cache[1][:, rows] = c_t
        if n == 1:
            pair[:, :1] = h_t
            h_t = pair


def _stack(arrays: list, dirs: slice) -> np.ndarray:
    """arrays[dirs] as one (S, ...) array: a view of one direction's array, or a copy of both."""
    return arrays[dirs.start][None] if dirs.stop - dirs.start == 1 else np.stack(arrays[dirs])


def _layer_forward(dirs: slice, layer: int, x, order, pack: _Packing, weights, buf, window, h, cache) -> None:
    """The directions in dirs of one layer: their recurrence, fed the input projection X·Wx + b in _ROW_BLOCK-row
    products as it reaches them. Row order[d, i] of x is direction d's packed row i. Layer 0's x holds the
    pass's distinct rows, zero-padded to whole blocks: each direction projects them all into buf[d] first,
    and each fill gathers the products of its rows. Layer 1's fill gathers its rows of x into buf[d], zeroes
    the rest of the last block, and projects them."""
    wx, b, whs = weights
    ds = range(2)[dirs]
    if layer == 0:
        for d in ds:
            np.matmul(_blocks(x), wx[d], out=_blocks(buf[d]))
            buf[d] += b[d]

    def fill(start: int, stop: int, out: np.ndarray) -> None:
        for d, out_d in zip(ds, out):
            rows = order[d, start:stop]
            if layer == 0:
                buf[d].take(rows, axis=0, out=out_d[: len(rows)], mode="clip")
            else:
                x.take(rows, axis=0, out=buf[d, : len(rows)], mode="clip")
                buf[d, len(rows) : stop - start] = 0.0
                np.matmul(_blocks(buf[d, : stop - start]), wx[d], out=_blocks(out_d))
                out_d[: len(rows)] += b[d]

    sliced_cache = cache and tuple(a[dirs] for a in cache)
    _recurrence(window[dirs], fill, pack, _stack(whs, dirs), h[dirs], sliced_cache)


def forward(
    params: ModelParams, table: EmbeddingTable, comments: list[Comment], dropout_masks=None, keep_caches: bool = True
) -> BatchTrace:
    """B comments through the whole network.

    Each comment's tokens are looked up in the frozen ``table``, each
    distinct token id once. With ``dropout_masks`` (B, D), one mask per
    comment, each distinct (comment, id) pair is looked up once instead and
    multiplied by its comment's mask. Without ``keep_caches`` the trace holds
    outputs only (inference).
    """
    t = params.tensors
    if not comments:
        raise NetworkError("a pass needs at least one comment")
    lengths = np.array([c.true_length for c in comments])
    if not lengths.all():
        raise NetworkError(f"comment {comments[int(np.argmin(lengths))].id!r} has no tokens")
    ids = np.concatenate([c.token_ids for c in comments])
    pack = _pack(lengths)
    row_comment = np.repeat(np.arange(len(lengths)), lengths)
    if dropout_masks is None:
        distinct, index = np.unique(ids, return_inverse=True)
        rows = lookup(table, distinct)
    else:  # the mask is per comment: layer 0's rows are the distinct (comment, id) pairs, in that order
        low = ids.min()
        stride = ids.max() - low + 1  # so every id, in the table or not, comes back for lookup to check
        pairs, index = np.unique(row_comment * stride + (ids - low), return_inverse=True)
        pair_comment, pair_id = np.divmod(pairs, stride)
        rows = lookup(table, pair_id + low) * dropout_masks[pair_comment]

    hdim, n_rows = params.hyper.hidden, len(row_comment)
    threaded = _threaded(hdim)
    # The recurrences' window on X·Wx + b: as many blocks as fit in _WINDOW_BYTES,
    # at least the widest step's and one more, at most the whole pass.
    blocks = max(-(-pack.steps[0] // _ROW_BLOCK) + 1, _WINDOW_BYTES // (_ROW_BLOCK * 4 * hdim * 8))
    window_rows = min(blocks * _ROW_BLOCK, -(-n_rows // _ROW_BLOCK) * _ROW_BLOCK)
    # This thread makes every whole-layer array; each direction writes only its own slice.
    window = np.empty((2, window_rows, 4 * hdim))  # both layers' recurrences read through it
    x, order = _padded(rows), index[pack.order]  # layer 0's distinct rows, zero-padded to whole blocks
    layer_inputs, lstm = [], {}
    for layer in (0, 1):
        prefixes = [f"lstm{layer}_{direction}" for direction in ("fwd", "bwd")]  # in pack.order's order
        weights = (
            [t[f"{p}_Wx"] for p in prefixes],
            [t[f"{p}_b"] for p in prefixes],
            [t[f"{p}_Wh"] for p in prefixes],
        )
        if layer == 0:  # each direction's products of the distinct rows
            buf = np.empty((2, len(x), 4 * hdim))
        else:  # each direction's input rows of one fill, in packed order
            buf = np.empty((2, window_rows, x.shape[1]))
        h = np.empty((2, n_rows, hdim))
        cache = (np.empty((2, n_rows, 4 * hdim)), np.empty((2, n_rows, hdim))) if keep_caches else None
        _each_direction(threaded, _layer_forward, layer, x, order, pack, weights, buf, window, h, cache)
        del buf
        if keep_caches:  # without, each layer's input is freed before the next one's is made
            layer_inputs.append((x, order))
            lstm[layer] = cache
        del x
        # One finiteness check per layer, forward direction first. Packed rows
        # are time-major: a direction's first bad row is its first bad timestep.
        if not np.isfinite(h).all():
            bad = np.argwhere(~np.isfinite(h).all(axis=2))
            row = pack.order[tuple(bad[0])]
            comment = int(np.searchsorted(pack.starts, row, side="right")) - 1
            raise NetworkError(
                f"non-finite activation in {prefixes[bad[0, 0]]} at timestep {row - pack.starts[comment]} "
                f"of comment {comments[comment].id!r}"
            )
        x, order = np.empty((n_rows, 2 * hdim)), pack.order  # the forward direction in the first H columns
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
    return BatchTrace(pack, layer_inputs, lstm, x, attn_tanh, attn_weights, pooled, z1, z2, heads)


def _bptt(dirs: slice, cache: tuple, d_h_out: np.ndarray, pack: _Packing, whs: list) -> None:
    """Backpropagation through time over the directions in dirs of a layer, from
    their packed output gradients d_h_out (2, T, H); whs holds the two Wh. Only
    ``dh·Whᵀ`` runs per step, and each step writes its rows' dZ over their cached gates."""
    gates, c, d_h_out = cache[0][dirs], cache[1][dirs], d_h_out[dirs]
    wh_t = np.swapaxes(_stack(whs, dirs), 1, 2)  # slices keep Wh.T's layout
    s, hdim, steps, offsets = c.shape[0], c.shape[2], pack.steps, pack.offsets
    tanh_c = np.tanh(c)
    d_h_next, d_c_next = np.zeros((2, s, steps[0], hdim))
    for step in range(len(steps) - 1, -1, -1):
        n = steps[step]
        rows = slice(offsets[step], offsets[step + 1])
        z = gates[:, rows]  # this step's gates, until dZ is written over them
        i_g, f_g, g_g, o_g = (z[..., k * hdim : (k + 1) * hdim] for k in range(4))
        c_prev = c[:, offsets[step - 1] : offsets[step - 1] + n] if step > 0 else 0.0
        d_h = d_h_out[:, rows] + d_h_next[:, :n]
        d_c = d_h * o_g * (1.0 - tanh_c[:, rows] ** 2) + d_c_next[:, :n]
        slopes = (1.0 - z) * z  # sigmoid' for i, f, o
        slopes[..., 2 * hdim : 3 * hdim] = 1.0 - g_g**2  # tanh' for g
        products = np.concatenate([d_c * g_g, d_c * c_prev, d_c * i_g, d_h * tanh_c[:, rows]], axis=2)
        np.multiply(d_c, f_g, out=d_c_next[:, :n])
        np.multiply(slopes, products, out=z)
        d_h_next[:, :n] = z @ wh_t


def _weight_grads(dirs: slice, h, prev, pack: _Packing, x, order, wxs, d_z, grads, h_prev, x_packed) -> None:
    """For each direction d in dirs of a layer, from its d_z[d]: the gradients of Wh, Wx and b into grads[d]'s
    views, with row order[d, i] of x as packed row i's input and row prev[d, i] of the layer's output h (T, 2H)
    as the h before packed row steps[0] + i, then, unless wxs is None, the input gradient d_z·Wxᵀ in x_packed[d]."""
    for d in range(2)[dirs]:
        g_wh, g_wx, g_b = grads[d].values()
        h.reshape(len(h), 2, -1)[:, d].take(prev[d], axis=0, out=h_prev[d], mode="clip")
        np.matmul(h_prev[d].T, d_z[d, pack.steps[0] :], out=g_wh)
        x.take(order[d], axis=0, out=x_packed[d], mode="clip")
        np.matmul(x_packed[d].T, d_z[d], out=g_wx)
        d_z[d].sum(axis=0, out=g_b)
        if wxs is not None:
            np.matmul(d_z[d], wxs[d].T, out=x_packed[d])


def backward(params: ModelParams, trace: BatchTrace, d_y_hat: np.ndarray, d_aux_hat: np.ndarray) -> Tensors:
    """Gradient of the loss w.r.t. every parameter tensor, summed over the
    batch, as views of one new vector laid out like ``params.tensors``.
    ``d_y_hat`` (B,) and ``d_aux_hat`` (B, K) are the loss gradients at the
    sigmoid head outputs (as produced by losses.loss_grad_heads). It spends
    the trace: each layer's dZ is written over its cached gates, and the cache
    leaves ``trace.lstm``, so a second backward on the trace raises NetworkError.
    """
    hyper, t, pack = params.hyper, params.tensors, trace.pack
    if sorted(trace.lstm) != [0, 1]:
        raise NetworkError("trace holds no caches: it was built without keep_caches or spent by a backward")
    d_y_hat, d_aux_hat = np.asarray(d_y_hat, dtype=float), np.asarray(d_aux_hat, dtype=float)
    want = (len(pack.lengths), hyper.n_aux)
    if d_y_hat.shape != want[:1] or d_aux_hat.shape != want:
        raise NetworkError(f"gradient shapes {d_y_hat.shape}, {d_aux_hat.shape} != {want[:1]}, {want}")
    grads = t.like()  # every view is written below

    # Heads: sigmoid backward to the logits, then linear layers.
    d_logits = np.concatenate([d_y_hat[:, None], d_aux_hat], axis=1) * trace.heads * (1.0 - trace.heads)
    a2 = np.maximum(trace.z2, 0.0)
    np.matmul(a2.T, d_logits[:, 0], out=grads["head_tox_w"])
    d_logits[:, :1].sum(axis=0, out=grads["head_tox_b"])
    if hyper.n_aux > 0:
        np.matmul(a2.T, d_logits[:, 1:], out=grads["head_aux_W"])
        d_logits[:, 1:].sum(axis=0, out=grads["head_aux_b"])

    # Dense stack (ReLU).
    d_z2 = (d_logits @ _heads(params)[0]) * (trace.z2 > 0)
    np.matmul(np.maximum(trace.z1, 0.0).T, d_z2, out=grads["dense2_W"])
    d_z2.sum(axis=0, out=grads["dense2_b"])
    d_z1 = (d_z2 @ t["dense2_W"].T) * (trace.z1 > 0)
    np.matmul(trace.pooled.T, d_z1, out=grads["dense1_W"])
    d_z1.sum(axis=0, out=grads["dense1_b"])
    d_pooled = np.repeat(d_z1 @ t["dense1_W"].T, pack.lengths, axis=0)

    # Pooling back to each token's hidden state.
    a = trace.attn_weights
    d_h_seq = a[:, None] * d_pooled
    if hyper.attention:
        d_a = (trace.h_seq * d_pooled).sum(axis=1)
        d_u = a * (d_a - np.repeat(np.add.reduceat(a * d_a, pack.starts), pack.lengths))
        d_u *= 1.0 - trace.attn_tanh**2
        np.matmul(d_u, trace.h_seq, out=grads["attn_w"])
        d_h_seq += d_u[:, None] * t["attn_w"][None, :]
    del d_pooled

    # Stacked BiLSTMs, top down. Layer 1's input grads feed layer 0's
    # outputs; layer 0's input is the frozen embedding, so it gets none. As
    # in forward, this thread makes every whole-layer array. BPTT and
    # the weight gradients run as two rounds, so that the arrays of one are
    # freed before those of the other are made.
    hdim, n_rows = hyper.hidden, pack.order.shape[1]
    threaded = _threaded(hdim)
    prev = pack.order[:, pack.steps[0] :] + [[-1], [1]]  # each packed row's token one step earlier
    for layer, h in ((1, trace.h_seq), (0, trace.layer_inputs[1][0])):  # each layer's h in token order
        (x, order), (d_z, c) = trace.layer_inputs[layer], trace.lstm.pop(layer)
        prefixes = [f"lstm{layer}_{direction}" for direction in ("fwd", "bwd")]
        d_h_out = d_h_seq.reshape(-1, 2, hdim)[pack.order, [[0], [1]]]  # each direction's packed rows
        del d_h_seq
        _each_direction(threaded, _bptt, (d_z, c), d_h_out, pack, [t[f"{p}_Wh"] for p in prefixes])
        del d_h_out, c
        layer_grads = [{w: grads[f"{p}_{w}"] for w in ("Wh", "Wx", "b")} for p in prefixes]
        h_prev = np.empty((2, n_rows - pack.steps[0], hdim))
        x_packed = np.empty((2, n_rows, x.shape[1]))
        wxs = [t[f"{p}_Wx"] for p in prefixes] if layer == 1 else None
        _each_direction(threaded, _weight_grads, h, prev, pack, x, order, wxs, d_z, layer_grads, h_prev, x_packed)
        del h_prev, d_z
        if layer == 1:
            d_h_seq = np.zeros_like(x)
            for d in (0, 1):  # forward direction first
                d_h_seq[pack.order[d]] += x_packed[d]
        del x_packed
    return grads


def predict(
    params: ModelParams, table: EmbeddingTable, comments: list[Comment]
) -> tuple[np.ndarray, np.ndarray]:
    """Inference over a batch (no dropout). Order is preserved.

    Each forward pass takes the next comments in order while their tokens fit
    in ``PREDICT_TOKENS``, and at least one comment.

    Returns (toxicity scores shape (N,), auxiliary scores shape (N, K)).
    """
    heads = np.zeros((len(comments), 1 + params.hyper.n_aux))
    start = 0
    while start < len(comments):
        stop, tokens = start + 1, comments[start].true_length
        while stop < len(comments) and tokens + comments[stop].true_length <= PREDICT_TOKENS:
            tokens += comments[stop].true_length
            stop += 1
        heads[start:stop] = forward(params, table, comments[start:stop], keep_caches=False).heads
        start = stop
    return heads[:, 0].copy(), heads[:, 1:].copy()
