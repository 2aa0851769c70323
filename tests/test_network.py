import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (
    analytic_grads,
    finite_difference_grads,
    max_relative_error,
    per_token_batch,
    random_example,
    tiny_hyper,
)
import mtltox.network as network
import mtltox.training as training
from mtltox.corpus import Comment
from mtltox.embeddings import lookup, random_table
from mtltox.corpus import Vocabulary
from mtltox.network import (
    Hyper,
    ModelParams,
    NetworkError,
    backward,
    forward,
    init_params,
    param_shapes,
    predict,
    spatial_dropout_mask,
)


def comment(cid, token_ids, n_identity):
    """A non-toxic, unweighted comment of the given real-token ids."""
    return Comment(
        id=cid, token_ids=token_ids, y=0.0, identity_labels=np.zeros(n_identity), subtype_labels=np.zeros(5)
    )


class TestInitParams:
    def test_deterministic(self):
        h = tiny_hyper()
        a, b = init_params(h, seed=11), init_params(h, seed=11)
        assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)

    def test_weight_magnitudes_bounded(self):
        h = tiny_hyper(n_aux=3, embed_dim=4, hidden=3, dense=5)
        params = init_params(h, seed=0)
        for name, arr in params.tensors.items():
            if name.endswith("_b") or name == "head_tox_b" or name == "head_aux_b":
                continue
            fan_out = arr.shape[1] if arr.ndim == 2 else 1
            limit = np.sqrt(6.0 / (arr.shape[0] + fan_out))
            assert np.all(np.abs(arr) <= limit)

    def test_forget_gate_bias_is_one(self):
        h = tiny_hyper(hidden=3)
        params = init_params(h, seed=0)
        for layer in (0, 1):
            for direction in ("fwd", "bwd"):
                b = params.tensors[f"lstm{layer}_{direction}_b"]
                assert np.array_equal(b[3:6], np.ones(3))
                assert np.array_equal(b[:3], np.zeros(3))
                assert np.array_equal(b[6:], np.zeros(6))

    def test_param_names_cover_tensors(self):
        for n_aux, attention in ((0, True), (2, False), (3, True)):
            h = tiny_hyper(n_aux=n_aux, attention=attention)
            params = init_params(h, seed=0)
            assert {name: a.shape for name, a in params.tensors.items()} == param_shapes(h)
            assert list(param_shapes(h)) == list(params.tensors)

    def test_params_that_are_not_a_tensors_are_refused(self):
        with pytest.raises(TypeError, match="ModelParams holds a Tensors, not a dict"):
            ModelParams(tiny_hyper(), {"w": np.zeros(1)})


class TestForward:
    def test_equal_attention_logits_give_uniform_attention(self):
        # With a zeroed scoring vector every token gets the same logit, so
        # the softmax must be uniform over each comment's own tokens.
        h = tiny_hyper(max_len=5)
        params = init_params(h, seed=2)
        params.tensors["attn_w"][:] = 0.0
        rng = np.random.default_rng(7)
        trace = forward(params, *per_token_batch(rng.normal(size=(5, h.embed_dim)), [3, 2]))
        assert trace.attn_weights == pytest.approx([1 / 3] * 3 + [1 / 2] * 2, abs=1e-12)

    def test_length_one_attention(self):
        h = tiny_hyper(max_len=4)
        params = init_params(h, seed=3)
        rng = np.random.default_rng(0)
        trace = forward(params, *per_token_batch(rng.normal(size=(1, h.embed_dim)), [1]))
        assert trace.attn_weights[0] == pytest.approx(1.0, abs=1e-12)
        assert trace.pooled[0] == pytest.approx(trace.h_seq[0], abs=1e-12)

    def test_attention_normalized_and_nonnegative(self):
        h = tiny_hyper(max_len=6)
        params = init_params(h, seed=4)
        rng = np.random.default_rng(1)
        for _ in range(20):
            length = int(rng.integers(1, 7))
            trace = forward(params, *per_token_batch(rng.normal(size=(length, h.embed_dim)), [length]))
            assert trace.attn_weights.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(trace.attn_weights >= 0.0)

    def test_outputs_in_open_unit_interval(self):
        h = tiny_hyper(n_aux=2)
        params = init_params(h, seed=5)
        rng = np.random.default_rng(2)
        trace = forward(params, *per_token_batch(rng.normal(size=(3, h.embed_dim)), [3]))
        assert trace.heads.shape == (1, 3)
        assert np.all((trace.heads > 0.0) & (trace.heads < 1.0))

    def test_true_length_is_the_batch_token_count(self):
        # perfbench's span table reads it as the work of one forward or backward call.
        h = tiny_hyper(n_aux=1, max_len=5)
        params = init_params(h, seed=5)
        lengths = [4, 1, 5, 2]
        trace = forward(params, *per_token_batch(np.random.default_rng(3).normal(size=(12, h.embed_dim)), lengths))
        assert trace.true_length == sum(lengths)
        assert trace.true_length == 12 and type(trace.true_length) is int

    def test_training_calls_the_network_functions_perfbench_traces(self):
        # perfbench's tracer rebinds network.forward/backward wherever they are bound by name.
        assert training.forward is network.forward
        assert training.backward is network.backward

    def test_tiny_model_matches_straightline_reimplementation(self):
        # Independent straight-line evaluation of the whole forward pass
        # (M=3, D=2, H=2, F1=F2=2, K=1), sharing only the parameter values.
        h = tiny_hyper(n_aux=1, embed_dim=2, hidden=2, dense=2, max_len=3)
        params = init_params(h, seed=7)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 2))
        t = params.tensors

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def lstm_seq(seq, prefix):
            wx, wh, b = t[f"{prefix}_Wx"], t[f"{prefix}_Wh"], t[f"{prefix}_b"]
            hs, hp, cp = [], np.zeros(2), np.zeros(2)
            for xt in seq:
                z = xt @ wx + hp @ wh + b
                i, f, g, o = sig(z[:2]), sig(z[2:4]), np.tanh(z[4:6]), sig(z[6:])
                cp = f * cp + i * g
                hp = o * np.tanh(cp)
                hs.append(hp)
            return hs

        def bilstm(seq, layer):
            fwd = lstm_seq(seq, f"lstm{layer}_fwd")
            bwd = lstm_seq(seq[::-1], f"lstm{layer}_bwd")[::-1]
            return [np.concatenate([f, b]) for f, b in zip(fwd, bwd)]

        h_seq = bilstm(bilstm(list(x), 0), 1)
        scores = np.array([np.tanh(hm @ t["attn_w"]) for hm in h_seq])
        weights = np.exp(scores) / np.exp(scores).sum()
        pooled = sum(w * hm for w, hm in zip(weights, h_seq))
        a1 = np.maximum(pooled @ t["dense1_W"] + t["dense1_b"], 0)
        a2 = np.maximum(a1 @ t["dense2_W"] + t["dense2_b"], 0)
        expected_y = sig(a2 @ t["head_tox_w"] + t["head_tox_b"][0])
        expected_aux = sig(a2 @ t["head_aux_W"] + t["head_aux_b"])

        trace = forward(params, *per_token_batch(x, [3]))
        assert trace.heads[0, 0] == pytest.approx(expected_y, abs=1e-10)
        assert trace.heads[0, 1:] == pytest.approx(expected_aux, abs=1e-10)

    @pytest.mark.parametrize("masked", [False, True], ids=["no-dropout", "dropout"])
    def test_an_empty_batch_or_a_comment_without_tokens_is_refused(self, masked):
        h = tiny_hyper()
        params = init_params(h, seed=0)
        table, cs = per_token_batch(np.zeros((3, h.embed_dim)), [2, 1])
        cs.insert(1, comment("empty", np.zeros(0, dtype=np.int64), n_identity=1))
        masks = np.ones((len(cs), h.embed_dim)) if masked else None
        with pytest.raises(NetworkError, match="comment 'empty' has no tokens"):
            forward(params, table, cs, masks)
        with pytest.raises(NetworkError, match="at least one comment"):
            forward(params, table, [], masks[:0] if masked else None)

    def test_determinism_with_fixed_dropout_mask(self):
        h = tiny_hyper()
        params = init_params(h, seed=0)
        masks = spatial_dropout_mask(h.embed_dim, 0.5, np.random.default_rng(9))[None, :]
        x = np.random.default_rng(4).normal(size=(3, h.embed_dim))
        batch = per_token_batch(x, [3])
        t1, t2 = forward(params, *batch, masks), forward(params, *batch, masks)
        assert np.array_equal(t1.heads, t2.heads)
        assert np.array_equal(t1.pooled, t2.pooled)


class TestBackward:
    def test_zero_grad_outputs_give_zero_param_grads(self):
        h = tiny_hyper(n_aux=1)
        params = init_params(h, seed=0)
        trace = forward(params, *per_token_batch(np.random.default_rng(0).normal(size=(3, h.embed_dim)), [3]))
        grads = backward(params, trace, np.zeros(1), np.zeros((1, 1)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_linearity_in_grad_outputs(self):
        h = tiny_hyper(n_aux=1)
        params = init_params(h, seed=0)
        tokens = np.random.default_rng(1).normal(size=(3, h.embed_dim))
        g1 = backward(params, forward(params, *per_token_batch(tokens, [3])), [0.7], np.array([[0.3]]))
        g2 = backward(params, forward(params, *per_token_batch(tokens, [3])), [1.4], np.array([[0.6]]))
        for name in g1:
            assert np.allclose(g2[name], 2.0 * g1[name], rtol=0, atol=1e-15)

    def test_a_second_backward_on_one_trace_is_refused(self):
        # backward writes each layer's dZ over its cached gates: the trace is spent.
        h = tiny_hyper(n_aux=1)
        params = init_params(h, seed=0)
        trace = forward(params, *per_token_batch(np.random.default_rng(1).normal(size=(3, h.embed_dim)), [3]))
        backward(params, trace, [0.7], np.array([[0.3]]))
        assert trace.lstm == {}
        with pytest.raises(NetworkError, match="spent by a backward"):
            backward(params, trace, [0.7], np.array([[0.3]]))
        inference = forward(params, *per_token_batch(np.zeros((2, h.embed_dim)), [2]), keep_caches=False)
        with pytest.raises(NetworkError, match="built without keep_caches"):
            backward(params, inference, [0.7], np.array([[0.3]]))

    def test_shape_mismatch(self):
        h = tiny_hyper(n_aux=2)
        params = init_params(h, seed=0)
        trace = forward(params, *per_token_batch(np.zeros((2, h.embed_dim)), [2]))
        with pytest.raises(NetworkError, match="shape"):
            backward(params, trace, [0.1], np.zeros((1, 3)))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("attention", [True, False])
    def test_finite_difference_check(self, seed, attention):
        h = tiny_hyper(n_aux=2, embed_dim=3, hidden=2, dense=3, max_len=4, attention=attention)
        params = init_params(h, seed=seed)
        example = random_example(h, seed + 100)
        analytic = analytic_grads(params, *example, 0.6)
        fd = finite_difference_grads(params, *example, 0.6)
        assert max_relative_error(analytic, fd) < 1e-4


class TestSpatialDropout:
    def test_rate_zero_all_ones(self):
        assert np.array_equal(spatial_dropout_mask(7, 0.0, np.random.default_rng(0)), np.ones(7))

    def test_dropped_fraction_concentrates(self):
        mask = spatial_dropout_mask(10000, 0.2, np.random.default_rng(1))
        dropped = np.mean(mask == 0.0)
        assert abs(dropped - 0.2) < 0.02

    def test_inverted_scaling(self):
        mask = spatial_dropout_mask(1000, 0.25, np.random.default_rng(2))
        kept = mask[mask > 0]
        assert np.all(kept == pytest.approx(1.0 / 0.75))

    def test_same_seed_identical(self):
        assert np.array_equal(
            spatial_dropout_mask(64, 0.2, np.random.default_rng(3)),
            spatial_dropout_mask(64, 0.2, np.random.default_rng(3)),
        )

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            spatial_dropout_mask(4, 1.0, np.random.default_rng(0))


class TestPredict:
    vocab = Vocabulary.build([[f"w{i}" for i in range(10)]])
    table = random_table(vocab, 2, 2, seed=0)

    def comments(self, n, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            length = int(rng.integers(1, 5))
            out.append(comment(str(i), rng.integers(2, len(self.vocab), size=length), n_identity=1))
        return out

    def test_comment_without_tokens_is_a_network_error(self):
        params = init_params(tiny_hyper(n_aux=1, embed_dim=4, max_len=5), seed=0)
        cs = self.comments(3) + [comment("empty", np.zeros(0, dtype=np.int64), n_identity=1)]
        with pytest.raises(NetworkError, match="comment 'empty' has no tokens"):
            predict(params, self.table, cs)

    def test_permutation_equivariance(self):
        h = tiny_hyper(n_aux=1, embed_dim=4, max_len=5)
        params = init_params(h, seed=1)
        cs = self.comments(6, seed=3)
        y, aux = predict(params, self.table, cs)
        perm = [3, 0, 5, 1, 4, 2]
        y_p, aux_p = predict(params, self.table, [cs[i] for i in perm])
        assert np.array_equal(y_p, y[perm])
        assert np.array_equal(aux_p, aux[perm])

    def test_batch_matches_loop_oracle(self):
        h = tiny_hyper(n_aux=2, embed_dim=4, max_len=5)
        params = init_params(h, seed=2)
        cs = self.comments(8, seed=4)
        y, aux = predict(params, self.table, cs)
        for i, c in enumerate(cs):
            yi, auxi = predict(params, self.table, [c])
            assert abs(y[i] - yi[0]) <= 1e-12
            assert np.all(np.abs(aux[i] - auxi[0]) <= 1e-12)


class TestFiniteCheck:
    def test_nan_in_second_layer_backward_weights_names_it(self):
        h = tiny_hyper(n_aux=1, embed_dim=3, max_len=4)
        params = init_params(h, seed=0)
        params.tensors["lstm1_bwd_Wh"][0, 0] = np.nan
        x = np.random.default_rng(0).normal(size=(3, h.embed_dim))
        with pytest.raises(NetworkError, match=r"lstm1_bwd at timestep \d+"):
            forward(params, *per_token_batch(x, [3]))


def per_timestep_packing(lengths):
    """The packing by its definition: step t holds the comments longer than t,
    longest first (ties in batch order), one packed row each."""
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    by_length = sorted(range(len(lengths)), key=lambda c: -lengths[c])
    steps, fwd, bwd = [], [], []
    for t in range(max(lengths)):
        active = [c for c in by_length if lengths[c] > t]
        for c in active:
            fwd.append(starts[c] + t)
            bwd.append(starts[c] + lengths[c] - 1 - t)
        steps.append(len(active))
    return steps, np.array([fwd, bwd])


class TestPacking:
    @pytest.mark.parametrize(
        "lengths",
        [[7], [1], [4, 4, 4], [1, 1], [3, 9, 3, 1, 9, 2]]
        + [list(np.random.default_rng(seed).integers(1, 12, size=40)) for seed in range(4)],
        ids=["one-comment", "one-token", "all-equal", "two-single-tokens", "ties"] + [f"random-{s}" for s in range(4)],
    )
    def test_pack_matches_per_timestep_definition(self, lengths):
        pack = network._pack(np.array(lengths, dtype=np.int64))
        steps, order = per_timestep_packing(lengths)
        assert pack.steps == steps and all(type(n) is int for n in pack.steps)
        assert pack.offsets == [sum(steps[:t]) for t in range(len(steps) + 1)]
        assert np.array_equal(pack.order, order)


def lstm_output(trace, layer, direction):
    """One direction's h of an LSTM layer, in token order: layer 0's is held as layer 1's input."""
    h = trace.h_seq if layer == 1 else trace.layer_inputs[1][0]
    return h.reshape(len(h), 2, -1)[:, direction]


def pre_backward_arrays(trace):
    """Copies of a training trace's LSTM caches, which backward spends, and its layers' token-order outputs."""
    caches = {f"lstm{layer}_{i}": a.copy() for layer in (0, 1) for i, a in enumerate(trace.lstm[layer])}
    return caches | {"lstm0_h": trace.layer_inputs[1][0], "lstm1_h": trace.h_seq}


class TestStackedDirections:
    """A layer runs its two directions as one stacked state, one stacked
    product per step. Neither direction's numbers may depend on the other's
    by a single bit."""

    # One long comment: its last steps run one active row per direction,
    # where the two-row floor applies to each slice of the stacked product.
    lengths = [12, 3, 3, 1, 2]

    @pytest.mark.parametrize("hidden", [1, 4, 8, 256])
    @pytest.mark.parametrize("perturbed, kept", [("bwd", 0), ("fwd", 1)])
    def test_perturbing_one_direction_leaves_the_other_bitwise(self, hidden, perturbed, kept):
        h = tiny_hyper(n_aux=1, embed_dim=3, hidden=hidden, dense=4, attention=False)
        rng = np.random.default_rng(hidden)
        params = init_params(h, seed=1)
        # The heads read only the kept direction of layer 1, so the upstream
        # gradient of layer 1 is confined to that direction.
        other = slice(hidden, 2 * hidden) if kept == 0 else slice(0, hidden)
        params.tensors["dense1_W"][other] = 0.0
        tokens = rng.normal(size=(sum(self.lengths), 3))
        d_y, d_aux = rng.normal(size=len(self.lengths)), rng.normal(size=(len(self.lengths), 1))
        base = forward(params, *per_token_batch(tokens, self.lengths))
        base_grads = backward(params, base, d_y, d_aux)
        kept_name = "lstm1_" + ("fwd", "bwd")[kept]
        for layer in (0, 1):
            changed = params.copy()
            for suffix in ("Wx", "Wh", "b"):
                w = changed.tensors[f"lstm{layer}_{perturbed}_{suffix}"]
                w += rng.normal(scale=0.5, size=w.shape)
            trace = forward(changed, *per_token_batch(tokens, self.lengths))
            assert not np.array_equal(lstm_output(trace, layer, 1 - kept), lstm_output(base, layer, 1 - kept))
            assert lstm_output(trace, layer, kept).tobytes() == lstm_output(base, layer, kept).tobytes()
            if layer == 1:
                grads = backward(changed, trace, d_y, d_aux)
                for suffix in ("Wx", "Wh", "b"):
                    name = f"{kept_name}_{suffix}"
                    assert grads[name].tobytes() == base_grads[name].tobytes(), name


def run_directions(monkeypatch, threaded):
    """Force each LSTM direction onto its own thread (as with two usable CPUs), or both into one stacked loop."""
    monkeypatch.setattr(network, "_THREAD_MIN_HIDDEN", 0 if threaded else 10**9)
    if threaded:
        monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


class TestThreadedDirections:
    """From _THREAD_MIN_HIDDEN, each direction of a layer runs on its own
    thread. Each thread issues the numpy calls that its slice of the stacked
    loop would, so no output or gradient may change by a bit."""

    # One unique longest comment, which runs alone for its last steps.
    lengths = [9, 3, 3, 1, 2]

    def run(self, hidden, params=None):
        h = tiny_hyper(n_aux=1, embed_dim=3, hidden=hidden, dense=4)
        params = params or init_params(h, seed=3)
        rng = np.random.default_rng(hidden)
        tokens = rng.normal(size=(sum(self.lengths), 3))
        masks = rng.random((len(self.lengths), 3)) + 0.5
        trace = forward(params, *per_token_batch(tokens, self.lengths), masks)
        arrays = pre_backward_arrays(trace)
        grads = backward(params, trace, rng.normal(size=len(self.lengths)), rng.normal(size=(len(self.lengths), 1)))
        return arrays | {"heads": trace.heads, "pooled": trace.pooled} | grads

    @pytest.mark.parametrize("hidden", [128, 256])
    def test_threaded_equals_inline_bitwise(self, monkeypatch, hidden):
        calls = []
        recurrence = network._recurrence

        def spy(window, fill, pack, wh, *args):
            calls.append((threading.current_thread().name, wh.shape[0]))
            return recurrence(window, fill, pack, wh, *args)

        monkeypatch.setattr(network, "_recurrence", spy)
        run_directions(monkeypatch, threaded=False)
        inline = self.run(hidden)
        assert calls == [(threading.current_thread().name, 2)] * 2
        calls.clear()
        run_directions(monkeypatch, threaded=True)
        threaded = self.run(hidden)
        assert sorted(calls) == sorted([(threading.current_thread().name, 1), ("mtltox-reverse_0", 1)] * 2)
        assert inline.keys() == threaded.keys()
        for name in inline:
            assert threaded[name].tobytes() == inline[name].tobytes(), name

    @pytest.mark.parametrize("tensor", ["lstm1_bwd_Wh", "lstm0_fwd_Wh"])
    def test_nan_weight_gives_the_same_error_on_both_paths(self, monkeypatch, tensor):
        params = init_params(tiny_hyper(n_aux=1, embed_dim=3, hidden=128, dense=4), seed=3)
        params.tensors[tensor][0, 0] = np.nan
        messages = []
        for threaded in (False, True):
            run_directions(monkeypatch, threaded)
            with pytest.raises(NetworkError, match=tensor[:-3] + r" at timestep \d+ of comment '\d+'") as err:
                self.run(128, params)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_a_call_that_raises_leaves_the_next_call_working(self, monkeypatch):
        run_directions(monkeypatch, threaded=True)
        params = init_params(tiny_hyper(n_aux=1, embed_dim=3, hidden=128, dense=4), seed=3)
        before = self.run(128, params)
        broken = params.copy()
        broken.tensors["lstm0_bwd_Wh"][1, 2] = np.nan
        with pytest.raises(NetworkError, match="lstm0_bwd"):
            self.run(128, broken)
        recurrence = network._recurrence

        def fails_on_the_worker(*args):
            if threading.current_thread().name.startswith("mtltox-reverse"):
                raise MemoryError("worker out of memory")
            return recurrence(*args)

        monkeypatch.setattr(network, "_recurrence", fails_on_the_worker)
        with pytest.raises(MemoryError, match="worker out of memory"):
            self.run(128, params)
        monkeypatch.setattr(network, "_recurrence", recurrence)
        after = self.run(128, params)
        for name in before:
            assert after[name].tobytes() == before[name].tobytes(), name

    def test_no_worker_thread_outlives_the_call(self, monkeypatch):
        run_directions(monkeypatch, threaded=True)
        self.run(128)  # a threaded forward and backward
        assert [t.name for t in threading.enumerate() if t.name.startswith("mtltox-reverse")] == []

    def test_callers_on_many_threads_each_get_their_own_worker(self, monkeypatch):
        # Each call owns its buffers and starts and joins its own worker for
        # its reverse direction, so concurrent callers get their own bits.
        run_directions(monkeypatch, threaded=True)
        params = init_params(tiny_hyper(n_aux=1, embed_dim=3, hidden=128, dense=4), seed=3)
        want = self.run(128, params)
        results, interval = [], sys.getswitchinterval()

        def caller():
            for _ in range(3):
                results.append(self.run(128, params))

        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        assert len(results) == 12
        for got in results:
            assert all(got[name].tobytes() == want[name].tobytes() for name in want)


class TestBatchComposition:
    vocab = Vocabulary.build([[f"w{i}" for i in range(30)]])
    table = random_table(vocab, 2, 2, seed=0)

    def comments(self, n, max_len, seed):
        # Mixed lengths with one unique longest comment, which runs alone for
        # its last steps of the packed recurrence.
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, max_len - 1, size=n)
        lengths[n // 2] = max_len
        return [
            comment(str(i), rng.integers(2, len(self.vocab), size=length), n_identity=2)
            for i, length in enumerate(lengths)
        ]

    # dense=512 is the paper's size, where a 2- or 3-row product would take
    # OpenBLAS's small-matrix kernel and round differently.
    # hidden=128 runs each LSTM direction on its own thread where two CPUs are usable.
    @pytest.mark.parametrize(
        "attention, dense, hidden",
        [
            pytest.param(True, 2, 8, id="True-2"),
            pytest.param(False, 2, 8, id="False-2"),
            pytest.param(True, 512, 8, id="True-512"),
            pytest.param(True, 2, 128, id="True-2-hidden128"),
        ],
    )
    def test_predict_equals_chunked_predict_bitwise(self, attention, dense, hidden):
        h = tiny_hyper(n_aux=2, embed_dim=4, hidden=hidden, dense=dense, max_len=9, attention=attention)
        params = init_params(h, seed=6)
        cs = self.comments(70, 9, seed=8)
        y, aux = predict(params, self.table, cs)
        whole = forward(params, self.table, cs, keep_caches=False)
        for chunk in (2, 3, 16):
            starts = range(0, len(cs), chunk)
            parts = [predict(params, self.table, cs[s : s + chunk]) for s in starts]
            assert np.array_equal(np.concatenate([p[0] for p in parts]), y), chunk
            assert np.array_equal(np.concatenate([p[1] for p in parts]), aux), chunk
            # Inner activations show a last-bit change that the sigmoid heads can round away.
            traces = [forward(params, self.table, cs[s : s + chunk]) for s in starts]
            assert np.array_equal(np.concatenate([tr.pooled for tr in traces]), whole.pooled), chunk
            assert np.array_equal(np.concatenate([tr.z2 for tr in traces]), whole.z2), chunk

    def test_token_budget_cuts_batches_without_changing_a_score(self, monkeypatch):
        h = tiny_hyper(n_aux=2, embed_dim=4, hidden=8, dense=2, max_len=9)
        params = init_params(h, seed=6)
        cs = self.comments(40, 9, seed=3)  # 1 to 9 tokens each, the one 9-token comment above the budget
        alone = [predict(params, self.table, [c]) for c in cs]
        passes = []
        real_forward = network.forward
        monkeypatch.setattr(network, "forward", lambda *a, **k: passes.append(len(a[2])) or real_forward(*a, **k))
        monkeypatch.setattr(network, "PREDICT_TOKENS", 8)
        y, aux = predict(params, self.table, cs)
        assert passes == self.greedy_cuts([c.true_length for c in cs], 8) and max(passes) > 1
        assert np.array_equal(y, np.concatenate([a[0] for a in alone]))
        assert np.array_equal(aux, np.concatenate([a[1] for a in alone]))

    @staticmethod
    def greedy_cuts(lengths, budget):
        """The comment count of each forward pass: the next comments while their tokens fit, at least one."""
        counts, tokens = [], budget + 1
        for length in lengths:
            if tokens + length > budget:
                counts.append(0)
                tokens = 0
            counts[-1] += 1
            tokens += length
        return counts


class TestDistinctRows:
    """Layer 0 projects each distinct row of a pass once, then gathers the
    products into packed order through the index. A row of a fixed-shape
    _ROW_BLOCK-row product depends only on that row, so every output and
    gradient must equal, byte for byte, those of the pass given one row per
    token."""

    vocab = Vocabulary.build([[f"w{i}" for i in range(300)]])
    table = random_table(vocab, 3, 3, seed=2)

    def comments(self, shared: bool) -> list[Comment]:
        # About 200 tokens: two blocks of per-token rows, one of distinct rows.
        rng = np.random.default_rng(5)
        lengths = rng.integers(1, 14, size=30)
        ids = rng.integers(2, 12, size=lengths.sum()) if shared else rng.permutation(np.arange(2, 302))
        starts = np.concatenate([[0], np.cumsum(lengths)])
        return [comment(str(i), ids[starts[i] : starts[i + 1]], n_identity=2) for i in range(len(lengths))]

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-tokens", "all-distinct"])
    @pytest.mark.parametrize("masked", [False, True], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("hidden", [4, 23, 128])
    def test_distinct_rows_equal_per_token_rows_bitwise(self, monkeypatch, hidden, masked, shared):
        run_directions(monkeypatch, threaded=hidden >= 128)
        params = init_params(tiny_hyper(n_aux=2, embed_dim=6, hidden=hidden, dense=5), seed=hidden)
        cs = self.comments(shared)
        ids = np.concatenate([c.token_ids for c in cs])
        lengths = [c.true_length for c in cs]
        row_comment = np.repeat(np.arange(len(cs)), lengths)
        rng = np.random.default_rng(hidden)
        masks = rng.random((len(cs), 6)) + 0.5 if masked else None
        d_y, d_aux = rng.normal(size=len(cs)), rng.normal(size=(len(cs), 2))
        per_token = lookup(self.table, ids)
        calls = [((self.table, cs), masks), (per_token_batch(per_token, lengths), masks)]
        if masked:  # the masks applied by their definition, outside forward
            calls.append((per_token_batch(per_token * masks[row_comment], lengths), None))
        looked_up, real_lookup = [], network.lookup
        monkeypatch.setattr(network, "lookup", lambda table, i: looked_up.append(len(i)) or real_lookup(table, i))
        results = []
        for (table, given), given_masks in calls:
            trace = forward(params, table, given, given_masks)
            caches = pre_backward_arrays(trace)
            grads = backward(params, trace, d_y, d_aux)
            results.append({"heads": trace.heads, "h_seq": trace.h_seq} | caches | grads)
        pairs = row_comment * len(self.table.matrix) + ids
        distinct = len(np.unique(pairs)) if masked else len(np.unique(ids))
        assert looked_up[0] == distinct and (distinct < len(ids)) == shared
        assert looked_up[1:] == [len(ids)] * (len(calls) - 1)
        for other in results[1:]:
            assert other.keys() == results[0].keys()
            for name in other:
                assert results[0][name].tobytes() == other[name].tobytes(), name

    @pytest.mark.parametrize("masked", [False, True], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("offset", [0, 7, -303], ids=["first-beyond", "further-beyond", "negative"])
    def test_a_token_id_beyond_the_table_is_refused_by_lookup(self, masked, offset):
        # The bad id sits in the first comment, where (comment, id) pairs could run into the next comment's.
        params = init_params(tiny_hyper(n_aux=2, embed_dim=6, hidden=4, dense=5), seed=0)
        cs = self.comments(shared=True)
        cs[0].token_ids[0] = len(self.table.matrix) + offset
        masks = np.ones((len(cs), 6)) if masked else None
        with pytest.raises(IndexError, match=r"token id out of range \[0, 302\)"):
            forward(params, self.table, cs, masks)


class TestStreamedProjection:
    """Each recurrence reads X·Wx + b through a window that its fill tops up
    with whole _ROW_BLOCK-row blocks as the steps reach them. Every block is
    the same product over the same packed rows, so a window at its floor,
    which moves many times in a pass, must give the bytes of one that holds
    the whole pass."""

    vocab = Vocabulary.build([[f"w{i}" for i in range(100)]])
    table = random_table(vocab, 3, 3, seed=4)

    def run(self, monkeypatch, window_bytes, params, masked):
        """Heads, h_seq, caches and gradients of one pass, and each recurrence's count of fills."""
        monkeypatch.setattr(network, "_WINDOW_BYTES", window_bytes)
        rng = np.random.default_rng(7)
        lengths = rng.integers(1, 21, size=40)  # the widest step spans five 8-row blocks
        cs = [comment(str(i), rng.integers(2, len(self.vocab), size=n), n_identity=2) for i, n in enumerate(lengths)]
        masks = rng.random((len(cs), 6)) + 0.5 if masked else None
        fills, recurrence = [], network._recurrence

        def counting(window, fill, *args):
            count = [0]  # this call's own: each direction may run on its own thread
            fills.append(count)

            def counted(*fill_args):
                count[0] += 1
                return fill(*fill_args)

            return recurrence(window, counted, *args)

        monkeypatch.setattr(network, "_recurrence", counting)
        trace = forward(params, self.table, cs, masks)
        caches = pre_backward_arrays(trace)
        grads = backward(params, trace, rng.normal(size=len(cs)), rng.normal(size=(len(cs), 2)))
        monkeypatch.setattr(network, "_recurrence", recurrence)
        return {"heads": trace.heads, "h_seq": trace.h_seq} | caches | grads, [count for count, in fills]

    @pytest.mark.parametrize("masked", [False, True], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("hidden", [4, 128])
    def test_window_at_its_floor_equals_a_window_on_the_whole_pass_bitwise(self, monkeypatch, hidden, masked):
        run_directions(monkeypatch, threaded=hidden >= 128)
        monkeypatch.setattr(network, "_ROW_BLOCK", 8)
        params = init_params(tiny_hyper(n_aux=2, embed_dim=6, hidden=hidden, dense=5), seed=hidden)
        whole, whole_fills = self.run(monkeypatch, 2**40, params, masked)
        floor, floor_fills = self.run(monkeypatch, 0, params, masked)
        assert whole_fills == [1] * len(whole_fills) and len(floor_fills) == len(whole_fills)
        assert min(floor_fills) >= 10, floor_fills
        assert floor.keys() == whole.keys()
        for name in whole:
            assert floor[name].tobytes() == whole[name].tobytes(), name

    def test_a_paper_size_pass_peaks_under_28_mb(self):
        # 16 comments, 993 tokens (289 distinct), as in a paper-scale
        # evaluation chunk. The bound sits between this pass's peak, 18.9 MB
        # with a thread per direction and 23.2 MB without, and 35.7-36.4 MB,
        # its peak when a pass held its whole (2, T, 4H) projection and a
        # packed copy of layer 1's input (2 cores, numpy 2.4.6).
        vocab = Vocabulary.build([[f"w{i}" for i in range(300)]])
        table = random_table(vocab, 300, 300, seed=0)
        params = init_params(Hyper(embed_dim=600), seed=0)
        rng = np.random.default_rng(0)
        cs = [comment(str(i), rng.integers(2, len(vocab), size=n), 2) for i, n in enumerate(rng.integers(1, 123, 16))]
        tracemalloc.start()
        try:
            predict(params, table, cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * 10**6, peak

    def test_a_paper_size_training_step_peaks_under_112_mb(self):
        # One forward and backward of 16 comments, 976 tokens, with dropout
        # masks, as in a paper-scale training batch. The bound sits between
        # this step's peak, 95.8-96.9 MB with a thread per direction or
        # without, and 127.6-128.2 MB, its peak when each layer's cache also
        # held its h and backward made its own (2, T, 4H) dZ array (2 cores,
        # numpy 2.4.6). The parameters' 31 MB gradient vector is in both.
        vocab = Vocabulary.build([[f"w{i}" for i in range(300)]])
        table = random_table(vocab, 300, 300, seed=0)
        hyper = Hyper(embed_dim=600)
        params = init_params(hyper, seed=0)
        rng = np.random.default_rng(0)
        cs = [comment(str(i), rng.integers(2, len(vocab), size=n), 9) for i, n in enumerate(rng.integers(1, 121, 16))]
        masks = np.array([spatial_dropout_mask(600, hyper.dropout_rate, rng) for _ in cs])
        d_y, d_aux = rng.normal(size=len(cs)), rng.normal(size=(len(cs), hyper.n_aux))
        tracemalloc.start()
        try:
            backward(params, forward(params, table, cs, masks), d_y, d_aux)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(c.true_length for c in cs) == 976
        assert peak < 112 * 10**6, peak
