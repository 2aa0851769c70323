import numpy as np
import pytest

from conftest import (
    analytic_grads,
    example_loss,
    finite_difference_grads,
    max_relative_error,
    random_example,
    tiny_hyper,
)
from mtltox.corpus import Comment
from mtltox.embeddings import random_table
from mtltox.corpus import Vocabulary
from mtltox.losses import LossConfig
from mtltox.network import (
    NetworkError,
    backward,
    embed_batch,
    forward,
    forward_batch,
    init_params,
    param_names,
    predict,
    spatial_dropout_mask,
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
            assert sorted(param_names(h)) == sorted(params.tensors)


class TestForward:
    def test_equal_attention_logits_give_uniform_attention(self):
        # With a zeroed scoring vector every real step gets the same logit,
        # so the softmax must be uniform over real steps and zero on padding.
        h = tiny_hyper(max_len=5)
        params = init_params(h, seed=2)
        params.tensors["attn_w"][:] = 0.0
        rng = np.random.default_rng(7)
        embedded = rng.normal(size=(5, h.embed_dim))
        trace = forward(params, embedded, 3)
        assert trace.attn_weights[:3] == pytest.approx([1 / 3] * 3, abs=1e-12)
        assert np.array_equal(trace.attn_weights[3:], np.zeros(2))

    def test_length_one_attention(self):
        h = tiny_hyper(max_len=4)
        params = init_params(h, seed=3)
        rng = np.random.default_rng(0)
        trace = forward(params, rng.normal(size=(4, h.embed_dim)), 1)
        assert trace.attn_weights[0] == pytest.approx(1.0, abs=1e-12)
        assert trace.pooled == pytest.approx(trace.h_seq[0], abs=1e-12)

    def test_attention_normalized_and_nonnegative(self):
        h = tiny_hyper(max_len=6)
        params = init_params(h, seed=4)
        rng = np.random.default_rng(1)
        for _ in range(20):
            length = int(rng.integers(1, 7))
            trace = forward(params, rng.normal(size=(6, h.embed_dim)), length)
            assert trace.attn_weights[:length].sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(trace.attn_weights >= 0.0)

    def test_outputs_in_open_unit_interval(self):
        h = tiny_hyper(n_aux=2)
        params = init_params(h, seed=5)
        rng = np.random.default_rng(2)
        trace = forward(params, rng.normal(size=(3, h.embed_dim)), 3)
        assert 0.0 < trace.y_hat < 1.0
        assert np.all((trace.aux_hat > 0.0) & (trace.aux_hat < 1.0))

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

        trace = forward(params, x, 3)
        assert trace.y_hat == pytest.approx(expected_y, abs=1e-10)
        assert trace.aux_hat == pytest.approx(expected_aux, abs=1e-10)

    def test_bad_true_length(self):
        h = tiny_hyper()
        params = init_params(h, seed=0)
        with pytest.raises(NetworkError):
            forward(params, np.zeros((3, h.embed_dim)), 0)

    def test_determinism_with_fixed_dropout_mask(self):
        h = tiny_hyper()
        params = init_params(h, seed=0)
        mask = spatial_dropout_mask(h.embed_dim, 0.5, seed_or_rng=9)
        x = np.random.default_rng(4).normal(size=(3, h.embed_dim))
        t1, t2 = forward(params, x, 3, mask), forward(params, x, 3, mask)
        assert t1.y_hat == t2.y_hat
        assert np.array_equal(t1.pooled, t2.pooled)


class TestMasking:
    def test_padded_positions_never_influence_outputs(self):
        h = tiny_hyper(n_aux=2, embed_dim=4, max_len=6)
        params = init_params(h, seed=1)
        vocab = Vocabulary.build([[f"w{i}" for i in range(20)]])
        table = random_table(vocab, 2, 2, seed=0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            length = int(rng.integers(1, 6))
            ids = rng.integers(2, len(vocab), size=6)
            ids[length:] = 0
            mutated = ids.copy()
            mutated[length:] = rng.integers(0, len(vocab), size=6 - length)
            base = [Comment("a", ids, length, 0.0, 0, np.zeros(2), np.zeros(5), False, 1.0)]
            other = [Comment("b", mutated, length, 0.0, 0, np.zeros(2), np.zeros(5), False, 1.0)]
            y1, a1 = predict(params, table, base)
            y2, a2 = predict(params, table, other)
            assert abs(y1[0] - y2[0]) <= 1e-12
            assert np.all(np.abs(a1 - a2) <= 1e-12)


class TestBackward:
    cfg = LossConfig(alpha=0.6, n_aux=1, reduction="sum")

    def test_zero_grad_outputs_give_zero_param_grads(self):
        h = tiny_hyper(n_aux=1)
        params = init_params(h, seed=0)
        trace = forward(params, np.random.default_rng(0).normal(size=(3, h.embed_dim)), 3)
        grads = backward(params, trace, 0.0, np.zeros(1)).tensors
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_linearity_in_grad_outputs(self):
        h = tiny_hyper(n_aux=1)
        params = init_params(h, seed=0)
        trace = forward(params, np.random.default_rng(1).normal(size=(3, h.embed_dim)), 3)
        g1 = backward(params, trace, 0.7, np.array([0.3])).tensors
        g2 = backward(params, trace, 1.4, np.array([0.6])).tensors
        for name in g1:
            assert np.allclose(g2[name], 2.0 * g1[name], rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        h = tiny_hyper(n_aux=2)
        params = init_params(h, seed=0)
        trace = forward(params, np.zeros((3, h.embed_dim)), 2)
        with pytest.raises(NetworkError, match="shape"):
            backward(params, trace, 0.1, np.zeros(3))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("attention", [True, False])
    def test_finite_difference_check(self, seed, attention):
        h = tiny_hyper(n_aux=2, embed_dim=3, hidden=2, dense=3, max_len=4, attention=attention)
        params = init_params(h, seed=seed)
        embedded, length, y, aux_y, beta = random_example(h, seed + 100)
        analytic = analytic_grads(params, embedded, length, y, aux_y, beta, self.cfg_for(h))
        fd = finite_difference_grads(params, embedded, length, y, aux_y, beta, self.cfg_for(h))
        assert max_relative_error(analytic, fd) < 1e-4

    @staticmethod
    def cfg_for(h):
        return LossConfig(alpha=0.6, n_aux=h.n_aux, reduction="sum")


class TestSpatialDropout:
    def test_rate_zero_all_ones(self):
        assert np.array_equal(spatial_dropout_mask(7, 0.0, 0), np.ones(7))

    def test_dropped_fraction_concentrates(self):
        mask = spatial_dropout_mask(10000, 0.2, seed_or_rng=1)
        dropped = np.mean(mask == 0.0)
        assert abs(dropped - 0.2) < 0.02

    def test_inverted_scaling(self):
        mask = spatial_dropout_mask(1000, 0.25, seed_or_rng=2)
        kept = mask[mask > 0]
        assert np.all(kept == pytest.approx(1.0 / 0.75))

    def test_same_seed_identical(self):
        assert np.array_equal(
            spatial_dropout_mask(64, 0.2, seed_or_rng=3), spatial_dropout_mask(64, 0.2, seed_or_rng=3)
        )

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            spatial_dropout_mask(4, 1.0, 0)


class TestPredict:
    vocab = Vocabulary.build([[f"w{i}" for i in range(10)]])
    table = random_table(vocab, 2, 2, seed=0)

    def comments(self, n, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            length = int(rng.integers(1, 5))
            ids = np.zeros(5, dtype=np.int64)
            ids[:length] = rng.integers(2, len(self.vocab), size=length)
            out.append(Comment(str(i), ids, length, 0.0, 0, np.zeros(1), np.zeros(5), False, 1.0))
        return out

    def test_batch_of_one_equals_forward(self):
        h = tiny_hyper(n_aux=1, embed_dim=4, max_len=5)
        params = init_params(h, seed=0)
        c = self.comments(1)[0]
        y, aux = predict(params, self.table, [c])
        from mtltox.embeddings import lookup

        trace = forward(params, lookup(self.table, c.token_ids), c.true_length)
        assert y[0] == trace.y_hat
        assert np.array_equal(aux[0], trace.aux_hat)

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
        x = np.random.default_rng(0).normal(size=(4, h.embed_dim))
        with pytest.raises(NetworkError, match=r"lstm1_bwd at timestep \d+"):
            forward(params, x, 3)


class TestBatchComposition:
    vocab = Vocabulary.build([[f"w{i}" for i in range(30)]])
    table = random_table(vocab, 2, 2, seed=0)

    def comments(self, n, max_len, seed):
        # Mixed lengths with one unique longest comment, which runs alone for
        # its last steps of the packed recurrence.
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, max_len - 1, size=n)
        lengths[n // 2] = max_len
        out = []
        for i, length in enumerate(lengths):
            ids = np.zeros(max_len, dtype=np.int64)
            ids[:length] = rng.integers(2, len(self.vocab), size=length)
            out.append(Comment(str(i), ids, int(length), 0.0, 0, np.zeros(2), np.zeros(5), False, 1.0))
        return out

    # dense=512 is the paper's size, where a 2- or 3-row product would take
    # OpenBLAS's small-matrix kernel and round differently.
    @pytest.mark.parametrize("attention, dense", [(True, 2), (False, 2), (True, 512)])
    def test_predict_equals_chunked_predict_bitwise(self, attention, dense):
        h = tiny_hyper(n_aux=2, embed_dim=4, hidden=8, dense=dense, max_len=9, attention=attention)
        params = init_params(h, seed=6)
        cs = self.comments(70, 9, seed=8)
        y, aux = predict(params, self.table, cs)
        whole = forward_batch(params, *embed_batch(self.table, cs), keep_caches=False)
        for chunk in (2, 3, 16):
            starts = range(0, len(cs), chunk)
            parts = [predict(params, self.table, cs[s : s + chunk]) for s in starts]
            assert np.array_equal(np.concatenate([p[0] for p in parts]), y), chunk
            assert np.array_equal(np.concatenate([p[1] for p in parts]), aux), chunk
            # Inner activations show a last-bit change that the sigmoid heads can round away.
            traces = [forward_batch(params, *embed_batch(self.table, cs[s : s + chunk])) for s in starts]
            assert np.array_equal(np.concatenate([tr.pooled for tr in traces]), whole.pooled), chunk
            assert np.array_equal(np.concatenate([tr.z2 for tr in traces]), whole.z2), chunk
