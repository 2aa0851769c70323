import dataclasses

import numpy as np
import pytest

from mtltox.embeddings import checksum, random_table
from mtltox.metrics import prf1, ScoredExample
from mtltox.network import Hyper, ModelParams, NetworkError, init_params, predict
from mtltox.synthetic import biased_corpus, separable_corpus
from mtltox.training import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_global_norm,
    grid_search_alpha,
    propagate_identities,
    run_experiment,
    train_fold,
)


def scalar_params(value=0.0):
    hyper = Hyper(embed_dim=1, hidden=1, dense1=1, dense2=1, n_aux=0)
    return ModelParams(hyper=hyper, tensors={"w": np.array([value])})


class TestAdamStep:
    cfg = TrainConfig(learning_rate=0.1)

    def test_zero_grads_leave_params_unchanged(self):
        params = scalar_params(1.5)
        state = AdamState.init(params)
        params, state = adam_step(params, {"w": np.zeros(1)}, state, self.cfg)
        assert params.tensors["w"][0] == 1.5
        assert state.t == 1

    def test_first_step_hand_value(self):
        # g=1 at t=1: m_hat = v_hat = 1, update = -lr / (1 + eps) ~ -0.1
        params = scalar_params(0.0)
        state = AdamState.init(params)
        params, _ = adam_step(params, {"w": np.ones(1)}, state, self.cfg)
        assert params.tensors["w"][0] == pytest.approx(-0.1, abs=1e-8)

    def test_clipping_reduces_norm(self):
        grads = {"a": np.full(25, 10.0)}  # norm 50
        clipped = clip_global_norm(grads, 5.0)
        norm = np.sqrt(sum(np.sum(g * g) for g in clipped.values()))
        assert norm == pytest.approx(5.0, rel=1e-12)

    def test_clipping_noop_below_threshold(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        assert clip_global_norm(grads, 5.0) is grads

    def test_nonfinite_grad_rejected(self):
        params = scalar_params()
        state = AdamState.init(params)
        with pytest.raises(NetworkError, match="non-finite"):
            adam_step(params, {"w": np.array([np.nan])}, state, self.cfg)

    def test_second_moments_nonnegative(self):
        params = scalar_params()
        state = AdamState.init(params)
        rng = np.random.default_rng(0)
        for _ in range(20):
            params, state = adam_step(params, {"w": rng.normal(size=1)}, state, self.cfg)
            assert state.v["w"][0] >= 0.0
            assert np.isfinite(params.tensors["w"][0])


def toy_hyper(vocab_dim=None, n_aux=0, attention=True):
    return Hyper(
        embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=n_aux,
        dropout_rate=0.1, attention=attention, max_len=12,
    )


def quick_cfg(**kw):
    defaults = dict(epochs=3, batch_size=32, learning_rate=0.01, seed=0, k_folds=2, patience=10)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainFold:
    def test_epochs_zero_returns_init(self):
        comments, vocab = separable_corpus(n=20, seed=0)
        table = random_table(vocab, 4, 4, seed=0)
        hyper = toy_hyper()
        params, record = train_fold(comments[:15], comments[15:], table, hyper, quick_cfg(epochs=0))
        reference = init_params(hyper, 0)
        assert record.epochs == []
        assert all(np.array_equal(params.tensors[k], reference.tensors[k]) for k in params.tensors)

    def test_empty_split_rejected(self):
        comments, vocab = separable_corpus(n=10, seed=0)
        table = random_table(vocab, 4, 4, seed=0)
        with pytest.raises(ValueError):
            train_fold([], comments, table, toy_hyper(), quick_cfg())

    def test_same_seed_identical_losses(self):
        comments, vocab = separable_corpus(n=40, seed=1)
        table = random_table(vocab, 4, 4, seed=0)
        _, r1 = train_fold(comments[:30], comments[30:], table, toy_hyper(), quick_cfg(epochs=2))
        _, r2 = train_fold(comments[:30], comments[30:], table, toy_hyper(), quick_cfg(epochs=2))
        assert r1.epochs == r2.epochs

    def test_embeddings_stay_frozen(self):
        comments, vocab = separable_corpus(n=30, seed=2)
        table = random_table(vocab, 4, 4, seed=0)
        before = checksum(table)
        train_fold(comments[:20], comments[20:], table, toy_hyper(), quick_cfg(epochs=2))
        assert checksum(table) == before

    def test_separable_corpus_converges(self):
        # Toxic iff the marker token appears: F1 >= 0.95 within 30 epochs.
        comments, vocab = separable_corpus(n=200, seed=3)
        table = random_table(vocab, 4, 4, seed=0, scale=5.0)
        train, val = comments[:160], comments[160:]
        cfg = quick_cfg(epochs=30, learning_rate=0.05, patience=30)
        hyper = Hyper(
            embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=0,
            dropout_rate=0.0, attention=True, max_len=12,
        )
        params, _ = train_fold(train, val, table, hyper, cfg)
        scores, _ = predict(params, table, val)
        out = prf1([ScoredExample(float(s), c.y_bin) for s, c in zip(scores, val)])
        assert out.f1 >= 0.95


class TestGridSearch:
    def test_single_point_grid(self):
        comments, vocab = separable_corpus(n=30, seed=4)
        table = random_table(vocab, 4, 4, seed=0)
        chosen, results = grid_search_alpha(
            comments, table, toy_hyper(), quick_cfg(epochs=1), [], grid=[0.4]
        )
        assert chosen == 0.4
        assert len(results) == 1

    def test_one_entry_per_grid_point(self):
        comments, vocab = separable_corpus(n=30, seed=5)
        table = random_table(vocab, 4, 4, seed=0)
        _, results = grid_search_alpha(
            comments, table, toy_hyper(), quick_cfg(epochs=1), [], grid=[0.2, 0.8]
        )
        assert [r["alpha"] for r in results] == [0.2, 0.8]

    def test_undefined_metric_ties_prefer_larger_alpha(self):
        # With no subgroups the bias metric is always undefined, so every
        # grid point ties and the larger alpha must win.
        comments, vocab = separable_corpus(n=30, seed=6)
        table = random_table(vocab, 4, 4, seed=0)
        chosen, _ = grid_search_alpha(
            comments, table, toy_hyper(), quick_cfg(epochs=1), [], grid=[0.2, 0.6, 1.0]
        )
        assert chosen == 1.0


class TestPropagateIdentities:
    def make_sets(self, seed=0):
        train, _, vocab = biased_corpus(n_train=60, n_eval=8, seed=seed)
        table = random_table(vocab, 4, 4, seed=0)
        return train, table, vocab

    def test_all_annotated_is_noop(self):
        comments, table, _ = self.make_sets()
        out = propagate_identities(comments, table, toy_hyper(n_aux=6), quick_cfg(epochs=1))
        assert out is comments
        assert not any(c.propagated for c in out)

    def test_empty_annotated_rejected(self):
        comments, table, _ = self.make_sets()
        for c in comments:
            c.needs_propagation = True
        with pytest.raises(ValueError, match="no annotated"):
            propagate_identities(comments, table, toy_hyper(n_aux=6), quick_cfg(epochs=1))

    def test_scores_in_unit_interval_and_flagged(self):
        comments, table, _ = self.make_sets(seed=1)
        for c in comments[40:]:
            c.needs_propagation = True
        out = propagate_identities(comments, table, toy_hyper(n_aux=6), quick_cfg(epochs=1))
        filled = [c for c in out if c.propagated]
        assert len(filled) == len(comments) - 40
        for c in filled:
            assert np.all((c.identity_labels >= 0.0) & (c.identity_labels <= 1.0))
            assert not c.needs_propagation

    def test_duplicate_of_annotated_comment_gets_its_identity(self):
        # An unannotated comment identical to annotated gay=1 examples should
        # be scored > 0.5 for that identity once the predictor converges.
        train, _, vocab = biased_corpus(n_train=400, n_eval=8, seed=2)
        table = random_table(vocab, 4, 4, seed=0, scale=5.0)
        target_idx = 0  # "gay"
        donors = [c for c in train if c.identity_labels[target_idx] == 1.0]
        clone = dataclasses.replace(
            donors[0], id="clone", identity_labels=np.zeros(6), needs_propagation=True
        )
        hyper = Hyper(
            embed_dim=8, hidden=12, dense1=16, dense2=16, n_aux=6,
            dropout_rate=0.0, attention=True, max_len=16,
        )
        cfg = quick_cfg(epochs=30, learning_rate=0.05, patience=30, c=3.0)
        out = propagate_identities(train + [clone], table, hyper, cfg)
        assert out[-1].propagated
        assert out[-1].identity_labels[target_idx] > 0.5


class TestRunExperiment:
    def test_two_fold_plumbing(self):
        train, _, vocab = biased_corpus(n_train=60, n_eval=8, seed=3)
        table = random_table(vocab, 4, 4, seed=0)
        result = run_experiment(
            train, table, toy_hyper(n_aux=6), quick_cfg(epochs=1), ["gay", "muslim"]
        )
        assert len(result.records) == 2
        assert len(result.reports) == 2
        defined = [r.overall_auc for r in result.reports if r.overall_auc is not None]
        if defined:
            assert result.aggregate["overall_auc"] == pytest.approx(np.mean(defined))

    def test_unannotated_without_propagation_rejected(self):
        train, _, vocab = biased_corpus(n_train=30, n_eval=8, seed=4)
        table = random_table(vocab, 4, 4, seed=0)
        train[0].needs_propagation = True
        with pytest.raises(ValueError, match="propagat"):
            run_experiment(train, table, toy_hyper(n_aux=6), quick_cfg(epochs=1), [])

    def test_single_task_reduction_runs_on_same_code_path(self):
        # alpha=1, c=1, K=0 is the plain BiLSTM-attention classifier.
        comments, vocab = separable_corpus(n=30, seed=7)
        table = random_table(vocab, 4, 4, seed=0)
        cfg = quick_cfg(epochs=1, alpha=1.0, c=1.0)
        result = run_experiment(comments, table, toy_hyper(n_aux=0), cfg, [])
        assert len(result.records) == 2


def test_batch_pass_sums_single_example_gradients():
    from mtltox.embeddings import lookup
    from mtltox.losses import loss_grad_heads
    from mtltox.network import backward, forward, spatial_dropout_mask
    from mtltox.training import _batch_pass

    comments, _, vocab = biased_corpus(n_train=12, n_eval=2, identity_cooccurrence=0.9, seed=4)
    assert len({c.true_length for c in comments}) > 1
    table = random_table(vocab, 3, 3, seed=1)
    hyper = Hyper(embed_dim=6, hidden=3, dense1=4, dense2=4, n_aux=6, dropout_rate=0.3, max_len=16)
    params = init_params(hyper, seed=2)
    cfg = TrainConfig(seed=0)
    got, _ = _batch_pass(params, table, comments, cfg, np.random.default_rng(9))

    rng = np.random.default_rng(9)
    traces = [
        forward(
            params,
            lookup(table, c.token_ids),
            c.true_length,
            spatial_dropout_mask(hyper.embed_dim, hyper.dropout_rate, rng),
        )
        for c in comments
    ]
    d_y, d_aux = loss_grad_heads(
        np.array([tr.y_hat for tr in traces]),
        np.array([tr.aux_hat for tr in traces]),
        np.array([c.y for c in comments]),
        np.array([c.identity_labels for c in comments]),
        np.array([c.beta for c in comments]),
        cfg.loss_config(hyper.n_aux),
    )
    want = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
    for n, trace in enumerate(traces):
        for name, g in backward(params, trace, float(d_y[n]), d_aux[n]).tensors.items():
            want[name] += g
    for name in want:
        scale = np.max(np.abs(want[name]))
        assert scale > 0.0, name
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name
